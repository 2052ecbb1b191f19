"""Concrete engine for the two finite automorphism groups in play, each
named by one :class:`Group`.

The Fermat group ``Group(p)`` is the full automorphism group of the
degree-p Fermat curve, a semidirect product of Z_p^2 (scaling generators
a1, a2, with a3 defined by a1 a2 a3 = 1) by S3 (coordinate permutations
u, v).  An element is stored in the normal form a1^m a2^n * sigma.  The
S3 action on exponent pairs is hard-coded in ACTION below; a unit test
re-derives it from the explicit projective coordinate maps.

The p-gonal group ``Group(p, gamma)`` is generated by the deck
transformation T and the order-3 map R of the gamma curve, with
T^p = R^3 = 1 and R T R^(-1) = T^(gamma^2).  An element is T^k R^e.

Both groups run on one integer kernel.  A :class:`Group` numbers its
elements by their position in the canonical element order: a1^m a2^n
sigma is (m p + n) 6 + sigma and T^k R^e is 3 k + e, so the identity is
:data:`IDENTITY` = 0 in both.  The index is the only element value.
Only this module knows that layout: :meth:`Group.coordinates` gives the
normal form of an index, and :meth:`Group.left_mul` multiplies indices
straight from the group law, written once for each group, so no Cayley
table is ever stored.  On that kernel:

- a :class:`Subgroup` is the sorted tuple of its element indices, and
  the subgroup some elements generate is their closure under left
  multiplication (:meth:`Group.closure`); for one element, its powers;
- the conjugacy classes follow a rule.  Write a Fermat element as
  x sigma, x in F_p^2 and A = ACTION[sigma]: a translation's class is
  the S3-orbit of x; the 3-cycle elements form one class (I - A is
  invertible for a 3-cycle when p != 3, and v conjugates u to u^2); and
  for a transposition the class of x sigma is given by the S3-orbit of
  its square (x sigma)^2 = (I + A) x.  In the p-gonal group, T^k is
  classed by the orbit of k under multiplication by gamma^2, and each
  e != 0 gives one class of T^k R^e.  :func:`class_rule_gap` checks the
  Fermat rule by argument; the orbit walk over the conjugation maps
  (:func:`conjugacy_classes`) is the tests' oracle for it;
- :class:`ClassData` maps every index to its class, and counts the
  cosets of K an element fixes by Frobenius' formula from the classes K
  meets, so no coset G/K is ever listed;
- :func:`cyclic_subgroup_classes` takes one cyclic subgroup per
  conjugacy class of them, where :func:`all_cyclic_subgroups` lists
  every one.
"""

from __future__ import annotations

from .errors import GroupMismatchError, InconsistentOrbifoldError, NoGammaError, OutOfRangeError
from .orbits import PrimeContext
from .records import FrozenRecord, set_field

# The index of the identity in either group.
IDENTITY = 0

# The six permutations of the index triple (1, 2, 3), 0-based, in a fixed
# canonical order: id, u, u^2, v, uv, u^2 v.  PERMS[s][i] is the image of i.
PERMS = ((0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2), (2, 1, 0), (0, 2, 1))
PERM_ID, PERM_U, PERM_U2, PERM_V, PERM_UV, PERM_U2V = range(6)

_PERM_INDEX = {perm: s for s, perm in enumerate(PERMS)}


def _compose(s: int, t: int) -> int:
    ps, pt = PERMS[s], PERMS[t]
    return _PERM_INDEX[(ps[pt[0]], ps[pt[1]], ps[pt[2]])]


PERM_MUL = tuple(tuple(_compose(s, t) for t in range(6)) for s in range(6))
PERM_INV = tuple(next(t for t in range(6) if PERM_MUL[s][t] == PERM_ID) for s in range(6))

# Conjugation by sigma sends a_i to a_{sigma(i)}.  Writing exponent pairs
# additively with a1 = (1,0), a2 = (0,1), a3 = (-1,-1), the permutation acts
# by the 2x2 integer matrix whose columns are the images of a1 and a2.
# ACTION[s] = (a, b, c, d) with sigma.(m, n) = (a m + b n, c m + d n) mod p.
_BASIS = ((1, 0), (0, 1), (-1, -1))
ACTION = tuple(
    (
        _BASIS[PERMS[s][0]][0],
        _BASIS[PERMS[s][1]][0],
        _BASIS[PERMS[s][0]][1],
        _BASIS[PERMS[s][1]][1],
    )
    for s in range(6)
)


# -- the integer kernel -------------------------------------------------------


class Group(FrozenRecord):
    """The Fermat group at p (``gamma`` None) or the p-gonal group of the
    root gamma, its elements numbered 0, ..., order - 1 in canonical order.
    A gamma that is not a root of g^2 + g + 1 mod p in 1..p-2 raises."""

    __slots__ = _fields = ("p", "gamma")

    def __init__(self, p: int, gamma: int | None = None):
        if gamma is not None and not (0 < gamma < p - 1 and (gamma * gamma + gamma + 1) % p == 0):
            raise NoGammaError(f"{gamma} is not a root of g^2+g+1 mod {p}")
        set_field(self, "p", p)
        set_field(self, "gamma", gamma)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.p == other.p and self.gamma == other.gamma

    def __hash__(self):
        return hash((self.p, self.gamma))

    @property
    def order(self) -> int:
        return 6 * self.p * self.p if self.gamma is None else 3 * self.p

    @property
    def generators(self) -> tuple[int, ...]:
        """The indices of a1, a2, u, v, or of T, R."""
        if self.gamma is None:
            return fermat_translation(self.p, 1, 0), fermat_translation(self.p, 0, 1), PERM_U, PERM_V
        return 3, 1

    @property
    def translations(self) -> range:
        """The indices of the translation subgroup H, or of <T>, the identity first."""
        return range(0, self.order, 6 if self.gamma is None else 3)

    def check_index(self, i: int) -> int:
        """i, when it indexes an element; OutOfRangeError otherwise."""
        if not 0 <= i < self.order:
            raise OutOfRangeError(f"index {i} is not an element of {self}")
        return i

    def coordinates(self, i: int) -> tuple[int, ...]:
        """The normal form of the element with index i: (m, n, sigma) or
        (k, e).  An index outside the group raises: i lies in
        ``range(order)`` exactly when m, or k, lies in ``range(p)``."""
        where = (*divmod(i // 6, self.p), i % 6) if self.gamma is None else divmod(i, 3)
        if not 0 <= where[0] < self.p:
            raise OutOfRangeError(f"index {i} is not an element of {self}")
        return where

    def is_translation(self, i: int) -> bool:
        """Whether the element with index i lies in the translation subgroup H,
        or in <T>; an index outside the group raises."""
        return self.check_index(i) % (6 if self.gamma is None else 3) == 0

    def left_mul(self, g: int, indices: list[int] | tuple[int, ...] | range) -> list[int]:
        """Indices of g x for the elements x with the given indices; over
        ``range(order)``, the permutation of left multiplication by g.

        The group law: a1^m a2^n s times a1^m' a2^n' s' is a1^m'' a2^n''
        (s s'), (m'', n'') = (m, n) + ACTION[s] (m', n'); and T^k R^e
        T^k' R^e' = T^(k + gamma^(2e) k') R^(e + e'), as R^e T^k' R^(-e) =
        T^(k' gamma^(2e)).
        """
        p = self.p
        self.check_index(g)
        if self.gamma is not None:
            k, e = divmod(g, 3)
            scale = pow(self.gamma, 2 * e, p)
            return [3 * ((k + scale * (i // 3)) % p) + (e + i % 3) % 3 for i in indices]
        mn, s = divmod(g, 6)
        cm, cn = divmod(mn, p)
        a, b, c, d = ACTION[s]
        row = PERM_MUL[s]
        out = []
        for i in indices:
            mn, t = divmod(i, 6)
            m, n = divmod(mn, p)
            out.append((((cm + a * m + b * n) % p) * p + (cn + c * m + d * n) % p) * 6 + row[t])
        return out

    def mul(self, g: int, h: int) -> int:
        """The index of g h."""
        return self.left_mul(g, (h,))[0]

    def closure(self, generators: list[int] | tuple[int, ...]) -> list[int]:
        """Indices of the subgroup the indexed elements generate, in order
        of discovery: the closure of {1} under left multiplication by each.
        For a single element g that is its powers 1, g, g^2, ..., so the
        last is g^(-1).
        """
        gens = tuple(generators)
        seen = {IDENTITY}
        members = [IDENTITY]
        frontier = [IDENTITY]
        while frontier:
            new = []
            for c in gens:
                for y in self.left_mul(c, frontier):
                    if y not in seen:
                        seen.add(y)
                        new.append(y)
            members.extend(new)
            frontier = new
        return members

    def __str__(self):
        if self.gamma is None:
            return f"the Fermat group at p = {self.p}"
        return f"the p-gonal group at p = {self.p}, gamma = {self.gamma}"


def fermat_translation(p: int, m: int, n: int) -> int:
    """Index of the translation a1^m a2^n in the Fermat group."""
    return (m % p * p + n % p) * 6


def fermat_order(p: int, i: int) -> int:
    """Order of the element with index i, from the group law.

    A translation other than 1 has order p and a 3-cycle order 3
    ((1 + A + A^2) x = 0 for its matrix A).  The square of x sigma, sigma
    a transposition with matrix A, is the translation (I + A) x, so the
    order is 2 when that vanishes and 2p otherwise.  An index outside the
    group raises.
    """
    mn, s = divmod(Group(p).check_index(i), 6)
    if s == PERM_ID:
        return 1 if mn == 0 else p
    if s in (PERM_U, PERM_U2):
        return 3
    m, n = divmod(mn, p)
    a, b, c, d = ACTION[s]
    if ((1 + a) * m + b * n) % p == 0 and (c * m + (1 + d) * n) % p == 0:
        return 2
    return 2 * p


def plane_lines(p: int) -> list[tuple[int, int]]:
    """One point on each of the p + 1 lines through 0 of F_p^2: (0, 1),
    then (1, t) for t = 0, ..., p - 1.  The first three are the axes
    m = 0, n = 0 and m = n, and the deck line H_j, through (1, 1 + j), is
    entry j + 2."""
    return [(0, 1)] + [(1, t) for t in range(p)]


def s3_stable_lines(p: int) -> list[tuple[int, int]]:
    """Spanning vectors of the lines of F_p^2 that the matrices of u and v
    (ACTION) both map to themselves, trying all p + 1 lines.

    Conjugation by x sigma acts on the translation subgroup H = F_p^2 as
    the matrix of sigma, so these are the order-p subgroups of H normal
    in the whole group.  None for p >= 5, where F_p^2 is an irreducible
    S3-module; the line through (1, 2) at p = 3.
    """

    def keeps(s: int, x: int, y: int) -> bool:
        a, b, c, d = ACTION[s]
        return (x * (c * x + d * y) - y * (a * x + b * y)) % p == 0

    return [(x, y) for x, y in plane_lines(p) if keeps(PERM_U, x, y) and keeps(PERM_V, x, y)]


def resolve_gamma(ctx: PrimeContext, gamma: int | None) -> int:
    """The given root of g^2 + g + 1 mod p, as :class:`Group` checks it,
    or ctx's conventional one; either raises NoGammaError when absent."""
    return ctx.gamma if gamma is None else Group(ctx.p, gamma).gamma


# -- subgroups ----------------------------------------------------------------


class Subgroup:
    """A subgroup of a :class:`Group`, held as the sorted indices of its
    elements; ``generators`` are the indices of the elements it was
    generated from.

    Equality and hashing go by the group and the index set alone, so
    closures reached from different generating sets compare equal.
    """

    __slots__ = ("group", "generators", "indices")

    def __init__(self, group: Group, generators: list[int] | tuple[int, ...], indices: list[int] | tuple[int, ...] | range):
        self.group = group
        self.generators = tuple(generators)
        self.indices = tuple(sorted(indices))

    def __contains__(self, i: int) -> bool:
        return i in self.indices

    def __iter__(self):
        return iter(self.indices)

    @property
    def order(self) -> int:
        return len(self.indices)

    @property
    def p(self) -> int:
        return self.group.p

    @property
    def is_translation_subgroup(self) -> bool:
        return all(map(self.group.is_translation, self.indices))

    def __eq__(self, other) -> bool:
        return isinstance(other, Subgroup) and self.group == other.group and self.indices == other.indices

    def __hash__(self) -> int:
        return hash((self.group, self.indices))

    def __repr__(self):
        return f"Subgroup(order={self.order}, group={self.group!r})"


# bench/tracer.py looks this name up with getattr.
def subgroup_closure(group: Group, generators: list[int] | tuple[int, ...]) -> Subgroup:
    """The subgroup of the group that the indexed elements generate."""
    gens = tuple(generators)
    if not gens:
        raise OutOfRangeError("subgroup_closure needs at least one generator")
    return Subgroup(group, gens, group.closure(gens))


def fermat_H(p: int) -> Subgroup:
    """The translation subgroup of order p^2."""
    group = Group(p)
    return Subgroup(group, group.generators[:2], group.translations)


def fermat_Hj(p: int, j: int) -> Subgroup:
    """The j-th free cyclic deck subgroup, generated by a1 a2^(1+j).

    Defined for j = 1, ..., p-2; these are exactly the order-p subgroups
    of the translation lattice avoiding the three fixed-point axes.
    """
    if not 1 <= j <= p - 2:
        raise OutOfRangeError(f"j = {j} not in {{1,...,{p - 2}}}")
    line = [fermat_translation(p, k, k * (1 + j)) for k in range(p)]
    return Subgroup(Group(p), line[1:2], line)


def pgonal_group(ctx: PrimeContext, gamma: int | None = None) -> Subgroup:
    group = Group(ctx.p, resolve_gamma(ctx, gamma))
    return Subgroup(group, group.generators, range(group.order))


def pgonal_K(i: int, ctx: PrimeContext, gamma: int | None = None) -> Subgroup:
    """The order-3 subgroup K_i = T^(-(i-1)) <R> T^(i-1), i in {1, 2, 3}.

    K_i is generated by T^((i-1)(gamma^2 - 1)) R, of index 3 k + 1 for
    its T-exponent k.
    """
    if i not in (1, 2, 3):
        raise OutOfRangeError(f"i = {i} not in {{1, 2, 3}}")
    g = resolve_gamma(ctx, gamma)
    p = ctx.p
    return subgroup_closure(Group(p, g), [3 * ((i - 1) * (g * g - 1) % p) + 1])


def gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


# bench/tracer.py looks this name up with getattr; only the tests call it otherwise.
def all_cyclic_subgroups(group: Group) -> list[Subgroup]:
    """Every cyclic subgroup, including the trivial one, deduplicated.

    Listed in canonical order of the first element generating each; that
    element is the subgroup's generator, and its powers are walked on
    indices.  An element that generates a subgroup already listed (some
    power g^k with k prime to the order of g) is skipped without a walk.
    ``verify`` takes one per class (:func:`cyclic_subgroup_classes`); the
    tests hold the two lists against each other.
    """
    listed = bytearray(group.order)
    subgroups = []
    for i in range(group.order):
        if listed[i]:
            continue
        powers = group.closure([i])
        n = len(powers)
        for k in range(1, n + 1):
            if gcd(k, n) == 1:
                listed[powers[k % n]] = 1
        subgroups.append(Subgroup(group, (i,), powers))
    return subgroups


# bench/tracer.py looks this name up with getattr; only the tests call it otherwise.
def left_cosets(k: Subgroup, universe: list[int] | tuple[int, ...] | range):
    """Left cosets gK for the indices g of the universe, in order of first
    appearance.

    Returns (reps, index_of): reps[i] is the representative of coset i and
    index_of maps every index of the universe to its coset number.  Each
    coset is taken as the set g K, so this costs |universe| |K| products;
    the full-depth checks never list cosets (see :class:`ClassData`).
    """
    group = k.group
    number: dict = {}
    index_of: dict[int, int] = {}
    reps: list[int] = []
    for g in universe:
        c = frozenset(group.left_mul(g, k.indices))
        if c not in number:
            number[c] = len(reps)
            reps.append(g)
        index_of[g] = number[c]
    return reps, index_of


# -- conjugacy classes --------------------------------------------------------


# bench/tracer.py looks this name up with getattr; only the tests call it otherwise.
def conjugacy_classes(group: Group) -> tuple[tuple[int, ...], ...]:
    """Partition of the group into conjugacy classes of element indices.

    Classes are closed under conjugation by the group generators, which
    generates the full conjugation action, so each class is an orbit of
    the maps x -> t x t^(-1) on indices, t^(-1) the last power of t.
    Ordered by smallest member; members sorted.  The orbit walk holds one
    map per generator, of the group's size; :class:`ClassData` takes the
    classes from their closed form, and the tests hold the two against
    each other.
    """
    conj = []
    for t in group.generators:
        t_inv = group.closure([t])[-1]
        conj.append([group.mul(y, t_inv) for y in group.left_mul(t, range(group.order))])
    seen = bytearray(group.order)
    classes = []
    for g0 in range(group.order):
        if seen[g0]:
            continue
        seen[g0] = 1
        cls = [g0]
        for x in cls:
            for perm in conj:
                y = perm[x]
                if not seen[y]:
                    seen[y] = 1
                    cls.append(y)
        classes.append(tuple(sorted(cls)))
    return tuple(classes)


def square_matrix(s: int) -> tuple[int, int, int, int]:
    """I + A for A = ACTION[s], as (a, b, c, d): (x sigma)^2 is the
    translation (I + A) x times sigma^2."""
    a, b, c, d = ACTION[s]
    return (1 + a, b, c, 1 + d)


def _positions(matrix: tuple[int, ...], p: int):
    """A generator of the position of M x for each vector x = (m, n) of
    F_p^2, in order of the position m p + n of x."""
    a, b, c, d = matrix
    return (((a * m + b * n) % p) * p + (c * m + d * n) % p for m in range(p) for n in range(p))


def translation_orbit_reps(p: int) -> list[int]:
    """For each vector (m, n) of F_p^2, at position m p + n, the smallest
    position in its orbit under the matrices of ACTION."""
    rep = [-1] * (p * p)
    for x in range(p * p):
        if rep[x] < 0:
            m, n = divmod(x, p)
            for a, b, c, d in ACTION:
                rep[((a * m + b * n) % p) * p + (c * m + d * n) % p] = x
    return rep


def _fermat_class_keys(p: int) -> tuple[list[int], dict[int, int]]:
    """The class rule of the Fermat group as one key per element index
    (m p + n) 6 + sigma: the S3-orbit of x = m p + n for sigma = 1 (keys
    below p^2), 2 p^2 for a 3-cycle, and for a transposition the orbit of
    the square (I + A) x, shifted by p^2.  Also the number of indices with
    each key, counted on the translations and on the image of each square
    M, which M hits p^2 / |image| times per point (a singular M has the
    multiples of its columns for image)."""
    n = p * p
    keys = [2 * n] * (6 * n)
    orbit = translation_orbit_reps(p)
    keys[PERM_ID::6] = orbit
    counts = dict.fromkeys(orbit, 0)
    for r in orbit:
        counts[r] += 1
    shifted = {r: n + r for r in counts}
    square_key = list(map(shifted.__getitem__, orbit))
    counts[2 * n] = 2 * n
    for s in (PERM_V, PERM_UV, PERM_U2V):
        a, b, c, d = square = square_matrix(s)
        keys[s::6] = map(square_key.__getitem__, _positions(square, p))
        multiples = {(t * u % p) * p + t * v % p for u, v in ((a, c), (b, d)) for t in range(p)}
        image = range(n) if (a * d - b * c) % p else multiples
        for key in map(square_key.__getitem__, image):
            counts[key] = counts.get(key, 0) + n // len(image)
    return keys, counts


def _pgonal_class_keys(group: Group) -> tuple[list[int], dict[int, int]]:
    """The class rule of the p-gonal group as one key per element index
    3 k + e: the orbit of k under multiplication by gamma^2 for e = 0
    (keys below p), and one class for each e != 0; and the number of
    indices with each key (gamma^2 has order 3)."""
    p = group.p
    g2 = group.gamma * group.gamma % p
    keys = [0, p, p + 1] * p
    keys[0::3] = [min(k, k * g2 % p, k * g2 * g2 % p) for k in range(p)]
    counts = dict.fromkeys(keys[0::3], 3)
    counts.update({0: 1, p: p, p + 1: p})
    return keys, counts


class ClassData:
    """Conjugacy classes of one group plus the class of every element.

    ``class_of[i]`` is the number of the class of the element with index
    i, ``reps[c]`` the smallest member of class c and ``sizes[c]`` its
    size.  Classes are numbered by smallest member, as
    :func:`conjugacy_classes` orders them, but no member list is built:
    the rule of the module docs gives each element a key, and a class is
    numbered at its first index.  :func:`class_rule_gap` checks that the
    rule's labels are invariant under conjugation.

    The class data answers every question about the coset action of G on
    G/K without listing a coset, by Frobenius' formula for permutation
    characters (Isaacs, *Character Theory of Finite Groups*, ch. 5): an
    element x fixes |G| |x^G n K| / (|x^G| |K|) cosets.
    """

    __slots__ = ("group", "reps", "class_of", "sizes")

    def __init__(self, group: Group):
        self.group = group
        keys, counts = _fermat_class_keys(group.p) if group.gamma is None else _pgonal_class_keys(group)
        # key -> the first index with that key, read backwards so that
        # the first index is written last
        first = dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))
        order = sorted(first, key=first.__getitem__)
        self.reps = tuple(map(first.__getitem__, order))
        self.sizes = tuple(map(counts.__getitem__, order))
        number = {key: c for c, key in enumerate(order)}
        # the keys become class numbers in place, a slice at a time, so no
        # second list of the group's size is held
        step = 1 << 16
        for lo in range(0, len(keys), step):
            keys[lo:lo + step] = map(number.__getitem__, keys[lo:lo + step])
        self.class_of = keys

    @property
    def order(self) -> int:
        return len(self.class_of)

    @property
    def identity_index(self) -> int:
        return self.class_of[IDENTITY]

    def class_counts(self, indices: list[int] | tuple[int, ...] | range) -> dict[int, int]:
        """Class number -> how many of the indexed elements lie in that
        class; over the elements of K, the numbers |C n K|."""
        counts: dict[int, int] = {}
        for c in map(self.class_of.__getitem__, indices):
            counts[c] = counts.get(c, 0) + 1
        return counts

    def fixed_cosets(self, counts: dict[int, int], k_order: int) -> dict[int, int]:
        """Frobenius' formula: class number C -> the number of cosets of K
        that a member of C fixes, |G| counts[C] / (|C| |K|), for the
        classes K meets (``counts`` from :meth:`class_counts`).  Every
        other class fixes no coset.  A quotient that is not an integer
        means the class data or K is not what it claims to be, and raises.
        """
        order, sizes = self.order, self.sizes
        fixed = {}
        for c, n in counts.items():
            q, r = divmod(order * n, sizes[c] * k_order)
            if r:
                raise InconsistentOrbifoldError(
                    f"p = {self.group.p}: |G| |C n K| / (|C| |K|) = {order} * {n} / ({sizes[c]} * {k_order})"
                    f" is not an integer for class {c}"
                )
            fixed[c] = q
        return fixed


def _mat_mul(x: tuple[int, ...], y: tuple[int, ...], p: int) -> tuple[int, int, int, int]:
    a, b, c, d = x
    e, f, g, h = y
    return ((a * e + b * g) % p, (a * f + b * h) % p, (c * e + d * g) % p, (c * f + d * h) % p)


def class_rule_gap(data: ClassData) -> str | None:
    """The first hypothesis of the Fermat group's class rule that the
    class data fails, or None when its labels are conjugation-invariant
    and its class sizes are those of the rule.

    Write an element as x s, x in F_p^2 and A_s = ACTION[s].  Conjugation
    by a translation w sends x s to (x + (I - A_s) w) s, and conjugation
    by sigma sends x s to (A_sigma x)(sigma s sigma^(-1)).  The rule
    labels x by its S3-orbit, every 3-cycle element alike, and x tau, tau
    a transposition, by the S3-orbit of its square M_tau x, M =
    :func:`square_matrix`.  So the labels are conjugation-invariant
    exactly when:

    - ACTION respects PERM_MUL on all 36 products, so every A_sigma is a
      product of A_u and A_v, and a conjugate of a 3-cycle or of a
      transposition is one again;
    - the labels of the p^2 translations are invariant under A_u and A_v;
    - M_tau (I - A_tau) = 0 for each transposition tau, so conjugation by
      a translation keeps the square (for M = I + A this is A_tau^2 = I),
      and M_(sigma tau sigma^-1) A_sigma = A_sigma M_tau, so conjugation
      by sigma moves the square by A_sigma, within its orbit.

    The 3-cycle elements are one class, not several, because I - A_rho
    is invertible mod p for both 3-cycles (so conjugation by translations
    reaches every x rho) and a transposition conjugates u to u^2; that
    needs det(I - A_rho) != 0 mod p.  Classes the rule merged would have
    sizes outside the rule's 1, 3, 6, 3p and 2p^2, which sum to |G|.
    Each hypothesis costs O(1) but the translation labels, O(p^2).
    """
    group = data.group
    if group.gamma is not None:
        raise GroupMismatchError(f"the class rule of the Fermat group does not serve {group}")
    p = group.p
    where = group.coordinates
    for s in range(6):
        for t in range(6):
            if _mat_mul(ACTION[s], ACTION[t], p) != tuple(x % p for x in ACTION[PERM_MUL[s][t]]):
                return f"ACTION[{s}] ACTION[{t}] is not ACTION[{PERM_MUL[s][t]}]"
    labels = data.class_of[::6]
    for s in (PERM_U, PERM_V):
        image = list(_positions(ACTION[s], p))
        if list(map(labels.__getitem__, image)) != labels:
            x = next(x for x, y in enumerate(image) if labels[y] != labels[x])
            return f"conjugation by {where(s)} moves {where(6 * x)} out of its class, to {where(6 * image[x])}"
        del image  # p^2 fresh ints: free them before the next image is built
    for t in (PERM_V, PERM_UV, PERM_U2V):
        a, b, c, d = ACTION[t]
        if _mat_mul(square_matrix(t), (1 - a, -b, -c, 1 - d), p) != (0, 0, 0, 0):
            return f"the square rule of sigma = {t} is not constant on its translation conjugates"
        for s in range(6):
            conj = PERM_MUL[PERM_MUL[s][t]][PERM_INV[s]]
            if _mat_mul(square_matrix(conj), ACTION[s], p) != _mat_mul(ACTION[s], square_matrix(t), p):
                return f"conjugation by sigma = {s} does not move the square rule of sigma = {t} by ACTION[{s}]"
    for s in (PERM_U, PERM_U2):
        a, b, c, d = ACTION[s]
        if ((1 - a) * (1 - d) - b * c) % p == 0:
            return f"I - ACTION[{s}] is singular mod {p}"
    if PERM_MUL[PERM_MUL[PERM_V][PERM_U]][PERM_INV[PERM_V]] != PERM_U2:
        return "v does not conjugate u to u^2"
    allowed = (1, 3, 6, 3 * p, 2 * p * p)
    bad = sorted({n for n in data.sizes if n not in allowed})
    if bad:
        return f"class sizes {bad} are not among the rule's {allowed}"
    if sum(data.sizes) != group.order:
        return f"the class sizes sum to {sum(data.sizes)}, not {group.order}"
    return None


def cyclic_subgroup_classes(data: ClassData) -> list[Subgroup]:
    """One cyclic subgroup from each conjugacy class of cyclic subgroups,
    the trivial one first.

    <g> and <h> are conjugate exactly when h is conjugate to a generator
    g^k of <g>, gcd(k, |g|) = 1.  So the classes are walked in order: the
    powers of the smallest member of a class not yet covered are a new
    representative, and the classes of its generators become covered.
    That gives one subgroup per class when the classes of ``data`` are
    the conjugacy classes; ``verify`` checks their rule by the argument
    of :func:`class_rule_gap`.
    """
    group, class_of = data.group, data.class_of
    covered = bytearray(len(data.reps))
    subgroups = []
    for c, rep in enumerate(data.reps):
        if covered[c]:
            continue
        powers = group.closure([rep])
        n = len(powers)
        for k in range(1, n + 1):
            if gcd(k, n) == 1:
                covered[class_of[powers[k % n]]] = 1
        subgroups.append(Subgroup(group, (rep,), powers))
    return subgroups
