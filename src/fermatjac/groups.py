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

- a :class:`Subgroup` is its group, its generators and its order, fixed
  with no element listed, and a subgroup of H = F_p^2 also its lines, read
  off the rank of its generators over F_p; only the tests list a
  subgroup's elements, as the closure of its generators under left
  multiplication (:meth:`Group.closure`);
- the conjugacy classes follow a rule.  Write a Fermat element as
  x sigma, x in F_p^2 and A = ACTION[sigma]: a translation's class is
  the S3-orbit of x; the 3-cycle elements form one class (I - A is
  invertible for a 3-cycle when p != 3, and v conjugates u to u^2); and
  for a transposition the class of x sigma is given by the S3-orbit of
  its square (x sigma)^2 = (I + A) x.  In the p-gonal group, T^k is
  classed by the orbit of k under multiplication by gamma^2, and each
  e != 0 gives one class of T^k R^e.  :class:`ClassData` keys classes by
  the rule on demand and counts them by blocks of one kind in closed form,
  :func:`class_rule_gap` checks the rule by argument, and the orbit walk
  (:func:`conjugacy_classes`) is the tests' oracle;
- the p + 1 lines of F_p^2 fall into S3-orbits, scanned once per class
  data (:meth:`ClassData.line_orbits`), and :func:`cyclic_subgroup_classes`
  takes one cyclic subgroup per class, a line per line orbit, where
  :func:`all_cyclic_subgroups` lists all.
"""

from __future__ import annotations

from .errors import GroupMismatchError, InconsistentOrbifoldError, NoGammaError, OutOfRangeError
from .orbits import OrbitKind, PrimeContext
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
    m = 0, n = 0 and m = n; the deck lines follow (:func:`deck_line`)."""
    return [(0, 1)] + [(1, t) for t in range(p)]


# -- subgroups ----------------------------------------------------------------


class Subgroup:
    """A subgroup of a :class:`Group`, held by the indices of its
    generators and its order, fixed here once; its elements are never
    stored.  Translations of the Fermat group span a subspace of H = F_p^2
    of order p^rank, held by its lines (:func:`plane_lines` indices): ``()``,
    the line through its first point other than 0, or ``range(p + 1)``, the
    plane H, once two points have a nonzero determinant.  Other subgroups
    have ``lines`` None and the group's order for its own generators, the
    group-law order of one generator, or the size of the closure of several.
    """

    __slots__ = ("group", "p", "generators", "order", "lines")

    def __init__(self, group: Group, generators: list[int] | tuple[int, ...]):
        gens = tuple(generators)
        self.group, self.p, self.generators, self.lines = group, group.p, gens, None
        if group.gamma is None:
            p, lines, x, y = group.p, (), 0, 0
            for g in gens:  # an index outside the group raises below
                mn, s = divmod(g, 6)
                if s != PERM_ID or not 0 <= mn < p * p:
                    break
                m, n = divmod(mn, p)
                if not lines and mn:
                    x, y, lines = m, n, (line_of(p, m, n),)
                elif (x * n - y * m) % p:
                    lines = range(p + 1)
            else:  # every generator a translation: order p^rank
                self.lines, self.order = lines, p ** min(len(lines), 2)
                return
        if gens == group.generators:
            self.order = group.order
        elif len(gens) != 1:
            self.order = len(group.closure(gens))
        elif group.gamma is None:
            self.order = fermat_order(group.p, gens[0])
        else:  # T^k R^e has order 3 if e != 0, p if k != 0
            k, e = divmod(group.check_index(gens[0]), 3)
            self.order = 3 if e else group.p if k else 1

    def __repr__(self):
        return f"Subgroup(order={self.order}, group={self.group!r})"


# bench/tracer.py looks this name up with getattr.
def subgroup_closure(group: Group, generators: list[int] | tuple[int, ...]) -> Subgroup:
    """The subgroup of the group that the indexed elements generate."""
    gens = tuple(generators)
    if not gens:
        raise OutOfRangeError("subgroup_closure needs at least one generator")
    return Subgroup(group, gens)


def fermat_H(p: int) -> Subgroup:
    """The translation subgroup of order p^2."""
    group = Group(p)
    return Subgroup(group, group.generators[:2])


def fermat_Hj(p: int, j: int) -> Subgroup:
    """The j-th free cyclic deck subgroup, generated by a1 a2^(1+j).

    Defined for j = 1, ..., p-2; these are exactly the order-p subgroups
    of the translation lattice avoiding the three fixed-point axes.
    """
    if not 1 <= j <= p - 2:
        raise OutOfRangeError(f"j = {j} not in {{1,...,{p - 2}}}")
    return Subgroup(Group(p), (fermat_translation(p, 1, 1 + j),))


def pgonal_group(ctx: PrimeContext) -> Subgroup:
    group = Group(ctx.p, ctx.gamma)
    return Subgroup(group, group.generators)


def pgonal_K(i: int, ctx: PrimeContext) -> Subgroup:
    """The order-3 subgroup K_i = T^(-(i-1)) <R> T^(i-1), i in {1, 2, 3}.

    K_i is generated by T^((i-1)(gamma^2 - 1)) R, of index 3 k + 1 for
    its T-exponent k.
    """
    if i not in (1, 2, 3):
        raise OutOfRangeError(f"i = {i} not in {{1, 2, 3}}")
    p, g = ctx.p, ctx.gamma
    return Subgroup(Group(p, g), (3 * ((i - 1) * (g * g - 1) % p) + 1,))


def gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


# bench/tracer.py looks this name up with getattr; only the tests call it otherwise.
def all_cyclic_subgroups(group: Group) -> list[Subgroup]:
    """Every cyclic subgroup, the trivial one included, in canonical order
    of the first element generating each, its generator; an element that
    generates one already listed is skipped without a walk."""
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
        subgroups.append(Subgroup(group, (i,)))
    return subgroups


# bench/tracer.py looks this name up with getattr; only the tests call it otherwise.
def left_cosets(k: Subgroup, universe: list[int] | tuple[int, ...] | range):
    """Left cosets gK for the indices g of the universe, in order of first
    appearance: (reps, index_of), reps[i] the representative of coset i
    and index_of the coset number of every index, at |universe| |K|
    products."""
    group, members = k.group, k.group.closure(k.generators)
    number: dict = {}
    index_of: dict[int, int] = {}
    reps: list[int] = []
    for g in universe:
        c = frozenset(group.left_mul(g, members))
        if c not in number:
            number[c] = len(reps)
            reps.append(g)
        index_of[g] = number[c]
    return reps, index_of


# -- conjugacy classes --------------------------------------------------------


# bench/tracer.py looks this name up with getattr; only the tests call it otherwise.
def conjugacy_classes(group: Group) -> tuple[tuple[int, ...], ...]:
    """Partition of the group into conjugacy classes of element indices:
    the orbits of the maps x -> t x t^(-1), t a generator and t^(-1) its
    last power, ordered by smallest member, members sorted.  It holds one
    map per generator, of the group's size."""
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


# -- lines of F_p^2 -----------------------------------------------------------

def line_of(p: int, m: int, n: int) -> int:
    """The :func:`plane_lines` index of the line through (m, n) != 0."""
    m %= p
    return 1 + n * pow(m, -1, p) % p if m else 0


def line_point(p: int, line: int) -> int:
    """The index of the translation at the :func:`plane_lines` point of a line."""
    return 6 * (p + line - 1) if line else 6


def line_points(p: int) -> range:
    """The :func:`line_point` of each line but 0, in order."""
    return range(6 * p, 12 * p, 6)


def deck_line(j: int) -> int:
    """The :func:`plane_lines` index of H_j's line, through (1, 1 + j)."""
    return j + 2


def deck_index(line: int) -> int | None:
    """The j of H_j on a line, None on the axes 0, 1, 2."""
    return line - 2 if line > 2 else None


class LineOrbit(FrozenRecord):
    """An S3-orbit of lines of F_p^2: its lines (:func:`plane_lines` indices,
    ascending), the permutations fixing its first, and its kind, a str: a
    transposition fixes an ``"axis"`` (its +1-eigenline) and a
    ``"special_one"`` line (its -1-eigenline), a 3-cycle the two
    ``"gamma"`` lines; the rest are ``"generic"``.  The last three are the
    values of the :class:`~fermatjac.orbits.OrbitKind` of exponent orbits."""

    __slots__ = _fields = ("lines", "stabilizer", "kind")

    def __init__(self, lines: tuple[int, ...], stabilizer: tuple[int, ...], kind: str):
        set_field(self, "lines", lines)
        set_field(self, "stabilizer", stabilizer)
        set_field(self, "kind", kind)


def line_orbit(p: int, line: int) -> LineOrbit:
    """The S3-orbit of one line, from the six images of its
    :func:`plane_lines` point under ACTION; O(1)."""
    x, y = (1, line - 1) if line else (0, 1)
    # line_of of each image, inline: line_orbits makes p / 6 of these calls
    images = [1 + (c * x + d * y) * pow(m, -1, p) % p if (m := (a * x + b * y) % p) else 0 for a, b, c, d in ACTION]
    stabilizer = tuple([s for s, image in enumerate(images) if image == line])
    kind = {1: OrbitKind.GENERIC.value, 3: OrbitKind.GAMMA.value}.get(len(stabilizer))
    if len(stabilizer) == 2:
        a, b, c, d = ACTION[stabilizer[1]]
        axis = (a * x + b * y - x) % p == (c * x + d * y - y) % p == 0
        kind = "axis" if axis else OrbitKind.SPECIAL_ONE.value
    return LineOrbit(tuple(sorted(set(images))), stabilizer, kind)


def line_orbits(p: int) -> tuple[LineOrbit, ...]:
    """The S3-orbits of the p + 1 lines, by first line (the axes 0, 1, 2 first); O(p)."""
    seen = bytearray(p + 1)
    orbits = []
    for first in range(p + 1):
        if not seen[first]:
            orbit = line_orbit(p, first)
            orbits.append(orbit)
            for line in orbit.lines:
                seen[line] = 1
    return tuple(orbits)


# -- conjugacy classes by rule ------------------------------------------------


def describe(k: Subgroup) -> str:
    """The subgroup by its order and the normal forms of its generators."""
    gens = ", ".join(str(k.group.coordinates(i)) for i in k.generators)
    return f"the subgroup of order {k.order} generated by {gens}"


def block_value(blocks: dict[range, int], key: int, default: int) -> int:
    """The value of the block that holds key, or default: class counts and
    class functions are blocks, a range of keys of one class kind -> value."""
    for keys, value in blocks.items():
        if key in keys:
            return value
    return default


def block_sum(a: dict[range, int], b: dict[range, int]) -> int:
    """The sum over the classes of a's value times b's, for blocks disjoint
    on each side: an equal block at once, else by the blocks' meets."""
    total, (a, b) = 0, (a, b) if len(a) <= len(b) else (b, a)
    for keys, x in a.items():
        if keys in b:
            total += x * b[keys] * len(keys)
        else:
            for other, y in b.items():
                total += x * y * len(range(max(keys.start, other.start), min(keys.stop, other.stop)))
    return total


class ClassData:
    """The conjugacy classes of one group by the rule of the module docs,
    on demand.  :meth:`key` names an element's class: in the Fermat group
    the least position m' p + n' of the images (m', n') of a translation x
    under ACTION (0 for 1), p^2 plus that of M x for x tau, 2 p^2 for a
    3-cycle element; in the p-gonal group the least k gamma^(2i) for T^k
    and p - 1 + e for T^k R^e.  Sizes, the census and :meth:`power_counts`
    are closed forms.  By Frobenius' formula (Isaacs, *Character Theory of
    Finite Groups*, ch. 5) x fixes |G| |x^G n K| / (|x^G| |K|) cosets of K.
    """

    __slots__ = ("group", "p", "_g2", "memo")
    identity_key = 0

    def __init__(self, group: Group):
        # memo: what is computed once from these classes, by its input
        self.group, self.p, self.memo = group, group.p, {}
        self._g2 = None if group.gamma is None else group.gamma * group.gamma % group.p

    @property
    def order(self) -> int:
        return self.group.order

    def line_orbits(self) -> tuple[LineOrbit, ...]:
        """:func:`line_orbits` at p, scanned once and kept in the memo for
        generation, the cyclic subgroup classes and the deck certificates."""
        found = self.memo.get("line_orbits")
        if found is None:
            found = self.memo["line_orbits"] = line_orbits(self.p)  # the module function, not this method
        return found

    def key(self, i: int) -> int:
        """The key of the class of index i, in O(1)."""
        p = self.p
        if self._g2 is not None:
            k, e = divmod(i, 3)
            return p - 1 + e if e else min(k, k * self._g2 % p, k * self._g2 * self._g2 % p)
        mn, s = divmod(i, 6)
        if s in (PERM_U, PERM_U2):
            return 2 * p * p
        (m, n), shift = divmod(mn, p), 0
        if s != PERM_ID:  # x tau by its square M x, beyond p^2
            (a, b, c, d), shift = square_matrix(s), p * p
            m, n = a * m + b * n, c * m + d * n
        least = p * p
        for a, b, c, d in ACTION:
            position = (a * m + b * n) % p * p  # the second coordinate only if it may count
            if position < least and position + (c * m + d * n) % p < least:
                least = position + (c * m + d * n) % p
        return shift + least

    def census(self) -> tuple[tuple[int, int], ...]:
        """(number of classes, their size) per kind: the identity, the p - 1
        axis orbits, the rest of F_p^2, the 3-cycles, the x tau by square."""
        p = self.p
        if self._g2 is not None:
            return ((1, 1), ((p - 1) // 3, 3), (2, p))
        return ((1, 1), (p - 1, 3), ((p - 1) * (p - 2) // 6, 6), (1, 2 * p * p), (p, 3 * p))

    @property
    def count(self) -> int:
        return sum(n for n, _ in self.census())

    def size(self, key: int) -> int:
        """The size of the class with that key: an orbit of three on the axes
        m = 0, n = 0, m = n, of six off them."""
        p, n = self.p, self.p * self.p
        if self._g2 is not None:
            return p if key >= p else 3 if key else 1
        if key >= n:
            return key if key == 2 * n else 3 * p
        m, x = divmod(key, p)
        return 1 if key == 0 else 3 if m == 0 or x == 0 or m == x else 6

    def is_key(self, key: int) -> bool:
        """Whether some class has that key (an axis orbit's beyond p^2)."""
        p, n = self.p, self.p * self.p
        if self._g2 is not None:
            return key in (p, p + 1) or 0 <= key < p and self.key(3 * key) == key
        r = key - n if n <= key < 2 * n else key
        return key == 2 * n or 0 <= r < n and self.key(6 * r) == r and (r == key or self.size(r) < 6)

    def class_counts(self, indices: list[int] | tuple[int, ...] | range) -> dict[range, int]:
        """How many of the indexed elements each class holds, |C n K|, a
        block of one key a class."""
        counts: dict[int, int] = {}
        for c in map(self.key, indices):
            counts[c] = counts.get(c, 0) + 1
        return {range(c, c + 1): n for c, n in counts.items()}

    def power_counts(self, c: int) -> dict[range, int]:
        """The class counts of the powers of c of order 1, 2 (key p^2), 3 or
        2p (a translation is read by its line).  For c = x tau of order 2p,
        s = c^2 = (I + A) x is on an axis and (I + A) s = 2 s: c^(2k) = k s
        meets each axis class (keys 1..p-1) once, c^(2k+1) each x tau class."""
        p, n = self.p, self.p * self.p
        order = fermat_order(p, c)
        if order == 1:
            return {range(1): 1}
        if order == 2 or order == 3:
            return {range(1): 1, range(n * (order - 1), n * (order - 1) + 1): order - 1}
        return {range(1): 1, range(1, p): 1, range(n, n + 1): 1, range(n + 1, n + p): 1}

    def line_index(self, c: int) -> dict[int, dict[range, int]]:
        """Line -> the translation classes C among the powers of c = x tau of
        order 2p, keys -> |C n line|: the axis classes, each once on each line
        of the orbit through c^2 (S3 permutes them), which must be the axes."""
        square = self.group.coordinates(self.group.mul(c, c))
        axes = line_orbit(self.p, line_of(self.p, *square[:2]))
        if axes.kind != "axis":
            raise InconsistentOrbifoldError(f"c^2 = {square} lies on no axis of F_p^2 for c = {self.group.coordinates(c)}")
        return dict.fromkeys(axes.lines, {range(1, self.p): 1})

    def meet_counts(self, k: Subgroup, by_line: dict[int, dict[range, int]]) -> dict[range, int]:
        """|C n K| for the classes C that K meets: a subgroup of H by its
        lines, the identity and the classes ``by_line`` holds; <c> by
        :meth:`power_counts`; any other K by its listed elements, which
        only the tests ask for."""
        if k.lines:
            counts = {range(1): 1}
            for line in k.lines:
                for keys, n in by_line.get(line, {}).items():
                    counts[keys] = counts.get(keys, 0) + n
            return counts
        if self._g2 is None and len(k.generators) == 1:
            return self.power_counts(k.generators[0])
        return self.class_counts(k.group.closure(k.generators))

    def fixed_cosets(self, counts: dict[range, int], k_order: int, k: Subgroup | None = None) -> dict[range, int]:
        """Frobenius' formula by blocks: the cosets of K a member of each class
        fixes, |G| |C n K| / (|C| |K|); no integer raises, naming p and K."""
        order = self.order
        fixed = {}
        for keys, n in counts.items():
            size = self.size(keys.start)
            q, r = divmod(order * n, size * k_order)
            if r:
                raise InconsistentOrbifoldError(
                    f"|G| |C n K| / (|C| |K|) = {order} * {n} / ({size} * {k_order}) for class {keys.start},"
                    f" at p = {self.p}{f' on {describe(k)}' if k else ''}: not an integer"
                )
            fixed[keys] = q
        return fixed


def _mat_mul(x: tuple[int, ...], y: tuple[int, ...], p: int) -> tuple[int, int, int, int]:
    a, b, c, d = x
    e, f, g, h = y
    return ((a * e + b * g) % p, (a * f + b * h) % p, (c * e + d * g) % p, (c * f + d * h) % p)


def class_rule_gap(data: ClassData) -> str | None:
    """The first hypothesis of the Fermat group's class rule that the
    class data fails, or None when its keys are conjugation-invariant
    and its census is that of the rule; O(1).

    Conjugation by a translation w sends x s (A_s = ACTION[s]) to
    (x + (I - A_s) w) s, and by sigma to (A_sigma x)(sigma s sigma^(-1)).
    So the keys are invariant when ACTION respects PERM_MUL on all 36
    products (then the least position over the images under ACTION is the
    same at every A_sigma x: the images of A_sigma x are those of x), and
    M_tau (I - A_tau) = 0 and M_(sigma tau sigma^-1) A_sigma = A_sigma
    M_tau for each transposition tau, M = :func:`square_matrix`.  The
    3-cycle elements are one class as det(I - A_rho) != 0 mod p and v
    conjugates u to u^2.  The census must give sizes among 1, 3, 6, 3p
    and 2p^2 that sum to |G|.  The walk of the keys is the tests' oracle.
    """
    group = data.group
    if group.gamma is not None:
        raise GroupMismatchError(f"the class rule of the Fermat group does not serve {group}")
    p = group.p
    reduced, squares = [tuple(x % p for x in a) for a in ACTION], list(map(square_matrix, range(6)))
    for s in range(6):
        for t in range(6):
            if _mat_mul(ACTION[s], ACTION[t], p) != reduced[PERM_MUL[s][t]]:
                return f"ACTION[{s}] ACTION[{t}] is not ACTION[{PERM_MUL[s][t]}]"
    for t in (PERM_V, PERM_UV, PERM_U2V):
        a, b, c, d = ACTION[t]
        if _mat_mul(squares[t], (1 - a, -b, -c, 1 - d), p) != (0, 0, 0, 0):
            return f"the square rule of sigma = {t} is not constant on its translation conjugates"
        for s in range(6):
            conj = PERM_MUL[PERM_MUL[s][t]][PERM_INV[s]]
            if _mat_mul(squares[conj], ACTION[s], p) != _mat_mul(ACTION[s], squares[t], p):
                return f"conjugation by sigma = {s} does not move the square rule of sigma = {t} by ACTION[{s}]"
    for s in (PERM_U, PERM_U2):
        a, b, c, d = ACTION[s]
        if ((1 - a) * (1 - d) - b * c) % p == 0:
            return f"I - ACTION[{s}] is singular mod {p}"
    if PERM_MUL[PERM_MUL[PERM_V][PERM_U]][PERM_INV[PERM_V]] != PERM_U2:
        return "v does not conjugate u to u^2"
    allowed = (1, 3, 6, 3 * p, 2 * p * p)
    bad = sorted({size for _, size in data.census() if size not in allowed})
    if bad:
        return f"class sizes {bad} are not among the rule's {allowed}"
    total = sum(n * size for n, size in data.census())
    if total != group.order:
        return f"the class sizes sum to {total}, not {group.order}"
    return None


def cyclic_subgroup_classes(p: int, orbits: tuple[LineOrbit, ...]) -> list[Subgroup]:
    """One cyclic subgroup of the Fermat group per conjugacy class of them,
    the trivial one first.  x sigma conjugates H by the matrix of sigma, so
    the lines (order p) are conjugate when they share an orbit of
    :func:`line_orbits`, and the line at the orbit's first point stands for
    it.  The 3-cycle elements are one class, so <u> stands for order 3, and
    so are the x tau of square 0, so <v> for order 2.  The x tau of order 2p
    are classed by the axis orbit of the square, and the generators
    (a1 v)^k of <a1 v> have the squares k (1, 1), on every axis orbit."""
    group = Group(p)
    cyclic = [Subgroup(group, (g,)) for g in (IDENTITY, PERM_U, PERM_V, fermat_translation(p, 1, 0) + PERM_V)]
    return cyclic[:3] + [Subgroup(group, (line_point(p, o.lines[0]),)) for o in orbits] + cyclic[3:]
