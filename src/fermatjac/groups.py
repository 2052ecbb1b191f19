"""Concrete engine for the two finite automorphism groups in play.

Fermat flavor: the full automorphism group of the degree-p Fermat curve,
a semidirect product of Z_p^2 (scaling generators a1, a2, with a3 defined
by a1 a2 a3 = 1) by S3 (coordinate permutations u, v).  An element is
stored in the normal form a1^m a2^n * sigma.  The S3 action on exponent
pairs is hard-coded in ACTION below; it is re-derived from the explicit
projective coordinate maps by a unit test, via :func:`derive_s3_action`.

P-gonal flavor: the group generated by the deck transformation T and the
order-3 map R of the gamma curve, with T^p = R^3 = 1 and
R T R^(-1) = T^(gamma^2).  An element is T^k R^e.

Subgroups are explicit closed element sets.  Full-group work runs on an
integer kernel instead: element (m, n, sigma) of the Fermat group is the
int (m p + n) 6 + sigma and T^k R^e of the p-gonal group is 3 k + e,
each its position in the canonical element order.  For the Fermat group,
left multiplication by an element and right multiplication by a
generator are computed straight from ACTION and PERM_MUL as maps on
these ints, so no element object is built per entry and no Cayley table
is ever stored.  On that kernel:

- element orders come from the group law (:func:`fermat_order`), and
  the subgroup generated by a few elements is a closure under left
  multiplication (:func:`fermat_closure`);
- the conjugacy classes are the orbits of conjugation by the group
  generators; the p-gonal classes take the same orbit walk, with its
  3p conjugation maps read off element objects;
- :class:`ClassData` maps every index to its class, and counts the
  cosets of K an element fixes by Frobenius' formula from the classes K
  meets, so no coset G/K is ever listed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import gcd
from typing import Iterable, Iterator, Optional

from .errors import FlavorMismatchError, InconsistentOrbifoldError, NoGammaError, OutOfRangeError
from .orbits import PrimeContext

FLAVOR_FERMAT = "fermat"
FLAVOR_P_GONAL = "p_gonal"

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


@dataclass(frozen=True, slots=True)
class FermatAut:
    """a1^m a2^n sigma, with sigma an index into PERMS."""

    p: int
    m: int
    n: int
    sigma: int

    def __mul__(self, other: "FermatAut") -> "FermatAut":
        if not isinstance(other, FermatAut) or other.p != self.p:
            raise FlavorMismatchError(f"cannot multiply {self!r} by {other!r}")
        a, b, c, d = ACTION[self.sigma]
        p = self.p
        return FermatAut(
            p,
            (self.m + a * other.m + b * other.n) % p,
            (self.n + c * other.m + d * other.n) % p,
            PERM_MUL[self.sigma][other.sigma],
        )

    def inverse(self) -> "FermatAut":
        s = PERM_INV[self.sigma]
        a, b, c, d = ACTION[s]
        p = self.p
        return FermatAut(p, (-(a * self.m + b * self.n)) % p, (-(c * self.m + d * self.n)) % p, s)

    @property
    def is_identity(self) -> bool:
        return self.m == 0 and self.n == 0 and self.sigma == PERM_ID

    @property
    def is_translation(self) -> bool:
        return self.sigma == PERM_ID

    def sort_key(self):
        return (self.m, self.n, self.sigma)

    def __repr__(self):
        return f"FermatAut(p={self.p}, m={self.m}, n={self.n}, sigma={self.sigma})"


@dataclass(frozen=True, slots=True)
class PGonalAut:
    """T^k R^e on the gamma curve; the group law depends on the chosen root."""

    p: int
    gamma: int
    k: int
    e: int

    def __mul__(self, other: "PGonalAut") -> "PGonalAut":
        if (
            not isinstance(other, PGonalAut)
            or other.p != self.p
            or other.gamma != self.gamma
        ):
            raise FlavorMismatchError(f"cannot multiply {self!r} by {other!r}")
        p = self.p
        # R^e T^k R^(-e) = T^(k gamma^(2e))
        return PGonalAut(
            p,
            self.gamma,
            (self.k + pow(self.gamma, 2 * self.e, p) * other.k) % p,
            (self.e + other.e) % 3,
        )

    def inverse(self) -> "PGonalAut":
        p = self.p
        e_inv = (-self.e) % 3
        return PGonalAut(
            p,
            self.gamma,
            (-pow(self.gamma, 2 * e_inv, p) * self.k) % p,
            e_inv,
        )

    @property
    def is_identity(self) -> bool:
        return self.k == 0 and self.e == 0

    @property
    def is_translation(self) -> bool:
        return self.e == 0

    def sort_key(self):
        return (self.k, self.e)

    def __repr__(self):
        return f"PGonalAut(p={self.p}, gamma={self.gamma}, k={self.k}, e={self.e})"


Element = FermatAut | PGonalAut


def multiply(g: Element, h: Element) -> Element:
    return g * h


def inverse(g: Element) -> Element:
    return g.inverse()


def conjugate(g: Element, h: Element) -> Element:
    """g h g^(-1)."""
    return g * h * g.inverse()


def order(g: Element) -> int:
    n = 1
    x = g
    while not x.is_identity:
        x = x * g
        n += 1
    return n


def flavor_of(g: Element) -> str:
    return FLAVOR_FERMAT if isinstance(g, FermatAut) else FLAVOR_P_GONAL


def _check_same_flavor(elements: Iterable[Element]) -> None:
    it = iter(elements)
    first = next(it)
    for g in it:
        if type(g) is not type(first) or g.p != first.p:
            raise FlavorMismatchError(f"mixed elements {first!r} and {g!r}")
        if isinstance(g, PGonalAut) and g.gamma != first.gamma:
            raise FlavorMismatchError(f"mixed gamma roots {first!r} and {g!r}")


# -- Fermat flavor constructors ---------------------------------------------


def fermat_identity(p: int) -> FermatAut:
    return FermatAut(p, 0, 0, PERM_ID)


def fermat_a1(p: int) -> FermatAut:
    return FermatAut(p, 1, 0, PERM_ID)


def fermat_a2(p: int) -> FermatAut:
    return FermatAut(p, 0, 1, PERM_ID)


def fermat_a3(p: int) -> FermatAut:
    return FermatAut(p, p - 1, p - 1, PERM_ID)


def fermat_u(p: int) -> FermatAut:
    return FermatAut(p, 0, 0, PERM_U)


def fermat_v(p: int) -> FermatAut:
    return FermatAut(p, 0, 0, PERM_V)


def fermat_generators(p: int) -> tuple[FermatAut, ...]:
    return (fermat_a1(p), fermat_a2(p), fermat_u(p), fermat_v(p))


def fermat_group_order(p: int) -> int:
    return 6 * p * p


def fermat_elements(p: int) -> Iterator[FermatAut]:
    """All 6 p^2 elements in canonical (m, n, sigma) order."""
    for m in range(p):
        for n in range(p):
            for s in range(6):
                yield FermatAut(p, m, n, s)


# -- p-gonal flavor constructors ---------------------------------------------


def _resolve_gamma(ctx: PrimeContext, gamma: Optional[int]) -> int:
    if gamma is None:
        return ctx.gamma  # raises NoGammaError when absent
    if not ctx.has_gamma or gamma not in ctx.gamma_pair:
        raise NoGammaError(f"{gamma} is not a root of g^2+g+1 mod {ctx.p}")
    return gamma


def pgonal_identity(ctx: PrimeContext, gamma: Optional[int] = None) -> PGonalAut:
    return PGonalAut(ctx.p, _resolve_gamma(ctx, gamma), 0, 0)


def pgonal_T(ctx: PrimeContext, gamma: Optional[int] = None) -> PGonalAut:
    return PGonalAut(ctx.p, _resolve_gamma(ctx, gamma), 1, 0)


def pgonal_R(ctx: PrimeContext, gamma: Optional[int] = None) -> PGonalAut:
    return PGonalAut(ctx.p, _resolve_gamma(ctx, gamma), 0, 1)


def pgonal_group_order(p: int) -> int:
    return 3 * p


def pgonal_elements(ctx: PrimeContext, gamma: Optional[int] = None) -> Iterator[PGonalAut]:
    g = _resolve_gamma(ctx, gamma)
    for k in range(ctx.p):
        for e in range(3):
            yield PGonalAut(ctx.p, g, k, e)


# -- subgroups ----------------------------------------------------------------


class Subgroup:
    """A subgroup held as an explicitly closed, canonically sorted element set.

    Equality and hashing go by the element set alone, so closures reached
    from different generating sets compare equal.
    """

    __slots__ = ("generators", "elements", "element_list", "_is_translation")

    def __init__(self, generators: Iterable[Element], elements: Iterable[Element]):
        self.generators = tuple(generators)
        self.elements = frozenset(elements)
        self.element_list = tuple(sorted(self.elements, key=lambda g: g.sort_key()))
        self._is_translation = all(g.is_translation for g in self.element_list)

    def __contains__(self, g) -> bool:
        return g in self.elements

    def __iter__(self):
        return iter(self.element_list)

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def p(self) -> int:
        return self.element_list[0].p

    @property
    def flavor(self) -> str:
        return flavor_of(self.element_list[0])

    @property
    def identity(self) -> Element:
        g = self.element_list[0]
        return g * g.inverse()

    @property
    def is_translation_subgroup(self) -> bool:
        return self._is_translation

    def __eq__(self, other) -> bool:
        return isinstance(other, Subgroup) and self.elements == other.elements

    def __hash__(self) -> int:
        return hash(self.elements)

    def __repr__(self):
        return f"Subgroup(order={self.order}, flavor={self.flavor!r}, p={self.p})"


def mulclose(generators: Iterable[Element]) -> set[Element]:
    """Smallest multiplicatively closed set containing the generators.

    Finite and made of invertible elements, so it is automatically a group.
    """
    gens = list(generators)
    els: set[Element] = set(gens)
    ident = gens[0] * gens[0].inverse()
    els.add(ident)
    frontier = list(els)
    while frontier:
        new = []
        for a in gens:
            for b in frontier:
                c = a * b
                if c not in els:
                    els.add(c)
                    new.append(c)
        frontier = new
    return els


def subgroup_closure(generators: Iterable[Element]) -> Subgroup:
    gens = tuple(generators)
    if not gens:
        raise OutOfRangeError("subgroup_closure needs at least one generator")
    _check_same_flavor(gens)
    return Subgroup(gens, mulclose(gens))


def trivial_subgroup(identity: Element) -> Subgroup:
    return Subgroup((identity,), (identity,))


def product_set(k1: Subgroup, k2: Subgroup) -> tuple[frozenset, bool]:
    """Element-wise product K1 K2 and whether K1 K2 = K2 K1 as sets."""
    if k1.flavor != k2.flavor or k1.p != k2.p:
        raise FlavorMismatchError(f"cannot multiply {k1!r} by {k2!r}")
    prod12 = frozenset(a * b for a in k1 for b in k2)
    prod21 = frozenset(b * a for a in k1 for b in k2)
    return prod12, prod12 == prod21


def joined_subgroup(k1: Subgroup, k2: Subgroup) -> Subgroup:
    """The subgroup generated by K1 and K2 together."""
    if k1.elements == k2.elements:
        return k1
    return subgroup_closure(tuple(k1.generators) + tuple(k2.generators))


def fermat_H(p: int) -> Subgroup:
    """The translation subgroup of order p^2."""
    els = [FermatAut(p, m, n, PERM_ID) for m in range(p) for n in range(p)]
    return Subgroup((fermat_a1(p), fermat_a2(p)), els)


def fermat_Hj(p: int, j: int) -> Subgroup:
    """The j-th free cyclic deck subgroup, generated by a1 a2^(1+j).

    Defined for j = 1, ..., p-2; these are exactly the order-p subgroups
    of the translation lattice avoiding the three fixed-point axes.
    """
    if not 1 <= j <= p - 2:
        raise OutOfRangeError(f"j = {j} not in {{1,...,{p - 2}}}")
    gen = FermatAut(p, 1, (1 + j) % p, PERM_ID)
    els = [FermatAut(p, k, k * (1 + j) % p, PERM_ID) for k in range(p)]
    return Subgroup((gen,), els)


def pgonal_group(ctx: PrimeContext, gamma: Optional[int] = None) -> Subgroup:
    g = _resolve_gamma(ctx, gamma)
    return Subgroup(
        (pgonal_T(ctx, g), pgonal_R(ctx, g)),
        pgonal_elements(ctx, g),
    )


def pgonal_K(i: int, ctx: PrimeContext, gamma: Optional[int] = None) -> Subgroup:
    """The order-3 subgroup K_i = T^(-(i-1)) <R> T^(i-1), i in {1, 2, 3}.

    K_i is generated by T^((i-1)(gamma^2 - 1)) R.
    """
    if i not in (1, 2, 3):
        raise OutOfRangeError(f"i = {i} not in {{1, 2, 3}}")
    g = _resolve_gamma(ctx, gamma)
    p = ctx.p
    gen = PGonalAut(p, g, (i - 1) * (g * g - 1) % p, 1)
    return subgroup_closure([gen])


# -- conjugacy classes --------------------------------------------------------


def conjugacy_classes(
    flavor: str, ctx: PrimeContext, gamma: Optional[int] = None
) -> tuple[tuple[Element, ...], ...]:
    """Partition of the group into conjugacy classes.

    Classes are closed under conjugation by the group generators, which
    generates the full conjugation action.  Ordered by first appearance
    of a member in the canonical element order; members sorted.  The
    orbits are walked on element indices (:func:`element_index`).
    """
    if flavor == FLAVOR_FERMAT:
        p = ctx.p
        everything = range(fermat_group_order(p))
        conj = []
        for t in fermat_generators(p):
            right = fermat_right_mul_perm(t.inverse())
            conj.append([right[y] for y in fermat_left_mul(t, everything)])

        def element(i: int) -> Element:
            return fermat_element(p, i)

    elif flavor == FLAVOR_P_GONAL:
        g = _resolve_gamma(ctx, gamma)
        universe = list(pgonal_elements(ctx, g))
        conj = [
            [element_index(t * x * t.inverse()) for x in universe]
            for t in (pgonal_T(ctx, g), pgonal_R(ctx, g))
        ]
        element = universe.__getitem__
    else:
        raise FlavorMismatchError(f"unknown flavor {flavor!r}")
    seen = bytearray(len(conj[0]))
    classes = []
    for g0 in range(len(seen)):
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
        classes.append(tuple(element(i) for i in sorted(cls)))
    return tuple(classes)


class ClassData:
    """Conjugacy classes of one group plus the class of every element.

    ``classes`` is the result of :func:`conjugacy_classes`, ``sizes`` the
    class sizes, and ``class_of[i]`` the number of the class of the
    element with index i (:func:`element_index`); the identity has
    index 0.

    The class data answers every question about the coset action of G on
    G/K without listing a coset, by Frobenius' formula for permutation
    characters (Isaacs, *Character Theory of Finite Groups*, ch. 5): an
    element x fixes |G| |x^G n K| / (|x^G| |K|) cosets.
    """

    __slots__ = ("flavor", "p", "gamma", "classes", "class_of", "sizes")

    def __init__(self, flavor: str, ctx: PrimeContext, gamma: Optional[int] = None):
        self.flavor = flavor
        self.p = ctx.p
        self.gamma = None
        if flavor == FLAVOR_P_GONAL:
            self.gamma = ctx.gamma if gamma is None else gamma
        elif flavor != FLAVOR_FERMAT:
            raise FlavorMismatchError(f"unknown flavor {flavor!r}")
        self.classes = conjugacy_classes(flavor, ctx, gamma)
        self.sizes = tuple(map(len, self.classes))
        self.class_of = [0] * sum(self.sizes)
        for i, cls in enumerate(self.classes):
            for g in cls:
                self.class_of[element_index(g)] = i

    @property
    def order(self) -> int:
        return len(self.class_of)

    @property
    def identity_index(self) -> int:
        return self.class_of[0]

    def compatible_with(self, other: "ClassData") -> bool:
        return (
            self.flavor == other.flavor
            and self.p == other.p
            and self.gamma == other.gamma
        )

    def class_counts(self, elements: Iterable[Element]) -> Counter:
        """Class number -> how many of the elements lie in that class;
        over the elements of K, the numbers |C n K|."""
        class_of = self.class_of
        return Counter(class_of[element_index(g)] for g in elements)

    def fixed_cosets(self, counts: Counter, k_order: int) -> dict[int, int]:
        """Frobenius' formula: class number C -> the number of cosets of K
        that a member of C fixes, |G| counts[C] / (|C| |K|), for the
        classes K meets (``counts`` from :meth:`class_counts`).  Every
        other class fixes no coset.  A quotient that is not an integer
        means the class data or K is not what it claims to be, and raises.
        """
        fixed = {}
        for c, n in counts.items():
            q, r = divmod(self.order * n, self.sizes[c] * k_order)
            if r:
                raise InconsistentOrbifoldError(
                    f"p = {self.p}: |G| |C n K| / (|C| |K|) = {self.order} * {n} / ({self.sizes[c]} * {k_order})"
                    f" is not an integer for class {c}"
                )
            fixed[c] = q
        return fixed


def left_cosets(k: Subgroup, universe: Iterable[Element]):
    """Left cosets gK in order of first appearance in the universe.

    Returns (reps, index_of): reps[i] is the representative of coset i and
    index_of maps every element of the universe to its coset index.  Each
    coset is taken as the set g K of element objects, so this costs
    |universe| |K| products; the full-depth checks never list cosets (see
    :class:`ClassData`).
    """
    number: dict = {}
    index_of: dict[Element, int] = {}
    reps: list[Element] = []
    for g in universe:
        c = frozenset(g * h for h in k.element_list)
        if c not in number:
            number[c] = len(reps)
            reps.append(g)
        index_of[g] = number[c]
    return reps, index_of


# -- integer coset kernel for the Fermat group --------------------------------


def fermat_index(g: FermatAut) -> int:
    """Position of g in the canonical order of :func:`fermat_elements`."""
    return (g.m * g.p + g.n) * 6 + g.sigma


def element_index(g: Element) -> int:
    """Position of g in the canonical element order of its group:
    (m p + n) 6 + sigma in the Fermat group, 3 k + e in the p-gonal one."""
    if isinstance(g, FermatAut):
        return fermat_index(g)
    return 3 * g.k + g.e


def fermat_element(p: int, i: int) -> FermatAut:
    """The element with index i; inverse to :func:`fermat_index`."""
    mn, s = divmod(i, 6)
    return FermatAut(p, *divmod(mn, p), s)


def fermat_order(p: int, i: int) -> int:
    """Order of the element with index i, from the group law.

    A translation other than 1 has order p and a 3-cycle order 3
    ((1 + A + A^2) x = 0 for its matrix A).  The square of x sigma, sigma
    a transposition with matrix A, is the translation (I + A) x, so the
    order is 2 when that vanishes and 2p otherwise.
    """
    mn, s = divmod(i, 6)
    if s == PERM_ID:
        return 1 if mn == 0 else p
    if s in (PERM_U, PERM_U2):
        return 3
    m, n = divmod(mn, p)
    a, b, c, d = ACTION[s]
    if ((1 + a) * m + b * n) % p == 0 and (c * m + (1 + d) * n) % p == 0:
        return 2
    return 2 * p


def fermat_closure(generators: Iterable[FermatAut]) -> list[int]:
    """Indices of the subgroup the generators generate, in order of
    discovery: the closure of {1} under left multiplication by each."""
    gens = list(generators)
    seen = bytearray(fermat_group_order(gens[0].p))
    seen[0] = 1
    members = [0]
    frontier = members[:]
    while frontier:
        new = []
        for c in gens:
            for y in fermat_left_mul(c, frontier):
                if not seen[y]:
                    seen[y] = 1
                    new.append(y)
        members.extend(new)
        frontier = new
    return members


def fermat_left_mul(c: FermatAut, indices: Iterable[int]) -> list[int]:
    """Indices of c x for the elements x with the given indices.

    Over ``range(6 p^2)`` this is the permutation of left multiplication
    by c.
    """
    p = c.p
    a, b, cc, d = ACTION[c.sigma]
    row = PERM_MUL[c.sigma]
    cm, cn = c.m, c.n
    out = []
    for i in indices:
        mn, s = divmod(i, 6)
        m, n = divmod(mn, p)
        out.append((((cm + a * m + b * n) % p) * p + (cn + cc * m + d * n) % p) * 6 + row[s])
    return out


def fermat_right_mul_perm(h: FermatAut) -> list[int]:
    """The permutation i -> index of x h, x the element with index i.

    (m, n, s) h moves (m, n) by ACTION[s] applied to the translation part
    of h, which depends on s alone.
    """
    p, hm, hn = h.p, h.m, h.n
    perm = [0] * fermat_group_order(p)
    for s in range(6):
        a, b, c, d = ACTION[s]
        dm, dn = (a * hm + b * hn) % p, (c * hm + d * hn) % p
        rows = [((m + dm) % p) * p * 6 for m in range(p)]
        cols = [((n + dn) % p) * 6 + PERM_MUL[s][h.sigma] for n in range(p)]
        perm[s::6] = [r + c for r in rows for c in cols]
    return perm


def all_cyclic_subgroups(flavor: str, ctx: PrimeContext, gamma: Optional[int] = None) -> list[Subgroup]:
    """Every cyclic subgroup, including the trivial one, deduplicated.

    Listed in canonical order of the first element generating each; that
    element is the subgroup's generator.  An element that generates a
    subgroup already listed (some power g^k with k prime to the order of
    g) is skipped without a closure.
    """
    if flavor == FLAVOR_FERMAT:
        universe = fermat_elements(ctx.p)
    else:
        universe = pgonal_elements(ctx, gamma)
    subgroups = []
    listed: set[Element] = set()
    for g in universe:
        if g in listed:
            continue
        powers = [g]
        while not powers[-1].is_identity:
            powers.append(powers[-1] * g)
        n = len(powers)
        listed.update(x for k, x in enumerate(powers, 1) if gcd(k, n) == 1)
        subgroups.append(Subgroup((g,), powers))
    return subgroups


# -- derivation of the hard-coded S3 action -----------------------------------
#
# The curve automorphisms generating the group act on projective
# coordinates [w0 : w1 : w2] as monomial maps: a coordinate permutation
# combined with scaling individual coordinates by powers of the primitive
# p-th root of unity.  Composing those maps is exact integer arithmetic,
# which lets us recompute the conjugation action of u and v on the
# scaling part and check it against ACTION.


class _ProjMonomialMap:
    """[w0:w1:w2] -> [w_rho(0) scaled, ...]: coordinate j of the image is
    zeta^exps[j] * w_rho[j].  Equality is projective (up to a common
    zeta power)."""

    __slots__ = ("p", "exps", "rho")

    def __init__(self, p, exps, rho):
        self.p = p
        base = exps[0]
        self.exps = tuple((e - base) % p for e in exps)
        self.rho = tuple(rho)

    def __mul__(self, other):
        # can't happen: derive_s3_action multiplies maps of one p only
        assert self.p == other.p
        exps = tuple(
            (self.exps[j] + other.exps[self.rho[j]]) % self.p for j in range(3)
        )
        rho = tuple(other.rho[self.rho[j]] for j in range(3))
        return _ProjMonomialMap(self.p, exps, rho)

    def inverse(self):
        rho_inv = [0, 0, 0]
        for j, i in enumerate(self.rho):
            rho_inv[i] = j
        exps = tuple((-self.exps[rho_inv[j]]) % self.p for j in range(3))
        return _ProjMonomialMap(self.p, exps, rho_inv)

    def __eq__(self, other):
        return self.exps == other.exps and self.rho == other.rho

    def __hash__(self):
        return hash((self.exps, self.rho))


def derive_s3_action(p: int) -> tuple[tuple[int, int, int, int], ...]:
    """Recompute ACTION from the projective coordinate maps.

    u: [w0:w1:w2] -> [w2:w0:w1], v: [w0:w1:w2] -> [w1:w0:w2], and
    a1, a2 scale w0 resp. w1 by the root of unity.  Conjugating a1^m a2^n
    by each permutation map and reading the scaling exponents back off
    yields the 2x2 matrices that FermatAut multiplication hard-codes.
    """
    ident = _ProjMonomialMap(p, (0, 0, 0), (0, 1, 2))

    def translation(m, n):
        return _ProjMonomialMap(p, (m, n, 0), (0, 1, 2))

    def read_translation(g):
        # can't happen: a coordinate permutation conjugates a scaling map to one
        assert g.rho == (0, 1, 2), "conjugate is not a pure scaling map"
        m = (g.exps[0] - g.exps[2]) % p
        n = (g.exps[1] - g.exps[2]) % p
        return m, n

    u_map = _ProjMonomialMap(p, (0, 0, 0), (2, 0, 1))
    v_map = _ProjMonomialMap(p, (0, 0, 0), (1, 0, 2))
    # can't happen: a 3-cycle and a transposition of the coordinates
    assert u_map * u_map * u_map == ident and v_map * v_map == ident

    maps = {
        PERM_ID: ident,
        PERM_U: u_map,
        PERM_U2: u_map * u_map,
        PERM_V: v_map,
        PERM_UV: u_map * v_map,
        PERM_U2V: u_map * u_map * v_map,
    }
    derived = []
    for s in range(6):
        g = maps[s]
        col1 = read_translation(g * translation(1, 0) * g.inverse())
        col2 = read_translation(g * translation(0, 1) * g.inverse())
        derived.append((col1[0], col2[0], col1[1], col2[1]))
    return tuple(tuple(x % p for x in row) for row in derived)
