"""Shared independent oracles for the test suite.

These deliberately avoid the library's own code paths: inverses come from
a brute-force pair scan, orbits from the closed six-element formula,
Moebius maps from Fraction arithmetic on the projective line, the
deck-family audit and the joins and set products of the K family from
explicit element sets, and cosets, conjugacy
classes, element orders and the generating-triple search from products
of element objects.  The coset action of the full Fermat group, which the
package computes from conjugacy classes, is here labelled coset by coset.

The element objects (:class:`FermatAut`, :class:`PGonalAut`) carry a
group law of their own, apart from the package's index kernel
(``Group.left_mul``): they are the object-level oracle it is checked
against, and :func:`index_of` reads an object's index off the canonical
enumeration (:func:`canonical_elements`).
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from fermatjac.errors import GroupMismatchError, NoGammaError, OutOfRangeError
from fermatjac.genus import GeneratingTriple, fermat_axis_fix_table, fermat_genus, pgonal_fix_table, riemann_hurwitz
from fermatjac.groups import (
    ACTION,
    IDENTITY,
    PERM_ID,
    PERM_INV,
    PERM_MUL,
    PERM_U,
    PERM_U2,
    PERM_U2V,
    PERM_UV,
    PERM_V,
    Group,
    resolve_gamma,
    subgroup_closure,
)
from fermatjac.monomial import MonomialFunction, mf_mul, mf_pow
from fermatjac.orbits import make_context
from fermatjac.records import FrozenRecord, set_field

INF = "inf"


# -- element objects: the object-level oracle of the index kernel ------------


class FermatAut(FrozenRecord):
    """a1^m a2^n sigma, with sigma an index into PERMS."""

    __slots__ = _fields = ("p", "m", "n", "sigma")

    def __init__(self, p, m, n, sigma):
        set_field(self, "p", p)
        set_field(self, "m", m)
        set_field(self, "n", n)
        set_field(self, "sigma", sigma)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.m == other.m and self.n == other.n and self.sigma == other.sigma and self.p == other.p

    def __hash__(self):
        return hash((self.p, self.m, self.n, self.sigma))

    def __mul__(self, other):
        if not isinstance(other, FermatAut) or other.p != self.p:
            raise GroupMismatchError(f"cannot multiply {self!r} by {other!r}")
        a, b, c, d = ACTION[self.sigma]
        p = self.p
        return FermatAut(
            p,
            (self.m + a * other.m + b * other.n) % p,
            (self.n + c * other.m + d * other.n) % p,
            PERM_MUL[self.sigma][other.sigma],
        )

    def inverse(self):
        s = PERM_INV[self.sigma]
        a, b, c, d = ACTION[s]
        p = self.p
        return FermatAut(p, (-(a * self.m + b * self.n)) % p, (-(c * self.m + d * self.n)) % p, s)

    @property
    def group(self):
        return Group(self.p)

    @property
    def is_identity(self):
        return self.m == 0 and self.n == 0 and self.sigma == PERM_ID


class PGonalAut(FrozenRecord):
    """T^k R^e on the gamma curve; the group law depends on the chosen root,
    and a gamma that is not a root of g^2 + g + 1 mod p in 1..p-2 raises."""

    __slots__ = _fields = ("p", "gamma", "k", "e")

    def __init__(self, p, gamma, k, e):
        if not (0 < gamma < p - 1 and (gamma * gamma + gamma + 1) % p == 0):
            raise NoGammaError(f"{gamma} is not a root of g^2+g+1 mod {p}")
        set_field(self, "p", p)
        set_field(self, "gamma", gamma)
        set_field(self, "k", k)
        set_field(self, "e", e)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.k == other.k and self.e == other.e and self.p == other.p and self.gamma == other.gamma

    def __hash__(self):
        return hash((self.p, self.gamma, self.k, self.e))

    def __mul__(self, other):
        if not isinstance(other, PGonalAut) or other.p != self.p or other.gamma != self.gamma:
            raise GroupMismatchError(f"cannot multiply {self!r} by {other!r}")
        p = self.p
        # R^e T^k R^(-e) = T^(k gamma^(2e))
        return PGonalAut(p, self.gamma, (self.k + pow(self.gamma, 2 * self.e, p) * other.k) % p, (self.e + other.e) % 3)

    def inverse(self):
        p = self.p
        e_inv = (-self.e) % 3
        return PGonalAut(p, self.gamma, (-pow(self.gamma, 2 * e_inv, p) * self.k) % p, e_inv)

    @property
    def group(self):
        return Group(self.p, self.gamma)

    @property
    def is_identity(self):
        return self.k == 0 and self.e == 0



def order(g):
    n = 1
    x = g
    while not x.is_identity:
        x = x * g
        n += 1
    return n


def mulclose(generators):
    """Smallest multiplicatively closed set of element objects containing
    the generators; the object-level recheck of ``Group.closure``.

    Finite and made of invertible elements, so it is automatically a group.
    """
    gens = list(generators)
    els = set(gens)
    els.add(gens[0] * gens[0].inverse())
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


def fermat_identity(p):
    return FermatAut(p, 0, 0, PERM_ID)


def fermat_a1(p):
    return FermatAut(p, 1, 0, PERM_ID)


def fermat_a2(p):
    return FermatAut(p, 0, 1, PERM_ID)


def fermat_a3(p):
    return FermatAut(p, p - 1, p - 1, PERM_ID)


def fermat_u(p):
    return FermatAut(p, 0, 0, PERM_U)


def fermat_v(p):
    return FermatAut(p, 0, 0, PERM_V)


def fermat_generators(p):
    return (fermat_a1(p), fermat_a2(p), fermat_u(p), fermat_v(p))


def fermat_elements(p):
    """All 6 p^2 elements in canonical (m, n, sigma) order."""
    for m in range(p):
        for n in range(p):
            for s in range(6):
                yield FermatAut(p, m, n, s)


def pgonal_identity(ctx, gamma=None):
    return PGonalAut(ctx.p, resolve_gamma(ctx, gamma), 0, 0)


def pgonal_T(ctx, gamma=None):
    return PGonalAut(ctx.p, resolve_gamma(ctx, gamma), 1, 0)


def pgonal_R(ctx, gamma=None):
    return PGonalAut(ctx.p, resolve_gamma(ctx, gamma), 0, 1)


def pgonal_elements(ctx, gamma=None):
    g = resolve_gamma(ctx, gamma)
    for k in range(ctx.p):
        for e in range(3):
            yield PGonalAut(ctx.p, g, k, e)


def object_generators(group):
    """a1, a2, u, v, or T, R, as element objects."""
    if group.gamma is None:
        return fermat_generators(group.p)
    ctx = make_context(group.p)
    return pgonal_T(ctx, group.gamma), pgonal_R(ctx, group.gamma)


@lru_cache(maxsize=8)
def canonical_elements(group):
    """The element objects of a group in canonical order, from the
    enumerations alone: position i holds the element with index i."""
    if group.gamma is None:
        return tuple(fermat_elements(group.p))
    return tuple(pgonal_elements(make_context(group.p), group.gamma))


@lru_cache(maxsize=8)
def _positions(group):
    return {g: i for i, g in enumerate(canonical_elements(group))}


def index_of(g):
    """The index of an element object: its position in the canonical order."""
    return _positions(g.group)[g]


def subgroup_elements(k):
    """The element objects of K, read off the canonical order by index."""
    universe = canonical_elements(k.group)
    return [universe[i] for i in k]


# -- derivation of the hard-coded S3 action ---------------------------------
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
        exps = tuple((self.exps[j] + other.exps[self.rho[j]]) % self.p for j in range(3))
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


def derive_s3_action(p):
    """Recompute ACTION from the projective coordinate maps.

    u: [w0:w1:w2] -> [w2:w0:w1], v: [w0:w1:w2] -> [w1:w0:w2], and
    a1, a2 scale w0 resp. w1 by the root of unity.  Conjugating a1^m a2^n
    by each permutation map and reading the scaling exponents back off
    yields the 2x2 matrices that the group law hard-codes.
    """
    ident = _ProjMonomialMap(p, (0, 0, 0), (0, 1, 2))

    def translation(m, n):
        return _ProjMonomialMap(p, (m, n, 0), (0, 1, 2))

    def read_translation(g):
        # can't happen: a coordinate permutation conjugates a scaling map to one
        assert g.rho == (0, 1, 2), "conjugate is not a pure scaling map"
        return (g.exps[0] - g.exps[2]) % p, (g.exps[1] - g.exps[2]) % p

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



def primes_upto(n):
    sieve = [True] * (n + 1)
    sieve[0:2] = [False, False]
    for i in range(2, int(n**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = [False] * len(sieve[i * i :: i])
    return [i for i, b in enumerate(sieve) if b]


def sweep_primes(n=199):
    return [p for p in primes_upto(n) if p >= 5]


def brute_inverse_table(p):
    """a -> a^(-1) found by scanning all products, no pow(-1) involved."""
    table = {}
    for a in range(1, p):
        for b in range(1, p):
            if a * b % p == 1:
                table[a] = b
                break
    return table


def orbit_formula(alpha, p):
    """The six-element orbit formula, evaluated directly."""
    inv = brute_inverse_table(p)
    return {
        alpha % p,
        inv[alpha % p],
        (-(1 + alpha)) % p,
        (-inv[(1 + alpha) % p]) % p,
        (-inv[alpha % p] * (1 + alpha)) % p,
        (-alpha * inv[(1 + alpha) % p]) % p,
    }


def moebius_eval(label_name, x):
    """Evaluate a Moebius map at a Fraction or the point at infinity."""
    if label_name == "ID":
        return x
    if label_name == "INV":
        if x == INF:
            return Fraction(0)
        if x == 0:
            return INF
        return 1 / x
    if label_name == "ONE_MINUS":
        return INF if x == INF else 1 - x
    if label_name == "OVER":
        if x == INF:
            return Fraction(1)
        if x == 1:
            return INF
        return x / (x - 1)
    if label_name == "CYC":
        if x == INF:
            return Fraction(0)
        if x == 1:
            return INF
        return 1 / (1 - x)
    if label_name == "CYC2":
        if x == INF:
            return Fraction(1)
        if x == 0:
            return INF
        return (x - 1) / x
    raise ValueError(label_name)


@lru_cache(maxsize=None)
def object_level_audit(p):
    """The deck-family audit on explicit element sets, as a summary dict.

    Builds every H_j as the closure of its generator a1 a2^(1+j), compares
    the two set products of each pair, and takes each pairwise join (the
    product set, when the two commute) to the Riemann-Hurwitz sum over
    its elements.  Meant for p <= 31; the summary has the shape of
    ``KaniRosenAudit.summary()`` with the commutation method "brute".
    Cached per p: do not mutate the result.
    """
    g_top = fermat_genus(p)
    fix = fermat_axis_fix_table(make_context(p))

    def genus(elements):
        return riemann_hurwitz(g_top, len(elements), sum(fix.at(index_of(g)) for g in elements if not g.is_identity))

    family = [frozenset(mulclose([FermatAut(p, 1, (1 + j) % p, PERM_ID)])) for j in range(1, p - 1)]
    join_genus = {}
    comm_fail, gz_fail = [], []
    pairs = list(combinations(range(len(family)), 2))
    for i, j in pairs:
        k1, k2 = family[i], family[j]
        prod = frozenset(a * b for a in k1 for b in k2)
        if prod != frozenset(b * a for a in k1 for b in k2):
            comm_fail.append([i + 1, j + 1])
            prod = frozenset(mulclose(k1 | k2))
        if prod not in join_genus:
            join_genus[prod] = genus(prod)
        if join_genus[prod] != 0:
            gz_fail.append([i + 1, j + 1])
    total = sum(genus(k) for k in family)
    return {
        "subgroup_count": len(family),
        "commuting": {
            "pairs_checked": len(pairs),
            "pairs_passed": len(pairs) - len(comm_fail),
            "method": "brute",
            "failures": comm_fail,
        },
        "genus_zero": {
            "pairs_checked": len(pairs),
            "pairs_passed": len(pairs) - len(gz_fail),
            "failures": gz_fail,
        },
        "genus_sum": {"computed": total, "expected": g_top, "ok": total == g_top},
        "all_pass": not comm_fail and not gz_fail and total == g_top,
    }


def object_K_family(p, gamma):
    """K_1 = <R> and K_(i+1) = T^(-i) K_1 T^i, as sets of element objects."""
    ctx = make_context(p)
    t, r = pgonal_T(ctx, gamma), pgonal_R(ctx, gamma)
    family = [frozenset(mulclose([r]))]
    for _ in range(2):
        family.append(frozenset(t.inverse() * g * t for g in family[-1]))
    return family


def object_gamma_pairs(p, gamma, family=None):
    """For each pair i < j of the K family (``object_K_family`` unless
    given), on element objects: the pair, the order and Riemann-Hurwitz
    genus of the join mulclose(K_i u K_j), the size of the set product
    K_i K_j, and whether K_i K_j = K_j K_i as sets."""
    fix = pgonal_fix_table(make_context(p), gamma)
    family = family or object_K_family(p, gamma)
    rows = []
    for i, j in combinations(range(3), 2):
        join = mulclose(family[i] | family[j])
        genus = riemann_hurwitz((p - 1) // 2, len(join), sum(fix.at(index_of(g)) for g in join if not g.is_identity))
        prod = {a * b for a in family[i] for b in family[j]}
        commutes = prod == {b * a for a in family[i] for b in family[j]}
        rows.append(((i + 1, j + 1), len(join), genus, len(prod), commutes))
    return rows


def joined(k1, k2):
    """The subgroup K1 and K2 generate, as the kernel closure of their
    generators together."""
    return subgroup_closure(k1.group, k1.generators + k2.generators)


def assert_audit_matches_oracle(audit, p):
    """The line-algebra audit agrees with the object-level one, up to the
    name of the commutation method."""
    oracle = object_level_audit(p)
    expected = {**oracle, "commuting": {**oracle["commuting"], "method": "abelian"}}
    assert audit.summary() == expected


def object_left_cosets(k, universe):
    """Left cosets gK in first-appearance order, built by multiplying
    element objects: (reps, index_of), index_of mapping every element of
    every coset to the coset's number."""
    index_of = {}
    reps = []
    members = subgroup_elements(k)
    for g in universe:
        if g in index_of:
            continue
        i = len(reps)
        reps.append(g)
        for h in members:
            index_of[g * h] = i
    return reps, index_of


def object_coset_genus(k, triple):
    """The coset genus (2 + [G:K] - cycles) / 2 of K, counting the cycles
    of the three triple entries on object-level cosets."""
    universe = canonical_elements(k.group)
    reps, index_of = object_left_cosets(k, universe)
    cycles = 0
    for c, _ in triple.entries:
        images = [index_of[universe[c] * r] for r in reps]
        seen = [False] * len(reps)
        for i in range(len(reps)):
            if not seen[i]:
                cycles += 1
                j = i
                while not seen[j]:
                    seen[j] = True
                    j = images[j]
    num = 2 + len(reps) - cycles
    assert num >= 0 and num % 2 == 0
    return num // 2


def object_fixed_cosets(k, classes):
    """The permutation character of G/K on each class of indices: the
    number of object-level cosets the class's first member fixes.  Slow;
    p <= 7."""
    universe = canonical_elements(k.group)
    reps, index_of = object_left_cosets(k, universe)
    return [sum(1 for i, r in enumerate(reps) if index_of[universe[cls[0]] * r] == i) for cls in classes]


def object_perm_character(k, classes):
    """The permutation character of G/K on each class by Frobenius'
    formula |G| |C n K| / (|C| |K|), from the class and subgroup index
    sets alone."""
    order = 6 * k.p * k.p
    return [order * sum(1 for g in cls if g in k) // (len(cls) * k.order) for cls in classes]


def object_generating_triple(p):
    """The first (2, 3, 2p) generating triple in canonical order, with
    orders from repeated multiplication and generation from an
    object-level closure."""
    universe = list(fermat_elements(p))
    order2 = [g for g in universe if order(g) == 2]
    order3 = [g for g in universe if order(g) == 3]
    for c2 in order2:
        for c3 in order3:
            prod = c2 * c3
            if order(prod) == 2 * p and len(mulclose([c2, c3])) == len(universe):
                return GeneratingTriple(p, index_of(c2), index_of(c3), index_of(prod.inverse()))
    return None


def object_conjugacy_classes(group):
    """Conjugacy classes as sets of element objects closed under
    conjugation by the group generators, in order of first appearance;
    each class given as the sorted positions of its members in the
    canonical element order."""
    universe = canonical_elements(group)
    gens = object_generators(group)
    seen = set()
    classes = []
    for g0 in universe:
        if g0 in seen:
            continue
        cls = {g0}
        frontier = [g0]
        while frontier:
            x = frontier.pop()
            for t in gens:
                y = t * x * t.inverse()
                if y not in cls:
                    cls.add(y)
                    frontier.append(y)
        seen |= cls
        classes.append(cls)
    position = {g: i for i, g in enumerate(universe)}
    return tuple(tuple(sorted(position[g] for g in cls)) for cls in classes)


def object_inner_product(f1, f2, universe):
    """(1/|G|) sum of f1(g) f2(g) over the element objects of the group,
    each looked up in an element -> class dict built from the classes
    (given by the canonical positions of their members)."""
    universe = list(universe)
    class_of = {universe[i]: c for c, cls in enumerate(class_members(f1.data)) for i in cls}
    total = sum(f1.values[class_of[g]] * f2.values[class_of[g]] for g in universe)
    return Fraction(total, len(universe))


# -- explicit coset labelling on element indices ------------------------------
#
# The coset action as the package computed it before it turned to class
# arithmetic: cosets are labelled one by one on the integer kernel, and
# every fixed coset and cycle is counted on the labels.  The oracle for
# coset_genus, the full fix table and induced_perm_character.


def right_mul_perm(group, h):
    """The permutation i -> index of x h of a Fermat group, x the element
    with index i = (m p + n) 6 + s: x h moves (m, n) by ACTION[s] applied
    to the translation part of h, which depends on s alone."""
    p = group.p
    hm, hn, hs = group.coordinates(h)
    perm = [0] * group.order
    for s in range(6):
        a, b, c, d = ACTION[s]
        dm, dn = (a * hm + b * hn) % p, (c * hm + d * hn) % p
        rows = [((m + dm) % p) * p * 6 for m in range(p)]
        cols = [((n + dn) % p) * 6 + PERM_MUL[s][hs] for n in range(p)]
        perm[s::6] = [r + c for r in rows for c in cols]
    return perm


def fermat_coset_labels(k):
    """Left cosets gK of a Fermat subgroup, on element indices.

    The cosets are the orbits of right multiplication by the generators
    of K, numbered in order of first appearance.  Returns (reps, label):
    reps[i] is the smallest index in coset i and label[x] is the coset of
    index x.  Refuses a subgroup whose generators lie outside it or do
    not generate it.
    """
    group = k.group
    if group.gamma is not None:
        raise GroupMismatchError(f"{k!r} is not a subgroup of the Fermat group")
    if any(h not in k for h in k.generators):
        raise OutOfRangeError(f"the generators of {k!r} do not lie in it")
    perms = [right_mul_perm(group, h) for h in k.generators if h != IDENTITY]
    cycle = perms[0] if len(perms) == 1 else None
    label = [-1] * group.order
    reps = []
    for g in range(len(label)):
        if label[g] >= 0:
            continue
        i = len(reps)
        reps.append(g)
        label[g] = i
        if cycle is not None:  # K is cyclic: the coset is one cycle of its generator
            y = cycle[g]
            while y != g:
                label[y] = i
                y = cycle[y]
            continue
        orbit = [g]
        for x in orbit:
            for perm in perms:
                y = perm[x]
                if label[y] < 0:
                    label[y] = i
                    orbit.append(y)
    if len(reps) * k.order != len(label):
        raise OutOfRangeError(f"{k!r} is not generated by its generators: {len(reps)} cosets")
    return reps, label


def fermat_fixed_cosets(group, g, reps, label):
    """Number of cosets x K that g fixes, for cosets from fermat_coset_labels."""
    return sum(1 for i, y in enumerate(group.left_mul(g, reps)) if label[y] == i)


@lru_cache(maxsize=4)
def _triple_left_perms(triple):
    """Left multiplication by each triple entry, on element indices."""
    group = Group(triple.p)
    return tuple(group.left_mul(c, range(group.order)) for c, _m in triple.entries)


def labelled_coset_genus(k, triple):
    """(2 + [G:K] - cycles) / 2, with the cycles of each triple entry
    counted on the labelled cosets of K."""
    reps, label = fermat_coset_labels(k)
    cycles = 0
    for perm in _triple_left_perms(triple):
        images = [label[perm[r]] for r in reps]
        seen = [False] * len(reps)
        for i in range(len(reps)):
            if not seen[i]:
                cycles += 1
                j = i
                while not seen[j]:
                    seen[j] = True
                    j = images[j]
    num = 2 + len(reps) - cycles
    assert num >= 0 and num % 2 == 0
    return num // 2


@lru_cache(maxsize=4)
def _fiber_cosets(triple):
    """Labelled cosets of the three cyclic subgroups <c> of the triple
    entries: the fibers over the three cone points."""
    fibers = []
    for c, m in triple.entries:
        sub = subgroup_closure(Group(triple.p), [c])
        assert sub.order == m
        fibers.append(fermat_coset_labels(sub))
    return fibers


def labelled_fix_count(g, triple):
    """|Fix(g)| in the fiber model, g an index: the labelled cosets of the
    three fiber subgroups that g fixes."""
    group = Group(triple.p)
    return sum(fermat_fixed_cosets(group, g, reps, label) for reps, label in _fiber_cosets(triple))


def labelled_perm_character(k, classes):
    """The permutation character of G/K on each class of indices: the
    labelled cosets of K that the class's first member fixes."""
    reps, label = fermat_coset_labels(k)
    return [fermat_fixed_cosets(k.group, cls[0], reps, label) for cls in classes]


def element_inner_product(f1, f2):
    """(1/|G|) sum over every element index i of f1 f2 at the class of i."""
    v1, v2 = f1.values, f2.values
    return Fraction(sum(v1[c] * v2[c] for c in f1.data.class_of), f1.data.order)


def class_members(data):
    """The members of each class of ``data``, read off ``class_of``."""
    members = [[] for _ in data.reps]
    for i, c in enumerate(data.class_of):
        members[c].append(i)
    return tuple(map(tuple, members))


def merge_axis_class(real):
    """translation_orbit_reps with the orbit of a1 (an axis translation)
    labelled as the orbit of a1 a2^2 (off the axes): the classes of both
    translations, and of the transposition elements whose squares lie in
    them, merge."""

    def merged(p):
        labels = list(real(p))
        axis, off_axis = labels[p], labels[p + 2]  # the positions of (1, 0) and (1, 2)
        return [off_axis if r == axis else r for r in labels]

    return merged


def split_generic_class(real):
    """translation_orbit_reps with the orbit of a1 a2^2 (a translation off
    the axes, an orbit of six) split into two halves of three, the second
    labelled by its own smallest position."""

    def split(p):
        labels = list(real(p))
        members = sorted(x for x, r in enumerate(labels) if r == labels[p + 2])
        for x in members[3:]:
            labels[x] = members[3]
        return labels

    return split


def drop_deck_class(real):
    """cyclic_subgroup_classes without its last deck representative, the
    cyclic subgroup of a translation (m, n) off the three axes."""

    def dropped(data):
        subgroups = list(real(data))
        deck = []
        for i, k in enumerate(subgroups):
            m, n, s = data.group.coordinates(k.generators[0])
            if s == PERM_ID and m and n and m != n:
                deck.append(i)
        del subgroups[deck[-1]]
        return subgroups

    return dropped


def square_minus(s):
    """square_matrix with (I - A) x in place of the square (I + A) x of
    x sigma."""
    a, b, c, d = ACTION[s]
    return (1 - a, -b, -c, 1 - d)


def square_doubled_for_uv(s):
    """square_matrix with the square of x uv doubled: every class keeps
    its size, but the uv part of a class is no longer the conjugate of
    its v part."""
    a, b, c, d = ACTION[s]
    k = 2 if s == PERM_UV else 1
    return (k * (1 + a), k * b, k * c, k * (1 + d))


def substitute_by_chain(f, x_val, x_minus_one, y_val, p, gamma):
    """f(x := X, y := Y) as a chain of normalized products: the sign and
    w-part of f, times X^a, times (X - 1)^b, times Y^d, each power and
    product put in normal form on its own."""
    out = MonomialFunction(f.sign, f.omega % p, 0, 0, 0)
    out = mf_mul(out, mf_pow(x_val, f.a, p, gamma), p, gamma)
    out = mf_mul(out, mf_pow(x_minus_one, f.b, p, gamma), p, gamma)
    if f.d:
        out = mf_mul(out, mf_pow(y_val, f.d, p, gamma), p, gamma)
    return out


def run_under_O(script):
    """Run a Python script with ``python -O``, the package and these
    helpers on the path; the script exits 99 if asserts are not stripped
    after all."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import fermatjac

    prelude = "import sys\nif not sys.flags.optimize:\n    sys.exit(99)\n"
    src = str(Path(fermatjac.__file__).resolve().parents[1])
    here = str(Path(__file__).resolve().parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, here, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, "-O", "-c", prelude + script], capture_output=True, text=True, env=env, timeout=120
    )


# -- the argparse parser as the package built it before its flag table -------
#
# The oracle for cli._parse_argv, the help screens and the refusals: the
# parser built add_argument by add_argument, with argparse's stock
# formatter (which reads the terminal width through shutil).


def reference_parser():
    import argparse

    from fermatjac.cli import cmd_decompose, cmd_orbits, cmd_sweep, cmd_verify

    _HelpFormatter = argparse.HelpFormatter

    parser = argparse.ArgumentParser(
        prog="fermatjac",
        formatter_class=_HelpFormatter,
        description=(
            "Exact verification of the isogeny decomposition of Fermat-curve "
            "Jacobians into Jacobians of cyclic p-gonal curves."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_orbits = sub.add_parser("orbits", help="orbit census of X_p", formatter_class=_HelpFormatter)
    p_orbits.add_argument("--p", type=int, required=True, help="prime >= 5")
    p_orbits.add_argument("--format", choices=("text", "json"), default="text")
    p_orbits.set_defaults(fn=cmd_orbits)

    p_dec = sub.add_parser("decompose", help="emit the verified decomposition", formatter_class=_HelpFormatter)
    p_dec.add_argument("--p", type=int, required=True, help="prime >= 5")
    p_dec.add_argument("--level", choices=("coarse", "fine", "both"), default="both")
    p_dec.add_argument("--format", choices=("text", "json"), default="text")
    p_dec.set_defaults(fn=cmd_decompose)

    p_ver = sub.add_parser("verify", help="run the self-verification suite", formatter_class=_HelpFormatter)
    p_ver.add_argument("--p", type=int, required=True, help="prime >= 5")
    p_ver.add_argument("--depth", choices=("basic", "full"), default="basic")
    p_ver.add_argument("--format", choices=("text", "json"), default="text")
    p_ver.set_defaults(fn=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="per-prime summaries over a range", formatter_class=_HelpFormatter)
    p_sweep.add_argument("--from", dest="from_", type=int, required=True)
    p_sweep.add_argument("--to", type=int, required=True)
    p_sweep.add_argument("--format", choices=("text", "json"), default="text")
    p_sweep.set_defaults(fn=cmd_sweep)

    return parser
