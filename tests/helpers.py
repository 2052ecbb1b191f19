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
enumeration (:func:`canonical_elements`).  Likewise the monomial records
(:class:`MonomialFunction`, :class:`MonomialMap`) compose by a chain of
normalized products, the oracle of the package's tuple calculus.

The per-element helpers the package dropped (:func:`orbit` by closure
under :func:`s3_apply`, :func:`are_isomorphic`,
:func:`fermat_quotient_genus`, the fix sum of :func:`rh_genus_by_element`)
and the curve helpers no command called (:func:`normalize`,
:func:`moebius_transport`, :func:`moebius_inverse`) are kept here for the tests that use them, as are the walks over X_p
and the conjugation sweep that basic verify replaced by probes
(:func:`s3_images`, :func:`walk_orbit_closure`, :func:`conjugation_sweep`
and their kin), and :func:`reference_rows`
turns the orbit and factor objects of a report into the dicts the report
once held, the reference of the JSON writer's row templates.  The class table the package once held (one key
per element, :class:`ListClassData`), the label walk over every
translation and the cyclic classes walked over the table are the
oracles of its classes by rule and of its line-orbit representatives.
:func:`run_family_under_O` is the one runner of the ``python -O`` twins:
it runs the case tables of test modules in one ``python -O`` child.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from fermatjac import curves, monomial, orbits
from fermatjac.curves import CurveFamily, CurveSpec, MoebiusLabel
from fermatjac.decompose import IsogenyFactor
from fermatjac.errors import CheckFailedError, GroupMismatchError, NoGammaError, NonMonomialError, NotSubgroupOfHError, OutOfRangeError
from fermatjac.genus import (
    FixTable,
    GeneratingTriple,
    fermat_axis_fix_table,
    fermat_genus,
    pgonal_fix_table,
    rh_genus,
    riemann_hurwitz,
)
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
    LineOrbit,
    Subgroup,
    fermat_translation,
    gcd,
    line_of,
    plane_lines,
    square_matrix,
    subgroup_closure,
)
from fermatjac.monomial import MOEBIUS_MONOMIALS
from fermatjac.orbits import OrbitClass, PrimeContext, _classify, make_context
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


def root_context(p, gamma):
    """The context at p naming the root gamma of g^2 + g + 1 mod p as its
    conventional ctx.gamma: the package reads its root there alone, so the
    tests run it at the other root through this context."""
    return PrimeContext(p, p % 3, (gamma, p - 1 - gamma))


def root_contexts(p):
    """root_context at each root of g^2 + g + 1 mod p, the smaller first;
    none when p = 2 mod 3."""
    return [root_context(p, gamma) for gamma in make_context(p).gamma_pair or ()]


def _root(ctx, gamma):
    """gamma, or ctx's conventional root when None; PGonalAut checks either."""
    return ctx.gamma if gamma is None else gamma


def pgonal_identity(ctx, gamma=None):
    return PGonalAut(ctx.p, _root(ctx, gamma), 0, 0)


def pgonal_T(ctx, gamma=None):
    return PGonalAut(ctx.p, _root(ctx, gamma), 1, 0)


def pgonal_R(ctx, gamma=None):
    return PGonalAut(ctx.p, _root(ctx, gamma), 0, 1)


def pgonal_elements(ctx, gamma=None):
    g = _root(ctx, gamma)
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


def elements(k):
    """The sorted indices of K's elements: the closure of its generators,
    the only listing of a subgroup (a Subgroup holds no element)."""
    return sorted(k.group.closure(k.generators))


def subgroup_elements(k):
    """The element objects of K, read off the canonical order by index."""
    universe = canonical_elements(k.group)
    return [universe[i] for i in elements(k)]


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


def scanned_gamma_pair(p):
    """The roots of g^2 + g + 1 mod p found by scanning X_p, smaller
    first, or None when there are none: the oracle of make_context."""
    roots = tuple(g for g in range(1, p - 1) if (g * g + g + 1) % p == 0)
    return roots or None


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


# -- retired package helpers: the per-element paths the package replaced ----

# U(a) = -(1 + a)^(-1) and V(a) = a^(-1) in closed form, apart from the
# package, each a rule (a, inv, p) -> image with inv(b) = b^(-1) mod p
S3_RULES = {"U": lambda a, inv, p: p - inv(1 + a), "V": lambda a, inv, p: inv(a)}


def transport_s3_rules():
    """U and V as the package reads them, the transport rules of 1/(1-x)
    and 1-x, looked up in ``curves.MOEBIUS_TRANSPORT`` at each call, so a
    monkeypatch of the table reaches them."""
    table = curves.MOEBIUS_TRANSPORT
    return {"U": table[MoebiusLabel.CYC], "V": table[MoebiusLabel.ONE_MINUS]}


def s3_apply(generator, alpha, ctx):
    """Apply the generator U or V to alpha in X_p, in closed form."""
    ctx.require_X(alpha)
    if generator not in ("U", "V"):
        raise OutOfRangeError(f"unknown generator {generator!r}, expected 'U' or 'V'")
    return S3_RULES[generator](alpha, ctx.inv, ctx.p)


def orbit(alpha, ctx):
    """Closure of {alpha} under U and V, classified by its size."""
    ctx.require_X(alpha)
    seen = {alpha}
    frontier = [alpha]
    while frontier:
        a = frontier.pop()
        for gen in ("U", "V"):
            b = s3_apply(gen, a, ctx)
            if b not in seen:
                seen.add(b)
                frontier.append(b)
    return _classify(tuple(sorted(seen)), alpha, ctx)


def are_isomorphic(alpha1, alpha2, ctx):
    """C_alpha1 and C_alpha2 are isomorphic iff the exponents share an orbit."""
    ctx.require_X(alpha1)
    ctx.require_X(alpha2)
    return alpha2 in orbit(alpha1, ctx).elements


def rh_genus_by_element(g_top, k, fix):
    """The Riemann-Hurwitz genus of K with its fix sum read element by
    element, once per non-identity element: the oracle of
    ``genus.rh_genus``, which reads it once per cyclic subgroup."""
    return riemann_hurwitz(g_top, k.order, sum(fix.at(i) for i in elements(k) if i != IDENTITY))


def cyclic_label_table(group):
    """A fix table that depends on <g> alone and tells most cyclic
    subgroups apart: the order of <g> plus the sum of its indices mod 97.
    It is no fix table of an action (its genera are not integers), so the
    fix sums, not the genera, are what the readers must agree on."""
    labels = {}

    def count(i):
        if i not in labels:
            powers = group.closure([i])
            labels[i] = len(powers) + sum(powers) % 97
        return labels[i]

    return FixTable(group, count, "constant on each cyclic subgroup")


def fermat_quotient_genus(k):
    """Genus of the Fermat-curve quotient by a translation subgroup."""
    if not all(map(k.group.is_translation, k.generators)):
        raise NotSubgroupOfHError(f"{k!r} is not contained in the translation subgroup")
    return rh_genus(fermat_genus(k.p), k, fermat_axis_fix_table(make_context(k.p)))



def normalize(alpha, beta, ctx):
    """The curve C_a, a = ``curves.normalized_exponent``, isomorphic to y^p = x^alpha (x-1)^beta."""
    return CurveSpec(ctx, CurveFamily.P_GONAL, curves.normalized_exponent(alpha, beta, ctx))


def moebius_transport(alpha, label, ctx):
    """Exponent of the image curve of C_alpha in X_p under an isomorphism
    covering the Moebius map label, by ``curves.MOEBIUS_TRANSPORT``.  The
    image always lies in O(alpha); transport by f.compose(g) applies f's
    rule first (contravariance)."""
    ctx.require_X(alpha)
    if not isinstance(label, MoebiusLabel):
        raise OutOfRangeError(f"unknown Moebius label {label!r}")
    return curves.MOEBIUS_TRANSPORT[label](alpha, ctx.inv, ctx.p)


def moebius_inverse(label):
    """The label g with label.compose(g) = ID."""
    return next(g for g in MoebiusLabel if label.compose(g) is MoebiusLabel.ID)

# -- retired walks of basic verify: the oracles of its probes ----------------
#
# Basic verify once re-derived each rule at every point of X_p, and the
# gamma curve's conjugation relation at every l.  The checks now test
# each rule at a few probes (orbits.probe_points); these walks are the
# checks as they were, each raising CheckFailedError with the text the
# check gave, and read the rules through their modules, so a monkeypatch
# reaches them.


def s3_images(ctx, rules=S3_RULES):
    """Lists u, v of U(a) = u[a], V(a) = v[a] on X_p by the rules, closed
    form unless given, in one pass over ``inverse_table``; u and v are 0 at
    0 and p-1, so images index both."""
    p, inv = ctx.p, orbits.inverse_table(ctx.p).__getitem__
    u, v = rules["U"], rules["V"]
    return [0, *(u(a, inv, p) for a in range(1, p - 1)), 0], [0, *(v(a, inv, p) for a in range(1, p - 1)), 0]


def walk_orbit_closure(ctx, part):
    """U and V map every orbit of the partition into itself."""
    u, v = s3_images(ctx, transport_s3_rules())
    for o in part.orbits:
        members = o.elements
        for a in members:
            for name, image in (("U", u[a]), ("V", v[a])):
                if image not in members:
                    raise CheckFailedError(f"p = {ctx.p}: {name}({a}) = {image} leaves the orbit {members}")


def walk_s3_relations(ctx):
    """U^3 = V^2 = (UV)^2 = id at every point of X_p."""
    p = ctx.p
    u, v = s3_images(ctx, transport_s3_rules())
    for a in range(1, p - 1):
        if u[u[u[a]]] != a:
            raise CheckFailedError(f"p = {p}: U^3 moves {a}")
        if v[v[a]] != a:
            raise CheckFailedError(f"p = {p}: V^2 moves {a}")
        if u[v[u[v[a]]]] != a:
            raise CheckFailedError(f"p = {p}: (UV)^2 moves {a}")


def walk_moebius_transport(ctx, part):
    """The six images of every point of X_p are its orbit, each hit
    6 / size times, and the rules compose as their labels at 1, 2, p - 2."""
    p, labels = ctx.p, list(MoebiusLabel)
    inv = orbits.inverse_table(p).__getitem__
    rules = [curves.MOEBIUS_TRANSPORT[lab] for lab in labels]
    for a in range(1, p - 1):
        o = part.orbit_of(a)
        row = [rule(a, inv, p) for rule in rules]
        if sorted(row) != sorted(o.elements * (6 // o.size)):
            if set(row) != set(o.elements):
                raise CheckFailedError(f"p = {p}: the six images of {a} are not its orbit {o.elements}")
            raise CheckFailedError(f"p = {p}: the images of {a} are not each hit {6 // o.size} times")
    rows = {a: [rule(a, inv, p) for rule in rules] for a in (1, 2, p - 2)}
    for i, f in enumerate(labels):
        for j, g in enumerate(labels):
            k = labels.index(f.compose(g))
            for a, row in rows.items():
                lhs, rhs = row[k], rules[j](row[i], inv, p)
                if lhs != rhs:
                    raise CheckFailedError(f"p = {p}: transport by {f.name} then {g.name} at {a}: {lhs} != {rhs}")


def walk_normalization(ctx):
    """normalize(a, 1) = a and normalize(1, a) = 1/a at every point of
    X_p, and rescaling invariance by every unit when p <= 31."""
    p, normalized = ctx.p, curves.normalized_exponent
    for a in range(1, p - 1):
        if normalized(a, 1, ctx) != a:
            raise CheckFailedError(f"p = {p}: normalize({a}, 1) is not {a}")
        if normalized(1, a, ctx) != ctx.inv(a):
            raise CheckFailedError(f"p = {p}: normalize(1, {a}) is not 1/{a}")
    for delta in range(1, p) if p <= 31 else (2, 3, p - 1):
        for a in (1, 2, p - 2):
            for b in (1, 2):
                if (a + b) % p and normalized(delta * a % p, delta * b % p, ctx) != normalized(a, b, ctx):
                    raise CheckFailedError(f"p = {p}: normalize({a}, {b}) changes under rescaling by {delta}")


def conjugation_sweep(ctx):
    """Yield (l, T^(-l) R T^l, T^(l (gamma^2 - 1)) R) for l = 0, ..., p-1
    and ctx's gamma: both sides of the conjugation relation as maps, equal
    to the ``word_map`` of each word.

    Both sides start at R.  A step conjugates the left side by T and
    advances the right side by T^(gamma^2 - 1), three compositions a step.
    The relation follows from R T = T^(gamma^2) R by induction on l, so
    comparing the sides tests the calculus itself: that composition is
    associative on normal forms, which are canonical."""
    p, g = ctx.p, ctx.gamma
    t, r = monomial.build_T(ctx), monomial.build_R(ctx)
    t_inv, t_shift = monomial.map_power(t, p - 1), monomial.map_power(t, (g * g - 1) % p)
    lhs = rhs = r
    for l in range(p):
        if l:
            lhs, rhs = monomial.compose(monomial.compose(t_inv, lhs), t), monomial.compose(t_shift, rhs)
        yield l, lhs, rhs


# -- report rows as dicts: the reference of the writer's row templates -------


def orbit_entry(o):
    return {
        "representative": o.representative,
        "kind": o.kind.value,
        "size": o.size,
        "elements": list(o.elements),
    }


def factor_entry(f):
    """The row of a factor, its curve's strings written from p and alpha
    here, not read off curves.CURVE_FORMATS."""
    p, alpha = f.curve.context.p, f.curve.alpha
    if f.curve.family is CurveFamily.P_GONAL:
        symbol, curve, equation = f"JC({alpha})", f"C_alpha(p={p}, alpha={alpha})", f"y^{p} = x^{alpha}*(x-1)"
    else:
        symbol, curve, equation = f"JE({alpha})", f"E_gamma(p={p}, gamma={alpha})", f"C_gamma(p={p})/<R>"
    entry = {
        "symbol": symbol,
        "curve": curve,
        "equation": equation,
        "family": f.curve.family.value,
        "alpha": alpha,
        "multiplicity": f.multiplicity,
        "dimension": f.dimension,
    }
    if f.curve.family is CurveFamily.P_GONAL and alpha == 1:
        # descriptive metadata only; never a computational object
        entry["hyperelliptic_model"] = f"w^2 = u^{p} - 1"
    return entry


def reference_rows(value):
    """value with every OrbitClass and IsogenyFactor in it replaced by the
    dict the report once built for it, for json.dumps."""
    if type(value) is OrbitClass:
        return orbit_entry(value)
    if type(value) is IsogenyFactor:
        return factor_entry(value)
    if isinstance(value, dict):
        return {k: reference_rows(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [reference_rows(v) for v in value]
    return value


@lru_cache(maxsize=16)
def _scanned_inverses(p):
    return brute_inverse_table(p)


def transport_formula(alpha, label_name, p):
    """The exponent of the image of C_alpha under a Moebius map, by the
    formula of each label, with inverses from the brute-force scan."""
    inv = _scanned_inverses(p)
    formulas = {
        "ID": alpha,
        "INV": -(1 + alpha),
        "ONE_MINUS": inv[alpha],
        "OVER": -alpha * inv[1 + alpha],
        "CYC": -inv[1 + alpha],
        "CYC2": -inv[alpha] * (1 + alpha),
    }
    return formulas[label_name] % p


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
    fix = pgonal_fix_table(root_context(p, gamma))
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
    order, members = 6 * k.p * k.p, set(elements(k))
    return [order * sum(1 for g in cls if g in members) // (len(cls) * k.order) for cls in classes]


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
    each read at the index of the object."""
    universe = list(universe)
    total = sum(f1(index_of(g)) * f2(index_of(g)) for g in universe)
    return Fraction(total, len(universe))


# -- explicit coset labelling on element indices ------------------------------
#
# The coset action as the package computed it before it turned to class
# arithmetic: cosets are labelled one by one on the integer kernel, and
# every fixed coset and cycle is counted on the labels.  The oracle for
# coset_genus, the full fix table and induced_perm_character.


def trivial_subgroup(group):
    """The subgroup {1}: its quotient is the curve itself, its cosets the
    elements."""
    return Subgroup(group, (IDENTITY,))


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
    index x.  Refuses a subgroup whose order is not the number of
    elements over the number of cosets.
    """
    group = k.group
    if group.gamma is not None:
        raise GroupMismatchError(f"{k!r} is not a subgroup of the Fermat group")
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
        raise OutOfRangeError(f"{k!r} has {len(reps)} cosets, which its order does not give")
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
    """(1/|G|) sum over every element index i of f1(i) f2(i)."""
    order = f1.data.order
    return Fraction(sum(f1(i) * f2(i) for i in range(order)), order)


def class_values(fn, classes):
    """A class function's value on each class of indices, at its first member."""
    return [fn(cls[0]) for cls in classes]


def class_members(data):
    """The members of each class of a ListClassData, read off ``class_of``."""
    members = [[] for _ in data.reps]
    for i, c in enumerate(data.class_of):
        members[c].append(i)
    return tuple(map(tuple, members))


def subgroup_indices(k):
    """The sorted indices of k's elements: a subgroup of H listed point by
    point through its lines, any other by :func:`elements`."""
    if not k.lines:
        return elements(k)
    p = k.p
    return sorted({fermat_translation(p, t * a, t * b) for line in k.lines for a, b in [plane_lines(p)[line]] for t in range(p)})


# -- the class table: the oracle of ClassData's keys by rule ------------------
#
# The Fermat group's classes as the package once held them: one key per
# element, a list of 6 p^2, from the orbit of each of the p^2 translations;
# the class numbers, representatives and sizes in the order of the orbit
# walk; and the class rule's label walk over all p^2 translations.


def matrix_positions(matrix, p):
    """The position of M x for each vector x = (m, n) of F_p^2, in order of
    the position m p + n of x."""
    a, b, c, d = matrix
    return (((a * m + b * n) % p) * p + (c * m + d * n) % p for m in range(p) for n in range(p))


def translation_orbit_reps(p):
    """For each vector (m, n) of F_p^2, at position m p + n, the smallest
    position in its orbit under the matrices of ACTION."""
    rep = [-1] * (p * p)
    for x in range(p * p):
        if rep[x] < 0:
            m, n = divmod(x, p)
            for a, b, c, d in ACTION:
                rep[((a * m + b * n) % p) * p + (c * m + d * n) % p] = x
    return rep


def fermat_class_keys(p):
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
        keys[s::6] = map(square_key.__getitem__, matrix_positions(square, p))
        multiples = {(t * u % p) * p + t * v % p for u, v in ((a, c), (b, d)) for t in range(p)}
        image = range(n) if (a * d - b * c) % p else multiples
        for key in map(square_key.__getitem__, image):
            counts[key] = counts.get(key, 0) + n // len(image)
    return keys, counts


def pgonal_class_keys(group):
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


class ListClassData:
    """The conjugacy classes of one group plus the class of every element.

    ``class_of[i]`` is the number of the class of the element with index
    i, ``reps[c]`` the smallest member of class c, ``sizes[c]`` its size
    and ``keys[c]`` its key by the rule.  Classes are numbered by smallest
    member, as conjugacy_classes orders them.
    """

    def __init__(self, group):
        self.group = group
        keys, counts = fermat_class_keys(group.p) if group.gamma is None else pgonal_class_keys(group)
        first = dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))
        order = sorted(first, key=first.__getitem__)
        self.keys = tuple(order)
        self.reps = tuple(map(first.__getitem__, order))
        self.sizes = tuple(map(counts.__getitem__, order))
        number = {key: c for c, key in enumerate(order)}
        self.class_of = [number[key] for key in keys]
        self.element_keys = keys

    @property
    def order(self):
        return len(self.class_of)


def class_label_gap(data):
    """The walk the class rule's argument replaced: the class labels of
    a ListClassData's p^2 translations under A_u and A_v, compared
    element by element; None when they are invariant."""
    group = data.group
    p = group.p
    labels = data.class_of[::6]
    for s in (PERM_U, PERM_V):
        image = list(matrix_positions(ACTION[s], p))
        if list(map(labels.__getitem__, image)) != labels:
            x = next(x for x, y in enumerate(image) if labels[y] != labels[x])
            return f"conjugation by {group.coordinates(s)} moves {group.coordinates(6 * x)} out of its class"
    return None


# -- the per-element paths the closed forms of ClassData replaced --------------


def orbit_key(p, m, n):
    """The least position m' p + n' of the images (m', n') of (m, n) under
    ACTION: one key per S3-orbit of F_p^2, the key of ClassData.key."""
    return min((a * m + b * n) % p * p + (c * m + d * n) % p for a, b, c, d in ACTION)


def class_line_walk_gap(data):
    """The walk the class rule's argument stands for: the key at the
    plane_lines point of each of the p + 1 lines against its images under
    A_u and A_v, by orbit_key; None when every one keeps its class."""
    p, where = data.p, data.group.coordinates
    for m, n in plane_lines(p):
        key = orbit_key(p, m, n)
        if data.key(fermat_translation(p, m, n)) != key:
            return f"ClassData keys {where(6 * (m * p + n))} as {data.key(6 * (m * p + n))}, not {key}"
        for s in (PERM_U, PERM_V):
            a, b, c, d = ACTION[s]
            y = ((a * m + b * n) % p) * p + (c * m + d * n) % p
            if data.key(6 * y) != key:
                return f"conjugation by {where(s)} moves {where(6 * (m * p + n))} out of its class, to {where(6 * y)}"
    return None


def six_image_line_index(data, keys):
    """Line -> {key: |C n line|} for the Fermat translation classes C among
    the keys but the identity's, each of the six images of each key's point
    counted on its line: the index ClassData's line orbits replaced."""
    p = data.p
    index = {}
    for key in keys:
        if 0 < key < p * p:
            m, n = divmod(key, p)
            for y in {((a * m + b * n) % p, (c * m + d * n) % p) for a, b, c, d in ACTION}:
                cell = index.setdefault(line_of(p, *y), {})
                cell[key] = cell.get(key, 0) + 1
    return index


def by_key(blocks):
    """Class counts held as blocks (a range of keys -> each class's count),
    key by key."""
    return {c: n for keys, n in blocks.items() for c in keys}


def index_by_key(by_line):
    """A line index of blocks, key by key on each line."""
    return {line: by_key(cell) for line, cell in by_line.items()}


def power_class_counts_by_element(triple, data):
    """The closed forms' oracle: each triple entry's order and the class
    counts of its powers, listed by Group.closure and keyed one by one,
    and their translation classes by line from six images each."""
    entries = []
    for c, m in triple.entries:
        powers = data.group.closure([c])
        assert len(powers) == m
        entries.append((m, by_key(data.class_counts(powers))))
    return tuple(entries), six_image_line_index(data, {c for _, counts in entries for c in counts})


def walked_cyclic_subgroup_classes(data):
    """One cyclic subgroup per conjugacy class of them, by a walk over the
    classes of a ListClassData in order: the powers of the smallest member
    of a class not yet covered are a new representative, and the classes
    of its generators become covered."""
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
        subgroups.append(Subgroup(group, (rep,)))
    return subgroups


def merge_axis_class(real):
    """ClassData.key with the class of a1 (an axis translation, key 1)
    keyed as the class of a1 a2^2 (off the axes): the classes of both
    translations, and of the transposition elements whose squares lie in
    them, merge."""

    def merged(self, i):
        key, n = real(self, i), self.p * self.p
        target = real(self, fermat_translation(self.p, 1, 2))
        return {1: target, n + 1: n + target}.get(key, key) if self.group.gamma is None else key

    return merged


def split_generic_class(real):
    """ClassData.key with the orbit of a1 a2^2 (a translation off the axes,
    an orbit of six) split into two halves of three, the second keyed by
    its own smallest position."""

    def split(self, i):
        key, p = real(self, i), self.p
        if self.group.gamma is not None or i % 6:
            return key
        members = sorted({((a + 2 * b) % p) * p + (c + 2 * d) % p for a, b, c, d in ACTION})
        return members[3] if key == members[0] and i // 6 in members[3:] else key

    return split


def split_generic_line_orbit(real):
    """line_orbits with the first generic orbit of six lines split into two
    halves of three, each still called generic: the translations on its
    lines, one class per scalar class, split with it."""

    def split(p):
        orbits = list(real(p))
        i = next(i for i, o in enumerate(orbits) if o.kind == "generic")
        o = orbits[i]
        orbits[i:i + 1] = [LineOrbit(o.lines[:3], o.stabilizer, o.kind), LineOrbit(o.lines[3:], o.stabilizer, o.kind)]
        return tuple(orbits)

    return split


def drop_deck_class(real):
    """cyclic_subgroup_classes without its last deck representative, the
    cyclic subgroup of a translation (m, n) off the three axes."""

    def dropped(p, orbits):
        subgroups = list(real(p, orbits))
        deck = []
        for i, k in enumerate(subgroups):
            m, n, s = Group(p).coordinates(k.generators[0])
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


# -- monomial records: the object-level oracle of the tuple calculus ----------
#
# The package writes a monomial as the int tuple (sign, omega, a, b, d) and
# a map as (p, gamma, x-image, y-image).  These records are the same data as
# objects, with a product, a power and a composition of their own: a
# substitution is a chain of normalized powers and products.


class MonomialFunction(FrozenRecord):
    """sign * w^omega * x^a * (x-1)^b * y^d in normal form (0 <= d < p)."""

    __slots__ = _fields = ("sign", "omega", "a", "b", "d")

    def __init__(self, sign, omega, a, b, d):
        set_field(self, "sign", sign)
        set_field(self, "omega", omega)
        set_field(self, "a", a)
        set_field(self, "b", b)
        set_field(self, "d", d)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.a == other.a and self.b == other.b and self.d == other.d
                and self.omega == other.omega and self.sign == other.sign)

    def __hash__(self):
        return hash((self.sign, self.omega, self.a, self.b, self.d))


def normal_form(sign, omega, a, b, d, p, gamma):
    """The record of sign w^omega x^a (x-1)^b y^d with y^p = x^gamma (x-1)
    used to bring d into [0, p)."""
    q, r = divmod(d, p)
    return MonomialFunction(sign, omega % p, a + q * gamma, b + q, r)


def record_mul(f, g, p, gamma):
    return normal_form(f.sign * g.sign, f.omega + g.omega, f.a + g.a, f.b + g.b, f.d + g.d, p, gamma)


def record_pow(f, e, p, gamma):
    return normal_form(f.sign if e % 2 else 1, f.omega * e, f.a * e, f.b * e, f.d * e, p, gamma)


# label -> the records of the Moebius monomial and of (it - 1)
MOEBIUS_RECORDS = {
    label: (MonomialFunction(*x), MonomialFunction(*x_minus_one))
    for label, (x, x_minus_one) in MOEBIUS_MONOMIALS.items()
}
_LABEL_OF_RECORD = {x: label for label, (x, _) in MOEBIUS_RECORDS.items()}


class MonomialMap(FrozenRecord):
    """A self-map (x, y) -> (x_image, y_image) of the gamma curve; the
    x-image must be one of the six Moebius monomials."""

    __slots__ = _fields = ("p", "gamma", "x_image", "y_image")

    def __init__(self, p, gamma, x_image, y_image):
        if x_image not in _LABEL_OF_RECORD:
            raise NonMonomialError(f"x-image {x_image!r} is not a Moebius monomial")
        set_field(self, "p", p)
        set_field(self, "gamma", gamma)
        set_field(self, "x_image", x_image)
        set_field(self, "y_image", y_image)

    @property
    def x_label(self):
        return _LABEL_OF_RECORD[self.x_image]


def record_of(m):
    """The record of a package map tuple (p, gamma, x-image, y-image)."""
    p, gamma, x, y = m
    return MonomialMap(p, gamma, MonomialFunction(*x), MonomialFunction(*y))


def substitute_by_chain(f, x_val, x_minus_one, y_val, p, gamma):
    """f(x := X, y := Y) as a chain of normalized products: the sign and
    w-part of f, times X^a, times (X - 1)^b, times Y^d, each power and
    product put in normal form on its own."""
    out = MonomialFunction(f.sign, f.omega % p, 0, 0, 0)
    out = record_mul(out, record_pow(x_val, f.a, p, gamma), p, gamma)
    out = record_mul(out, record_pow(x_minus_one, f.b, p, gamma), p, gamma)
    if f.d:
        out = record_mul(out, record_pow(y_val, f.d, p, gamma), p, gamma)
    return out


def record_compose(outer, inner):
    """outer after inner, each image substituted by the chain."""
    if (outer.p, outer.gamma) != (inner.p, inner.gamma):
        raise GroupMismatchError(f"cannot compose {outer!r} with {inner!r}")
    p, gamma = outer.p, outer.gamma
    x, x_minus_one = MOEBIUS_RECORDS[inner.x_label]
    return MonomialMap(
        p,
        gamma,
        substitute_by_chain(outer.x_image, x, x_minus_one, None, p, gamma),
        substitute_by_chain(outer.y_image, x, x_minus_one, inner.y_image, p, gamma),
    )


def record_word(word, t, r):
    """The record map of a word in T and R (rightmost letter first), each
    power a run of single compositions, exponents reduced mod p and 3."""
    p, gamma = t.p, t.gamma
    m = MonomialMap(p, gamma, MonomialFunction(1, 0, 1, 0, 0), MonomialFunction(1, 0, 0, 0, 1))
    for letter, exp in word:
        base, modulus = {"T": (t, p), "R": (r, 3)}[letter]
        for _ in range(exp % modulus):
            m = record_compose(m, base)
    return m


def parse(text):
    """A JSON report back as a dict (the package writes JSON, never reads it)."""
    import json

    return json.loads(text)


def mutated(fn, old, new):
    """fn recompiled from its source with the text old replaced by new,
    in fn's module; a method is recompiled as a plain function."""
    import inspect
    import textwrap

    source = textwrap.dedent(inspect.getsource(fn))
    if source.count(old) != 1:
        raise RuntimeError(f"{old!r} is not once in the source of {fn.__name__}")
    namespace = {}
    exec(source.replace(old, new), fn.__globals__, namespace)
    return namespace[fn.__name__]


# -- the python -O twins, in one python -O child -------------------------------
#
# A module with python -O twins states their cases once, in a module-level
# table {key: (mutation, commands)}.  The mutation, a function of a
# MonkeyPatch (or None), is the one the twin's in-process sibling installs,
# and each command is an argv for cli.main or a function that prints its
# result (see printing).  run_family_under_O runs tables in one python -O
# child, in process: each case installs its mutation through its own
# MonkeyPatch, runs its commands with stdout and stderr captured, and undoes
# it.  After each case an unmutated verify --p 13, the control, must pass,
# so a mutation that leaks into the next case fails the case that left it.
# conftest.py's under_O fixture runs the UNDER_O table of every collected
# module in one such child.

CONTROL = ["verify", "--p", "13"]


def printing(action):
    """action, a function of no arguments, as a command of a case table:
    the command prints what action returns, or the type and text of what
    it raises."""

    def command():
        try:
            print(repr(action()))
        except Exception as exc:
            print(type(exc).__name__, exc)

    return command


def _captured(command):
    """command in process, an argv for cli.main or a function: its exit
    code (0 for a function that returns), stdout and stderr, with the
    traceback of an exception in stderr and code 1, as a child's."""
    import contextlib
    import io
    import traceback

    from fermatjac import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if callable(command):
                command()
                code = 0
            else:
                code = cli.main(command)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def _table(name):
    """The case table named "module.TABLE", its module imported."""
    import importlib

    module, _, table = name.rpartition(".")
    return getattr(importlib.import_module(module), table)


def _run_tables(names, undo=True):
    """The child's half of run_family_under_O: every module imported first,
    then each table's cases run, each followed by the control; with undo
    False the mutations are left installed.  Prints a JSON list, per table,
    of a list per case of the commands' codes, their stdout and stderr in
    order, and the control's code and stdout."""
    import json

    import pytest

    tables, rows = [_table(name) for name in names], []
    for table in tables:
        rows.append([])
        for mutation, commands in table.values():
            mp = pytest.MonkeyPatch()
            if mutation is not None:
                mutation(mp)
            codes, outs, errs = zip(*[_captured(command) for command in commands])
            if undo:
                mp.undo()
            control, control_out, _ = _captured(CONTROL)
            rows[-1].append([codes, "".join(outs), "".join(errs), control, control_out])
    print(json.dumps(rows))


def run_family_under_O(names, undo=True):
    """Run the case tables named (each "module.TABLE" of this directory) in
    one python -O child, the package and these helpers on its path; the
    child exits 99 if asserts are not stripped after all.  Returns {name:
    {key: its run}}, each run with its commands' stdout and stderr, the
    exit code of a single command as ``returncode`` (the tuple of codes of
    several), and the control's exit code and stdout as ``control`` and
    ``control_stdout``."""
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path
    from types import SimpleNamespace

    import fermatjac

    script = (
        "import sys\nif not sys.flags.optimize:\n    sys.exit(99)\n"
        f"import helpers\nhelpers._run_tables({list(names)!r}, {undo!r})\n"
    )
    src = str(Path(fermatjac.__file__).resolve().parents[1])
    here = str(Path(__file__).resolve().parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, here, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    runs = {}
    for name, rows in zip(names, json.loads(run.stdout), strict=True):
        runs[name] = {}
        for key, (codes, out, err, control, control_out) in zip(_table(name), rows, strict=True):
            returncode = codes[0] if len(codes) == 1 else tuple(codes)
            runs[name][key] = SimpleNamespace(
                returncode=returncode, stdout=out, stderr=err, control=control, control_stdout=control_out
            )
    return runs


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
