"""Assembly and verification of the Jacobian isogeny decompositions.

The Fermat Jacobian decomposes through the family of free deck subgroups
H_1, ..., H_(p-2) of the translation subgroup H = Z_p^2.  The
decomposition criterion needs three hypotheses, all checked here exactly:

    (1) every pairwise product H_i H_j equals H_j H_i as a set,
    (2) the quotient by each pairwise product has genus zero,
    (3) the quotient genera of the H_j sum to the genus of the curve.

The check works in F_p^2 rather than on element sets: H_j is the line
through (1, 1+j), H_i and H_j have determinant j - i and so always join
to the plane H, and Riemann-Hurwitz needs only each line's fix sum.  One
pass reads the axis fix table once per line of F_p^2 and gives both the
plane's genus and every H_j's.  Each hypothesis then has one verdict,
which every pair shares.  Time and memory are O(p).

Grouping the resulting quotient-curve factors by isomorphism class (one
class per exponent orbit) gives the coarse decomposition: one factor
JC(alpha) per orbit, multiplicity = orbit size, held to the deck census:
the multiplicity of each factor must be the number of deck quotients
F/H_j isomorphic to its curve.  When p = 1 mod 3 the size-two orbit
factor refines further, replacing the gamma curve by the sixth power of
its genus-(p-1)/6 quotient E; every other fine factor is the coarse one.

The refinement is certified by the quotient-genus identities for the
order-3 subgroups K_1, K_2, K_3 of the gamma curve's group Z_p x| Z_3.
That group has order 3p, so by Lagrange its proper subgroups have order
1, 3 or p.  Two distinct K_i therefore generate the whole group, whose
quotient has genus zero; and their set product K_i K_j has 9 elements,
which does not divide 3p, so it is no subgroup and differs from K_j K_i.
The gate raises unless the genus identities hold, which they do only for
distinct K_i, and the report writes the set-commutation verdict of a
passed gate: the set products differ.  The test suite confirms both
facts on element objects.
"""

from __future__ import annotations

from .curves import CURVE_FORMATS, CurveFamily, CurveSpec, deck_exponent, genus_of
from .errors import AuditFailError, OutOfRangeError
from .genus import fermat_axis_fix_table, fermat_genus, pgonal_fix_table, rh_genus
from .groups import Group, LineOrbit, deck_index, deck_line, fermat_H, fermat_Hj, line_orbit, pgonal_group, pgonal_K
from .orbits import OrbitKind, OrbitPartition, PrimeContext, orbit_partition, probe_points
from .records import Const, FrozenRecord, Record, set_field


class DecompositionLevel(Const):
    COARSE = "coarse"
    FINE = "fine"


class IsogenyFactor(FrozenRecord):
    _fields = ("curve", "multiplicity", "dimension")
    __slots__ = (*_fields, "_symbol")  # the symbol, filled in once from CURVE_FORMATS

    def __init__(self, curve: CurveSpec, multiplicity: int, dimension: int):
        set_field(self, "curve", curve)
        set_field(self, "multiplicity", multiplicity)
        set_field(self, "dimension", dimension)
        set_field(self, "_symbol", CURVE_FORMATS[curve.family][2] % {"p": curve.context.p, "alpha": curve.alpha})

    def symbol(self) -> str:
        return self._symbol

    def render(self) -> str:
        return f"{self.symbol()}^{self.multiplicity}"


class KaniRosenAudit(FrozenRecord):
    """What a passed deck-family audit reports: the p - 2 subgroups and
    their genus sum, the genus of the curve.  :func:`kani_rosen_check`
    raises on a failed hypothesis, so no record holds a failure.
    """

    __slots__ = _fields = ("subgroup_count", "genus_sum")
    commuting_checks = ()  # the pairs whose set products differ: none; kept for the benchmark tracer's count

    def __init__(self, subgroup_count: int, genus_sum: int):
        set_field(self, "subgroup_count", subgroup_count)
        set_field(self, "genus_sum", genus_sum)

    def summary(self) -> dict:
        n = self.subgroup_count * (self.subgroup_count - 1) // 2
        return {
            "subgroup_count": self.subgroup_count,
            "commuting": {"pairs_checked": n, "pairs_passed": n, "failures": [], "method": "abelian"},
            "genus_zero": {"pairs_checked": n, "pairs_passed": n, "failures": []},
            "genus_sum": {"computed": self.genus_sum, "expected": self.genus_sum, "ok": True},
            "all_pass": True,
        }


def kani_rosen_check(ctx: PrimeContext) -> KaniRosenAudit:
    """Check the three decomposition hypotheses for H_1, ..., H_(p-2) and
    raise AuditFailError naming the first that fails, with its values.

    Every subgroup of H = Z_p^2 is a line or the whole plane of F_p^2, and
    H_j is the line through (1, 1+j).  :func:`~fermatjac.genus.rh_genus`
    reads the axis table once per line
    (:attr:`~fermatjac.genus.FixTable.line_counts`): for the plane, and for
    one deck line per distinct count, its genus weighed by the lines with
    that count.  H_i and H_j have determinant j - i, a unit for i != j, so
    every pair joins to the plane and has the plane's quotient genus: the
    pairs pass or fail together.  The set products H_i H_j and H_j H_i
    agree for every pair once a1 and a2, which generate H, commute.  Time
    and memory are O(p).
    """
    p = ctx.p
    g_top = fermat_genus(p)
    fix = fermat_axis_fix_table(ctx)
    deck = fix.line_counts[deck_line(1):]
    plane_genus = rh_genus(g_top, fermat_H(p), fix)
    total = sum([deck.count(c) * rh_genus(g_top, fermat_Hj(p, deck_index(deck_line(1) + deck.index(c))), fix) for c in set(deck)])
    group = Group(p)
    a1, a2 = group.generators[:2]
    a1a2, a2a1 = group.mul(a1, a2), group.mul(a2, a1)
    if a1a2 != a2a1:
        why = f"a1 a2 = {group.coordinates(a1a2)} != a2 a1 = {group.coordinates(a2a1)}"
    elif plane_genus:  # every pair joins to the plane H
        why = f"the plane H has quotient genus={plane_genus}, not genus=0"
    elif total != g_top:
        why = f"genus sum {total} != {g_top}"
    else:
        return KaniRosenAudit(p - 2, total)
    raise AuditFailError(f"decomposition hypotheses failed for p = {p}: {why}")


_K_PAIRS = ((1, 2), (1, 3), (2, 3))


class GammaRefinementAudit(FrozenRecord):
    """What a passed gamma refinement reports: the genus of the gamma
    curve, a third of which is each K_i's quotient genus, while each pair
    of K_i joins to genus 0.  :func:`gamma_refinement_audit` raises on a
    failed identity, so no record holds a failure.
    """

    __slots__ = _fields = ("curve_genus",)

    def __init__(self, curve_genus: int):
        set_field(self, "curve_genus", curve_genus)

    def summary(self) -> dict:
        g, third = self.curve_genus, self.curve_genus // 3
        return {
            "quotient_genus": [{"subgroup": f"K{i}", "genus": third, "expected": third, "ok": True} for i in (1, 2, 3)],
            "pairwise_joined_genus_zero": [{"pair": list(pair), "ok": True, "detail": "genus=0"} for pair in _K_PAIRS],
            "genus_sum": {"computed": g, "expected": g, "ok": True},
            # the join gate passes only for distinct K_i, whose set products differ
            "set_products_commute": False,
            "note": (
                "pairwise set products K_i*K_j differ from K_j*K_i; each pair "
                "generates the full group, and the refinement is certified by "
                "the quotient-genus identities"
            ),
            "all_pass": True,
        }


def gamma_refinement_audit(ctx: PrimeContext) -> GammaRefinementAudit:
    """Check the hypotheses behind the gamma-factor refinement and raise
    AuditFailError naming the first that fails, with its values.

    The joins and set products of the K_i follow from Lagrange (see the
    module docs): a pair of distinct K_i joins to the whole group, whose
    quotient genus is computed once, and its set products differ.  Equal
    K_i = K_j join to K_i, of genus (p-1)/6, and fail the gate.  An
    order-3 subgroup holds exactly one T^k R, which generates it, so the
    K_i are told apart by their generators.
    """
    ks = [pgonal_K(i, ctx) for i in (1, 2, 3)]
    fix = pgonal_fix_table(ctx)
    g_top = (ctx.p - 1) // 2
    genera = [rh_genus(g_top, k, fix) for k in ks]  # a failure names K (genus.naming)
    whole_genus = rh_genus(g_top, pgonal_group(ctx), fix)
    failed, third = f"gamma refinement hypotheses failed for p = {ctx.p}: ", g_top // 3
    for i, g in enumerate(genera, start=1):
        if g != third:
            raise AuditFailError(f"{failed}K{i} has quotient genus {g}, not {third}")
    for i, j in _K_PAIRS:
        g = whole_genus if ks[i - 1].generators != ks[j - 1].generators else genera[i - 1]
        if g:
            raise AuditFailError(f"{failed}K{i} K{j} has quotient genus={g}, not genus=0")
    # no genus-sum gate: p = 1 mod 6, so 3 divides (p-1)/2 and the three
    # K_i gates make the sum 3 (p-1)/6 = (p-1)/2
    return GammaRefinementAudit(g_top)


class IsogenyDecomposition(Record):
    _fields = ("context", "level", "factors", "audit", "gamma_refinement")
    __slots__ = (*_fields, "total_dimension")  # sum of multiplicity x dimension, summed once

    def __init__(self, context: PrimeContext, level: DecompositionLevel, factors: tuple[IsogenyFactor, ...],
                 audit: KaniRosenAudit, gamma_refinement: GammaRefinementAudit | None = None):
        self.context = context
        self.level = level
        self.factors = factors
        self.audit = audit
        self.gamma_refinement = gamma_refinement
        self.total_dimension = sum([f.multiplicity * f.dimension for f in factors])

    def render(self) -> str:
        body = " x ".join([f"{f._symbol}^{f.multiplicity}" for f in self.factors])
        return f"JF({self.context.p}) ~ {body}"


def _coarse_factors(ctx: PrimeContext, partition: OrbitPartition) -> tuple[IsogenyFactor, ...]:
    """One C_alpha factor per orbit, the orbits sorted stably by kind from
    the partition's representative order; every C_alpha has one genus."""
    ordered = [o for kind in OrbitKind for o in partition.orbits if o.kind is kind]
    curves = [CurveSpec(ctx, CurveFamily.P_GONAL, o.representative) for o in ordered]
    dimension = genus_of(curves[0])
    return tuple([IsogenyFactor(c, o.size, dimension) for c, o in zip(curves, ordered)])


def _deck_census(ctx: PrimeContext, partition: OrbitPartition) -> dict[int, int]:
    """How many of the p-2 deck quotients fall in each isomorphism class,
    keyed by the representative of the orbit of the quotient's exponent,
    read off the partition's element-to-orbit index.  An exponent in no
    orbit on X_p is refused."""
    p = ctx.p
    counts: dict[int, int] = {}
    for j in range(1, p - 1):
        orbit = partition._orbit_of.get(alpha := deck_exponent(j, p))  # keyed by X_p alone
        if orbit is None:
            raise AuditFailError(f"deck quotient {j} has exponent {alpha!r}, in no orbit on X_p = {{1,...,{p - 2}}}")
        rep = orbit.representative
        counts[rep] = counts.get(rep, 0) + 1
    return counts


def deck_orbit_gap(partition: OrbitPartition, j: int, lines: LineOrbit) -> str | None:
    """Why the S3-orbit of H_j's line is not the orbit of its exponent
    alpha, or None: the lines' exponents must be alpha's orbit, of its kind,
    with |stabilizer| x |lines| = 6.  Asked by the deck audit and the certificates."""
    p = partition.context.p
    orbit = partition.orbit_of(alpha := deck_exponent(j, p))
    exponents = sorted({deck_exponent(i, p) for i in map(deck_index, lines.lines) if i})  # an axis has none
    if exponents == list(orbit.elements) and lines.kind == orbit.kind.value and len(lines.stabilizer) * len(lines.lines) == 6:
        return None
    return (
        f"deck quotient j = {j}, alpha = {alpha}: lines {lines.lines} (kind {lines.kind}, stabilizer {lines.stabilizer})"
        f" give exponents {exponents}, not the orbit {orbit.elements} (kind {orbit.kind.value}) of alpha"
    )


def _fermat_family_audit(ctx: PrimeContext, partition: OrbitPartition, factors: tuple[IsogenyFactor, ...]) -> None:
    # Factor multiplicities: each factor JC(alpha)^m must receive m of the
    # p - 2 deck quotients, by the orbit of the quotient's exponent.
    p = ctx.p
    counts = _deck_census(ctx, partition)
    expected = {f.curve.alpha: f.multiplicity for f in factors}
    if counts != expected:
        raise AuditFailError(f"p = {p}: deck quotients per isomorphism class {counts} != factor multiplicities {expected}")
    # Any permutation of X_p keeps those counts, so the probes also test that
    # the rule is S3-equivariant: H_j's line orbit goes onto alpha's orbit.
    for j in probe_points(ctx):
        if gap := deck_orbit_gap(partition, j, line_orbit(p, deck_line(j))):
            raise AuditFailError(f"p = {p}: {gap}")


def _require_total_dimension(d: IsogenyDecomposition) -> IsogenyDecomposition:
    g = fermat_genus(d.context.p)
    if d.total_dimension != g:
        raise AuditFailError(
            f"{d.level.value} decomposition has total dimension {d.total_dimension} != genus {g}"
        )
    return d


def decompose_coarse(ctx: PrimeContext, partition: OrbitPartition | None = None) -> IsogenyDecomposition:
    """One Jacobian factor per exponent orbit, multiplicity = orbit size,
    held to the deck census, from ctx's orbit partition (built here when
    not given).

    Its audits raise AuditFailError on a failed hypothesis, so a
    decomposition exists only once they passed.
    """
    if partition is None:
        partition = orbit_partition(ctx)
    audit = kani_rosen_check(ctx)
    coarse = IsogenyDecomposition(ctx, DecompositionLevel.COARSE, _coarse_factors(ctx, partition), audit)
    _fermat_family_audit(ctx, partition, _require_total_dimension(coarse).factors)
    return coarse


def decompose_fine(coarse: IsogenyDecomposition) -> IsogenyDecomposition:
    """The coarse decomposition with the gamma factor, if any, replaced by
    E^6, reusing the coarse audit.

    Each fine factor is held to the coarse factor in its place: it must be
    that object, but for the gamma curve's JC(gamma)^m, which must be
    JE(gamma)^(3m) of a third of the gamma curve's genus (from the K_i
    audit), as JC(gamma) ~ JE(gamma)^3.  A factor short or over is left to
    the total dimension.
    """
    ctx = coarse.context
    if coarse.level is not DecompositionLevel.COARSE:
        raise OutOfRangeError(f"decompose_fine needs a coarse decomposition, got the {coarse.level.value} one")
    refinement = gamma_refinement_audit(ctx) if ctx.has_gamma else None
    factors = []
    for f in coarse.factors:
        if f.multiplicity == 2:
            curve = CurveSpec(ctx, CurveFamily.E_QUOTIENT, f.curve.alpha)
            factors.append(IsogenyFactor(curve, 6, genus_of(curve)))
        else:
            factors.append(f)
    fine = IsogenyDecomposition(ctx, DecompositionLevel.FINE, tuple(factors), coarse.audit, refinement)
    p, gamma = ctx.p, ctx.gamma_pair and ctx.gamma_pair[0]
    for f, c in zip(fine.factors, coarse.factors):
        if c.curve.alpha != gamma:
            if f is not c:
                raise AuditFailError(f"p = {p}: fine factor {f.render()} for the coarse {c.render()}, expected {c.render()} itself")
            continue
        expected = IsogenyFactor(CurveSpec(ctx, CurveFamily.E_QUOTIENT, gamma), 3 * c.multiplicity, refinement.curve_genus // 3)
        if f != expected:
            raise AuditFailError(
                f"p = {p}: fine factor {f.render()} of dimension {f.dimension} for the coarse {c.render()},"
                f" expected {expected.render()} of dimension {expected.dimension}"
            )
    return _require_total_dimension(fine)


def dimension_audit(d: IsogenyDecomposition) -> tuple[dict, dict | None]:
    """The dimension block of d's report and, at the fine level, its
    shape block (None when coarse), read off the factors by place: B0 the
    first, B the gamma curve's next if p = 1 mod 3, the N generic factors
    B_j the rest, by ascending alpha.  Only that order is checked here,
    raising AuditFailError at the first factor out of it: the deck census
    and the coarse factors hold the factors, and the genus their total.
    """
    p, gamma = d.context.p, d.context.gamma_pair and d.context.gamma_pair[0]
    head = [1, gamma] if gamma else [1]
    b0, b, generic = d.factors[0], d.factors[1] if gamma else None, d.factors[len(head):]
    for i, (f, alpha) in enumerate(zip(d.factors, head + sorted([f.curve.alpha for f in generic])), start=1):
        if f.curve.alpha != alpha:
            why = "JC(1) first, then the gamma curve's, then ascending alpha"
            raise AuditFailError(f"p = {p}: factor {i} is {f.render()}, not the one of alpha = {alpha} ({why})")
    dimensions = {
        "total_dimension": d.total_dimension,
        "fermat_genus": fermat_genus(p),
        "generic_factor_count": len(generic),
        "ok": True,
    }
    if d.level is not DecompositionLevel.FINE:
        return dimensions, None
    return dimensions, {
        "B0": b0._symbol,
        "B": b._symbol if b else None,
        "B_j": [f._symbol for f in generic],
        "N": len(generic),
        "dimensions": {"B0": b0.dimension, "B": b.dimension if b else None, "B_j": b0.dimension},
    }
