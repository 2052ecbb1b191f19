"""Assembly and verification of the Jacobian isogeny decompositions.

The Fermat Jacobian decomposes through the family of free deck subgroups
H_1, ..., H_(p-2) of the translation subgroup H = Z_p^2.  The
decomposition criterion needs three hypotheses, all checked here exactly:

    (1) every pairwise product H_i H_j equals H_j H_i as a set,
    (2) the quotient by each pairwise product has genus zero,
    (3) the quotient genera of the H_j sum to the genus of the curve.

The check works in F_p^2 rather than on element sets: H_j is the line
through (1, 1+j), H_i and H_j have determinant j - i and so always join
to the plane H, and Riemann-Hurwitz needs only each line's fix sum, read
off the axis fix table at its direction.  Time and memory are O(p).

Grouping the resulting quotient-curve factors by isomorphism class (one
class per exponent orbit) gives the coarse decomposition: one factor per
orbit with multiplicity equal to the orbit size.  When p = 1 mod 3 the
size-two orbit factor refines further, replacing the gamma curve by the
sixth power of its genus-(p-1)/6 quotient E.

The refinement is certified by the quotient-genus identities for the
order-3 subgroups K_1, K_2, K_3 of the gamma curve's group Z_p x| Z_3.
That group has order 3p, so by Lagrange its proper subgroups have order
1, 3 or p.  Two distinct K_i therefore generate the whole group, whose
quotient has genus zero; and their set product K_i K_j has 9 elements,
which does not divide 3p, so it is no subgroup and differs from K_j K_i.
The audit records that set-commutation verdict honestly, as data, and
gates the emitted refinement on the genus identities, which hold.  The
test suite confirms both facts on element objects.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum
from itertools import combinations

from .curves import CurveFamily, CurveSpec, genus_of, quotient_to_curve
from .errors import AuditFailError, OutOfRangeError
from .genus import (
    fermat_axis_fix_table,
    fermat_genus,
    pgonal_fix_table,
    rh_genus,
    riemann_hurwitz,
)
from .groups import Group, fermat_translation, pgonal_group, pgonal_K
from .orbits import OrbitKind, OrbitPartition, PrimeContext, orbit_partition
from .records import FrozenRecord, Record, set_field


class DecompositionLevel(Enum):
    COARSE = "coarse"
    FINE = "fine"


class IsogenyFactor(FrozenRecord):
    __slots__ = _fields = ("curve", "multiplicity", "dimension")

    def __init__(self, curve: CurveSpec, multiplicity: int, dimension: int):
        set_field(self, "curve", curve)
        set_field(self, "multiplicity", multiplicity)
        set_field(self, "dimension", dimension)

    def symbol(self) -> str:
        tag = "JE" if self.curve.family is CurveFamily.E_QUOTIENT else "JC"
        return f"{tag}({self.curve.alpha})"

    def render(self) -> str:
        return f"{self.symbol()}^{self.multiplicity}"


class PairVerdict(Record):
    __slots__ = _fields = ("pair", "ok", "detail")

    def __init__(self, pair: tuple[int, int], ok: bool, detail: str = ""):
        self.pair = pair
        self.ok = ok
        self.detail = detail


def _sum_failure(check: tuple[int, int, bool]) -> str | None:
    total, expected, ok = check
    return None if ok else f"genus sum {total} != {expected}"


class KaniRosenAudit(Record):
    """Evidence for the three decomposition-criterion hypotheses.

    Each pair of the family is checked, but only failing pairs are kept:
    ``commuting_checks`` and ``genus_zero_checks`` list the failures and
    ``pairs_checked`` counts every pair.
    """

    __slots__ = _fields = ("subgroup_count", "pairs_checked", "commuting_checks", "genus_zero_checks",
                           "genus_sum_check")

    def __init__(self, subgroup_count: int, pairs_checked: int, commuting_checks: list[PairVerdict],
                 genus_zero_checks: list[PairVerdict], genus_sum_check: tuple[int, int, bool]):
        self.subgroup_count = subgroup_count
        self.pairs_checked = pairs_checked
        self.commuting_checks = commuting_checks
        self.genus_zero_checks = genus_zero_checks
        self.genus_sum_check = genus_sum_check  # (computed sum, expected genus, ok)

    @property
    def failure(self) -> str | None:
        """The first failed hypothesis with both of its values, or None."""
        if self.commuting_checks:
            return self.commuting_checks[0].detail
        if self.genus_zero_checks:  # every pair joins to the plane H
            return f"the plane H has quotient {self.genus_zero_checks[0].detail}, not genus=0"
        return _sum_failure(self.genus_sum_check)

    @property
    def all_pass(self) -> bool:
        return self.failure is None

    def summary(self) -> dict:
        def pairs(failures: list[PairVerdict]) -> dict:
            return {
                "pairs_checked": self.pairs_checked,
                "pairs_passed": self.pairs_checked - len(failures),
                "failures": [list(v.pair) for v in failures],
            }

        return {
            "subgroup_count": self.subgroup_count,
            "commuting": {**pairs(self.commuting_checks), "method": "abelian"},
            "genus_zero": pairs(self.genus_zero_checks),
            "genus_sum": {
                "computed": self.genus_sum_check[0],
                "expected": self.genus_sum_check[1],
                "ok": self.genus_sum_check[2],
            },
            "all_pass": self.all_pass,
        }


def kani_rosen_check(ctx: PrimeContext) -> KaniRosenAudit:
    """Evaluate the three decomposition hypotheses for H_1, ..., H_(p-2).

    Every subgroup of H = Z_p^2 is a line or the whole plane of F_p^2, and
    H_j is the line through (1, 1+j).  The non-identity points of a line
    are the unit multiples of its direction, which the axis table counts
    alike, so a line's fix sum is (p-1) times the count of its direction
    and the plane's is the sum over its p+1 lines.  H_i and H_j have
    determinant j - i, a unit for i != j, so every pair joins to the plane
    and has the plane's quotient genus: the pairs pass or fail together.
    The set products H_i H_j and H_j H_i agree for every pair once a1 and
    a2, which generate H, commute.  Time and memory are O(p) when the
    hypotheses hold; failing pairs are listed one by one.
    """
    p = ctx.p
    g_top = fermat_genus(p)
    fix = fermat_axis_fix_table(ctx)

    def line_fix_sum(a: int, b: int) -> int:
        return (p - 1) * fix.at(fermat_translation(p, a, b))

    plane_fix = line_fix_sum(0, 1) + sum(line_fix_sum(1, t) for t in range(p))
    plane_genus = riemann_hurwitz(g_top, p * p, plane_fix)
    line_genera = [riemann_hurwitz(g_top, p, line_fix_sum(1, 1 + j)) for j in range(1, p - 1)]

    n = len(line_genera)
    group = Group(p)
    a1, a2 = group.generators[:2]
    commuting = []
    a1a2, a2a1 = group.mul(a1, a2), group.mul(a2, a1)
    if a1a2 != a2a1:
        detail = f"a1 a2 = {group.coordinates(a1a2)} != a2 a1 = {group.coordinates(a2a1)}"
        commuting = [PairVerdict(pair, False, detail) for pair in combinations(range(1, n + 1), 2)]
    genus_zero = []
    if plane_genus:
        genus_zero = [
            PairVerdict(pair, False, f"genus={plane_genus}") for pair in combinations(range(1, n + 1), 2)
        ]
    total = sum(line_genera)
    return KaniRosenAudit(
        subgroup_count=n,
        pairs_checked=n * (n - 1) // 2,
        commuting_checks=commuting,
        genus_zero_checks=genus_zero,
        genus_sum_check=(total, g_top, total == g_top),
    )


class GammaRefinementAudit(Record):
    """Evidence for replacing the gamma-curve factor by E^6.

    ``set_products_commute`` records the honest set-level comparison of
    the K_i K_j products, which fails; the refinement is gated on the
    quotient-genus identities, which hold.
    """

    __slots__ = _fields = ("quotient_genus_checks", "pair_genus_zero_checks", "genus_sum_check",
                           "set_products_commute")

    def __init__(self, quotient_genus_checks: list[tuple[int, int, int, bool]],
                 pair_genus_zero_checks: list[PairVerdict], genus_sum_check: tuple[int, int, bool],
                 set_products_commute: list[PairVerdict] | None = None):
        self.quotient_genus_checks = quotient_genus_checks  # (i, genus, expected, ok)
        self.pair_genus_zero_checks = pair_genus_zero_checks
        self.genus_sum_check = genus_sum_check
        self.set_products_commute = [] if set_products_commute is None else set_products_commute

    @property
    def failure(self) -> str | None:
        """The first failed genus identity with both of its values, or None."""
        for i, g, expected, ok in self.quotient_genus_checks:
            if not ok:
                return f"K{i} has quotient genus {g}, not {expected}"
        for v in self.pair_genus_zero_checks:
            if not v.ok:
                return f"K{v.pair[0]} K{v.pair[1]} has quotient {v.detail}, not genus=0"
        return _sum_failure(self.genus_sum_check)

    @property
    def all_pass(self) -> bool:
        """Gate for emission: the genus identities only (see module docs)."""
        return self.failure is None

    def summary(self) -> dict:
        return {
            "quotient_genus": [
                {"subgroup": f"K{i}", "genus": g, "expected": e, "ok": ok}
                for (i, g, e, ok) in self.quotient_genus_checks
            ],
            "pairwise_joined_genus_zero": [
                {"pair": list(v.pair), "ok": v.ok, "detail": v.detail}
                for v in self.pair_genus_zero_checks
            ],
            "genus_sum": {
                "computed": self.genus_sum_check[0],
                "expected": self.genus_sum_check[1],
                "ok": self.genus_sum_check[2],
            },
            "set_products_commute": all(v.ok for v in self.set_products_commute),
            "note": (
                "pairwise set products K_i*K_j differ from K_j*K_i; each pair "
                "generates the full group, and the refinement is certified by "
                "the quotient-genus identities"
            ),
            "all_pass": self.all_pass,
        }


def gamma_refinement_audit(ctx: PrimeContext) -> GammaRefinementAudit:
    """Check the hypotheses behind the gamma-factor refinement.

    The joins and set products of the K_i follow from Lagrange (see the
    module docs): a pair of distinct K_i joins to the whole group, whose
    quotient genus is computed once, and its set products differ.  Equal
    K_i = K_j join to K_i, of genus (p-1)/6, and fail the gate.
    """
    p, gamma = ctx.p, ctx.gamma
    ks = [pgonal_K(i, ctx, gamma) for i in (1, 2, 3)]
    fix = pgonal_fix_table(ctx, gamma)
    g_top, expected = (p - 1) // 2, (p - 1) // 6
    genera = [rh_genus(g_top, k, fix) for k in ks]
    whole_genus = rh_genus(g_top, pgonal_group(ctx, gamma), fix)
    pair_checks, commute_checks = [], []
    for i, j in combinations(range(3), 2):
        distinct = ks[i] != ks[j]
        g = whole_genus if distinct else genera[i]
        pair_checks.append(PairVerdict((i + 1, j + 1), g == 0, f"genus={g}"))
        commute_checks.append(PairVerdict((i + 1, j + 1), not distinct))
    total = sum(genera)
    return GammaRefinementAudit(
        quotient_genus_checks=[(i, g, expected, g == expected) for i, g in enumerate(genera, start=1)],
        pair_genus_zero_checks=pair_checks,
        genus_sum_check=(total, g_top, total == g_top),
        set_products_commute=commute_checks,
    )


class IsogenyDecomposition(Record):
    __slots__ = _fields = ("context", "level", "factors", "audit", "gamma_refinement")

    def __init__(self, context: PrimeContext, level: DecompositionLevel, factors: tuple[IsogenyFactor, ...],
                 audit: KaniRosenAudit, gamma_refinement: GammaRefinementAudit | None = None):
        self.context = context
        self.level = level
        self.factors = factors
        self.audit = audit
        self.gamma_refinement = gamma_refinement

    @property
    def total_dimension(self) -> int:
        return sum(f.multiplicity * f.dimension for f in self.factors)

    def render(self) -> str:
        body = " x ".join(f.render() for f in self.factors)
        return f"JF({self.context.p}) ~ {body}"


_KIND_ORDER = {OrbitKind.SPECIAL_ONE: 0, OrbitKind.GAMMA: 1, OrbitKind.GENERIC: 2}


def _coarse_factors(ctx: PrimeContext, partition: OrbitPartition) -> tuple[IsogenyFactor, ...]:
    ordered = sorted(partition.orbits, key=lambda o: (_KIND_ORDER[o.kind], o.representative))
    factors = []
    for o in ordered:
        curve = CurveSpec(context=ctx, family=CurveFamily.P_GONAL, alpha=o.representative)
        factors.append(IsogenyFactor(curve=curve, multiplicity=o.size, dimension=genus_of(curve)))
    return tuple(factors)


def _fermat_family_audit(ctx: PrimeContext, partition: OrbitPartition) -> KaniRosenAudit:
    audit = kani_rosen_check(ctx)
    # Factor multiplicities come from grouping the p-2 deck quotients by
    # isomorphism class, the orbit of the quotient's exponent: each orbit
    # must receive exactly orbit-size many.
    counts = Counter(
        partition.orbit_of(quotient_to_curve(j, ctx).alpha).representative for j in range(1, ctx.p - 1)
    )
    expected = {o.representative: o.size for o in partition.orbits}
    if counts != expected:
        raise AuditFailError(
            f"deck quotients per isomorphism class {dict(counts)} != orbit sizes {expected}"
        )
    return audit


def _require_total_dimension(d: IsogenyDecomposition) -> IsogenyDecomposition:
    g = fermat_genus(d.context.p)
    if d.total_dimension != g:
        raise AuditFailError(
            f"{d.level.value} decomposition has total dimension {d.total_dimension} != genus {g}"
        )
    return d


def decompose_coarse(ctx: PrimeContext, partition: OrbitPartition | None = None) -> IsogenyDecomposition:
    """One Jacobian factor per exponent orbit, multiplicity = orbit size,
    from ctx's orbit partition (built here when not given).

    Emitted only with a fully passing audit; an audit failure would mean
    the verified hypotheses are wrong and is raised, never reported as a
    decomposition.
    """
    if partition is None:
        partition = orbit_partition(ctx)
    audit = _fermat_family_audit(ctx, partition)
    if audit.failure is not None:
        raise AuditFailError(f"decomposition hypotheses failed for p = {ctx.p}: {audit.failure}")
    return _require_total_dimension(
        IsogenyDecomposition(
            context=ctx,
            level=DecompositionLevel.COARSE,
            factors=_coarse_factors(ctx, partition),
            audit=audit,
        )
    )


def decompose_fine(coarse: IsogenyDecomposition) -> IsogenyDecomposition:
    """The coarse decomposition with the gamma factor replaced by E^6,
    reusing the coarse audit."""
    ctx = coarse.context
    if coarse.level is not DecompositionLevel.COARSE:
        raise OutOfRangeError(f"decompose_fine needs a coarse decomposition, got the {coarse.level.value} one")
    if not ctx.has_gamma:
        return IsogenyDecomposition(
            context=ctx,
            level=DecompositionLevel.FINE,
            factors=coarse.factors,
            audit=coarse.audit,
        )
    refinement = gamma_refinement_audit(ctx)
    if refinement.failure is not None:
        raise AuditFailError(f"gamma refinement hypotheses failed for p = {ctx.p}: {refinement.failure}")
    factors = []
    for f in coarse.factors:
        if f.multiplicity == 2:
            curve = CurveSpec(context=ctx, family=CurveFamily.E_QUOTIENT, alpha=f.curve.alpha)
            factors.append(
                IsogenyFactor(curve=curve, multiplicity=6, dimension=genus_of(curve))
            )
        else:
            factors.append(f)
    return _require_total_dimension(
        IsogenyDecomposition(
            context=ctx,
            level=DecompositionLevel.FINE,
            factors=tuple(factors),
            audit=coarse.audit,
            gamma_refinement=refinement,
        )
    )


def dimension_audit(d: IsogenyDecomposition) -> tuple[dict, dict | None]:
    """Exact dimension bookkeeping against the genus of the Fermat curve,
    and at the fine level the representation-indexed factor shape.

    One pass puts each factor in its slot by (multiplicity, dimension):
    B0, of exponent 3 and dimension (p-1)/2; the gamma factor, present
    exactly when the gamma root exists (JC(gamma)^2 of dimension (p-1)/2
    when coarse, JE(gamma)^6 of dimension (p-1)/6 when fine); and N
    generic factors B_j of exponent 6 and dimension (p-1)/2.  Raises
    naming the first violated identity; returns the dimension block and
    the shape block (None when coarse).

    A full slot template fixes the total: with N = (p-7)/6 when the
    gamma root exists and (p-5)/6 otherwise, 3 (p-1)/2 + [2 (p-1)/2 or
    6 (p-1)/6] + 6 N (p-1)/2 = (p-1)(p-2)/2, the genus, at both levels
    and both residues.  So a wrong total is refused naming its slot.
    """
    ctx, p = d.context, d.context.p
    half = (p - 1) // 2
    fine = d.level is DecompositionLevel.FINE
    gamma_slot = (6, (p - 1) // 6) if fine else (2, half)
    slots: dict[tuple[int, int], list[IsogenyFactor]] = {(3, half): [], gamma_slot: [], (6, half): []}
    for f in d.factors:
        if (f.multiplicity, f.dimension) not in slots:
            raise AuditFailError(f"{f.render()} of dimension {f.dimension} has no slot in the factor shape")
        slots[f.multiplicity, f.dimension].append(f)
    b0, gamma_factors, generic = slots.values()
    if len(b0) != 1:
        raise AuditFailError("expected exactly one multiplicity-3 factor of dimension (p-1)/2")
    if len(gamma_factors) != ctx.has_gamma:
        raise AuditFailError(
            f"expected {int(ctx.has_gamma)} gamma factor(s) of multiplicity {gamma_slot[0]} and dimension"
            f" {gamma_slot[1]}, found {len(gamma_factors)}"
        )
    n_expected = (p - 7) // 6 if ctx.has_gamma else (p - 5) // 6
    if len(generic) != n_expected:
        raise AuditFailError(f"expected {n_expected} multiplicity-6 generic factors, found {len(generic)}")
    dimensions = {
        "total_dimension": d.total_dimension,
        "fermat_genus": fermat_genus(p),
        "generic_factor_count": len(generic),
        "ok": True,
    }
    if not fine:
        return dimensions, None
    b = gamma_factors[0] if gamma_factors else None
    return dimensions, {
        "B0": b0[0].symbol(),
        "B": b.symbol() if b else None,
        "B_j": [f.symbol() for f in generic],
        "N": n_expected,
        "dimensions": {"B0": half, "B": b.dimension if b else None, "B_j": half},
    }
