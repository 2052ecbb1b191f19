import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fermatjac
from fermatjac import cli
from fermatjac import decompose as decompose_module
from fermatjac.curves import CurveFamily, CurveSpec, quotient_to_curve
from fermatjac.decompose import (
    DecompositionLevel,
    IsogenyDecomposition,
    IsogenyFactor,
    decompose_coarse,
    decompose_fine,
    dimension_audit,
    gamma_refinement_audit,
    kani_rosen_check,
)
from fermatjac.errors import AuditFailError, OutOfRangeError
from fermatjac.genus import FixTable, fermat_axis_fix_table, fermat_genus
from fermatjac.groups import Group, fermat_Hj, pgonal_K
from fermatjac.orbits import PrimeContext, make_context, orbit_partition

from helpers import (
    are_isomorphic,
    assert_audit_matches_oracle,
    elements,
    object_gamma_pairs,
    object_K_family,
    primes_upto,
    rh_genus_by_element,
    run_under_O,
    sweep_primes,
)


def test_coarse_p7():
    d = decompose_coarse(make_context(7))
    assert d.render() == "JF(7) ~ JC(1)^3 x JC(2)^2"
    assert [(f.curve.alpha, f.multiplicity, f.dimension) for f in d.factors] == [
        (1, 3, 3),
        (2, 2, 3),
    ]
    assert d.audit.all_pass


def test_coarse_p11():
    d = decompose_coarse(make_context(11))
    assert d.render() == "JF(11) ~ JC(1)^3 x JC(2)^6"
    assert d.total_dimension == 45 == fermat_genus(11)


def test_coarse_p13():
    # orbits {1,6,11}, {3,9}, {2,4,5,7,8,10}: audit 3*6 + 2*6 + 6*6 = 66
    d = decompose_coarse(make_context(13))
    assert d.render() == "JF(13) ~ JC(1)^3 x JC(3)^2 x JC(2)^6"
    assert d.total_dimension == 66 == fermat_genus(13)


def test_fine_p7():
    d = decompose_fine(decompose_coarse(make_context(7)))
    assert d.render() == "JF(7) ~ JC(1)^3 x JE(2)^6"
    e = d.factors[1]
    assert e.curve.family is CurveFamily.E_QUOTIENT
    assert (e.multiplicity, e.dimension) == (6, 1)
    assert d.gamma_refinement is not None and d.gamma_refinement.all_pass


def test_fine_p11_identical_to_coarse():
    ctx = make_context(11)
    coarse = decompose_coarse(ctx)
    fine = decompose_fine(coarse)
    assert fine.factors == coarse.factors
    assert fine.level is DecompositionLevel.FINE
    assert fine.gamma_refinement is None
    assert fine.render() == "JF(11) ~ JC(1)^3 x JC(2)^6"


def test_fine_p13():
    d = decompose_fine(decompose_coarse(make_context(13)))
    assert d.render() == "JF(13) ~ JC(1)^3 x JE(3)^6 x JC(2)^6"
    assert sum(f.multiplicity * f.dimension for f in d.factors) == 18 + 12 + 36 == 66


def test_determinism():
    ctx = make_context(13)
    d1, d2 = decompose_fine(decompose_coarse(ctx)), decompose_fine(decompose_coarse(ctx))
    assert d1.render() == d2.render()
    assert d1.factors == d2.factors
    assert d1.audit.summary() == d2.audit.summary()


@pytest.mark.parametrize("p", [p for p in primes_upto(31) if p >= 5])
def test_kani_rosen_check_deck_family(p):
    audit = kani_rosen_check(make_context(p))
    assert audit.all_pass
    assert audit.summary()["genus_zero"]["pairs_checked"] == (p - 2) * (p - 3) // 2
    assert audit.commuting_failure is None and audit.commuting_checks == [] and audit.plane_genus == 0
    assert audit.genus_sum_check == (fermat_genus(p), fermat_genus(p), True)
    assert_audit_matches_oracle(audit, p)


@pytest.mark.parametrize("p", [p for p in primes_upto(61) if p >= 5])
def test_deck_genus_sum_is_the_per_line_sum(p):
    # the deck lines' genera tallied by line count, against each H_j read
    # element by element
    ctx = make_context(p)
    axis, g_top = fermat_axis_fix_table(ctx), fermat_genus(p)
    per_line = sum(rh_genus_by_element(g_top, fermat_Hj(p, j), axis) for j in range(1, p - 1))
    assert kani_rosen_check(ctx).genus_sum_check[0] == per_line == g_top


def test_deck_genus_sum_calls_riemann_hurwitz_once_per_distinct_count(monkeypatch):
    # deck line counts 1, 2, 0, 1, 2, ... weigh each count's genus by how
    # many lines carry it; the plane makes the one call more
    p = 13
    counts = [p, p, p] + [j % 3 for j in range(1, p - 1)]
    calls = []
    # a table with those counts at the line points, 6 and 6 (p + t) for line 1 + t
    at_points = {6: counts[0], **{6 * (p + t): counts[1 + t] for t in range(p)}}
    table = FixTable(Group(p), at_points.__getitem__, "deck line counts 1, 2, 0, ...")
    monkeypatch.setattr(decompose_module, "fermat_axis_fix_table", lambda ctx: table)
    monkeypatch.setattr(
        decompose_module, "riemann_hurwitz", lambda g, order, fix_sum: calls.append((order, fix_sum)) or fix_sum
    )
    audit = kani_rosen_check(make_context(p))
    assert audit.genus_sum_check[0] == (p - 1) * sum(counts[3:])
    assert sorted(calls) == [(p, 0), (p, p - 1), (p, 2 * (p - 1)), (p * p, (p - 1) * sum(counts))]


def test_factor_symbols_fill_the_family_formats():
    ctx = make_context(13)
    curves = [CurveSpec(ctx, CurveFamily.FERMAT), CurveSpec(ctx, CurveFamily.P_GONAL, 2), CurveSpec(ctx, CurveFamily.E_QUOTIENT, 3)]
    assert [IsogenyFactor(c, 1, 1).symbol() for c in curves] == ["JF(13)", "JC(2)", "JE(3)"]
    assert [c.describe() for c in curves] == ["F(13)", "C_alpha(p=13, alpha=2)", "E_gamma(p=13, gamma=3)"]
    assert [c.equation() for c in curves] == ["x^13 + y^13 + z^13 = 0", "y^13 = x^2*(x-1)", "C_gamma(p=13)/<R>"]


def test_kani_rosen_check_records_failing_pairs(monkeypatch):
    # a non-commuting "generator" and a plane of genus 1 make every pair fail
    p = 7
    real_rh = decompose_module.riemann_hurwitz
    _, a2, u, v = Group(p).generators
    monkeypatch.setattr(Group, "generators", property(lambda self: (u, a2, u, v)))
    monkeypatch.setattr(
        decompose_module,
        "riemann_hurwitz",
        lambda g, order, fix_sum: 1 if order == p * p else real_rh(g, order, fix_sum),
    )
    audit = kani_rosen_check(make_context(p))
    pairs = [[i, j] for i in range(1, 6) for j in range(i + 1, 6)]
    summary = audit.summary()
    assert summary["commuting"] == {
        "pairs_checked": 10, "pairs_passed": 0, "method": "abelian", "failures": pairs
    }
    assert summary["genus_zero"] == {"pairs_checked": 10, "pairs_passed": 0, "failures": pairs}
    assert audit.plane_genus == 1 and audit.commuting_checks == pairs
    assert not audit.all_pass


def test_audit_failures_name_the_hypothesis_and_both_values(capsys, monkeypatch):
    # a non-commuting "generator": verify exits 4 and decompose exits 3,
    # and both say which hypothesis failed
    p = 7
    _, a2, u, v = Group(p).generators
    monkeypatch.setattr(Group, "generators", property(lambda self: (u, a2, u, v)))
    why = "a1 a2 = (6, 6, 1) != a2 a1 = (0, 1, 1)"
    assert kani_rosen_check(make_context(p)).failure == why
    assert cli.main(["verify", "--p", "7", "--format", "json"]) == 4
    out, err = capsys.readouterr()
    failed = json.loads(out)["checks"][-1]
    assert (failed["name"], failed["code"]) == ("deck-quotient-audit", "AUDIT_FAIL")
    assert failed["detail"] == f"decomposition hypotheses failed for p = 7: {why}"
    assert cli.main(["decompose", "--p", "7"]) == 3
    out, err = capsys.readouterr()
    assert err == f"audit failure: decomposition hypotheses failed for p = 7: {why}\n"


def test_audit_failure_details(monkeypatch):
    # each failed genus identity is named with both of its values
    p = 7
    ctx = make_context(p)
    real_rh, real_rh_genus = decompose_module.riemann_hurwitz, decompose_module.rh_genus

    def shifted(plane, line):
        return lambda g, order, fix_sum: real_rh(g, order, fix_sum) + (plane if order == p * p else line)

    monkeypatch.setattr(decompose_module, "riemann_hurwitz", shifted(1, 0))
    assert kani_rosen_check(ctx).failure == "the plane H has quotient genus=1, not genus=0"
    monkeypatch.setattr(decompose_module, "riemann_hurwitz", shifted(0, 1))
    assert kani_rosen_check(ctx).failure == "genus sum 20 != 15"
    with pytest.raises(AuditFailError, match="^decomposition hypotheses failed for p = 7: genus sum 20 != 15$"):
        decompose_coarse(ctx)
    monkeypatch.setattr(decompose_module, "riemann_hurwitz", real_rh)
    coarse = decompose_coarse(ctx)
    # the order-3 K_i get genus 2, the whole group stays at 0
    monkeypatch.setattr(
        decompose_module, "rh_genus", lambda g, k, fix: real_rh_genus(g, k, fix) + (k.order == 3)
    )
    assert gamma_refinement_audit(ctx).failure == "K1 has quotient genus 2, not 1"
    with pytest.raises(AuditFailError, match="^gamma refinement hypotheses failed for p = 7: K1 has quotient"):
        decompose_fine(coarse)
    # the whole group gets genus 1: every pair of distinct K_i joins to it
    monkeypatch.setattr(
        decompose_module, "rh_genus", lambda g, k, fix: real_rh_genus(g, k, fix) + (k.order == 3 * p)
    )
    assert gamma_refinement_audit(ctx).failure == "K1 K2 has quotient genus=1, not genus=0"


@pytest.mark.parametrize("p", (7, 13, 19))
def test_gamma_refinement_audit(p):
    ctx = make_context(p)
    audit = gamma_refinement_audit(ctx)
    assert audit.all_pass
    assert audit.curve_genus == (p - 1) // 2
    assert audit.quotient_genera == ((p - 1) // 6,) * 3 and audit.pair_genera == (0, 0, 0)
    # the honest set-level record: the products do not commute as sets
    assert audit.distinct == (True, True, True)
    assert audit.summary()["set_products_commute"] is False


@pytest.mark.parametrize("p", [q for q in primes_upto(31) if q % 3 == 1])
def test_gamma_refinement_matches_object_joins(p):
    """The audit's pair genera and set-commutation verdicts, read off the
    subgroup lattice, against mulclose joins and set products of element
    objects, for either root (a context naming it as the conventional one)."""
    roots = make_context(p).gamma_pair
    for pair in (roots, roots[::-1]):
        ctx = PrimeContext(p, p % 3, pair)
        audit = gamma_refinement_audit(ctx)
        assert audit.all_pass
        oracle = object_gamma_pairs(p, ctx.gamma)
        assert [pair for pair, _, _, _, _ in oracle] == [(1, 2), (1, 3), (2, 3)]
        assert audit.pair_genera == tuple(genus for _, _, genus, _, _ in oracle)
        assert audit.distinct == tuple(not commutes for _, _, _, _, commutes in oracle)
        assert {(order, size) for _, order, _, size, _ in oracle} == {(3 * p, 9)}


@pytest.mark.parametrize("p", [q for q in primes_upto(61) if q % 3 == 1])
def test_gamma_refinement_tells_the_K_i_apart_as_their_elements_do(p):
    """The audit tells K_1, K_2, K_3 apart by their generators; each holds
    one T^k R, its generator, so that is the comparison of their element
    sets, for either root (a context naming it as the conventional one)."""
    roots = make_context(p).gamma_pair
    for pair in (roots, roots[::-1]):
        ctx = PrimeContext(p, p % 3, pair)
        ks = [elements(pgonal_K(i, ctx)) for i in (1, 2, 3)]
        assert [[i for i in k if i % 3 == 1] for k in ks] == [list(pgonal_K(i, ctx).generators) for i in (1, 2, 3)]
        assert gamma_refinement_audit(ctx).distinct == tuple(ks[i - 1] != ks[j - 1] for i, j in ((1, 2), (1, 3), (2, 3)))


def test_equal_K_subgroups_fail_the_gamma_gate(monkeypatch):
    # K_1 for every i: the quotient genera and their sum still pass, but
    # each pair joins to K_1 itself, of genus (p-1)/6, and commutes
    p = 13
    real = decompose_module.pgonal_K
    monkeypatch.setattr(decompose_module, "pgonal_K", lambda i, ctx, gamma=None: real(1, ctx, gamma))
    ctx = make_context(p)
    audit = gamma_refinement_audit(ctx)
    assert audit.quotient_genera == ((p - 1) // 6,) * 3 and sum(audit.quotient_genera) == audit.curve_genus
    k1 = object_K_family(p, ctx.gamma)[0]
    oracle = object_gamma_pairs(p, ctx.gamma, family=[k1] * 3)
    assert audit.pair_genera == tuple(genus for _, _, genus, _, _ in oracle) == ((p - 1) // 6,) * 3
    assert audit.distinct == (False, False, False)
    assert audit.failure == f"K1 K2 has quotient genus={(p - 1) // 6}, not genus=0"
    assert not audit.all_pass
    with pytest.raises(AuditFailError, match="gamma refinement hypotheses failed for p = 13"):
        decompose_fine(decompose_coarse(ctx))


def test_equal_K_subgroups_exit_3_under_python_O():
    run = run_under_O(
        "from fermatjac import cli, decompose\n"
        "real = decompose.pgonal_K\n"
        "decompose.pgonal_K = lambda i, ctx, gamma=None: real(1, ctx, gamma)\n"
        "sys.exit(cli.main(['decompose', '--p', '13']))\n"
    )
    assert run.returncode == 3, run.stdout + run.stderr
    assert "audit failure: gamma refinement hypotheses failed for p = 13" in run.stderr
    assert "Traceback" not in run.stderr and "JE(" not in run.stdout


def test_dimension_audit_examples():
    assert dimension_audit(decompose_fine(decompose_coarse(make_context(7))))[0]["total_dimension"] == 15
    assert dimension_audit(decompose_coarse(make_context(7)))[0]["total_dimension"] == 15
    assert dimension_audit(decompose_coarse(make_context(11)))[0]["total_dimension"] == 45


def test_match_group_algebra_shape_p7():
    d = decompose_fine(decompose_coarse(make_context(7)))
    _, shape = dimension_audit(d)
    assert shape["B0"] == "JC(1)" and shape["B"] == "JE(2)"
    assert shape["B_j"] == [] and shape["N"] == 0
    assert shape["dimensions"] == {"B0": 3, "B": 1, "B_j": 3}


def test_match_group_algebra_shape_no_gamma():
    _, shape = dimension_audit(decompose_fine(decompose_coarse(make_context(11))))
    assert shape["B"] is None
    assert shape["N"] == 1 and shape["B_j"] == ["JC(2)"]


def test_match_group_algebra_shape_rejects_coarse():
    # the coarse level has no shape block, and coarse factors do not fit
    # the fine shape: JC(2)^2 has no slot there
    coarse = decompose_coarse(make_context(7))
    assert dimension_audit(coarse)[1] is None
    with pytest.raises(AuditFailError, match=r"JC\(2\)\^2 of dimension 3 has no slot"):
        dimension_audit(
            IsogenyDecomposition(
                coarse.context, DecompositionLevel.FINE, coarse.factors, coarse.audit, coarse.gamma_refinement
            )
        )


def test_dimension_audit_counts_the_gamma_slot():
    # at p = 13, 18 + 4 * 12 = 66 = the genus: the total holds, the shape does not
    fine = decompose_fine(decompose_coarse(make_context(13)))
    b0, e, _ = fine.factors
    with pytest.raises(AuditFailError, match=r"expected 1 gamma factor\(s\) of multiplicity 6 and dimension 2, found 4"):
        dimension_audit(
            IsogenyDecomposition(fine.context, fine.level, (b0, e, e, e, e), fine.audit, fine.gamma_refinement)
        )


@pytest.mark.parametrize("p", (7, 11, 13))
@pytest.mark.parametrize("level", ("coarse", "fine"))
def test_dimension_audit_refuses_a_wrong_total_naming_its_slot(p, level):
    # the slot template fixes the total, so a hand-built decomposition
    # whose total is not the genus fails on a slot, not on the sum
    coarse = decompose_coarse(make_context(p))
    d = coarse if level == "coarse" else decompose_fine(coarse)
    b0, *rest = d.factors
    for factors in ((b0, b0, *rest), tuple(rest), d.factors[:-1]):
        wrong = IsogenyDecomposition(d.context, d.level, factors, d.audit, d.gamma_refinement)
        assert wrong.total_dimension != fermat_genus(p)
        with pytest.raises(AuditFailError, match=r"^expected (exactly one|\d+) (multiplicity-[36]|gamma) (generic )?factor"):
            dimension_audit(wrong)


def test_factors_pairwise_nonisomorphic():
    for p in (13, 19, 31):
        ctx = make_context(p)
        d = decompose_coarse(ctx)
        alphas = [f.curve.alpha for f in d.factors]
        for i in range(len(alphas)):
            for j in range(i + 1, len(alphas)):
                assert not are_isomorphic(alphas[i], alphas[j], ctx)


@pytest.mark.parametrize("p", sweep_primes(61))
def test_sweep_invariants_small(p):
    ctx = make_context(p)
    coarse = decompose_coarse(ctx)
    fine = decompose_fine(coarse)
    assert coarse.audit.all_pass and fine.audit.all_pass
    assert coarse.total_dimension == fine.total_dimension == fermat_genus(p)
    assert dimension_audit(fine)[1]["N"] == len(fine.factors) - 1 - ctx.has_gamma
    # multiplicities are orbit sizes; levels differ only on the gamma factor
    diffs = [
        (a, b) for a, b in zip(coarse.factors, fine.factors) if a != b
    ]
    if ctx.has_gamma:
        assert len(diffs) == 1
        a, b = diffs[0]
        assert a.multiplicity == 2 and b.multiplicity == 6
        assert b.curve.family is CurveFamily.E_QUOTIENT
    else:
        assert not diffs


def test_total_dimension_mismatch_raises(monkeypatch):
    ctx = make_context(13)
    coarse = decompose_coarse(ctx)
    with pytest.raises(AuditFailError, match="fine decomposition has total dimension 30"):
        decompose_fine(
            IsogenyDecomposition(
                coarse.context, coarse.level, coarse.factors[:-1], coarse.audit, coarse.gamma_refinement
            ),
        )
    monkeypatch.setattr(decompose_module, "_coarse_factors", lambda ctx, part: ())
    with pytest.raises(AuditFailError, match="coarse decomposition has total dimension 0"):
        decompose_coarse(ctx)


def test_census_mismatch_raises_under_python_O():
    # Under -O every assert is stripped; the census check must still refuse.
    script = (
        "import sys\n"
        "from fermatjac import cli, decompose\n"
        "if not sys.flags.optimize:\n"
        "    sys.exit(99)\n"
        "decompose.deck_exponent = lambda j, p: 1\n"
        "sys.exit(cli.main(['decompose', '--p', '7']))\n"
    )
    src = str(Path(fermatjac.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert run.returncode == 3, run.stdout + run.stderr
    assert "audit failure" in run.stderr and "JF(7)" not in run.stdout


@pytest.mark.parametrize(
    "rule",
    [lambda j, p: p - 1, lambda j, p: 0, lambda j, p: p + j, lambda j, p: -j],
    ids=["p-1", "0", "p+j", "-j"],
)
def test_census_refuses_an_exponent_outside_X(monkeypatch, rule):
    # the first deck quotient's exponent lies outside X_p = {1, ..., p-2}
    monkeypatch.setattr(decompose_module, "deck_exponent", rule)
    with pytest.raises(AuditFailError, match="deck quotient 1 has exponent .*, in no orbit on X_p"):
        decompose_coarse(make_context(13))


@pytest.mark.parametrize("p", sweep_primes(61))
def test_int_census_is_the_curve_census(p):
    # the oracle counts through CurveSpec objects and the partition's
    # checked lookup, as the census did before it ran over ints
    ctx = make_context(p)
    partition = orbit_partition(ctx)
    oracle = {}
    for j in range(1, p - 1):
        rep = partition.orbit_of(quotient_to_curve(j, ctx).alpha).representative
        oracle[rep] = oracle.get(rep, 0) + 1
    assert decompose_module._deck_census(ctx, partition) == oracle
    assert oracle == {o.representative: o.size for o in partition.orbits}


def test_decompose_fine_refuses_a_foreign_coarse_decomposition():
    fine13 = decompose_fine(decompose_coarse(make_context(13)))
    with pytest.raises(OutOfRangeError, match="needs a coarse decomposition, got the fine one"):
        decompose_fine(fine13)
