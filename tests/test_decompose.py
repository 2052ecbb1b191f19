import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fermatjac
from fermatjac import cli
from fermatjac import decompose as decompose_module
from fermatjac.curves import CurveFamily, are_isomorphic
from fermatjac.decompose import (
    DecompositionLevel,
    IsogenyDecomposition,
    decompose_coarse,
    decompose_fine,
    dimension_audit,
    gamma_refinement_audit,
    kani_rosen_check,
)
from fermatjac.errors import AuditFailError, OutOfRangeError
from fermatjac.genus import fermat_genus
from fermatjac.groups import Group
from fermatjac.orbits import PrimeContext, make_context

from helpers import (
    assert_audit_matches_oracle,
    object_gamma_pairs,
    object_K_family,
    primes_upto,
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
    assert audit.pairs_checked == (p - 2) * (p - 3) // 2
    assert audit.commuting_checks == [] and audit.genus_zero_checks == []
    assert audit.genus_sum_check == (fermat_genus(p), fermat_genus(p), True)
    assert_audit_matches_oracle(audit, p)


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
    assert {v.detail for v in audit.genus_zero_checks} == {"genus=1"}
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
    for (_, g, expected, ok) in audit.quotient_genus_checks:
        assert ok and g == expected == (p - 1) // 6
    for v in audit.pair_genus_zero_checks:
        assert v.ok
    assert audit.genus_sum_check == ((p - 1) // 2, (p - 1) // 2, True)
    # the honest set-level record: the products do not commute as sets
    assert audit.set_products_commute and all(not v.ok for v in audit.set_products_commute)


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
        assert [(v.pair, v.detail) for v in audit.pair_genus_zero_checks] == [
            (pair, f"genus={genus}") for pair, _, genus, _, _ in oracle
        ]
        assert [(v.pair, v.ok) for v in audit.set_products_commute] == [
            (pair, commutes) for pair, _, _, _, commutes in oracle
        ]
        assert {(order, size) for _, order, _, size, _ in oracle} == {(3 * p, 9)}


def test_equal_K_subgroups_fail_the_gamma_gate(monkeypatch):
    # K_1 for every i: the quotient genera and their sum still pass, but
    # each pair joins to K_1 itself, of genus (p-1)/6, and commutes
    p = 13
    real = decompose_module.pgonal_K
    monkeypatch.setattr(decompose_module, "pgonal_K", lambda i, ctx, gamma=None: real(1, ctx, gamma))
    ctx = make_context(p)
    audit = gamma_refinement_audit(ctx)
    assert all(ok for (_, _, _, ok) in audit.quotient_genus_checks) and audit.genus_sum_check[2]
    k1 = object_K_family(p, ctx.gamma)[0]
    oracle = object_gamma_pairs(p, ctx.gamma, family=[k1] * 3)
    assert [(v.pair, v.ok, v.detail) for v in audit.pair_genus_zero_checks] == [
        (pair, False, f"genus={genus}") for pair, _, genus, _, _ in oracle
    ]
    assert {v.detail for v in audit.pair_genus_zero_checks} == {f"genus={(p - 1) // 6}"}
    assert all(v.ok for v in audit.set_products_commute)
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
        "from fermatjac import cli, curves, decompose\n"
        "if not sys.flags.optimize:\n"
        "    sys.exit(99)\n"
        "decompose.quotient_to_curve = lambda j, ctx: curves.CurveSpec(\n"
        "    context=ctx, family=curves.CurveFamily.P_GONAL, alpha=1)\n"
        "sys.exit(cli.main(['decompose', '--p', '7']))\n"
    )
    src = str(Path(fermatjac.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert run.returncode == 3, run.stdout + run.stderr
    assert "audit failure" in run.stderr and "JF(7)" not in run.stdout


def test_decompose_fine_refuses_a_foreign_coarse_decomposition():
    fine13 = decompose_fine(decompose_coarse(make_context(13)))
    with pytest.raises(OutOfRangeError, match="needs a coarse decomposition, got the fine one"):
        decompose_fine(fine13)
