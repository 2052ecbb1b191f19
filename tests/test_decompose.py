import os
import subprocess
import sys
from pathlib import Path

import pytest

import fermatjac
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
