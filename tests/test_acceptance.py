"""Acceptance criteria, one test per criterion.

Each test enforces its criterion at the stated tolerance (exact integers
and exact strings throughout) and prints one pass line; a pytest failure
is the fail line.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import time

from fermatjac.certificates import (
    ClassData,
    chi_rat,
    chi_trivial,
    induced_perm_character,
    inner_product,
)
from fermatjac.cli import main
from fermatjac.decompose import (
    decompose_coarse,
    decompose_fine,
    dimension_audit,
    gamma_refinement_audit,
    kani_rosen_check,
)
from fermatjac.genus import (
    coset_genus,
    fermat_full_fix_table,
    fermat_genus,
    find_generating_triple,
    rh_genus,
)
from fermatjac.groups import (
    Group,
    all_cyclic_subgroups,
    fermat_H,
    fermat_Hj,
)
from fermatjac.monomial import (
    build_J,
    build_R,
    build_T,
    compose,
    epsilon_parity_report,
    identity_map,
    map_power,
    verify_curve_automorphism,
    verify_relation,
)
from fermatjac.orbits import OrbitKind, make_context, orbit_partition

from helpers import (
    assert_audit_matches_oracle,
    elements,
    fermat_a1,
    fermat_quotient_genus,
    index_of,
    joined,
    sweep_primes,
    trivial_subgroup,
)


def _announce(n, elapsed, detail):
    print(f"[criterion {n}] PASS ({elapsed:.2f}s): {detail}")


def test_criterion_1_published_example_p7(capsys):
    start = time.perf_counter()
    code = main(["decompose", "--p", "7"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    coarse = next(l for l in lines if l.startswith("coarse: "))
    fine = next(l for l in lines if l.startswith("fine: "))
    assert coarse[len("coarse: "):] == "JF(7) ~ JC(1)^3 x JC(2)^2"
    assert fine[len("fine: "):] == "JF(7) ~ JC(1)^3 x JE(2)^6"
    part = orbit_partition(make_context(7))
    assert [o.elements for o in part.orbits] == [(1, 3, 5), (2, 4)]
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    with capsys.disabled():
        _announce(1, elapsed, "p=7 coarse and fine products exact, orbits {1,3,5} {2,4}")


def test_criterion_2_published_example_p11(capsys):
    start = time.perf_counter()
    code = main(["decompose", "--p", "11"])
    out = capsys.readouterr().out
    assert code == 0
    coarse = next(l for l in out.splitlines() if l.startswith("coarse: "))
    assert coarse[len("coarse: "):] == "JF(11) ~ JC(1)^3 x JC(2)^6"
    part = orbit_partition(make_context(11))
    assert [o.elements for o in part.orbits] == [(1, 5, 9), (2, 3, 4, 6, 7, 8)]
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    with capsys.disabled():
        _announce(2, elapsed, "p=11 coarse product exact, orbits {1,5,9} {2,...,8}")


def test_criterion_3_orbit_count_law_sweep(capsys):
    start = time.perf_counter()
    primes = sweep_primes(199)
    for p in primes:
        ctx = make_context(p)
        part = orbit_partition(ctx)
        by_kind = {}
        for o in part.orbits:
            by_kind.setdefault(o.kind, []).append(o)
        assert len(by_kind.get(OrbitKind.SPECIAL_ONE, [])) == 1
        assert all(o.size == 3 for o in by_kind[OrbitKind.SPECIAL_ONE])
        gamma_orbits = by_kind.get(OrbitKind.GAMMA, [])
        assert len(gamma_orbits) == (1 if p % 3 == 1 else 0)
        assert all(o.size == 2 for o in gamma_orbits)
        generic = by_kind.get(OrbitKind.GENERIC, [])
        expected = (p - 7) // 6 if p % 3 == 1 else (p - 5) // 6
        assert len(generic) == expected
        assert all(o.size == 6 for o in generic)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    with capsys.disabled():
        _announce(3, elapsed, f"orbit census law holds for all {len(primes)} primes <= 199")


def test_criterion_4_dimension_audit_sweep(capsys):
    start = time.perf_counter()
    primes = sweep_primes(199)
    for p in primes:
        ctx = make_context(p)
        fine = decompose_fine(decompose_coarse(ctx))
        g = fermat_genus(p)
        assert fine.total_dimension == g
        info, shape = dimension_audit(fine)
        assert info["ok"] and info["total_dimension"] == g
        half = (p - 1) // 2
        exp3 = [f for f in fine.factors if f.multiplicity == 3]
        assert len(exp3) == 1 and exp3[0].dimension == half
        small = [f for f in fine.factors if f.dimension != half]
        if p % 3 == 1:
            assert len(small) == 1
            assert small[0].multiplicity == 6 and small[0].dimension == (p - 1) // 6
            assert shape["B"] is not None
        else:
            assert not small and shape["B"] is None
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        _announce(4, elapsed, f"fine factors sum to (p-1)(p-2)/2 with the expected shape, {len(primes)} primes")


def test_criterion_5_kani_rosen_audit(capsys):
    start = time.perf_counter()
    for p in (5, 7, 11, 13, 19, 31):
        audit = kani_rosen_check(make_context(p))
        assert audit.all_pass
        assert audit.genus_sum_check == (fermat_genus(p), fermat_genus(p), True)
        assert_audit_matches_oracle(audit, p)
    for p in (7, 13, 19, 31):
        ctx = make_context(p)
        audit = gamma_refinement_audit(ctx)
        assert audit.quotient_genera == ((p - 1) // 6,) * 3 and audit.pair_genera == (0, 0, 0)
        assert audit.all_pass
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    with capsys.disabled():
        _announce(5, elapsed, "deck-family hypotheses and K-family genus identities exact")


def test_criterion_6_dual_oracle_genus(capsys):
    start = time.perf_counter()
    checked = 0
    for p in (5, 7, 13):
        ctx = make_context(p)
        triple = find_generating_triple(ctx)
        data = ClassData(Group(ctx.p))
        assert coset_genus(trivial_subgroup(Group(p)), triple, data) == fermat_genus(p)
        fix = fermat_full_fix_table(triple, data)
        g_top = fermat_genus(p)
        subgroups = all_cyclic_subgroups(Group(ctx.p))
        subgroups.append(fermat_H(p))
        hj = [fermat_Hj(p, j) for j in range(1, p - 1)]
        subgroups.extend(hj)
        seen = set()
        for i in range(len(hj)):
            for j in range(i + 1, len(hj)):
                join = joined(hj[i], hj[j])
                if tuple(elements(join)) not in seen:
                    seen.add(tuple(elements(join)))
                    subgroups.append(join)
        for k in subgroups:
            assert rh_genus(g_top, k, fix) == coset_genus(k, triple, data)
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    with capsys.disabled():
        _announce(6, elapsed, f"Riemann-Hurwitz and coset-orbifold genus agree on {checked} subgroups")


def test_criterion_7_monomial_relation_suite(capsys):
    start = time.perf_counter()
    for p in (7, 13, 19, 31):
        ctx = make_context(p)
        g = ctx.gamma
        assert verify_relation([("R", 3)], [], ctx)
        assert verify_relation([("R", 1), ("T", 1)], [("T", g * g), ("R", 1)], ctx)
        for l in range(p):
            assert verify_relation(
                [("T", -l), ("R", 1), ("T", l)],
                [("T", l * (g * g - 1)), ("R", 1)],
                ctx,
            )
        report = epsilon_parity_report(ctx)
        assert report["rule_matches"]
        assert verify_curve_automorphism(build_R(ctx, epsilon=report["passing_epsilon"]))
        assert not verify_curve_automorphism(
            build_R(ctx, epsilon=3 - report["passing_epsilon"])
        )
        jmap = build_J(ctx)
        assert verify_curve_automorphism(jmap)
        assert compose(jmap, jmap) == identity_map(p, 1)
        assert map_power(build_T(ctx), p) == identity_map(p, g)
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        _announce(7, elapsed, "R^3, R T = T^(g^2) R, the conjugation relation at every l, epsilon rule, J, T^p for p in {7,13,19,31}")


def test_criterion_8_certificate_suite(capsys):
    start = time.perf_counter()
    for p in (5, 7, 13):
        ctx = make_context(p)
        triple = find_generating_triple(ctx)
        data = ClassData(Group(ctx.p))
        rat = chi_rat(fermat_full_fix_table(triple, data), data)
        triv = chi_trivial(data)
        assert inner_product(triv, rat) == 0
        assert rat(index_of(fermat_a1(p))) == 2 - p
        for j in range(1, p - 1):
            k = fermat_Hj(p, j)
            value = inner_product(induced_perm_character(k, data), rat)
            assert value == p - 1
            assert value == 2 * fermat_quotient_genus(k)
            assert value.denominator == 1
        self_norm = inner_product(rat, rat)
        assert self_norm.denominator == 1 and self_norm > 0
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        _announce(8, elapsed, "homology-character pairings exact and integral for p in {5,7,13}")
