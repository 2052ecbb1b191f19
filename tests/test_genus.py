import json

import pytest

from fermatjac import cli
from fermatjac import genus as genus_module
from fermatjac.errors import (
    GroupMismatchError,
    IdentityInputError,
    InconsistentOrbifoldError,
    InconsistentRHError,
    NotSubgroupOfHError,
    OutOfRangeError,
    TooLargeError,
)
from fermatjac.genus import (
    FixTable,
    GeneratingTriple,
    coset_genus,
    fermat_axis_fix_table,
    fermat_full_fix_table,
    fermat_genus,
    fermat_quotient_genus,
    find_generating_triple,
    generation_gap,
    pgonal_fix_table,
    rh_genus,
    validate_triple,
)
from fermatjac.groups import (
    IDENTITY,
    ClassData,
    Group,
    all_cyclic_subgroups,
    conjugacy_classes,
    fermat_H,
    fermat_Hj,
    fermat_order,
    pgonal_K,
    pgonal_group,
    subgroup_closure,
    trivial_subgroup,
)
from fermatjac.orbits import make_context

from helpers import fermat_a1, fermat_elements, fermat_u, fermat_v, index_of, joined, labelled_fix_count


def test_rh_genus_free_deck_subgroup():
    for p in (5, 7, 13):
        ctx = make_context(p)
        fix = fermat_axis_fix_table(ctx)
        for j in (1, p - 2):
            assert rh_genus(fermat_genus(p), fermat_Hj(p, j), fix) == (p - 1) // 2
    assert rh_genus(fermat_genus(7), fermat_Hj(7, 1), fermat_axis_fix_table(make_context(7))) == 3


def test_rh_genus_trivial_subgroup():
    ctx = make_context(7)
    triv = trivial_subgroup(Group(7))
    assert rh_genus(fermat_genus(7), triv, fermat_axis_fix_table(ctx)) == fermat_genus(7)


def test_rh_genus_pgonal_full_group_p7():
    # g_top = 3, |K| = 21, sum fix = 6*3 + 14*2 = 46, so 2g-2 = (4-46)/21 = -2
    ctx = make_context(7)
    full = pgonal_group(ctx)
    assert full.order == 21
    fix = pgonal_fix_table(ctx)
    total = sum(fix.at(i) for i in full if i != IDENTITY)
    assert total == 46
    assert rh_genus(3, full, fix) == 0


@pytest.mark.parametrize("p", (7, 13, 19))
def test_rh_genus_pgonal_K1(p):
    ctx = make_context(p)
    fix = pgonal_fix_table(ctx)
    assert rh_genus((p - 1) // 2, pgonal_K(1, ctx), fix) == (p - 1) // 6
    assert rh_genus((p - 1) // 2, pgonal_group(ctx), fix) == 0


def test_rh_genus_inconsistent_table_raises():
    ctx = make_context(7)
    bogus = FixTable(Group(7), lambda i: 1, "bogus")
    with pytest.raises(InconsistentRHError):
        rh_genus(fermat_genus(7), fermat_Hj(7, 1), bogus)


def test_fermat_quotient_genus():
    for p in (5, 7, 13):
        h = fermat_H(p)
        assert fermat_quotient_genus(h) == 0
        total = sum(fermat_quotient_genus(fermat_Hj(p, j)) for j in range(1, p - 1))
        assert total == fermat_genus(p)


def test_fermat_quotient_genus_rejects_nontranslations():
    sub = subgroup_closure(Group(7), [index_of(fermat_u(7))])
    with pytest.raises(NotSubgroupOfHError):
        fermat_quotient_genus(sub)


def test_find_generating_triple_properties():
    for p in (5, 7):
        ctx = make_context(p)
        triple = find_generating_triple(ctx)
        data = ClassData(Group(ctx.p))
        evidence = validate_triple(triple, data)
        assert evidence["orders"] == [2, 3, 2 * p]
        assert evidence["fix_a1"] == p
        assert evidence["trivial_subgroup_genus"] == fermat_genus(p)
        assert evidence["fix_table"].at(index_of(fermat_a1(p))) == p
        # deterministic: the search re-finds the same triple
        assert find_generating_triple(ctx) == triple


def test_generation_gap_names_the_failed_hypothesis():
    p = 7
    triple = find_generating_triple(make_context(p))
    assert generation_gap(triple) is None
    u, v, a1 = fermat_u(p), fermat_v(p), fermat_a1(p)

    def gap(c2, c3):
        return generation_gap(GeneratingTriple(p, index_of(c2), index_of(c3), index_of((c2 * c3).inverse())))

    # v and u generate S3 alone: c2p = (v u)^(-1) has order 2, so c2p^2 = 1
    assert gap(v, u) == "c2p^2 = (0, 0, 0) is not a nonzero translation"
    assert gap(a1, u) == "c2 = (1, 0, 0) does not map to a transposition"
    assert gap(v, a1) == "c3 = (1, 0, 0) does not map to a 3-cycle"


def test_a_stable_line_refutes_generation(capsys, monkeypatch):
    # with an S3-stable line the argument proves nothing: validate_triple
    # refuses the triple and the search finds none
    triple = find_generating_triple(make_context(7))
    monkeypatch.setattr(genus_module, "s3_stable_lines", lambda p: [(1, 0)])
    with pytest.raises(InconsistentOrbifoldError, match="does not generate"):
        validate_triple(triple, ClassData(Group(7)))
    code = cli.main(["verify", "--p", "7", "--depth", "full"])
    out, err = capsys.readouterr()
    assert code == 4
    assert "FAIL generating-triple: no (2, 3, 2p) generating triple found for p = 7" in out


def test_a_patched_triple_fails_verify_naming_coordinates(capsys, monkeypatch):
    # c2p swapped for another element of order 2p: the orders hold, the
    # product does not, and the detail names the elements by normal form
    real = genus_module.find_generating_triple

    def patched(ctx, limit):
        triple = real(ctx, limit)
        other = next(i for i in range(Group(ctx.p).order) if i != triple.c2p and fermat_order(ctx.p, i) == 14)
        return GeneratingTriple(ctx.p, triple.c2, triple.c3, other)

    monkeypatch.setattr(genus_module, "find_generating_triple", patched)
    code = cli.main(["verify", "--p", "7", "--depth", "full", "--format", "json"])
    out, err = capsys.readouterr()
    assert code == 4
    failed = json.loads(out)["checks"][-1]
    assert (failed["name"], failed["status"], failed["code"]) == ("generating-triple", "FAIL", "INCONSISTENT_ORBIFOLD")
    assert failed["detail"] == "the triple (0, 0, 3), (0, 1, 1), (0, 1, 3) has product (0, 6, 2), not the identity"
    assert "FermatAut(" not in out + err and "Traceback" not in err


def test_triple_failures_name_coordinates():
    ctx = make_context(7)
    triple, data = find_generating_triple(ctx), ClassData(Group(7))
    swapped = GeneratingTriple(7, triple.c2p, triple.c3, triple.c2)
    named = r"\(6, 0, 5\), \(0, 1, 1\), \(0, 0, 3\)"
    with pytest.raises(InconsistentOrbifoldError, match=rf"^the triple {named} has orders \(14, 3, 2\), not \(2, 3, 14\)$"):
        validate_triple(swapped, data)
    with pytest.raises(InconsistentOrbifoldError, match=r"^\(6, 0, 5\) generates a subgroup of order 14, not 2$"):
        fermat_full_fix_table(swapped, data)
    with pytest.raises(NotSubgroupOfHError, match=r"^\(0, 0, 1\) lies outside the translation subgroup$"):
        fermat_axis_fix_table(ctx).at(1)


def test_generating_triple_refuses_indices_outside_the_group():
    for bad in (-1, 294, 295):
        with pytest.raises(OutOfRangeError):
            GeneratingTriple(7, 3, 7, bad)
        with pytest.raises(OutOfRangeError):
            GeneratingTriple(7, bad, 7, 257)
    assert GeneratingTriple(7, 3, 7, 257) == find_generating_triple(make_context(7))


def test_find_generating_triple_bound():
    with pytest.raises(TooLargeError):
        find_generating_triple(make_context(37))


def test_full_fix_count_examples():
    ctx = make_context(7)
    triple = find_generating_triple(ctx)
    fix = fermat_full_fix_table(triple, ClassData(Group(ctx.p)))
    assert fix.at(index_of(fermat_a1(7))) == 7
    # a free translation fixes nothing
    assert fix.at(fermat_Hj(7, 1).indices[1]) == 0
    with pytest.raises(IdentityInputError):
        fix.at(IDENTITY)


def test_full_table_matches_axis_table_on_H():
    for p in (5, 7):
        ctx = make_context(p)
        triple = find_generating_triple(ctx)
        data = ClassData(Group(ctx.p))
        full = fermat_full_fix_table(triple, data)
        axis = fermat_axis_fix_table(ctx)
        for h in fermat_H(p):
            if h != IDENTITY:
                assert full.at(h) == axis.at(h)


def test_full_fix_table_refuses_a_foreign_context():
    ctx13 = make_context(13)
    triple, data = find_generating_triple(ctx13), ClassData(Group(ctx13.p))
    with pytest.raises(GroupMismatchError):
        fermat_full_fix_table(triple, ClassData(Group(7)))
    with pytest.raises(GroupMismatchError):
        validate_triple(triple, ClassData(Group(7)))
    assert fermat_full_fix_table(triple, data).at(index_of(fermat_a1(13))) == 13


def test_fix_tables_refuse_indices_outside_the_group():
    # p = 7: the Fermat group has 294 elements and the p-gonal group 21;
    # unchecked, the p-gonal table read 21 and -4 as 3 and 2, the axis
    # table 1764 as 7, and the full table wrapped -1 around
    ctx = make_context(7)
    triple = find_generating_triple(ctx)
    full = fermat_full_fix_table(triple, ClassData(Group(7)))
    pgonal, axis = pgonal_fix_table(ctx), fermat_axis_fix_table(ctx)
    for table, bad in ((pgonal, (21, -4, -1, 22)), (axis, (1764, 294, -6)), (full, (-1, 294, 295))):
        for i in bad:
            with pytest.raises(OutOfRangeError):
                table.at(i)
        with pytest.raises(IdentityInputError):
            table.at(IDENTITY)
    assert (pgonal.at(20), axis.at(288), full.at(293)) == (2, 7, labelled_fix_count(293, triple))


def test_fix_counts_conjugation_invariant_exhaustive_p5():
    ctx = make_context(5)
    triple = find_generating_triple(ctx)
    data = ClassData(Group(ctx.p))
    fix = fermat_full_fix_table(triple, data)
    els = list(fermat_elements(5))
    for g in els:
        if g.is_identity:
            continue
        c = fix.at(index_of(g))
        for h in els:
            assert fix.at(index_of(h * g * h.inverse())) == c


def test_lefschetz_bound():
    for p in (5, 7):
        ctx = make_context(p)
        triple = find_generating_triple(ctx)
        data = ClassData(Group(ctx.p))
        fix = fermat_full_fix_table(triple, data)
        bound = 2 + 2 * fermat_genus(p)
        for cls in conjugacy_classes(Group(ctx.p)):
            if cls[0] != IDENTITY:
                assert 0 <= fix.at(cls[0]) <= bound


def test_total_fix_count_identity():
    # summing |Fix(g)| over g != 1 equals the Riemann-Hurwitz total for
    # the full group acting with quotient genus zero: 13 p^2 - 3 p
    for p in (5, 7):
        ctx = make_context(p)
        triple = find_generating_triple(ctx)
        data = ClassData(Group(ctx.p))
        fix = fermat_full_fix_table(triple, data)
        total = sum(fix.at(i) for i in range(1, 6 * p * p))
        assert total == 13 * p * p - 3 * p


def test_coset_genus_full_group_and_trivial():
    for p in (5, 7):
        ctx = make_context(p)
        triple = find_generating_triple(ctx)
        data = ClassData(Group(ctx.p))
        gens = [fermat_a1(p), fermat_u(p), fermat_v(p)]
        full = subgroup_closure(Group(p), map(index_of, gens))
        assert full.order == 6 * p * p
        assert coset_genus(full, triple, data) == 0
        assert coset_genus(trivial_subgroup(Group(p)), triple, data) == fermat_genus(p)


@pytest.mark.parametrize("p", (5, 7))
def test_dual_oracle_agreement(p):
    """Riemann-Hurwitz with fiber-model fix counts against the orbifold
    coset count, over every cyclic subgroup plus H, H_j, and the joins."""
    ctx = make_context(p)
    triple = find_generating_triple(ctx)
    data = ClassData(Group(ctx.p))
    fix = fermat_full_fix_table(triple, data)
    g_top = fermat_genus(p)
    subgroups = all_cyclic_subgroups(Group(ctx.p))
    subgroups.append(fermat_H(p))
    hj = [fermat_Hj(p, j) for j in range(1, p - 1)]
    subgroups.extend(hj)
    for i in range(len(hj)):
        for j in range(i + 1, len(hj)):
            subgroups.append(joined(hj[i], hj[j]))
    for k in subgroups:
        assert rh_genus(g_top, k, fix) == coset_genus(k, triple, data)


def test_euler_characteristic_audit():
    for p in (5, 7, 13):
        ctx = make_context(p)
        order_g = 6 * p * p
        # 2 - 2g = 2|G| - sum over cone points of [G:<c_i>] (m_i - 1)
        deficit = sum((order_g // m) * (m - 1) for m in (2, 3, 2 * p))
        assert 2 * order_g - deficit == 2 - 2 * fermat_genus(p)


def test_pgonal_fix_table_domain():
    ctx = make_context(7)
    fix = pgonal_fix_table(ctx)
    from helpers import pgonal_R, pgonal_T

    assert fix.at(index_of(pgonal_T(ctx))) == 3
    assert fix.at(index_of(pgonal_R(ctx))) == 2
    with pytest.raises(IdentityInputError):
        fix.at(IDENTITY)
