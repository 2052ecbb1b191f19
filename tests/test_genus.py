import gc
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermatjac import cli
from fermatjac import genus as genus_module
from fermatjac import groups as groups_module
from fermatjac.errors import (
    FermatJacError,
    GroupMismatchError,
    IdentityInputError,
    InconsistentOrbifoldError,
    InconsistentRHError,
    NotSubgroupOfHError,
    OutOfRangeError,
)
from fermatjac.genus import (
    FixTable,
    GeneratingTriple,
    coset_genus,
    fermat_axis_fix_table,
    fermat_full_fix_table,
    fermat_genus,
    find_generating_triple,
    generation_gap,
    pgonal_fix_table,
    rh_genus,
    validate_triple,
)
from fermatjac.groups import (
    IDENTITY,
    PERM_U,
    PERM_V,
    ClassData,
    Group,
    all_cyclic_subgroups,
    conjugacy_classes,
    fermat_H,
    fermat_Hj,
    fermat_order,
    fermat_translation,
    line_point,
    pgonal_K,
    pgonal_group,
    plane_lines,
    subgroup_closure,
)
from fermatjac.orbits import is_prime, make_context

import helpers
from helpers import (
    cyclic_label_table,
    elements,
    fermat_a1,
    fermat_elements,
    fermat_quotient_genus,
    fermat_u,
    fermat_v,
    index_of,
    joined,
    labelled_fix_count,
    rh_genus_by_element,
    root_contexts,
    trivial_subgroup,
)


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
    total = sum(fix.at(i) for i in elements(full) if i != IDENTITY)
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
        assert set(evidence) == {"orders", "fix_a1", "fix_table"}
        assert evidence["fix_table"].at(index_of(fermat_a1(p))) == p
        # deterministic: the closed form gives the same triple again
        assert find_generating_triple(ctx) == triple


def test_closed_form_triple_holds_for_every_prime_up_to_997():
    # the hypotheses validate_triple checks at run time, without its
    # O(p^2) class data: the orders from the group law, the product and
    # the generation argument
    for p in (q for q in range(5, 998) if is_prime(q)):
        group, triple = Group(p), find_generating_triple(make_context(p))
        assert tuple(fermat_order(p, c) for c, _ in triple.entries) == (2, 3, 2 * p)
        assert group.mul(group.mul(triple.c2, triple.c3), triple.c2p) == IDENTITY
        assert generation_gap(triple, ClassData(group)) is None


def test_generation_gap_names_the_failed_hypothesis():
    p = 7
    triple, data = find_generating_triple(make_context(p)), ClassData(Group(p))
    assert generation_gap(triple, data) is None
    u, v, a1 = fermat_u(p), fermat_v(p), fermat_a1(p)

    def gap(c2, c3):
        return generation_gap(GeneratingTriple(p, index_of(c2), index_of(c3), index_of((c2 * c3).inverse())), data)

    # v and u generate S3 alone: c2p = (v u)^(-1) has order 2, so c2p^2 = 1
    assert gap(v, u) == "c2p^2 = (0, 0, 0) is not a nonzero translation"
    assert gap(a1, u) == "c2 = (1, 0, 0) does not map to a transposition"
    assert gap(v, a1) == "c3 = (1, 0, 0) does not map to a 3-cycle"
    # an S3-stable line is a line orbit of one line: here line 3, through (1, 2)
    stable = ClassData(Group(p))
    stable.memo["line_orbits"] = (groups_module.LineOrbit((3,), tuple(range(6)), "generic"), *data.line_orbits())
    assert generation_gap(triple, stable) == "the line through (1, 2) of F_p^2 is stable under S3"


def test_a_stable_line_refutes_generation(capsys, monkeypatch):
    # with an S3-stable line, a line orbit of one line, the argument proves
    # nothing: validate_triple refuses the closed-form triple, naming the
    # failed hypothesis and the line, (1, 0) for line 1
    triple = find_generating_triple(make_context(7))
    real = groups_module.line_orbits

    def with_a_stable_line(p):
        return (groups_module.LineOrbit((1,), tuple(range(6)), "axis"), *real(p))

    monkeypatch.setattr(groups_module, "line_orbits", with_a_stable_line)
    with pytest.raises(InconsistentOrbifoldError, match="does not generate"):
        validate_triple(triple, ClassData(Group(7)))
    code = cli.main(["verify", "--p", "7", "--depth", "full"])
    out, err = capsys.readouterr()
    assert code == 4
    detail = "triple does not generate the group: the line through (1, 0) of F_p^2 is stable under S3"
    assert f"FAIL generating-triple: {detail}" in out


def test_a_patched_triple_fails_verify_naming_coordinates(capsys, monkeypatch):
    # c2p swapped for another element of order 2p: the orders hold, the
    # product does not, and the detail names the elements by normal form
    real = genus_module.find_generating_triple

    def patched(ctx):
        triple = real(ctx)
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


def test_helper_oracles_refuse_inconsistent_input():
    # a triple with its entries of orders 2 and 2p swapped: the fiber
    # oracle in helpers.py asserts that each entry has its stated order,
    # and that assert fires under python -O too, because conftest.py
    # registers helpers for assertion rewriting
    t = find_generating_triple(make_context(5))
    with pytest.raises(AssertionError):
        labelled_fix_count(1, GeneratingTriple(5, t.c2p, t.c3, t.c2))


def test_full_fix_count_examples():
    ctx = make_context(7)
    triple = find_generating_triple(ctx)
    fix = fermat_full_fix_table(triple, ClassData(Group(ctx.p)))
    assert fix.at(index_of(fermat_a1(7))) == 7
    # a free translation fixes nothing
    assert fix.at(elements(fermat_Hj(7, 1))[1]) == 0
    with pytest.raises(IdentityInputError):
        fix.at(IDENTITY)


def test_full_table_matches_axis_table_on_H():
    # the element walk that fix-table-consistency replaces by one point
    # per line: the lines of plane_lines cover H - {1} once, both tables
    # agree at every translation, and each is constant on the
    # non-identity points of every line, at the count line_counts reads
    for p in (q for q in range(5, 62) if is_prime(q)):
        ctx = make_context(p)
        full = fermat_full_fix_table(find_generating_triple(ctx), ClassData(Group(p)))
        axis = fermat_axis_fix_table(ctx)
        points = [[fermat_translation(p, k * a, k * b) for k in range(1, p)] for a, b in plane_lines(p)]
        assert sorted(h for line in points for h in line) == elements(fermat_H(p))[1:]
        for table in (full, axis):
            for line, count in zip(points, table.line_counts, strict=True):
                assert {table.at(h) for h in line} == {count}
        for h in elements(fermat_H(p))[1:]:
            assert full.at(h) == axis.at(h)


def _zero_axis_table(ctx):
    return FixTable(Group(ctx.p), lambda i: 0, "no translation fixes a point")


def _zero_axis(mp):
    # decompose imported the table by name, so only the full-depth check
    # reads the patched one
    mp.setattr(genus_module, "fermat_axis_fix_table", _zero_axis_table)


ZERO_AXIS_FAIL = "FAIL fix-table-consistency: p = 13: fix(0, 1) is 13 in the full table and 0 in the axis table"


def test_a_wrong_axis_table_fails_fix_table_consistency(capsys, monkeypatch):
    # it fails at the first point of plane_lines
    _zero_axis(monkeypatch)
    code = cli.main(["verify", "--p", "13", "--depth", "full"])
    out, err = capsys.readouterr()
    assert code == 4
    assert "PASS deck-quotient-audit" in out and f"{ZERO_AXIS_FAIL}\n" in out
    assert "verification failed at check: fix-table-consistency" in err
    assert "Traceback" not in err


def test_a_wrong_axis_table_fails_fix_table_consistency_under_python_O(under_O):
    run = under_O["zero-axis"]
    assert run.control == 0, run.control_stdout
    assert run.returncode == 4, run.stdout + run.stderr
    assert ZERO_AXIS_FAIL in run.stdout
    assert "Traceback" not in run.stderr


def test_fix_table_consistency_reads_the_tables_once_per_line(monkeypatch):
    # two tables at p + 1 points each, and the Lefschetz bound on the
    # table's support, read off it: no walk over the p^2 - 1 translations.
    # The reads are counted at each table's count rule, which both at and
    # at_range call once per index.
    p = 61
    ctx, cache = make_context(p), {}
    cli.check_generating_triple(ctx, cache)
    reads = []

    def counted(fix):
        rule = fix._count_fn
        fix._count_fn = lambda i: reads.append(i) or rule(i)
        return fix

    counted(cache["full_fix"])
    monkeypatch.setattr(genus_module, "fermat_axis_fix_table", lambda ctx: counted(fermat_axis_fix_table(ctx)))
    cli.check_fix_table_consistency(ctx, cache)
    assert len(reads) == 2 * (p + 1)
    assert reads == 2 * [6, *range(6 * p, 12 * p, 6)]


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


def _reading(read, r):
    """The counts read at r, or the class and text of the error raised."""
    try:
        return read(r)
    except FermatJacError as exc:
        return type(exc), str(exc)


# p = 7: 294 elements in the Fermat group, 21 in the p-gonal group
RANGE_READS = [
    range(0, 5), range(5, -1, -1), range(-6, 12, 6), range(12, -7, -6),  # through the identity
    range(290, 300), range(-3, 4), range(300, 280, -1), range(6, 1800, 6), range(400, 500),  # out of the group
    range(1, 10), range(7, 13), range(12, 6, -1),  # a non-translation first: the axis table refuses it
    range(6, 294, 6), range(1, 294, 50), range(293, 0, -7), range(1, 21), range(20, 0, -1),
    range(5, 5), range(0, 0), range(-4, -10),  # empty
]


@pytest.mark.parametrize("r", RANGE_READS, ids=str)
def test_range_read_reads_and_refuses_as_at_does(r):
    # the identity, an index outside the group and, on the axis table, an
    # element outside H: the same error class and text at the first bad
    # index of r as at, and the same counts when there is none
    ctx = make_context(7)
    full = fermat_full_fix_table(find_generating_triple(ctx), ClassData(Group(7)))
    for table in (pgonal_fix_table(ctx), fermat_axis_fix_table(ctx), full):
        expected = _reading(lambda r: [table.at(i) for i in r], r)
        assert _reading(table.at_range, r) == expected, (table, r)
    axis = fermat_axis_fix_table(ctx)
    assert _reading(axis.at_range, range(1, 10))[0] is NotSubgroupOfHError
    assert _reading(axis.at_range, range(0, 10))[0] is IdentityInputError
    assert _reading(axis.at_range, range(6, 1800, 6))[0] is OutOfRangeError


@settings(max_examples=200, deadline=None)
@given(start=st.integers(-20, 320), stop=st.integers(-20, 320), step=st.integers(-70, 70).filter(bool))
def test_range_read_is_at_on_every_index(start, stop, step):
    r, ctx = range(start, stop, step), make_context(7)
    for table in (pgonal_fix_table(ctx), fermat_axis_fix_table(ctx)):
        assert _reading(table.at_range, r) == _reading(lambda r: [table.at(i) for i in r], r)


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


@pytest.mark.parametrize("p", [q for q in range(5, 62) if is_prime(q)])
def test_trivial_subgroup_coset_genus_is_the_curve_genus(p):
    # an identity in p once the orders are (2, 3, 2p), which is why
    # validate_triple does not check it: [G:1] = 6p^2 and the entries
    # have 3p^2, 2p^2 and 3p cycles, so g = (2 + p^2 - 3p) / 2
    triple = find_generating_triple(make_context(p))
    assert coset_genus(trivial_subgroup(Group(p)), triple, ClassData(Group(p))) == fermat_genus(p)
    assert (2 + 6 * p * p - (3 * p * p + 2 * p * p + 3 * p)) // 2 == (p - 1) * (p - 2) // 2


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


# -- the Riemann-Hurwitz sum read once per cyclic subgroup --------------------

GAMMA_PRIMES = [p for p in range(7, 62) if is_prime(p) and p % 3 == 1]
FERMAT_PRIMES = [p for p in range(5, 62) if is_prime(p)]


def _pgonal_subgroups(ctx):
    """The whole p-gonal group of ctx's root and its K_1, K_2, K_3."""
    return [pgonal_group(ctx)] + [pgonal_K(i, ctx) for i in (1, 2, 3)]


def _fermat_cyclic(p):
    """<u>, <v>, <a1 v> and every deck line H_j, each a one-generator Subgroup."""
    group = Group(p)
    gens = (PERM_U, PERM_V, fermat_translation(p, 1, 0) + PERM_V)
    return [subgroup_closure(group, [g]) for g in gens] + [fermat_Hj(p, j) for j in range(1, p - 1)]


def _outcome(read, g_top, k, fix):
    """A reader's genus, or the class of the error it raised off H."""
    try:
        return read(g_top, k, fix)
    except NotSubgroupOfHError as exc:
        return type(exc)


def _counted(fix):
    """fix with every read of its count function listed."""
    reads = []
    return FixTable(fix.group, lambda i: reads.append(i) or fix.at(i), "counted"), reads


@pytest.mark.parametrize("p", GAMMA_PRIMES)
def test_rh_genus_reads_the_pgonal_subgroups_as_the_element_oracle(p):
    for ctx in root_contexts(p):
        fix = pgonal_fix_table(ctx)
        for k in _pgonal_subgroups(ctx):
            assert rh_genus((p - 1) // 2, k, fix) == rh_genus_by_element((p - 1) // 2, k, fix), (ctx.gamma, k.order)


@pytest.mark.parametrize("p", FERMAT_PRIMES)
def test_rh_genus_reads_fermat_cyclic_subgroups_as_the_element_oracle(p):
    # off H the axis table refuses a read, so both readers raise there
    ctx = make_context(p)
    full = fermat_full_fix_table(find_generating_triple(ctx), ClassData(Group(p)))
    axis = fermat_axis_fix_table(ctx)
    g_top = fermat_genus(p)
    for k in _fermat_cyclic(p):
        for fix in (full, axis):
            assert _outcome(rh_genus, g_top, k, fix) == _outcome(rh_genus_by_element, g_top, k, fix), k.generators


@pytest.mark.parametrize("p", (7, 11, 13, 31))
def test_rh_genus_fix_sums_match_on_a_table_that_tells_cyclic_subgroups_apart(monkeypatch, p):
    # any table constant on the generators of each cyclic subgroup has the
    # same fix sum read either way, whichever element stands for a subgroup
    for module in (genus_module, helpers):
        monkeypatch.setattr(module, "riemann_hurwitz", lambda g_top, order, fix_sum: fix_sum)
    cases = [(Group(p), _fermat_cyclic(p)[:4] + [trivial_subgroup(Group(p))])]
    cases += [(Group(p, ctx.gamma), _pgonal_subgroups(ctx)) for ctx in root_contexts(p)]
    for group, subgroups in cases:
        fix = cyclic_label_table(group)
        for k in subgroups:
            assert rh_genus(0, k, fix) == rh_genus_by_element(0, k, fix), (group, k.generators)


@pytest.mark.parametrize("p", (13, 61))
def test_rh_genus_reads_once_per_cyclic_subgroup(p):
    ctx = make_context(p)
    fix, reads = _counted(pgonal_fix_table(ctx))
    rh_genus((p - 1) // 2, pgonal_group(ctx), fix)
    assert len(reads) == p + 1  # T and one T^k R per order-3 subgroup, not 3p - 1
    assert reads[0] == 3 and sorted(reads[1:]) == list(range(1, 3 * p, 3))
    for i in (1, 2, 3):
        reads.clear()
        rh_genus((p - 1) // 2, pgonal_K(i, ctx), fix)
        assert len(reads) == 1
    full, reads = _counted(fermat_full_fix_table(find_generating_triple(ctx), ClassData(Group(p))))
    u, v, a1v, h1 = _fermat_cyclic(p)[:4]
    # a line or the plane: the p + 1 line points on the table's first line
    # read, kept for every line and the plane after it
    cases = ((trivial_subgroup(Group(p)), 0), (u, 1), (v, 1), (h1, p + 1), (h1, 0), (fermat_H(p), 0), (a1v, 3))
    for k, count in cases:
        reads.clear()
        rh_genus(fermat_genus(p), k, full)
        assert len(reads) == count, k.generators  # <a1 v>: at its elements of order 2, p and 2p
    assert full.line_counts == [full.at(6), *(full.at(i) for i in range(6 * p, 12 * p, 6))]


@pytest.mark.parametrize("p", FERMAT_PRIMES)
def test_line_counts_read_each_line_at_its_point(p):
    ctx = make_context(p)
    full = fermat_full_fix_table(find_generating_triple(ctx), ClassData(Group(p)))
    for fix in (fermat_axis_fix_table(ctx), full, _counted(full)[0]):
        assert fix.line_counts == [fix.at(line_point(p, line)) for line in range(p + 1)], fix


@pytest.mark.parametrize("p", (13, 101))
def test_rh_genus_leaves_no_reference_cycle(p):
    # <c> is read by a loop: a recursive closure over K is a cycle (the
    # function and its cell) that kept <a1 v> alive after rh_genus returned,
    # until a cyclic collection ran
    ctx = make_context(p)
    full = fermat_full_fix_table(find_generating_triple(ctx), ClassData(Group(p)))
    k = _fermat_cyclic(p)[2]
    assert len(k.generators) == 1 and k.order == 2 * p
    gc.collect()
    gc.disable()
    try:
        rh_genus(fermat_genus(p), k, full)
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- the python -O twins' cases, run in one child (conftest.py's under_O) -----

UNDER_O = {"zero-axis": (_zero_axis, [["verify", "--p", "13", "--depth", "full"]])}
