"""The class-arithmetic coset oracle against explicit coset labelling.

coset_genus, the fiber-model fix table and induced_perm_character read
conjugacy classes only (Burnside's lemma and Frobenius' formula); the
helpers label every coset of G/K on element indices and count cycles and
fixed cosets on the labels.  ClassData keys the classes by rule, on
demand; the class table of helpers.py (one key per element) and the
orbit walk over the conjugation maps are its oracles.  verify runs both
genus oracles on one cyclic subgroup per conjugacy class, taken from the
line orbits; every cyclic subgroup, and the walk over the class table,
are the oracles for that reduction, and a class rule that splits or
merges classes must fail verify.
"""

import sys
from pathlib import Path

import pytest

from fermatjac import cli
from fermatjac import groups as groups_module
from fermatjac.certificates import induced_perm_character
from fermatjac.errors import CheckFailedError, GroupMismatchError, InconsistentOrbifoldError
from fermatjac.genus import (
    _power_class_counts,
    coset_genus,
    fermat_full_fix_table,
    fermat_genus,
    find_generating_triple,
    rh_genus,
)
from fermatjac.groups import (
    IDENTITY,
    ACTION,
    PERM_UV,
    ClassData,
    Group,
    Subgroup,
    all_cyclic_subgroups,
    class_rule_gap,
    conjugacy_classes,
    cyclic_subgroup_classes,
    fermat_H,
    fermat_Hj,
    fermat_order,
    line_orbits,
    line_point,
    subgroup_closure,
)
from fermatjac.orbits import make_context, orbit_partition

from helpers import (
    ListClassData,
    by_key,
    class_label_gap,
    class_line_walk_gap,
    class_members,
    class_values,
    drop_deck_class,
    elements,
    fermat_a1,
    index_by_key,
    index_of,
    labelled_coset_genus,
    labelled_fix_count,
    labelled_perm_character,
    merge_axis_class,
    power_class_counts_by_element,
    primes_upto,
    printing,
    rh_genus_by_element,
    split_generic_class,
    split_generic_line_orbit,
    square_doubled_for_uv,
    square_minus,
    subgroup_indices,
    walked_cyclic_subgroup_classes,
)

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("p", [q for q in primes_upto(31) if q >= 5])
def test_class_arithmetic_matches_coset_labelling(p):
    ctx = make_context(p)
    triple = find_generating_triple(ctx)
    data = ClassData(Group(ctx.p))
    fix = fermat_full_fix_table(triple, data)
    classes = conjugacy_classes(Group(ctx.p))
    reps = [cls[0] for cls in classes[1:]]
    assert [fix.at(r) for r in reps] == [labelled_fix_count(r, triple) for r in reps]
    # the table's support is every class where it is not 0: 2p of them
    support = by_key(fix.support)
    assert set(support) == {data.key(r) for r in reps if fix.at(r)} and len(support) == 2 * p
    hj = [fermat_Hj(p, j) for j in range(1, p - 1)]
    for k in all_cyclic_subgroups(Group(ctx.p)) + [fermat_H(p)] + hj:
        assert coset_genus(k, triple, data) == labelled_coset_genus(k, triple)
    # a line and the plane, each by two generators, read by their lines,
    # against their labelled cosets
    points = [line_point(p, line) for line in range(p + 1)]
    for k in [Subgroup(Group(p), (IDENTITY, x)) for x in points] + [Subgroup(Group(p), (points[3], points[p]))]:
        assert coset_genus(k, triple, data) == labelled_coset_genus(k, triple)
    for k in [fermat_H(p)] + hj:
        chi = induced_perm_character(k, data)
        assert class_values(chi, classes) == labelled_perm_character(k, classes)
        # perm(G/K) vanishes off the classes K meets, and is held so
        assert set(by_key(chi.support)) == {data.key(i) for i in elements(k)}


def test_non_integral_frobenius_quotient_raises(monkeypatch):
    # a1's class {a1, a2, a3} meets <a1> once: 294 * 1 / (3 * 7) = 14
    # cosets; claiming a fourth member gives 294 / 28, not an integer
    ctx = make_context(7)
    triple = find_generating_triple(ctx)
    data = ClassData(Group(ctx.p))
    a1 = index_of(fermat_a1(7))
    c = data.key(a1)
    assert data.size(c) == 3
    size = ClassData.size
    monkeypatch.setattr(ClassData, "size", lambda self, key: 4 if key == c else size(self, key))
    k = subgroup_closure(data.group, [a1])
    with pytest.raises(InconsistentOrbifoldError):
        coset_genus(k, triple, data)
    with pytest.raises(InconsistentOrbifoldError):
        induced_perm_character(k, data)


def assert_keys_match_the_table(group):
    """ClassData's key of every element, its sizes, class count and key
    test against the class table of helpers.py; returns the table."""
    data, table = ClassData(group), ListClassData(group)
    assert [data.key(i) for i in range(group.order)] == table.element_keys
    assert [data.size(key) for key in table.keys] == list(table.sizes)
    assert data.count == len(table.reps) == sum(n for n, _ in data.census())
    bound = 2 * group.p * group.p + 1 if group.gamma is None else group.p + 2
    assert [key for key in range(bound) if data.is_key(key)] == sorted(table.keys)
    return table


@pytest.mark.parametrize("p", [q for q in primes_upto(61) if q >= 5])
def test_closed_form_classes_match_the_orbit_walk(p):
    """The class table of helpers.py has the walk's classes in the same
    order, the same class of every element and the same sizes, for the
    Fermat group and for the p-gonal group of each root; ClassData's keys
    by rule are the table's, and its cyclic-subgroup classes from the line
    orbits are the walk's over the table."""
    ctx = make_context(p)
    for group in [Group(p)] + [Group(p, g) for g in ctx.gamma_pair or ()]:
        table = assert_keys_match_the_table(group)
        walk = conjugacy_classes(group)
        assert class_members(table) == walk
        assert table.reps == tuple(cls[0] for cls in walk)
        assert table.sizes == tuple(map(len, walk))
        class_of = [0] * group.order
        for c, cls in enumerate(walk):
            for i in cls:
                class_of[i] = c
        assert table.class_of == class_of
    table = ListClassData(Group(p))
    assert class_rule_gap(ClassData(Group(p))) is None and class_label_gap(table) is None

    def generator_classes(k):
        return frozenset(table.class_of[i] for i in subgroup_indices(k) if fermat_order(p, i) == k.order)

    reps = cyclic_subgroup_classes(p, line_orbits(p))
    walked = walked_cyclic_subgroup_classes(table)
    assert len(reps) == len(walked)
    assert {generator_classes(k) for k in reps} == {generator_classes(k) for k in walked}


@pytest.mark.parametrize("p", [q for q in primes_upto(199) if q > 61])
def test_keys_match_the_class_table_up_to_199(p):
    assert_keys_match_the_table(Group(p))


def test_class_rule_gap_serves_the_fermat_group_only():
    ctx = make_context(7)
    with pytest.raises(GroupMismatchError):
        class_rule_gap(ClassData(Group(7, ctx.gamma)))


def _merged_classes(mp):
    mp.setattr(ClassData, "key", merge_axis_class(ClassData.key))


def test_merged_classes_fail_verify(capsys, monkeypatch):
    _merged_classes(monkeypatch)
    code = cli.main(["verify", "--p", "13", "--depth", "full"])
    out, err = capsys.readouterr()
    assert code == 4
    assert "FAIL generating-triple" in out
    assert "Traceback" not in err


def test_merged_classes_fail_verify_under_python_O(under_O):
    run = under_O["merged-classes"]
    assert run.control == 0, run.control_stdout
    assert run.returncode == 4, run.stdout + run.stderr
    assert "FAIL generating-triple" in run.stdout
    assert "Traceback" not in run.stderr


@pytest.mark.parametrize("p", [q for q in primes_upto(199) if q >= 5])
def test_the_line_walk_is_the_oracle_of_the_class_rule_argument(monkeypatch, p):
    """class_rule_gap keys no element: the walk of the keys over the p + 1
    lines that its argument stands for finds every key in its class too;
    a key that splits an orbit passes the argument, which rests on the
    key's rule, and fails the walk."""
    data = ClassData(Group(p))
    assert class_rule_gap(data) is None and class_line_walk_gap(data) is None
    monkeypatch.setattr(ClassData, "key", split_generic_class(ClassData.key))
    assert class_rule_gap(data) is None
    assert "out of its class" in class_line_walk_gap(data)


@pytest.mark.parametrize("p", [q for q in primes_upto(199) if q >= 5] + [10007])
def test_closed_form_power_classes_match_the_element_keys(p):
    """The class counts of the triple's powers, per class kind, and their
    line index, per line orbit, against the powers listed by closure and
    keyed one by one and the six images of every key; <a1 v> read by its
    powers' classes against its elements' keys."""
    data = ClassData(Group(p))
    triple = find_generating_triple(make_context(p))
    entries, by_line = power_class_counts_by_element(triple, data)
    closed, closed_by_line = _power_class_counts(triple, data)
    assert [(m, by_key(counts)) for m, counts in closed] == list(entries)
    assert index_by_key(closed_by_line) == by_line
    a1v = cyclic_subgroup_classes(p, ())[-1]
    assert by_key(data.meet_counts(a1v, {})) == by_key(data.class_counts(elements(a1v)))


def _a1_class_of_four(mp):
    # a1's class {a1, a2, a3} claimed to have four members: the Frobenius
    # quotient 294 * 1 / (4 * 7) of <a1> is no integer
    size = ClassData.size
    mp.setattr(ClassData, "size", lambda self, key: 4 if key == 1 else size(self, key))


def _coset_genus_of_a1():
    data = ClassData(Group(7))
    return coset_genus(subgroup_closure(data.group, [index_of(fermat_a1(7))]), find_generating_triple(make_context(7)), data)


def test_a_class_rule_failure_in_the_coset_oracle_names_p_k_and_both_counts(monkeypatch):
    _a1_class_of_four(monkeypatch)
    with pytest.raises(InconsistentOrbifoldError) as caught:
        _coset_genus_of_a1()
    assert str(caught.value) == (
        "|G| |C n K| / (|C| |K|) = 294 * 1 / (4 * 7) for class 1, at p = 7 on the subgroup of order 7"
        " generated by (1, 0, 0): not an integer"
    )


def test_a_class_rule_failure_in_the_coset_oracle_names_p_k_and_both_counts_under_python_O(under_O):
    run = under_O["class-of-four"]
    assert run.control == 0, run.control_stdout
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout == (
        "InconsistentOrbifoldError |G| |C n K| / (|C| |K|) = 294 * 1 / (4 * 7) for class 1, at p = 7 on the"
        " subgroup of order 7 generated by (1, 0, 0): not an integer\n"
    )


def test_the_orbifold_counts_name_p_k_and_both_counts(monkeypatch):
    # the involutions claimed to fix one coset of <v> fewer: the entry of
    # order 2 then fixes an odd number of cosets over its powers
    data, triple = ClassData(Group(7)), find_generating_triple(make_context(7))
    v = subgroup_closure(data.group, [groups_module.PERM_V])
    fixed = ClassData.fixed_cosets

    def one_less(self, counts, k_order, k=None):
        out = fixed(self, counts, k_order, k)
        return {keys: f - (keys.start == 49) for keys, f in out.items()} if k is not None else out

    monkeypatch.setattr(ClassData, "fixed_cosets", one_less)
    with pytest.raises(InconsistentOrbifoldError) as caught:
        coset_genus(v, triple, data)
    assert str(caught.value).startswith("an entry of order 2 fixes ")
    assert str(caught.value).endswith(
        " cosets over its powers, at p = 7 on the subgroup of order 2 generated by (0, 0, 3): not a multiple of 2"
    )


@pytest.mark.parametrize("p", [q for q in primes_upto(31) if q >= 5] + [61])
def test_one_cyclic_subgroup_per_class_stands_for_all(p):
    """Every cyclic subgroup is conjugate to exactly one representative,
    going by the classes of its generators (the elements of order |K|),
    and both oracles give it the values they give that representative."""
    data = ClassData(Group(p))
    triple = find_generating_triple(make_context(p))
    fix = fermat_full_fix_table(triple, data)
    g_top = fermat_genus(p)

    def generator_classes(k):
        return frozenset(data.key(i) for i in subgroup_indices(k) if fermat_order(p, i) == k.order)

    def oracles(k):
        return rh_genus(g_top, k, fix), coset_genus(k, triple, data)

    reps = cyclic_subgroup_classes(p, line_orbits(p))
    # a line read by its lines gives both oracles what its listed elements
    # and its labelled cosets give
    for k in reps:
        assert oracles(k) == (rh_genus_by_element(g_top, k, fix), labelled_coset_genus(k, triple)), k.generators
    assert elements(reps[0]) == [IDENTITY]
    rep_classes = [generator_classes(r) for r in reps]
    assert sum(map(len, rep_classes)) == len(frozenset().union(*rep_classes))
    values = [oracles(r) for r in reps]
    for k in all_cyclic_subgroups(Group(p)):
        matches = [n for n, c in enumerate(rep_classes) if c == generator_classes(k)]
        assert len(matches) == 1, k
        assert oracles(k) == values[matches[0]]
    assert len(reps) == {13: 8, 31: 11, 61: 16}.get(p, len(reps))


@pytest.mark.parametrize("p", [q for q in primes_upto(199) if q >= 5])
def test_deck_line_orbits_are_the_exponent_orbits(p):
    """The S3-orbits of the p - 2 deck lines H_j, the lines through
    (1, 1 + j), walked under the matrices of ACTION, are the orbits of
    orbit_partition through alpha = p - 1 - j; so one deck line per class
    of cyclic subgroups stands for one exponent orbit."""

    def j_of(x, y):  # the line through (x, y) is H_j with 1 + j = y/x
        return y * pow(x, -1, p) % p - 1

    orbits, seen = set(), set()
    for j in range(1, p - 1):
        if j not in seen:
            lines = {j_of(a + b * (1 + j), c + d * (1 + j)) for a, b, c, d in ACTION}
            assert lines <= set(range(1, p - 1))
            seen |= lines
            orbits.add(frozenset(p - 1 - i for i in lines))
    assert orbits == {frozenset(o.elements) for o in orbit_partition(make_context(p)).orbits}


@pytest.mark.parametrize("p", [5, 7, 11, 13, 31, 61])
def test_line_orbit_kinds_are_one_type(p):
    """Every line-orbit kind is a plain str: "axis" for the orbit of the
    three axes, and the OrbitKind value of the exponent orbits otherwise,
    one line orbit per exponent orbit of that kind."""
    orbits = line_orbits(p)
    assert all(type(o.kind) is str for o in orbits)
    assert [(o.lines, len(o.stabilizer)) for o in orbits if o.kind == "axis"] == [((0, 1, 2), 2)]
    kinds = sorted(o.kind for o in orbits if o.kind != "axis")
    assert kinds == sorted(o.kind.value for o in orbit_partition(make_context(p)).orbits)


def _dropped_deck_class(mp):
    # one deck representative fewer: the oracles agree on what is left,
    # but the certificates count the deck classes against the orbits
    mp.setattr(groups_module, "cyclic_subgroup_classes", drop_deck_class(groups_module.cyclic_subgroup_classes))


def test_a_dropped_deck_class_fails_verify(capsys, monkeypatch):
    _dropped_deck_class(monkeypatch)
    code = cli.main(["verify", "--p", "13", "--depth", "full"])
    out, err = capsys.readouterr()
    assert code == 4
    assert "PASS dual-oracle-genus" in out
    assert "FAIL certificates: p = 13: 2 deck line classes for the 3 exponent orbits" in out
    assert "verification failed at check: certificates" in err
    assert "Traceback" not in err


def test_a_dropped_deck_class_fails_verify_under_python_O(under_O):
    run = under_O["dropped-deck-class"]
    assert run.control == 0, run.control_stdout
    assert run.returncode == 4, run.stdout + run.stderr
    assert "FAIL certificates: p = 13: 2 deck line classes for the 3 exponent orbits" in run.stdout
    assert "Traceback" not in run.stderr


def _split_line_orbit(mp):
    # a generic line orbit split in two: the oracles agree on both halves,
    # but the certificates count the deck classes against the orbits (the
    # key split of the same orbit is the line walk's, in tests)
    mp.setattr(groups_module, "line_orbits", split_generic_line_orbit(groups_module.line_orbits))


def test_split_class_fails_verify(capsys, monkeypatch):
    _split_line_orbit(monkeypatch)
    code = cli.main(["verify", "--p", "13", "--depth", "full"])
    out, err = capsys.readouterr()
    assert code == 4
    assert "PASS dual-oracle-genus" in out
    assert "FAIL certificates: p = 13: 4 deck line classes for the 3 exponent orbits" in out
    assert "verification failed at check: certificates" in err
    assert "Traceback" not in err


def test_split_class_fails_verify_under_python_O(under_O):
    run = under_O["split-line-orbit"]
    assert run.control == 0, run.control_stdout
    assert run.returncode == 4, run.stdout + run.stderr
    assert "FAIL certificates: p = 13: 4 deck line classes for the 3 exponent orbits" in run.stdout
    assert "Traceback" not in run.stderr


def _square_minus(mp):
    # (I - A) x merges elements of order 2 and 2p
    mp.setattr(groups_module, "square_matrix", square_minus)


def _square_doubled_for_uv(mp):
    mp.setattr(groups_module, "square_matrix", square_doubled_for_uv)


def test_wrong_square_rule_fails_verify(capsys, monkeypatch):
    # (I - A) x: the Riemann-Hurwitz count of the first representative of
    # order 2p is no integer
    _square_minus(monkeypatch)
    code = cli.main(["verify", "--p", "13", "--depth", "full"])
    out, err = capsys.readouterr()
    assert code == 4
    # the failure names p, the subgroup and the fix table, as decompose's audits do
    assert (
        "FAIL dual-oracle-genus: 2g-2 = 130, |K| = 26, sum fix = 156, at p = 13 on the subgroup of order 26"
        " generated by (1, 0, 3), fix table 'full table via the triple fiber model': no integer genus\n"
    ) in out
    assert "Traceback" not in err
    # a rule that keeps every size and Frobenius quotient passes every
    # count; only the class-constancy argument catches it
    _square_doubled_for_uv(monkeypatch)
    code = cli.main(["verify", "--p", "13", "--depth", "full"])
    out, err = capsys.readouterr()
    assert code == 4
    assert "PASS dual-oracle-genus" in out
    assert "FAIL fix-table-consistency: p = 13: conjugation by sigma = 2 does not move the square rule" in out
    assert "verification failed at check: fix-table-consistency" in err
    assert "Traceback" not in err


def test_wrong_square_rule_fails_verify_under_python_O(under_O):
    for rule, check in (("square-minus", "dual-oracle-genus"), ("square-doubled-for-uv", "fix-table-consistency")):
        run = under_O[rule]
        assert run.control == 0, run.control_stdout
        assert run.returncode == 4, run.stdout + run.stderr
        assert f"FAIL {check}: p = 13" in run.stdout or f"FAIL {check}: 2g-2" in run.stdout
        assert "Traceback" not in run.stderr


def _uv_with_the_matrix_of_v(mp):
    # every check that reads the group law sees it
    mp.setattr(groups_module, "ACTION", ACTION[:PERM_UV] + (ACTION[PERM_UV - 1],) + ACTION[PERM_UV + 1:])


def test_patched_action_entry_fails_verify(capsys, monkeypatch):
    _uv_with_the_matrix_of_v(monkeypatch)
    code = cli.main(["verify", "--p", "13", "--depth", "full"])
    out, err = capsys.readouterr()
    assert code == 4
    assert "FAIL " in out and "verification failed at check: " in err
    assert "Traceback" not in err


def test_patched_action_entry_fails_verify_under_python_O(under_O):
    run = under_O["uv-with-the-matrix-of-v"]
    assert run.control == 0, run.control_stdout
    assert run.returncode == 4, run.stdout + run.stderr
    assert "verification failed at check: " in run.stderr
    assert "Traceback" not in run.stderr


def test_no_command_lists_a_subgroup(capsys, monkeypatch):
    """A subgroup is its generators and its order, generation is proved by
    argument and the oracles run on class representatives: no command
    lists every cyclic subgroup or calls Group.closure at all."""

    def refuse(*args, **kwargs):
        raise AssertionError("called")

    real = groups_module.all_cyclic_subgroups
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "fermatjac" or mod_name.startswith("fermatjac."):
            for attr, value in list(vars(mod).items()):
                if value is real:
                    monkeypatch.setattr(mod, attr, refuse)
    monkeypatch.setattr(Group, "closure", refuse)
    commands = [["sweep", "--from", "5", "--to", "61"]]
    for p in ("13", "31"):
        commands += [["decompose", "--p", p, "--level", "both"], ["verify", "--p", p]]
        commands += [["verify", "--p", p, "--depth", "full", "--format", "json"]]
    for argv in commands:
        assert cli.main(argv) == 0, argv
        out, _ = capsys.readouterr()
        if argv[2:] == ["13", "--depth", "full", "--format", "json"]:
            assert out == (GOLDEN / "verify_p13_full.json").read_text()


def test_full_depth_allocates_no_sequence_of_p_squared_entries(capsys):
    """Full depth is O(p) in memory: at p = 601 the whole run, basic
    checks included, peaks below half of the 8 p^2 bytes that the
    pointers of one list or tuple of p^2 entries would take."""
    import tracemalloc

    p = 601
    tracemalloc.start()
    try:
        code = cli.main(["verify", "--p", str(p), "--depth", "full"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and "all 12 checks passed" in capsys.readouterr().out
    assert peak < 4 * p * p


def _checked_through(p, last):
    """make_context(p) and the cache of verify --depth full run through the check named last."""
    ctx, cache = make_context(p), {}
    for name, check in cli.BASIC_CHECKS + cli.FULL_CHECKS:
        check(ctx, cache)
        if name == last:
            return ctx, cache


def test_loops_that_raise_straight_keep_their_failure_text(monkeypatch):
    # the probe loops, the Lefschetz bound and the deck loop format their
    # detail only on failure; the text is the one _require gave
    p = 13
    ctx, cache = _checked_through(p, "dual-oracle-genus")
    fix, deck = cache["full_fix"], cache["deck"]
    keys = max(fix.support, key=lambda keys: keys.start)  # the 3-cycle class, on no line of H
    key, count = keys.start, fix.support[keys]
    fix.support[keys] = 10**6
    with pytest.raises(CheckFailedError) as caught:
        cli.check_fix_table_consistency(ctx, cache)
    assert str(caught.value) == f"p = 13: fix = 1000000 on the class of key {key} is outside [0, 134]"
    fix.support[keys] = count
    monkeypatch.setattr(cli.cert, "perm_pairing", lambda k, rat: 0)
    with pytest.raises(CheckFailedError) as caught:
        cli.check_certificates(ctx, cache)
    j = groups_module.deck_index(deck[0][0].lines[0])
    assert str(caught.value) == f"p = 13: <G/H_{j}, hom> = 0, expected 12"
    # each deck class's line orbit as the dual-oracle check kept it, read as generic
    cache["deck"] = [(k, groups_module.LineOrbit(o.lines, o.stabilizer, "generic")) for k, o in deck]
    o = next(o for _, o in cache["deck"] if groups_module.deck_line(j) in o.lines)
    exponents = orbit_partition(ctx).orbit_of(p - 1 - j)
    with pytest.raises(CheckFailedError) as caught:
        cli.check_certificates(ctx, cache)
    # the text of decompose.deck_orbit_gap, which the deck audit's probes share
    assert str(caught.value) == (
        f"p = 13: deck quotient j = {j}, alpha = {p - 1 - j}: lines {o.lines} (kind generic, stabilizer {o.stabilizer})"
        f" give exponents {list(exponents.elements)}, not the orbit {exponents.elements} (kind {exponents.kind.value}) of alpha"
    )
    assert exponents.kind.value != "generic"
    # V as a -> a + 1 on X_p: V^2 moves the first probe
    monkeypatch.setitem(cli.MOEBIUS_TRANSPORT, cli.MoebiusLabel.ONE_MINUS, lambda a, inv, p: a % (p - 2) + 1)
    with pytest.raises(CheckFailedError) as caught:
        cli.check_s3_relations(ctx, {})
    assert str(caught.value) == "p = 13: V^2 moves 1"


# -- the python -O twins' cases, run in one child (conftest.py's under_O) -----

VERIFY_13_FULL = ["verify", "--p", "13", "--depth", "full"]
UNDER_O = {
    "merged-classes": (_merged_classes, [VERIFY_13_FULL]),
    "class-of-four": (_a1_class_of_four, [printing(_coset_genus_of_a1)]),
    "dropped-deck-class": (_dropped_deck_class, [VERIFY_13_FULL]),
    "split-line-orbit": (_split_line_orbit, [VERIFY_13_FULL]),
    "square-minus": (_square_minus, [VERIFY_13_FULL]),
    "square-doubled-for-uv": (_square_doubled_for_uv, [VERIFY_13_FULL]),
    "uv-with-the-matrix-of-v": (_uv_with_the_matrix_of_v, [VERIFY_13_FULL]),
}
