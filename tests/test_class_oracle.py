"""The class-arithmetic coset oracle against explicit coset labelling.

coset_genus, the fiber-model fix table and induced_perm_character read
conjugacy classes only (Burnside's lemma and Frobenius' formula); the
helpers label every coset of G/K on element indices and count cycles and
fixed cosets on the labels.  ClassData takes the classes from their
closed form; the orbit walk over the conjugation maps is its oracle.
verify runs both genus oracles on one cyclic subgroup per conjugacy
class; every cyclic subgroup is the oracle for that reduction, and a
class rule that splits or merges classes must fail verify.
"""

import sys
from pathlib import Path

import pytest

from fermatjac import cli
from fermatjac import groups as groups_module
from fermatjac.certificates import induced_perm_character
from fermatjac.errors import GroupMismatchError, InconsistentOrbifoldError
from fermatjac.genus import coset_genus, fermat_full_fix_table, fermat_genus, find_generating_triple, rh_genus
from fermatjac.groups import (
    IDENTITY,
    ACTION,
    PERM_UV,
    ClassData,
    Group,
    all_cyclic_subgroups,
    class_rule_gap,
    conjugacy_classes,
    cyclic_subgroup_classes,
    fermat_H,
    fermat_Hj,
    fermat_order,
    subgroup_closure,
)
from fermatjac.orbits import make_context, orbit_partition

from helpers import (
    class_members,
    drop_deck_class,
    fermat_a1,
    index_of,
    labelled_coset_genus,
    labelled_fix_count,
    labelled_perm_character,
    merge_axis_class,
    primes_upto,
    run_under_O,
    split_generic_class,
    square_doubled_for_uv,
    square_minus,
)

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("p", [q for q in primes_upto(31) if q >= 5])
def test_class_arithmetic_matches_coset_labelling(p):
    ctx = make_context(p)
    triple = find_generating_triple(ctx)
    data = ClassData(Group(ctx.p))
    fix = fermat_full_fix_table(triple, data)
    reps = [r for r in data.reps if r != IDENTITY]
    assert [fix.at(r) for r in reps] == [labelled_fix_count(r, triple) for r in reps]
    hj = [fermat_Hj(p, j) for j in range(1, p - 1)]
    for k in all_cyclic_subgroups(Group(ctx.p)) + [fermat_H(p)] + hj:
        assert coset_genus(k, triple, data) == labelled_coset_genus(k, triple)
    classes = conjugacy_classes(Group(ctx.p))
    for k in [fermat_H(p)] + hj:
        chi = induced_perm_character(k, data)
        assert list(chi.values) == labelled_perm_character(k, classes)
        # perm(G/K) vanishes off the classes K meets, and is held so
        assert set(chi.support) == {data.class_of[i] for i in k.indices}


def test_non_integral_frobenius_quotient_raises():
    # a1's class {a1, a2, a3} meets <a1> once: 294 * 1 / (3 * 7) = 14
    # cosets; claiming a fourth member gives 294 / 28, not an integer
    ctx = make_context(7)
    triple = find_generating_triple(ctx)
    data = ClassData(Group(ctx.p))
    a1 = index_of(fermat_a1(7))
    c = data.class_of[a1]
    assert data.sizes[c] == 3
    data.sizes = data.sizes[:c] + (4,) + data.sizes[c + 1:]
    k = subgroup_closure(data.group, [a1])
    with pytest.raises(InconsistentOrbifoldError):
        coset_genus(k, triple, data)
    with pytest.raises(InconsistentOrbifoldError):
        induced_perm_character(k, data)


@pytest.mark.parametrize("p", [q for q in primes_upto(61) if q >= 5])
def test_closed_form_classes_match_the_orbit_walk(p):
    """The same classes in the same order, the same class of every
    element and the same sizes, for the Fermat group and for the p-gonal
    group of each root."""
    ctx = make_context(p)
    for group in [Group(p)] + [Group(p, g) for g in ctx.gamma_pair or ()]:
        data = ClassData(group)
        walk = conjugacy_classes(group)
        assert class_members(data) == walk
        assert data.reps == tuple(cls[0] for cls in walk)
        assert data.sizes == tuple(map(len, walk))
        class_of = [0] * group.order
        for c, cls in enumerate(walk):
            for i in cls:
                class_of[i] = c
        assert data.class_of == class_of
    assert class_rule_gap(ClassData(Group(p))) is None


def test_class_rule_gap_serves_the_fermat_group_only():
    ctx = make_context(7)
    with pytest.raises(GroupMismatchError):
        class_rule_gap(ClassData(Group(7, ctx.gamma)))


def test_merged_classes_fail_verify(capsys, monkeypatch):
    monkeypatch.setattr(
        groups_module, "translation_orbit_reps", merge_axis_class(groups_module.translation_orbit_reps)
    )
    code = cli.main(["verify", "--p", "13", "--depth", "full"])
    out, err = capsys.readouterr()
    assert code == 4
    assert "FAIL generating-triple" in out
    assert "Traceback" not in err


def test_merged_classes_fail_verify_under_python_O():
    run = run_under_O(
        "from fermatjac import cli, groups\n"
        "from helpers import merge_axis_class\n"
        "groups.translation_orbit_reps = merge_axis_class(groups.translation_orbit_reps)\n"
        "sys.exit(cli.main(['verify', '--p', '13', '--depth', 'full']))\n"
    )
    assert run.returncode == 4, run.stdout + run.stderr
    assert "FAIL generating-triple" in run.stdout
    assert "Traceback" not in run.stderr


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
        return frozenset(data.class_of[i] for i in k.indices if fermat_order(p, i) == k.order)

    def oracles(k):
        return rh_genus(g_top, k, fix), coset_genus(k, triple, data)

    reps = cyclic_subgroup_classes(data)
    assert reps[0].indices == (IDENTITY,)
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


def test_a_dropped_deck_class_fails_verify(capsys, monkeypatch):
    # one deck representative fewer: the oracles agree on what is left,
    # but the certificates count the deck classes against the orbits
    monkeypatch.setattr(groups_module, "cyclic_subgroup_classes", drop_deck_class(groups_module.cyclic_subgroup_classes))
    code = cli.main(["verify", "--p", "13", "--depth", "full"])
    out, err = capsys.readouterr()
    assert code == 4
    assert "PASS dual-oracle-genus" in out
    assert "FAIL certificates: p = 13: 2 deck line classes meet 2 of the 3 exponent orbits" in out
    assert "verification failed at check: certificates" in err
    assert "Traceback" not in err


def test_a_dropped_deck_class_fails_verify_under_python_O():
    run = run_under_O(
        "from fermatjac import cli, groups\n"
        "from helpers import drop_deck_class\n"
        "groups.cyclic_subgroup_classes = drop_deck_class(groups.cyclic_subgroup_classes)\n"
        "sys.exit(cli.main(['verify', '--p', '13', '--depth', 'full']))\n"
    )
    assert run.returncode == 4, run.stdout + run.stderr
    assert "FAIL certificates: p = 13: 2 deck line classes meet 2 of the 3 exponent orbits" in run.stdout
    assert "Traceback" not in run.stderr


def test_split_class_fails_verify(capsys, monkeypatch):
    # earlier checks read the split labels consistently; only the
    # invariance of the labels under conjugation catches them
    monkeypatch.setattr(
        groups_module, "translation_orbit_reps", split_generic_class(groups_module.translation_orbit_reps)
    )
    code = cli.main(["verify", "--p", "13", "--depth", "full"])
    out, err = capsys.readouterr()
    assert code == 4
    assert "FAIL fix-table-consistency: p = 13: conjugation by" in out
    assert "out of its class" in out
    assert "verification failed at check: fix-table-consistency" in err
    assert "Traceback" not in err


def test_split_class_fails_verify_under_python_O():
    run = run_under_O(
        "from fermatjac import cli, groups\n"
        "from helpers import split_generic_class\n"
        "groups.translation_orbit_reps = split_generic_class(groups.translation_orbit_reps)\n"
        "sys.exit(cli.main(['verify', '--p', '13', '--depth', 'full']))\n"
    )
    assert run.returncode == 4, run.stdout + run.stderr
    assert "FAIL fix-table-consistency: p = 13: conjugation by" in run.stdout
    assert "Traceback" not in run.stderr


def test_wrong_square_rule_fails_verify(capsys, monkeypatch):
    # (I - A) x merges elements of order 2 and 2p: the Riemann-Hurwitz
    # count of the first representative of order 2p is no integer
    monkeypatch.setattr(groups_module, "square_matrix", square_minus)
    code = cli.main(["verify", "--p", "13", "--depth", "full"])
    out, err = capsys.readouterr()
    assert code == 4
    assert "FAIL dual-oracle-genus: 2g-2 = 130, |K| = 26, sum fix = 156: no integer genus" in out
    assert "Traceback" not in err
    # a rule that keeps every size and Frobenius quotient passes every
    # count; only the class-constancy argument catches it
    monkeypatch.setattr(groups_module, "square_matrix", square_doubled_for_uv)
    code = cli.main(["verify", "--p", "13", "--depth", "full"])
    out, err = capsys.readouterr()
    assert code == 4
    assert "PASS dual-oracle-genus" in out
    assert "FAIL fix-table-consistency: p = 13: conjugation by sigma = 2 does not move the square rule" in out
    assert "verification failed at check: fix-table-consistency" in err
    assert "Traceback" not in err


def test_wrong_square_rule_fails_verify_under_python_O():
    for rule, check in (("square_minus", "dual-oracle-genus"), ("square_doubled_for_uv", "fix-table-consistency")):
        run = run_under_O(
            "from fermatjac import cli, groups\n"
            f"from helpers import {rule}\n"
            f"groups.square_matrix = {rule}\n"
            "sys.exit(cli.main(['verify', '--p', '13', '--depth', 'full']))\n"
        )
        assert run.returncode == 4, run.stdout + run.stderr
        assert f"FAIL {check}: p = 13" in run.stdout or f"FAIL {check}: 2g-2" in run.stdout
        assert "Traceback" not in run.stderr


def test_patched_action_entry_fails_verify(capsys, monkeypatch):
    # uv with the matrix of v: every check that reads the group law sees it
    wrong = ACTION[:PERM_UV] + (ACTION[PERM_UV - 1],) + ACTION[PERM_UV + 1:]
    monkeypatch.setattr(groups_module, "ACTION", wrong)
    code = cli.main(["verify", "--p", "13", "--depth", "full"])
    out, err = capsys.readouterr()
    assert code == 4
    assert "FAIL " in out and "verification failed at check: " in err
    assert "Traceback" not in err


def test_patched_action_entry_fails_verify_under_python_O():
    run = run_under_O(
        "from fermatjac import cli, groups\n"
        "uv = groups.PERM_UV\n"
        "groups.ACTION = groups.ACTION[:uv] + (groups.ACTION[uv - 1],) + groups.ACTION[uv + 1:]\n"
        "sys.exit(cli.main(['verify', '--p', '13', '--depth', 'full']))\n"
    )
    assert run.returncode == 4, run.stdout + run.stderr
    assert "verification failed at check: " in run.stderr
    assert "Traceback" not in run.stderr


def test_verify_full_builds_no_closure_of_two_elements(capsys, monkeypatch):
    """Generation is proved by argument and the oracles run on class
    representatives: no list of every cyclic subgroup and no closure of
    two or more elements."""

    def refuse(*args, **kwargs):
        raise AssertionError("called")

    real = groups_module.all_cyclic_subgroups
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "fermatjac" or mod_name.startswith("fermatjac."):
            for attr, value in list(vars(mod).items()):
                if value is real:
                    monkeypatch.setattr(mod, attr, refuse)
    closure = Group.closure

    def one_element_closure(self, generators):
        gens = tuple(generators)
        if len(gens) > 1:
            raise AssertionError(f"closure of {len(gens)} elements")
        return closure(self, gens)

    monkeypatch.setattr(Group, "closure", one_element_closure)
    code = cli.main(["verify", "--p", "13", "--depth", "full", "--format", "json"])
    out, _ = capsys.readouterr()
    assert code == 0
    assert out == (GOLDEN / "verify_p13_full.json").read_text()
