"""The class-arithmetic coset oracle against explicit coset labelling.

coset_genus, the fiber-model fix table and induced_perm_character read
conjugacy classes only (Burnside's lemma and Frobenius' formula); the
helpers label every coset of G/K on element indices and count cycles and
fixed cosets on the labels.  verify runs both genus oracles on one cyclic
subgroup per conjugacy class; every cyclic subgroup is the oracle for
that reduction, and class data that is not closed under conjugation must
fail verify.
"""

import sys
from pathlib import Path

import pytest

from fermatjac import cli
from fermatjac import groups as groups_module
from fermatjac.certificates import induced_perm_character
from fermatjac.errors import InconsistentOrbifoldError
from fermatjac.genus import coset_genus, fermat_full_fix_table, fermat_genus, find_generating_triple, rh_genus
from fermatjac.groups import (
    IDENTITY,
    ClassData,
    Group,
    all_cyclic_subgroups,
    cyclic_subgroup_classes,
    fermat_a1,
    fermat_H,
    fermat_Hj,
    fermat_order,
    subgroup_closure,
)
from fermatjac.orbits import make_context

from helpers import (
    labelled_coset_genus,
    labelled_fix_count,
    labelled_perm_character,
    merge_axis_class,
    primes_upto,
    run_under_O,
    split_generic_class,
)

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("p", [q for q in primes_upto(31) if q >= 5])
def test_class_arithmetic_matches_coset_labelling(p):
    ctx = make_context(p)
    triple = find_generating_triple(ctx)
    data = ClassData(Group(ctx.p))
    fix = fermat_full_fix_table(triple, data)
    reps = [data.group.element(cls[0]) for cls in data.classes if cls[0] != IDENTITY]
    assert [fix.count(g) for g in reps] == [labelled_fix_count(g, triple) for g in reps]
    hj = [fermat_Hj(p, j) for j in range(1, p - 1)]
    for k in all_cyclic_subgroups(Group(ctx.p)) + [fermat_H(p)] + hj:
        assert coset_genus(k, triple, data) == labelled_coset_genus(k, triple)
    for k in [fermat_H(p)] + hj:
        chi = induced_perm_character(k, data)
        assert list(chi.values) == labelled_perm_character(k, data.classes)


def test_non_integral_frobenius_quotient_raises():
    # a1's class {a1, a2, a3} meets <a1> once: 294 * 1 / (3 * 7) = 14
    # cosets; claiming a fourth member gives 294 / 28, not an integer
    ctx = make_context(7)
    triple = find_generating_triple(ctx)
    data = ClassData(Group(ctx.p))
    c = data.class_of[data.group.index(fermat_a1(7))]
    assert data.sizes[c] == 3
    data.sizes = data.sizes[:c] + (4,) + data.sizes[c + 1:]
    k = subgroup_closure([fermat_a1(7)])
    with pytest.raises(InconsistentOrbifoldError):
        coset_genus(k, triple, data)
    with pytest.raises(InconsistentOrbifoldError):
        induced_perm_character(k, data)


def test_merged_classes_fail_verify(capsys, monkeypatch):
    monkeypatch.setattr(groups_module, "conjugacy_classes", merge_axis_class(groups_module.conjugacy_classes))
    code = cli.main(["verify", "--p", "13", "--depth", "full"])
    out, err = capsys.readouterr()
    assert code == 4
    assert "FAIL generating-triple" in out
    assert "Traceback" not in err


def test_merged_classes_fail_verify_under_python_O():
    run = run_under_O(
        "from fermatjac import cli, groups\n"
        "from helpers import merge_axis_class\n"
        "groups.conjugacy_classes = merge_axis_class(groups.conjugacy_classes)\n"
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
    triple = find_generating_triple(make_context(p), limit=p)
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


def test_split_class_fails_verify(capsys, monkeypatch):
    # earlier checks read the split labels consistently; only the
    # invariance of the labels under conjugation catches them
    monkeypatch.setattr(groups_module, "conjugacy_classes", split_generic_class(groups_module.conjugacy_classes))
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
        "groups.conjugacy_classes = split_generic_class(groups.conjugacy_classes)\n"
        "sys.exit(cli.main(['verify', '--p', '13', '--depth', 'full']))\n"
    )
    assert run.returncode == 4, run.stdout + run.stderr
    assert "FAIL fix-table-consistency: p = 13: conjugation by" in run.stdout
    assert "Traceback" not in run.stderr


def test_verify_full_builds_no_closure_of_two_elements(capsys, monkeypatch):
    """Generation is proved by argument and the oracles run on class
    representatives: no object closure, no list of every cyclic subgroup
    and no index closure of two or more elements."""

    def refuse(*args, **kwargs):
        raise AssertionError("called")

    for name in ("mulclose", "all_cyclic_subgroups"):
        real = getattr(groups_module, name)
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
