"""The class-arithmetic coset oracle against explicit coset labelling.

coset_genus, the fiber-model fix table and induced_perm_character read
conjugacy classes only (Burnside's lemma and Frobenius' formula); the
helpers label every coset of G/K on element indices and count cycles and
fixed cosets on the labels.
"""

import pytest

from fermatjac import cli
from fermatjac import groups as groups_module
from fermatjac.certificates import induced_perm_character
from fermatjac.errors import InconsistentOrbifoldError
from fermatjac.genus import coset_genus, fermat_full_fix_table, find_generating_triple
from fermatjac.groups import (
    IDENTITY,
    ClassData,
    Group,
    all_cyclic_subgroups,
    fermat_a1,
    fermat_H,
    fermat_Hj,
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
)


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
