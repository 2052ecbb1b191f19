import pytest

from fermatjac.certificates import (
    ClassData,
    chi_rat,
    chi_trivial,
    induced_perm_character,
    inner_product,
)
from fermatjac.errors import CheckFailedError, GroupMismatchError, OutOfRangeError, ShapeMismatchError
from fermatjac.genus import (
    coset_genus,
    fermat_full_fix_table,
    fermat_genus,
    find_generating_triple,
)
from fermatjac.groups import (
    IDENTITY,
    Group,
    all_cyclic_subgroups,
    fermat_H,
    fermat_Hj,
    subgroup_closure,
    trivial_subgroup,
)
from fermatjac.orbits import make_context

from helpers import element_inner_product, fermat_a1, fermat_u, fermat_v, index_of, pgonal_T


@pytest.fixture(scope="module", params=(5, 7))
def setup(request):
    p = request.param
    ctx = make_context(p)
    triple = find_generating_triple(ctx)
    data = ClassData(Group(ctx.p))
    return p, ctx, triple, data


def test_chi_rat_values(setup):
    p, ctx, triple, data = setup
    rat = chi_rat(fermat_full_fix_table(triple, data), data)
    assert rat.at_identity == (p - 1) * (p - 2) == 2 * fermat_genus(p)
    assert rat(index_of(fermat_a1(p))) == 2 - p
    # a freely acting translation contributes trace 2
    assert rat(fermat_Hj(p, 1).indices[1]) == 2


def test_trivial_pairings(setup):
    p, ctx, triple, data = setup
    rat = chi_rat(fermat_full_fix_table(triple, data), data)
    triv = chi_trivial(data)
    assert inner_product(triv, rat) == 0
    assert inner_product(triv, triv) == 1
    norm = inner_product(rat, rat)
    assert type(norm) is int and norm > 0


def test_induced_character_identities(setup):
    p, ctx, triple, data = setup
    # K = G gives the trivial character, K = 1 the regular character
    full = subgroup_closure(Group(p), map(index_of, (fermat_a1(p), fermat_u(p), fermat_v(p))))
    assert full.order == 6 * p * p
    chi_full = induced_perm_character(full, data)
    assert chi_full.values == chi_trivial(data).values
    chi_reg = induced_perm_character(trivial_subgroup(Group(p)), data)
    assert chi_reg.at_identity == 6 * p * p
    assert all(
        v == 0 for i, v in enumerate(chi_reg.values) if i != data.identity_index
    )


def test_induced_vs_homology_pairing_Hj(setup):
    p, ctx, triple, data = setup
    rat = chi_rat(fermat_full_fix_table(triple, data), data)
    for j in range(1, p - 1):
        chi = induced_perm_character(fermat_Hj(p, j), data)
        assert chi.at_identity == 6 * p
        value = inner_product(chi, rat)
        assert value == p - 1
        assert type(value) is int
        assert element_inner_product(chi, rat) == value


def test_pairing_equals_twice_quotient_genus(setup):
    """Frobenius reciprocity loop: <Ind_K 1, hom> = 2 genus(quotient by K)
    across subgroup families, tying three modules together."""
    p, ctx, triple, data = setup
    rat = chi_rat(fermat_full_fix_table(triple, data), data)
    subgroups = all_cyclic_subgroups(Group(ctx.p))
    subgroups.append(fermat_H(p))
    for k in subgroups:
        chi = induced_perm_character(k, data)
        assert inner_product(chi, rat) == 2 * coset_genus(k, triple, data)


def test_perm_character_at_Hj_p5():
    ctx = make_context(5)
    data = ClassData(Group(ctx.p))
    chi = induced_perm_character(fermat_Hj(5, 1), data)
    assert chi.at_identity == 30


def test_flavor_mismatch():
    ctx5, ctx7 = make_context(5), make_context(7)
    d5, d7 = ClassData(Group(ctx5.p)), ClassData(Group(ctx7.p))
    with pytest.raises(GroupMismatchError):
        inner_product(chi_trivial(d5), chi_trivial(d7))
    with pytest.raises(GroupMismatchError):
        induced_perm_character(fermat_Hj(7, 1), d5)


def test_class_functions_refuse_indices_outside_the_group():
    # without the check, -1 would read the class of the last element and 150 raise IndexError
    data = ClassData(Group(5))
    triv = chi_trivial(data)
    for bad in (-1, -150, 150, 294):
        with pytest.raises(OutOfRangeError):
            triv(bad)
    assert triv(149) == triv(IDENTITY) == 1
    pgonal = chi_trivial(ClassData(Group(7, 2)))
    for bad in (-1, 21):
        with pytest.raises(OutOfRangeError):
            pgonal(bad)


def test_chi_rat_refuses_a_foreign_context():
    # chi(1) = 2g comes from the class data's group and every other value
    # from the fix table: both must be the one Fermat group
    from fermatjac.genus import pgonal_fix_table

    ctx13 = make_context(13)
    triple, data = find_generating_triple(ctx13), ClassData(Group(13))
    fix = fermat_full_fix_table(triple, data)
    with pytest.raises(GroupMismatchError):
        chi_rat(fix, ClassData(Group(7)))
    with pytest.raises(GroupMismatchError):
        chi_rat(pgonal_fix_table(ctx13), ClassData(Group(13, ctx13.gamma)))
    assert chi_rat(fix, data).at_identity == 12 * 11


def test_malformed_class_functions_are_typed_errors():
    from fermatjac.certificates import ClassFunction
    from fermatjac.groups import Subgroup

    d5 = ClassData(Group(5))
    with pytest.raises(ShapeMismatchError):
        ClassFunction(d5, [1, 2])
    # {1, T} is not closed, so its 21 translates are not 21 / 2 cosets
    ctx = make_context(7)
    group = Group(7, ctx.gamma)
    t = index_of(pgonal_T(ctx))
    not_a_group = Subgroup(group, (t,), (IDENTITY, t))
    with pytest.raises(CheckFailedError):
        induced_perm_character(not_a_group, ClassData(Group(ctx.p, ctx.gamma)))


def test_inner_product_refuses_a_non_integral_pairing():
    # a class function on one non-central class C pairs with the trivial
    # character to |C| / |G|, which is no integer
    from fermatjac.certificates import ClassFunction

    data = ClassData(Group(5))
    c = next(c for c, size in enumerate(data.sizes) if size > 1)
    one_class = ClassFunction.on_support(data, {c: 1}, "one class")
    with pytest.raises(CheckFailedError, match="<one class, trivial> = "):
        inner_product(one_class, chi_trivial(data))


def test_pgonal_class_data_and_pairing():
    ctx = make_context(7)
    data = ClassData(Group(ctx.p, ctx.gamma))
    assert data.order == 21
    # homology character from the fixed-point data: p-1 at 1, -1 on T
    # powers, 0 on order-3 maps; pairing with the trivial character is 0
    from fermatjac.certificates import ClassFunction
    from fermatjac.genus import pgonal_fix_table

    fix = pgonal_fix_table(ctx)
    values = []
    for rep in data.reps:
        values.append(7 - 1 if rep == IDENTITY else 2 - fix.at(rep))
    hom = ClassFunction(data, values, "pgonal homology")
    assert inner_product(chi_trivial(data), hom) == 0
    assert element_inner_product(chi_trivial(data), hom) == 0
    assert hom(index_of(pgonal_T(ctx))) == -1
