"""The integer kernel against element objects.

The kernel's permutations must agree with FermatAut multiplication, its
orders, conjugacy classes and generating triple with the object-level
versions, and the coset oracle, permutation characters and pairings
built on it with the object-level paths in helpers.py.  The coset
labelling on indices in helpers.py, the oracle of test_class_oracle.py,
must agree with object-level cosets.
"""

import pytest

from fermatjac.certificates import (
    ClassData,
    ClassFunction,
    chi_rat,
    chi_trivial,
    induced_perm_character,
    inner_product,
)
from fermatjac.errors import FlavorMismatchError, OutOfRangeError
from fermatjac.genus import coset_genus, find_generating_triple, pgonal_fix_table
from fermatjac.groups import (
    FLAVOR_FERMAT,
    FLAVOR_P_GONAL,
    Subgroup,
    all_cyclic_subgroups,
    conjugacy_classes,
    element_index,
    fermat_closure,
    fermat_element,
    fermat_elements,
    fermat_generators,
    fermat_H,
    fermat_Hj,
    fermat_index,
    fermat_left_mul,
    fermat_order,
    fermat_right_mul_perm,
    left_cosets,
    order,
    pgonal_group,
    pgonal_K,
    pgonal_elements,
    subgroup_closure,
)
from fermatjac.orbits import make_context

from helpers import (
    fermat_coset_labels,
    object_conjugacy_classes,
    object_coset_genus,
    object_fixed_cosets,
    object_generating_triple,
    object_inner_product,
    object_left_cosets,
    object_perm_character,
    primes_upto,
)


@pytest.mark.parametrize("p", (5, 7))
def test_index_is_the_canonical_order(p):
    els = list(fermat_elements(p))
    assert [fermat_index(g) for g in els] == list(range(6 * p * p))
    assert [fermat_element(p, i) for i in range(6 * p * p)] == els
    assert [element_index(g) for g in pgonal_elements(make_context(7))] == list(range(21))


@pytest.mark.parametrize("p", (5, 7, 11, 13))
def test_orders_from_the_group_law(p):
    assert [fermat_order(p, i) for i in range(6 * p * p)] == [order(g) for g in fermat_elements(p)]


@pytest.mark.parametrize("p", (5, 7))
def test_closure_matches_object_closure(p):
    gens = fermat_generators(p)
    for sub_gens in ([gens[0]], gens[:2], gens[2:], [gens[0] * gens[2]], gens):
        members = fermat_closure(sub_gens)
        assert sorted(members) == sorted(fermat_index(g) for g in subgroup_closure(sub_gens))
        assert len(set(members)) == len(members)


@pytest.mark.parametrize("p", [q for q in primes_upto(19) if q >= 5])
def test_triple_search_matches_object_search(p):
    assert find_generating_triple(make_context(p)) == object_generating_triple(p)


@pytest.mark.parametrize("p", (5, 7, 11, 13))
def test_conjugacy_classes_match_object_classes(p):
    ctx = make_context(p)
    assert conjugacy_classes(FLAVOR_FERMAT, ctx) == object_conjugacy_classes(FLAVOR_FERMAT, ctx)
    if ctx.has_gamma:
        assert conjugacy_classes(FLAVOR_P_GONAL, ctx) == object_conjugacy_classes(FLAVOR_P_GONAL, ctx)


@pytest.mark.parametrize("p", (5, 7))
def test_inner_product_matches_object_element_sum(p):
    ctx = make_context(p)
    data = ClassData(FLAVOR_FERMAT, ctx)
    rat = chi_rat(ctx, find_generating_triple(ctx), data)
    s3 = subgroup_closure(fermat_generators(p)[2:])
    fns = [chi_trivial(data), rat] + [induced_perm_character(k, data) for k in (fermat_Hj(p, 1), fermat_H(p), s3)]
    for f1 in fns:
        for f2 in fns:
            assert inner_product(f1, f2) == object_inner_product(f1, f2, fermat_elements(p))
    # the p-gonal group takes the same index path
    ctx = make_context(7)
    data = ClassData(FLAVOR_P_GONAL, ctx)
    fix = pgonal_fix_table(ctx)
    hom = ClassFunction(data, [6 if c[0].is_identity else 2 - fix.count(c[0]) for c in data.classes])
    for k in (pgonal_K(1, ctx), pgonal_group(ctx)):
        chi = induced_perm_character(k, data)
        assert inner_product(chi, hom) == object_inner_product(chi, hom, pgonal_elements(ctx))


@pytest.mark.parametrize("p", (5, 7))
def test_permutations_match_object_multiplication(p):
    els = list(fermat_elements(p))
    everything = range(len(els))
    for c in els[::11] + list(fermat_generators(p)):
        left = fermat_left_mul(c, everything)
        right = fermat_right_mul_perm(c)
        assert left == [fermat_index(c * x) for x in els]
        assert right == [fermat_index(x * c) for x in els]
        assert sorted(left) == sorted(right) == list(everything)


@pytest.mark.parametrize("p", (5, 7))
def test_coset_labels_match_object_cosets(p):
    els = list(fermat_elements(p))
    subgroups = all_cyclic_subgroups(FLAVOR_FERMAT, make_context(p))
    subgroups += [fermat_H(p), fermat_Hj(p, 1), subgroup_closure(fermat_generators(p)[2:])]
    for k in subgroups:
        reps, label = fermat_coset_labels(k)
        obj_reps, index_of = object_left_cosets(k, els)
        assert reps == [fermat_index(g) for g in obj_reps]
        assert label == [index_of[g] for g in els]
        assert left_cosets(k, els) == (obj_reps, {g: index_of[g] for g in els})


def test_left_cosets_pgonal_wrapper():
    ctx = make_context(7)
    els = list(pgonal_elements(ctx))
    for k in [pgonal_K(i, ctx) for i in (1, 2, 3)] + [pgonal_group(ctx)]:
        reps, index_of = object_left_cosets(k, els)
        assert left_cosets(k, els) == (reps, {g: index_of[g] for g in els})


def test_coset_labels_refuse_bad_subgroups():
    p = 5
    h1 = fermat_Hj(p, 1)
    # generators that generate less than the element set
    with pytest.raises(OutOfRangeError):
        fermat_coset_labels(Subgroup((h1.identity,), h1.elements))
    # a generator outside the element set
    with pytest.raises(OutOfRangeError):
        fermat_coset_labels(Subgroup(fermat_Hj(p, 2).generators, h1.elements))
    with pytest.raises(FlavorMismatchError):
        fermat_coset_labels(pgonal_K(1, make_context(7)))


@pytest.mark.parametrize("p", (5, 7, 11, 13))
def test_kernel_matches_object_level_oracles(p):
    """coset_genus and induced_perm_character on every cyclic subgroup,
    against object-level cosets and Frobenius' formula."""
    ctx = make_context(p)
    triple = find_generating_triple(ctx)
    data = ClassData(FLAVOR_FERMAT, ctx)
    for k in all_cyclic_subgroups(FLAVOR_FERMAT, ctx):
        assert coset_genus(k, triple, data) == object_coset_genus(k, triple)
        values = list(induced_perm_character(k, data).values)
        assert values == object_perm_character(k, data.classes)
        if p <= 7:
            assert values == object_fixed_cosets(k, data.classes)
