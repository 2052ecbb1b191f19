"""The integer coset kernel against element objects.

The kernel's permutations must agree with FermatAut multiplication, its
cosets with object-level cosets, and the coset oracle and permutation
characters built on it with the object-level paths in helpers.py.
"""

import pytest

from fermatjac.certificates import ClassData, induced_perm_character
from fermatjac.errors import FlavorMismatchError, OutOfRangeError
from fermatjac.genus import coset_genus, find_generating_triple
from fermatjac.groups import (
    FLAVOR_FERMAT,
    Subgroup,
    all_cyclic_subgroups,
    fermat_coset_labels,
    fermat_elements,
    fermat_generators,
    fermat_H,
    fermat_Hj,
    fermat_index,
    fermat_left_mul,
    fermat_right_mul_perm,
    left_cosets,
    pgonal_group,
    pgonal_K,
    pgonal_elements,
    subgroup_closure,
)
from fermatjac.orbits import make_context

from helpers import (
    object_coset_genus,
    object_fixed_cosets,
    object_left_cosets,
    object_perm_character,
)


@pytest.mark.parametrize("p", (5, 7))
def test_index_is_the_canonical_order(p):
    assert [fermat_index(g) for g in fermat_elements(p)] == list(range(6 * p * p))


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
        assert coset_genus(k, triple) == object_coset_genus(k, triple)
        values = list(induced_perm_character(k, data).values)
        assert values == object_perm_character(k, data.classes)
        if p <= 7:
            assert values == object_fixed_cosets(k, data.classes)
