"""The integer kernel against element objects.

The kernel's left multiplication must agree with the multiplication of
the element objects in helpers.py, its closures with object-level
closures, its orders,
conjugacy classes and generating triple with the object-level versions,
and the coset oracle, permutation characters and pairings built on it
with the object-level paths in helpers.py.  The coset labelling on
indices in helpers.py, the oracle of test_class_oracle.py, must agree
with object-level cosets.
"""

import pytest

from fermatjac import cli
from fermatjac.certificates import (
    ClassData,
    ClassFunction,
    chi_rat,
    chi_trivial,
    induced_perm_character,
    inner_product,
)
from fermatjac.errors import GroupMismatchError, OutOfRangeError
from fermatjac.genus import coset_genus, fermat_full_fix_table, find_generating_triple, pgonal_fix_table
from fermatjac.groups import (
    IDENTITY,
    Group,
    all_cyclic_subgroups,
    conjugacy_classes,
    fermat_H,
    fermat_Hj,
    fermat_order,
    left_cosets,
    pgonal_group,
    pgonal_K,
    subgroup_closure,
)
from fermatjac.orbits import make_context

from helpers import (
    canonical_elements,
    class_values,
    elements,
    fermat_coset_labels,
    fermat_elements,
    fermat_generators,
    index_of,
    mulclose,
    object_generators,
    object_conjugacy_classes,
    object_coset_genus,
    object_fixed_cosets,
    object_generating_triple,
    object_inner_product,
    object_left_cosets,
    object_perm_character,
    order,
    pgonal_elements,
    primes_upto,
    right_mul_perm,
    root_context,
    subgroup_elements,
)

# The Fermat groups at p = 5, 7 and the p-gonal group of each root for
# every prime 7 <= p <= 31 with p = 1 mod 3.
FERMAT_GROUPS = [pytest.param(Group(p), id=str(p)) for p in (5, 7)]
PGONAL_GROUPS = [
    pytest.param(Group(p, gamma), id=f"pgonal-{p}-{gamma}")
    for p in (7, 13, 19, 31)
    for gamma in make_context(p).gamma_pair
]


@pytest.mark.parametrize("p", (5, 7))
def test_index_is_the_canonical_order(p):
    group = Group(p)
    els = list(fermat_elements(p))
    assert [group.coordinates(i) for i in range(6 * p * p)] == [(g.m, g.n, g.sigma) for g in els]
    ctx = make_context(7)
    for gamma in ctx.gamma_pair:
        group = Group(7, gamma)
        els = list(pgonal_elements(ctx, gamma))
        assert [group.coordinates(i) for i in range(21)] == [(g.k, g.e) for g in els]


@pytest.mark.parametrize("p", (5, 7, 11, 13))
def test_orders_from_the_group_law(p):
    assert [fermat_order(p, i) for i in range(6 * p * p)] == [order(g) for g in fermat_elements(p)]


def _object_set(k):
    return frozenset(subgroup_elements(k))


@pytest.mark.parametrize("group", FERMAT_GROUPS + PGONAL_GROUPS)
def test_closure_matches_object_closure(group):
    """subgroup_closure, the cyclic subgroups and, in the p-gonal group,
    pgonal_K and the closures of each pair of K_i give the element sets
    of mulclose."""
    gens = object_generators(group)
    assert group.generators == tuple(map(index_of, gens))
    for sub_gens in ([gens[0]], [gens[-1]], gens[:2], gens[2:], [gens[0] * gens[-1]], gens):
        if not sub_gens:
            continue
        indices = list(map(index_of, sub_gens))
        members = group.closure(indices)
        assert len(set(members)) == len(members)
        assert _object_set(subgroup_closure(group, indices)) == mulclose(sub_gens)
    universe = canonical_elements(group)
    cyclic = all_cyclic_subgroups(group)
    assert {_object_set(k) for k in cyclic} == {frozenset(mulclose([g])) for g in universe}
    assert len(cyclic) == len({tuple(elements(k)) for k in cyclic})
    for k in cyclic:
        assert _object_set(k) == mulclose([universe[k.generators[0]]])
    if group.gamma is None:
        return
    t, gen = gens
    ctx = root_context(group.p, group.gamma)
    ks = [pgonal_K(i, ctx) for i in (1, 2, 3)]
    for k in ks:  # K_i = T^(-(i-1)) <R> T^(i-1)
        assert _object_set(k) == mulclose([gen])
        gen = t.inverse() * gen * t
    for i in range(3):
        for j in range(3):
            both = subgroup_elements(ks[i]) + subgroup_elements(ks[j])
            assert _object_set(subgroup_closure(group, map(index_of, both))) == mulclose(both)


def _powers_by_mul(group, g):
    """1, g, g^2, ... up to g^(-1), one Group.mul at a time."""
    members, x = [IDENTITY], g
    while x != IDENTITY:
        members.append(x)
        x = group.mul(g, x)
    return members


@pytest.mark.parametrize(
    "group", [Group(5), Group(7)] + [Group(p, gamma) for p in (7, 13) for gamma in make_context(p).gamma_pair],
    ids=str,
)
def test_one_generator_closure_is_the_bfs(group):
    # the closure of one element lists its powers g, g^2, ... in the
    # BFS's order of discovery, so g^(-1) last
    for g in range(group.order):
        assert group.closure([g]) == _powers_by_mul(group, g), group.coordinates(g)
    with pytest.raises(OutOfRangeError):
        group.closure([group.order])


def test_full_verify_walks_cyclic_subgroups_as_powers(monkeypatch, capsys):
    # no subgroup is closed, so no left_mul call is made per element:
    # verify --p 13 --depth full makes 14 left_mul calls, at most 22 (85
    # when one-generator closures walked left_mul)
    calls = []
    real = Group.left_mul
    monkeypatch.setattr(Group, "left_mul", lambda self, g, indices: calls.append(g) or real(self, g, indices))
    assert cli.main(["verify", "--p", "13", "--depth", "full"]) == 0
    assert len(calls) <= 22


@pytest.mark.parametrize("p", [q for q in primes_upto(31) if q >= 5])
def test_triple_search_matches_object_search(p):
    # the closed form is the first triple of the object search, which
    # takes orders by repeated multiplication and generation from a
    # closure of element objects
    assert find_generating_triple(make_context(p)) == object_generating_triple(p)


@pytest.mark.parametrize("p", (5, 7, 11, 13))
def test_conjugacy_classes_match_object_classes(p):
    ctx = make_context(p)
    assert conjugacy_classes(Group(ctx.p)) == object_conjugacy_classes(Group(ctx.p))
    if ctx.has_gamma:
        assert conjugacy_classes(Group(ctx.p, ctx.gamma)) == object_conjugacy_classes(Group(ctx.p, ctx.gamma))


@pytest.mark.parametrize("p", (5, 7))
def test_inner_product_matches_object_element_sum(p):
    ctx = make_context(p)
    data = ClassData(Group(ctx.p))
    rat = chi_rat(fermat_full_fix_table(find_generating_triple(ctx), data), data)
    s3 = subgroup_closure(Group(p), map(index_of, fermat_generators(p)[2:]))
    fns = [chi_trivial(data), rat] + [induced_perm_character(k, data) for k in (fermat_Hj(p, 1), fermat_H(p), s3)]
    for f1 in fns:
        for f2 in fns:
            assert inner_product(f1, f2) == object_inner_product(f1, f2, fermat_elements(p))
    # the p-gonal group takes the same index path
    ctx = make_context(7)
    data = ClassData(Group(ctx.p, ctx.gamma))
    fix = pgonal_fix_table(ctx)
    hom = ClassFunction(data, {data.key(c[0]): 6 if c[0] == IDENTITY else 2 - fix.at(c[0]) for c in conjugacy_classes(data.group)})
    for k in (pgonal_K(1, ctx), pgonal_group(ctx)):
        chi = induced_perm_character(k, data)
        assert inner_product(chi, hom) == object_inner_product(chi, hom, pgonal_elements(ctx))


@pytest.mark.parametrize("group", FERMAT_GROUPS + PGONAL_GROUPS)
def test_permutations_match_object_multiplication(group):
    """Left multiplication on indices, the kernel's group law, against
    __mul__: in the p-gonal group on every pair of elements.  In the
    Fermat group, also the right multiplication of the coset labelling."""
    els = list(canonical_elements(group))
    everything = range(len(els))
    multipliers = els if group.gamma is not None else els[::11] + list(object_generators(group))
    for c in multipliers:
        i = index_of(c)
        left = group.left_mul(i, everything)
        assert left == [index_of(c * x) for x in els]
        assert sorted(left) == list(everything)
        assert [group.mul(i, x) for x in everything[::7]] == left[::7]
        if group.gamma is None:
            assert right_mul_perm(group, i) == [index_of(x * c) for x in els]


@pytest.mark.parametrize("p", (5, 7))
def test_coset_labels_match_object_cosets(p):
    els = list(fermat_elements(p))
    subgroups = all_cyclic_subgroups(Group(p))
    subgroups += [fermat_H(p), fermat_Hj(p, 1), subgroup_closure(Group(p), Group(p).generators[2:])]
    for k in subgroups:
        reps, label = fermat_coset_labels(k)
        obj_reps, coset_of = object_left_cosets(k, els)
        assert reps == list(map(index_of, obj_reps))
        assert label == [coset_of[g] for g in els]
        assert left_cosets(k, range(len(els))) == (reps, dict(enumerate(label)))


def test_left_cosets_pgonal_wrapper():
    ctx = make_context(7)
    els = list(pgonal_elements(ctx))
    for k in [pgonal_K(i, ctx) for i in (1, 2, 3)] + [pgonal_group(ctx)]:
        reps, coset_of = object_left_cosets(k, els)
        expected = (list(map(index_of, reps)), {i: coset_of[g] for i, g in enumerate(els)})
        assert left_cosets(k, range(len(els))) == expected


def test_coset_labels_refuse_bad_subgroups():
    with pytest.raises(GroupMismatchError):
        fermat_coset_labels(pgonal_K(1, make_context(7)))


@pytest.mark.parametrize("p", (5, 7, 11, 13))
def test_kernel_matches_object_level_oracles(p):
    """coset_genus and induced_perm_character on every cyclic subgroup,
    against object-level cosets and Frobenius' formula."""
    ctx = make_context(p)
    triple = find_generating_triple(ctx)
    data = ClassData(Group(ctx.p))
    classes = object_conjugacy_classes(data.group)
    for k in all_cyclic_subgroups(Group(ctx.p)):
        assert coset_genus(k, triple, data) == object_coset_genus(k, triple)
        values = class_values(induced_perm_character(k, data), classes)
        assert values == object_perm_character(k, classes)
        if p <= 7:
            assert values == object_fixed_cosets(k, classes)
