import random

import pytest

from fermatjac.errors import GroupMismatchError, NoGammaError, OutOfRangeError
from fermatjac.groups import (
    ACTION,
    IDENTITY,
    PERM_ID,
    PERM_MUL,
    PERM_U,
    PERM_V,
    ClassData,
    Group,
    Subgroup,
    all_cyclic_subgroups,
    conjugacy_classes,
    deck_index,
    deck_line,
    fermat_H,
    fermat_Hj,
    fermat_order,
    fermat_translation,
    gcd,
    left_cosets,
    line_of,
    line_orbits,
    line_point,
    line_points,
    pgonal_K,
    plane_lines,
    subgroup_closure,
)
from fermatjac.orbits import is_prime, make_context

from helpers import (
    FermatAut,
    PGonalAut,
    derive_s3_action,
    elements,
    fermat_a1,
    fermat_a2,
    fermat_a3,
    fermat_elements,
    fermat_identity,
    fermat_u,
    fermat_v,
    index_of,
    joined,
    object_gamma_pairs,
    order,
    pgonal_elements,
    pgonal_identity,
    pgonal_R,
    pgonal_T,
    subgroup_elements,
)


def test_s3_action_rederived_from_projective_maps():
    """The hard-coded ACTION matrices against the coordinate-map oracle."""
    for p in (5, 7, 13):
        derived = derive_s3_action(p)
        expected = tuple(tuple(x % p for x in ACTION[s]) for s in range(6))
        assert derived == expected


def test_perm_table_is_s3():
    # u has order 3, v order 2, and v u v = u^2
    assert PERM_MUL[PERM_U][PERM_MUL[PERM_U][PERM_U]] == PERM_ID
    assert PERM_MUL[PERM_V][PERM_V] == PERM_ID
    vuv = PERM_MUL[PERM_V][PERM_MUL[PERM_U][PERM_V]]
    assert vuv == PERM_MUL[PERM_U][PERM_U]
    # closed latin square
    for s in range(6):
        assert sorted(PERM_MUL[s]) == list(range(6))


def test_action_preserves_scaling_relation():
    # the action matrices permute {a1, a2, a3}, so they must fix the
    # relation a1 a2 a3 = 1: images of (1,0), (0,1), (-1,-1) sum to zero
    p = 7
    for s in range(6):
        a, b, c, d = ACTION[s]
        total_m = total_n = 0
        for (m, n) in ((1, 0), (0, 1), (-1, -1)):
            total_m += a * m + b * n
            total_n += c * m + d * n
        assert total_m % p == 0 and total_n % p == 0


def test_conjugation_cycles_the_scaling_generators():
    p = 5
    u, v = fermat_u(p), fermat_v(p)
    a1, a2, a3 = fermat_a1(p), fermat_a2(p), fermat_a3(p)
    assert u * a1 * u.inverse() == a2
    assert u * a2 * u.inverse() == a3
    assert u * a3 * u.inverse() == a1
    assert v * a1 * v.inverse() == a2
    assert v * a2 * v.inverse() == a1
    assert v * a3 * v.inverse() == a3
    assert (a1 * a2 * a3).is_identity


def test_group_axioms_exhaustive_p5_via_cayley_table():
    """The kernel's law, as a Cayley table of left multiplications, is a
    group law with identity IDENTITY; it is the element objects' law."""
    p = 5
    group = Group(p)
    els = list(fermat_elements(p))
    assert len(els) == 150
    table = [group.left_mul(a, range(150)) for a in range(150)]
    assert table == [[index_of(a * b) for b in els] for a in els]
    ident = index_of(fermat_identity(p))
    assert ident == IDENTITY
    for i, g in enumerate(els):
        assert table[i][ident] == i == table[ident][i]
        assert sorted(table[i]) == list(range(150))
        assert (g * g.inverse()).is_identity
        assert (g.inverse() * g).is_identity
    for i in range(150):
        row_i = table[i]
        for j in range(150):
            tij = row_i[j]
            row_tij = table[tij]
            row_j = table[j]
            for k in range(150):
                assert row_tij[k] == row_i[row_j[k]]


def test_pgonal_axioms_exhaustive_p7():
    ctx = make_context(7)
    els = list(pgonal_elements(ctx))
    assert len(els) == 21
    ident = pgonal_identity(ctx)
    group = Group(7, ctx.gamma)
    for g in els:
        assert (g * g.inverse()) == ident
        for h in els:
            for k in els:
                assert (g * h) * k == g * (h * k)
    for g in range(21):
        for h in range(21):
            gh = group.mul(g, h)
            assert group.left_mul(gh, range(21)) == group.left_mul(g, group.left_mul(h, range(21)))


def test_multiply_identity_and_orders():
    p = 7
    a1 = fermat_a1(p)
    assert a1 * fermat_identity(p) == a1
    assert order(fermat_v(p)) == 2
    assert order(fermat_u(p)) == 3
    assert order(a1) == p
    assert order(fermat_identity(p)) == 1
    assert a1.inverse() == FermatAut(p, p - 1, 0, PERM_ID)


def test_flavor_mismatch_errors():
    ctx = make_context(7)
    with pytest.raises(GroupMismatchError):
        fermat_a1(7) * fermat_a1(11)
    with pytest.raises(GroupMismatchError):
        fermat_a1(7) * pgonal_T(ctx)
    with pytest.raises(GroupMismatchError):
        pgonal_T(ctx, 2) * pgonal_T(ctx, 4)
    # an index is read in the group it is given to, and refused outside it
    for group in (Group(5), Group(7, 2)):
        for bad in (-1, group.order):
            with pytest.raises(OutOfRangeError):
                subgroup_closure(group, [bad])
            with pytest.raises(OutOfRangeError):
                group.left_mul(bad, [IDENTITY])
            with pytest.raises(OutOfRangeError):
                group.mul(bad, IDENTITY)


@pytest.mark.parametrize("gamma", (None, 2))
def test_index_readers_refuse_indices_outside_the_group(gamma):
    # p = 7: unchecked, fermat_order(7, 294) read 7, coordinates(-1) read
    # (-1, 6, 5) and is_translation(-6) read True
    group = Group(7, gamma)
    for bad in (-1, -6 if gamma is None else -3, group.order, group.order + 1):
        with pytest.raises(OutOfRangeError):
            group.coordinates(bad)
        with pytest.raises(OutOfRangeError):
            group.is_translation(bad)
        if gamma is None:
            with pytest.raises(OutOfRangeError):
                fermat_order(7, bad)
    last = group.order - 1
    assert (group.coordinates(IDENTITY), group.coordinates(last)) == (
        ((0, 0, 0), (6, 6, 5)) if gamma is None else ((0, 0), (6, 2))
    )
    assert group.is_translation(IDENTITY) and not group.is_translation(last)
    if gamma is None:
        assert (fermat_order(7, IDENTITY), fermat_order(7, last)) == (1, 14)


def test_subgroup_closure_basics():
    p = 7
    group = Group(p)
    a1, a2, u, v = group.generators
    assert group.generators == tuple(map(index_of, (fermat_a1(p), fermat_a2(p), fermat_u(p), fermat_v(p))))
    triv = subgroup_closure(group, [IDENTITY])
    assert triv.order == 1
    h = subgroup_closure(group, [a1, a2])
    assert h.order == p * p
    # closures from different generating sets: compared by element set
    assert elements(h) == elements(fermat_H(p)) == list(group.translations)
    assert all(map(group.is_translation, elements(h)))
    full = subgroup_closure(group, [a1, a2, u, v])
    assert full.order == 6 * p * p
    with pytest.raises(OutOfRangeError):
        subgroup_closure(group, [])


@pytest.mark.parametrize(
    "group", [Group(p) for p in (5, 7, 11, 13)] + [Group(p, gamma) for p in (7, 13) for gamma in make_context(p).gamma_pair],
    ids=str,
)
def test_subgroup_order_is_the_size_of_the_closure(group):
    """A Subgroup's order, fixed by the group law for one generator and by
    the group for its own generators, is the number of elements its
    generators close to: on every cyclic subgroup, by every generator."""
    for g in range(group.order):
        assert Subgroup(group, (g,)).order == len(group.closure([g])), group.coordinates(g)
    assert Subgroup(group, group.generators).order == len(group.closure(group.generators)) == group.order


def _assert_read_by_rank(group, gens):
    """K's order is the size of the closure of its generators, and its
    lines those through the closure's points other than 0, or None when a
    generator is not a translation."""
    k, members = Subgroup(group, gens), group.closure(gens)
    assert k.order == len(members), gens
    lines = set()
    for i in members:
        m, n, s = group.coordinates(i)
        if s != PERM_ID:
            lines = None
            break
        if m or n:
            lines.add(line_of(group.p, m, n))
    assert (None if k.lines is None else set(k.lines)) == lines, gens


@pytest.mark.parametrize("p", [q for q in range(5, 62) if is_prime(q)])
def test_the_deck_lines_follow_the_axes(p):
    # H_j is the line through (1, 1 + j); the three axes carry no deck subgroup
    lines = plane_lines(p)
    assert [deck_index(line) for line in range(3)] == [None, None, None]
    for j in range(1, p - 1):
        assert fermat_Hj(p, j).lines == (deck_line(j),)
        assert deck_index(deck_line(j)) == j
        assert lines[deck_line(j)] == (1, 1 + j)
    assert list(line_points(p)) == [line_point(p, line) for line in range(1, p + 1)]


@pytest.mark.parametrize("p", (5, 7))
def test_translation_subgroups_are_read_by_rank_on_every_pair(p):
    # every single translation and every ordered pair, the identity and
    # scalar multiples included, then a translation beside each of u and v
    group = Group(p)
    for x in group.translations:
        _assert_read_by_rank(group, (x,))
        for y in group.translations:
            _assert_read_by_rank(group, (x, y))
        for s in (PERM_U, PERM_V):
            _assert_read_by_rank(group, (x, s))


@pytest.mark.parametrize("p", (11, 13))
def test_translation_subgroups_are_read_by_rank_on_a_sample(p):
    group, rng = Group(p), random.Random(p)
    points = list(group.translations)
    for _ in range(400):
        x, y = rng.choice(points), rng.choice(points)
        _assert_read_by_rank(group, (x, y))
        m, n, _ = group.coordinates(x)
        c = rng.randrange(1, p)
        _assert_read_by_rank(group, (x, fermat_translation(p, c * m, c * n)))  # a multiple of x's point
        _assert_read_by_rank(group, (x, y, rng.randrange(group.order)))


@pytest.mark.parametrize("p", (5, 7, 11, 13))
def test_Hj_family(p):
    group = Group(p)
    a1, a2 = group.generators[:2]
    axes = {
        tuple(elements(subgroup_closure(group, [a1]))),
        tuple(elements(subgroup_closure(group, [a2]))),
        tuple(elements(subgroup_closure(group, [group.mul(a1, a2)]))),
    }
    subs = [fermat_Hj(p, j) for j in range(1, p - 1)]
    assert len({tuple(elements(s)) for s in subs}) == p - 2
    for s in subs:
        assert s.order == p
        assert tuple(elements(s)) not in axes
        # free action: no member sits on a fixed-point axis
        for g in subgroup_elements(s):
            if not g.is_identity:
                assert not (g.m == 0 or g.n == 0 or g.m == g.n)
        # direct construction agrees with generic closure
        assert elements(s) == elements(subgroup_closure(group, s.generators[:1]))
    h = elements(fermat_H(p))
    for i in range(len(subs)):
        for j in range(i + 1, len(subs)):
            assert elements(joined(subs[i], subs[j])) == h
    with pytest.raises(OutOfRangeError):
        fermat_Hj(p, p - 1)


@pytest.mark.parametrize("p", (7, 13))
def test_pgonal_K_structure(p):
    ctx = make_context(p)
    gamma = ctx.gamma
    t = pgonal_T(ctx)
    ks = [pgonal_K(i, ctx) for i in (1, 2, 3)]
    group = Group(p, gamma)
    for k in ks:
        assert k.order == 3

    def objects(k):
        return set(subgroup_elements(k))

    assert objects(ks[0]) == {pgonal_identity(ctx), pgonal_R(ctx), pgonal_R(ctx) * pgonal_R(ctx)}
    # K_{i+1} = T^(-i) K_1 T^i
    t_inv = t.inverse()
    conj = objects(ks[0])
    for i in (1, 2):
        conj = {t_inv * g * t for g in conj}
        assert conj == objects(ks[i])
    # p = 7, gamma = 2: the K_2 generator is T^3 R
    if p == 7:
        assert index_of(PGonalAut(7, 2, 3, 1)) in elements(ks[1])
    assert len({tuple(elements(k)) for k in ks}) == 3


def test_pgonal_K_set_products_do_not_commute():
    """On element objects: the pairwise set products K_i K_j have 9
    elements and differ from K_j K_i, for either root; each pair still
    generates the whole group (Lagrange, as the audit reads it)."""
    for p in (7, 13, 19):
        for gamma in make_context(p).gamma_pair:
            for _pair, order_, _genus, size, commutes in object_gamma_pairs(p, gamma):
                assert not commutes
                assert size == 9
                assert order_ == 3 * p


def test_group_refuses_a_gamma_that_is_not_a_root():
    # the roots of g^2 + g + 1 mod 7 are 2 and 4; 9 = 2 mod 7 lies outside 1..p-2
    for gamma in (3, 0, 1, 5, 6, 9, -5):
        with pytest.raises(NoGammaError):
            Group(7, gamma)
    with pytest.raises(NoGammaError):
        ClassData(Group(7, 3))
    with pytest.raises(NoGammaError):
        Group(5, 1)  # p = 2 mod 3 has no root
    assert Group(7, 2).order == Group(7, 4).order == 21
    assert Group(7, 2) != Group(7, 4)


def test_pgonal_aut_refuses_a_gamma_that_is_not_a_root():
    # at p = 5 with gamma = 2 the "group law" is not associative
    with pytest.raises(NoGammaError):
        PGonalAut(5, 2, 0, 0)
    for gamma in (0, 1, 3, 5, 6, 9):
        with pytest.raises(NoGammaError):
            PGonalAut(7, gamma, 1, 0)
    assert PGonalAut(7, 2, 1, 0).group == Group(7, 2)
    assert PGonalAut(7, 4, 0, 1).group == Group(7, 4)


@pytest.mark.parametrize("p", (3, 5, 7, 11, 13))
def test_s3_stable_lines_match_object_conjugation(p):
    """The line orbits of one line are the lines of F_p^2 that conjugation
    by u and v maps to themselves, found on element objects: a line is
    stable when the conjugates of its spanning translation lie on it."""

    def on_line(g, x, y):
        return g.sigma == PERM_ID and (g.m * y - g.n * x) % p == 0

    lines = [(1, t) for t in range(p)] + [(0, 1)]
    stable = [
        (x, y)
        for x, y in lines
        if all(on_line(s * FermatAut(p, x, y, PERM_ID) * s.inverse(), x, y) for s in (fermat_u(p), fermat_v(p)))
    ]
    data = ClassData(Group(p))
    assert data.line_orbits() is data.line_orbits() == line_orbits(p)  # one scan, kept
    assert [plane_lines(p)[o.lines[0]] for o in data.line_orbits() if len(o.lines) == 1] == stable
    assert stable == ([(1, 2)] if p == 3 else [])


def test_pgonal_K_requires_gamma():
    with pytest.raises(NoGammaError):
        pgonal_K(1, make_context(5))
    with pytest.raises(OutOfRangeError):
        pgonal_K(4, make_context(7))


@pytest.mark.parametrize("p", (7, 13))
def test_pgonal_element_orders(p):
    ctx = make_context(p)
    for gamma in ctx.gamma_pair:
        for g in pgonal_elements(ctx, gamma):
            if g.is_identity:
                assert order(g) == 1
            elif g.e == 0:
                assert order(g) == p
            else:
                assert order(g) == 3


def test_pgonal_conjugation_identity():
    # T^(-l) R T^l = T^(l (gamma^2 - 1)) R, swept over all l
    for p in (7, 13):
        ctx = make_context(p)
        g = ctx.gamma
        t, r = pgonal_T(ctx), pgonal_R(ctx)
        for l in range(p):
            tl = PGonalAut(p, g, l, 0)
            lhs = tl.inverse() * r * tl
            rhs = PGonalAut(p, g, l * (g * g - 1) % p, 0) * r
            assert lhs == rhs


def test_conjugacy_classes_pgonal():
    ctx = make_context(7)
    classes = conjugacy_classes(Group(ctx.p, ctx.gamma))
    sizes = sorted(len(c) for c in classes)
    assert sizes == [1, 3, 3, 7, 7]
    order3 = [c for c in classes if len(c) == 7]
    group = Group(7, ctx.gamma)
    assert all(group.coordinates(i)[1] != 0 for c in order3 for i in c)
    assert sum(len(c) for c in classes) == 21


def test_conjugacy_classes_fermat_p5():
    ctx = make_context(5)
    classes = conjugacy_classes(Group(ctx.p))
    assert sum(len(c) for c in classes) == 150
    identity_classes = [c for c in classes if len(c) == 1]
    assert len(identity_classes) == 1 and identity_classes[0][0] == IDENTITY
    for c in classes:
        assert 150 % len(c) == 0
    # class membership is conjugation-invariant (exhaustive)
    index = {}
    for i, c in enumerate(classes):
        for g in c:
            index[g] = i
    for g in fermat_elements(5):
        for h in list(fermat_elements(5))[::7]:
            assert index[index_of(h * g * h.inverse())] == index[index_of(g)]


def test_left_cosets():
    p = 5
    h1 = fermat_Hj(p, 1)
    reps, coset_of = left_cosets(h1, range(6 * p * p))
    assert len(reps) == 6 * p
    assert len(coset_of) == 6 * p * p
    for i, r in enumerate(reps):
        assert coset_of[r] == i


def test_all_cyclic_subgroups_p5():
    subs = all_cyclic_subgroups(Group(5))
    orders = sorted(s.order for s in subs)
    assert orders[0] == 1
    assert set(orders) == {1, 2, 3, 5, 10}
    # element orders partition consistently: 3p order-2, 2p^2 order-3
    assert orders.count(2) == 15
    assert orders.count(3) == 25  # p^2 subgroups of order 3


def test_euclid_gcd_is_math_gcd():
    import math

    for a in range(60):
        for b in range(60):
            assert gcd(a, b) == math.gcd(a, b), (a, b)
