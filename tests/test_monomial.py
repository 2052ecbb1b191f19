import random

import pytest

from fermatjac.curves import MoebiusLabel
from fermatjac import monomial as monomial_module
from fermatjac.errors import (
    CheckFailedError,
    GroupMismatchError,
    NoGammaError,
    NonMonomialError,
    OutOfRangeError,
)
from fermatjac.monomial import (
    MOEBIUS_MONOMIALS,
    MonomialFunction,
    MonomialMap,
    build_J,
    build_R,
    build_T,
    compose,
    conjugation_sweep,
    epsilon_parity_report,
    identity_map,
    make_monomial,
    map_power,
    mf_mul,
    mf_pow,
    reduce,
    verify_curve_automorphism,
    verify_relation,
    word_map,
)
from fermatjac.orbits import make_context

from helpers import pgonal_elements, run_under_O, substitute_by_chain


def test_reduce_curve_relation():
    # y^p -> x^gamma (x-1) at p = 7, gamma = 2
    f = reduce(MonomialFunction(1, 0, 0, 0, 7), gamma=2, p=7)
    assert f == MonomialFunction(1, 0, 2, 1, 0)
    # already normal: unchanged
    g = MonomialFunction(-1, 3, 2, -1, 4)
    assert reduce(g, gamma=2, p=7) == g
    # y^9 -> x^2 (x-1) y^2
    h = reduce(MonomialFunction(1, 0, 0, 0, 9), gamma=2, p=7)
    assert h == MonomialFunction(1, 0, 2, 1, 2)


def test_reduce_negative_y_exponent():
    # y^(-3) = x^(-2) (x-1)^(-1) y^4 on the p = 7, gamma = 2 curve
    f = make_monomial(1, 0, 0, 0, -3, p=7, gamma=2)
    assert f == MonomialFunction(1, 0, -2, -1, 4)


def test_multiplication_commutative_associative():
    p, gamma = 7, 2
    grid = [
        MonomialFunction(s, w, a, b, d)
        for s in (1, -1)
        for w in (0, 3)
        for a in (-2, 0, 1)
        for b in (-1, 2)
        for d in (0, 4, 6)
    ]
    for f in grid[::3]:
        for g in grid[::4]:
            assert mf_mul(f, g, p, gamma) == mf_mul(g, f, p, gamma)
            for h in grid[::5]:
                lhs = mf_mul(mf_mul(f, g, p, gamma), h, p, gamma)
                rhs = mf_mul(f, mf_mul(g, h, p, gamma), p, gamma)
                assert lhs == rhs


def test_mf_pow_matches_repeated_mul():
    p, gamma = 13, 3
    f = MonomialFunction(-1, 2, 1, -1, 5)
    acc = MonomialFunction(1, 0, 0, 0, 0)
    for e in range(1, 8):
        acc = mf_mul(acc, f, p, gamma)
        assert mf_pow(f, e, p, gamma) == acc
    inv = mf_pow(f, -1, p, gamma)
    assert mf_mul(f, inv, p, gamma) == MonomialFunction(1, 0, 0, 0, 0)


def test_moebius_monomials_closed_under_substitution():
    """Substituting any Moebius monomial into any other stays in the set."""
    p, gamma = 7, 2
    maps = {
        label: MonomialMap(p, gamma, mono, MonomialFunction(1, 0, 0, 0, 1))
        for label, (mono, _) in MOEBIUS_MONOMIALS.items()
    }
    for f in maps.values():
        for g in maps.values():
            composed = compose(f, g)  # would raise NonMonomialError on escape
            assert composed.x_image in {m for m, _ in MOEBIUS_MONOMIALS.values()}
    # the label of the composed x-part matches label composition
    for lf, f in maps.items():
        for lg, g in maps.items():
            assert compose(f, g).x_label is lf.compose(lg)


def test_moebius_minus_one_table():
    # each (map - 1) entry evaluates correctly at a sample point x = 3 mod 7
    # e.g. 1/(1-x) - 1 = x/(1-x): at x = 3, 3/(1-3) = 3 * (-2)^(-1) mod 7
    p, gamma = 7, 2
    x = 3
    vals = {}
    for label, (mono, minus_one) in MOEBIUS_MONOMIALS.items():
        def ev(m):
            total = m.sign % p
            total = total * pow(x, m.a, p) if m.a >= 0 else total * pow(pow(x, -1, p), -m.a, p)
            xm1 = (x - 1) % p
            total = total * pow(xm1, m.b, p) if m.b >= 0 else total * pow(pow(xm1, -1, p), -m.b, p)
            return total % p
        vals[label] = (ev(mono), ev(minus_one))
    for label, (fx, fx_minus_1) in vals.items():
        assert (fx - 1) % p == fx_minus_1


def test_compose_identity_and_inverse_powers():
    ctx = make_context(7)
    t = build_T(ctx)
    ident = identity_map(7, 2)
    assert compose(ident, t) == t == compose(t, ident)
    assert compose(t, map_power(t, 6)) == ident  # T * T^(p-1) = id
    assert map_power(t, 7) == ident


def test_compose_flavor_guard():
    ctx7, ctx13 = make_context(7), make_context(13)
    with pytest.raises(GroupMismatchError):
        compose(build_T(ctx7), build_T(ctx13))
    with pytest.raises(OutOfRangeError):
        map_power(build_T(ctx7), -1)


def test_build_T():
    t = build_T(make_context(7))
    assert t.x_image == MonomialFunction(1, 0, 1, 0, 0)
    assert t.y_image == MonomialFunction(1, 1, 0, 0, 1)
    assert t.render() == "(x, w^1*y)"


def test_build_R_p7():
    # gamma = 2 even, epsilon = 1, (gamma^2+gamma+1)/p = 1:
    # R = (1/(1-x), -x/y^3), normalized y-image -x^(-1)(x-1)^(-1) y^4
    r = build_R(make_context(7))
    assert r.x_label is MoebiusLabel.CYC
    assert r.y_image == MonomialFunction(-1, 0, -1, -1, 4)
    assert r.render() == "(-(x-1)^-1, -x^-1*(x-1)^-1*y^4)"


def test_build_R_p13():
    # gamma = 3 odd, epsilon = 2: R = (1/(1-x), x/y^4)
    r = build_R(make_context(13))
    assert r.y_image.sign == 1
    assert r.y_image == MonomialFunction(1, 0, 1 - 3, -1, 9)
    assert verify_curve_automorphism(r)


def test_build_R_requires_gamma():
    with pytest.raises(NoGammaError):
        build_R(make_context(5))


def test_R_has_order_three():
    for p in (7, 13):
        ctx = make_context(p)
        r = build_R(ctx)
        assert map_power(r, 3) == identity_map(p, ctx.gamma)
        assert map_power(r, 1) != identity_map(p, ctx.gamma)


def test_T_preserves_every_curve():
    for p in (7, 13):
        ctx = make_context(p)
        for alpha in (1, 2, ctx.gamma):
            assert verify_curve_automorphism(build_T(ctx, gamma=alpha))


def test_J_is_hyperelliptic_involution():
    for p in (5, 7, 11):
        ctx = make_context(p)
        j = build_J(ctx)
        assert verify_curve_automorphism(j)
        assert compose(j, j) == identity_map(p, 1)


@pytest.mark.parametrize("p", (7, 13, 19, 31))
def test_R_preserves_curve_and_epsilon_rule(p):
    ctx = make_context(p)
    for gamma in ctx.gamma_pair:
        report = epsilon_parity_report(ctx, gamma)
        assert report["rule_matches"], report
        good = build_R(ctx, gamma, epsilon=report["passing_epsilon"])
        bad = build_R(ctx, gamma, epsilon=3 - report["passing_epsilon"])
        assert verify_curve_automorphism(good)
        assert not verify_curve_automorphism(bad)


@pytest.mark.parametrize("p", (7, 13))
def test_relations(p):
    ctx = make_context(p)
    g = ctx.gamma
    assert verify_relation([("R", 3)], [], ctx)
    assert verify_relation([("R", 1), ("T", 1)], [("T", g * g), ("R", 1)], ctx)
    for l in range(p):
        assert verify_relation(
            [("T", -l), ("R", 1), ("T", l)],
            [("T", l * (g * g - 1)), ("R", 1)],
            ctx,
        )
    assert verify_relation([("T", p)], [], ctx)
    assert not verify_relation([("R", 1)], [("R", 2)], ctx)


@pytest.mark.parametrize("p", (7, 13, 19, 31))
def test_conjugation_sweep_matches_verify_relation(p):
    """The running products are the word maps of both sides at every l,
    and their verdict is verify_relation's."""
    ctx = make_context(p)
    g = ctx.gamma
    ls = []
    for l, lhs, rhs in conjugation_sweep(ctx):
        ls.append(l)
        lhs_word, rhs_word = [("T", -l), ("R", 1), ("T", l)], [("T", l * (g * g - 1)), ("R", 1)]
        assert lhs == word_map(lhs_word, ctx) and rhs == word_map(rhs_word, ctx)
        assert (lhs == rhs) is verify_relation(lhs_word, rhs_word, ctx) is True
    assert ls == list(range(p))


@pytest.mark.parametrize("p", (7, 13, 19, 31))
def test_one_step_substitution_matches_the_chain(p):
    """_substitute normalizes once; the chain normalizes every power and
    product.  Normal forms are canonical, so both must agree, for random
    monomials and every Moebius x-image, with and without y."""
    g = make_context(p).gamma
    rng = random.Random(p)

    def monomial(d_range):
        return MonomialFunction(
            rng.choice((1, -1)), rng.randrange(-3 * p, 3 * p), rng.randrange(-40, 40),
            rng.randrange(-40, 40), rng.randrange(*d_range),
        )

    for _ in range(400):
        f, y = monomial((-3 * p, 3 * p)), monomial((-3 * p, 3 * p))
        x, x_minus_one = rng.choice(list(MOEBIUS_MONOMIALS.values()))
        assert monomial_module._substitute(f, x, x_minus_one, y, p, g) == substitute_by_chain(f, x, x_minus_one, y, p, g)
        f = monomial((0, 1))
        assert monomial_module._substitute(f, x, x_minus_one, None, p, g) == substitute_by_chain(f, x, x_minus_one, None, p, g)


@pytest.mark.parametrize("p", (7, 13, 19, 31))
def test_one_step_substitution_matches_the_chain_in_the_sweep(monkeypatch, p):
    calls = []
    real = monomial_module._substitute

    def both(*args):
        out = real(*args)
        assert out == substitute_by_chain(*args), args
        calls.append(out)
        return out

    monkeypatch.setattr(monomial_module, "_substitute", both)
    for l, lhs, rhs in conjugation_sweep(make_context(p)):
        assert lhs == rhs, l
    assert len(calls) >= 10 * p


def test_word_map_rejects_unknown_letter():
    with pytest.raises(OutOfRangeError):
        word_map([("S", 1)], make_context(7))


def test_abstract_group_isomorphic_to_monomial_maps_p7():
    """(k, e) -> T^k R^e is a bijective homomorphism onto the generated
    monomial maps: 21 distinct maps, 441 products agree."""
    ctx = make_context(7)
    t, r = build_T(ctx), build_R(ctx)

    def to_map(g):
        return compose(map_power(t, g.k), map_power(r, g.e))

    els = list(pgonal_elements(ctx))
    images = {g: to_map(g) for g in els}
    assert len(set(images.values())) == 21
    for g in els:
        for h in els:
            assert compose(images[g], images[h]) == images[g * h]


def test_generated_map_y_exponents():
    # every generated map has y-exponent coprime to p or zero
    ctx = make_context(7)
    t, r = build_T(ctx), build_R(ctx)
    for k in range(7):
        for e in range(3):
            m = compose(map_power(t, k), map_power(r, e))
            d = m.y_image.d
            assert d == 0 or d % 7 != 0


def test_monomial_map_rejects_bad_x_image():
    with pytest.raises(NonMonomialError):
        MonomialMap(7, 2, MonomialFunction(1, 0, 2, 0, 0), MonomialFunction(1, 0, 0, 0, 1))


def test_render_strings():
    assert MonomialFunction(1, 0, 0, 0, 0).render() == "1"
    assert MonomialFunction(-1, 0, 0, 0, 0).render() == "-1"
    assert MonomialFunction(-1, 2, -1, 3, 1).render() == "-w^2*x^-1*(x-1)^3*y"


@pytest.mark.parametrize("verdict, passing", ((True, "[1, 2]"), (False, "[]")))
def test_epsilon_parity_needs_exactly_one(monkeypatch, verdict, passing):
    monkeypatch.setattr(monomial_module, "verify_curve_automorphism", lambda f: verdict)
    ctx = make_context(13)
    with pytest.raises(CheckFailedError, match=rf"p = 13, gamma = {ctx.gamma}: .* got \{passing}"):
        epsilon_parity_report(ctx)


@pytest.mark.parametrize("verdict", (True, False))
def test_epsilon_parity_fails_verify_under_python_O(verdict):
    # always False already fails at "J preserves the curve", before the
    # parity count; either way the check fails with no traceback
    run = run_under_O(
        "from fermatjac import cli, monomial\n"
        f"monomial.verify_curve_automorphism = lambda f: {verdict}\n"
        "sys.exit(cli.main(['verify', '--p', '13']))\n"
    )
    assert run.returncode == 4, run.stdout + run.stderr
    assert "FAIL monomial-relations: p = 13" in run.stdout
    assert "Traceback" not in run.stderr
    if verdict:
        assert "expected exactly one sign parity to preserve the curve, got [1, 2]" in run.stdout
