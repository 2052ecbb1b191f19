import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermatjac.curves import MoebiusLabel
from fermatjac import cli
from fermatjac import monomial as monomial_module
from fermatjac.errors import (
    CheckFailedError,
    GroupMismatchError,
    NoGammaError,
    NonMonomialError,
    OutOfRangeError,
)
from fermatjac.groups import Group
from fermatjac.monomial import (
    MOEBIUS_MONOMIALS,
    build_J,
    build_R,
    build_T,
    compose,
    epsilon_parity_report,
    identity_map,
    make_monomial,
    map_power,
    moebius_table_gap,
    mf_mul,
    mf_pow,
    render_map,
    render_monomial,
    verify_curve_automorphism,
    verify_relation,
    word_map,
    x_label,
)
from fermatjac.orbits import PrimeContext, make_context

from helpers import (
    MonomialFunction,
    conjugation_sweep,
    pgonal_elements,
    primes_upto,
    printing,
    record_of,
    record_word,
    root_contexts,
    substitute_by_chain,
)

Y = (1, 0, 0, 0, 1)  # the monomial y


def test_reduce_curve_relation():
    # y^p -> x^gamma (x-1) at p = 7, gamma = 2
    f = make_monomial(1, 0, 0, 0, 7, p=7, gamma=2)
    assert f == (1, 0, 2, 1, 0)
    # already normal: unchanged
    g = (-1, 3, 2, -1, 4)
    assert make_monomial(*g, p=7, gamma=2) == g
    # y^9 -> x^2 (x-1) y^2
    h = make_monomial(1, 0, 0, 0, 9, p=7, gamma=2)
    assert h == (1, 0, 2, 1, 2)


def test_reduce_negative_y_exponent():
    # y^(-3) = x^(-2) (x-1)^(-1) y^4 on the p = 7, gamma = 2 curve
    f = make_monomial(1, 0, 0, 0, -3, p=7, gamma=2)
    assert f == (1, 0, -2, -1, 4)


def test_multiplication_commutative_associative():
    p, gamma = 7, 2
    grid = [
        (s, w, a, b, d)
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
    f = (-1, 2, 1, -1, 5)
    acc = (1, 0, 0, 0, 0)
    for e in range(1, 8):
        acc = mf_mul(acc, f, p, gamma)
        assert mf_pow(f, e, p, gamma) == acc
    inv = mf_pow(f, -1, p, gamma)
    assert mf_mul(f, inv, p, gamma) == (1, 0, 0, 0, 0)


def test_moebius_monomials_closed_under_substitution():
    """Substituting any Moebius monomial into any other stays in the set."""
    p, gamma = 7, 2
    maps = {label: (p, gamma, mono, Y) for label, (mono, _) in MOEBIUS_MONOMIALS.items()}
    for f in maps.values():
        for g in maps.values():
            composed = compose(f, g)  # would raise NonMonomialError on escape
            assert composed[2] in {m for m, _ in MOEBIUS_MONOMIALS.values()}
    # the label of the composed x-part matches label composition
    for lf, f in maps.items():
        for lg, g in maps.items():
            assert x_label(compose(f, g)) is lf.compose(lg)


def test_moebius_minus_one_table():
    # each (map - 1) entry evaluates correctly at a sample point x = 3 mod 7
    # e.g. 1/(1-x) - 1 = x/(1-x): at x = 3, 3/(1-3) = 3 * (-2)^(-1) mod 7
    p, gamma = 7, 2
    x = 3
    vals = {}
    for label, (mono, minus_one) in MOEBIUS_MONOMIALS.items():
        def ev(m):
            sign, _, a, b, _ = m
            total = sign % p
            total = total * pow(x, a, p) if a >= 0 else total * pow(pow(x, -1, p), -a, p)
            xm1 = (x - 1) % p
            total = total * pow(xm1, b, p) if b >= 0 else total * pow(pow(xm1, -1, p), -b, p)
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
    assert t == (7, 2, (1, 0, 1, 0, 0), (1, 1, 0, 0, 1))
    assert render_map(t) == "(x, w^1*y)"


def test_build_R_p7():
    # gamma = 2 even, epsilon = 1, (gamma^2+gamma+1)/p = 1:
    # R = (1/(1-x), -x/y^3), normalized y-image -x^(-1)(x-1)^(-1) y^4
    r = build_R(make_context(7))
    assert x_label(r) is MoebiusLabel.CYC
    assert r[3] == (-1, 0, -1, -1, 4)
    assert render_map(r) == "(-(x-1)^-1, -x^-1*(x-1)^-1*y^4)"


def test_build_R_p13():
    # gamma = 3 odd, epsilon = 2: R = (1/(1-x), x/y^4)
    r = build_R(make_context(13))
    assert r[3][0] == 1
    assert r[3] == (1, 0, 1 - 3, -1, 9)
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
    for ctx in root_contexts(p):
        report = epsilon_parity_report(ctx)
        assert report["rule_matches"], report
        good = build_R(ctx, epsilon=report["passing_epsilon"])
        bad = build_R(ctx, epsilon=3 - report["passing_epsilon"])
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


def by_chain(f, x_val, x_minus_one, y_val, p, gamma):
    """substitute_by_chain on the records of tuple monomials, as a tuple."""
    records = [None if m is None else MonomialFunction(*m) for m in (f, x_val, x_minus_one, y_val)]
    out = substitute_by_chain(*records, p, gamma)
    return out.sign, out.omega, out.a, out.b, out.d


@pytest.mark.parametrize("p", (7, 13, 19, 31))
def test_one_step_substitution_matches_the_chain(p):
    """_substitute normalizes once; the chain normalizes every power and
    product.  Normal forms are canonical, so both must agree, for random
    monomials and every Moebius x-image, with and without y."""
    g = make_context(p).gamma
    rng = random.Random(p)

    def monomial(d_range):
        return (
            rng.choice((1, -1)), rng.randrange(-3 * p, 3 * p), rng.randrange(-40, 40),
            rng.randrange(-40, 40), rng.randrange(*d_range),
        )

    for _ in range(400):
        f, y = monomial((-3 * p, 3 * p)), monomial((-3 * p, 3 * p))
        x, x_minus_one = rng.choice(list(MOEBIUS_MONOMIALS.values()))
        assert monomial_module._substitute(f, x, x_minus_one, y, p, g) == by_chain(f, x, x_minus_one, y, p, g)
        f = monomial((0, 1))
        assert monomial_module._substitute(f, x, x_minus_one, None, p, g) == by_chain(f, x, x_minus_one, None, p, g)


@pytest.mark.parametrize("p", (7, 13, 19, 31))
def test_one_step_substitution_matches_the_chain_in_the_sweep(monkeypatch, p):
    calls = []
    real = monomial_module._substitute

    def both(*args):
        out = real(*args)
        assert out == by_chain(*args), args
        calls.append(out)
        return out

    composed = []
    real_compose = monomial_module.compose
    monkeypatch.setattr(monomial_module, "_substitute", both)
    monkeypatch.setattr(monomial_module, "compose", lambda outer, inner: composed.append(1) or real_compose(outer, inner))
    for l, lhs, rhs in conjugation_sweep(make_context(p)):
        assert lhs == rhs, l
    # T^(-1) and T^(gamma^2 - 1) by square-and-multiply, then three
    # compositions per step after l = 0, each making two substitutions
    g = make_context(p).gamma
    powers = sum(bin(e).count("1") + e.bit_length() - 1 for e in (p - 1, (g * g - 1) % p))
    assert len(composed) == 3 * (p - 1) + powers
    assert len(calls) == 2 * len(composed)


def test_verify_composes_each_product_once(monkeypatch, capsys):
    # the conjugation relation follows from R T = T^(gamma^2) R by
    # induction and is not swept: basic verify at p = 13 makes 26
    # compositions (74 while the sweep took 3 a step, 100 at 5 a step)
    calls = []
    real_compose = monomial_module.compose
    monkeypatch.setattr(monomial_module, "compose", lambda outer, inner: calls.append(1) or real_compose(outer, inner))
    assert cli.main(["verify", "--p", "13"]) == 0
    assert len(calls) <= 26


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
            d = m[3][4]
            assert d == 0 or d % 7 != 0


def test_monomial_map_rejects_bad_x_image():
    # x^2 is no Moebius monomial: refused as either side of a composition,
    # and wherever the label of the x-image is read
    bad, ident = (7, 2, (1, 0, 2, 0, 0), Y), identity_map(7, 2)
    for outer, inner in ((bad, ident), (ident, bad), (bad, bad)):
        with pytest.raises(NonMonomialError, match="not a Moebius monomial"):
            compose(outer, inner)
    with pytest.raises(NonMonomialError):
        verify_curve_automorphism(bad)
    with pytest.raises(NonMonomialError):
        x_label((7, 2, Y, Y))


def _compose_after_x_times_y():
    # the outer x-image x y: no Moebius monomial, and it holds y
    return compose((13, 3, (1, 0, 1, 0, 1), Y), identity_map(13, 3))


X_TIMES_Y_REFUSED = "x-image (1, 0, 1, 0, 1) is not a Moebius monomial"


def test_compose_refuses_an_outer_x_image_holding_y():
    # compose labels the outer x-image before it substitutes it, which it
    # does with no Y for the y it holds
    with pytest.raises(NonMonomialError) as caught:
        _compose_after_x_times_y()
    assert str(caught.value) == X_TIMES_Y_REFUSED


def test_compose_refuses_an_outer_x_image_holding_y_under_python_O(under_O):
    run = under_O["compose-after-x-times-y"]
    assert run.control == 0, run.control_stdout
    assert (run.returncode, run.stdout, run.stderr) == (0, f"NonMonomialError {X_TIMES_Y_REFUSED}\n", "")


def _R_at_a_false_root():
    # 2 is no root of g^2 + g + 1 mod 13 (3 and 9 are)
    return build_R(PrimeContext(13, 1, (2, 10)))


FALSE_ROOT_REFUSED = "2 is not a root of g^2+g+1 mod 13"


def test_build_R_refuses_a_gamma_that_is_no_root():
    # in Group's words
    with pytest.raises(NoGammaError) as caught:
        _R_at_a_false_root()
    assert str(caught.value) == FALSE_ROOT_REFUSED
    with pytest.raises(NoGammaError) as caught:
        Group(13, 2)
    assert str(caught.value) == FALSE_ROOT_REFUSED


def test_build_R_refuses_a_gamma_that_is_no_root_under_python_O(under_O):
    run = under_O["R-at-a-false-root"]
    assert run.control == 0, run.control_stdout
    assert (run.returncode, run.stdout, run.stderr) == (0, f"NoGammaError {FALSE_ROOT_REFUSED}\n", "")


def test_render_strings():
    assert render_monomial((1, 0, 0, 0, 0)) == "1"
    assert render_monomial((-1, 0, 0, 0, 0)) == "-1"
    assert render_monomial((-1, 2, -1, 3, 1)) == "-w^2*x^-1*(x-1)^3*y"


def _every_map_an_automorphism(mp):
    mp.setattr(monomial_module, "verify_curve_automorphism", lambda f: True)


def _no_map_an_automorphism(mp):
    mp.setattr(monomial_module, "verify_curve_automorphism", lambda f: False)


# verdict -> the mutation that makes verify_curve_automorphism answer it for every map
VERDICTS = {True: _every_map_an_automorphism, False: _no_map_an_automorphism}


@pytest.mark.parametrize("verdict, passing", ((True, "[1, 2]"), (False, "[]")))
def test_epsilon_parity_needs_exactly_one(monkeypatch, verdict, passing):
    VERDICTS[verdict](monkeypatch)
    ctx = make_context(13)
    with pytest.raises(CheckFailedError, match=rf"p = 13, gamma = {ctx.gamma}: .* got \{passing}"):
        epsilon_parity_report(ctx)


@pytest.mark.parametrize("verdict", (True, False))
def test_epsilon_parity_fails_verify_under_python_O(under_O, verdict):
    # always False already fails at "J preserves the curve", before the
    # parity count; either way the check fails with no traceback
    run = under_O["verdict", verdict]
    assert run.control == 0, run.control_stdout
    assert run.returncode == 4, run.stdout + run.stderr
    assert "FAIL monomial-relations: p = 13" in run.stdout
    assert "Traceback" not in run.stderr
    if verdict:
        assert "expected exactly one sign parity to preserve the curve, got [1, 2]" in run.stdout


# -- the tuple calculus against the records ---------------------------------

GAMMA_PRIMES = [p for p in primes_upto(61) if p % 3 == 1]
WORDS = st.lists(st.tuples(st.sampled_from("TR"), st.integers(-70, 70)), max_size=5)


@pytest.mark.parametrize("p", GAMMA_PRIMES)
@settings(max_examples=20, deadline=None)
@given(word=WORDS, root=st.sampled_from((0, 1)))
def test_words_in_T_and_R_match_the_records(p, word, root):
    """A word composed by the tuple calculus (square-and-multiply powers,
    one-step substitutions) is the word composed by the records (one
    composition per letter power, substitutions as chains of products)."""
    ctx = root_contexts(p)[root]
    t, r = record_of(build_T(ctx)), record_of(build_R(ctx))
    assert record_of(word_map(word, ctx)) == record_word(word, t, r)


@pytest.mark.parametrize("p", GAMMA_PRIMES)
def test_conjugation_sweep_matches_the_records(p):
    ctx = make_context(p)
    g = ctx.gamma
    t, r = record_of(build_T(ctx)), record_of(build_R(ctx))
    for l, lhs, rhs in conjugation_sweep(ctx):
        assert record_of(lhs) == record_word([("T", -l), ("R", 1), ("T", l)], t, r)
        assert record_of(rhs) == record_word([("T", l * (g * g - 1)), ("R", 1)], t, r)


def test_compose_keeps_the_refusals():
    ctx7, ctx13 = make_context(7), make_context(13)
    t7 = build_T(ctx7)
    with pytest.raises(GroupMismatchError):
        compose(t7, build_T(ctx7, gamma=3))  # another curve at the same p
    with pytest.raises(GroupMismatchError):
        compose(build_T(ctx13), t7)
    # a sign other than +-1 is refused wherever a normal form is made
    with pytest.raises(OutOfRangeError, match="sign must be"):
        compose((7, 2, (1, 0, 1, 0, 0), (2, 0, 0, 0, 1)), t7)
    with pytest.raises(OutOfRangeError, match="sign must be"):
        make_monomial(0, 0, 0, 0, 0, 7, 2)


def test_moebius_table_gap_catches_every_sign_flip(monkeypatch):
    """The table composes as the labels do; flipping the sign of any one
    of its twelve monomials breaks some pair."""
    assert moebius_table_gap(7) is None
    for label, entry in list(MOEBIUS_MONOMIALS.items()):
        for i in (0, 1):
            sign, *rest = entry[i]
            wrong = list(entry)
            wrong[i] = (-sign, *rest)
            monkeypatch.setitem(MOEBIUS_MONOMIALS, label, tuple(wrong))
            assert moebius_table_gap(7) is not None, (label, i)
            monkeypatch.undo()


# -- the python -O twins' cases, run in one child (conftest.py's under_O) -----

UNDER_O = {
    **{("verdict", verdict): (mutate, [["verify", "--p", "13"]]) for verdict, mutate in VERDICTS.items()},
    "compose-after-x-times-y": (None, [printing(_compose_after_x_times_y)]),
    "R-at-a-false-root": (None, [printing(_R_at_a_false_root)]),
}
