from fractions import Fraction

import pytest

from fermatjac import cli
from fermatjac.curves import (
    MOEBIUS_TRANSPORT,
    CurveFamily,
    CurveSpec,
    MoebiusLabel,
    genus_of,
    normalized_exponent,
    quotient_to_curve,
)
from fermatjac.errors import DegenerateCurveError, NoGammaError, OutOfRangeError
from fermatjac.orbits import make_context

from helpers import (
    INF,
    are_isomorphic,
    brute_inverse_table,
    moebius_eval,
    moebius_inverse,
    moebius_transport,
    normalize,
    orbit,
    sweep_primes,
    transport_formula,
)

LABELS = list(MoebiusLabel)


def test_normalize_canonical_inputs():
    ctx = make_context(11)
    for a in range(1, 10):
        assert normalize(a, 1, ctx).alpha == a


def test_normalize_inverse_case():
    ctx = make_context(7)
    table = brute_inverse_table(7)
    for a in range(1, 6):
        assert normalize(1, a, ctx).alpha == table[a]


def test_normalize_p7_example():
    # 3^(-1) = 5 mod 7 from the brute table, 2*5 = 10 = 3
    table = brute_inverse_table(7)
    assert table[3] == 5
    assert normalize(2, 3, make_context(7)).alpha == 3


def test_normalize_degenerate():
    ctx = make_context(7)
    with pytest.raises(DegenerateCurveError):
        normalize(3, 4, ctx)
    with pytest.raises(OutOfRangeError):
        normalize(0, 1, ctx)
    with pytest.raises(OutOfRangeError):
        normalize(1, 7, ctx)


@pytest.mark.parametrize("p", (7, 11))
def test_normalize_unit_rescaling_invariance(p):
    ctx = make_context(p)
    for a in range(1, p):
        for b in range(1, p):
            if (a + b) % p == 0:
                continue
            base = normalize(a, b, ctx).alpha
            for delta in range(1, p):
                da, db = delta * a % p, delta * b % p
                assert normalize(da, db, ctx).alpha == base


def test_moebius_labels_compose_as_s3():
    """The label table against honest Fraction arithmetic on sample points."""
    samples = [Fraction(2), Fraction(3), Fraction(1, 2), Fraction(-5, 3), INF, Fraction(0), Fraction(1)]
    for f in LABELS:
        for g in LABELS:
            fg = f.compose(g)
            for x in samples:
                assert moebius_eval(fg.name, x) == moebius_eval(
                    f.name, moebius_eval(g.name, x)
                )
    # closure forms a group of order six with ID neutral
    assert {f.compose(g) for f in LABELS for g in LABELS} == set(LABELS)
    for f in LABELS:
        assert f.compose(MoebiusLabel.ID) is f is MoebiusLabel.ID.compose(f)
        assert f.compose(moebius_inverse(f)) is MoebiusLabel.ID


def test_transport_id_and_examples():
    ctx7 = make_context(7)
    for a in range(1, 6):
        assert moebius_transport(a, MoebiusLabel.ID, ctx7) == a
    # -(1+2) = -3 = 4 mod 7, a member of the orbit {2, 4}
    assert moebius_transport(2, MoebiusLabel.INV, ctx7) == 4
    # -2^(-1)*(1+2) = -6*3 = -18 = 4 mod 11, a member of the orbit of 2
    ctx11 = make_context(11)
    assert moebius_transport(2, MoebiusLabel.CYC2, ctx11) == 4
    assert 4 in orbit(2, ctx11).elements


@pytest.mark.parametrize("p", sweep_primes(61))
def test_transport_images_enumerate_orbit(p):
    from collections import Counter

    ctx = make_context(p)
    for a in range(1, p - 1):
        o = orbit(a, ctx)
        images = Counter(moebius_transport(a, lab, ctx) for lab in LABELS)
        assert set(images) == set(o.elements)
        assert all(count == 6 // o.size for count in images.values())


@pytest.mark.parametrize("p", (5, 7, 11, 13))
def test_transport_functoriality_all_36_pairs(p):
    ctx = make_context(p)
    for f in LABELS:
        for g in LABELS:
            fg = f.compose(g)
            for a in range(1, p - 1):
                assert moebius_transport(a, fg, ctx) == moebius_transport(
                    moebius_transport(a, f, ctx), g, ctx
                )


def test_verify_runs_each_transport_rule_once_per_probe(monkeypatch, capsys):
    # each rule runs once at each of the probes 1, 2, 3 and 11, then once
    # per comparison: 24 + 144 = 168 calls at p = 13 (192 while every
    # point of X_p had its row, 390 before that)
    calls = []
    for label, rule in list(MOEBIUS_TRANSPORT.items()):
        monkeypatch.setitem(MOEBIUS_TRANSPORT, label, lambda *args, rule=rule: calls.append(1) or rule(*args))
    assert cli.main(["verify", "--p", "13"]) == 0
    assert len(calls) <= 168


def test_are_isomorphic():
    ctx7 = make_context(7)
    for a in range(1, 6):
        assert are_isomorphic(a, a, ctx7)
    assert are_isomorphic(1, 5, ctx7)
    ctx13 = make_context(13)
    assert not are_isomorphic(2, 3, ctx13)
    assert are_isomorphic(3, 9, ctx13)


def test_genus_values():
    assert genus_of(CurveSpec(make_context(7), CurveFamily.FERMAT)) == 15
    assert genus_of(CurveSpec(make_context(11), CurveFamily.P_GONAL, alpha=2)) == 5
    assert genus_of(CurveSpec(make_context(7), CurveFamily.E_QUOTIENT, alpha=2)) == 1


@pytest.mark.parametrize("p", sweep_primes(199))
def test_genus_divisibility(p):
    ctx = make_context(p)
    assert (p - 1) % 2 == 0
    assert genus_of(CurveSpec(ctx, CurveFamily.P_GONAL, alpha=1)) * 2 == p - 1
    if ctx.has_gamma:
        assert (p - 1) % 6 == 0


def test_curvespec_validation():
    ctx7 = make_context(7)
    with pytest.raises(OutOfRangeError):
        CurveSpec(ctx7, CurveFamily.P_GONAL, alpha=6)
    with pytest.raises(OutOfRangeError):
        CurveSpec(ctx7, CurveFamily.E_QUOTIENT, alpha=3)
    with pytest.raises(NoGammaError):
        CurveSpec(make_context(5), CurveFamily.E_QUOTIENT, alpha=2)


def test_describe_strings():
    ctx13 = make_context(13)
    assert CurveSpec(ctx13, CurveFamily.P_GONAL, alpha=2).describe() == "C_alpha(p=13, alpha=2)"
    assert CurveSpec(ctx13, CurveFamily.E_QUOTIENT, alpha=3).describe() == "E_gamma(p=13, gamma=3)"
    assert CurveSpec(ctx13, CurveFamily.FERMAT).describe() == "F(13)"


def test_quotient_to_curve():
    ctx7 = make_context(7)
    assert quotient_to_curve(5, ctx7).alpha == 1  # j = p - 2
    assert quotient_to_curve(4, ctx7).alpha == 2
    # the gamma curve arises from the index gamma^(-1)
    gamma, gamma_inv = ctx7.gamma_pair
    assert quotient_to_curve(gamma_inv, ctx7).alpha == gamma
    # cross-check against normalization of the raw exponent -(1+j)
    for j in range(1, 6):
        raw = (-(1 + j)) % 7
        assert quotient_to_curve(j, ctx7).alpha == normalize(raw, 1, ctx7).alpha
    with pytest.raises(OutOfRangeError):
        quotient_to_curve(6, ctx7)


SAMPLES = [Fraction(2), Fraction(3), Fraction(1, 2), Fraction(-5, 3), INF, Fraction(0), Fraction(1)]


@pytest.mark.parametrize("p", sweep_primes(61))
def test_transport_table_and_compose_table_match_the_formulas(p):
    """One transport rule per label, and the 6 x 6 compose table, against
    the formulas: each rule is its label's formula on all of X_p, and for
    all 36 pairs the table entry is the composed permutation, evaluates as
    the composed Moebius map and transports contravariantly."""
    ctx = make_context(p)
    assert list(MOEBIUS_TRANSPORT) == LABELS
    for lab in LABELS:
        for a in range(1, p - 1):
            assert moebius_transport(a, lab, ctx) == transport_formula(a, lab.name, p)
    for f in LABELS:
        for g in LABELS:
            fg = f.compose(g)
            assert fg.perm == tuple(f.perm[i] for i in g.perm)
            for x in SAMPLES:
                assert moebius_eval(fg.name, x) == moebius_eval(f.name, moebius_eval(g.name, x))
            for a in range(1, p - 1):
                assert transport_formula(a, fg.name, p) == transport_formula(transport_formula(a, f.name, p), g.name, p)
    for bad in ("ID", ["ID"], None):
        with pytest.raises(OutOfRangeError, match="unknown Moebius label"):
            moebius_transport(1, bad, ctx)


@pytest.mark.parametrize("p", (5, 7, 11, 13, 61))
def test_normalized_exponent_is_the_normalized_curve(p):
    ctx = make_context(p)
    for a in range(1, p):
        for b in range(1, p):
            if (a + b) % p:
                assert normalize(a, b, ctx) == CurveSpec(ctx, CurveFamily.P_GONAL, normalized_exponent(a, b, ctx))
            else:
                with pytest.raises(DegenerateCurveError):
                    normalized_exponent(a, b, ctx)
    for bad in ((0, 1), (1, p), (1.0, 1), (2, "1")):
        with pytest.raises(OutOfRangeError):
            normalized_exponent(*bad, ctx)
