"""Closed symbolic calculus for function-field monomials on the gamma curve.

Everything needed to certify the curve automorphisms lives in the set of
expressions

    (+-1) * w^c * x^a * (x-1)^b * y^d

where w is a primitive p-th root of unity, a and b are arbitrary
integers, and y satisfies the curve relation y^p = x^gamma (x-1).  The
relation is used as a rewrite rule to normalize the y-exponent into
[0, p); a, b absorb the shift.  The set is closed under multiplication
and, crucially, under substituting any of the six Moebius maps f fixing
{0, 1, oo} for x: both f and f - 1 are again monomials of this shape.
That closure turns "is this map an automorphism of the curve" and every
composition identity between the maps T, R, J into pure integer exponent
arithmetic, with no polynomial algebra and no floating point anywhere.

A monomial is the int tuple (sign, omega, a, b, d), normal when 0 <= d < p,
and a self-map (x, y) -> (X, Y) of the curve the tuple (p, gamma, X, Y), X
one of the six Moebius monomials; equal normal forms are equal tuples.
"""

from __future__ import annotations

from .curves import MoebiusLabel
from .errors import CheckFailedError, GroupMismatchError, NoGammaError, NonMonomialError, OutOfRangeError
from .orbits import PrimeContext

Monomial = tuple[int, int, int, int, int]
Map = tuple[int, int, Monomial, Monomial]


def render_monomial(f: Monomial) -> str:
    sign, omega, a, b, d = f
    parts = []
    if omega:
        parts.append(f"w^{omega}")
    if a:
        parts.append("x" if a == 1 else f"x^{a}")
    if b:
        parts.append("(x-1)" if b == 1 else f"(x-1)^{b}")
    if d:
        parts.append("y" if d == 1 else f"y^{d}")
    body = "*".join(parts) if parts else "1"
    return ("-" if sign < 0 else "") + body


def make_monomial(sign: int, omega: int, a: int, b: int, d: int, p: int, gamma: int) -> Monomial:
    """Normalize raw exponent data with the rewrite y^p = x^gamma (x-1)."""
    if sign not in (1, -1):
        raise OutOfRangeError(f"sign must be +-1, got {sign!r}")
    q, r = divmod(d, p)
    return sign, omega % p, a + q * gamma, b + q, r


def mf_mul(f: Monomial, g: Monomial, p: int, gamma: int) -> Monomial:
    return make_monomial(f[0] * g[0], f[1] + g[1], f[2] + g[2], f[3] + g[3], f[4] + g[4], p, gamma)


def mf_pow(f: Monomial, e: int, p: int, gamma: int) -> Monomial:
    sign, omega, a, b, d = f
    return make_monomial(sign if e % 2 else 1, omega * e, a * e, b * e, d * e, p, gamma)


# Monomial form of each Moebius map and of (map - 1); both are needed when
# substituting into an expression containing x and (x - 1).
MOEBIUS_MONOMIALS = {
    MoebiusLabel.ID: ((1, 0, 1, 0, 0), (1, 0, 0, 1, 0)),
    MoebiusLabel.INV: ((1, 0, -1, 0, 0), (-1, 0, -1, 1, 0)),
    MoebiusLabel.ONE_MINUS: ((-1, 0, 0, 1, 0), (-1, 0, 1, 0, 0)),
    MoebiusLabel.OVER: ((1, 0, 1, -1, 0), (1, 0, 0, -1, 0)),
    MoebiusLabel.CYC: ((-1, 0, 0, -1, 0), (-1, 0, 1, -1, 0)),
    MoebiusLabel.CYC2: ((1, 0, -1, 1, 0), (-1, 0, -1, 0, 0)),
}

_LABEL_OF_MONOMIAL = {mono: label for label, (mono, _) in MOEBIUS_MONOMIALS.items()}


def x_label(m: Map) -> MoebiusLabel:
    """The Moebius label of the map's x-image; NonMonomialError for any other."""
    label = _LABEL_OF_MONOMIAL.get(m[2])
    if label is None:
        raise NonMonomialError(f"x-image {m[2]!r} is not a Moebius monomial")
    return label


def render_map(m: Map) -> str:
    return f"({render_monomial(m[2])}, {render_monomial(m[3])})"


def identity_map(p: int, gamma: int) -> Map:
    return p, gamma, (1, 0, 1, 0, 0), (1, 0, 0, 0, 1)


def _substitute(
    f: Monomial,
    x_val: Monomial,
    x_minus_one: Monomial,
    y_val: Monomial | None,
    p: int,
    gamma: int,
) -> Monomial:
    """Evaluate f at x := X, y := Y (monomial in, monomial out), X = x_val
    and X - 1 = x_minus_one Moebius monomials, which carry no w and no y;
    y_val is Y, read only when f holds y (None will do otherwise).

    Every exponent of the result is linear in f's: with f = sign w^omega
    x^a (x-1)^b y^d, the sign is sign X.sign^a (X-1).sign^b Y.sign^d, the
    w-exponent omega + d Y.omega, the x-exponent a X.a + b (X-1).a + d Y.a
    (and likewise for x - 1), and the y-exponent d Y.d.  One
    normalization at the end gives the same normal form as multiplying
    the powers one by one: the rewrite y^p = x^gamma (x-1) is additive and
    normal forms are canonical.
    """
    sign, omega, a, b, d = f
    xs, _, xa, xb, _ = x_val
    ms, _, ma, mb, _ = x_minus_one
    if a & 1:
        sign *= xs
    if b & 1:
        sign *= ms
    if not d:
        return make_monomial(sign, omega, a * xa + b * ma, a * xb + b * mb, 0, p, gamma)
    ys, yw, ya, yb, yd = y_val
    if d & 1:
        sign *= ys
    return make_monomial(
        sign, omega + d * yw, a * xa + b * ma + d * ya, a * xb + b * mb + d * yb, d * yd, p, gamma
    )


def compose(outer: Map, inner: Map) -> Map:
    """outer after inner.  The x-images of outer, inner and the result must
    be Moebius monomials (NonMonomialError); leaving the set would be a
    bug, not bad input."""
    p, gamma, x, y = outer
    q, g, x_val, y_val = inner
    if q != p or g != gamma:
        raise GroupMismatchError(f"map on (p={p}, gamma={gamma}) composed with (p={q}, gamma={g})")
    x_label(outer)  # refuses it before x is substituted, with no Y for a y in it
    x_minus_one = MOEBIUS_MONOMIALS[x_label(inner)][1]
    new_x = _substitute(x, x_val, x_minus_one, None, p, gamma)
    if new_x not in _LABEL_OF_MONOMIAL:
        raise NonMonomialError(f"x-image {new_x!r} is not a Moebius monomial")
    return p, gamma, new_x, _substitute(y, x_val, x_minus_one, y_val, p, gamma)


def moebius_table_gap(p: int) -> str | None:
    """The first pair of labels (f, g) for which f after g, with g and
    g - 1 substituted from MOEBIUS_MONOMIALS, is not the table's monomial
    of f.compose(g); None when all 36 pairs agree.  A wrong monomial for g
    shows in 1/g, a wrong one for g - 1 in 1 - g = -(g - 1)."""
    for f, (fx, _) in MOEBIUS_MONOMIALS.items():
        for g, (gx, g_minus_one) in MOEBIUS_MONOMIALS.items():
            fg = _substitute(fx, gx, g_minus_one, None, p, 1)
            label = f.compose(g)
            if fg != MOEBIUS_MONOMIALS[label][0]:
                return f"{f.name} after {g.name} gives {render_monomial(fg)}, not the monomial of {label.name}"
    return None


def map_power(m: Map, e: int) -> Map:
    if e < 0:
        raise OutOfRangeError("negative powers are expressed via the map's order")
    result, base = identity_map(m[0], m[1]), m
    while e:
        if e & 1:
            result = compose(result, base)
        base = compose(base, base) if e > 1 else base
        e >>= 1
    return result


def build_T(ctx: PrimeContext, gamma: int | None = None) -> Map:
    """T(x, y) = (x, w y), the deck transformation of the degree-p cover.

    T exists on every curve of the family; gamma here is the exponent of
    the curve carrying the map (defaulting to ctx.gamma, the one curve
    where T meets R).
    """
    if gamma is not None:
        ctx.require_X(gamma)
    return ctx.p, ctx.gamma if gamma is None else gamma, MOEBIUS_MONOMIALS[MoebiusLabel.ID][0], (1, 1, 0, 0, 1)


def epsilon_rule(g: int) -> int:
    """The sign parity of R on the curve of gamma = g: 1 for even g, else 2."""
    return 1 if g % 2 == 0 else 2


def build_R(ctx: PrimeContext, epsilon: int | None = None) -> Map:
    """The order-3 map R(x, y) = (1/(1-x), (-1)^eps x^((g^2+g+1)/p) / y^(g+1)).

    The exponent (g^2+g+1)/p is an exact integer because p divides
    g^2+g+1; a context whose gamma is no root raises NoGammaError, as
    :class:`~fermatjac.groups.Group` does.  The sign parity defaults to :func:`epsilon_rule`; passing
    epsilon explicitly lets tests certify that exactly one parity yields
    a curve automorphism.
    """
    p, g = ctx.p, ctx.gamma
    quot, rem = divmod(g * g + g + 1, p)
    if rem:
        raise NoGammaError(f"{g} is not a root of g^2+g+1 mod {p}")
    if epsilon is None:
        epsilon = epsilon_rule(g)
    if epsilon not in (1, 2):
        raise OutOfRangeError(f"epsilon must be 1 or 2, got {epsilon!r}")
    sign = -1 if epsilon % 2 else 1
    return p, g, MOEBIUS_MONOMIALS[MoebiusLabel.CYC][0], make_monomial(sign, 0, quot, 0, -(g + 1), p, g)


def build_J(ctx: PrimeContext) -> Map:
    """The hyperelliptic involution J(x, y) = (1 - x, y) of the curve C_1."""
    return ctx.p, 1, MOEBIUS_MONOMIALS[MoebiusLabel.ONE_MINUS][0], (1, 0, 0, 0, 1)


def verify_curve_automorphism(m: Map) -> bool:
    """Does the map preserve y^p = x^gamma (x-1)?

    Substituting, the images must satisfy the same relation:
    (y_image)^p and (x_image)^gamma (x_image - 1) must have equal normal
    forms.  Normal forms are canonical on the curve, so this comparison
    is exact.
    """
    p, gamma, x, y = m
    x_minus_one = MOEBIUS_MONOMIALS[x_label(m)][1]
    return mf_pow(y, p, p, gamma) == mf_mul(mf_pow(x, gamma, p, gamma), x_minus_one, p, gamma)


def word_map(word: list[tuple[str, int]], ctx: PrimeContext) -> Map:
    """Compose a word in T and R on the curve of ctx.gamma, written left
    to right as functions (the rightmost letter acts first).  Exponents
    reduce mod the letter's order, so negative powers are fine."""
    letters = {"T": (build_T(ctx), ctx.p), "R": (build_R(ctx), 3)}
    m = identity_map(ctx.p, ctx.gamma)
    for letter, exp in word:
        if letter not in letters:
            raise OutOfRangeError(f"unknown letter {letter!r}, expected 'T' or 'R'")
        base, modulus = letters[letter]
        m = compose(m, map_power(base, exp % modulus))
    return m


def verify_relation(lhs: list[tuple[str, int]], rhs: list[tuple[str, int]], ctx: PrimeContext) -> bool:
    """Exact normal-form equality of two words in T and R."""
    return word_map(lhs, ctx) == word_map(rhs, ctx)


def epsilon_parity_report(ctx: PrimeContext) -> dict:
    """Try both sign parities for R; exactly one must preserve the curve.

    Certifies the parity rule computationally instead of trusting it.
    """
    g = ctx.gamma
    passing = [eps for eps in (1, 2) if verify_curve_automorphism(build_R(ctx, epsilon=eps))]
    if len(passing) != 1:
        raise CheckFailedError(
            f"p = {ctx.p}, gamma = {g}: expected exactly one sign parity to preserve the curve,"
            f" got {passing}"
        )
    rule = epsilon_rule(g)
    return {
        "gamma": g,
        "passing_epsilon": passing[0],
        "rule_epsilon": rule,
        "rule_matches": passing[0] == rule,
    }
