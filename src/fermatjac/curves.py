"""The cyclic p-gonal curve family y^p = x^a (x-1)^b and its classification.

Each exponent a in X_p labels a canonical curve C_a : y^p = x^a (x-1) of
genus (p-1)/2.  The general two-exponent form C_{a,b} only enters as an
input to :func:`normalized_exponent`, which rewrites it as C_{a b^(-1)}.
Two canonical curves are isomorphic exactly when their exponents share an
orbit under the action of :mod:`fermatjac.orbits`; each of the six
Moebius transformations permuting {0, 1, oo} transports an exponent to a
specific member of its orbit, by its rule in :data:`MOEBIUS_TRANSPORT`.

Moebius maps are identified here by label only.  Their action on curve
exponents is what matters for classification; the lifted action on
function fields lives in :mod:`fermatjac.monomial`.
"""

from __future__ import annotations

from .errors import DegenerateCurveError, NoGammaError, OutOfRangeError
from .orbits import PrimeContext
from .records import Const, FrozenRecord, set_field


class CurveFamily(Const):
    FERMAT = "fermat"
    P_GONAL = "p_gonal"
    E_QUOTIENT = "e_quotient"


class MoebiusLabel(Const):
    """The six Moebius transformations preserving {0, 1, oo}.

    Each value records the permutation induced on the points, indexed
    (0, 1, oo); composing labels is composing these permutations, which
    determines the Moebius map uniquely (three points pin it down).
    """

    ID = ("x", (0, 1, 2))
    INV = ("1/x", (2, 1, 0))
    ONE_MINUS = ("1-x", (1, 0, 2))
    OVER = ("x/(x-1)", (0, 2, 1))
    CYC = ("1/(1-x)", (1, 2, 0))
    CYC2 = ("(x-1)/x", (2, 0, 1))

    def __init__(self, formula: str, perm: tuple[int, int, int]):
        self.formula = formula
        self.perm = perm

    def compose(self, other: "MoebiusLabel") -> "MoebiusLabel":
        """self after other (other applied first)."""
        return _COMPOSE[self, other]


_BY_PERM = {label.perm: label for label in MoebiusLabel}
# (f, g) -> f after g, read off the permutations: (f g)(i) = f(g(i)).
_COMPOSE = {(f, g): _BY_PERM[tuple(f.perm[i] for i in g.perm)] for f in MoebiusLabel for g in MoebiusLabel}

# The exponent of the image of C_alpha under each Moebius map, each a
# rule (a, inv, p) -> exponent with inv(b) = b^(-1) mod p, as the S3
# generators of fermatjac.orbits.  The image lies in the orbit of alpha,
# and transport by f.compose(g) applies f's rule first.
MOEBIUS_TRANSPORT = {
    MoebiusLabel.ID: lambda a, inv, p: a,
    MoebiusLabel.INV: lambda a, inv, p: p - 1 - a,
    MoebiusLabel.ONE_MINUS: lambda a, inv, p: inv(a),
    MoebiusLabel.OVER: lambda a, inv, p: -a * inv(1 + a) % p,
    MoebiusLabel.CYC: lambda a, inv, p: p - inv(1 + a),
    MoebiusLabel.CYC2: lambda a, inv, p: -(1 + a) * inv(a) % p,
}


class CurveSpec(FrozenRecord):
    """A curve descriptor: the Fermat curve, a canonical C_alpha, or the
    genus-(p-1)/6 quotient E_gamma of the gamma curve."""

    __slots__ = _fields = ("context", "family", "alpha")

    def __init__(self, context: PrimeContext, family: CurveFamily, alpha: int | None = None):
        p = context.p
        if family is CurveFamily.FERMAT:
            if alpha is not None:
                raise OutOfRangeError("Fermat curve takes no exponent")
        elif family is CurveFamily.P_GONAL:
            context.require_X(alpha)
        elif family is CurveFamily.E_QUOTIENT:
            if not context.has_gamma:
                raise NoGammaError(f"p = {p} = 2 mod 3 admits no quotient curve E")
            if alpha not in context.gamma_pair:
                raise OutOfRangeError(f"E exponent {alpha} is not a root of g^2+g+1 mod {p}")
        set_field(self, "context", context)
        set_field(self, "family", family)
        set_field(self, "alpha", alpha)

    def describe(self) -> str:
        return CURVE_FORMATS[self.family][0] % {"p": self.context.p, "alpha": self.alpha}

    def equation(self) -> str:
        return CURVE_FORMATS[self.family][1] % {"p": self.context.p, "alpha": self.alpha}


# Each family's name, equation and Jacobian symbol, %-formats of the ints p and
# alpha stated once: CurveSpec and IsogenyFactor fill them, the JSON rows too.
CURVE_FORMATS = {
    CurveFamily.FERMAT: ("F(%(p)d)", "x^%(p)d + y^%(p)d + z^%(p)d = 0", "JF(%(p)d)"),
    CurveFamily.P_GONAL: ("C_alpha(p=%(p)d, alpha=%(alpha)d)", "y^%(p)d = x^%(alpha)d*(x-1)", "JC(%(alpha)d)"),
    CurveFamily.E_QUOTIENT: ("E_gamma(p=%(p)d, gamma=%(alpha)d)", "C_gamma(p=%(p)d)/<R>", "JE(%(alpha)d)"),
}


def normalized_exponent(alpha: int, beta: int, ctx: PrimeContext) -> int:
    """The exponent of the canonical form of y^p = x^alpha (x-1)^beta.

    Rescaling the exponent pair by any unit gives an isomorphic curve, so
    (alpha, beta) reduces to (alpha beta^(-1), 1).  The pair is rejected
    when alpha + beta = 0 mod p: the cover degenerates (it would not be
    branched with order p over all three of 0, 1, oo).
    """
    p = ctx.p
    if not (isinstance(alpha, int) and 0 < alpha < p):
        raise OutOfRangeError(f"alpha = {alpha!r} not in {{1,...,{p - 1}}}")
    if not (isinstance(beta, int) and 0 < beta < p):
        raise OutOfRangeError(f"beta = {beta!r} not in {{1,...,{p - 1}}}")
    if (alpha + beta) % p == 0:
        raise DegenerateCurveError(
            f"alpha + beta = 0 mod {p}: the cyclic cover degenerates"
        )
    exponent = alpha * pow(beta, -1, p) % p
    # can't happen: alpha / beta is a unit, and it is -1 only when
    # alpha + beta = 0, which was refused above
    assert 1 <= exponent <= p - 2
    return exponent


def genus_of(spec: CurveSpec) -> int:
    p = spec.context.p
    if spec.family is CurveFamily.FERMAT:
        return (p - 1) * (p - 2) // 2
    if spec.family is CurveFamily.P_GONAL:
        assert (p - 1) % 2 == 0  # can't happen: p is an odd prime
        return (p - 1) // 2
    # can't happen: CurveSpec refuses an E quotient unless p = 1 mod 3
    assert (p - 1) % 6 == 0, f"p = {p} = 2 mod 3 has no E quotient"
    return (p - 1) // 6


def deck_exponent(j: int, p: int) -> int:
    """The canonical exponent of the deck quotient indexed by j in X_p.

    The quotient surface carries the cyclic cover with exponent
    -(1+j) mod p, whose canonical representative is p - 1 - j.
    """
    return p - 1 - j


def quotient_to_curve(j: int, ctx: PrimeContext) -> CurveSpec:
    """The canonical curve isomorphic to the deck quotient indexed by j."""
    ctx.require_X(j)
    alpha = deck_exponent(j, ctx.p)
    # can't happen: p - 1 - j = -(1 + j) mod p for every j
    assert alpha == (-(1 + j)) % ctx.p
    return CurveSpec(context=ctx, family=CurveFamily.P_GONAL, alpha=alpha)
