"""Exact arithmetic mod p and the three-letter symmetry orbits on X_p.

For a prime p >= 5 put X_p = {1, ..., p-2} inside the field of p
elements.  The symmetric group on three letters acts on X_p through

    U(a) = -(1 + a)^(-1)        V(a) = a^(-1)

with U^3 = V^2 = (UV)^2 = 1.  The orbit of a is

    O(a) = {a, a^(-1), -(1+a), -(1+a)^(-1), -a^(-1)(1+a), -a(1+a)^(-1)}.

There is always exactly one orbit of size three, O(1) = {1, p-2, (p-1)/2}.
When p = 1 mod 3 the two roots of g^2 + g + 1 = 0 form the unique orbit
of size two; every other orbit has size six.  These orbits index the
isomorphism classes of the degree-p cyclic covers handled in
:mod:`fermatjac.curves`, and their sizes become the multiplicities of the
Jacobian factors assembled in :mod:`fermatjac.decompose`.
"""

from __future__ import annotations

from .errors import AuditFailError, NoGammaError, NotPrimeError, OutOfRangeError, TooLargeError, TooSmallError
from .records import Const, FrozenRecord, set_field

# The largest p any command accepts.  Every step of orbits, decompose
# and basic verify is O(p); at p = 100003 (p = 1 mod 3, the slower
# residue) decompose --format json takes 0.34-0.42 s and 52 MB and
# verify 0.23-0.29 s and 32 MB, start-up included.  sweep has a lower
# cap in cli.py, and verify --depth full none of its own.
MAX_P = 100_003


def is_prime(n: int) -> bool:
    """Deterministic trial division; ample for p <= MAX_P."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class OrbitKind(Const):
    SPECIAL_ONE = "special_one"
    GAMMA = "gamma"
    GENERIC = "generic"


class PrimeContext(FrozenRecord):
    """A prime p >= 5 plus the root pair of g^2 + g + 1 = 0 mod p, if any.

    ``gamma_pair`` holds both roots, smaller first; it is present exactly
    when p = 1 mod 3.  The two roots are inverses of each other and sum
    to -1, so the second is always p - 1 - gamma.  Which root "names" the
    size-two orbit is a convention, not mathematics: both give the same
    orbit and isomorphic curves.
    """

    __slots__ = _fields = ("p", "residue_class_mod_3", "gamma_pair")

    def __init__(self, p: int, residue_class_mod_3: int, gamma_pair: tuple[int, int] | None):
        set_field(self, "p", p)
        set_field(self, "residue_class_mod_3", residue_class_mod_3)
        set_field(self, "gamma_pair", gamma_pair)

    @property
    def has_gamma(self) -> bool:
        return self.gamma_pair is not None

    @property
    def gamma(self) -> int:
        """The conventional (smaller) root."""
        if self.gamma_pair is None:
            raise NoGammaError(f"p = {self.p} = 2 mod 3 has no root of g^2+g+1")
        return self.gamma_pair[0]

    def inv(self, a: int) -> int:
        return pow(a, -1, self.p)

    def require_X(self, a: int) -> None:
        if not isinstance(a, int) or not 1 <= a <= self.p - 2:
            raise OutOfRangeError(
                f"{a!r} is not in X_p = {{1,...,{self.p - 2}}} for p = {self.p}"
            )


def make_context(p: int) -> PrimeContext:
    """Validate p and build the context with its gamma roots.

    For p = 1 mod 3 the roots of g^2 + g + 1 are the cube roots of unity
    other than 1, and x^((p-1)/3) is one for each x not a cube mod p:
    the first x >= 2 whose power is not 1 gives one root gamma, and
    p - 1 - gamma is the other.  For p <= MAX_P that x is at most 17
    (at p = 39199), so a few powers stand in for a scan of X_p.
    """
    if not isinstance(p, int):
        raise NotPrimeError(f"p must be an integer, got {p!r}")
    if p < 5:
        raise TooSmallError(f"p = {p} is below the minimum 5")
    if p > MAX_P:
        raise TooLargeError(f"p = {p} exceeds the supported bound {MAX_P}")
    if not is_prime(p):
        raise NotPrimeError(f"p = {p} is not prime")

    residue = p % 3
    gamma_pair = None
    if residue == 1:
        x = 2
        while (g := pow(x, (p - 1) // 3, p)) == 1:
            x += 1
        # g^3 = x^(p-1) = 1 and g != 1, so g is a root of g^2 + g + 1,
        # -1 - g being the other root and g (-1 - g) = 1
        gamma_pair = tuple(sorted((g, p - 1 - g)))
    return PrimeContext(p=p, residue_class_mod_3=residue, gamma_pair=gamma_pair)


class OrbitClass(FrozenRecord):
    """One orbit on X_p: sorted elements, smallest member as representative."""

    __slots__ = _fields = ("representative", "elements", "kind")

    def __init__(self, representative: int, elements: tuple[int, ...], kind: OrbitKind):
        set_field(self, "representative", representative)
        set_field(self, "elements", elements)
        set_field(self, "kind", kind)

    @property
    def size(self) -> int:
        return len(self.elements)


def _classify(elements: tuple[int, ...], alpha: int, ctx: PrimeContext) -> OrbitClass:
    """The orbit of alpha with the given sorted elements, its kind read
    off its size; a size or a special orbit other than the known ones
    raises."""
    size = len(elements)
    if size == 3:
        expected = tuple(sorted((1, ctx.p - 2, (ctx.p - 1) // 2)))
        if elements != expected:
            raise AuditFailError(f"p = {ctx.p}: size-3 orbit {elements} is not O(1) = {expected}")
        kind = OrbitKind.SPECIAL_ONE
    elif size == 2:
        if not (ctx.has_gamma and elements == ctx.gamma_pair):
            raise AuditFailError(
                f"p = {ctx.p}: size-2 orbit {elements} is not the gamma pair {ctx.gamma_pair}"
            )
        kind = OrbitKind.GAMMA
    else:
        if size != 6:
            raise AuditFailError(f"p = {ctx.p}: impossible orbit size {size} for {alpha}")
        kind = OrbitKind.GENERIC
    return OrbitClass(representative=elements[0], elements=elements, kind=kind)


class OrbitPartition(FrozenRecord):
    """The full orbit decomposition of X_p, orbits sorted by representative;
    ``_orbit_of`` indexes the orbits by element and is not a field."""

    _fields = ("context", "orbits")
    __slots__ = (*_fields, "_orbit_of")

    def __init__(self, context: PrimeContext, orbits: tuple[OrbitClass, ...]):
        set_field(self, "context", context)
        set_field(self, "orbits", orbits)
        set_field(self, "_orbit_of", {a: o for o in orbits for a in o.elements})

    def orbit_of(self, alpha: int) -> OrbitClass:
        self.context.require_X(alpha)
        try:
            return self._orbit_of[alpha]
        except KeyError:
            raise AuditFailError(f"p = {self.context.p}: the partition does not cover {alpha}") from None


def orbit_census(ctx: PrimeContext) -> dict[tuple[str, int], int]:
    """(kind value, size) -> the number of such orbits on X_p: the census
    of the module docs, with (p - 5 - 2 [gamma]) / 6 generic orbits."""
    p, (one, gamma, generic) = ctx.p, [kind.value for kind in OrbitKind]
    n = (p - 7) // 6 if ctx.has_gamma else (p - 5) // 6
    return {(one, 3): 1, (gamma, 2): int(ctx.has_gamma), (generic, 6): n}


def probe_points(ctx: PrimeContext) -> tuple[int, ...]:
    """1, 2, p - 2 and gamma, if any: three points of X_p or more, one of
    each orbit kind (1 is special, and 2 generic once p > 7)."""
    return tuple(sorted({1, 2, ctx.p - 2, *(ctx.gamma_pair or ())[:1]}))


def inverse_table(p: int) -> list[int]:
    """inv[a] = a^(-1) mod p for a = 1, ..., p-1 (inv[0] = 0), in O(p):
    p = (p // a) a + p mod a gives a^(-1) = -(p // a) (p mod a)^(-1)."""
    inv = [0, 1] + [0] * (p - 2)
    for a in range(2, p):
        inv[a] = -(p // a) * inv[p % a] % p
    return inv


def orbit_partition(ctx: PrimeContext) -> OrbitPartition:
    """Every orbit on X_p, each read off the six-element formula of the
    module docs with an O(p) inverse table, in order of representative,
    and counted by (kind, size) as they are built: a count off the census
    raises, so every command that builds the partition checks it."""
    p = ctx.p
    inv = inverse_table(p)
    census = orbit_census(ctx)
    counts = dict.fromkeys(census, 0)
    orbits = []
    covered = bytearray(p)
    for a in range(1, p - 1):
        if covered[a]:
            continue
        s = a + 1
        elements = tuple(sorted({a, inv[a], p - s, p - inv[s], -inv[a] * s % p, -a * inv[s] % p}))
        orbits.append(orbit := _classify(elements, a, ctx))
        key = orbit.kind.value, len(elements)
        counts[key] = counts.get(key, 0) + 1
        for b in elements:
            covered[b] = 1
    if sum(covered) != p - 2:
        raise AuditFailError(f"p = {p}: the orbits cover {sum(covered)} points, not {p - 2}")
    if counts != census:
        raise AuditFailError(f"p = {p}: orbits by (kind, size) {counts}, expected {census}")
    return OrbitPartition(context=ctx, orbits=tuple(orbits))
