"""Fixed-point tables and two independent quotient-genus oracles.

Oracle one is the Riemann-Hurwitz formula in group form: for a subgroup K
acting on a surface of genus g with fix(k) fixed points for each k != 1,

    2 g - 2 = |K| (2 g_K - 2) + sum over k != 1 of fix(k).

The sum is read once per cyclic subgroup: Fix(g) = Fix(<g>) for g != 1,
as a point fixed by g is fixed by its powers, and g is a power of every
generator of <g>, so one read stands for all of them.  Reads at evenly
spaced indices, the points of the p + 1 lines of F_p^2 or the T^k R, are
one :meth:`FixTable.at_range` call, which checks the range once.

Oracle two needs no fixed-point data at all.  The Fermat curve is the
quotient of the hyperbolic plane by a surface group normal in a triangle
group of signature (2, 3, 2p); concretely, the full automorphism group is
generated by a pair of elements of orders 2 and 3 whose product has order
2p (a generating triple, in closed form).  A subgroup K then corresponds
to the action of the triple on the cosets G/K, and the ramification
bookkeeping collapses to a cycle count:

    g_K = (2 + [G:K] - total number of cycles of the three entries) / 2.

No coset is listed.  An entry c of order m has (1/m) sum over d < m of
fix(c^d) cycles on G/K (Burnside's lemma), and c^d fixes
|G| |C n K| / (|C| |K|) cosets, C its conjugacy class (Frobenius'
formula for permutation characters; Isaacs, *Character Theory of Finite
Groups*, ch. 5).  So the oracle reads the classes of the entries' powers,
in closed form by class kind (an axis line's points, no power listed),
and those K meets, a line or the plane by line orbit, never an element's
key.  A non-integral quotient or total is an error, naming p and K.

The triple also extends the known fixed-point data from the translation
subgroup to the whole group: every point with nontrivial stabilizer sits
in one of three special fibers, each a coset space of a cyclic subgroup
generated by a triple entry, so |Fix(g)| is the number of cosets g fixes,
again by Frobenius' formula.  Both oracles must agree on every subgroup;
the test suite enforces this, and compares both with explicit coset
labellings.
"""

from __future__ import annotations

from .errors import (
    GroupMismatchError,
    IdentityInputError,
    InconsistentOrbifoldError,
    InconsistentRHError,
    NotSubgroupOfHError,
    OutOfRangeError,
)
from .groups import (
    IDENTITY,
    PERM_U,
    PERM_U2,
    PERM_U2V,
    PERM_UV,
    PERM_V,
    ClassData,
    Group,
    Subgroup,
    block_sum,
    block_value,
    describe,
    fermat_order,
    fermat_translation,
    line_point,
    line_points,
    plane_lines,
)
from .orbits import PrimeContext
from .records import FrozenRecord, set_field


class FixTable:
    """Fixed-point counts for the non-identity elements of a group action.

    ``count_fn`` maps an element index to its count; :meth:`at` reads the
    table by index and :meth:`at_range` at each index of a range, which
    it checks once, at its ends.  Both raise on the identity (excluded by
    definition), on indices outside the group and on elements outside the
    table's domain.  A table computed by class has a ``support``, blocks of
    class keys -> count, and ``by_line``, its translation classes by line
    (:meth:`~fermatjac.groups.ClassData.line_index`).
    """

    def __init__(self, group: Group, count_fn, description: str, support: dict[int, int] | None = None, by_line=None):
        self.group, self._count_fn, self._order = group, count_fn, group.order
        self.description, self.support, self.by_line = description, support, by_line
        self._line_counts = None

    @property
    def line_counts(self) -> list[int]:
        """A Fermat table read once per line of F_p^2, at its point, as the
        line's points but 0 all generate it (module docs); kept."""
        if self._line_counts is None:
            self._line_counts = [self.at(line_point(self.group.p, 0)), *self.at_range(line_points(self.group.p))]
        return self._line_counts

    def at(self, i: int) -> int:
        if not 0 < i < self._order:
            if i == IDENTITY:
                raise IdentityInputError("fix tables exclude the identity")
            raise OutOfRangeError(f"index {i} is not an element of {self.group}")
        return self._count_fn(i)

    def at_range(self, r: range) -> list[int]:
        """[at(i) for i in r], checked once: r runs from its start to short of its stop."""
        n = self._order
        if not (0 < r.start < n and 0 <= r.stop <= n):
            return [self.at(i) for i in r]  # raises as at does, at the first index at refuses
        return list(map(self._count_fn, r))

    def __repr__(self):
        return f"FixTable({self.description!r}, p={self.group.p})"


def fermat_axis_fix_table(ctx: PrimeContext) -> FixTable:
    """Fixed points of translation elements on the Fermat curve.

    Only powers of the three scaling generators a1, a2, a3 fix anything;
    each fixes the full fiber of p points over one branch value.  In
    (m, n) coordinates those are the elements with n = 0, m = 0, or
    m = n.  Domain: the translation subgroup H.
    """
    p = ctx.p
    group = Group(p)

    def count(i: int) -> int:
        # i = 6 p m + r, r = 6 n + sigma: an axis has m = 0, n = 0 or m = n
        m, r = divmod(i, 6 * p)
        if r % 6:
            raise NotSubgroupOfHError(f"{group.coordinates(i)} lies outside the translation subgroup")
        return p if (m == 0 or r == 0 or r == 6 * m) else 0

    return FixTable(group, count, "axis translations fix p points each")


def pgonal_fix_table(ctx: PrimeContext) -> FixTable:
    """Fixed points on the gamma curve: T^k fixes the three points over
    the branch values; every order-3 element fixes exactly two points
    (all are conjugate to R or R^2, and conjugate maps fix equally many)."""
    group = Group(ctx.p, ctx.gamma)
    step = group.translations.step  # <T> is every step-th index; FixTable.at checks the range
    return FixTable(group, lambda i: 3 if i % step == 0 else 2, "deck powers fix 3, order-3 maps fix 2")


def riemann_hurwitz(g_top: int, order: int, fix_sum: int) -> int:
    """Quotient genus g_K from 2 g - 2 = |K| (2 g_K - 2) + fix_sum.

    A non-integral or negative result means the fix data contradicts the
    claimed action: an audit failure (InconsistentRHError), never rounded away.
    """
    n = 2 * g_top - 2 - fix_sum + 2 * order
    if n < 0 or n % (2 * order) != 0:
        raise InconsistentRHError(
            f"2g-2 = {2 * g_top - 2}, |K| = {order}, sum fix = {fix_sum}: no integer genus"
        )
    return n // (2 * order)


def naming(exc: InconsistentRHError, k: Subgroup, fix: FixTable) -> InconsistentRHError:
    """The :func:`riemann_hurwitz` failure exc on K with the prime, K
    (:func:`describe`) and the fix table named before its verdict."""
    fact, _, verdict = str(exc).rpartition(": ")
    return InconsistentRHError(f"{fact}, at p = {k.p} on {describe(k)}, fix table '{fix.description}': {verdict}")


def _cyclic_reads(k: Subgroup) -> dict[int, int]:
    """c^(n/d) -> phi(d) for the divisors d > 1 of n = |K|, K = <c>, whose
    phi(d) generators fix alike; n is the order of c, so no c^(n/d) is 1."""
    (c,), n = k.generators, k.order
    phi, m, q = {1: 1}, n, 2  # d -> phi(d) for the divisors d of n, by trial division
    while m > 1:
        q, r = q if q * q <= m else m, 1
        while m % q == 0:
            m, r = m // q, r * q
            phi.update({d * r: f * (r - r // q) for d, f in phi.items() if d % q})
        q += 1
    mul, reads = k.group.mul, {}
    for d, f in phi.items():
        if d > 1:  # y = c^(n/d) by square-and-multiply, lowest bit first
            x, e, y = c, n // d, IDENTITY
            while e:
                if e & 1:
                    y = x if y == IDENTITY else mul(y, x)
                x, e = mul(x, x) if e > 1 else x, e >> 1
            reads[y] = f
    return reads


def rh_genus(g_top: int, k: Subgroup, fix: FixTable) -> int:
    """Riemann-Hurwitz quotient genus, the fix sum read once per cyclic
    subgroup (module docs): a subgroup of H, a line or the plane, by the
    table's :attr:`~FixTable.line_counts`; the whole p-gonal group at T
    and at the T^k R, one per order-3 subgroup; <c> by
    :func:`_cyclic_reads`; else by the listed elements, which only the
    tests ask for.  A failure names p, K and the table (:func:`naming`)."""
    if k.group != fix.group:
        raise OutOfRangeError(f"{k!r} is not in the group of {fix!r}")
    if k.lines:
        total = (k.p - 1) * sum(map(fix.line_counts.__getitem__, k.lines))
    elif k.group.gamma is not None and k.order == k.group.order:
        t, r = k.group.generators
        total = (k.p - 1) * fix.at(t) + 2 * sum(fix.at_range(range(r, k.order, k.group.translations.step)))
    elif len(k.generators) == 1:
        total = sum(f * fix.at(g) for g, f in _cyclic_reads(k).items())
    else:
        total = sum(fix.at(i) for i in k.group.closure(k.generators) if i != IDENTITY)
    try:
        return riemann_hurwitz(g_top, k.order, total)
    except InconsistentRHError as exc:
        raise naming(exc, k, fix) from None


def fermat_genus(p: int) -> int:
    return (p - 1) * (p - 2) // 2


class GeneratingTriple(FrozenRecord):
    """Indices of elements of orders (2, 3, 2p) of the Fermat group at p,
    with product 1, generating the group.  An index outside the group
    raises."""

    __slots__ = _fields = ("p", "c2", "c3", "c2p")

    def __init__(self, p: int, c2: int, c3: int, c2p: int):
        group = Group(p)
        set_field(self, "p", p)
        set_field(self, "c2", group.check_index(c2))
        set_field(self, "c3", group.check_index(c3))
        set_field(self, "c2p", group.check_index(c2p))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.p == other.p and self.c2 == other.c2 and self.c3 == other.c3 and self.c2p == other.c2p

    def __hash__(self):
        return hash((self.p, self.c2, self.c3, self.c2p))

    @property
    def entries(self) -> tuple[tuple[int, int], ...]:
        return ((self.c2, 2), (self.c3, 3), (self.c2p, 2 * self.p))

    def as_dict(self) -> dict:
        where = Group(self.p).coordinates
        return {"c2": list(where(self.c2)), "c3": list(where(self.c3)), "c2p": list(where(self.c2p))}


def find_generating_triple(ctx: PrimeContext) -> GeneratingTriple:
    """The (2, 3, 2p) generating triple (v, a2 u, (v a2 u)^(-1)), first in
    canonical order (v is the first involution; v u and v u^2 have order 2).

    v conjugates a2 to a1, so v a2 u = a1 (v u), and v u = u^2 v is a
    transposition with matrix A = (1, -1; 0, -1): the square of a1 (v u)
    is the translation (I + A)(1, 0) = (2, 0), nonzero for p >= 3, so the
    product has order 2p.  Generation is the argument of
    :func:`generation_gap`; :func:`validate_triple` rechecks it all.
    """
    p = ctx.p
    group = Group(p)
    c2, c3 = PERM_V, fermat_translation(p, 0, 1) + PERM_U
    # c2p = (c2 c3)^(-1) = c3^(-1) c2^(-1) = c3^2 c2
    return GeneratingTriple(p, c2, c3, group.mul(group.mul(c3, c3), c2))


def generation_gap(triple: GeneratingTriple, data: ClassData) -> str | None:
    """The first hypothesis of the generation argument that the triple
    fails, or None when the argument shows that c2 and c3 generate the
    Fermat group G, whose class data is given.

    The argument, for a triple with product 1: c2 maps to a transposition
    and c3 to a 3-cycle of S3, which generate S3, so <c2, c3> maps onto
    S3.  Its meet N with the translation subgroup H = F_p^2 is normal in
    <c2, c3>, and an element x sigma conjugates H as the matrix of sigma
    does, so N is a subspace of F_p^2 stable under all of S3.  N holds
    c2p^2, a nonzero translation, because c2p = (c2 c3)^(-1) lies in
    <c2, c3>.  When no line of F_p^2 is S3-stable, no line orbit being one
    line (none is for p >= 5, as F_p^2 is an irreducible S3-module), N is
    therefore H, and <c2, c3> has order |H| |S3| = 6 p^2 = |G|.  Each
    hypothesis costs O(1) but the last, which reads the line orbits the
    class data keeps for all of full depth (:meth:`ClassData.line_orbits`).
    """
    group = Group(triple.p)
    where = group.coordinates
    c2, c3, c2p = where(triple.c2), where(triple.c3), where(triple.c2p)
    if c2[2] not in (PERM_V, PERM_UV, PERM_U2V):
        return f"c2 = {c2} does not map to a transposition"
    if c3[2] not in (PERM_U, PERM_U2):
        return f"c3 = {c3} does not map to a 3-cycle"
    square = group.mul(triple.c2p, triple.c2p)
    if not group.is_translation(square) or square == IDENTITY:
        return f"c2p^2 = {where(square)} is not a nonzero translation"
    stable = [o.lines[0] for o in data.line_orbits() if len(o.lines) == 1]
    if stable:
        return f"the line through {plane_lines(triple.p)[stable[0]]} of F_p^2 is stable under S3"
    return None


def _power_class_counts(triple: GeneratingTriple, data: ClassData) -> tuple[tuple[tuple[int, dict[range, int]], ...], dict]:
    """For each triple entry c of order m: m and the class counts of its
    powers, the fiber subgroup <c>, and their translation classes by line,
    in closed form, once per class data; no power is listed or keyed."""
    found = data.memo.get(triple)
    if found:
        return found
    if data.group != Group(triple.p):
        raise GroupMismatchError(f"class data for {data.group} cannot serve a triple at p = {triple.p}")
    entries = []
    for c, m in triple.entries:
        order = fermat_order(triple.p, c)
        if order != m:
            raise InconsistentOrbifoldError(f"{data.group.coordinates(c)} generates a subgroup of order {order}, not {m}")
        entries.append((m, data.power_counts(c)))
    data.memo[triple] = found = (tuple(entries), data.line_index(triple.c2p))
    return found


def fermat_full_fix_table(triple: GeneratingTriple, data: ClassData) -> FixTable:
    """Fix counts on all of the Fermat group, once per conjugacy class: the
    cosets of the three fiber subgroups <c> that g fixes, by Frobenius'
    formula, nonzero only on the 2p classes of the entries' powers (the
    ``support``).  The triple and the class data must share one group."""
    blocks: dict[range, int] = {}
    entries, by_line = _power_class_counts(triple, data)
    for m, counts in entries:
        for keys, f in data.fixed_cosets(counts, m).items():
            blocks[keys] = blocks.get(keys, 0) + f
    # a class the powers meet has a positive count, so the support is
    # those classes but the identity's, and by_line indexes its lines
    blocks.pop(range(1), None)
    return FixTable(
        data.group, lambda i: block_value(blocks, data.key(i), 0), "full table via the triple fiber model", blocks, by_line
    )


def coset_genus(k: Subgroup, triple: GeneratingTriple, data: ClassData) -> int:
    """Genus of the quotient by K from the triple's coset action.

    For each triple entry acting on the cosets G/K, a cycle of length L
    covers its cone point with local degree L; collecting the cone-order
    bookkeeping reduces the orbifold Euler characteristic computation to

        g = (2 + [G:K] - total number of cycles) / 2.

    An entry c of order m has (1/m) sum over d < m of fix(c^d) cycles
    (Burnside), each fix count from the classes K meets (Frobenius), so
    the sum runs over the blocks of the entries' powers' classes that K
    meets, a line or the plane by line: no element is keyed.  A failure
    names p, K (:func:`describe`) and both counts.
    """
    p = triple.p
    if k.group.p != p or k.group.gamma is not None:
        raise OutOfRangeError(f"{k!r} does not live in the Fermat group for p = {p}")
    entries, by_line = _power_class_counts(triple, data)
    fixed = data.fixed_cosets(data.meet_counts(k, by_line), k.order, k)
    index = fixed.get(range(1), 0)
    cycles = 0
    for m, counts in entries:
        total = block_sum(counts, fixed)
        if total % m:
            raise InconsistentOrbifoldError(
                f"an entry of order {m} fixes {total} cosets over its powers, at p = {p} on {describe(k)}:"
                f" not a multiple of {m}"
            )
        cycles += total // m
    num = 2 + index - cycles
    if num < 0 or num % 2 != 0:
        raise InconsistentOrbifoldError(
            f"[G:K] = {index}, cycles = {cycles}, at p = {p} on {describe(k)}: orbifold count gives no integer genus"
        )
    return num // 2


def validate_triple(triple: GeneratingTriple, data: ClassData) -> dict:
    """Recheck every defining property of a generating triple: the orders
    from the group law, the product, and generation by the argument of
    :func:`generation_gap`.

    Returns the validation evidence; raises on any failure.  Includes the
    known fixed-point count of the scaling generator, read off the full
    fix table, which the evidence carries as ``fix_table``.  Once the
    orders are (2, 3, 2p), two counts hold for every p and are not
    checked: the Euler count 2|G| - sum [G:<c_i>] (m_i - 1) = 3p - p^2 =
    2 - 2g, and the coset genus of the trivial subgroup,
    (2 + 6p^2 - 6p^2 (1/2 + 1/3 + 1/(2p))) / 2 = g.
    """
    p = triple.p
    group = Group(p)
    named = ", ".join(str(group.coordinates(c)) for c, _ in triple.entries)
    orders = tuple(fermat_order(p, c) for c, _ in triple.entries)
    if orders != (2, 3, 2 * p):
        raise InconsistentOrbifoldError(f"the triple {named} has orders {orders}, not (2, 3, {2 * p})")
    product = group.mul(group.mul(triple.c2, triple.c3), triple.c2p)
    if product != IDENTITY:
        raise InconsistentOrbifoldError(
            f"the triple {named} has product {group.coordinates(product)}, not the identity"
        )
    gap = generation_gap(triple, data)
    if gap is not None:
        raise InconsistentOrbifoldError(f"triple does not generate the group: {gap}")
    fix = fermat_full_fix_table(triple, data)
    fix_a1 = fix.at(fermat_translation(p, 1, 0))
    if fix_a1 != p:
        raise InconsistentOrbifoldError(f"fiber model gives fix(a1) = {fix_a1}, expected {p}")
    return {"orders": list(orders), "fix_a1": fix_a1, "fix_table": fix}
