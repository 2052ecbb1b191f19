"""Character-theoretic certificates for the decomposition.

The automorphism group acts on the first homology of the curve; the
trace of that action is an integer class function determined by fixed
points alone: dimension 2g at the identity and 2 - |Fix(g)| elsewhere
(the Lefschetz count).  Pairing it against permutation characters of
coset actions gives exact integer certificates:

    <chi_triv, chi_hom>   = 2 * genus(quotient by the whole group) = 0,
    <chi_{G/K}, chi_hom>  = 2 * genus(quotient by K)

(the second by Frobenius reciprocity: the pairing computes the dimension
of the K-fixed subspace of homology).  For each free deck subgroup the
value is p - 1, twice the quotient genus.  A class function is a
default value plus blocks of classes of one kind where it differs: the
homology character is 2 but on the identity and the blocks of the fix
table's support.  Permutation characters come from Frobenius' formula
over the classes K meets (:class:`ClassData`), and inner products are
class-weighted sums over the blocks, exact integers.  The test suite
checks both against fixed cosets of an explicit coset labelling and a
sum over all group elements.
"""

from __future__ import annotations

from .errors import CheckFailedError, GroupMismatchError, ShapeMismatchError
from .genus import FixTable, fermat_genus
from .groups import ClassData, Subgroup, block_sum, block_value


class ClassFunction:
    """An integer-valued class function: its ``default`` value, and its
    ``support``, blocks of class keys -> value where that differs, given
    key by key.  A key that names no class raises."""

    __slots__ = ("data", "support", "default", "name", "_by_line")

    def __init__(self, data: ClassData, support: dict[int, int], name: str = "", default: int = 0):
        for c in support:
            if not data.is_key(c):
                raise ShapeMismatchError(f"{c!r} is the key of no class of {data.group}")
        self.data, self.default, self.name, self._by_line = data, default, name, None
        self.support = {range(c, c + 1): v for c, v in support.items() if v != default}

    def __call__(self, i: int):
        """The value at the element with index i; an index outside the
        group raises."""
        return block_value(self.support, self.data.key(self.data.group.check_index(i)), self.default)

    @property
    def at_identity(self):
        return block_value(self.support, self.data.identity_key, self.default)

    def __repr__(self):
        return f"ClassFunction({self.name!r}, dim={self.at_identity})"


def chi_trivial(data: ClassData) -> ClassFunction:
    return ClassFunction(data, {}, "trivial", default=1)


def chi_rat(fix: FixTable, data: ClassData) -> ClassFunction:
    """Trace of the Fermat group's action on first homology (dimension 2g).

    chi(1) = 2g = (p-1)(p-2); chi(g) = 2 - |Fix(g)| otherwise, read off
    the support of the full fix table of the triple fiber model, which
    must live in the class data's Fermat group.
    """
    group = data.group
    if fix.group != group or group.gamma is not None:
        raise GroupMismatchError(f"{fix!r} and class data for {group} do not share one Fermat group")
    if fix.support is None:
        raise ShapeMismatchError(f"{fix!r} has no class support")
    chi = ClassFunction(data, {}, "homology", default=2)
    chi.support = {keys: 2 - f for keys, f in fix.support.items() if f}  # blocks of data's classes already
    chi.support[range(1)] = 2 * fermat_genus(group.p)
    chi._by_line = fix.by_line  # the lines of the support's translation classes, when the table has them
    return chi


def induced_perm_character(k: Subgroup, data: ClassData) -> ClassFunction:
    """Permutation character of the action on cosets of K: the number of
    cosets each element fixes, by Frobenius' formula.  It vanishes off
    the classes K meets, so it is built on those alone.  At the identity
    this is the index."""
    if k.group != data.group:
        raise GroupMismatchError(f"{k!r} does not live in {data.group}")
    if data.order % k.order:
        raise CheckFailedError(f"{k!r} has order {k.order}, which does not divide {data.order}")
    fixed = data.fixed_cosets(data.class_counts(k.group.closure(k.generators)), k.order)
    fn = ClassFunction(data, {keys.start: q for keys, q in fixed.items()}, f"perm(G/{k!r})")
    if fn.at_identity * k.order != data.order:
        raise CheckFailedError(f"{fn.at_identity} cosets of {k!r} in a group of order {data.order}")
    return fn


def perm_pairing(k: Subgroup, fn: ClassFunction) -> int:
    """<perm(G/K), f> = <1, f on K>_K by Frobenius reciprocity, without
    building perm(G/K): f's default plus (1/|K|) sum over f's support of
    |C n K| (f(C) - default), a line or the plane by f's line index (a
    line of none of its classes, as chi_hom's fixing nothing, adds 0)."""
    data, support, default = fn.data, fn.support, fn.default
    if k.group != data.group:
        raise GroupMismatchError(f"{k!r} does not live in {data.group}")
    if k.lines and fn._by_line is None:
        raise ShapeMismatchError(f"{fn!r} has no line index to read {k!r} by")
    total = block_sum(data.meet_counts(k, fn._by_line), {keys: v - default for keys, v in support.items()})
    q, rest = divmod(total, k.order)
    if rest:
        raise CheckFailedError(f"<perm(G/{k!r}), {fn.name}> = {default} + {total}/{k.order} is not an integer")
    return default + q


def inner_product(f1: ClassFunction, f2: ClassFunction) -> int:
    """(1/|G|) sum over all group elements of f1(g) f2(g), exactly: the
    defaults' product over the group, plus size times (product less the
    defaults' product) on the supports, by blocks of one class kind
    (:func:`~fermatjac.groups.block_sum`).  The pairing of two characters
    is an integer; a sum that |G| does not divide raises.

    Integer-valued class functions are self-conjugate, so no conjugation
    appears.
    """
    if f1.data.group != f2.data.group:
        raise GroupMismatchError("inner product of class functions on different groups")
    data, d1, d2 = f1.data, f1.default, f2.default
    # f1 f2 - d1 d2 = e1 e2 + e1 d2 + d1 e2 for the excesses e = f - default
    w1 = {keys: data.size(keys.start) * (v - d1) for keys, v in f1.support.items()}  # size-weighted
    e2 = {keys: v - d2 for keys, v in f2.support.items()}
    total = d1 * d2 * data.order + block_sum(w1, e2) + d2 * sum(w * len(keys) for keys, w in w1.items())
    total += d1 * sum(data.size(keys.start) * e * len(keys) for keys, e in e2.items())
    pairing, rest = divmod(total, data.order)
    if rest:
        raise CheckFailedError(f"<{f1.name}, {f2.name}> = {total}/{data.order} is not an integer")
    return pairing
