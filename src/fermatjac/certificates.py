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
value is p - 1, twice the quotient genus.  Permutation characters come
from Frobenius' formula over the classes K meets (:class:`ClassData`),
and inner products are class-weighted sums over the classes where both
functions are nonzero, exact integers.  The test
suite checks both against the literal constructions: fixed cosets of an
explicit coset labelling, and a sum over all group elements.
"""

from __future__ import annotations

from .errors import CheckFailedError, GroupMismatchError, ShapeMismatchError
from .genus import FixTable, fermat_genus
from .groups import IDENTITY, ClassData, Subgroup


class ClassFunction:
    """An integer-valued function constant on conjugacy classes, held by
    its support: ``support`` maps each class where the function is not
    zero to its value there.  ``values`` lists one value per class."""

    __slots__ = ("data", "support", "name")

    def __init__(self, data: ClassData, values, name: str = ""):
        if len(values) != len(data.reps):
            raise ShapeMismatchError(f"{len(values)} values for {len(data.reps)} classes")
        self.data = data
        self.support = {c: v for c, v in enumerate(values) if v}
        self.name = name

    @classmethod
    def on_support(cls, data: ClassData, support: dict[int, int], name: str = "") -> "ClassFunction":
        """The function with the given values on the given classes and 0
        on every other class."""
        fn = cls.__new__(cls)
        fn.data = data
        fn.support = {c: v for c, v in support.items() if v}
        fn.name = name
        return fn

    @property
    def values(self) -> tuple:
        return tuple(self.support.get(c, 0) for c in range(len(self.data.reps)))

    def __call__(self, i: int):
        """The value at the element with index i; an index outside the
        group raises."""
        return self.support.get(self.data.class_of[self.data.group.check_index(i)], 0)

    @property
    def at_identity(self):
        return self.support.get(self.data.identity_index, 0)

    def __repr__(self):
        return f"ClassFunction({self.name!r}, dim={self.at_identity})"


def chi_trivial(data: ClassData) -> ClassFunction:
    return ClassFunction(data, [1] * len(data.reps), "trivial")


def chi_rat(fix: FixTable, data: ClassData) -> ClassFunction:
    """Trace of the Fermat group's action on first homology (dimension 2g).

    chi(1) = 2g = (p-1)(p-2); chi(g) = 2 - |Fix(g)| otherwise, with the
    fixed-point counts of the full fix table of the triple fiber model.
    The table and the class data must live in one Fermat group.
    """
    group = data.group
    if fix.group != group or group.gamma is not None:
        raise GroupMismatchError(f"{fix!r} and class data for {group} do not share one Fermat group")
    values = [2 * fermat_genus(group.p) if r == IDENTITY else 2 - fix.at(r) for r in data.reps]
    return ClassFunction(data, values, "homology")


def induced_perm_character(k: Subgroup, data: ClassData) -> ClassFunction:
    """Permutation character of the action on cosets of K: the number of
    cosets each element fixes, by Frobenius' formula.  It vanishes off
    the classes K meets, so it is built on those alone.  At the identity
    this is the index."""
    if k.group != data.group:
        raise GroupMismatchError(f"{k!r} does not live in {data.group}")
    if data.order % k.order:
        raise CheckFailedError(f"{k!r} has order {k.order}, which does not divide {data.order}")
    fixed = data.fixed_cosets(data.class_counts(k.indices), k.order)
    fn = ClassFunction.on_support(data, fixed, f"perm(G/{k!r})")
    if fn.at_identity * k.order != data.order:
        raise CheckFailedError(
            f"{fn.at_identity} cosets of {k!r} in a group of order {data.order}"
        )
    return fn


def inner_product(f1: ClassFunction, f2: ClassFunction) -> int:
    """(1/|G|) sum over all group elements of f1(g) f2(g), exactly, taken
    class by class: each class contributes its size times the product.
    Only the classes where both are nonzero contribute, so the sum runs
    over the smaller support.  The pairing of two characters is an
    integer; a sum that |G| does not divide raises.

    Integer-valued class functions are self-conjugate, so no conjugation
    appears.
    """
    if f1.data.group != f2.data.group:
        raise GroupMismatchError("inner product of class functions on different groups")
    small, large = sorted((f1.support, f2.support), key=len)
    sizes = f1.data.sizes
    total = sum(sizes[c] * v * large.get(c, 0) for c, v in small.items())
    pairing, rest = divmod(total, f1.data.order)
    if rest:
        raise CheckFailedError(
            f"<{f1.name}, {f2.name}> = {total}/{f1.data.order} is not an integer"
        )
    return pairing
