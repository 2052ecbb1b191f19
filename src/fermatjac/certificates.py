"""Character-theoretic certificates for the decomposition.

The automorphism group acts on the first homology of the curve; the
trace of that action is an integer class function determined by fixed
points alone: dimension 2g at the identity and 2 - |Fix(g)| elsewhere
(the Lefschetz count).  Pairing it against permutation characters of
coset actions gives exact rational certificates:

    <chi_triv, chi_hom>   = 2 * genus(quotient by the whole group) = 0,
    <chi_{G/K}, chi_hom>  = 2 * genus(quotient by K)

(the second by Frobenius reciprocity: the pairing computes the dimension
of the K-fixed subspace of homology).  For each free deck subgroup the
value is p - 1, twice the quotient genus.  Permutation characters come
from Frobenius' formula over the classes K meets (:class:`ClassData`),
and inner products are class-weighted sums, exact Fractions.  The test
suite checks both against the literal constructions: fixed cosets of an
explicit coset labelling, and a sum over all group elements.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import CheckFailedError, GroupMismatchError, ShapeMismatchError
from .genus import FixTable, fermat_genus
from .groups import IDENTITY, ClassData, Element, Subgroup


class ClassFunction:
    """An integer-valued function constant on conjugacy classes."""

    __slots__ = ("data", "values", "name")

    def __init__(self, data: ClassData, values, name: str = ""):
        if len(values) != len(data.classes):
            raise ShapeMismatchError(f"{len(values)} values for {len(data.classes)} classes")
        self.data = data
        self.values = tuple(values)
        self.name = name

    def __call__(self, g: Element):
        return self.values[self.data.class_of[self.data.group.index(g)]]

    @property
    def at_identity(self):
        return self.values[self.data.identity_index]

    def __repr__(self):
        return f"ClassFunction({self.name!r}, dim={self.at_identity})"


def chi_trivial(data: ClassData) -> ClassFunction:
    return ClassFunction(data, [1] * len(data.classes), "trivial")


def chi_rat(fix: FixTable, data: ClassData) -> ClassFunction:
    """Trace of the Fermat group's action on first homology (dimension 2g).

    chi(1) = 2g = (p-1)(p-2); chi(g) = 2 - |Fix(g)| otherwise, with the
    fixed-point counts of the full fix table of the triple fiber model.
    The table and the class data must live in one Fermat group.
    """
    group = data.group
    if fix.group != group or group.gamma is not None:
        raise GroupMismatchError(f"{fix!r} and class data for {group} do not share one Fermat group")
    values = [2 * fermat_genus(group.p) if c[0] == IDENTITY else 2 - fix.at(c[0]) for c in data.classes]
    return ClassFunction(data, values, "homology")


def induced_perm_character(k: Subgroup, data: ClassData) -> ClassFunction:
    """Permutation character of the action on cosets of K: the number of
    cosets each element fixes, by Frobenius' formula.  At the identity
    this is the index."""
    if k.group != data.group:
        raise GroupMismatchError(f"{k!r} does not live in {data.group}")
    if data.order % k.order:
        raise CheckFailedError(f"{k!r} has order {k.order}, which does not divide {data.order}")
    values = [0] * len(data.classes)
    for c, f in data.fixed_cosets(data.class_counts(k.indices), k.order).items():
        values[c] = f
    fn = ClassFunction(data, values, f"perm(G/{k!r})")
    if fn.at_identity * k.order != data.order:
        raise CheckFailedError(
            f"{fn.at_identity} cosets of {k!r} in a group of order {data.order}"
        )
    return fn


def inner_product(f1: ClassFunction, f2: ClassFunction) -> Fraction:
    """(1/|G|) sum over all group elements of f1(g) f2(g), exactly, taken
    class by class: each class contributes its size times the product.

    Integer-valued class functions are self-conjugate, so no conjugation
    appears.
    """
    if f1.data.group != f2.data.group:
        raise GroupMismatchError("inner product of class functions on different groups")
    total = sum(n * a * b for n, a, b in zip(f1.data.sizes, f1.values, f2.values))
    return Fraction(total, f1.data.order)
