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
value is p - 1, twice the quotient genus.  Inner products are computed
by literal summation over all group elements with Fraction arithmetic;
a class-weighted evaluation exists as a cross-check.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .errors import FlavorMismatchError
from .genus import FixTable, GeneratingTriple, fermat_full_fix_table, fermat_genus
from .groups import (
    FLAVOR_FERMAT,
    FLAVOR_P_GONAL,
    Element,
    Subgroup,
    conjugacy_classes,
    fermat_coset_labels,
    fermat_elements,
    fermat_fixed_cosets,
    left_cosets,
    pgonal_elements,
)
from .orbits import PrimeContext


class ClassData:
    """Conjugacy classes of one group plus the element -> class index map.

    ``classes``, when given, is the result of :func:`conjugacy_classes`
    for the same group, computed once and shared.
    """

    __slots__ = ("flavor", "p", "gamma", "classes", "class_index", "elements", "identity_index")

    def __init__(self, flavor: str, ctx: PrimeContext, gamma: Optional[int] = None, classes=None):
        self.flavor = flavor
        self.p = ctx.p
        self.gamma = None
        if flavor == FLAVOR_FERMAT:
            self.elements = tuple(fermat_elements(ctx.p))
        elif flavor == FLAVOR_P_GONAL:
            self.gamma = ctx.gamma if gamma is None else gamma
            self.elements = tuple(pgonal_elements(ctx, self.gamma))
        else:
            raise FlavorMismatchError(f"unknown flavor {flavor!r}")
        self.classes = conjugacy_classes(flavor, ctx, gamma) if classes is None else classes
        self.class_index = {}
        for i, cls in enumerate(self.classes):
            for g in cls:
                self.class_index[g] = i
        self.identity_index = next(
            i for i, cls in enumerate(self.classes) if cls[0].is_identity
        )

    @property
    def order(self) -> int:
        return len(self.elements)

    def compatible_with(self, other: "ClassData") -> bool:
        return (
            self.flavor == other.flavor
            and self.p == other.p
            and self.gamma == other.gamma
        )


class ClassFunction:
    """An integer-valued function constant on conjugacy classes."""

    __slots__ = ("data", "values", "name")

    def __init__(self, data: ClassData, values, name: str = ""):
        assert len(values) == len(data.classes)
        self.data = data
        self.values = tuple(values)
        self.name = name

    def __call__(self, g: Element):
        return self.values[self.data.class_index[g]]

    @property
    def at_identity(self):
        return self.values[self.data.identity_index]

    def __repr__(self):
        return f"ClassFunction({self.name!r}, dim={self.at_identity})"


def chi_trivial(data: ClassData) -> ClassFunction:
    return ClassFunction(data, [1] * len(data.classes), "trivial")


def chi_rat(
    ctx: PrimeContext,
    triple: GeneratingTriple,
    data: Optional[ClassData] = None,
    fix: Optional[FixTable] = None,
) -> ClassFunction:
    """Trace of the group action on first homology (dimension 2g).

    chi(1) = 2g = (p-1)(p-2); chi(g) = 2 - |Fix(g)| otherwise, with the
    fixed-point counts supplied by the triple fiber model (``fix``, built
    here when not given).
    """
    if data is None:
        data = ClassData(FLAVOR_FERMAT, ctx)
    if fix is None:
        fix = fermat_full_fix_table(ctx, triple, classes=data.classes)
    values = []
    for cls in data.classes:
        rep = cls[0]
        if rep.is_identity:
            values.append(2 * fermat_genus(ctx.p))
        else:
            values.append(2 - fix.count(rep))
    return ClassFunction(data, values, "homology")


def induced_perm_character(k: Subgroup, data: ClassData) -> ClassFunction:
    """Permutation character of the action on cosets of K: the number of
    cosets each element fixes.  At the identity this is the index."""
    if k.flavor != data.flavor or k.p != data.p:
        raise FlavorMismatchError(f"{k!r} does not live in this group")
    if k.flavor == FLAVOR_FERMAT:
        reps, label = fermat_coset_labels(k)

        def fixed(g):
            return fermat_fixed_cosets(g, reps, label)

    else:
        reps, index_of = left_cosets(k, data.elements)

        def fixed(g):
            return sum(1 for i, r in enumerate(reps) if index_of[g * r] == i)

    fn = ClassFunction(data, [fixed(cls[0]) for cls in data.classes], f"perm(G/{k!r})")
    assert fn.at_identity == data.order // k.order
    return fn


def inner_product(f1: ClassFunction, f2: ClassFunction) -> Fraction:
    """(1/|G|) sum over all group elements of f1(g) f2(g), exactly.

    Integer-valued class functions are self-conjugate, so no conjugation
    appears.  Summation is over elements, not classes, by design; see
    :func:`inner_product_by_classes` for the cross-check.
    """
    if not f1.data.compatible_with(f2.data):
        raise FlavorMismatchError("inner product of class functions on different groups")
    total = 0
    for g in f1.data.elements:
        total += f1(g) * f2(g)
    return Fraction(total, f1.data.order)


def inner_product_by_classes(f1: ClassFunction, f2: ClassFunction) -> Fraction:
    """Class-weighted evaluation of the same pairing."""
    if not f1.data.compatible_with(f2.data):
        raise FlavorMismatchError("inner product of class functions on different groups")
    total = 0
    for i, cls in enumerate(f1.data.classes):
        total += len(cls) * f1.values[i] * f2.values[i]
    return Fraction(total, f1.data.order)
