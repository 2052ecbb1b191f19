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
by literal summation over all group elements, each read through the
class of its element index, and are exact Fractions; a class-weighted
evaluation exists as a cross-check.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .errors import CheckFailedError, FlavorMismatchError, ShapeMismatchError
from .genus import FixTable, GeneratingTriple, fermat_full_fix_table, fermat_genus
from .groups import (
    FLAVOR_FERMAT,
    FLAVOR_P_GONAL,
    Element,
    Subgroup,
    conjugacy_classes,
    element_index,
    fermat_coset_labels,
    fermat_fixed_cosets,
    flavor_of,
    left_cosets,
)
from .orbits import PrimeContext


class ClassData:
    """Conjugacy classes of one group plus the class of every element.

    ``class_of[i]`` is the number of the class of the element with index
    i (:func:`groups.element_index`); the identity has index 0.
    ``classes``, when given, is the result of :func:`conjugacy_classes`
    for the same group, computed once and shared.
    """

    __slots__ = ("flavor", "p", "gamma", "classes", "class_of")

    def __init__(self, flavor: str, ctx: PrimeContext, gamma: Optional[int] = None, classes=None):
        self.flavor = flavor
        self.p = ctx.p
        self.gamma = None
        if flavor == FLAVOR_P_GONAL:
            self.gamma = ctx.gamma if gamma is None else gamma
        elif flavor != FLAVOR_FERMAT:
            raise FlavorMismatchError(f"unknown flavor {flavor!r}")
        self.classes = conjugacy_classes(flavor, ctx, gamma) if classes is None else classes
        self.class_of = [0] * sum(map(len, self.classes))
        for i, cls in enumerate(self.classes):
            for g in cls:
                self.class_of[element_index(g)] = i

    @property
    def order(self) -> int:
        return len(self.class_of)

    @property
    def identity_index(self) -> int:
        return self.class_of[0]

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
        if len(values) != len(data.classes):
            raise ShapeMismatchError(f"{len(values)} values for {len(data.classes)} classes")
        self.data = data
        self.values = tuple(values)
        self.name = name

    def __call__(self, g: Element):
        data = self.data
        if flavor_of(g) != data.flavor or g.p != data.p or getattr(g, "gamma", None) != data.gamma:
            raise FlavorMismatchError(f"{g!r} is not in the group of {self!r}")
        return self.values[data.class_of[element_index(g)]]

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
        reps, index_of = left_cosets(k, (g for cls in data.classes for g in cls))

        def fixed(g):
            return sum(1 for i, r in enumerate(reps) if index_of[g * r] == i)

    fn = ClassFunction(data, [fixed(cls[0]) for cls in data.classes], f"perm(G/{k!r})")
    if fn.at_identity * k.order != data.order:
        raise CheckFailedError(
            f"{fn.at_identity} cosets of {k!r} in a group of order {data.order}"
        )
    return fn


def inner_product(f1: ClassFunction, f2: ClassFunction) -> Fraction:
    """(1/|G|) sum over all group elements of f1(g) f2(g), exactly.

    Integer-valued class functions are self-conjugate, so no conjugation
    appears.  Summation is over elements, not classes, by design; see
    :func:`inner_product_by_classes` for the cross-check.
    """
    if not f1.data.compatible_with(f2.data):
        raise FlavorMismatchError("inner product of class functions on different groups")
    v1, v2 = f1.values, f2.values
    return Fraction(sum(v1[c] * v2[c] for c in f1.data.class_of), f1.data.order)


def inner_product_by_classes(f1: ClassFunction, f2: ClassFunction) -> Fraction:
    """Class-weighted evaluation of the same pairing."""
    if not f1.data.compatible_with(f2.data):
        raise FlavorMismatchError("inner product of class functions on different groups")
    total = 0
    for i, cls in enumerate(f1.data.classes):
        total += len(cls) * f1.values[i] * f2.values[i]
    return Fraction(total, f1.data.order)
