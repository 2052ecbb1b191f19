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

from .errors import CheckFailedError, FlavorMismatchError, ShapeMismatchError
from .genus import FixTable, GeneratingTriple, fermat_full_fix_table, fermat_genus
from .groups import FLAVOR_FERMAT, IDENTITY, ClassData, Element, Subgroup
from .orbits import PrimeContext


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


def chi_rat(
    ctx: PrimeContext,
    triple: GeneratingTriple,
    data: ClassData | None = None,
    fix: FixTable | None = None,
) -> ClassFunction:
    """Trace of the group action on first homology (dimension 2g).

    chi(1) = 2g = (p-1)(p-2); chi(g) = 2 - |Fix(g)| otherwise, with the
    fixed-point counts supplied by the triple fiber model (``fix``, built
    here when not given).  The context, the triple and the class data
    must share one p.
    """
    if data is None:
        data = ClassData(FLAVOR_FERMAT, ctx)
    if not ctx.p == triple.p == data.group.p:
        raise FlavorMismatchError(
            f"the context at p = {ctx.p} cannot serve a triple at p = {triple.p} with class data for {data.group}"
        )
    if fix is None:
        fix = fermat_full_fix_table(ctx, triple, data)
    if fix.group != data.group:
        raise FlavorMismatchError(f"{fix!r} does not live in {data.group}")
    values = [2 * fermat_genus(ctx.p) if c[0] == IDENTITY else 2 - fix.at(c[0]) for c in data.classes]
    return ClassFunction(data, values, "homology")


def induced_perm_character(k: Subgroup, data: ClassData) -> ClassFunction:
    """Permutation character of the action on cosets of K: the number of
    cosets each element fixes, by Frobenius' formula.  At the identity
    this is the index."""
    if k.group != data.group:
        raise FlavorMismatchError(f"{k!r} does not live in {data.group}")
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
        raise FlavorMismatchError("inner product of class functions on different groups")
    total = sum(n * a * b for n, a, b in zip(f1.data.sizes, f1.values, f2.values))
    return Fraction(total, f1.data.order)
