"""The value contract of the package's record types, and of the element
objects the tests keep as their object-level oracle (helpers.py).

Frozen records compare by class and fields, hash over their fields and
refuse assignment; mutable records compare by fields, are unhashable and
take assignment.  Reprs list every field as ``Name(field=value, ...)``.
"""

import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import fermatjac
from fermatjac.curves import CurveFamily, CurveSpec
from fermatjac.decompose import (
    GammaRefinementAudit,
    IsogenyDecomposition,
    IsogenyFactor,
    KaniRosenAudit,
    PairVerdict,
    decompose_coarse,
    gamma_refinement_audit,
    kani_rosen_check,
)
from fermatjac.errors import NoGammaError, NonMonomialError, OutOfRangeError
from fermatjac.genus import GeneratingTriple, find_generating_triple
from fermatjac.groups import Group
from fermatjac.monomial import MonomialFunction, MonomialMap, build_R, build_T
from fermatjac.orbits import (
    OrbitClass,
    OrbitKind,
    OrbitPartition,
    PrimeContext,
    make_context,
    orbit,
    orbit_partition,
)

from helpers import FermatAut, PGonalAut

C5 = "PrimeContext(p=5, residue_class_mod_3=2, gamma_pair=None)"
C7 = "PrimeContext(p=7, residue_class_mod_3=1, gamma_pair=(2, 4))"
SPECIAL = "<OrbitKind.SPECIAL_ONE: 'special_one'>"
P_GONAL = "<CurveFamily.P_GONAL: 'p_gonal'>"
KR5 = (
    "KaniRosenAudit(subgroup_count=3, pairs_checked=3, commuting_checks=[], genus_zero_checks=[],"
    " genus_sum_check=(6, 6, True))"
)


def _verdicts(ok, detail):
    pairs = ((1, 2), (1, 3), (2, 3))
    return ", ".join(f"PairVerdict(pair={pair}, ok={ok}, detail={detail!r})" for pair in pairs)


# class, fields, frozen, a factory, a factory for an unequal instance, the repr of the first
CASES = [
    (
        PrimeContext,
        ("p", "residue_class_mod_3", "gamma_pair"),
        True,
        lambda: make_context(7),
        lambda: make_context(13),
        C7,
    ),
    (
        OrbitClass,
        ("representative", "elements", "kind"),
        True,
        lambda: orbit(1, make_context(7)),
        lambda: orbit(2, make_context(7)),
        f"OrbitClass(representative=1, elements=(1, 3, 5), kind={SPECIAL})",
    ),
    (
        OrbitPartition,
        ("context", "orbits"),
        True,
        lambda: orbit_partition(make_context(5)),
        lambda: orbit_partition(make_context(7)),
        f"OrbitPartition(context={C5}, orbits=(OrbitClass(representative=1, elements=(1, 2, 3), kind={SPECIAL}),))",
    ),
    (
        CurveSpec,
        ("context", "family", "alpha"),
        True,
        lambda: CurveSpec(make_context(7), CurveFamily.P_GONAL, 3),
        lambda: CurveSpec(make_context(7), CurveFamily.P_GONAL, 4),
        f"CurveSpec(context={C7}, family={P_GONAL}, alpha=3)",
    ),
    (
        IsogenyFactor,
        ("curve", "multiplicity", "dimension"),
        True,
        lambda: decompose_coarse(make_context(7)).factors[0],
        lambda: decompose_coarse(make_context(7)).factors[1],
        f"IsogenyFactor(curve=CurveSpec(context={C7}, family={P_GONAL}, alpha=1), multiplicity=3, dimension=3)",
    ),
    (
        GeneratingTriple,
        ("p", "c2", "c3", "c2p"),
        True,
        lambda: find_generating_triple(make_context(5)),
        lambda: find_generating_triple(make_context(7)),
        "GeneratingTriple(p=5, c2=3, c3=7, c2p=125)",
    ),
    (
        FermatAut,
        ("p", "m", "n", "sigma"),
        True,
        lambda: FermatAut(7, 1, 2, 3),
        lambda: FermatAut(7, 1, 2, 4),
        "FermatAut(p=7, m=1, n=2, sigma=3)",
    ),
    (
        PGonalAut,
        ("p", "gamma", "k", "e"),
        True,
        lambda: PGonalAut(7, 2, 1, 1),
        lambda: PGonalAut(7, 4, 1, 1),
        "PGonalAut(p=7, gamma=2, k=1, e=1)",
    ),
    (Group, ("p", "gamma"), True, lambda: Group(7), lambda: Group(7, 2), "Group(p=7, gamma=None)"),
    (
        MonomialFunction,
        ("sign", "omega", "a", "b", "d"),
        True,
        lambda: MonomialFunction(-1, 0, 1, 2, 3),
        lambda: MonomialFunction(1, 0, 1, 2, 3),
        "MonomialFunction(sign=-1, omega=0, a=1, b=2, d=3)",
    ),
    (
        MonomialMap,
        ("p", "gamma", "x_image", "y_image"),
        True,
        lambda: build_T(make_context(7)),
        lambda: build_R(make_context(7)),
        "MonomialMap(p=7, gamma=2, x_image=MonomialFunction(sign=1, omega=0, a=1, b=0, d=0),"
        " y_image=MonomialFunction(sign=1, omega=1, a=0, b=0, d=1))",
    ),
    (
        PairVerdict,
        ("pair", "ok", "detail"),
        False,
        lambda: PairVerdict((1, 2), False, "genus=1"),
        lambda: PairVerdict((1, 2), False),
        "PairVerdict(pair=(1, 2), ok=False, detail='genus=1')",
    ),
    (
        KaniRosenAudit,
        ("subgroup_count", "pairs_checked", "commuting_checks", "genus_zero_checks", "genus_sum_check"),
        False,
        lambda: kani_rosen_check(make_context(5)),
        lambda: kani_rosen_check(make_context(7)),
        KR5,
    ),
    (
        GammaRefinementAudit,
        ("quotient_genus_checks", "pair_genus_zero_checks", "genus_sum_check", "set_products_commute"),
        False,
        lambda: gamma_refinement_audit(make_context(7)),
        lambda: gamma_refinement_audit(make_context(13)),
        "GammaRefinementAudit(quotient_genus_checks=[(1, 1, 1, True), (2, 1, 1, True), (3, 1, 1, True)],"
        f" pair_genus_zero_checks=[{_verdicts(True, 'genus=0')}], genus_sum_check=(3, 3, True),"
        f" set_products_commute=[{_verdicts(False, '')}])",
    ),
    (
        IsogenyDecomposition,
        ("context", "level", "factors", "audit", "gamma_refinement"),
        False,
        lambda: decompose_coarse(make_context(5)),
        lambda: decompose_coarse(make_context(7)),
        f"IsogenyDecomposition(context={C5}, level=<DecompositionLevel.COARSE: 'coarse'>,"
        f" factors=(IsogenyFactor(curve=CurveSpec(context={C5}, family={P_GONAL}, alpha=1), multiplicity=3,"
        f" dimension=2),), audit={KR5}, gamma_refinement=None)",
    ),
]
FROZEN = [case for case in CASES if case[2]]
MUTABLE = [case for case in CASES if not case[2]]


def _ids(cases):
    return [case[0].__name__ for case in cases]


def test_every_record_type_is_covered():
    assert len(CASES) == 15 and len(FROZEN) == 11


@pytest.mark.parametrize("cls, fields, frozen, make, make_other, text", CASES, ids=_ids(CASES))
def test_field_equality_and_repr(cls, fields, frozen, make, make_other, text):
    a, b, other = make(), make(), make_other()
    assert type(a) is cls and a is not b
    assert a == b and not a != b
    assert a != other and not a == other
    assert [getattr(a, f) for f in fields] == [getattr(b, f) for f in fields]
    assert a != tuple(getattr(a, f) for f in fields)
    assert repr(a) == text
    # a copy and a pickle round trip rebuild an equal record
    assert copy.copy(a) == a and pickle.loads(pickle.dumps(a)) == a


@pytest.mark.parametrize("cls, fields, frozen, make, make_other, text", FROZEN, ids=_ids(FROZEN))
def test_frozen_records_hash_and_refuse_assignment(cls, fields, frozen, make, make_other, text):
    a, b = make(), make()
    # the hash of the field tuple, so sets of records iterate as before
    assert hash(a) == hash(b) == hash(tuple(getattr(a, f) for f in fields))
    assert len({a, b, make_other()}) == 2
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(a, f, getattr(b, f))
        with pytest.raises(AttributeError):
            delattr(a, f)
    assert a == b


@pytest.mark.parametrize("cls, fields, frozen, make, make_other, text", MUTABLE, ids=_ids(MUTABLE))
def test_mutable_records_are_unhashable_and_assignable(cls, fields, frozen, make, make_other, text):
    a, b, other = make(), make(), make_other()
    with pytest.raises(TypeError):
        hash(a)
    for f in fields:
        setattr(a, f, getattr(other, f))
    assert a == other and a != b


def test_flavours_never_compare_equal():
    assert FermatAut(7, 2, 0, 0) != PGonalAut(7, 2, 0, 0)
    assert not FermatAut(7, 2, 0, 0) == PGonalAut(7, 2, 0, 0)
    assert len({FermatAut(7, 2, 0, 0), PGonalAut(7, 2, 0, 0)}) == 2


def test_keyword_construction_and_defaults():
    ctx = make_context(7)
    assert CurveSpec(context=ctx, family=CurveFamily.P_GONAL, alpha=3) == CurveSpec(ctx, CurveFamily.P_GONAL, 3)
    assert CurveSpec(ctx, CurveFamily.FERMAT).alpha is None
    assert Group(p=7) == Group(7, None)
    assert PairVerdict(pair=(1, 2), ok=True).detail == ""
    assert OrbitClass(representative=1, elements=(1,), kind=OrbitKind.GENERIC).kind is OrbitKind.GENERIC
    audit = kani_rosen_check(ctx)
    d = IsogenyDecomposition(ctx, decompose_coarse(ctx).level, (), audit)
    assert d.gamma_refinement is None
    # the default list is fresh for every record
    g1, g2 = GammaRefinementAudit([], [], (0, 0, True)), GammaRefinementAudit([], [], (0, 0, True))
    assert g1.set_products_commute == [] and g1.set_products_commute is not g2.set_products_commute


def test_orbit_index_stays_out_of_equality_and_repr():
    part = orbit_partition(make_context(13))
    assert part.orbit_of(3) == orbit(3, part.context) and part.orbit_of(9) in part.orbits
    assert "_orbit_of" not in repr(part)
    twin = OrbitPartition(part.context, part.orbits)
    assert twin == part and hash(twin) == hash(part)


def test_constructor_validation_raises_typed_errors():
    c5, c7 = make_context(5), make_context(7)
    with pytest.raises(OutOfRangeError, match="takes no exponent"):
        CurveSpec(c7, CurveFamily.FERMAT, 2)
    with pytest.raises(OutOfRangeError):
        CurveSpec(c7, CurveFamily.P_GONAL, 6)
    with pytest.raises(OutOfRangeError):
        CurveSpec(context=c7, family=CurveFamily.P_GONAL)
    with pytest.raises(NoGammaError):
        CurveSpec(c5, CurveFamily.E_QUOTIENT, 2)
    with pytest.raises(OutOfRangeError, match="not a root"):
        CurveSpec(c7, CurveFamily.E_QUOTIENT, 3)
    with pytest.raises(NonMonomialError, match="not a Moebius monomial"):
        MonomialMap(7, 2, MonomialFunction(1, 0, 2, 0, 0), MonomialFunction(1, 0, 0, 0, 1))
    with pytest.raises(NonMonomialError):
        MonomialMap(p=7, gamma=2, x_image=MonomialFunction(1, 0, 0, 0, 1), y_image=MonomialFunction(1, 0, 0, 0, 1))


def test_cold_cli_import_skips_dataclasses_and_typing():
    """``import fermatjac.cli`` in a bare interpreter (no site, isolated)
    loads none of the modules behind dataclasses and typing."""
    src = str(Path(fermatjac.__file__).resolve().parents[1])
    heavy = ("dataclasses", "inspect", "typing", "ast", "dis")
    script = (
        f"import sys\nsys.path.insert(0, {src!r})\nimport fermatjac.cli\n"
        f"print(sorted(m for m in {heavy!r} if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-I", "-S", "-c", script], capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
