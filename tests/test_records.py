"""The value contract of the package's record types, and of the element
objects the tests keep as their object-level oracle (helpers.py).

Frozen records compare by class and fields, hash over their fields and
refuse assignment; mutable records compare by fields, are unhashable and
take assignment.  Reprs list every field as ``Name(field=value, ...)``.
The constant sets (``records.Const``) keep what their Enum members had:
name, value, identity, order and repr.
"""

import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import fermatjac
from fermatjac.curves import CurveFamily, CurveSpec, MoebiusLabel
from fermatjac.decompose import (
    DecompositionLevel,
    GammaRefinementAudit,
    IsogenyDecomposition,
    IsogenyFactor,
    KaniRosenAudit,
    decompose_coarse,
    gamma_refinement_audit,
    kani_rosen_check,
)
from fermatjac.errors import NoGammaError, NonMonomialError, OutOfRangeError
from fermatjac.genus import GeneratingTriple, find_generating_triple
from fermatjac.groups import Group
from fermatjac.monomial import build_R, build_T
from fermatjac.orbits import (
    OrbitClass,
    OrbitKind,
    OrbitPartition,
    PrimeContext,
    make_context,
    orbit_partition,
)

from helpers import FermatAut, MonomialFunction, MonomialMap, PGonalAut, orbit, record_of

C5 = "PrimeContext(p=5, residue_class_mod_3=2, gamma_pair=None)"
C7 = "PrimeContext(p=7, residue_class_mod_3=1, gamma_pair=(2, 4))"
SPECIAL = "<OrbitKind.SPECIAL_ONE: 'special_one'>"
P_GONAL = "<CurveFamily.P_GONAL: 'p_gonal'>"
KR5 = "KaniRosenAudit(subgroup_count=3, genus_sum=6)"


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
        lambda: record_of(build_T(make_context(7))),
        lambda: record_of(build_R(make_context(7))),
        "MonomialMap(p=7, gamma=2, x_image=MonomialFunction(sign=1, omega=0, a=1, b=0, d=0),"
        " y_image=MonomialFunction(sign=1, omega=1, a=0, b=0, d=1))",
    ),
    (
        KaniRosenAudit,
        ("subgroup_count", "genus_sum"),
        True,
        lambda: kani_rosen_check(make_context(5)),
        lambda: kani_rosen_check(make_context(7)),
        KR5,
    ),
    (
        GammaRefinementAudit,
        ("curve_genus",),
        True,
        lambda: gamma_refinement_audit(make_context(7)),
        lambda: gamma_refinement_audit(make_context(13)),
        "GammaRefinementAudit(curve_genus=3)",
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
    assert len(CASES) == 14 and len(FROZEN) == 13


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


# each constant set: its members' names and values in order
CONSTANTS = [
    (OrbitKind, [("SPECIAL_ONE", "special_one"), ("GAMMA", "gamma"), ("GENERIC", "generic")]),
    (CurveFamily, [("FERMAT", "fermat"), ("P_GONAL", "p_gonal"), ("E_QUOTIENT", "e_quotient")]),
    (DecompositionLevel, [("COARSE", "coarse"), ("FINE", "fine")]),
    (
        MoebiusLabel,
        [
            ("ID", ("x", (0, 1, 2))),
            ("INV", ("1/x", (2, 1, 0))),
            ("ONE_MINUS", ("1-x", (1, 0, 2))),
            ("OVER", ("x/(x-1)", (0, 2, 1))),
            ("CYC", ("1/(1-x)", (1, 2, 0))),
            ("CYC2", ("(x-1)/x", (2, 0, 1))),
        ],
    ),
]


@pytest.mark.parametrize("cls, members", CONSTANTS, ids=[c[0].__name__ for c in CONSTANTS])
def test_constants_keep_names_values_order_and_identity(cls, members):
    assert [(m.name, m.value) for m in cls] == members
    for member in cls:
        assert getattr(cls, member.name) is member and type(member) is cls
        assert copy.copy(member) is member and copy.deepcopy(member) is member
        assert pickle.loads(pickle.dumps(member)) is member
        # the repr an Enum member had
        assert repr(member) == f"<{cls.__name__}.{member.name}: {member.value!r}>"


def test_constant_reprs_and_attributes():
    assert repr(OrbitKind.GAMMA) == "<OrbitKind.GAMMA: 'gamma'>"
    assert repr(MoebiusLabel.INV) == "<MoebiusLabel.INV: ('1/x', (2, 1, 0))>"
    assert repr(DecompositionLevel.FINE) == "<DecompositionLevel.FINE: 'fine'>"
    assert MoebiusLabel.OVER.formula == "x/(x-1)" and MoebiusLabel.OVER.perm == (0, 2, 1)
    assert {OrbitKind.GAMMA: 1}[OrbitKind.GAMMA] == 1 and OrbitKind.GAMMA != OrbitKind.GENERIC


def test_flavours_never_compare_equal():
    assert FermatAut(7, 2, 0, 0) != PGonalAut(7, 2, 0, 0)
    assert not FermatAut(7, 2, 0, 0) == PGonalAut(7, 2, 0, 0)
    assert len({FermatAut(7, 2, 0, 0), PGonalAut(7, 2, 0, 0)}) == 2


def test_keyword_construction_and_defaults():
    ctx = make_context(7)
    assert CurveSpec(context=ctx, family=CurveFamily.P_GONAL, alpha=3) == CurveSpec(ctx, CurveFamily.P_GONAL, 3)
    assert CurveSpec(ctx, CurveFamily.FERMAT).alpha is None
    assert Group(p=7) == Group(7, None)
    assert OrbitClass(representative=1, elements=(1,), kind=OrbitKind.GENERIC).kind is OrbitKind.GENERIC
    audit = kani_rosen_check(ctx)
    d = IsogenyDecomposition(ctx, decompose_coarse(ctx).level, (), audit)
    assert d.gamma_refinement is None
    assert KaniRosenAudit(subgroup_count=5, genus_sum=15) == audit
    assert GammaRefinementAudit(curve_genus=3) == gamma_refinement_audit(ctx)


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
