"""Exact verification engine for the isogeny decomposition of Fermat-curve
Jacobians into Jacobians of cyclic p-gonal curves."""

from .curves import (
    CurveFamily,
    CurveSpec,
    MoebiusLabel,
    are_isomorphic,
    genus_of,
    moebius_transport,
    normalize,
    quotient_to_curve,
)
from .decompose import (
    DecompositionLevel,
    IsogenyDecomposition,
    IsogenyFactor,
    KaniRosenAudit,
    decompose_coarse,
    decompose_fine,
    dimension_audit,
    kani_rosen_check,
)
from .errors import FermatJacError
from .genus import (
    FixTable,
    GeneratingTriple,
    coset_genus,
    fermat_axis_fix_table,
    fermat_full_fix_table,
    fermat_genus,
    fermat_quotient_genus,
    find_generating_triple,
    pgonal_fix_table,
    rh_genus,
)
from .groups import (
    Group,
    Subgroup,
    conjugacy_classes,
    pgonal_K,
    subgroup_closure,
)
from .monomial import (
    MonomialFunction,
    MonomialMap,
    build_J,
    build_R,
    build_T,
    compose,
    verify_curve_automorphism,
    verify_relation,
)
from .orbits import (
    OrbitClass,
    OrbitKind,
    OrbitPartition,
    PrimeContext,
    make_context,
    orbit,
    orbit_partition,
    s3_apply,
)

__version__ = "1.0.0"
