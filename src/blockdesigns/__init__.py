"""Block-design toolkit: exact t-design verifiers, resolution search and
the partial replacement property, finite-field affine geometries, and the
union construction that turns resolvable 2-designs into 3-designs."""

from .catalog import CatalogEntry, UnknownEntry, catalog_entry, catalog_names
from .construct import (
    ConstructedDesign,
    DimensionMismatch,
    IndexingParams,
    NonIntegral,
    SimplicityVerdict,
    ThreeDesignAnalysis,
    ThreeDesignCase,
    classify_three_design,
    indexing_balance,
    inherited_resolution,
    measure_params,
    predict_bibd_lambda,
    predict_ibd_params,
    predict_triple_coverage,
    shrikhande_raghavarao,
    simplicity_verdict,
    triple_coverage_by_alpha,
)
from .core import (
    Block,
    Design,
    DesignError,
    DesignParams,
    IntersectionProfile,
    NonConstantReplication,
    PointSet,
    intersection_profile,
    is_simple,
    is_trivial,
    lambda_j,
    make_design,
    t_coverage_spectrum,
    verify_ibd,
)
from .galois import FieldSpec, GaloisError, NotPrimePower, ReducibleModulus, field
from .generators import (
    CyclicBaseSpec,
    InvalidBaseClass,
    OddPointCount,
    UnsupportedField,
    affine_hyperplane_design,
    cyclic_develop,
    cyclic_point_set,
    round_robin_one_factorization,
    sub_factorization_embedding,
    trivial_design,
)
from .reproduce import EntryReport, reproduce_entry
from .resolution import (
    BadAlpha,
    CheckResult,
    ParallelClass,
    Resolution,
    SearchBudgetExceeded,
    find_resolutions,
    prp_violations,
    verify_resolution,
)

__version__ = "0.1.0"
