"""minkaehler: minimal Kaehler hypersurfaces from holomorphic seed data.

Builds hypersurface charts of R^{2n+1} by a recursive Weierstrass-type
construction and verifies, numerically and to stated tolerances, that the
conjugate chart is an infinitesimal bending preserving the Gauss map,
along with the associated-family, Kaehler, and Gauss-parametrization
identities that characterize these submanifolds.
"""

from .charts import ImmersionChart, Jet2, ProductChart, TaylorChart
from .errors import (
    DomainError,
    DomainWarning,
    IndeterminateRankWarning,
    NonImmersionPointError,
    PreconditionError,
    SeedValidationError,
)
from .taylor import Taylor
from .series import (
    TruncatedSeries,
    mul_error_bound,
    series_add,
    series_diff,
    series_eval,
    series_int,
    series_mul,
    to_order,
    vdot,
)
from .weierstrass import (
    DomainSpec,
    SeriesChart,
    WeierstrassChain,
    WeierstrassSeed,
    associated,
    build_chain,
    chart_complex_structure,
    conjugate_fbar,
    immersion_f,
    seed_from_json,
    seed_to_json,
    validate_seed,
)
from .geometry import (
    PointFrame,
    RankResult,
    anticommutation_residual,
    christoffel,
    codazzi_residual,
    generalized_cross,
    laplace_beltrami,
    minimality_residual,
    parallel_J_residual,
    point_frame,
    rank_and_nullity,
)
from .seeds import BUILTIN_NAMES, builtin_seed
from .bending import (
    CombinationField,
    TrivialField,
    Variation,
    bending_residual,
    classify_triviality,
    conjugate_field,
    gauss_tangency_residual,
    make_cylinder_bending,
    make_trivial,
    recover_bending_decomposition,
    rotation_coefficient,
)
from .gausspar import (
    SphereSurface,
    SupportFunction,
    clifford_torus_surface,
    extract_from_hypersurface,
    gauss_param,
    gauss_round_trip,
    geodesic_sphere_surface,
    linear_support,
    minimality_criterion,
)

__version__ = "0.1.0"
