"""minkaehler: minimal Kaehler hypersurfaces from holomorphic seed data.

Builds hypersurface charts of R^{2n+1} by a recursive Weierstrass-type
construction and verifies, numerically and to stated tolerances, that the
conjugate chart is an infinitesimal bending preserving the Gauss map,
along with the associated-family, Kaehler, and Gauss-parametrization
identities that characterize these submanifolds.

Closed-form charts and the Gauss parametrization are imported from their
modules, :mod:`minkaehler.taylor` and :mod:`minkaehler.gausspar`, so that
the command line never loads their Taylor arithmetic.
"""

from .charts import ImmersionChart, Jet2, ProductChart
from .errors import (
    DomainError,
    DomainWarning,
    IndeterminateRankWarning,
    NonImmersionPointError,
    PreconditionError,
    SeedValidationError,
)
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
    build_chain,
    chart_complex_structure,
    seed_from_json,
    seed_to_json,
)
from .geometry import (
    PointFrame,
    RankResult,
    anticommutation_residual,
    christoffel,
    gnorm_op,
    laplace_beltrami,
    minimality_residual,
    parallel_J_residual,
    point_frame,
    rank_and_nullity,
)
from .seeds import BUILTIN_NAMES, builtin_seed
from .bending import (
    Variation,
    bending_residual,
    classify_triviality,
    codazzi_residual,
    conjugate_field,
    gauss_tangency_residual,
    make_trivial,
    recover_bending_decomposition,
    rotation_coefficient,
    trivial_jet,
)

__version__ = "0.1.0"
