"""Named verification suites run over a constructed chart.

Each suite measures one identity of the construction on a sample grid, as
one array expression over the whole point stack, and returns
:class:`~minkaehler.report.ResidualReport` rows; suites that ship a
negative control append a second row (``<name>_control``) built from a
deliberately broken input, which must land *above* ``CONTROL_FLOOR`` for
the control to count as behaving.

The registered names:

``minimality``             |trace A| / ||A||, pointwise
``rank``                   shape-operator rank equals the expected rank
``family_metric``          induced metrics across the phase family match
``family_normal``          unit normals across the phase family match
``family_shape``           A_theta = cos(theta) A + sin(theta) A J
``anticommutation``        A J + J A = 0
``kaehler_parallel``       covariant derivative of J vanishes
``bending_condition``      the conjugate field is an infinitesimal bending
``gauss_preservation``     the conjugate field keeps the unit normal
``bending_tpar``           the tangential part of the conjugate is parallel
``bending_bat``            B equals A composed with the tangential part
``fundamental_wedge``      linearized curvature identity for (A, B)
``codazzi_b``              B satisfies the Codazzi symmetry
``b_three_route``          the three independent B computations agree
``rotation``               the tangential part rotates by a constant c = 1
``nullity_in_bending_kernel``  B annihilates relative-nullity directions
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bending import (
    B_by_formula,
    b_route_agreement,
    bat_residual,
    bending_residual,
    codazzi_b_residual,
    conjugate_field,
    fundamental_equation_residual,
    gauss_tangency_residual,
    make_trivial,
    normal_variation_residual,
    nullity_annihilation_residual,
    parallel_tangential_residual,
    rotation_coefficient,
)
from .charts import (
    ImmersionChart,
    Jet2,
    TaylorChart,
    grid_points,
    random_points,
    shrink_box,
)
from .errors import IndeterminateRankWarning
from .geometry import (
    PointFrame,
    anticommutation_residual,
    codazzi_residual,
    minimality_residual,
    parallel_J_residual,
    point_frame,
    rank_and_nullity,
)
from .report import ResidualReport
from .seeds import EXPECTED_RESIDUALS
from .taylor import Taylor
from .weierstrass import (
    SeriesChart,
    WeierstrassChain,
    WeierstrassSeed,
    associated,
    build_chain,
    chart_complex_structure,
    immersion_f,
    validate_seed,
)

__all__ = [
    "CONTROL_FLOOR",
    "DEFAULT_RNG_SEED",
    "DEFAULT_TOLERANCES",
    "SUITE_ORDER",
    "ChartBundle",
    "build_bundle",
    "default_counts",
    "default_suites",
    "run_suites",
]

DEFAULT_RNG_SEED = 20260816

# Floor every negative control must exceed to prove the residual has teeth.
CONTROL_FLOOR = 1e-2

# Per-identity default tolerances.  Analytic routes (jets to order 3 and
# exact linear algebra only, the Christoffels and d_l B included) get 1e-7
# or better; agreement across independent routes (one of them the FD
# t-derivative at step 1e-4) gets 100 times the step squared.
DEFAULT_TOLERANCES = {
    "minimality": 1e-8,
    "rank": 0.5,
    "family_metric": 1e-10,
    "family_normal": 1e-10,
    "family_shape": 1e-7,
    "anticommutation": 1e-7,
    "kaehler_parallel": 1e-7,
    "bending_condition": 1e-7,
    "gauss_preservation": 1e-7,
    "bending_tpar": 1e-7,
    "bending_bat": 1e-7,
    "fundamental_wedge": 1e-7,
    "codazzi_b": 1e-7,
    "b_three_route": 100 * 1e-4**2,
    "rotation": 1e-6,
    "nullity_in_bending_kernel": 1e-6,
}

_FAMILY_THETAS = tuple(k * math.pi / 6 for k in range(1, 6))
_ROUTE_POINTS = 30  # sampled points for the route-agreement and rotation suites


def default_counts(d: int):
    """Default grid counts per coordinate for a d-dimensional chart."""
    if d == 2:
        return [10, 10]
    if d == 4:
        return [4, 4, 3, 3]
    return [4, 4] + [2] * (d - 2)


@dataclass
class ChartBundle:
    """A constructed chart with everything the suites consume."""

    seed: WeierstrassSeed
    chain: WeierstrassChain
    chart: SeriesChart
    points: np.ndarray
    rng_seed: int = DEFAULT_RNG_SEED
    expected_rank: int = 2

    @property
    def d(self) -> int:
        return self.chart.d

    @property
    def J(self) -> np.ndarray:
        return chart_complex_structure(self.chart.d)

    @cached_property
    def conjugate(self) -> ImmersionChart:
        return conjugate_field(self.chart)

    @cached_property
    def frame(self) -> PointFrame:
        """The chart's frame stack over the sample grid, built on first use
        and shared by every suite."""
        return point_frame(self.chart.jet(self.points))

    @cached_property
    def conjugate_jet(self) -> Jet2:
        """The conjugate field's 2-jet over the sample grid, built on first use."""
        return self.conjugate.jet(self.points)

    def route_points(self, stream: int) -> np.ndarray:
        """Deterministic random interior points for the sampled suites."""
        rng = np.random.default_rng(self.rng_seed + stream)
        box = shrink_box(self.chart.box, 0.9)
        return random_points(box, _ROUTE_POINTS, rng)

    @cached_property
    def family(self) -> tuple:
        """Metric/normal/shape deviations across the phase family, per point."""
        base = self.frame
        gscale = np.maximum(np.linalg.norm(base.metric, axis=(-2, -1)), 1e-14)
        ascale = np.maximum(np.linalg.norm(base.shape_operator, axis=(-2, -1)), 1e-14)
        metric = normal = shape = np.zeros(len(self.points))
        for theta in _FAMILY_THETAS:
            mate = associated(self.seed, theta, self.chain, box=self.chart.box)
            fr = point_frame(mate.jet(self.points))
            blend = math.cos(theta) * np.eye(self.d) + math.sin(theta) * self.J
            expected = base.shape_operator @ blend
            metric = np.maximum(metric, np.linalg.norm(fr.metric - base.metric, axis=(-2, -1)) / gscale)
            normal = np.maximum(normal, np.linalg.norm(fr.normal - base.normal, axis=-1))
            shape = np.maximum(
                shape, np.linalg.norm(fr.shape_operator - expected, axis=(-2, -1)) / ascale
            )
        return metric, normal, shape


def build_bundle(
    seed: WeierstrassSeed,
    counts=None,
    box=None,
    margin: float = 0.9,
    rng_seed: int = DEFAULT_RNG_SEED,
) -> ChartBundle:
    """Validate the seed, run the recursion, and sample the chart box."""
    validate_seed(seed)
    chain = build_chain(seed)
    chart = immersion_f(seed, chain, box=box)
    if counts is None:
        counts = default_counts(chart.d)
    counts = [int(c) for c in counts]
    if len(counts) != chart.d:
        raise ValueError(
            f"sampling counts must list {chart.d} axes, got {len(counts)}"
        )
    if any(c < 2 for c in counts):
        raise ValueError("sampling needs at least 2 points per axis")
    pts = grid_points(shrink_box(chart.box, margin), counts)
    return ChartBundle(seed=seed, chain=chain, chart=chart, points=pts, rng_seed=rng_seed)


# -- individual suites ---------------------------------------------------------

def _suite_minimality(b: ChartBundle, tol: float):
    res = minimality_residual(b.frame)
    return [ResidualReport.from_residuals("minimality", res, tol)]


def _suite_rank(b: ChartBundle, tol: float):
    frame = b.frame
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IndeterminateRankWarning)
        rr = rank_and_nullity(frame)
    # an indeterminate spectrum counts as a miss
    res = np.where(rr.indeterminate, 1.0, np.abs(rr.rank - b.expected_rank))
    return [ResidualReport.from_residuals("rank", res, tol)]


def _suite_family_metric(b: ChartBundle, tol: float):
    return [ResidualReport.from_residuals("family_metric", b.family[0], tol)]


def _suite_family_normal(b: ChartBundle, tol: float):
    return [ResidualReport.from_residuals("family_normal", b.family[1], tol)]


def _suite_family_shape(b: ChartBundle, tol: float):
    return [ResidualReport.from_residuals("family_shape", b.family[2], tol)]


def _suite_anticommutation(b: ChartBundle, tol: float):
    res = anticommutation_residual(b.frame, b.J)
    return [ResidualReport.from_residuals("anticommutation", res, tol)]


def _suite_kaehler_parallel(b: ChartBundle, tol: float):
    res = parallel_J_residual(b.frame, b.J)
    return [ResidualReport.from_residuals("kaehler_parallel", res, tol)]


def _suite_bending_condition(b: ChartBundle, tol: float):
    res = bending_residual(b.frame, b.conjugate_jet)
    # control: the chart as its own position field scales the metric, it never bends
    ctrl = bending_residual(b.frame, b.frame.jet)
    return [
        ResidualReport.from_residuals("bending_condition", res, tol),
        ResidualReport.from_residuals("bending_condition_control", ctrl, CONTROL_FLOOR, control=True),
    ]


def _deterministic_trivial(b: ChartBundle, stream: int) -> Jet2:
    """The 2-jet on the grid of a random trivial field D f + w."""
    rng = np.random.default_rng(b.rng_seed + stream)
    return make_trivial(b.chart, rng=rng).jet(b.points)


def _suite_gauss_preservation(b: ChartBundle, tol: float):
    T = b.conjugate_jet
    # both measures of each point, interleaved point by point
    res = np.stack(
        [gauss_tangency_residual(b.frame, T), normal_variation_residual(b.frame, T)],
        axis=-1,
    ).ravel()
    # control: a generic rigid rotation tilts the normal at first order
    bad = _deterministic_trivial(b, stream=101)
    ctrl = np.maximum(
        gauss_tangency_residual(b.frame, bad),
        normal_variation_residual(b.frame, bad),
    )
    return [
        ResidualReport.from_residuals("gauss_preservation", res, tol),
        ResidualReport.from_residuals("gauss_preservation_control", ctrl, CONTROL_FLOOR, control=True),
    ]


def _quadratic_control_field(b: ChartBundle) -> TaylorChart:
    """T = x0^2 e0 + x1^2 e1: a smooth field whose tangential part is
    visibly non-parallel (its derivative grows linearly in the coordinates)."""

    def fn(x):
        return Taylor.stack([x[..., 0] * x[..., 0], x[..., 1] * x[..., 1]] + [0.0] * (b.chart.ambient - 2))

    return TaylorChart(b.chart.d, b.chart.ambient, b.chart.box, fn)


def _suite_bending_tpar(b: ChartBundle, tol: float):
    res = parallel_tangential_residual(b.frame, b.conjugate_jet)
    ctrl = parallel_tangential_residual(b.frame, _quadratic_control_field(b).jet(b.points))
    return [
        ResidualReport.from_residuals("bending_tpar", res, tol),
        ResidualReport.from_residuals("bending_tpar_control", ctrl, CONTROL_FLOOR, control=True),
    ]


def _suite_bending_bat(b: ChartBundle, tol: float):
    res = bat_residual(b.frame, b.conjugate_jet)
    # control: a trivial field has B = 0 but a nonzero tangential part
    ctrl = bat_residual(b.frame, _deterministic_trivial(b, stream=202))
    return [
        ResidualReport.from_residuals("bending_bat", res, tol),
        ResidualReport.from_residuals("bending_bat_control", ctrl, CONTROL_FLOOR, control=True),
    ]


def _suite_fundamental_wedge(b: ChartBundle, tol: float):
    res = fundamental_equation_residual(b.frame, b.conjugate_jet)
    # control: the position field's bending tensor is the second fundamental
    # form itself, and the wedge of A with A is the (nonzero) curvature
    ctrl = fundamental_equation_residual(b.frame, b.frame.jet)
    return [
        ResidualReport.from_residuals("fundamental_wedge", res, tol),
        ResidualReport.from_residuals("fundamental_wedge_control", ctrl, CONTROL_FLOOR, control=True),
    ]


def _suite_codazzi_b(b: ChartBundle, tol: float):
    # the 3-jets stay local: kept on the bundle they would add to peak memory
    res = codazzi_b_residual(b.chart.jet(b.points, order=3), b.conjugate.jet(b.points, order=3))
    # control: a generic operator field linear in the coordinates
    rng = np.random.default_rng(b.rng_seed + 303)
    raw0 = rng.standard_normal((b.d, b.d))
    raw1 = rng.standard_normal((b.d, b.d))
    S0 = raw0 + raw0.T
    S1 = raw1 + raw1.T

    dS = np.zeros((b.d, b.d, b.d))
    dS[0] = S1  # d_0 (S0 + x0 S1)
    ctrl = codazzi_residual(b.frame, S0 + b.points[:, 0, None, None] * S1, dS)
    return [
        ResidualReport.from_residuals("codazzi_b", res, tol),
        ResidualReport.from_residuals("codazzi_b_control", ctrl, CONTROL_FLOOR, control=True),
    ]


def _suite_b_three_route(b: ChartBundle, tol: float):
    pts = b.route_points(stream=1)
    res = b_route_agreement(point_frame(b.chart.jet(pts)), b.conjugate.jet(pts))
    return [ResidualReport.from_residuals("b_three_route", res, tol)]


def _suite_rotation(b: ChartBundle, tol: float):
    pts = b.route_points(stream=2)
    rot = rotation_coefficient(point_frame(b.chart.jet(pts)), b.conjugate.jet(pts), J=b.J)
    cs = rot.coefficient
    # point-independence of c sits between the per-point misses and fits
    res = np.concatenate([np.abs(cs - 1.0), [cs.max() - cs.min()], rot.fit_residual])
    return [ResidualReport.from_residuals("rotation", res, tol)]


def _suite_nullity_kernel(b: ChartBundle, tol: float):
    if b.d <= 2:
        raise ValueError(
            "nullity_in_bending_kernel needs a chart with relative nullity (d > 2)"
        )
    frame = b.frame
    b_op = B_by_formula(frame, b.conjugate_jet).op
    null = rank_and_nullity(frame).null_mask
    basis = np.where(null[..., None, :], frame.eigenvectors, 0.0)
    res = nullity_annihilation_residual(frame, b_op, basis)
    return [ResidualReport.from_residuals("nullity_in_bending_kernel", res, tol)]


SUITE_ORDER = (
    "minimality",
    "rank",
    "family_metric",
    "family_normal",
    "family_shape",
    "anticommutation",
    "kaehler_parallel",
    "bending_condition",
    "gauss_preservation",
    "bending_tpar",
    "bending_bat",
    "fundamental_wedge",
    "codazzi_b",
    "b_three_route",
    "rotation",
    "nullity_in_bending_kernel",
)

_SUITES = {
    "minimality": _suite_minimality,
    "rank": _suite_rank,
    "family_metric": _suite_family_metric,
    "family_normal": _suite_family_normal,
    "family_shape": _suite_family_shape,
    "anticommutation": _suite_anticommutation,
    "kaehler_parallel": _suite_kaehler_parallel,
    "bending_condition": _suite_bending_condition,
    "gauss_preservation": _suite_gauss_preservation,
    "bending_tpar": _suite_bending_tpar,
    "bending_bat": _suite_bending_bat,
    "fundamental_wedge": _suite_fundamental_wedge,
    "codazzi_b": _suite_codazzi_b,
    "b_three_route": _suite_b_three_route,
    "rotation": _suite_rotation,
    "nullity_in_bending_kernel": _suite_nullity_kernel,
}


def default_suites(bundle: ChartBundle) -> list:
    """Suites run when the config names none.

    Built-in seeds run exactly the suites in their expected-residual
    manifest; other seeds run everything applicable to their dimension.
    """
    name = bundle.seed.name
    if name in EXPECTED_RESIDUALS:
        manifest = EXPECTED_RESIDUALS[name]
        return [s for s in SUITE_ORDER if s in manifest]
    skip = {"nullity_in_bending_kernel"} if bundle.d <= 2 else set()
    return [s for s in SUITE_ORDER if s not in skip]


def run_suites(bundle: ChartBundle, names=None, tolerances=None) -> list:
    """Run the named suites (default per seed) and return report rows."""
    if names is None:
        names = default_suites(bundle)
    overrides = dict(tolerances or {})
    unknown = [n for n in names if n not in _SUITES]
    if unknown:
        raise ValueError(
            f"unknown suites {unknown}; registered: {', '.join(SUITE_ORDER)}"
        )
    bad_tol = [n for n in overrides if n not in _SUITES]
    if bad_tol:
        raise ValueError(
            f"tolerance overrides for unknown suites {bad_tol}; "
            f"registered: {', '.join(SUITE_ORDER)}"
        )
    reports = []
    for name in names:
        tol = float(overrides.get(name, DEFAULT_TOLERANCES[name]))
        reports.extend(_SUITES[name](bundle, tol))
    return reports
