"""Named verification suites run over a constructed chart.

Every grid quantity the suites check is fixed by two jets: those of the
chart f and of its conjugate fbar, the bending that preserves the Gauss
map.  :class:`ChartBundle` evaluates both once on the sample grid, at
order 3, and derives the rest from them: the grid frame, the conjugate
as a :class:`~minkaehler.bending.Variation` along it that keeps its dN,
T_* and B for every suite, the members cos(theta) f + sin(theta) fbar of
the phase family, and the control fields, each a Variation of its own.
Every identity the suites check is pointwise, so the grid is the only
evaluation.

Each suite is registered once below, in verify order and with its default
tolerance; its docstring states the identity it measures.  A suite maps
the bundle to a tuple: its residuals, one array expression over the whole
point stack, then the residuals of its negative control if it has one.
:func:`run_suites` turns them into :class:`~minkaehler.report.ResidualReport`
rows; a control row (``<name>_control``) comes from a deliberately broken
input and must land *above* ``CONTROL_FLOOR`` for the control to count as
behaving.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bending import (
    B_with_derivative,
    Variation,
    b_route_agreement,
    bat_residual,
    bending_residual,
    conjugate_field,
    fundamental_equation_residual,
    gauss_tangency_residual,
    make_trivial,
    normal_variation_residual,
    nullity_annihilation_residual,
    parallel_tangential_residual,
    rotation_coefficient,
)
from .charts import Jet2, TaylorChart, grid_points, mix_jets, shrink_box
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

_FAMILY_THETAS = tuple(k * math.pi / 6 for k in range(1, 6))
# every chart of the construction has a rank-2 shape operator (nullity d - 2)
_EXPECTED_RANK = 2
# the sample grid keeps off the edge of the chart box, which the seed's domain sets
_GRID_MARGIN = 0.9


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

    @property
    def d(self) -> int:
        return self.chart.d

    @property
    def J(self) -> np.ndarray:
        return chart_complex_structure(self.chart.d)

    @cached_property
    def frame(self) -> PointFrame:
        """The chart's frame stack over the sample grid; its ``jet`` is the
        chart's 3-jet there, the one evaluation of f on the grid."""
        return point_frame(self.chart.jet(self.points, order=3))

    @cached_property
    def conjugate(self) -> Variation:
        """The conjugate field along the grid frame; its ``jet`` is fbar's
        3-jet there, the one evaluation of fbar on the grid."""
        return Variation(self.frame, conjugate_field(self.chart).jet(self.points, order=3))

    def member_jet(self, theta: float) -> Jet2:
        """The 2-jet over the grid of the family member
        cos(theta) f + sin(theta) fbar, combined from the two grid jets."""
        return mix_jets(math.cos(theta), self.frame.jet, math.sin(theta), self.conjugate.jet)

    def trivial_jet(self, stream: int) -> Jet2:
        """The 2-jet over the grid of a random trivial field D f + w."""
        rng = np.random.default_rng(self.rng_seed + stream)
        return make_trivial(self.chart, rng=rng).jet_from(self.frame.jet)

    @cached_property
    def family(self) -> tuple:
        """Metric/normal/shape deviations across the phase family, per point.

        Each member is an unchecked :class:`~minkaehler.geometry.PointFrame`
        of its grid jet, isometric to f, whose frame passed the checks; it
        reads only G, N and A, so it takes no Cholesky factor."""
        base = self.frame
        gscale = np.maximum(np.linalg.norm(base.metric, axis=(-2, -1)), 1e-14)
        ascale = np.maximum(np.linalg.norm(base.shape_operator, axis=(-2, -1)), 1e-14)
        metric = normal = shape = np.zeros(len(self.points))
        for theta in _FAMILY_THETAS:
            member = PointFrame(self.member_jet(theta))
            blend = math.cos(theta) * np.eye(self.d) + math.sin(theta) * self.J
            expected = base.shape_operator @ blend
            metric = np.maximum(metric, np.linalg.norm(member.metric - base.metric, axis=(-2, -1)) / gscale)
            normal = np.maximum(normal, np.linalg.norm(member.normal - base.normal, axis=-1))
            shape = np.maximum(shape, np.linalg.norm(member.shape_operator - expected, axis=(-2, -1)) / ascale)
        return metric, normal, shape


def build_bundle(seed: WeierstrassSeed, counts=None, rng_seed: int = DEFAULT_RNG_SEED) -> ChartBundle:
    """Validate the seed, run the recursion, and sample the chart box
    shrunk by ``_GRID_MARGIN`` about its center."""
    if rng_seed < 0:
        raise ValueError(f"sampling rng_seed must be >= 0, got {rng_seed}")
    validate_seed(seed)
    chain = build_chain(seed)
    chart = immersion_f(seed, chain)
    if counts is None:
        counts = default_counts(chart.d)
    counts = [int(c) for c in counts]
    if len(counts) != chart.d:
        raise ValueError(
            f"sampling counts must list {chart.d} axes, got {len(counts)}"
        )
    if any(c < 2 for c in counts):
        raise ValueError("sampling needs at least 2 points per axis")
    pts = grid_points(shrink_box(chart.box, _GRID_MARGIN), counts)
    return ChartBundle(seed=seed, chain=chain, chart=chart, points=pts, rng_seed=rng_seed)


# -- the suite registry --------------------------------------------------------
#
# Every route is analytic: jets to order 3 and exact linear algebra only,
# the Christoffels, d_l B and the first variations along f + tT included.
# Identities get 1e-7 or tighter; ``rotation`` and
# ``nullity_in_bending_kernel``, which read eigenvectors of A, get 1e-6, and
# ``rank`` counts a miss as 1.

_SUITES = {}  # suite name -> suite, in verify order
DEFAULT_TOLERANCES = {}  # suite name -> its default tolerance


def _suite(tolerance: float):
    """Register the decorated function as the suite of its own name, with
    its default tolerance; suites run in the order they are registered."""

    def register(fn):
        _SUITES[fn.__name__] = fn
        DEFAULT_TOLERANCES[fn.__name__] = tolerance
        return fn

    return register


@_suite(1e-8)
def minimality(b: ChartBundle):
    """|trace A| / ||A||, pointwise."""
    return (minimality_residual(b.frame),)


@_suite(0.5)
def rank(b: ChartBundle):
    """The shape-operator rank equals the expected rank."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IndeterminateRankWarning)
        rr = rank_and_nullity(b.frame)
    # an indeterminate spectrum counts as a miss
    return (np.where(rr.indeterminate, 1.0, np.abs(rr.rank - _EXPECTED_RANK)),)


@_suite(1e-10)
def family_metric(b: ChartBundle):
    """The induced metrics across the phase family match."""
    return (b.family[0],)


@_suite(1e-10)
def family_normal(b: ChartBundle):
    """The unit normals across the phase family match."""
    return (b.family[1],)


@_suite(1e-7)
def family_shape(b: ChartBundle):
    """A_theta = cos(theta) A + sin(theta) A J."""
    return (b.family[2],)


@_suite(1e-7)
def anticommutation(b: ChartBundle):
    """A J + J A = 0."""
    return (anticommutation_residual(b.frame, b.J),)


@_suite(1e-7)
def kaehler_parallel(b: ChartBundle):
    """The covariant derivative of J vanishes."""
    return (parallel_J_residual(b.frame, b.J),)


@_suite(1e-7)
def bending_condition(b: ChartBundle):
    """The conjugate field is an infinitesimal bending."""
    # control: the chart as its own position field scales the metric, it never bends
    return bending_residual(b.conjugate), bending_residual(Variation(b.frame, b.frame.jet))


@_suite(1e-7)
def gauss_preservation(b: ChartBundle):
    """The conjugate field keeps the unit normal."""
    T = b.conjugate
    # both measures of each point, interleaved point by point
    res = np.stack([gauss_tangency_residual(T), normal_variation_residual(T)], axis=-1).ravel()
    # control: a generic rigid rotation tilts the normal at first order
    bad = Variation(b.frame, b.trivial_jet(stream=101))
    return res, np.maximum(gauss_tangency_residual(bad), normal_variation_residual(bad))


def _quadratic_control_field(b: ChartBundle) -> TaylorChart:
    """T = x0^2 e0 + x1^2 e1: a smooth field whose tangential part is
    visibly non-parallel (its derivative grows linearly in the coordinates)."""

    def fn(x):
        return Taylor.stack([x[..., 0] * x[..., 0], x[..., 1] * x[..., 1]] + [0.0] * (b.chart.ambient - 2))

    return TaylorChart(b.chart.d, b.chart.ambient, b.chart.box, fn)


@_suite(1e-7)
def bending_tpar(b: ChartBundle):
    """The tangential part of the conjugate is parallel."""
    return (
        parallel_tangential_residual(b.conjugate),
        parallel_tangential_residual(Variation(b.frame, _quadratic_control_field(b).jet(b.points))),
    )


@_suite(1e-7)
def bending_bat(b: ChartBundle):
    """B equals A composed with the tangential part."""
    # control: a trivial field has B = 0 but a nonzero tangential part
    return bat_residual(b.conjugate), bat_residual(Variation(b.frame, b.trivial_jet(stream=202)))


@_suite(1e-7)
def fundamental_wedge(b: ChartBundle):
    """The linearized curvature identity holds for (A, B)."""
    # control: the position field's bending tensor is the second fundamental
    # form itself, and the wedge of A with A is the (nonzero) curvature
    return (
        fundamental_equation_residual(b.conjugate),
        fundamental_equation_residual(Variation(b.frame, b.frame.jet)),
    )


@_suite(1e-7)
def codazzi_b(b: ChartBundle):
    """B satisfies the Codazzi symmetry."""
    res = codazzi_residual(b.frame, *B_with_derivative(b.conjugate))
    # control: a generic operator field linear in the coordinates
    rng = np.random.default_rng(b.rng_seed + 303)
    raw0 = rng.standard_normal((b.d, b.d))
    raw1 = rng.standard_normal((b.d, b.d))
    S0 = raw0 + raw0.T
    S1 = raw1 + raw1.T

    dS = np.zeros((b.d, b.d, b.d))
    dS[0] = S1  # d_0 (S0 + x0 S1)
    return res, codazzi_residual(b.frame, S0 + b.points[:, 0, None, None] * S1, dS)


@_suite(1e-7)
def b_three_route(b: ChartBundle):
    """The three independent B computations agree."""
    return (b_route_agreement(b.conjugate),)


@_suite(1e-6)
def rotation(b: ChartBundle):
    """The tangential part rotates by a constant c = 1."""
    rot = rotation_coefficient(b.conjugate)
    cs = rot.coefficient
    # point-independence of c sits between the per-point misses and fits
    return (np.concatenate([np.abs(cs - 1.0), [cs.max() - cs.min()], rot.fit_residual]),)


@_suite(1e-6)
def nullity_in_bending_kernel(b: ChartBundle):
    """B annihilates the relative-nullity directions."""
    if b.d <= 2:
        raise ValueError("this suite needs a chart with relative nullity (d > 2)")
    frame = b.frame
    null = rank_and_nullity(frame).null_mask
    basis = np.where(null[..., None, :], frame.eigenvectors, 0.0)
    return (nullity_annihilation_residual(frame, b.conjugate.B, basis),)


SUITE_ORDER = tuple(_SUITES)


def default_suites(bundle: ChartBundle) -> list:
    """Suites run when the config names none.

    Built-in seeds run exactly the suites in their expected-residual
    manifest; other seeds run everything applicable to their dimension.
    """
    name = bundle.seed.name
    if name in EXPECTED_RESIDUALS:
        manifest = EXPECTED_RESIDUALS[name]
        return [s for s in SUITE_ORDER if s in manifest]
    skip = {nullity_in_bending_kernel.__name__} if bundle.d <= 2 else set()
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
        res, *control = _SUITES[name](bundle)
        reports.append(ResidualReport.from_residuals(name, res, tol))
        reports.extend(
            ResidualReport.from_residuals(f"{name}_control", c, CONTROL_FLOOR, control=True)
            for c in control
        )
    return reports
