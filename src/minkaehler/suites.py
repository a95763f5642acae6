"""Named verification suites run over a constructed chart.

Every grid quantity the suites check is fixed by two jets: those of the
chart f and of its conjugate fbar, the bending that preserves the Gauss
map.  :class:`ChartBundle` evaluates both in one call on the sample grid,
as the two-member stack ``SeriesChart(seed, (0, pi/2))`` at order 2, and
derives the rest from them: the grid frame, the conjugate as a
:class:`~minkaehler.bending.Variation` along it that keeps its dN, T_* and
B for every suite, and the control fields, each a Variation of its own,
the quadratic one in closed form.  No member cos(theta) f + sin(theta)
fbar of the phase family is built: its metric, normal and shape operator
are trigonometric polynomials in theta, so each family row bounds its
identity at every theta from f's frame and fbar's jet.  Every identity
the suites check is pointwise, so the grid is the only evaluation.

On seed charts fbar's 2-jet is f's under J, bit for bit, so the bending
rows and ``family_shape`` (exactly 0 there) test f's Hermitian, anti-J and
parallel-J structure and the pipeline, not a bending independent of f.

Every row reads the frame's E, A_hat and Gamma_hat, and each operator as
its matrix in that orthonormal frame: no eigen-solver, G^{-1}, d_l G or
d_i T_*.  Every relative row is its residual over its scale through
:func:`~minkaehler.geometry.relative`, so no point drops out of a row.

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
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bending import (
    B_with_codazzi_derivative,
    Variation,
    b_route_agreement,
    bat_residual,
    bending_residual,
    codazzi_residual,
    fundamental_equation_residual,
    gauss_tangency_residual,
    make_trivial,
    normal_variation_residual,
    nullity_annihilation_residual,
    parallel_tangential_residual,
    rotation_coefficient,
)
from .charts import Jet2, grid_points, shrink_box
from .geometry import (
    PointFrame,
    _t,
    anticommutation_residual,
    gnorm_op,
    minimality_residual,
    parallel_J_residual,
    point_frame,
    rank_two_residual,
    relative,
)
from .report import ResidualReport
from .weierstrass import SeriesChart, WeierstrassSeed, chart_complex_structure

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

# generator seed of the random control fields; each control adds its own stream
DEFAULT_RNG_SEED = 20260816

# Floor every negative control must exceed to prove the residual has teeth.
CONTROL_FLOOR = 1e-2

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
    chart: SeriesChart
    points: np.ndarray

    @property
    def d(self) -> int:
        return self.chart.d

    @property
    def J(self) -> np.ndarray:
        return chart_complex_structure(self.chart.d)

    @cached_property
    def _grid_jets(self) -> tuple:
        """The 2-jets over the sample grid of f and of its conjugate fbar:
        the one evaluation on the grid, of the stack of members 0 and pi/2."""
        return SeriesChart(self.seed, (0.0, math.pi / 2)).member_jets(self.points)

    @cached_property
    def frame(self) -> PointFrame:
        """The chart's frame stack over the sample grid, from f's grid 2-jet."""
        return point_frame(self._grid_jets[0])

    @cached_property
    def conjugate(self) -> Variation:
        """The conjugate field along the grid frame; its ``jet`` is fbar's
        grid 2-jet."""
        return Variation(self.frame, self._grid_jets[1])

    def trivial_jet(self, stream: int) -> Jet2:
        """The 2-jet over the grid of a random trivial field D f + w."""
        rng = np.random.default_rng(DEFAULT_RNG_SEED + stream)
        return make_trivial(self.frame.jet, rng)


def build_bundle(seed: WeierstrassSeed, counts=None) -> ChartBundle:
    """The seed's chart f, sampled on its box shrunk by ``_GRID_MARGIN``
    about its center; the seed checked itself when built."""
    chart = SeriesChart(seed)
    if counts is None:
        counts = default_counts(chart.d)
    counts = [int(c) for c in counts]
    if len(counts) != chart.d:
        raise ValueError(f"sampling counts must list {chart.d} axes, got {len(counts)}")
    if any(c < 2 for c in counts):
        raise ValueError("sampling needs at least 2 points per axis")
    pts = grid_points(shrink_box(chart.box, _GRID_MARGIN), counts)
    return ChartBundle(seed=seed, chart=chart, points=pts)


# -- the suite registry --------------------------------------------------------
#
# Every route is analytic: 2-jets and exact linear algebra only, the
# Christoffel symbols, d_i b and the first variations along f + tT included.
# Identities get 1e-7 or tighter; ``rotation`` and
# ``nullity_in_bending_kernel``, which divide by the curvature product e2
# through the range projector of A, get 1e-6.

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
    """|trace A| / ||A||_G, pointwise, with the Frobenius G-norm."""
    return (minimality_residual(b.frame),)


@_suite(1e-7)
def rank(b: ChartBundle):
    """The shape operator has rank 2, as every chart of the construction's
    does: ||A_hat^3 - e1 A_hat^2 + e2 A_hat||_F / ||A_hat||_F^3, and 1.0
    where the rank is below 2."""
    return (rank_two_residual(b.frame),)


@_suite(1e-10)
def family_metric(b: ChartBundle):
    """f_theta = cos(theta) f + sin(theta) fbar is isometric to f: with P =
    f_* fbar_*^T, G_theta - G = sin^2(theta) (G_fbar - G) + sin(theta)
    cos(theta) (P + P^T), so (||G_fbar - G||_F + ||P + P^T||_F / 2) /
    ||G||_F bounds ||G_theta - G||_F / ||G||_F at every theta, and is at
    most twice its largest value, by theta = pi/4, pi/2 and 3 pi/4."""
    f1, fbar1, G = b.frame.jet.d1, b.conjugate.jet.d1, b.frame.metric
    P = f1 @ _t(fbar1)
    dev, sym, scale = np.linalg.norm([fbar1 @ _t(fbar1) - G, P + _t(P), G], axis=(-2, -1))
    return (relative(dev + 0.5 * sym, scale),)


@_suite(1e-10)
def family_normal(b: ChartBundle):
    """f_theta shares f's unit normal: N is normal to cos(theta) f_* +
    sin(theta) fbar_* at every theta exactly when it is normal to fbar_*,
    so this is fbar's tangency, the first half of ``gauss_preservation``."""
    return (gauss_tangency_residual(b.conjugate),)


@_suite(1e-7)
def family_shape(b: ChartBundle):
    """A_theta = A (cos(theta) + sin(theta) J): where f_theta shares G and
    N (the rows above), H_theta = cos(theta) H + sin(theta) H_fbar, H_fbar =
    <fbar_ij, N>, so the miss is sin(theta) (G^{-1} H_fbar - A J), and
    ||G^{-1} H_fbar - A J||_G / ||A||_G bounds it at every theta; in the
    frame the miss is C^{-1} H_fbar C^{-T} - A_hat J_hat = C^{-1} (H_fbar -
    H J) C^{-T}."""
    frame = b.frame
    Cinv = frame.chol_inv
    miss = Cinv @ (b.conjugate.second_form - frame.second_form @ b.J) @ _t(Cinv)
    return (relative(gnorm_op(miss), frame.shape_norm),)


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


def _quadratic_control_jet(b: ChartBundle) -> Jet2:
    """The 2-jet over the grid of T = x0^2 e0 + x1^2 e1, in closed form: a
    smooth field whose tangential part is visibly non-parallel (its
    derivative grows linearly in the coordinates)."""
    x = b.points
    value, d1, d2 = (np.zeros(x.shape[:-1] + (b.d,) * k + (b.chart.ambient,)) for k in range(3))
    for i in (0, 1):
        value[..., i] = x[..., i] * x[..., i]
        d1[..., i, i] = 2.0 * x[..., i]
        d2[..., i, i, i] = 2.0
    return Jet2(x, value, d1, d2)


@_suite(1e-7)
def bending_tpar(b: ChartBundle):
    """The tangential part of the conjugate is parallel."""
    return (
        parallel_tangential_residual(b.conjugate),
        parallel_tangential_residual(Variation(b.frame, _quadratic_control_jet(b))),
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
    res = codazzi_residual(b.frame, *B_with_codazzi_derivative(b.conjugate))
    # control: a generic symmetric form linear in the coordinates
    rng = np.random.default_rng(DEFAULT_RNG_SEED + 303)
    raw = rng.standard_normal((2, b.d, b.d))
    S0, S1 = raw + _t(raw)
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
    return (nullity_annihilation_residual(b.conjugate),)


SUITE_ORDER = tuple(_SUITES)


def default_suites(bundle: ChartBundle) -> list:
    """Suites run when the config names none: every registered suite, but
    ``nullity_in_bending_kernel`` only on a chart with relative nullity
    (d > 2).  The chart's dimension alone decides, never the seed's name."""
    return [s for s in SUITE_ORDER if bundle.d > 2 or s != nullity_in_bending_kernel.__name__]


def run_suites(bundle: ChartBundle, names=None, tolerances=None) -> list:
    """Run the named suites (by default :func:`default_suites`) and return report rows."""
    if names is None:
        names = default_suites(bundle)
    overrides = dict(tolerances or {})
    unknown = [n for n in names if n not in _SUITES]
    if unknown:
        raise ValueError(f"unknown suites {unknown}; registered: {', '.join(SUITE_ORDER)}")
    bad_tol = [n for n in overrides if n not in _SUITES]
    if bad_tol:
        raise ValueError(
            f"tolerance overrides for unknown suites {bad_tol}; registered: {', '.join(SUITE_ORDER)}"
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
