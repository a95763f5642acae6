"""Gauss parametrization: hypersurfaces from sphere data and back.

A hypersurface with constant relative nullity is determined by its Gauss
image g : L -> S^m (a surface in the unit sphere) together with a support
function gamma on L.  The parametrized representative is

    Psi(x, w) = gamma g + g-gradient of gamma + sum_a w_a xi_a(x)

where (xi_a) frames the normal space of the surface inside the sphere: the
fibers (x fixed, w varying) are straight, the unit normal of Psi along a
fiber is g(x) itself, and the support of Psi at a fiber is gamma(x).  When
L is 2-dimensional, Psi is minimal exactly when (Laplace + 2) gamma = 0 in
the metric induced by g.

The reverse direction extracts (g, gamma) from a chart with relative
nullity: the normal is constant along nullity leaves, so clustering sample
normals identifies leaves, and sections through the leaf space give the
quotient data.  For charts whose trailing coordinates parametrize the
leaves (the series charts built here, and cylinders over plane curves),
the section at zero fiber coordinates rebuilds the sphere data, and the
round trip lands each rebuilt point back on the original leaf.

The quotient dimension is read from the input, never set: the measured
rank of the samples in :func:`extract_from_hypersurface`, the last axis
of the quotient points in :func:`gauss_round_trip`.

A :class:`GaussDatum` is one formula x -> (g, gamma, xi) in Taylor
arithmetic (:mod:`minkaehler.taylor`) over point stacks, so every
derivative is exact and one evaluation gives all three.  Psi's jet
evaluates it once, one order deeper, and composes xi from the same
evaluation.  The closed-form data are the sphere surfaces, each with a
support; the data rebuilt from a chart (:func:`rebuild`) read its jets
once per point stack, the 4-jets under Psi's 2-jet, and the round trip
reads the chart once in all.  The nontrivial
bending of a cylinder over an ellipse (:func:`make_cylinder_bending`) is
closed form too.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import kernels
from .charts import ImmersionChart, Jet2
from .errors import DomainError, PreconditionError
from .geometry import (
    PointFrame,
    laplace_beltrami,
    minimality_residual,
    point_frame,
    rank_and_nullity,
)
from .taylor import Taylor, TaylorChart, dot, solve, unit

# half-width of every fiber coordinate w_a in a parametrized chart's box
_W_HALFWIDTH = 0.4
# sample normals closer than this belong to one nullity leaf
_CLUSTER_TOL = 1e-6
# largest deviation from its defining identities that a datum's frame may show
_VERIFY_TOL = 1e-8


def _lift(q, fiber_dim: int) -> np.ndarray:
    """Points (..., r) of the quotient at zero fiber coordinates."""
    q = np.asarray(q, dtype=np.float64)
    return np.concatenate([q, np.zeros(q.shape[:-1] + (fiber_dim,))], axis=-1)


# -- Gauss data ----------------------------------------------------------------

@dataclass(frozen=True)
class GaussDatum:
    """A surface g in the unit sphere of R^ambient over a box of
    d-dimensional L-coordinates, with its support gamma and a frame xi of
    its sphere-normal space.  ``fn`` maps a (..., d) stack of Taylor
    variables to (g, gamma, xi) of shapes (..., ambient), (...) and
    (..., k, ambient), k the fiber dimension.  Frames are *verified*, never
    constructed: :meth:`verify` checks all defining identities numerically.
    """

    d: int
    ambient: int
    box: np.ndarray
    fn: Callable

    @property
    def fiber_dim(self) -> int:
        return self.ambient - 1 - self.d

    def expand(self, p, order: int) -> tuple:
        """(g, gamma, xi) expanded to ``order`` about each point of a
        (..., d) stack."""
        g, gamma, xi = self.fn(Taylor.variables(np.asarray(p, dtype=np.float64), order))
        if xi.shape[-2:] != (self.fiber_dim, self.ambient):
            raise DomainError(
                f"frame must have shape {(self.fiber_dim, self.ambient)}, got {xi.shape[-2:]}"
            )
        return g, gamma, xi

    def verify(self, pts) -> float:
        """Check |g| = 1, frame orthonormality, and frame tangency/normality
        on a point stack; raises :class:`PreconditionError` past
        ``_VERIFY_TOL``, returns the worst deviation."""
        g, _, xi = self.expand(pts, 1)
        value, xi = g.value, xi.value
        worst = max(
            float(np.abs(np.einsum("...c,...c->...", value, value) - 1.0).max()),
            float(np.abs(xi @ np.swapaxes(xi, -1, -2) - np.eye(self.fiber_dim)).max()),
            float(np.abs(xi @ value[..., None]).max()),
            float(np.abs(xi @ g.derivatives(1)).max()),
        )
        if worst > _VERIFY_TOL:
            raise PreconditionError(
                f"sphere-surface data fails its defining identities "
                f"(worst deviation {worst:.3g} > {_VERIFY_TOL:g})"
            )
        return worst


def _with_support(data: GaussDatum, support: Callable) -> GaussDatum:
    """``data`` with gamma = support(x, g) in place of its own."""

    def fn(x):
        g, _, xi = data.fn(x)
        return g, support(x, g), xi

    return replace(data, fn=fn)


def linear_support(data: GaussDatum, a) -> GaussDatum:
    """gamma = <a, g>: for 2-dimensional L in the round examples these are
    the eigenfunctions making the parametrized hypersurface minimal."""
    a = np.asarray(a, dtype=np.float64)
    if a.shape != (data.ambient,):
        raise DomainError(f"coefficient vector must have {data.ambient} entries")
    return _with_support(data, lambda x, g: dot(g, a))


def constant_support(data: GaussDatum, c: float) -> GaussDatum:
    return _with_support(data, lambda x, g: 0.0 * x[..., 0] + c)


def second_legendre_support(data: GaussDatum) -> GaussDatum:
    """gamma(s, t) = Q_1(cos t) on the equatorial sphere (polar angle t).

    Q_1(x) = (x/2) log((1+x)/(1-x)) - 1 is the second solution of the
    degree-1 Legendre equation, so (Laplace + 2) gamma = 0 away from the
    poles.  Unlike the degree-1 harmonics <a, g> - whose parametrized
    hypersurface degenerates to a point plus fiber because gamma g +
    grad gamma is constant - this support keeps the parametrization
    regular on the equatorial band.
    """

    def support(x, g):
        c = x[..., 1].cos()
        return 0.5 * c * ((1.0 + c) / (1.0 - c)).log() - 1.0

    return _with_support(data, support)


# -- builtin sphere surfaces ---------------------------------------------------

def geodesic_sphere_surface() -> GaussDatum:
    """The equatorial 2-sphere of S^3 in R^4, framed by the constant e_4,
    with support 0 until a support above replaces it."""

    def fn(x):
        s, t = x[..., 0], x[..., 1]
        zero = 0.0 * s
        g = Taylor.stack([t.sin() * s.cos(), t.sin() * s.sin(), t.cos(), 0.0])
        return g, zero, Taylor.stack([zero, zero, zero, zero + 1.0])[..., None, :]

    return GaussDatum(2, 4, np.array([[0.3, 1.3], [0.8, 2.2]]), fn)


def clifford_torus_surface() -> GaussDatum:
    """The Clifford torus in S^3 in R^4, framed by its sphere normal, with
    support 0 until a support above replaces it."""
    s2 = np.sqrt(2.0)

    def fn(x):
        u, v = x[..., 0], x[..., 1]
        g = Taylor.stack([u.cos(), u.sin(), v.cos(), v.sin()]) / s2
        xi = Taylor.stack([-u.cos(), -u.sin(), v.cos(), v.sin()]) / s2
        return g, 0.0 * u, xi[..., None, :]

    return GaussDatum(2, 4, np.array([[0.2, 1.8], [0.4, 2.0]]), fn)


# -- the parametrization -------------------------------------------------------

def gauss_param(data: GaussDatum) -> TaylorChart:
    """Build the parametrized hypersurface chart from (g, gamma, xi).

    Coordinates are (x_1..x_d, w_1..w_k) with k the fiber dimension.  At
    jet order K the datum is expanded once, one order deeper, about x, so
    g_* and grad gamma = G^{-1} d gamma keep order K and the jets are
    exact; xi comes from the same expansion.  Nothing is checked here:
    :meth:`GaussDatum.verify` and :func:`~minkaehler.geometry.point_frame`
    of a jet do that.
    """
    d = data.d
    k = data.fiber_dim
    if k < 1:
        raise PreconditionError(
            "the surface has no sphere-normal directions: the parametrized "
            "hypersurface would have no fibers"
        )

    def psi(X):
        x, w = X[..., :d], X[..., d:]
        g, gam, xi = data.expand(x.value, X.order + 1)
        dg = Taylor.stack([g.diff(i) for i in range(d)], axis=-2)
        dgam = Taylor.stack([gam.diff(i) for i in range(d)])
        G = dot(dg[..., :, None, :], dg[..., None, :, :])
        base = gam[..., None] * g + (solve(G, dgam)[..., None] * dg).sum(-2)
        return base.compose(x) + (w[..., :, None] * xi.compose(x)).sum(-2)

    box = np.vstack([data.box, np.array([[-_W_HALFWIDTH, _W_HALFWIDTH]] * k)])
    return TaylorChart(d + k, data.ambient, box, psi)


def gauss_map_identity_residual(chart: ImmersionChart, data: GaussDatum, q) -> np.ndarray:
    """Component of the chart normal orthogonal to g: ||N - <N, g> g||, on
    a (..., d + k) point stack.

    Sign-blind, so it measures exactly the Gauss-map identity N = +-g.
    """
    q = np.asarray(q, dtype=np.float64)
    return _off_axis(point_frame(chart.jet(q)).normal, data.expand(q[..., : data.d], 0)[0].value)


def _off_axis(N: np.ndarray, g: np.ndarray) -> np.ndarray:
    """||N - <N, g> g|| over the leading axes, for unit g."""
    return np.linalg.norm(N - np.einsum("...c,...c->...", N, g)[..., None] * g, axis=-1)


@dataclass(frozen=True)
class MinimalityPair:
    """Data for the minimality criterion on a point stack: the relative
    trace of the shape operator of the parametrized chart against the
    eigenvalue equation (Laplace + d) gamma on the quotient surface."""

    trace_residual: np.ndarray
    eigen_residual: np.ndarray


def minimality_criterion(data: GaussDatum, qpts) -> MinimalityPair:
    """Evaluate both sides of the minimality equivalence on a (..., d)
    point stack: the chart's :func:`~minkaehler.geometry.minimality_residual`
    |trace A| / ||A||_G at the lifted point (zero fiber coordinates), where
    ||A||_G is the Frobenius G-norm of A (the root of the sum of its
    squared eigenvalues, A being G-self-adjoint), and
    |(Laplace + d) gamma| on the quotient from one exact 2-jet of g and
    gamma."""
    q = np.asarray(qpts, dtype=np.float64)
    trace_res = minimality_residual(point_frame(gauss_param(data).jet(_lift(q, data.fiber_dim))))
    g, gam, _ = data.expand(q, 2)
    jet = Jet2(q, *(np.moveaxis(g.derivatives(k), q.ndim - 1, -1) for k in range(3)))
    lap = laplace_beltrami(PointFrame(jet), gam.derivatives(1), gam.derivatives(2))
    return MinimalityPair(trace_res, np.abs(lap + data.d * gam.value))


# -- extraction from a hypersurface chart ---------------------------------------

def _section(chart: ImmersionChart, r: int, x: Taylor) -> tuple:
    """(g, gamma, xi) of the section q -> chart(q, 0), composed with the
    (..., r) Taylor stack ``x``: g the unit normal N, gamma = <f, N>, and
    xi the orthonormalized fiber partials (Gram-Schmidt in index order).

    One jet order above x's is read, since N takes the first partials.
    N is the normal at the point, N0, projected off the tangent space of
    the expansion and normalized, so its orientation is the chart's.
    """
    lead = x.shape[:-1]
    parts = chart.jet_batch(_lift(x.value.reshape(-1, r), chart.d - r), x.order + 1)
    full = Taylor.from_derivatives([np.moveaxis(a, -1, 1) for a in parts])
    f = full.restrict(r)
    df = Taylor.stack([full.diff(i).restrict(r) for i in range(chart.d)], axis=-2)
    n0 = kernels.cross_columns(df.value)[0]
    G = dot(df[..., :, None, :], df[..., None, :, :])
    normal = unit(n0 - (solve(G, dot(df, n0[:, None, :]))[..., None] * df).sum(-2))
    xi = []
    for a in range(r, chart.d):
        v = df[:, a]
        for e in xi:
            v = v - dot(v, e)[..., None] * e
        xi.append(unit(v))
    data = (normal, dot(f, normal), Taylor.stack(xi, axis=-2))
    return tuple(t.reshape(lead + t.shape[1:]).compose(x) for t in data)


def rebuild(chart: ImmersionChart, rank: int) -> GaussDatum:
    """The Gauss datum of a chart of shape-operator rank ``rank`` whose
    trailing coordinates run along the nullity leaves, on the zero-fiber
    section over the leading ``rank`` coordinates: g the chart normal,
    gamma = <f, N> and xi the orthonormalized leaf directions, all exact
    from one read of the chart's jets per point stack (:func:`_section`).
    The frame identities are what :meth:`GaussDatum.verify` checks
    downstream."""
    if rank < 1:
        raise PreconditionError("a chart of rank 0 has a point for its Gauss image: no quotient to rebuild")
    if chart.d - rank < 1:
        raise PreconditionError("chart has no fiber coordinates to rebuild from")
    box = np.asarray(chart.box[:rank], dtype=np.float64)
    return GaussDatum(rank, chart.ambient, box, lambda x: _section(chart, rank, x))


@dataclass(frozen=True)
class ExtractionResult:
    """Quotient data extracted from a chart with relative nullity.

    ``clusters`` groups sample indices by leaf (constant normal);
    ``normals`` and ``supports`` are per-cluster representatives with their
    observed spreads.  ``data`` is the Gauss datum of the section over the
    quotient coordinates (the leading ``rank`` chart coordinates, at zero
    fiber coordinates), from :func:`rebuild`.
    """

    rank: int
    nullity: int
    clusters: list
    normals: np.ndarray
    supports: np.ndarray
    normal_spread: float
    support_spread: float
    data: GaussDatum
    indeterminate: bool


def _cluster_labels(normals: np.ndarray) -> np.ndarray:
    """Greedy cluster labels of a (P, m) stack of normals, in sample order.

    A sample joins the first earlier cluster whose founding normal lies
    within ``_CLUSTER_TOL``, else founds the next one.  From one array of
    pairwise distances, founders, taken in order, claim every later sample
    near them that no earlier founder claimed.
    """
    gap = np.zeros((len(normals), len(normals)))
    for c in range(normals.shape[1]):
        gap += np.subtract.outer(normals[:, c], normals[:, c]) ** 2
    near = np.sqrt(gap) < _CLUSTER_TOL
    labels = np.full(len(normals), -1, dtype=np.intp)
    count = 0
    for i in range(len(normals)):
        if labels[i] < 0:
            claim = near[i] & (labels < 0)
            claim[i] = True
            labels[claim] = count
            count += 1
    return labels


def extract_from_hypersurface(chart: ImmersionChart, samples) -> ExtractionResult:
    """Recover Gauss-image and support data from chart samples.

    Frames are computed at every sample; the rank must be the first
    sample's at every sample, with positive nullity (otherwise
    :class:`PreconditionError`, naming the first sample that breaks
    either).  Samples are greedily clustered by normal direction: points
    on one nullity leaf share their normal to first order, so clusters are
    leaf fingerprints.  The support gamma = <f, N> is constant on each
    leaf and recorded per cluster.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    fr = point_frame(chart.jet(samples))
    rr = rank_and_nullity(fr)
    rank = int(rr.rank[0])
    other_rank = rr.rank != rank
    bad = np.flatnonzero(other_rank | (rr.nullity == 0))
    if bad.size:
        i = bad[0]
        if other_rank[i]:
            raise PreconditionError(
                f"sample at {samples[i]} has shape-operator rank {rr.rank[i]}, "
                f"expected {rank} as at the first sample"
            )
        raise PreconditionError(
            f"sample at {samples[i]} has no relative nullity: the chart admits "
            "no quotient construction"
        )
    normals = fr.normal
    supports = np.einsum("...c,...c->...", fr.jet.value, normals)
    labels = _cluster_labels(normals)
    clusters = [np.flatnonzero(labels == ci) for ci in range(labels.max() + 1)]
    cluster_normals = np.array([normals[idx].mean(axis=0) for idx in clusters])
    cluster_normals /= np.linalg.norm(cluster_normals, axis=1, keepdims=True)
    cluster_supports = np.array([supports[idx].mean() for idx in clusters])

    return ExtractionResult(
        rank=rank,
        nullity=chart.d - rank,
        clusters=clusters,
        normals=cluster_normals,
        supports=cluster_supports,
        normal_spread=float(np.linalg.norm(normals - cluster_normals[labels], axis=1).max()),
        support_spread=float(np.abs(supports - cluster_supports[labels]).max()),
        data=rebuild(chart, rank),
        indeterminate=bool(rr.indeterminate.any()),
    )


@dataclass(frozen=True)
class RoundTripResult:
    """Per-point round-trip mismatches over the quotient point stack."""

    plane_distance: np.ndarray
    support_mismatch: np.ndarray
    gauss_mismatch: np.ndarray


class _ReadOnce(ImmersionChart):
    """``chart`` read once on one (P, d) point stack, at ``order``: a read
    of that stack at a lower order is the leading part of that one (the
    series charts give the same bits either way).  Any other read raises
    :class:`DomainError`."""

    def __init__(self, chart: ImmersionChart, pts: np.ndarray, order: int):
        self.d, self.ambient, self.box = chart.d, chart.ambient, chart.box
        self._pts = pts
        self._parts = chart.jet_batch(pts, order)

    def jet_batch(self, pts, order: int = 2) -> tuple:
        if order >= len(self._parts) or not np.array_equal(pts, self._pts):
            raise DomainError(f"this chart holds its {len(self._parts) - 1}-jet on one point stack only")
        return self._parts[: order + 1]


def gauss_round_trip(chart: ImmersionChart, qpts) -> RoundTripResult:
    """Rebuild (g, gamma, xi) from the chart and parametrize back, over a
    (..., r) stack of quotient points, r the chart's rank.

    Each rebuilt point Psi(q, 0) must land on the original leaf: the
    affine leaf plane through the zero-fiber point spanned by the leaf
    directions.  Reported per point are the point-to-plane distance, the
    support mismatch <Psi, N> - gamma against the original chart's normal,
    and the (sign-blind) mismatch between the rebuilt chart's own normal
    and g.  The chart is read once, its 4-jet on the lifted points: the
    section under Psi's 2-jet reads that, and the chart's own frame and the
    datum's values read its leading parts.
    """
    q = np.asarray(qpts, dtype=np.float64)
    rank = q.shape[-1]
    lifted = _lift(q, chart.d - rank)
    # Psi's 2-jet expands the datum to order 3, whose section reads the 4-jet
    chart = _ReadOnce(chart, lifted.reshape(-1, chart.d), 4)
    data = rebuild(chart, rank)
    rebuilt = point_frame(gauss_param(data).jet(lifted))
    base = point_frame(chart.jet(lifted))
    g, gamma, L = (t.value for t in data.expand(q, 0))  # L (..., k, m+1), orthonormal rows
    r = rebuilt.jet.value - base.jet.value
    off_plane = r - np.einsum("...a,...ac->...c", np.einsum("...ac,...c->...a", L, r), L)
    support = np.einsum("...c,...c->...", rebuilt.jet.value, base.normal) - gamma
    return RoundTripResult(
        plane_distance=np.linalg.norm(off_plane, axis=-1),
        support_mismatch=np.abs(support),
        gauss_mismatch=_off_axis(rebuilt.normal, g),
    )


# -- a closed-form bending -----------------------------------------------------

def make_cylinder_bending(cylinder: ImmersionChart, a: float, b: float) -> TaylorChart:
    """Nontrivial bending of the cylinder over the ellipse (a cos t, b sin t).

    The field lies in the profile plane and is constant along the straight
    factor: T(t, z) = (v(t), 0, ...) with v'(t) = t * rot90(c'(t)), which
    satisfies <v', c'> = 0 pointwise, the bending condition for cylinders.
    A closed form is v(t) = (-b (t sin t + cos t), a (t cos t - sin t)).
    """
    if cylinder.ambient < 3:
        raise DomainError("cylinder bending needs an ambient dimension of at least 3")

    def fn(x):
        t = x[..., 0]
        v = [-b * (t * t.sin() + t.cos()), a * (t * t.cos() - t.sin())]
        return Taylor.stack(v + [0.0] * (cylinder.ambient - 2))

    return TaylorChart(cylinder.d, cylinder.ambient, cylinder.box, fn)
