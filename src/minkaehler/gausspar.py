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

Everything is Taylor arithmetic (:mod:`minkaehler.taylor`) over point
stacks: g, gamma and the frame are formulas or sections of a chart's jets,
and Psi's 2-jet takes g and gamma one order deeper, so it is exact.  The
rebuilt data of a chart read its 4-jets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .charts import ImmersionChart, TaylorChart
from .errors import DomainError, PreconditionError
from .geometry import (
    TINY,
    generalized_cross,
    laplace_beltrami,
    minimality_residual,
    point_frame,
    rank_and_nullity,
)
from .taylor import Taylor, dot, solve, unit

# half-width of every fiber coordinate w_a in a parametrized chart's box
_W_HALFWIDTH = 0.4
# sample normals closer than this belong to one nullity leaf
_CLUSTER_TOL = 1e-6


def _values(fn, p) -> np.ndarray:
    """A Taylor formula's values on a (..., d) point stack."""
    return fn(Taylor.variables(np.asarray(p, dtype=np.float64), 0)).value


def _lift(q, fiber_dim: int) -> np.ndarray:
    """Points (..., r) of the quotient at zero fiber coordinates."""
    q = np.asarray(q, dtype=np.float64)
    return np.concatenate([q, np.zeros(q.shape[:-1] + (fiber_dim,))], axis=-1)


# -- sphere surfaces -----------------------------------------------------------

@dataclass
class SphereSurface:
    """A surface inside the unit sphere, with a frame of its sphere-normal
    space.  ``chart`` maps L-coordinates to the ambient Euclidean space (its
    image must lie on the unit sphere); ``frame_fn`` maps a (..., d) stack of
    Taylor variables to the (..., k, m+1) fields spanning the orthogonal
    complement of the surface tangent inside the sphere tangent.  Frames
    are *verified*, never constructed: :meth:`verify` checks all defining
    identities numerically.
    """

    chart: TaylorChart
    frame_fn: Callable

    @property
    def d(self) -> int:
        return self.chart.d

    @property
    def ambient(self) -> int:
        return self.chart.ambient

    @property
    def fiber_dim(self) -> int:
        return self.ambient - 1 - self.d

    @property
    def box(self) -> np.ndarray:
        return self.chart.box

    def frame(self, p) -> np.ndarray:
        """(..., k, m+1) frame at a (..., d) point stack."""
        out = _values(self.frame_fn, p)
        if out.shape[-2:] != (self.fiber_dim, self.ambient):
            raise DomainError(
                f"frame must have shape {(self.fiber_dim, self.ambient)}, got {out.shape[-2:]}"
            )
        return out

    def verify(self, pts, tol: float = 1e-8) -> float:
        """Check |g| = 1, frame orthonormality, and frame tangency/normality
        on a point stack; raises :class:`PreconditionError` past ``tol``,
        returns the worst deviation."""
        jet = self.chart.jet(pts)
        xi = self.frame(pts)
        worst = max(
            float(np.abs(np.einsum("...c,...c->...", jet.value, jet.value) - 1.0).max()),
            float(np.abs(xi @ np.swapaxes(xi, -1, -2) - np.eye(self.fiber_dim)).max()),
            float(np.abs(xi @ jet.value[..., None]).max()),
            float(np.abs(xi @ np.swapaxes(jet.d1, -1, -2)).max()),
        )
        if worst > tol:
            raise PreconditionError(
                f"sphere-surface data fails its defining identities "
                f"(worst deviation {worst:.3g} > {tol:g})"
            )
        return worst


@dataclass(frozen=True)
class SupportFunction:
    """Scalar gamma on the surface's coordinate domain: ``fn`` maps a
    (..., d) stack of Taylor variables to the (...) Taylor values, so every
    derivative of gamma is exact."""

    fn: Callable

    def value(self, p) -> np.ndarray:
        return _values(self.fn, p)


def linear_support(surface: SphereSurface, a) -> SupportFunction:
    """gamma = <a, g>: for 2-dimensional L in the round examples these are
    the eigenfunctions making the parametrized hypersurface minimal."""
    a = np.asarray(a, dtype=np.float64)
    if a.shape != (surface.ambient,):
        raise DomainError(f"coefficient vector must have {surface.ambient} entries")
    return SupportFunction(lambda x: dot(surface.chart.fn(x), a))


def constant_support(c: float) -> SupportFunction:
    return SupportFunction(lambda x: 0.0 * x[..., 0] + c)


def second_legendre_support() -> SupportFunction:
    """gamma(s, t) = Q_1(cos t) on the equatorial sphere (polar angle t).

    Q_1(x) = (x/2) log((1+x)/(1-x)) - 1 is the second solution of the
    degree-1 Legendre equation, so (Laplace + 2) gamma = 0 away from the
    poles.  Unlike the degree-1 harmonics <a, g> - whose parametrized
    hypersurface degenerates to a point plus fiber because gamma g +
    grad gamma is constant - this support keeps the parametrization
    regular on the equatorial band.
    """

    def fn(x):
        c = x[..., 1].cos()
        return 0.5 * c * ((1.0 + c) / (1.0 - c)).log() - 1.0

    return SupportFunction(fn)


# -- builtin sphere surfaces ---------------------------------------------------

def geodesic_sphere_surface() -> SphereSurface:
    """The equatorial 2-sphere of S^3 in R^4, framed by the constant e_4."""
    def g(x):
        s, t = x[..., 0], x[..., 1]
        return Taylor.stack([t.sin() * s.cos(), t.sin() * s.sin(), t.cos(), 0.0])

    def frame(x):
        zero = 0.0 * x[..., 0]
        return Taylor.stack([zero, zero, zero, zero + 1.0])[..., None, :]

    return SphereSurface(TaylorChart(2, 4, np.array([[0.3, 1.3], [0.8, 2.2]]), g), frame)


def clifford_torus_surface() -> SphereSurface:
    """The Clifford torus in S^3 in R^4, framed by its sphere normal."""
    s2 = np.sqrt(2.0)

    def g(x):
        u, v = x[..., 0], x[..., 1]
        return Taylor.stack([u.cos(), u.sin(), v.cos(), v.sin()]) / s2

    def frame(x):
        u, v = x[..., 0], x[..., 1]
        return (Taylor.stack([-u.cos(), -u.sin(), v.cos(), v.sin()]) / s2)[..., None, :]

    return SphereSurface(TaylorChart(2, 4, np.array([[0.2, 1.8], [0.4, 2.0]]), g), frame)


# -- the parametrization -------------------------------------------------------

def gauss_param(surface: SphereSurface, gamma: SupportFunction, check: bool = True) -> TaylorChart:
    """Build the parametrized hypersurface chart from (g, gamma).

    Coordinates are (x_1..x_d, w_1..w_k) with k the fiber dimension.  At
    jet order K, g and gamma are expanded one order deeper about x, so
    g_* and grad gamma = G^{-1} d gamma keep order K and the jets are exact.
    With ``check`` the surface identities are verified at the box center
    and the center point is probed for regularity.
    """
    d = surface.d
    k = surface.fiber_dim
    if k < 1:
        raise PreconditionError(
            "the surface has no sphere-normal directions: the parametrized "
            "hypersurface would have no fibers"
        )

    def psi(X):
        x, w = X[..., :d], X[..., d:]
        deeper = Taylor.variables(x.value, X.order + 1)
        g, gam = surface.chart.fn(deeper), gamma.fn(deeper)
        dg = Taylor.stack([g.diff(i) for i in range(d)], axis=-2)
        dgam = Taylor.stack([gam.diff(i) for i in range(d)])
        G = dot(dg[..., :, None, :], dg[..., None, :, :])
        base = gam[..., None] * g + (solve(G, dgam)[..., None] * dg).sum(-2)
        return base.compose(x) + (w[..., :, None] * surface.frame_fn(x)).sum(-2)

    box = np.vstack([surface.box, np.array([[-_W_HALFWIDTH, _W_HALFWIDTH]] * k)])
    chart = TaylorChart(d + k, surface.ambient, box, psi)
    if check:
        center = box.mean(axis=1)
        surface.verify(center[:d])
        point_frame(chart.jet(center))  # raises NonImmersionPointError if singular
    return chart


def gauss_map_identity_residual(chart: ImmersionChart, surface: SphereSurface, q) -> np.ndarray:
    """Component of the chart normal orthogonal to g: ||N - <N, g> g||, on
    a (..., d + k) point stack.

    Sign-blind, so it measures exactly the Gauss-map identity N = +-g.
    """
    q = np.asarray(q, dtype=np.float64)
    return _off_axis(point_frame(chart.jet(q)).normal, surface.chart.value(q[..., : surface.d]))


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


def minimality_criterion(surface: SphereSurface, gamma: SupportFunction, qpts) -> MinimalityPair:
    """Evaluate both sides of the minimality equivalence on a (..., d)
    point stack: the chart's :func:`~minkaehler.geometry.minimality_residual`
    |trace A| / ||A||_G at the lifted point (zero fiber coordinates), where
    ||A||_G is the largest |eigenvalue| of the G-self-adjoint A, and
    |(Laplace + d) gamma| on the quotient from gamma's exact 2-jet."""
    q = np.asarray(qpts, dtype=np.float64)
    chart = gauss_param(surface, gamma, check=False)
    trace_res = minimality_residual(point_frame(chart.jet(_lift(q, surface.fiber_dim))))
    gam = gamma.fn(Taylor.variables(q, 2))
    lap = laplace_beltrami(surface.chart.jet(q), gam.derivatives(1), gam.derivatives(2))
    return MinimalityPair(trace_res, np.abs(lap + surface.d * gam.value))


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
    n0 = generalized_cross(df.value)
    n0 /= np.maximum(np.linalg.norm(n0, axis=-1, keepdims=True), TINY)
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


def rebuild_surface(chart: ImmersionChart, quotient_dim: int = 2) -> SphereSurface:
    """Sphere-surface data from a chart whose trailing coordinates run along
    the nullity leaves: g = chart normal on the zero-fiber section, framed
    by the orthonormalized leaf directions, both exact from the chart's
    jets.  The frame identities are what :meth:`SphereSurface.verify`
    checks downstream."""
    if chart.d - quotient_dim < 1:
        raise PreconditionError("chart has no fiber coordinates to rebuild from")
    box = np.asarray(chart.box[:quotient_dim], dtype=np.float64)
    g = TaylorChart(quotient_dim, chart.ambient, box, lambda x: _section(chart, quotient_dim, x)[0])
    return SphereSurface(g, lambda x: _section(chart, quotient_dim, x)[2])


def rebuild_support(chart: ImmersionChart, quotient_dim: int = 2) -> SupportFunction:
    """gamma = <f, N> on the zero-fiber section, exact from the chart's jets."""
    return SupportFunction(lambda x: _section(chart, quotient_dim, x)[1])


@dataclass(frozen=True)
class ExtractionResult:
    """Quotient data extracted from a chart with relative nullity.

    ``clusters`` groups sample indices by leaf (constant normal);
    ``normals`` and ``supports`` are per-cluster representatives with their
    observed spreads.  ``surface`` and ``support`` are the section data
    over the quotient coordinates (the leading ``rank`` chart coordinates,
    at zero fiber coordinates), from :func:`rebuild_surface` and
    :func:`rebuild_support`.
    """

    rank: int
    nullity: int
    clusters: list
    normals: np.ndarray
    supports: np.ndarray
    normal_spread: float
    support_spread: float
    surface: SphereSurface
    support: SupportFunction
    indeterminate: bool


def extract_from_hypersurface(chart: ImmersionChart, samples, expected_rank: int = 2) -> ExtractionResult:
    """Recover Gauss-image and support data from chart samples.

    Frames are computed at every sample; the rank must equal
    ``expected_rank`` with positive nullity everywhere (otherwise
    :class:`PreconditionError`).  Samples are greedily clustered by normal
    direction: points on one nullity leaf share their normal to first
    order, so clusters are leaf fingerprints.  The support gamma = <f, N>
    is constant on each leaf and recorded per cluster.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    fr = point_frame(chart.jet(samples))
    rr = rank_and_nullity(fr)
    for i, p in enumerate(samples):
        if rr.rank[i] != expected_rank:
            raise PreconditionError(
                f"sample at {p} has shape-operator rank {rr.rank[i]}, "
                f"expected {expected_rank}"
            )
        if rr.nullity[i] == 0:
            raise PreconditionError(
                f"sample at {p} has no relative nullity: the chart admits "
                "no quotient construction"
            )
    normals = fr.normal
    supports = np.einsum("...c,...c->...", fr.jet.value, normals)
    labels = np.empty(len(samples), dtype=np.intp)
    reps = []
    for i, n in enumerate(normals):
        near = [ci for ci, rep in enumerate(reps) if np.linalg.norm(n - rep) < _CLUSTER_TOL]
        labels[i] = near[0] if near else len(reps)
        reps += [] if near else [n]
    clusters = [np.flatnonzero(labels == ci) for ci in range(len(reps))]
    cluster_normals = np.array([normals[idx].mean(axis=0) for idx in clusters])
    cluster_normals /= np.maximum(np.linalg.norm(cluster_normals, axis=1, keepdims=True), TINY)
    cluster_supports = np.array([supports[idx].mean() for idx in clusters])

    return ExtractionResult(
        rank=expected_rank,
        nullity=chart.d - expected_rank,
        clusters=clusters,
        normals=cluster_normals,
        supports=cluster_supports,
        normal_spread=float(np.linalg.norm(normals - cluster_normals[labels], axis=1).max()),
        support_spread=float(np.abs(supports - cluster_supports[labels]).max()),
        surface=rebuild_surface(chart, expected_rank),
        support=rebuild_support(chart, expected_rank),
        indeterminate=bool(rr.indeterminate.any()),
    )


@dataclass(frozen=True)
class RoundTripResult:
    """Per-point round-trip mismatches over the quotient point stack."""

    plane_distance: np.ndarray
    support_mismatch: np.ndarray
    gauss_mismatch: np.ndarray


def gauss_round_trip(chart: ImmersionChart, qpts, quotient_dim: int = 2) -> RoundTripResult:
    """Rebuild (g, gamma) from the chart and parametrize back.

    Each rebuilt point Psi(q, 0) must land on the original leaf: the
    affine leaf plane through the zero-fiber point spanned by the leaf
    directions.  Reported per point are the point-to-plane distance, the
    support mismatch <Psi, N> - gamma against the original chart's normal,
    and the (sign-blind) mismatch between the rebuilt chart's own normal
    and g.
    """
    surface = rebuild_surface(chart, quotient_dim)
    gamma = rebuild_support(chart, quotient_dim)
    psi = gauss_param(surface, gamma, check=False)
    q = np.asarray(qpts, dtype=np.float64)
    lifted = _lift(q, chart.d - quotient_dim)
    rebuilt = point_frame(psi.jet(lifted))
    base = point_frame(chart.jet(lifted))
    L = surface.frame(q)  # (..., k, m+1), orthonormal rows
    r = rebuilt.jet.value - base.jet.value
    off_plane = r - np.einsum("...a,...ac->...c", np.einsum("...ac,...c->...a", L, r), L)
    support = np.einsum("...c,...c->...", rebuilt.jet.value, base.normal) - gamma.value(q)
    return RoundTripResult(
        plane_distance=np.linalg.norm(off_plane, axis=-1),
        support_mismatch=np.abs(support),
        gauss_mismatch=_off_axis(rebuilt.normal, surface.chart.value(q)),
    )
