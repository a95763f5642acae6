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
closed sections at zero fiber coordinates rebuild the sphere data, and the
round trip lands each rebuilt point back on the original leaf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .charts import (
    EPS,
    FD_STEP_D1,
    FD_STEP_D2,
    CallableChart,
    FDJetChart,
    ImmersionChart,
    Jet2,
)
from .errors import DomainError, PreconditionError
from .geometry import (
    TINY,
    laplace_beltrami,
    point_frame,
    rank_and_nullity,
)

# Step for differencing the round trip's rebuilt, FD-noisy value map:
# eps^(1/5) balances noise/h against the h^2 truncation term.
FD_STEP_NOISY = EPS ** 0.2


# -- sphere surfaces -----------------------------------------------------------

@dataclass
class SphereSurface:
    """A surface inside the unit sphere, with a frame of its sphere-normal
    space.  ``chart`` maps L-coordinates to the ambient Euclidean space (its
    image must lie on the unit sphere); ``frame_fn`` returns the (k, m+1)
    matrix of fields spanning the orthogonal complement of the surface
    tangent inside the sphere tangent.  Frames are *verified*, never
    constructed: :meth:`verify` checks all defining identities numerically.
    """

    chart: ImmersionChart
    frame_fn: Callable
    frame_d1_fn: Callable | None = None

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

    def g_jet(self, p) -> Jet2:
        return self.chart.jet(p)

    def frame(self, p) -> np.ndarray:
        out = np.asarray(self.frame_fn(np.asarray(p, dtype=np.float64)), dtype=np.float64)
        if out.shape != (self.fiber_dim, self.ambient):
            raise DomainError(
                f"frame must have shape {(self.fiber_dim, self.ambient)}, got {out.shape}"
            )
        return out

    def frame_d1(self, p) -> np.ndarray:
        """(k, d, m+1) first partials of the frame fields (FD fallback)."""
        p = np.asarray(p, dtype=np.float64)
        if self.frame_d1_fn is not None:
            return np.asarray(self.frame_d1_fn(p), dtype=np.float64)
        hs = FD_STEP_D1 * np.maximum(1.0, np.abs(p))
        out = np.empty((self.fiber_dim, self.d, self.ambient))
        for i in range(self.d):
            e = np.zeros(self.d)
            e[i] = hs[i]
            out[:, i, :] = (self.frame(p + e) - self.frame(p - e)) / (2 * hs[i])
        return out

    def verify(self, pts, tol: float = 1e-8) -> float:
        """Check |g| = 1, frame orthonormality, and frame tangency/normality;
        raises :class:`PreconditionError` past ``tol``, returns the worst
        deviation."""
        worst = 0.0
        for p in np.atleast_2d(np.asarray(pts, dtype=np.float64)):
            jet = self.g_jet(p)
            worst = max(worst, abs(float(jet.value @ jet.value) - 1.0))
            xi = self.frame(p)
            gram = xi @ xi.T
            worst = max(worst, float(np.abs(gram - np.eye(self.fiber_dim)).max()))
            worst = max(worst, float(np.abs(xi @ jet.value).max()))
            worst = max(worst, float(np.abs(xi @ jet.d1.T).max()))
        if worst > tol:
            raise PreconditionError(
                f"sphere-surface data fails its defining identities "
                f"(worst deviation {worst:.3g} > {tol:g})"
            )
        return worst


@dataclass
class SupportFunction:
    """Scalar gamma on the surface's coordinate domain, with a gradient
    closure (finite differences when no analytic one is supplied)."""

    fn: Callable
    grad_fn: Callable | None = None

    def value(self, p) -> float:
        return float(self.fn(np.asarray(p, dtype=np.float64)))

    def gradient(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=np.float64)
        if self.grad_fn is not None:
            return np.asarray(self.grad_fn(p), dtype=np.float64)
        hs = FD_STEP_D1 * np.maximum(1.0, np.abs(p))
        out = np.empty(p.size)
        for i in range(p.size):
            e = np.zeros(p.size)
            e[i] = hs[i]
            out[i] = (self.fn(p + e) - self.fn(p - e)) / (2 * hs[i])
        return out


def linear_support(surface: SphereSurface, a) -> SupportFunction:
    """gamma = <a, g>: for 2-dimensional L in the round examples these are
    the eigenfunctions making the parametrized hypersurface minimal."""
    a = np.asarray(a, dtype=np.float64)
    if a.shape != (surface.ambient,):
        raise DomainError(f"coefficient vector must have {surface.ambient} entries")

    def fn(p):
        return float(surface.g_jet(p).value @ a)

    def grad(p):
        return surface.g_jet(p).d1 @ a

    return SupportFunction(fn=fn, grad_fn=grad)


def constant_support(c: float) -> SupportFunction:
    return SupportFunction(fn=lambda p: float(c), grad_fn=lambda p: np.zeros(p.size))


def second_legendre_support() -> SupportFunction:
    """gamma(s, t) = Q_1(cos t) on the equatorial sphere (polar angle t).

    Q_1(x) = (x/2) log((1+x)/(1-x)) - 1 is the second solution of the
    degree-1 Legendre equation, so (Laplace + 2) gamma = 0 away from the
    poles.  Unlike the degree-1 harmonics <a, g> - whose parametrized
    hypersurface degenerates to a point plus fiber because gamma g +
    grad gamma is constant - this support keeps the parametrization
    regular on the equatorial band.
    """

    def fn(p):
        x = math.cos(p[1])
        return 0.5 * x * math.log((1.0 + x) / (1.0 - x)) - 1.0

    def grad(p):
        t = p[1]
        x = math.cos(t)
        dq = 0.5 * math.log((1.0 + x) / (1.0 - x)) + x / (1.0 - x * x)
        return np.array([0.0, -math.sin(t) * dq])

    return SupportFunction(fn=fn, grad_fn=grad)


# -- builtin sphere surfaces ---------------------------------------------------

def geodesic_sphere_surface(box=None) -> SphereSurface:
    """The equatorial 2-sphere of S^3 in R^4, framed by the constant e_4."""
    from .charts import CallableChart

    if box is None:
        box = np.array([[0.3, 1.3], [0.8, 2.2]])

    def val(p):
        s, t = p
        return np.array([np.sin(t) * np.cos(s), np.sin(t) * np.sin(s), np.cos(t), 0.0])

    def d1(p):
        s, t = p
        return np.array(
            [
                [-np.sin(t) * np.sin(s), np.sin(t) * np.cos(s), 0.0, 0.0],
                [np.cos(t) * np.cos(s), np.cos(t) * np.sin(s), -np.sin(t), 0.0],
            ]
        )

    def d2(p):
        s, t = p
        fss = np.array([-np.sin(t) * np.cos(s), -np.sin(t) * np.sin(s), 0.0, 0.0])
        fst = np.array([-np.cos(t) * np.sin(s), np.cos(t) * np.cos(s), 0.0, 0.0])
        ftt = -val(p)
        ftt[3] = 0.0
        return np.array([[fss, fst], [fst, ftt]])

    chart = CallableChart(
        d=2, ambient=4, box=np.asarray(box, float), value_fn=val, d1_fn=d1, d2_fn=d2
    )
    frame = lambda p: np.array([[0.0, 0.0, 0.0, 1.0]])
    frame_d1 = lambda p: np.zeros((1, 2, 4))
    return SphereSurface(chart=chart, frame_fn=frame, frame_d1_fn=frame_d1)


def clifford_torus_surface(box=None) -> SphereSurface:
    """The Clifford torus in S^3 in R^4, framed by its sphere normal."""
    from .charts import CallableChart

    if box is None:
        box = np.array([[0.2, 1.8], [0.4, 2.0]])
    s2 = math.sqrt(2.0)

    def val(p):
        u, v = p
        return np.array([np.cos(u), np.sin(u), np.cos(v), np.sin(v)]) / s2

    def d1(p):
        u, v = p
        return np.array(
            [
                [-np.sin(u), np.cos(u), 0.0, 0.0],
                [0.0, 0.0, -np.sin(v), np.cos(v)],
            ]
        ) / s2

    def d2(p):
        u, v = p
        duu = np.array([-np.cos(u), -np.sin(u), 0.0, 0.0]) / s2
        dvv = np.array([0.0, 0.0, -np.cos(v), -np.sin(v)]) / s2
        zero = np.zeros(4)
        return np.array([[duu, zero], [zero, dvv]])

    def frame(p):
        u, v = p
        return np.array([[-np.cos(u), -np.sin(u), np.cos(v), np.sin(v)]]) / s2

    def frame_d1(p):
        u, v = p
        return np.array(
            [[[np.sin(u), -np.cos(u), 0.0, 0.0], [0.0, 0.0, -np.sin(v), np.cos(v)]]]
        ) / s2

    chart = CallableChart(
        d=2, ambient=4, box=np.asarray(box, float), value_fn=val, d1_fn=d1, d2_fn=d2
    )
    return SphereSurface(chart=chart, frame_fn=frame, frame_d1_fn=frame_d1)


# -- the parametrization -------------------------------------------------------

def gauss_param(
    surface: SphereSurface,
    gamma: SupportFunction,
    w_halfwidth: float = 0.4,
    check: bool = True,
    h1: float | None = None,
    h2: float | None = None,
) -> FDJetChart:
    """Build the parametrized hypersurface chart from (g, gamma).

    Coordinates are (x_1..x_d, w_1..w_k) with k the fiber dimension; jets
    come from central differences of the closed value map, with steps
    ``h1``/``h2`` (defaults suit value maps accurate to roundoff; widen
    them when the surface or support data carries noise of its own).  With
    ``check`` the surface identities are verified at the box center and
    the center point is probed for regularity.
    """
    d = surface.d
    k = surface.fiber_dim
    if k < 1:
        raise PreconditionError(
            "the surface has no sphere-normal directions: the parametrized "
            "hypersurface would have no fibers"
        )

    def psi(q):
        q = np.asarray(q, dtype=np.float64)
        x, w = q[:d], q[d:]
        jet = surface.g_jet(x)
        G = jet.d1 @ jet.d1.T
        grad = np.linalg.solve(G, gamma.gradient(x))
        out = gamma.value(x) * jet.value + jet.d1.T @ grad
        if k:
            out = out + surface.frame(x).T @ w
        return out

    box = np.vstack([surface.box, np.array([[-w_halfwidth, w_halfwidth]] * k)])
    chart = FDJetChart(
        d=d + k,
        ambient=surface.ambient,
        box=box,
        value_fn=psi,
        h1=FD_STEP_D1 if h1 is None else h1,
        h2=FD_STEP_D2 if h2 is None else h2,
    )
    if check:
        center = box.mean(axis=1)
        surface.verify([center[:d]])
        point_frame(chart.jet(center))  # raises NonImmersionPointError if singular
    return chart


def gauss_map_identity_residual(chart: ImmersionChart, surface: SphereSurface, q) -> float:
    """Component of the chart normal orthogonal to g: ||N - <N, g> g||.

    Sign-blind, so it measures exactly the Gauss-map identity N = +-g.
    """
    q = np.asarray(q, dtype=np.float64)
    N = point_frame(chart.jet(q)).normal
    g = surface.g_jet(q[: surface.d]).value
    return float(np.linalg.norm(N - (N @ g) * g))


@dataclass(frozen=True)
class MinimalityPair:
    """Pointwise data for the minimality criterion: the relative trace of
    the shape operator of the parametrized chart against the eigenvalue
    equation (Laplace + d) gamma on the quotient surface."""

    trace_residual: float
    eigen_residual: float


def minimality_criterion(
    surface: SphereSurface,
    gamma: SupportFunction,
    qpts,
    chart: FDJetChart | None = None,
    h: float | None = None,
) -> list:
    """Evaluate both sides of the minimality equivalence at sample points.

    Returns one :class:`MinimalityPair` per point: the chart's |trace A|
    normalized by its largest |eigenvalue| at the lifted point (zero fiber
    coordinates), and |(Laplace + d) gamma| on the quotient.  ``h``
    widens every differencing step involved (the parametrized chart's jets
    and the scalar Laplacian); use it when (g, gamma) come from a
    reconstruction rather than from closed-form data, so both residuals
    stay below a stated multiple of h^2.
    """
    if chart is None:
        chart = gauss_param(surface, gamma, check=False, h1=h, h2=h)
    k = surface.fiber_dim
    out = []
    for q in np.atleast_2d(np.asarray(qpts, dtype=np.float64)):
        lifted = np.concatenate([q, np.zeros(k)])
        frame = point_frame(chart.jet(lifted))
        scale = max(float(np.abs(frame.eigenvalues).max()), 1e-14)
        trace_res = abs(float(np.trace(frame.shape_operator))) / scale
        lap = laplace_beltrami(surface.chart, gamma.fn, q, h=h)
        eigen_res = abs(lap + surface.d * gamma.value(q))
        out.append(MinimalityPair(trace_residual=trace_res, eigen_residual=eigen_res))
    return out


# -- extraction from a hypersurface chart ---------------------------------------

@dataclass(frozen=True)
class ExtractionResult:
    """Quotient data extracted from a chart with relative nullity.

    ``clusters`` groups sample indices by leaf (constant normal);
    ``normals`` and ``supports`` are per-cluster representatives with their
    observed spreads.  ``gauss_section`` / ``support_section`` are closures
    over the quotient coordinates (the leading ``rank`` chart coordinates,
    evaluated at zero fiber coordinates); ``support_gradient`` is the
    quotient gradient of the support, computed from dN = -f_* A rather
    than by differencing, so it is as accurate as the chart's own jets.
    """

    rank: int
    nullity: int
    clusters: list
    normals: np.ndarray
    supports: np.ndarray
    normal_spread: float
    support_spread: float
    gauss_section: Callable
    support_section: Callable
    support_gradient: Callable
    indeterminate: bool


def extract_from_hypersurface(
    chart: ImmersionChart,
    samples,
    expected_rank: int = 2,
    cluster_tol: float = 1e-6,
    rank_rtol: float = 1e-7,
) -> ExtractionResult:
    """Recover Gauss-image and support data from chart samples.

    Frames are computed at every sample; the rank must equal
    ``expected_rank`` with positive nullity everywhere (otherwise
    :class:`PreconditionError`).  Samples are greedily clustered by normal
    direction: points on one nullity leaf share their normal to first
    order, so clusters are leaf fingerprints.  The support gamma = <f, N>
    is constant on each leaf and recorded per cluster.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    normals = np.empty((samples.shape[0], chart.ambient))
    supports = np.empty(samples.shape[0])
    indeterminate = False
    for i, p in enumerate(samples):
        fr = point_frame(chart.jet(p))
        rr = rank_and_nullity(fr, rel_tol=rank_rtol)
        indeterminate = indeterminate or rr.indeterminate
        if rr.rank != expected_rank:
            raise PreconditionError(
                f"sample at {p} has shape-operator rank {rr.rank}, "
                f"expected {expected_rank}"
            )
        if rr.nullity == 0:
            raise PreconditionError(
                f"sample at {p} has no relative nullity: the chart admits "
                "no quotient construction"
            )
        normals[i] = fr.normal
        supports[i] = float(fr.jet.value @ fr.normal)
    clusters = []
    reps = []
    for i in range(samples.shape[0]):
        for ci, rep in enumerate(reps):
            if np.linalg.norm(normals[i] - rep) < cluster_tol:
                clusters[ci].append(i)
                break
        else:
            reps.append(normals[i])
            clusters.append([i])
    normal_spread = 0.0
    support_spread = 0.0
    cluster_normals = np.empty((len(clusters), chart.ambient))
    cluster_supports = np.empty(len(clusters))
    for ci, idx in enumerate(clusters):
        group_n = normals[idx]
        group_s = supports[idx]
        cluster_normals[ci] = group_n.mean(axis=0)
        cluster_normals[ci] /= max(np.linalg.norm(cluster_normals[ci]), TINY)
        cluster_supports[ci] = group_s.mean()
        normal_spread = max(
            normal_spread,
            float(np.linalg.norm(group_n - cluster_normals[ci], axis=1).max()),
        )
        support_spread = max(
            support_spread, float(np.abs(group_s - cluster_supports[ci]).max())
        )

    fiber_dim = chart.d - expected_rank

    def lift(q):
        q = np.asarray(q, dtype=np.float64)
        return np.concatenate([q, np.zeros(fiber_dim)])

    def gauss_section(q):
        return point_frame(chart.jet(lift(q))).normal

    def support_section(q):
        fr = point_frame(chart.jet(lift(q)))
        return float(fr.jet.value @ fr.normal)

    def support_gradient(q):
        # d_i <f, N> = <f, dN_i> since <f_i, N> = 0, and dN_i = -f_*(A e_i)
        fr = point_frame(chart.jet(lift(q)))
        v = fr.jet.d1 @ fr.jet.value
        return -(fr.shape_operator[:, :expected_rank].T @ v)

    return ExtractionResult(
        rank=expected_rank,
        nullity=fiber_dim,
        clusters=[np.asarray(c) for c in clusters],
        normals=cluster_normals,
        supports=cluster_supports,
        normal_spread=normal_spread,
        support_spread=support_spread,
        gauss_section=gauss_section,
        support_section=support_section,
        support_gradient=support_gradient,
        indeterminate=indeterminate,
    )


def leaf_directions(chart: ImmersionChart, q, quotient_dim: int = 2) -> np.ndarray:
    """Orthonormal basis (m+1, k) of the leaf through the zero-fiber point:
    the spans of the fiber-coordinate partials, orthonormalized."""
    fiber_dim = chart.d - quotient_dim
    lifted = np.concatenate([np.asarray(q, dtype=np.float64), np.zeros(fiber_dim)])
    d1 = chart.jet(lifted).d1
    basis = d1[quotient_dim:].T  # (m+1, k)
    Q, _ = np.linalg.qr(basis)
    return Q


def rebuild_surface(chart: ImmersionChart, quotient_dim: int = 2, box=None) -> SphereSurface:
    """Sphere-surface data from a chart whose trailing coordinates run along
    the nullity leaves: g = chart normal on the zero-fiber section, framed
    by the orthonormalized leaf directions.

    The section's first derivatives come from dN = -f_* A, so g carries
    the accuracy of the chart's own jets instead of stacking differencing
    noise on top of them; only the (rarely consumed) second derivatives
    difference those closed rows.  The frame identities are what
    :meth:`SphereSurface.verify` checks downstream."""
    fiber_dim = chart.d - quotient_dim
    if fiber_dim < 1:
        raise PreconditionError("chart has no fiber coordinates to rebuild from")
    if box is None:
        box = np.asarray(chart.box[:quotient_dim], dtype=np.float64)

    def lift(q):
        return np.concatenate([np.asarray(q, dtype=np.float64), np.zeros(fiber_dim)])

    def gval(q):
        return point_frame(chart.jet(lift(q))).normal

    def gd1(q):
        fr = point_frame(chart.jet(lift(q)))
        return -(fr.shape_operator[:, :quotient_dim].T @ fr.jet.d1)

    def gd2(q):
        q = np.asarray(q, dtype=np.float64)
        hs = FD_STEP_D2 * np.maximum(1.0, np.abs(q))
        out = np.empty((quotient_dim, quotient_dim, chart.ambient))
        for i in range(quotient_dim):
            e = np.zeros(quotient_dim)
            e[i] = hs[i]
            out[i] = (gd1(q + e) - gd1(q - e)) / (2 * hs[i])
        return 0.5 * (out + out.transpose(1, 0, 2))

    inner = CallableChart(
        d=quotient_dim,
        ambient=chart.ambient,
        box=box,
        value_fn=gval,
        d1_fn=gd1,
        d2_fn=gd2,
    )

    def frame(q):
        return leaf_directions(chart, q, quotient_dim).T

    return SphereSurface(chart=inner, frame_fn=frame)


@dataclass(frozen=True)
class RoundTripResult:
    plane_distance: float
    support_mismatch: float
    gauss_mismatch: float


def gauss_round_trip(chart: ImmersionChart, qpts, quotient_dim: int = 2) -> RoundTripResult:
    """Rebuild (g, gamma) from the chart and parametrize back.

    Each rebuilt point Psi(q, 0) must land on the original leaf: the
    affine leaf plane through the zero-fiber point spanned by the leaf
    directions.  Reported are the worst point-to-plane distance, the worst
    support mismatch <Psi, N> - gamma against the original chart's normal,
    and the worst (sign-blind) mismatch between the rebuilt chart's own
    normal and g.  The last uses wider differencing steps because the
    rebuilt value map carries finite-difference noise of its own.
    """
    surface = rebuild_surface(chart, quotient_dim)
    fiber_dim = chart.d - quotient_dim

    def lift(q):
        return np.concatenate([np.asarray(q, dtype=np.float64), np.zeros(fiber_dim)])

    def gamma_fn(q):
        fr = point_frame(chart.jet(lift(q)))
        return float(fr.jet.value @ fr.normal)

    def gamma_grad(q):
        fr = point_frame(chart.jet(lift(q)))
        v = fr.jet.d1 @ fr.jet.value
        return -(fr.shape_operator[:, :quotient_dim].T @ v)

    gamma = SupportFunction(fn=gamma_fn, grad_fn=gamma_grad)
    psi = gauss_param(surface, gamma, check=False)

    def wide_normal(p):
        # first differences with the noise-adapted step, then the cross
        from .geometry import generalized_cross

        hs = FD_STEP_NOISY * np.maximum(1.0, np.abs(p))
        d1 = np.empty((psi.d, psi.ambient))
        for i in range(psi.d):
            e = np.zeros(psi.d)
            e[i] = hs[i]
            d1[i] = (psi.value(p + e) - psi.value(p - e)) / (2 * hs[i])
        raw = generalized_cross(d1)
        return raw / max(np.linalg.norm(raw), TINY)

    worst_plane = 0.0
    worst_support = 0.0
    worst_gauss = 0.0
    for q in np.atleast_2d(np.asarray(qpts, dtype=np.float64)):
        lifted = lift(q)
        rebuilt = psi.value(lifted)
        base_frame = point_frame(chart.jet(lifted))
        L = leaf_directions(chart, q, quotient_dim)
        r = rebuilt - base_frame.jet.value
        worst_plane = max(worst_plane, float(np.linalg.norm(r - L @ (L.T @ r))))
        worst_support = max(
            worst_support, abs(float(rebuilt @ base_frame.normal) - gamma_fn(q))
        )
        N = wide_normal(lifted)
        g = surface.g_jet(q).value
        worst_gauss = max(worst_gauss, float(np.linalg.norm(N - (N @ g) * g)))
    return RoundTripResult(
        plane_distance=worst_plane,
        support_mismatch=worst_support,
        gauss_mismatch=worst_gauss,
    )
