"""Infinitesimal bendings of hypersurface charts and their invariants.

A variation field T along a chart f is an *infinitesimal bending* when the
symmetrized condition <dT(X), f_*Y> + <dT(Y), f_*X> = 0 holds; then the
metric of f + tT agrees with the metric of f through first order (in fact
g_t = g_0 + t^2 <T_i, T_j> exactly, since the deformation is affine in t).
The associated tensor

    B(X, Y) = <(grad dT)(X, Y), N>   (Hessian corrected by Christoffels)

plays the role of the variation of the second fundamental form; trivial
bendings T = D f + w with D skew have B = 0 identically, and for
Gauss-map-preserving bendings B equals A composed with the tangential part
T_* of dT.  Three independent routes to B are implemented (the exact first
variation of the shape operator along f + tT, the covariant-Hessian
formula, and the composition A T_*) so they can cross-check each other.

A variation field is itself an :class:`~minkaehler.charts.ImmersionChart`
over the same coordinates: ``jet_batch(pts, order)`` returns the value and
partials of T on a point stack.  A chart is its own position field, the
conjugate field is the mate chart of the associated family, and f + tT is
a :class:`CombinationField`.

Every residual and every route to B below takes one :class:`Variation`,
the chart's :class:`~minkaehler.geometry.PointFrame` on a point stack of
shape (..., d) and the field's :class:`~minkaehler.charts.Jet2` on the
same stack (3-jets, for the derivative of B), and returns one value per
point.  A Variation keeps tau, dN, T_* and B once computed, so each is
computed once per field; the three routes to B share only those inputs.
Every route reads G^{-1}, L and L^{-1} (in ||.||_G) and d_l G from the
frame, which computes each once, so nothing here solves against G.
Since f + tT is affine in t, its first variations are closed form in the
two jets, and no deformed frame is built.  Only :func:`classify_triviality`
and :func:`recover_bending_decomposition` take charts and points, and
build their one frame themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .charts import ImmersionChart, Jet2, TaylorChart
from .errors import DomainError, PreconditionError
from .geometry import (
    TINY,
    PointFrame,
    _t,
    covariant_field_derivative,
    gnorm_columns,
    gnorm_op,
    point_frame,
)
from .taylor import Taylor
from .weierstrass import SeriesChart, associated, chart_complex_structure


# -- variation fields ---------------------------------------------------------

@dataclass
class TrivialField(ImmersionChart):
    """T = D f + w for a skew ambient matrix D and a constant vector w."""

    chart: ImmersionChart
    skew: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        self.d = self.chart.d
        self.ambient = self.chart.ambient
        self.box = self.chart.box
        self.skew = np.asarray(self.skew, dtype=np.float64)
        self.offset = np.asarray(self.offset, dtype=np.float64)
        if self.skew.shape != (self.ambient, self.ambient):
            raise DomainError(f"skew matrix must be {self.ambient}x{self.ambient}")
        if np.abs(self.skew + self.skew.T).max() > 1e-12 * max(1.0, np.abs(self.skew).max()):
            raise DomainError("trivial fields need an antisymmetric matrix")
        if self.offset.shape != (self.ambient,):
            raise DomainError(f"offset must have {self.ambient} components")

    def jet_batch(self, pts, order: int = 2) -> tuple:
        return self._apply(*self.chart.jet_batch(pts, order))

    def jet_from(self, jet: Jet2) -> Jet2:
        """T's 2-jet from the chart's jet on the same points."""
        return Jet2(jet.coords, *self._apply(jet.value, jet.d1, jet.d2))

    def _apply(self, value, *partials) -> tuple:
        return (value @ self.skew.T + self.offset, *(a @ self.skew.T for a in partials))


@dataclass
class CombinationField(ImmersionChart):
    """Linear combination sum_k coeffs[k] * fields[k] over the box of the
    first member; f + tT is ``CombinationField((f, T), (1.0, t))``, exact
    in t since the deformation is affine."""

    fields: tuple
    coeffs: tuple

    def __post_init__(self):
        if len(self.fields) != len(self.coeffs) or not self.fields:
            raise DomainError("need one coefficient per field")
        first = self.fields[0]
        self.d, self.ambient, self.box = first.d, first.ambient, first.box
        for f in self.fields:
            if (f.d, f.ambient) != (self.d, self.ambient):
                raise DomainError("combined fields must share dimensions")

    def jet_batch(self, pts, order: int = 2) -> tuple:
        jets = [f.jet_batch(pts, order) for f in self.fields]
        return tuple(sum(c * j[k] for c, j in zip(self.coeffs, jets)) for k in range(order + 1))


def conjugate_field(chart: SeriesChart) -> ImmersionChart:
    """The conjugate of a family member, as a bending field along it.

    For the member at phase theta this is the member at theta + pi/2; when
    that leaves [0, pi) the representative at theta - pi/2 is used with a
    sign flip (the two differ by a global sign).
    """
    theta = chart.theta + math.pi / 2
    if theta < math.pi:
        return associated(chart.seed, theta, chart.chain)
    mate = associated(chart.seed, theta - math.pi, chart.chain)
    return CombinationField((mate,), (-1.0,))


def make_trivial(chart: ImmersionChart, rng) -> TrivialField:
    """A random trivial field D f + w with unit-size D and w drawn from
    ``rng``; :class:`TrivialField` takes given ones."""
    m1 = chart.ambient
    raw = rng.standard_normal((m1, m1))
    skew = raw - raw.T
    skew *= 1.0 / max(np.linalg.norm(skew), TINY)
    offset = rng.standard_normal(m1)
    offset *= 1.0 / max(np.linalg.norm(offset), TINY)
    return TrivialField(chart, skew, offset)


def make_cylinder_bending(cylinder, a: float, b: float) -> TaylorChart:
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


# -- bending / preservation residuals -----------------------------------------

@dataclass(frozen=True)
class Variation:
    """A variation field T along the chart on one point stack: the chart's
    frame and T's jet there, with the pieces the bending checks read kept."""

    frame: PointFrame
    jet: Jet2

    def __post_init__(self):
        if not np.array_equal(self.jet.coords, self.frame.jet.coords):
            raise DomainError("a variation needs the field's jet on the points of the chart's frame")

    @cached_property
    def tau(self) -> np.ndarray:
        """tau_k = <T_k, N>, the normal part of dT."""
        return (self.jet.d1 @ self.frame.normal[..., None])[..., 0]

    @cached_property
    def normal_variation(self) -> np.ndarray:
        """dN = -f_*(sigma), sigma = G^{-1} tau: the exact t-derivative at
        t = 0 of the unit normal of f + tT.  Differentiating
        <N, f_k + t T_k> = 0 fixes its tangential part, and |N| = 1 leaves
        no normal part."""
        sigma = (self.frame.metric_inv @ self.tau[..., None])[..., 0]
        return -(sigma[..., None, :] @ self.frame.jet.d1)[..., 0, :]

    @cached_property
    def tstar(self) -> np.ndarray:
        """T_* as a matrix: column j solves G c = <f_i, T_j> (the tangential
        part of dT(e_j) in the coordinate basis)."""
        rhs = self.frame.jet.d1 @ _t(self.jet.d1)  # [..., i, j] = <f_i, T_j>
        return self.frame.metric_inv @ rhs

    @cached_property
    def B(self) -> np.ndarray:
        """B by the covariant-Hessian formula, :func:`B_by_formula`."""
        return B_by_formula(self)


def bending_residual(v: Variation) -> np.ndarray:
    """max_ij |<T_i, f_j> + <T_j, f_i>| over the normalizing scale.

    Zero exactly when T is an infinitesimal bending at the point.
    """
    f1 = v.frame.jet.d1
    t1 = v.jet.d1
    sym = t1 @ _t(f1)
    sym = sym + _t(sym)
    scale = np.linalg.norm(f1, axis=(-2, -1)) * np.linalg.norm(t1, axis=(-2, -1))
    return np.abs(sym).max(axis=(-2, -1)) / np.maximum(scale, TINY)


def gauss_tangency_residual(v: Variation) -> np.ndarray:
    """max_j |<N, T_j>| / |T_j|: zero iff dT is everywhere tangent at the
    point, the first-order criterion for the variation to preserve the normal."""
    nrm = np.linalg.norm(v.jet.d1, axis=-1)
    return np.where(nrm > 1e-14, np.abs(v.tau) / np.maximum(nrm, TINY), 0.0).max(axis=-1)


def normal_variation_residual(v: Variation) -> np.ndarray:
    """|dN|: the t-derivative of the unit normal along f + tT, which
    vanishes for Gauss-map-preserving variations."""
    return np.linalg.norm(v.normal_variation, axis=-1)


# -- the B tensor --------------------------------------------------------------
#
# Every route returns B as an operator on a point stack, (..., d, d), with
# columns the images of the basis vectors; its lowered form is (G B)^T.

def B_by_variation(v: Variation) -> np.ndarray:
    """B as dA, the exact t-derivative at t = 0 of the shape operator of
    f + tT.  With dN from :attr:`Variation.normal_variation`,

        dG_ij = <f_i, T_j> + <T_i, f_j>,   dH_ij = <T_ij, N> + <f_ij, dN>,

    and A = G^{-1} H gives dA = G^{-1} (dH - dG A).  It differentiates the
    frame construction, not the covariant Hessian or A T_*."""
    frame, dN = v.frame, v.normal_variation
    dG = frame.jet.d1 @ _t(v.jet.d1)
    dG = dG + _t(dG)
    dH = (v.jet.d2 @ frame.normal[..., None, :, None] + frame.jet.d2 @ dN[..., None, :, None])[..., 0]
    return frame.metric_inv @ (dH - dG @ frame.shape_operator)


def _b_form(v: Variation) -> np.ndarray:
    """B_ij = <T_ij - Gamma^k_ij T_k, N> from the frame's jet and T's."""
    corrected = v.jet.d2 - np.einsum("...kij,...kc->...ijc", v.frame.christoffel, v.jet.d1)
    return (corrected @ v.frame.normal[..., None, :, None])[..., 0]


def B_by_formula(v: Variation) -> np.ndarray:
    """B_ij = <T_ij - Gamma^k_ij T_k, N>: the covariant Hessian of T paired
    with the normal, raised to an operator.  Exact from the 2-jets of f and
    T, and identically zero on trivial fields; :attr:`Variation.B` keeps it."""
    return v.frame.metric_inv @ _t(_b_form(v))


def B_by_BAT(v: Variation) -> np.ndarray:
    """B as the composition A T_* (valid for Gauss-map-preserving fields)."""
    return v.frame.shape_operator @ v.tstar


def b_route_agreement(v: Variation) -> np.ndarray:
    """Largest pairwise deviation of the three B routes, G-relative."""
    frame = v.frame
    ops = np.stack([B_by_variation(v), v.B, B_by_BAT(v)])
    # routes (0, 1), (0, 2), (1, 2) pairwise; gnorm_op broadcasts over the route axis
    scale = np.maximum(gnorm_op(frame, ops).max(axis=0), 1.0)
    worst = gnorm_op(frame, ops[[0, 0, 1]] - ops[[1, 2, 2]]).max(axis=0)
    return worst / scale


def bat_residual(v: Variation) -> np.ndarray:
    """||B - A T_*||_G / ||A T_*||_G with B from the Hessian formula."""
    at = B_by_BAT(v)
    den = gnorm_op(v.frame, at)
    return gnorm_op(v.frame, v.B - at) / np.maximum(den, 1e-14)


def tangential_covariant_derivative(v: Variation) -> np.ndarray:
    """nabla T_* from the 2-jets of f and T; returns [..., i, k, j] like
    :func:`~minkaehler.geometry.covariant_field_derivative`.

    With P_ij = <f_i, T_j> and T_* = G^{-1} P, the coordinate derivative is
    d_i T_* = G^{-1} (d_i P - d_i G T_*), and the connection adds the
    commutator [Gamma_i, T_*] with (Gamma_i)^k_l = Gamma^k_il.
    """
    frame, jb, tstar = v.frame, v.frame.jet, v.tstar
    # d_i P_kj = <f_ik, T_j> + <f_k, T_ij>
    dP = jb.d2 @ _t(v.jet.d1)[..., None, :, :] + np.einsum(
        "...kc,...ijc->...ikj", jb.d1, v.jet.d2
    )
    dT = frame.metric_inv[..., None, :, :] @ (dP - frame.metric_derivative @ tstar[..., None, :, :])
    return covariant_field_derivative(frame.christoffel, tstar, dT)


def parallel_tangential_residual(v: Variation) -> np.ma.MaskedArray:
    """max_ij ||(nabla_i T_*) e_j||_G / (sqrt(d) ||T_*||_G): parallelism of
    the tangential part of dT in the induced connection.

    Where ||T_*||_G <= 1e-14 the ratio has no scale to measure against, so
    those points are masked out (see ``ResidualReport.excluded``).
    """
    nab = tangential_covariant_derivative(v)
    den = gnorm_op(v.frame, v.tstar)
    worst = gnorm_columns(v.frame.chol[..., None, :, :], nab).max(axis=(-2, -1))
    return np.ma.masked_where(den <= 1e-14, worst / (math.sqrt(v.frame.d) * np.maximum(den, 1e-14)))


def B_with_derivative(v: Variation) -> tuple:
    """(op, dop): B as an operator and dop[..., l] = d_l op, exact from the
    3-jets of f and T.  The frame must be built from the chart's 3-jet
    (``point_frame(chart.jet(p, order=3))``) and the field's jet must be
    ``fld.jet(p, order=3)``; no frame is built here.

    With tau = :attr:`Variation.tau` and s = -dN
    (:attr:`Variation.normal_variation`), s = f_*(sigma) with sigma =
    G^{-1} tau is the tangent vector with <s, f_k> = tau_k, so the
    Christoffel term of B is Gamma^k_ij tau_k = <f_ij, s>.  So
    B_ij = <T_ij, N> - <f_ij, s>, and

        d_l B_ij = <T_ijl, N> + <T_ij, d_l N> - <f_ijl, s> - <f_ij, d_l s>

    with d_l N = -f_*(A e_l), d_l sigma = G^{-1} (d_l tau - d_l G sigma)
    (d_l G from :attr:`~minkaehler.geometry.PointFrame.metric_derivative`)
    and d_l s = f_*(d_l sigma) + sum_q sigma_q f_ql.  No derivative of
    Gamma, a d^4 array per point, is formed.
    """
    frame, jet, field_jet = v.frame, v.frame.jet, v.jet
    if jet.d3 is None or field_jet.d3 is None:
        raise DomainError("B_with_derivative needs the 3-jets of the chart and the field")
    Ginv, N, f1, f2 = frame.metric_inv, frame.normal, jet.d1, jet.d2
    dN = -(_t(frame.shape_operator) @ f1)  # row l = d_l N
    sigma = (Ginv @ v.tau[..., None])[..., 0]
    s = -v.normal_variation
    dtau = np.einsum("...klc,...c->...lk", field_jet.d2, N)
    dtau += np.einsum("...kc,...lc->...lk", field_jet.d1, dN)
    dsigma = Ginv @ _t(dtau - (frame.metric_derivative @ sigma[..., None, :, None])[..., 0])  # [q, l]
    ds = _t(dsigma) @ f1 + np.einsum("...q,...qlc->...lc", sigma, f2)
    form = np.einsum("...ijc,...c->...ij", field_jet.d2, N) - np.einsum("...ijc,...c->...ij", f2, s)
    dform = np.einsum("...ijlc,...c->...lij", field_jet.d3, N)
    dform -= np.einsum("...ijlc,...c->...lij", jet.d3, s)
    dform += np.einsum("...ijc,...lc->...lij", field_jet.d2, dN)
    dform -= np.einsum("...ijc,...lc->...lij", f2, ds)
    op = Ginv @ _t(form)
    return op, Ginv[..., None, :, :] @ (_t(dform) - frame.metric_derivative @ op[..., None, :, :])


def fundamental_equation_residual(v: Variation) -> np.ndarray:
    """Linearized curvature identity: A X ^ B Y + B X ^ A Y = 0.

    Differentiating the curvature of the isometric family f + tT in t must
    give zero; the residual is the worst basis pair, normalized by the
    sizes of the lowered operators.  The wedge (u ^ v) Z = <v, Z>_G u -
    <u, Z>_G v is the matrix u (G v)^T - v (G u)^T.
    """
    frame, A, B = v.frame, v.frame.shape_operator, v.B
    GA = frame.metric @ A
    GB = frame.metric @ B
    iu, ju = np.triu_indices(frame.d, 1)

    def outer(U, i, V, j):  # [..., pair, a, b] = (U e_i)_a (V e_j)_b
        return np.einsum("...ap,...bp->...pab", U[..., :, i], V[..., :, j])

    # (A e_i ^ B e_j) + (B e_i ^ A e_j), built in place to hold two pair stacks
    mix = outer(A, iu, GB, ju)
    mix -= outer(B, ju, GA, iu)
    second = outer(B, iu, GA, ju)
    second -= outer(A, ju, GB, iu)
    mix += second
    den = np.linalg.norm(GA, axis=(-2, -1)) * np.linalg.norm(GB, axis=(-2, -1))
    worst = np.linalg.norm(mix, axis=(-2, -1)).max(axis=-1, initial=0.0)
    return worst / np.maximum(den, 1e-14)


def nullity_annihilation_residual(frame: PointFrame, b_op: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """max ||B v||_G over the relative-nullity directions v, the columns of
    ``basis`` (..., d, k), relative to ||B||_G.  Zeroed columns, such as the
    eigenvectors a rank mask leaves out, count for nothing."""
    worst = gnorm_columns(frame.chol, b_op @ basis).max(axis=-1, initial=0.0)
    return worst / np.maximum(gnorm_op(frame, b_op), 1e-14)


# -- rotation coefficient and classification ----------------------------------

@dataclass(frozen=True)
class RotationData:
    coefficient: np.ndarray   # (...)
    fit_residual: np.ndarray  # (...)
    basis: np.ndarray         # (..., d, 2) oriented G-orthonormal top-curvature pair


def rotation_coefficient(v: Variation) -> RotationData:
    """The rotation coefficient of T_* on the top-curvature plane.

    The two G-orthonormal eigenvectors of largest |curvature| span the
    plane orthogonal to the relative nullity; the basis (v1, v2) is
    oriented so that <J v1, v2>_G > 0 for the chart's J.  Restricted to
    that plane, T_* must be c times the quarter-turn rotation; the fit
    residual is the Frobenius distance to the best such multiple.
    """
    J, G = chart_complex_structure(v.frame.d), v.frame.metric
    basis = v.frame.eigenvectors[..., :, :2].copy()
    v1, v2 = basis[..., 0], basis[..., 1]
    flip = np.sum((v1 @ _t(J)) * (G @ v2[..., None])[..., 0], axis=-1) < 0
    basis[..., 1] = np.where(flip[..., None], -v2, v2)
    M = _t(basis) @ G @ (v.tstar @ basis)
    c = 0.5 * (M[..., 1, 0] - M[..., 0, 1])
    R = np.array([[0.0, -1.0], [1.0, 0.0]])
    fit = np.linalg.norm(M - c[..., None, None] * R, axis=(-2, -1))
    return RotationData(coefficient=c, fit_residual=fit, basis=basis)


_BENDING_TOL = 1e-6
_TRIVIAL_THRESHOLD = 1e-6


@dataclass(frozen=True)
class TrivialityResult:
    trivial: bool
    score: float
    threshold: float
    worst_bending_residual: float


def classify_triviality(chart: ImmersionChart, fld: ImmersionChart, pts) -> TrivialityResult:
    """Decide whether a bending is trivial (B vanishes identically).

    Raises :class:`PreconditionError` if the field's bending residual
    exceeds ``_BENDING_TOL`` anywhere in the sample; the score is the
    largest ||B||_G / (||A||_G * sigma) with sigma the relative field size,
    and the bending is trivial when it is below ``_TRIVIAL_THRESHOLD``.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
    frame = point_frame(chart.jet(pts))
    v = Variation(frame, fld.jet(pts))
    worst_bend = float(bending_residual(v).max())
    if worst_bend > _BENDING_TOL:
        raise PreconditionError(
            f"field is not an infinitesimal bending on the sample "
            f"(worst symmetrized residual {worst_bend:.3g} > {_BENDING_TOL:g})"
        )
    sizes = np.linalg.norm(v.jet.d1, axis=(-2, -1)) / np.maximum(
        np.linalg.norm(frame.jet.d1, axis=(-2, -1)), TINY
    )
    sigma = float(sizes.max())
    if sigma < 1e-14:
        # derivative-free fields are constant translations, trivially so
        return TrivialityResult(True, 0.0, _TRIVIAL_THRESHOLD, worst_bend)
    score = float((gnorm_op(frame, v.B) / np.maximum(frame.shape_norm * sigma, 1e-14)).max())
    return TrivialityResult(bool(score < _TRIVIAL_THRESHOLD), score, _TRIVIAL_THRESHOLD, worst_bend)


@dataclass(frozen=True)
class BendingDecomposition:
    coefficient: float
    skew: np.ndarray
    offset: np.ndarray
    residual: float


def recover_bending_decomposition(
    chart: SeriesChart, fld: ImmersionChart, pts
) -> BendingDecomposition:
    """Split T = c * conjugate + D f + w and recover (c, D, w).

    The coefficient comes from projecting B(T) onto B(conjugate) in the
    Frobenius pairing over the sample (the trivial part contributes no B);
    the remaining trivial part is fit by least squares and the residual is
    the worst pointwise misfit relative to the field size.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
    frame = point_frame(chart.jet(pts))
    jf, jr = fld.jet(pts), conjugate_field(chart).jet(pts)
    bt = _b_form(Variation(frame, jf))
    br = _b_form(Variation(frame, jr))
    c = float(np.sum(bt * br)) / max(float(np.sum(br * br)), TINY)
    m1 = chart.ambient
    pairs = [(a, b) for a in range(m1) for b in range(a + 1, m1)]
    base = frame.jet.value
    field = jf.value
    resid = field - c * jr.value
    # rows [point, component]: entry D[a, b] = x contributes x * f[b] to
    # component a and -x * f[a] to component b; w adds to its own component
    design = np.zeros((len(pts), m1, len(pairs) + m1))
    for col, (a, b) in enumerate(pairs):
        design[:, a, col] = base[:, b]
        design[:, b, col] = -base[:, a]
    design[:, :, len(pairs):] = np.eye(m1)
    sol, *_ = np.linalg.lstsq(design.reshape(-1, design.shape[-1]), resid.ravel(), rcond=None)
    skew = np.zeros((m1, m1))
    for col, (a, b) in enumerate(pairs):
        skew[a, b] = sol[col]
        skew[b, a] = -sol[col]
    offset = sol[len(pairs):]
    scale = max(float(np.linalg.norm(field, axis=-1).max()), 1.0)
    misfit = resid - base @ skew.T - offset
    worst = float(np.linalg.norm(misfit, axis=-1).max())
    return BendingDecomposition(
        coefficient=float(c), skew=skew, offset=offset, residual=worst / scale
    )
