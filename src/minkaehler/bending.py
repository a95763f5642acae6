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
T_* of dT.  Three independent routes to B are implemented (t-derivative of
the shape operator, the covariant-Hessian formula, and the composition
A T_*) so they can cross-check each other.

A variation field is itself an :class:`~minkaehler.charts.ImmersionChart`
over the same coordinates: ``jet_batch(pts, order)`` returns the value and
partials of T on a point stack.  A chart is its own position field, the
conjugate field is the mate chart of the associated family, and f + tT is
a :class:`CombinationField`.  Every residual below takes points of shape
(..., d) and returns one value per point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .charts import ImmersionChart, Jet2, TaylorChart
from .errors import DomainError, PreconditionError
from .geometry import (
    TINY,
    PointFrame,
    _t,
    christoffel,
    codazzi_residual,
    covariant_field_derivative,
    gnorm_columns,
    gnorm_op,
    metric_of,
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
        value, *partials = self.chart.jet_batch(pts, order)
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
        return associated(chart.seed, theta, chart.chain, box=chart.box)
    mate = associated(chart.seed, theta - math.pi, chart.chain, box=chart.box)
    return CombinationField((mate,), (-1.0,))


def make_trivial(chart: ImmersionChart, skew=None, offset=None, rng=None, scale: float = 1.0) -> TrivialField:
    """A trivial field D f + w; random unit-size D, w when not supplied."""
    m1 = chart.ambient
    if skew is None or offset is None:
        if rng is None:
            raise DomainError("either pass skew and offset or pass an rng")
    if skew is None:
        raw = rng.standard_normal((m1, m1))
        skew = raw - raw.T
        skew *= scale / max(np.linalg.norm(skew), TINY)
    if offset is None:
        offset = rng.standard_normal(m1)
        offset *= scale / max(np.linalg.norm(offset), TINY)
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

def bending_residual(chart: ImmersionChart, fld: ImmersionChart, p) -> np.ndarray:
    """max_ij |<T_i, f_j> + <T_j, f_i>| over the normalizing scale.

    Zero exactly when T is an infinitesimal bending at p.
    """
    f1 = chart.jet(p).d1
    t1 = fld.jet(p).d1
    sym = t1 @ _t(f1)
    sym = sym + _t(sym)
    scale = np.linalg.norm(f1, axis=(-2, -1)) * np.linalg.norm(t1, axis=(-2, -1))
    return np.abs(sym).max(axis=(-2, -1)) / np.maximum(scale, TINY)


def gauss_tangency_residual(chart: ImmersionChart, fld: ImmersionChart, p) -> np.ndarray:
    """max_j |<N, T_j>| / |T_j|: zero iff dT is everywhere tangent at p,
    the first-order criterion for the variation to preserve the normal."""
    normal = point_frame(chart.jet(p)).normal
    t1 = fld.jet(p).d1
    nrm = np.linalg.norm(t1, axis=-1)
    tilt = np.abs((t1 @ normal[..., None])[..., 0])
    return np.where(nrm > 1e-14, tilt / np.maximum(nrm, TINY), 0.0).max(axis=-1)


def normal_variation_residual(
    chart: ImmersionChart, fld: ImmersionChart, p, eps: float = 1e-4
) -> np.ndarray:
    """||N(eps) - N(-eps)|| / (2 eps): the t-derivative of the unit normal
    along f + tT, which vanishes for Gauss-map-preserving variations."""
    np_ = point_frame(CombinationField((chart, fld), (1.0, eps)).jet(p)).normal
    nm = point_frame(CombinationField((chart, fld), (1.0, -eps)).jet(p)).normal
    return np.linalg.norm(np_ - nm, axis=-1) / (2 * eps)


# -- the B tensor --------------------------------------------------------------

@dataclass(frozen=True)
class BTensor:
    """The bending tensor on a point stack, as operator and lowered form.

    ``op`` maps tangent vectors (columns are images of basis vectors);
    ``form`` is the bilinear form with form = (G op)^T; ``metric`` is the
    base metric G used for the lowering.
    """

    op: np.ndarray
    form: np.ndarray
    metric: np.ndarray

    @staticmethod
    def from_op(op: np.ndarray, metric: np.ndarray) -> "BTensor":
        return BTensor(op=op, form=_t(metric @ op), metric=metric)

    @staticmethod
    def from_form(form: np.ndarray, metric: np.ndarray) -> "BTensor":
        return BTensor(op=np.linalg.solve(metric, _t(form)), form=form, metric=metric)


def B_by_fd(chart: ImmersionChart, fld: ImmersionChart, p, eps: float = 1e-4) -> BTensor:
    """B as the symmetric t-derivative of the shape operator of f + tT."""
    ap = point_frame(CombinationField((chart, fld), (1.0, eps)).jet(p)).shape_operator
    am = point_frame(CombinationField((chart, fld), (1.0, -eps)).jet(p)).shape_operator
    g0 = metric_of(chart, p)
    return BTensor.from_op((ap - am) / (2 * eps), g0)


def _b_form(frame: PointFrame, field_jet: Jet2) -> np.ndarray:
    """B_ij = <T_ij - Gamma^k_ij T_k, N> from the frame's jet and T's."""
    gam = christoffel(frame.jet)
    corrected = field_jet.d2 - np.einsum("...kij,...kc->...ijc", gam, field_jet.d1)
    return (corrected @ frame.normal[..., None, :, None])[..., 0]


def B_by_formula(chart: ImmersionChart, fld: ImmersionChart, p) -> BTensor:
    """B_ij = <T_ij - Gamma^k_ij T_k, N>: the covariant Hessian of T paired
    with the normal.  Exact from the 2-jets of f and T, and identically
    zero on trivial fields."""
    frame = point_frame(chart.jet(p))
    return BTensor.from_form(_b_form(frame, fld.jet(p)), frame.metric)


def tangential_derivative(frame: PointFrame, field_jet: Jet2) -> np.ndarray:
    """T_* as a matrix: column j solves G c = <f_i, T_j> (the tangential
    part of dT(e_j) in the coordinate basis)."""
    rhs = frame.jet.d1 @ _t(field_jet.d1)  # [..., i, j] = <f_i, T_j>
    return np.linalg.solve(frame.metric, rhs)


def B_by_BAT(chart: ImmersionChart, fld: ImmersionChart, p) -> BTensor:
    """B as the composition A T_* (valid for Gauss-map-preserving fields)."""
    frame = point_frame(chart.jet(p))
    tstar = tangential_derivative(frame, fld.jet(p))
    return BTensor.from_op(frame.shape_operator @ tstar, frame.metric)


def b_route_agreement(chart: ImmersionChart, fld: ImmersionChart, p, eps: float = 1e-4) -> np.ndarray:
    """Largest pairwise deviation of the three B routes, G-relative."""
    frame = point_frame(chart.jet(p))
    ops = [
        B_by_fd(chart, fld, p, eps=eps).op,
        B_by_formula(chart, fld, p).op,
        B_by_BAT(chart, fld, p).op,
    ]
    scale = np.maximum(np.max([gnorm_op(frame.chol, op) for op in ops], axis=0), 1.0)
    worst = np.max([gnorm_op(frame.chol, ops[i] - ops[j]) for i, j in ((0, 1), (0, 2), (1, 2))], axis=0)
    return worst / scale


def bat_residual(chart: ImmersionChart, fld: ImmersionChart, p) -> np.ndarray:
    """||B - A T_*||_G / ||A T_*||_G with B from the Hessian formula."""
    frame = point_frame(chart.jet(p))
    jf = fld.jet(p)
    b_op = np.linalg.solve(frame.metric, _t(_b_form(frame, jf)))
    at = frame.shape_operator @ tangential_derivative(frame, jf)
    den = gnorm_op(frame.chol, at)
    return gnorm_op(frame.chol, b_op - at) / np.maximum(den, 1e-14)


def tangential_covariant_derivative(frame: PointFrame, field_jet: Jet2) -> np.ndarray:
    """nabla T_* from the 2-jets of f and T; returns [..., i, k, j] like
    :func:`~minkaehler.geometry.covariant_field_derivative`.

    With P_ij = <f_i, T_j> and T_* = G^{-1} P, the coordinate derivative is
    d_i T_* = G^{-1} (d_i P - d_i G T_*), and the connection adds the
    commutator [Gamma_i, T_*] with (Gamma_i)^k_l = Gamma^k_il.
    """
    jb = frame.jet
    tstar = tangential_derivative(frame, field_jet)
    # d_i P_kj = <f_ik, T_j> + <f_k, T_ij>;  d_i G_kj = <f_ik, f_j> + <f_k, f_ij>
    dP = jb.d2 @ _t(field_jet.d1)[..., None, :, :] + np.einsum(
        "...kc,...ijc->...ikj", jb.d1, field_jet.d2
    )
    dG = jb.d2 @ _t(jb.d1)[..., None, :, :]
    dG = dG + _t(dG)
    dT = np.linalg.solve(frame.metric[..., None, :, :], dP - dG @ tstar[..., None, :, :])
    return covariant_field_derivative(christoffel(jb), tstar, dT)


def parallel_tangential_residual(chart: ImmersionChart, fld: ImmersionChart, p) -> np.ndarray:
    """max_ij ||(nabla_i T_*) e_j||_G / (sqrt(d) ||T_*||_G): parallelism of
    the tangential part of dT in the induced connection."""
    frame = point_frame(chart.jet(p))
    jf = fld.jet(p)
    nab = tangential_covariant_derivative(frame, jf)
    den = gnorm_op(frame.chol, tangential_derivative(frame, jf))
    worst = gnorm_columns(frame.chol[..., None, :, :], nab).max(axis=(-2, -1))
    return worst / (math.sqrt(chart.d) * np.maximum(den, 1e-14))


def B_with_derivative(chart: SeriesChart, fld: SeriesChart, p) -> tuple:
    """(frame, op, dop): the frame of f, B as an operator and dop[..., l] =
    d_l op, exact from the 3-jets (``jet(p, order=3)``) of f and T.

    With tau_k = <T_k, N> and s = f_*(sigma), sigma = G^{-1} tau, the
    tangent vector with <s, f_k> = tau_k, the Christoffel term of B is
    Gamma^k_ij tau_k = <f_ij, s>.  So B_ij = <T_ij, N> - <f_ij, s>, and

        d_l B_ij = <T_ijl, N> + <T_ij, d_l N> - <f_ijl, s> - <f_ij, d_l s>

    with d_l N = -f_*(A e_l), d_l sigma = G^{-1} (d_l tau - d_l G sigma) and
    d_l s = f_*(d_l sigma) + sum_q sigma_q f_ql.  No derivative of Gamma,
    a d^4 array per point, is formed.
    """
    jet, tj = chart.jet(p, order=3), fld.jet(p, order=3)
    frame = point_frame(jet)
    G, N, f1, f2 = frame.metric, frame.normal, jet.d1, jet.d2
    dN = -(_t(frame.shape_operator) @ f1)  # row l = d_l N
    # d_l G_kq = <f_kl, f_q> + <f_k, f_ql>
    dG = np.einsum("...klc,...qc->...lkq", f2, f1)
    dG = dG + _t(dG)
    sigma = np.linalg.solve(G, np.einsum("...kc,...c->...k", tj.d1, N)[..., None])[..., 0]
    s = np.einsum("...q,...qc->...c", sigma, f1)
    dtau = np.einsum("...klc,...c->...lk", tj.d2, N) + np.einsum("...kc,...lc->...lk", tj.d1, dN)
    dsigma = np.linalg.solve(G, _t(dtau - (dG @ sigma[..., None, :, None])[..., 0]))  # [q, l]
    ds = _t(dsigma) @ f1 + np.einsum("...q,...qlc->...lc", sigma, f2)
    form = np.einsum("...ijc,...c->...ij", tj.d2, N) - np.einsum("...ijc,...c->...ij", f2, s)
    dform = np.einsum("...ijlc,...c->...lij", tj.d3, N)
    dform -= np.einsum("...ijlc,...c->...lij", jet.d3, s)
    dform += np.einsum("...ijc,...lc->...lij", tj.d2, dN)
    dform -= np.einsum("...ijc,...lc->...lij", f2, ds)
    op = np.linalg.solve(G, _t(form))
    return frame, op, np.linalg.solve(G[..., None, :, :], _t(dform) - dG @ op[..., None, :, :])


def codazzi_b_residual(chart: SeriesChart, fld: SeriesChart, p) -> np.ndarray:
    """Codazzi-type symmetry of the covariant derivative of B."""
    return codazzi_residual(*B_with_derivative(chart, fld, p))


def fundamental_equation_residual(chart: ImmersionChart, fld: ImmersionChart, p) -> np.ndarray:
    """Linearized curvature identity: A X ^ B Y + B X ^ A Y = 0.

    Differentiating the curvature of the isometric family f + tT in t must
    give zero; the residual is the worst basis pair, normalized by the
    sizes of the lowered operators.  The wedge (u ^ v) Z = <v, Z>_G u -
    <u, Z>_G v is the matrix u (G v)^T - v (G u)^T.
    """
    frame = point_frame(chart.jet(p))
    A = frame.shape_operator
    B = np.linalg.solve(frame.metric, _t(_b_form(frame, fld.jet(p))))
    GA = frame.metric @ A
    GB = frame.metric @ B
    iu, ju = np.triu_indices(chart.d, 1)

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
    return worst / np.maximum(gnorm_op(frame.chol, b_op), 1e-14)


# -- rotation coefficient and classification ----------------------------------

@dataclass(frozen=True)
class RotationData:
    coefficient: np.ndarray   # (...)
    fit_residual: np.ndarray  # (...)
    basis: np.ndarray         # (..., d, 2) oriented G-orthonormal top-curvature pair


def rotation_coefficient(chart: ImmersionChart, fld: ImmersionChart, p, J=None) -> RotationData:
    """The rotation coefficient of T_* on the top-curvature plane.

    The two G-orthonormal eigenvectors of largest |curvature| span the
    plane orthogonal to the relative nullity; the basis (v1, v2) is
    oriented so that <J v1, v2>_G > 0.  In that basis the restriction of
    T_* must be c times the quarter-turn rotation; the fit residual is the
    Frobenius distance to the best such multiple.
    """
    frame = point_frame(chart.jet(p))
    if J is None:
        J = chart_complex_structure(chart.d)
    basis = frame.eigenvectors[..., :, :2].copy()
    v1, v2 = basis[..., 0], basis[..., 1]
    flip = np.sum((v1 @ _t(J)) * (frame.metric @ v2[..., None])[..., 0], axis=-1) < 0
    basis[..., 1] = np.where(flip[..., None], -v2, v2)
    tstar = tangential_derivative(frame, fld.jet(p))
    M = _t(basis) @ frame.metric @ (tstar @ basis)
    c = 0.5 * (M[..., 1, 0] - M[..., 0, 1])
    R = np.array([[0.0, -1.0], [1.0, 0.0]])
    fit = np.linalg.norm(M - c[..., None, None] * R, axis=(-2, -1))
    return RotationData(coefficient=c, fit_residual=fit, basis=basis)


@dataclass(frozen=True)
class TrivialityResult:
    trivial: bool
    score: float
    threshold: float
    worst_bending_residual: float


def classify_triviality(
    chart: ImmersionChart,
    fld: ImmersionChart,
    pts,
    threshold: float = 1e-6,
    bending_tol: float = 1e-6,
) -> TrivialityResult:
    """Decide whether a bending is trivial (B vanishes identically).

    Raises :class:`PreconditionError` if the field fails the bending
    condition anywhere in the sample; the score is the largest
    ||B||_G / (||A||_G * sigma) with sigma the relative field size.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
    worst_bend = float(bending_residual(chart, fld, pts).max())
    if worst_bend > bending_tol:
        raise PreconditionError(
            f"field is not an infinitesimal bending on the sample "
            f"(worst symmetrized residual {worst_bend:.3g} > {bending_tol:g})"
        )
    frame = point_frame(chart.jet(pts))
    jf = fld.jet(pts)
    sizes = np.linalg.norm(jf.d1, axis=(-2, -1)) / np.maximum(
        np.linalg.norm(frame.jet.d1, axis=(-2, -1)), TINY
    )
    sigma = float(sizes.max())
    if sigma < 1e-14:
        # derivative-free fields are constant translations, trivially so
        return TrivialityResult(True, 0.0, threshold, worst_bend)
    b_op = np.linalg.solve(frame.metric, _t(_b_form(frame, jf)))
    a_norm = gnorm_op(frame.chol, frame.shape_operator)
    score = float((gnorm_op(frame.chol, b_op) / np.maximum(a_norm * sigma, 1e-14)).max())
    return TrivialityResult(bool(score < threshold), score, threshold, worst_bend)


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
    ref = conjugate_field(chart)
    bt = B_by_formula(chart, fld, pts).form
    br = B_by_formula(chart, ref, pts).form
    c = float(np.sum(bt * br)) / max(float(np.sum(br * br)), TINY)
    m1 = chart.ambient
    pairs = [(a, b) for a in range(m1) for b in range(a + 1, m1)]
    base = chart.jet(pts).value
    field = fld.jet(pts).value
    resid = field - c * ref.jet(pts).value
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
