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
over the same coordinates: ``jet(p)`` returns the value, first and second
partials of T.  A chart is its own position field, the conjugate field is
the mate chart of the associated family, and f + tT is a
:class:`CombinationField`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .charts import CallableChart, ImmersionChart, Jet2
from .errors import DomainError, PreconditionError
from .geometry import (
    TINY,
    PointFrame,
    christoffel,
    codazzi_residual,
    gnorm_op,
    metric_of,
    point_frame,
)
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

    def jet(self, p) -> Jet2:
        j = self.chart.jet(p)
        return Jet2(
            coords=j.coords,
            value=self.skew @ j.value + self.offset,
            d1=j.d1 @ self.skew.T,
            d2=j.d2 @ self.skew.T,
        )


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

    def jet(self, p) -> Jet2:
        jets = [f.jet(p) for f in self.fields]
        value = sum(c * j.value for c, j in zip(self.coeffs, jets))
        d1 = sum(c * j.d1 for c, j in zip(self.coeffs, jets))
        d2 = sum(c * j.d2 for c, j in zip(self.coeffs, jets))
        return Jet2(coords=jets[0].coords, value=value, d1=d1, d2=d2)


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


def make_cylinder_bending(cylinder, a: float, b: float) -> CallableChart:
    """Nontrivial bending of the cylinder over the ellipse (a cos t, b sin t).

    The field lies in the profile plane and is constant along the straight
    factor: T(t, z) = (v(t), 0, ...) with v'(t) = t * rot90(c'(t)), which
    satisfies <v', c'> = 0 pointwise, the bending condition for cylinders.
    A closed form is v(t) = (-b (t sin t + cos t), a (t cos t - sin t)).
    """
    if cylinder.ambient < 3:
        raise DomainError("cylinder bending needs an ambient dimension of at least 3")
    m1 = cylinder.ambient
    d = cylinder.d

    def value(p):
        t = p[0]
        out = np.zeros(m1)
        out[0] = -b * (t * np.sin(t) + np.cos(t))
        out[1] = a * (t * np.cos(t) - np.sin(t))
        return out

    def d1(p):
        t = p[0]
        out = np.zeros((d, m1))
        out[0, 0] = -b * t * np.cos(t)
        out[0, 1] = -a * t * np.sin(t)
        return out

    def d2(p):
        t = p[0]
        out = np.zeros((d, d, m1))
        out[0, 0, 0] = b * (t * np.sin(t) - np.cos(t))
        out[0, 0, 1] = -a * (t * np.cos(t) + np.sin(t))
        return out

    return CallableChart(
        d=d, ambient=m1, box=cylinder.box, value_fn=value, d1_fn=d1, d2_fn=d2
    )


# -- bending / preservation residuals -----------------------------------------

def bending_residual(chart: ImmersionChart, fld: ImmersionChart, p) -> float:
    """max_ij |<T_i, f_j> + <T_j, f_i>| over the normalizing scale.

    Zero exactly when T is an infinitesimal bending at p.
    """
    jb = chart.jet(np.asarray(p, dtype=np.float64))
    jf = fld.jet(p)
    sym = jf.d1 @ jb.d1.T
    sym = sym + sym.T
    scale = np.linalg.norm(jb.d1) * np.linalg.norm(jf.d1)
    return float(np.abs(sym).max() / max(scale, TINY))


def first_variation_metric_residual(
    chart: ImmersionChart, fld: ImmersionChart, p, eps: float = 1e-4
) -> float:
    """||(G(eps) - G(-eps)) / 2 eps||_F / ||G(0)||_F along f + tT.

    The metric of the deformed chart is exactly quadratic in t, so the
    central difference isolates the first-order term with no truncation
    error; for a bending this is roundoff-sized.
    """
    gp = metric_of(CombinationField((chart, fld), (1.0, eps)), p)
    gm = metric_of(CombinationField((chart, fld), (1.0, -eps)), p)
    g0 = metric_of(chart, p)
    return float(np.linalg.norm((gp - gm) / (2 * eps)) / max(np.linalg.norm(g0), TINY))


def second_variation_metric_residual(
    chart: ImmersionChart, fld: ImmersionChart, p, t: float = 0.1
) -> float:
    """||G(t) - G(0) - t^2 <T_i, T_j>||_F / ||G(0)||_F (exact identity)."""
    g0 = metric_of(chart, p)
    gt = metric_of(CombinationField((chart, fld), (1.0, t)), p)
    td1 = fld.jet(p).d1
    quad = td1 @ td1.T
    return float(np.linalg.norm(gt - g0 - t * t * quad) / max(np.linalg.norm(g0), TINY))


def gauss_tangency_residual(chart: ImmersionChart, fld: ImmersionChart, p) -> float:
    """max_j |<N, T_j>| / |T_j|: zero iff dT is everywhere tangent at p,
    the first-order criterion for the variation to preserve the normal."""
    frame = point_frame(chart.jet(np.asarray(p, dtype=np.float64)))
    td1 = fld.jet(p).d1
    worst = 0.0
    for row in td1:
        nrm = np.linalg.norm(row)
        if nrm > 1e-14:
            worst = max(worst, abs(float(row @ frame.normal)) / nrm)
    return worst


def normal_variation_residual(
    chart: ImmersionChart, fld: ImmersionChart, p, eps: float = 1e-4
) -> float:
    """||N(eps) - N(-eps)|| / (2 eps): the t-derivative of the unit normal
    along f + tT, which vanishes for Gauss-map-preserving variations."""
    np_ = point_frame(CombinationField((chart, fld), (1.0, eps)).jet(p)).normal
    nm = point_frame(CombinationField((chart, fld), (1.0, -eps)).jet(p)).normal
    return float(np.linalg.norm(np_ - nm) / (2 * eps))


# -- the B tensor --------------------------------------------------------------

@dataclass(frozen=True)
class BTensor:
    """The bending tensor at a point, as operator and lowered form.

    ``op`` maps tangent vectors (columns are images of basis vectors);
    ``form`` is the bilinear form with form = (G op)^T; ``metric`` is the
    base metric G used for the lowering.
    """

    op: np.ndarray
    form: np.ndarray
    metric: np.ndarray

    @staticmethod
    def from_op(op: np.ndarray, metric: np.ndarray) -> "BTensor":
        return BTensor(op=op, form=(metric @ op).T, metric=metric)

    @staticmethod
    def from_form(form: np.ndarray, metric: np.ndarray) -> "BTensor":
        return BTensor(op=np.linalg.solve(metric, form.T), form=form, metric=metric)


def B_by_fd(chart: ImmersionChart, fld: ImmersionChart, p, eps: float = 1e-4) -> BTensor:
    """B as the symmetric t-derivative of the shape operator of f + tT."""
    ap = point_frame(CombinationField((chart, fld), (1.0, eps)).jet(p)).shape_operator
    am = point_frame(CombinationField((chart, fld), (1.0, -eps)).jet(p)).shape_operator
    g0 = metric_of(chart, p)
    return BTensor.from_op((ap - am) / (2 * eps), g0)


def B_by_formula(chart: ImmersionChart, fld: ImmersionChart, p) -> BTensor:
    """B_ij = <T_ij - Gamma^k_ij T_k, N>: the covariant Hessian of T paired
    with the normal.  Exact from the 2-jets of f and T, and identically
    zero on trivial fields."""
    p = np.asarray(p, dtype=np.float64)
    frame = point_frame(chart.jet(p))
    gam = christoffel(chart, p)
    jf = fld.jet(p)
    corrected = jf.d2 - np.einsum("kij,kc->ijc", gam, jf.d1)
    form = corrected @ frame.normal
    return BTensor.from_form(form, frame.metric)


def tangential_derivative(frame: PointFrame, field_jet: Jet2) -> np.ndarray:
    """T_* as a matrix: column j solves G c = <f_i, T_j> (the tangential
    part of dT(e_j) in the coordinate basis)."""
    rhs = frame.jet.d1 @ field_jet.d1.T  # [i, j] = <f_i, T_j>
    return np.linalg.solve(frame.metric, rhs)


def B_by_BAT(chart: ImmersionChart, fld: ImmersionChart, p) -> BTensor:
    """B as the composition A T_* (valid for Gauss-map-preserving fields)."""
    frame = point_frame(chart.jet(np.asarray(p, dtype=np.float64)))
    tstar = tangential_derivative(frame, fld.jet(p))
    return BTensor.from_op(frame.shape_operator @ tstar, frame.metric)


def b_route_agreement(chart: ImmersionChart, fld: ImmersionChart, p, eps: float = 1e-4) -> float:
    """Largest pairwise deviation of the three B routes, G-relative."""
    frame = point_frame(chart.jet(np.asarray(p, dtype=np.float64)))
    ops = [
        B_by_fd(chart, fld, p, eps=eps).op,
        B_by_formula(chart, fld, p).op,
        B_by_BAT(chart, fld, p).op,
    ]
    scale = max(max(gnorm_op(frame.chol, op) for op in ops), 1.0)
    worst = 0.0
    for i in range(3):
        for j in range(i + 1, 3):
            worst = max(worst, gnorm_op(frame.chol, ops[i] - ops[j]))
    return worst / scale


def bat_residual(chart: ImmersionChart, fld: ImmersionChart, p) -> float:
    """||B - A T_*||_G / ||A T_*||_G with B from the Hessian formula."""
    frame = point_frame(chart.jet(np.asarray(p, dtype=np.float64)))
    b_op = B_by_formula(chart, fld, p).op
    at = frame.shape_operator @ tangential_derivative(frame, fld.jet(p))
    den = gnorm_op(frame.chol, at)
    return gnorm_op(frame.chol, b_op - at) / max(den, 1e-14)


def tangential_covariant_derivative(frame: PointFrame, field_jet: Jet2, gam: np.ndarray) -> np.ndarray:
    """nabla T_* from the 2-jets of f and T and the Christoffels ``gam``;
    returns [i, k, j] like :func:`~minkaehler.geometry.covariant_field_derivative`.

    With P_ij = <f_i, T_j> and T_* = G^{-1} P, the coordinate derivative is
    d_i T_* = G^{-1} (d_i P - d_i G T_*), and the connection adds the
    commutator [Gamma_i, T_*] with (Gamma_i)^k_l = Gamma^k_il.
    """
    jb = frame.jet
    tstar = tangential_derivative(frame, field_jet)
    # d_i P_kj = <f_ik, T_j> + <f_k, T_ij>;  d_i G_kj = <f_ik, f_j> + <f_k, f_ij>
    dP = jb.d2 @ field_jet.d1.T + np.einsum("kc,ijc->ikj", jb.d1, field_jet.d2)
    dG = jb.d2 @ jb.d1.T
    dG = dG + dG.transpose(0, 2, 1)
    dT = np.linalg.solve(frame.metric[None], dP - dG @ tstar)
    gam_i = gam.transpose(1, 0, 2)  # [i, k, l] = Gamma^k_il
    return dT + gam_i @ tstar - tstar @ gam_i


def parallel_tangential_residual(chart: ImmersionChart, fld: ImmersionChart, p) -> float:
    """max_ij ||(nabla_i T_*) e_j||_G / (sqrt(d) ||T_*||_G): parallelism of
    the tangential part of dT in the induced connection."""
    p = np.asarray(p, dtype=np.float64)
    frame = point_frame(chart.jet(p))
    jf = fld.jet(p)
    nab = tangential_covariant_derivative(frame, jf, christoffel(chart, p))
    den = gnorm_op(frame.chol, tangential_derivative(frame, jf))
    worst = 0.0
    for i in range(chart.d):
        for j in range(chart.d):
            v = nab[i, :, j]
            worst = max(worst, float(np.linalg.norm(frame.chol.T @ v)))
    return worst / (math.sqrt(chart.d) * max(den, 1e-14))


def B_with_derivative(chart: SeriesChart, fld: SeriesChart, p) -> tuple:
    """(op, dop): B as an operator at p and dop[l] = d_l op, exact from the
    3-jets (``jet_batch(pts, order=3)``) of f and T.  Differentiates
    B_ij = <T_ij - Gamma^k_ij T_k, N> with P_qij = <f_ij, f_q>, Gamma =
    G^{-1} P, d_l Gamma = G^{-1} (d_l P - d_l G Gamma), d_l N = -f_*(A e_l).
    """
    p = np.asarray(p, dtype=np.float64)
    value, f1, f2, f3 = (a[0] for a in chart.jet_batch(p, order=3))
    _, t1, t2, t3 = (a[0] for a in fld.jet_batch(p, order=3))
    frame = point_frame(Jet2(coords=p, value=value, d1=f1, d2=f2))
    G, N, d = frame.metric, frame.normal, chart.d
    gam = np.linalg.solve(G, np.einsum("ijc,qc->qij", f2, f1).reshape(d, d * d))
    # d_l P_qij = <f_ijl, f_q> + <f_ij, f_ql>;  d_l G_kq = <f_kl, f_q> + <f_k, f_ql>
    dP = np.einsum("ijlc,qc->lqij", f3, f1) + np.einsum("ijc,qlc->lqij", f2, f2)
    dG = np.einsum("klc,qc->lkq", f2, f1)
    dG = dG + dG.transpose(0, 2, 1)
    dgam = np.linalg.solve(G[None], dP.reshape(d, d, d * d) - dG @ gam).reshape((d,) * 4)
    gam = gam.reshape(d, d, d)
    corrected = t2 - np.einsum("kij,kc->ijc", gam, t1)
    dcorrected = t3 - np.einsum("lkij,kc->lijc", dgam, t1) - np.einsum("kij,klc->lijc", gam, t2)
    dN = -(frame.shape_operator.T @ f1)  # row l = d_l N
    dform = dcorrected @ N + np.einsum("ijc,lc->lij", corrected, dN)
    op = np.linalg.solve(G, (corrected @ N).T)
    return op, np.linalg.solve(G[None], dform.transpose(0, 2, 1) - dG @ op)


def codazzi_b_residual(chart: SeriesChart, fld: SeriesChart, p) -> float:
    """Codazzi-type symmetry of the covariant derivative of B."""
    return codazzi_residual(chart, *B_with_derivative(chart, fld, p), p)


def _wedge(u: np.ndarray, v: np.ndarray, G: np.ndarray) -> np.ndarray:
    """(u ^ v) Z = <v, Z>_G u - <u, Z>_G v, as a matrix."""
    return np.outer(u, G @ v) - np.outer(v, G @ u)


def fundamental_equation_residual(chart: ImmersionChart, fld: ImmersionChart, p) -> float:
    """Linearized curvature identity: A X ^ B Y + B X ^ A Y = 0.

    Differentiating the curvature of the isometric family f + tT in t must
    give zero; the residual is the worst basis pair, normalized by the
    sizes of the lowered operators.
    """
    frame = point_frame(chart.jet(np.asarray(p, dtype=np.float64)))
    A = frame.shape_operator
    B = B_by_formula(chart, fld, p).op
    G = frame.metric
    den = np.linalg.norm(G @ A) * np.linalg.norm(G @ B)
    worst = 0.0
    for i in range(chart.d):
        for j in range(i + 1, chart.d):
            mix = _wedge(A[:, i], B[:, j], G) + _wedge(B[:, i], A[:, j], G)
            worst = max(worst, float(np.linalg.norm(mix)))
    return worst / max(den, 1e-14)


def nullity_annihilation_residual(frame: PointFrame, b_op: np.ndarray, basis: np.ndarray) -> float:
    """||B v||_G over relative-nullity directions v, relative to ||B||_G."""
    if basis.size == 0:
        return 0.0
    den = gnorm_op(frame.chol, b_op)
    worst = 0.0
    for k in range(basis.shape[1]):
        v = basis[:, k]
        worst = max(worst, float(np.linalg.norm(frame.chol.T @ (b_op @ v))))
    return worst / max(den, 1e-14)


# -- rotation coefficient and classification ----------------------------------

@dataclass(frozen=True)
class RotationData:
    coefficient: float
    fit_residual: float
    basis: np.ndarray  # (d, 2) oriented G-orthonormal top-curvature pair


def rotation_coefficient(chart: ImmersionChart, fld: ImmersionChart, p, J=None) -> RotationData:
    """The rotation coefficient of T_* on the top-curvature plane.

    The two G-orthonormal eigenvectors of largest |curvature| span the
    plane orthogonal to the relative nullity; the basis (v1, v2) is
    oriented so that <J v1, v2>_G > 0.  In that basis the restriction of
    T_* must be c times the quarter-turn rotation; the fit residual is the
    Frobenius distance to the best such multiple.
    """
    frame = point_frame(chart.jet(np.asarray(p, dtype=np.float64)))
    if J is None:
        J = chart_complex_structure(chart.d)
    v1 = frame.eigenvectors[:, 0]
    v2 = frame.eigenvectors[:, 1]
    if float(J @ v1 @ frame.metric @ v2) < 0:
        v2 = -v2
    basis = np.stack([v1, v2], axis=1)
    tstar = tangential_derivative(frame, fld.jet(p))
    M = basis.T @ frame.metric @ (tstar @ basis)
    c = 0.5 * (M[1, 0] - M[0, 1])
    R = np.array([[0.0, -1.0], [1.0, 0.0]])
    fit = float(np.linalg.norm(M - c * R))
    return RotationData(coefficient=float(c), fit_residual=fit, basis=basis)


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
    worst_bend = max(bending_residual(chart, fld, p) for p in pts)
    if worst_bend > bending_tol:
        raise PreconditionError(
            f"field is not an infinitesimal bending on the sample "
            f"(worst symmetrized residual {worst_bend:.3g} > {bending_tol:g})"
        )
    sigma = 0.0
    score = 0.0
    rows = []
    for p in pts:
        frame = point_frame(chart.jet(p))
        jf = fld.jet(p)
        sigma = max(sigma, np.linalg.norm(jf.d1) / max(np.linalg.norm(frame.jet.d1), TINY))
        rows.append((frame, p))
    if sigma < 1e-14:
        # derivative-free fields are constant translations, trivially so
        return TrivialityResult(True, 0.0, threshold, worst_bend)
    for frame, p in rows:
        b_op = B_by_formula(chart, fld, p).op
        a_norm = gnorm_op(frame.chol, frame.shape_operator)
        score = max(score, gnorm_op(frame.chol, b_op) / max(a_norm * sigma, 1e-14))
    return TrivialityResult(bool(score < threshold), float(score), threshold, worst_bend)


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
    num = 0.0
    den = 0.0
    for p in pts:
        bt = B_by_formula(chart, fld, p).form
        br = B_by_formula(chart, ref, p).form
        num += float(np.sum(bt * br))
        den += float(np.sum(br * br))
    c = num / max(den, TINY)
    m1 = chart.ambient
    pairs = [(a, b) for a in range(m1) for b in range(a + 1, m1)]
    ncol = len(pairs) + m1
    rows = []
    rhs = []
    scale = 0.0
    for p in pts:
        base = chart.jet(p).value
        resid = fld.value(p) - c * ref.value(p)
        scale = max(scale, float(np.linalg.norm(fld.value(p))), 1.0)
        for i in range(m1):
            row = np.zeros(ncol)
            for col, (a, b) in enumerate(pairs):
                # entry D[a, b] = x contributes x * f[b] to component a and
                # -x * f[a] to component b
                if i == a:
                    row[col] = base[b]
                elif i == b:
                    row[col] = -base[a]
            row[len(pairs) + i] = 1.0
            rows.append(row)
            rhs.append(resid[i])
    sol, *_ = np.linalg.lstsq(np.asarray(rows), np.asarray(rhs), rcond=None)
    skew = np.zeros((m1, m1))
    for col, (a, b) in enumerate(pairs):
        skew[a, b] = sol[col]
        skew[b, a] = -sol[col]
    offset = sol[len(pairs):]
    worst = 0.0
    for p in pts:
        base = chart.jet(p).value
        misfit = fld.value(p) - c * ref.value(p) - skew @ base - offset
        worst = max(worst, float(np.linalg.norm(misfit)))
    return BendingDecomposition(
        coefficient=float(c), skew=skew, offset=offset, residual=worst / scale
    )
