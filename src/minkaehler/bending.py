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

A variation field is given by its :class:`~minkaehler.charts.Jet2` on the
chart's points.  A chart is its own position field, the conjugate field of
the family member at theta is the member at theta + pi/2
(:func:`conjugate_field`), and a trivial field's jet is a linear map of the
chart's (:func:`trivial_jet`).  Since jets are linear, the jet of f + tT,
or of a sum of fields, is the sum of the jets.

Every residual and every route to B below takes one :class:`Variation`,
the chart's :class:`~minkaehler.geometry.PointFrame` on a point stack of
shape (..., d) and the field's :class:`~minkaehler.charts.Jet2` on the
same stack, and returns one value per point.  A Variation keeps tau,
tau_hat = C^{-1} tau, <T_ij, N>, dN, T_hat, B_hat and the G-norms ||B||_G
and ||A T_*||_G once computed, so each is computed once per field; the
three routes to B share only those inputs.  Every operator is its matrix
in the orthonormal frame (:meth:`~minkaehler.geometry.PointFrame.in_frame`)
and every ||.||_G of an operator the Frobenius norm of that matrix,
:func:`~minkaehler.geometry.gnorm_op`.  Every row reads the frame's
orthonormal rows E, A_hat and Gamma_hat: no G^{-1}, d_l G or coordinate
Christoffel symbol is formed, and nothing here solves against G.  Every
ratio divides through :func:`~minkaehler.geometry.relative`.
Since f + tT is affine in t, its first variations are closed form in the
two jets, and no deformed frame is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .charts import Jet2
from .errors import DomainError, PreconditionError
from .geometry import (
    TINY,
    PointFrame,
    _flat,
    _t,
    covariant_field_derivative,
    gnorm_op,
    parallel_residual,
    relative,
)
from .weierstrass import SeriesChart, chart_complex_structure


# -- variation fields ---------------------------------------------------------

def trivial_jet(jet: Jet2, skew, offset) -> Jet2:
    """The 2-jet of the trivial field T = D f + w, for a skew ambient matrix
    D and a constant vector w, on the points of f's jet ``jet``."""
    m1 = jet.ambient
    skew = np.asarray(skew, dtype=np.float64)
    offset = np.asarray(offset, dtype=np.float64)
    if skew.shape != (m1, m1):
        raise DomainError(f"skew matrix must be {m1}x{m1}")
    if np.abs(skew + skew.T).max() > 1e-12 * max(1.0, np.abs(skew).max()):
        raise DomainError("trivial fields need an antisymmetric matrix")
    if offset.shape != (m1,):
        raise DomainError(f"offset must have {m1} components")
    d1, d2 = ((a.reshape(-1, m1) @ skew.T).reshape(a.shape) for a in (jet.d1, jet.d2))  # one GEMM each
    return Jet2(jet.coords, jet.value @ skew.T + offset, d1, d2)


def conjugate_field(chart: SeriesChart) -> SeriesChart:
    """The conjugate of a family member, as a bending field along it: the
    member at theta + pi/2 of the same seed, for every theta, and for a
    stack of members the stack of their conjugates."""
    return SeriesChart(chart.seed, np.add(chart.theta, math.pi / 2))


def make_trivial(jet: Jet2, rng) -> Jet2:
    """The 2-jet of a random trivial field D f + w on the points of f's jet,
    with unit-size D and w drawn from ``rng``; :func:`trivial_jet` takes
    given ones."""
    m1 = jet.ambient
    raw = rng.standard_normal((m1, m1))
    skew = raw - raw.T
    skew *= 1.0 / max(np.linalg.norm(skew), TINY)
    offset = rng.standard_normal(m1)
    offset *= 1.0 / max(np.linalg.norm(offset), TINY)
    return trivial_jet(jet, skew, offset)


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
    def second_form(self) -> np.ndarray:
        """<T_ij, N>, the normal part of T's second partials."""
        return (_flat(self.jet.d2, 2) @ self.frame.normal[..., None]).reshape(self.jet.d2.shape[:-1])

    @cached_property
    def tau_hat(self) -> np.ndarray:
        """tau_hat = C^{-1} tau: s = E^T tau_hat is the tangent vector with
        <s, f_k> = tau_k."""
        return (self.frame.chol_inv @ self.tau[..., None])[..., 0]

    @cached_property
    def normal_variation(self) -> np.ndarray:
        """dN = -E^T tau_hat: the exact t-derivative at t = 0 of the unit
        normal of f + tT.  Differentiating <N, f_k + t T_k> = 0 fixes its
        tangential part, and |N| = 1 leaves no normal part."""
        return -(self.tau_hat[..., None, :] @ self.frame.tangent_rows)[..., 0, :]

    @cached_property
    def tstar_hat(self) -> np.ndarray:
        """T_hat = C^T T_* C^{-T} = E T_d1^T C^{-T}: the tangential part of
        dT in the orthonormal frame, T_* = G^{-1} <f_i, T_j>, read off E with
        no G^{-1}."""
        return (self.frame.tangent_rows @ _t(self.jet.d1)) @ _t(self.frame.chol_inv)

    @cached_property
    def B(self) -> np.ndarray:
        """B_hat by the covariant-Hessian formula, :func:`B_by_formula`."""
        return B_by_formula(self)

    @cached_property
    def B_norm(self) -> np.ndarray:
        """||B||_G = ||B_hat||_F per point."""
        return gnorm_op(self.B)

    @cached_property
    def bat_norm(self) -> np.ndarray:
        """||A T_*||_G per point, :func:`B_by_BAT`'s route to B."""
        return gnorm_op(B_by_BAT(self))


def bending_residual(v: Variation) -> np.ndarray:
    """max_ij |<T_i, f_j> + <T_j, f_i>| over the normalizing scale.

    Zero exactly when T is an infinitesimal bending at the point.
    """
    f1 = v.frame.jet.d1
    t1 = v.jet.d1
    sym = t1 @ _t(f1)
    sym = sym + _t(sym)
    scale = np.linalg.norm(f1, axis=(-2, -1)) * np.linalg.norm(t1, axis=(-2, -1))
    return relative(np.abs(sym).max(axis=(-2, -1)), scale)


def gauss_tangency_residual(v: Variation) -> np.ndarray:
    """max_j |<N, T_j>| / |T_j|: zero iff dT is everywhere tangent at the
    point, the first-order criterion for the variation to preserve the
    normal."""
    # a partial T_j = 0 has tau_j = 0 exactly, and reads 0
    return relative(np.abs(v.tau), np.linalg.norm(v.jet.d1, axis=-1)).max(axis=-1)


def normal_variation_residual(v: Variation) -> np.ndarray:
    """|dN|: the t-derivative of the unit normal along f + tT, which
    vanishes for Gauss-map-preserving variations."""
    return np.linalg.norm(v.normal_variation, axis=-1)


# -- the B tensor --------------------------------------------------------------
#
# Every route returns B as its matrix B_hat = C^T B C^{-T} in the orthonormal
# frame on a point stack, (..., d, d); B's lowered form b is C B_hat C^T.

def B_by_variation(v: Variation) -> np.ndarray:
    """B as dA, the exact t-derivative at t = 0 of the shape operator of
    f + tT, in the frame.  With dN from :attr:`Variation.normal_variation`,

        dG_ij = <f_i, T_j> + <T_i, f_j>,   dH_ij = <T_ij, N> + <f_ij, dN>,

    and A = G^{-1} H gives dA = G^{-1} (dH - dG A), whose frame matrix is
    C^{-1} dH C^{-T} - C^{-1} dG C^{-T} A_hat.  It differentiates the frame
    construction, not the covariant Hessian or A T_*."""
    frame, dN, Cinv = v.frame, v.normal_variation, v.frame.chol_inv
    dG = frame.jet.d1 @ _t(v.jet.d1)
    dG = dG + _t(dG)
    dH = v.second_form + (_flat(frame.jet.d2, 2) @ dN[..., None]).reshape(v.jet.d2.shape[:-1])
    return Cinv @ (dH @ _t(Cinv) - dG @ _t(Cinv) @ frame.shape_hat)


def _b_form(v: Variation) -> np.ndarray:
    """The lowered B form b_ij = <T_ij - Gamma^k_ij T_k, N> = <T_ij, N> -
    Gamma_hat_ij . tau_hat, from the frame's jet and T's."""
    gam = _flat(v.frame.christoffel_hat, 2, keep=0)
    return v.second_form - (v.tau_hat[..., None, :] @ gam).reshape(v.second_form.shape)


def B_by_formula(v: Variation) -> np.ndarray:
    """B_hat = C^{-1} b C^{-T}, b_ij = <T_ij - Gamma^k_ij T_k, N> the
    covariant Hessian of T paired with the normal: B raised to an operator,
    in the frame.  Exact from the 2-jets of f and T, and identically zero
    on trivial fields; :attr:`Variation.B` keeps it."""
    Cinv = v.frame.chol_inv
    return Cinv @ _b_form(v) @ _t(Cinv)


def B_by_BAT(v: Variation) -> np.ndarray:
    """B as the composition A T_* (valid for Gauss-map-preserving fields),
    A_hat T_hat in the frame."""
    return v.frame.shape_hat @ v.tstar_hat


def b_route_agreement(v: Variation) -> np.ndarray:
    """Largest pairwise G-norm deviation of the three B routes over the
    largest of their G-norms, unit-free."""
    ops = np.stack([B_by_variation(v), v.B, B_by_BAT(v)])
    scale = np.maximum.reduce([gnorm_op(ops[0]), v.B_norm, v.bat_norm])
    # routes (0, 1), (0, 2), (1, 2) pairwise; gnorm_op broadcasts over the route axis
    return relative(gnorm_op(ops[[0, 0, 1]] - ops[[1, 2, 2]]).max(axis=0), scale)


def bat_residual(v: Variation) -> np.ndarray:
    """||B - A T_*||_G / ||A T_*||_G with B from the Hessian formula."""
    return relative(gnorm_op(v.B - B_by_BAT(v)), v.bat_norm)


def tangential_covariant_derivative(v: Variation) -> np.ndarray:
    """The columns C^T (nabla_i T_*) e_j, as [0, ..., k, (i, j)], and at
    [1:] the three terms they sum, alike:

        C^T (nabla_i T_*) e_j = E T_ij - T_hat Gamma_hat_ij + tau_j C^{-1} H e_i,

    C^T of tangential(T_ij - Gamma^k_ij T_k) + tau_j A e_i, since f_* T_*
    e_j = T_j - tau_j N and d_i N = -f_*(A e_i): no G^{-1} and no d_i T_*."""
    frame = v.frame
    gam = _flat(frame.christoffel_hat, 2, keep=0)
    cols = np.empty((4,) + gam.shape)
    np.matmul(frame.tangent_rows, _t(_flat(v.jet.d2, 2)), out=cols[1])  # E T_ij
    np.matmul(v.tstar_hat, gam, out=cols[2])
    # [k, (i, j)] = (C^{-1} H)_ki tau_j, column i of C^{-1} H being C^T A e_i
    outer = _flat(frame.chol_inv @ frame.second_form, 2, keep=0)[..., None]
    np.matmul(outer, v.tau[..., None, :], out=cols[3].reshape(outer.shape[:-1] + (frame.d,)))
    np.subtract(cols[1], cols[2], out=cols[0])
    cols[0] += cols[3]
    return cols


def parallel_tangential_residual(v: Variation) -> np.ndarray:
    """Parallelism of the tangential part of dT in the induced connection:
    :func:`~minkaehler.geometry.parallel_residual` of
    :func:`tangential_covariant_derivative`."""
    return parallel_residual(tangential_covariant_derivative(v))


def B_with_codazzi_derivative(v: Variation) -> tuple:
    """(b, db): the B form b[..., j, k] (:func:`_b_form`) and db[..., i, j,
    k] = d_i b_jk less a part symmetric in (i, j, k), from the 2-jets of f
    and T; :func:`codazzi_residual` reads db antisymmetrized in (i, j),
    where that part cancels.  With s = -dN = E^T tau_hat, b_jk = <T_jk, N>
    - <f_jk, s>, and

        d_i b_jk = <T_ijk, N> - <f_ijk, s> + <T_jk, d_i N> - <f_jk, d_i s>,

    whose first two terms, the symmetric part, are left out: no third
    partial is read.  The rest takes d_i N = -E^T (C^{-1} H) e_i and

        <f_jk, d_i s> = Gamma_hat_jk . C^{-1} u_i + nu_i H_jk,

    the tangential and normal parts of d_i s, with u_il = <d_i s, f_l> =
    d_i tau_l - tau_hat . Gamma_hat_il and nu_i = <d_i s, N> = ((C^{-1}
    H)^T tau_hat)_i: no G^{-1}, d_l G or derivative of Gamma."""
    frame, t1, t2 = v.frame, v.jet.d1, v.jet.d2
    Cinv, gam = frame.chol_inv, _flat(frame.christoffel_hat, 2, keep=0)
    pair = frame.second_form.shape
    triple = pair + (frame.d,)
    X = Cinv @ frame.second_form  # column i = C^T A e_i
    dN = -(_t(X) @ frame.tangent_rows)  # row i = d_i N
    # u[i, l] = <T_il, N> + <T_l, d_i N> - tau_hat . Gamma_hat_il
    u = v.second_form + dN @ _t(t1) - (v.tau_hat[..., None, :] @ gam).reshape(pair)
    nu = (v.tau_hat[..., None, :] @ X)[..., 0, :]
    # db[..., i, j, k] = <T_jk, d_i N> - (C^{-1} u_i) . Gamma_hat_jk - nu_i H_jk
    db = (dN @ _t(_flat(t2, 2))).reshape(triple)
    db -= (u @ _t(Cinv) @ gam).reshape(triple)
    db -= nu[..., :, None, None] * frame.second_form[..., None, :, :]
    return _b_form(v), db


# Least scale of codazzi_b, as a fraction of the largest term of D
_CODAZZI_RESOLUTION = 1e-6


def codazzi_residual(frame: PointFrame, form, dform, norm=None) -> np.ndarray:
    """sqrt(sum_{i<j} ||C^{-1} D_ij.||^2) / ||C^{-1} b C^{-T}||_F, the
    G-norms of (nabla_i B) e_j - (nabla_j B) e_i over ||B||_G, B = G^{-1} b,
    for the symmetric form b and dform[..., i, j, k] = d_i b_jk, D from
    :func:`~minkaehler.geometry.covariant_field_derivative`; ``norm`` is
    ||B||_G when the caller keeps it.

    D is rounded to eps times its largest term, which exceeds ||B||_G by
    the chart's ratio of connection to curvature: at most 5 on the
    built-ins and drawn seeds, 6e11 on enneper over a disc of radius 1e12.
    So the scale is at least ``_CODAZZI_RESOLUTION`` times a bound on those
    terms: every such chart reads the same, and rounding reads about 1e-10
    at most."""
    Cinv = frame.chol_inv
    if norm is None:
        norm = gnorm_op(Cinv @ form @ _t(Cinv))
    D = covariant_field_derivative(frame, form, dform)
    iu, ju = np.triu_indices(frame.d, 1)
    # row (i, j) of C^{-1} D_ij. is D_ij. C^{-T}, summed in squares over the pairs i < j
    num = np.linalg.norm(D[..., iu, ju, :] @ _t(Cinv), axis=(-2, -1))
    # ||C^{-1}||_F (||d b||_F + ||b C^{-T}||_F ||Gamma_hat||_F) bounds every term of C^{-1} D
    gam, db = (_flat(np.asarray(a), 3, keep=0) for a in (frame.christoffel_hat, dform))
    fro = np.linalg.norm(Cinv, axis=(-2, -1)), np.linalg.norm(form @ _t(Cinv), axis=(-2, -1))
    terms = fro[0] * (np.sqrt(np.vecdot(db, db)) + fro[1] * np.sqrt(np.vecdot(gam, gam)))
    return relative(num, np.maximum(norm, _CODAZZI_RESOLUTION * terms))


_WEDGE_BLOCK = 256  # points per block of the linearized curvature identity's wedge


def fundamental_equation_residual(v: Variation) -> np.ndarray:
    """Linearized curvature identity: A X ^ B Y + B X ^ A Y = 0.

    Differentiating the curvature of the isometric family f + tT in t must
    give zero.  In the orthonormal frame the wedge (u ^ v) Z = <v, Z> u -
    <u, Z> v is the matrix u v^T - v u^T, and the residual is the root-sum-
    square over the frame's pairs i < j of ||A_hat e_i ^ B_hat e_j + B_hat
    e_i ^ A_hat e_j||_F, which no orthogonal change of frame moves, over
    ||A_hat||_F ||B_hat||_F: unit-free.  Its products hold d^4 numbers per
    point, so they run over blocks of ``_WEDGE_BLOCK`` points.
    """
    A, B = v.frame.shape_hat, v.B
    iu, ju = np.triu_indices(v.frame.d, 1)
    # (A e_i ^ B e_j) + (B e_i ^ A e_j) for the pair i < j is U V with the
    # columns U = [A e_i, -B e_j, B e_i, -A e_j] and the rows
    # V = [B e_j, A e_i, A e_j, B e_i]: one product per pair
    At, Bt = (_t(M).reshape((-1,) + M.shape[-2:]) for M in (A, B))
    sq = np.empty(len(At))
    for lo in range(0, len(At), _WEDGE_BLOCK):
        a, b = At[lo : lo + _WEDGE_BLOCK], Bt[lo : lo + _WEDGE_BLOCK]
        U = np.stack([a[:, iu], -b[:, ju], b[:, iu], -a[:, ju]], axis=-1)
        V = np.stack([b[:, ju], a[:, iu], a[:, ju], b[:, iu]], axis=-2)
        W = (U @ V).reshape(len(a), -1)
        sq[lo : lo + _WEDGE_BLOCK] = np.vecdot(W, W)
    return relative(np.sqrt(sq).reshape(A.shape[:-2]), v.frame.shape_norm * v.B_norm)


def nullity_annihilation_residual(v: Variation) -> np.ndarray:
    """||B_hat (I - Pi)||_F / ||B_hat||_F, with Pi of
    :attr:`~minkaehler.geometry.PointFrame.shape_range`: B on the relative
    nullity, relative to ||B||_G, with no eigenvector.  NaN where A has rank
    below 2."""
    B_hat = v.B
    return relative(gnorm_op(B_hat - B_hat @ v.frame.shape_range[0]), v.B_norm)


# -- rotation coefficient and classification ----------------------------------

@dataclass(frozen=True)
class RotationData:
    coefficient: np.ndarray   # (...)
    fit_residual: np.ndarray  # (...)


def rotation_coefficient(v: Variation) -> RotationData:
    """The rotation coefficient of T_* on the range of A, the plane
    orthogonal to the relative nullity: with Pi the projector onto it
    (:attr:`~minkaehler.geometry.PointFrame.shape_range`) and J_hat = C^T J
    C^{-T}, T_hat on the plane must be c times J_hat, the quarter turn, so
    c = tr(Pi J_hat^T T_hat) / 2 and the fit residual is ||Pi T_hat Pi - c
    Pi J_hat Pi||_F.  Both are NaN where A has rank below 2.
    """
    frame, T_hat, proj = v.frame, v.tstar_hat, v.frame.shape_range[0]
    J_hat = frame.in_frame(chart_complex_structure(frame.d))
    # tr(Pi J_hat^T T_hat) as the entrywise product of J_hat Pi^T and T_hat
    c = 0.5 * np.vecdot(_flat(J_hat @ _t(proj), 2, keep=0), _flat(T_hat, 2, keep=0))
    miss = _flat(proj @ (T_hat - c[..., None, None] * J_hat) @ proj, 2, keep=0)
    return RotationData(c, np.sqrt(np.vecdot(miss, miss)))


_BENDING_TOL = 1e-6
_TRIVIAL_THRESHOLD = 1e-6


@dataclass(frozen=True)
class TrivialityResult:
    trivial: bool
    score: float


def classify_triviality(v: Variation) -> TrivialityResult:
    """Decide whether a bending is trivial (B vanishes identically).

    Raises :class:`PreconditionError` if the field's bending residual
    exceeds ``_BENDING_TOL`` anywhere in the sample; the score is the
    largest ||B||_G / (||A||_G * sigma), both Frobenius G-norms, with sigma
    the largest ratio of the Frobenius norms of T's and f's first partials
    over the sample, and the bending is trivial when it is below
    ``_TRIVIAL_THRESHOLD``.  The score does not depend on the units, and a
    constant translation, with B = 0 and sigma = 0, scores 0.
    """
    frame = v.frame
    worst_bend = float(bending_residual(v).max())
    if worst_bend > _BENDING_TOL:
        raise PreconditionError(
            f"field is not an infinitesimal bending on the sample "
            f"(worst symmetrized residual {worst_bend:.3g} > {_BENDING_TOL:g})"
        )
    sizes = relative(np.linalg.norm(v.jet.d1, axis=(-2, -1)), np.linalg.norm(frame.jet.d1, axis=(-2, -1)))
    score = float(relative(v.B_norm, frame.shape_norm * sizes.max()).max())
    return TrivialityResult(bool(score < _TRIVIAL_THRESHOLD), score)


@dataclass(frozen=True)
class BendingDecomposition:
    coefficient: float
    skew: np.ndarray
    offset: np.ndarray
    residual: float


def recover_bending_decomposition(v: Variation, conjugate: Variation) -> BendingDecomposition:
    """Split T = c * conjugate + D f + w and recover (c, D, w), for a field
    and the chart's conjugate along one frame.

    The coefficient comes from projecting B(T) onto B(conjugate) in the
    Frobenius pairing over the sample (the trivial part contributes no B);
    the remaining trivial part is fit by least squares, each column of the
    design at unit norm, so the skew columns (in the units of f) and the
    offset columns (unit-free) weigh alike, and the residual is the worst
    pointwise misfit over the largest field norm: unit-free.
    """
    if conjugate.frame is not v.frame:
        raise DomainError("a decomposition needs the field and the conjugate along one frame")
    bt = _b_form(v)
    br = _b_form(conjugate)
    c = float(relative(np.sum(bt * br), np.sum(br * br)))
    m1 = v.frame.jet.ambient
    pairs = [(a, b) for a in range(m1) for b in range(a + 1, m1)]
    base = v.frame.jet.value.reshape(-1, m1)
    field = v.jet.value.reshape(-1, m1)
    resid = field - c * conjugate.jet.value.reshape(-1, m1)
    # rows [point, component]: entry D[a, b] = x contributes x * f[b] to
    # component a and -x * f[a] to component b; w adds to its own component
    design = np.zeros((len(base), m1, len(pairs) + m1))
    for col, (a, b) in enumerate(pairs):
        design[:, a, col] = base[:, b]
        design[:, b, col] = -base[:, a]
    design[:, :, len(pairs):] = np.eye(m1)
    design = design.reshape(-1, design.shape[-1])
    norms = np.linalg.norm(design, axis=0)
    norms[norms == 0.0] = 1.0  # a zero column (f = 0 on two axes) fits nothing either way
    sol, *_ = np.linalg.lstsq(design / norms, resid.ravel(), rcond=None)
    sol /= norms
    skew = np.zeros((m1, m1))
    for col, (a, b) in enumerate(pairs):
        skew[a, b] = sol[col]
        skew[b, a] = -sol[col]
    offset = sol[len(pairs):]
    misfit = resid - base @ skew.T - offset
    worst = relative(np.linalg.norm(misfit, axis=-1).max(), np.linalg.norm(field, axis=-1).max())
    return BendingDecomposition(coefficient=c, skew=skew, offset=offset, residual=float(worst))
