"""Hypersurface geometry from chart jets, over a stack of points.

Everything here is frame data computed pointwise but written once over any
leading point axes ``...``: induced metric, unit normal (the normalized
generalized cross product, in coordinate index order), scalar second
fundamental form, and every operator as its matrix in the orthonormal
frame: the shape operator, its rank and range, the Christoffel symbols read
off the same 2-jet, the Codazzi derivative of a symmetric form given its
exact coordinate derivative, the Laplace-Beltrami operator of a scalar
field given its exact jets, and residuals for the Kaehler checks
(anticommutation with J, parallelism of J).  A single point is the stack
with no leading axes.  Nothing here differences: every input is a jet.
Every relative residual of the verifier, here and in
:mod:`~minkaehler.bending` and :mod:`~minkaehler.suites`, divides by its
scale through :func:`relative`.

A :class:`PointFrame` holds one field, a jet stack; every other piece it
computes from the jet on first read and then keeps: G; the unit normal N,
the Cholesky factor C of G and C^{-1}, all three from one Householder QR of
the first partials over the whole stack, with no length taken and no
floor (:func:`~minkaehler.kernels.cross_columns`);
H and, in the orthonormal frame, E = C^{-1} f_*, A_hat = C^{-1} H C^{-T},
||A_hat||_F and Gamma_hat_ij = E f_ij = C^T Gamma_ij.  No G^{-1}, no
coordinate shape operator or Christoffel symbol and no d_l G is formed.
Nothing here factors G, solves against it or calls LAPACK once per point,
and only :func:`rank_and_nullity` decomposes (one ``eigvalsh``).
:func:`point_frame` takes an SVD of the first partials only at the points
C's bound cannot clear.

Every contraction of per-point tensors, here and in
:mod:`~minkaehler.bending`, is one batched ``matmul`` per point: a jet's
free index pair (i, j) or triple (i, j, l), or the (i, j) of Gamma_hat, is
flattened into one matrix axis (:func:`_flat`, a reshape, so a view of a
contiguous jet), and the product is reshaped or transposed back.  Nothing
calls ``einsum`` or broadcasts a product over an extra index axis; the
one exception is the wedge of the linearized curvature identity, one
product per point and basis pair.

Conventions: the metric is G_ij = <f_i, f_j> in chart coordinates, with G
= C C^T; the normal is the normalized generalized cross product of the
first partials in index order; H_ij = <f_ij, N>; A = G^{-1} H.  An
operator M (columns the images of the coordinate basis vectors) is held as
its matrix M_hat = C^T M C^{-T} in the G-orthonormal basis, the columns of
C^{-T} (:meth:`PointFrame.in_frame`); A_hat is symmetric.  Norms written
||.||_G use the induced metric: a vector's is its length in G, an
operator's the Frobenius norm of its frame matrix, sqrt(tr(G^{-1} M^T G
M)) (:func:`gnorm_op`).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import kernels
from .charts import Jet2
from .errors import (
    DomainError,
    IndeterminateRankWarning,
    NonImmersionPointError,
)

# Relative singular-value cutoff of a frame's regularity check.
_REGULARITY_RTOL = 1e-8
# A point whose Cholesky bound kappa on cond(first partials) is at most this,
# and whose metric diagonal lies in _CLEAR_DIAG, skips the regularity SVD.
_CLEAR_KAPPA = 1e6
_CLEAR_DIAG = (2.0**-500, 2.0**500)
# Relative cutoff below which an eigenvalue of A counts as zero, and below
# which |e2| / ||A_hat||_F^2 marks a shape operator of rank below 2.
_RANK_RTOL = 1e-7


def _t(M: np.ndarray) -> np.ndarray:
    """Transpose of the last two axes."""
    return np.swapaxes(M, -1, -2)


def _flat(a: np.ndarray, n: int, keep: int = 1) -> np.ndarray:
    """``a`` with n consecutive axes merged into one, ahead of its last
    ``keep`` axes: a free index pair or triple of a jet or of Gamma as one
    matrix axis.  A reshape, so a view of a contiguous array."""
    cut = a.ndim - keep
    return a.reshape(a.shape[: cut - n] + (-1,) + a.shape[cut:])


@dataclass(frozen=True)
class PointFrame:
    """Metric, normal and shape-operator data over a stack of chart points.

    The frame's one field is its jet; every other piece is computed from it
    on first read and then kept.  N, C and C^{-1} come from one Householder
    pass along the point axis, the frame's only factorization.  The ambient
    dimension may exceed d + 1 (a Gauss map's frame reads C^{-1} and
    Gamma_hat), but N is a normal only at d + 1.  N does not depend on the
    scale of f_*.  At a zero or exactly dependent row of f_* (some R_kk =
    0), N is zero and C^{-1} is not finite.
    """

    jet: Jet2

    @property
    def d(self) -> int:
        return self.jet.d

    @cached_property
    def metric(self) -> np.ndarray:  # (..., d, d) G_ij = <f_i, f_j>
        return self.jet.d1 @ _t(self.jet.d1)

    @cached_property
    def _factor(self) -> tuple:  # (N, C, C^{-1}), one Householder pass
        return kernels.cross_columns(self.jet.d1)

    @property
    def normal(self) -> np.ndarray:  # (..., d+1) unit normal N
        return self._factor[0]

    @property
    def chol(self) -> np.ndarray:  # C, with G = C C^T
        return self._factor[1]

    @property
    def chol_inv(self) -> np.ndarray:  # C^{-1}
        return self._factor[2]

    def in_frame(self, M) -> np.ndarray:
        """M_hat = C^T M C^{-T}: the matrix of the operator M in the
        orthonormal frame, for a constant M such as a complex structure."""
        return _t(self.chol) @ M @ _t(self.chol_inv)

    @cached_property
    def second_form(self) -> np.ndarray:  # (..., d, d) H_ij = <f_ij, N>
        return (_flat(self.jet.d2, 2) @ self.normal[..., None]).reshape(self.jet.d2.shape[:-1])

    @cached_property
    def tangent_rows(self) -> np.ndarray:  # (..., d, m) E = C^{-1} f_*, orthonormal rows
        return self.chol_inv @ self.jet.d1

    @cached_property
    def shape_hat(self) -> np.ndarray:  # (..., d, d) A_hat = C^{-1} H C^{-T} = C^T A C^{-T}
        return self.chol_inv @ self.second_form @ _t(self.chol_inv)

    @cached_property
    def shape_norm(self) -> np.ndarray:  # ||A||_G = ||A_hat||_F per point
        return gnorm_op(self.shape_hat)

    @cached_property
    def christoffel_hat(self) -> np.ndarray:  # [..., k, i, j] = (E f_ij)_k = (C^T Gamma_ij)_k
        return christoffel(self.jet, self.tangent_rows)

    @cached_property
    def shape_range(self) -> tuple:
        """(Pi, e2, ||A_hat||_F^2) with e1 = tr A_hat and e2 = (e1^2 -
        ||A_hat||_F^2) / 2: where A has rank 2, e2 is the product of its
        curvatures and Pi = (e1 A_hat - A_hat^2) / e2 the orthogonal
        projector onto its range.  Pi is NaN where the rank is below 2,
        ||A_hat||_F = 0 or |e2| <= _RANK_RTOL ||A_hat||_F^2."""
        S = self.shape_hat
        flat = _flat(S, 2, keep=0)
        sq = np.vecdot(flat, flat)
        e1 = np.trace(S, axis1=-2, axis2=-1)
        e2 = 0.5 * (e1 * e1 - sq)
        live = np.where(np.abs(e2) > _RANK_RTOL * sq, e2, np.nan)
        return (e1[..., None, None] * S - S @ S) / live[..., None, None], e2, sq


def _first(bad: np.ndarray):
    """Index of the first flagged point of a stack, or None."""
    return tuple(np.argwhere(bad)[0]) if bad.any() else None


def _cleared(frame: PointFrame) -> np.ndarray:
    """Points whose first partials the Cholesky factor of G alone shows to be
    independent: C is the triangular factor of a QR of the partials, not of
    G, so kappa = ||C||_F ||C^{-1}||_F bounds their condition number
    sigma_max / sigma_min directly, up to the rounding of C, and kappa at
    most ``_CLEAR_KAPPA`` with every diagonal entry of G inside
    ``_CLEAR_DIAG`` (G neither under- nor overflows) leaves two decades to
    the regularity cutoff.  At a zero or exactly dependent row C^{-1} is not
    finite, so kappa is NaN or infinite there and the point is not cleared.
    The norms are taken quietly, since an overflow in them is not the
    check's finding."""
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        diag = np.vecdot(frame.jet.d1, frame.jet.d1)  # G_ii, the squared row norms of f_*
        C, Cinv = _flat(frame.chol, 2, keep=0), _flat(frame.chol_inv, 2, keep=0)
        kappa2 = np.vecdot(C, C) * np.vecdot(Cinv, Cinv)
    lo, hi = _CLEAR_DIAG
    return (kappa2 <= _CLEAR_KAPPA**2) & ((diag >= lo) & (diag <= hi)).all(axis=-1)


def point_frame(jet: Jet2) -> PointFrame:
    """The frames of a jet stack, checked; raises
    :class:`NonImmersionPointError`, naming the coordinates of the first bad
    point, where the jet's value or partials are not finite, where the first
    partials are dependent (smallest singular value at most
    ``_REGULARITY_RTOL`` times the largest).

    The singular values are computed only at the points that the Cholesky
    bound of :func:`_cleared` cannot clear (among them every point whose
    factor is singular, the only points where N is zero); at every other
    point the check could not fire.
    """
    d1 = jet.d1
    if jet.ambient != jet.d + 1:
        raise DomainError(
            f"hypersurface frame needs ambient = d+1, got d={jet.d}, ambient={jet.ambient}"
        )
    finite = np.isfinite(jet.value).all(axis=-1) & np.isfinite(d1).all(axis=(-2, -1))
    k = _first(~(finite & np.isfinite(jet.d2).all(axis=(-3, -2, -1))))
    if k is not None:
        raise NonImmersionPointError(f"the jet at {jet.coords[k]} is not finite")
    frame = PointFrame(jet)
    unclear = ~_cleared(frame)
    if unclear.any():
        svals = np.zeros(d1.shape[:-1])
        svals[unclear] = np.linalg.svd(d1[unclear], compute_uv=False)
        k = _first(unclear & (svals[..., -1] <= _REGULARITY_RTOL * svals[..., 0]))
        if k is not None:
            raise NonImmersionPointError(
                f"first partials are dependent at {jet.coords[k]} "
                f"(singular values {svals[k][0]:.3g} .. {svals[k][-1]:.3g})"
            )
    return frame


def relative(num, scale) -> np.ndarray:
    """num / scale, the one division rule of every relative residual, for a
    scale that is a norm (never negative).  Where the scale is positive and
    finite it is the plain quotient.  Where the scale is 0 it reads 0 if
    num is 0, since the identity then holds exactly, and inf otherwise, a
    violation with nothing to measure it against.  Where the scale is not
    finite it reads NaN.  So a vanishing scale never hides a point: inf and
    NaN fail their row through the report's ``nonfinite`` count."""
    num, scale = np.asarray(num, dtype=np.float64), np.asarray(scale, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        q = num / scale
    return np.where(np.isfinite(scale), np.where((num == 0.0) & (scale == 0.0), 0.0, q), np.nan)


def gnorm_op(M: np.ndarray) -> np.ndarray:
    """Frobenius G-norm of an operator given by its frame matrix M_hat =
    C^T M C^{-T} (:meth:`PointFrame.in_frame`): the Frobenius norm of M_hat,
    sqrt(tr(G^{-1} M^T G M)).  It does not change under a homothety or a
    change of basis; it lies between the operator norm and sqrt(d) times
    it, and on a rank-2 operator with eigenvalues +-lambda it is sqrt(2)
    |lambda|.  M_hat may carry extra leading axes."""
    flat = _flat(M, 2, keep=0)
    return np.sqrt(np.vecdot(flat, flat))


@dataclass(frozen=True)
class RankResult:
    rank: np.ndarray            # (...) ints
    nullity: np.ndarray         # (...) ints
    indeterminate: np.ndarray   # (...) bools


def rank_and_nullity(frame: PointFrame) -> RankResult:
    """Rank of A = count of its eigenvalues, one ``eigvalsh`` of A_hat,
    whose modulus exceeds _RANK_RTOL times the largest.  Values inside the
    band [cutoff/10, cutoff*10] make the decision unreliable; that sets the
    flag and emits one :class:`IndeterminateRankWarning` for the stack.
    """
    absvals = np.abs(np.linalg.eigvalsh(frame.shape_hat))
    scale = absvals.max(axis=-1, keepdims=True, initial=0.0)
    cutoff = _RANK_RTOL * scale
    in_band = (absvals >= cutoff / 10.0) & (absvals <= cutoff * 10.0)
    indeterminate = in_band.any(axis=-1) & (scale[..., 0] > 0.0)
    if indeterminate.any():
        warnings.warn(
            f"shape-operator spectrum has values inside the rank-decision band "
            f"around {float(cutoff[indeterminate][0, 0]):.3g}; rank may be unreliable",
            IndeterminateRankWarning,
            stacklevel=2,
        )
    rank = (absvals > cutoff).sum(axis=-1)
    return RankResult(rank, frame.d - rank, indeterminate)


def rank_two_residual(frame: PointFrame) -> np.ndarray:
    """||A_hat^3 - e1 A_hat^2 + e2 A_hat||_F / ||A_hat||_F^3 =
    |e2| ||A_hat (I - Pi)||_F / ||A_hat||_F^3 (:attr:`PointFrame.shape_range`):
    zero exactly where A has rank 2, and 1.0 where its rank is below 2."""
    proj, e2, sq = frame.shape_range
    S = frame.shape_hat
    res = np.abs(e2) * np.linalg.norm(S - S @ proj, axis=(-2, -1)) / sq**1.5
    return np.where(np.isnan(res), 1.0, res)


def christoffel(jet: Jet2, rows: np.ndarray) -> np.ndarray:
    """Christoffel symbols in the orthonormal frame, Gamma_hat[..., k, i, j]
    = (E f_ij)_k = (C^T Gamma_ij)_k, from a 2-jet stack and its frame's
    orthonormal rows E = C^{-1} f_*: the tangential part of the second
    partials, with no G^{-1}; symmetric in (i, j) because the jet's second
    partials are."""
    d2 = jet.d2
    return (rows @ _t(_flat(d2, 2))).reshape(d2.shape[:-3] + (jet.d,) * 3)


def laplace_beltrami(frame: PointFrame, grad, hess) -> np.ndarray:
    """G^{ij} (d_i d_j gamma - Gamma^k_ij d_k gamma) on a frame stack of the
    chart, from the exact gradient (..., d) and Hessian (..., d, d) of the
    scalar gamma at the same points, as tr C^{-1} (hess - Gamma_hat .
    C^{-1} grad) C^{-T}: Gamma^k_ij d_k gamma = Gamma_hat_ij . C^{-1} grad."""
    gam, Cinv = frame.christoffel_hat, frame.chol_inv
    grad_hat = (Cinv @ grad[..., None])[..., 0]
    corr = hess - (grad_hat[..., None, :] @ _flat(gam, 2, keep=0)).reshape(gam.shape[:-3] + gam.shape[-2:])
    return np.trace(Cinv @ corr @ _t(Cinv), axis1=-2, axis2=-1)


def covariant_field_derivative(frame: PointFrame, form: np.ndarray, dform: np.ndarray) -> np.ndarray:
    """The Codazzi derivative D_ijk = (nabla_i b)_jk - (nabla_j b)_ik of a
    symmetric form b on the frame's points, from ``form`` b[..., j, k] and
    ``dform``[..., i, j, k] = d_i b_jk, either of which may broadcast: D_ijk
    = h_ijk - h_jik for the sum h_ijk of the two terms

        d_i b_jk + (b C^{-T} Gamma_hat_jk)_i,

    Gamma^l_jk b_il read off Gamma_hat with no G^{-1}.  All three are read
    in the orthonormal frame, C^{-1} on every index, as the columns [0, ...,
    c, (a, b)] of (nabla_a B) e_b - (nabla_b B) e_a, B = G^{-1} b, and at
    [1:] the two terms alike: the input of :func:`parallel_residual`.  D
    reads dform only antisymmetrized in (i, j), so a part of it symmetric in
    (i, j) does not count."""
    gam, Cinv = frame.christoffel_hat, frame.chol_inv
    CinvT = np.ascontiguousarray(_t(Cinv))  # a right factor that matmul reads fast
    cols = np.empty((3,) + gam.shape)  # D, then its two terms, each [..., i, j, k] until read
    cols[1] = dform
    # [..., i, (j, k)] = (b C^{-T} Gamma_hat_jk)_i
    np.matmul(form @ CinvT, _flat(gam, 2, keep=0), out=_flat(cols[2], 2, keep=0))
    # one term at a time, through cols[0] and one buffer of a term's size: no temporary outgrows a term
    part, hat = cols[0], np.empty(gam.shape)
    for term in cols[1:]:
        # C^{-1} on i, then on k, then on j, each one matmul over a flat index pair
        np.matmul(Cinv, _flat(term, 2, keep=0), out=_flat(part, 2, keep=0))  # [..., a, j, k]
        np.matmul(_flat(part, 2), CinvT, out=_flat(np.moveaxis(hat, -3, -1), 2))  # hat is [..., c, a, j]
        np.matmul(_flat(hat, 2), CinvT, out=_flat(term, 2))  # [..., c, a, b]
    np.add(cols[1], cols[2], out=hat)
    np.subtract(hat, np.swapaxes(hat, -2, -1), out=cols[0])
    return _flat(cols, 2, keep=0)


def parallel_residual(cols: np.ndarray) -> np.ndarray:
    """max_{i,j} ||(nabla_i S) e_j||_G over the largest G-norm of any of its
    terms on any column, so a homothety or a change of coordinate scale
    moves both alike.  ``cols[0]`` holds the columns C^T (nabla_i S) e_j,
    as [..., k, (i, j)], whose G-norms are Euclidean, and ``cols[1:]`` the
    terms alike; ``cols`` is squared in place.  A point where every term
    vanishes has a zero column sum too, and reads 0 (:func:`relative`)."""
    sq = np.square(cols, out=cols)
    # the sum over k as adds of whole slices, and the max over (i, j) with
    # (i, j) moved first: no reduction runs along the short rows of a point
    norms = sq[..., 0, :].copy()
    for k in range(1, sq.shape[-2]):
        norms += sq[..., k, :]
    worst = np.moveaxis(norms, -1, 0).copy().max(axis=0)  # the largest squared column norm
    return np.sqrt(relative(worst[0], worst[1:].max(axis=0)))


def minimality_residual(frame: PointFrame) -> np.ndarray:
    """|trace A_hat| / ||A_hat||_F, the Frobenius G-norm of :func:`gnorm_op`,
    unit-free; a point with A = 0 reads 0."""
    return relative(np.abs(np.trace(frame.shape_hat, axis1=-2, axis2=-1)), frame.shape_norm)


def anticommutation_residual(frame: PointFrame, J: np.ndarray) -> np.ndarray:
    """||A_hat J_hat + J_hat A_hat||_F / ||A_hat||_F, J_hat = C^T J C^{-T}:
    ||A J + J A||_G / ||A||_G, unit-free; a point with A = 0 reads 0."""
    A, J_hat = frame.shape_hat, frame.in_frame(J)
    return relative(gnorm_op(A @ J_hat + J_hat @ A), frame.shape_norm)


def parallel_J_residual(frame: PointFrame, J) -> np.ndarray:
    """:func:`parallel_residual` of a constant matrix J (a coordinate
    complex structure), from the frame's Gamma_hat and J_hat = C^T J C^{-T}:
    C^T (nabla_i J) e_j = sum_l Gamma_hat_il J_lj - J_hat Gamma_hat_ij, the
    Christoffel commutator with no G^{-1}."""
    J = np.asarray(J, dtype=np.float64)
    gam = frame.christoffel_hat
    cols = np.empty((3,) + gam.shape)  # nabla J, then its two terms, each [..., k, i, j]
    np.matmul(gam, J, out=cols[1])
    np.matmul(frame.in_frame(J), _flat(gam, 2, keep=0), out=_flat(cols[2], 2, keep=0))
    np.subtract(cols[1], cols[2], out=cols[0])
    return parallel_residual(_flat(cols, 2, keep=0))
