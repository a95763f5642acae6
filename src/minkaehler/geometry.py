"""Hypersurface geometry from chart jets, over a stack of points.

Everything here is frame data computed pointwise but written once over any
leading point axes ``...``: induced metric, unit normal from the
generalized cross product (in coordinate index order), scalar second
fundamental form, shape operator with its eigen-data, rank and relative
nullity, Christoffel symbols read off the same 2-jet, the covariant
derivative of a (1,1)-field given its exact coordinate derivative, the
Laplace-Beltrami operator of a scalar field given its exact jets, and
residuals for the Kaehler checks (anticommutation with J, parallelism of
J) and the Codazzi symmetry.  A single point is the stack with no leading
axes.  Nothing here differences: every input is a jet.

A :class:`PointFrame` holds one field, a jet stack; every other piece it
computes from the jet on first read and then keeps: G, G^{-1}, the
Cholesky factor L of G and L^{-1}, d_l G, N, H, A, ||A||_G, the
Christoffel symbols and the eigen-data of A.  Every residual that reads
the frame applies the stored inverses (batched matmuls); nothing here
solves against G, and only a reader of the eigen-data decomposes A.

Conventions: the metric is G_ij = <f_i, f_j> in chart coordinates; the
normal is the normalized generalized cross product of the first partials
in index order; H_ij = <f_ij, N>; A = G^{-1} H.  Eigenvalues of A are
computed through the symmetric pencil (H, G) so they are real and the
eigenvectors are G-orthonormal; both are sorted by descending absolute
value.  Norms written ||.||_G use the induced metric.
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

# Floor for norms used as divisors.
TINY = 1e-300
# Relative singular-value cutoff of a frame's regularity check.
_REGULARITY_RTOL = 1e-8
# Relative cutoff below which an eigenvalue of A counts as zero.
_RANK_RTOL = 1e-7


def _t(M: np.ndarray) -> np.ndarray:
    """Transpose of the last two axes."""
    return np.swapaxes(M, -1, -2)


def generalized_cross(vectors: np.ndarray) -> np.ndarray:
    """Cross product of d vectors in R^{d+1} (rows of ``vectors``, over any
    leading axes).

    Defined by <result, u> = det([u | v_1 | ... | v_d]); for (e1, e2) in
    R^3 this gives e3.  Not normalized.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim < 2 or vectors.shape[-1] != vectors.shape[-2] + 1:
        raise DomainError(f"need d vectors of R^(d+1), got shape {vectors.shape}")
    flat = vectors.reshape((-1,) + vectors.shape[-2:])
    return kernels.cross_columns(flat).reshape(vectors.shape[:-2] + vectors.shape[-1:])


@dataclass(frozen=True)
class PointFrame:
    """Metric, normal and shape-operator data over a stack of chart points.

    The frame's one field is its jet; every other piece is computed from it
    on first read and then kept.  G and its lower Cholesky factor L are
    inverted once each.  A reader that needs only G, N and A (a family
    member) never takes L.
    """

    jet: Jet2

    @property
    def d(self) -> int:
        return self.jet.d

    @cached_property
    def metric(self) -> np.ndarray:  # (..., d, d) G_ij = <f_i, f_j>
        return self.jet.d1 @ _t(self.jet.d1)

    @cached_property
    def metric_inv(self) -> np.ndarray:  # G^{-1}
        return np.linalg.inv(self.metric)

    @cached_property
    def chol(self) -> np.ndarray:  # L, with G = L L^T
        return np.linalg.cholesky(self.metric)

    @cached_property
    def chol_inv(self) -> np.ndarray:  # L^{-1}
        return np.linalg.inv(self.chol)

    @cached_property
    def metric_derivative(self) -> np.ndarray:  # [..., l, k, q] = d_l G_kq
        dG = self.jet.d2 @ _t(self.jet.d1)[..., None, :, :]  # <f_lk, f_q>
        return dG + _t(dG)

    @cached_property
    def _cross(self) -> tuple:  # the unnormalized normal and its length
        raw = generalized_cross(self.jet.d1)
        return raw, np.linalg.norm(raw, axis=-1, keepdims=True)

    @cached_property
    def normal(self) -> np.ndarray:  # (..., d+1) unit normal N
        raw, length = self._cross
        return raw / length

    @cached_property
    def second_form(self) -> np.ndarray:  # (..., d, d) H_ij = <f_ij, N>
        return (self.jet.d2 @ self.normal[..., None, :, None])[..., 0]

    @cached_property
    def shape_operator(self) -> np.ndarray:  # (..., d, d) A = G^{-1} H
        return self.metric_inv @ self.second_form

    @cached_property
    def shape_norm(self) -> np.ndarray:  # ||A||_G per point
        return gnorm_op(self, self.shape_operator)

    @cached_property
    def christoffel(self) -> np.ndarray:  # Gamma[..., k, i, j]
        return christoffel(self.jet, self.metric_inv)

    @cached_property
    def _eigen(self) -> tuple:
        # through the symmetric pencil (H, G): real spectrum, G-orthonormal
        # eigenvectors, both sorted by descending |eigenvalue|
        reduced = self.chol_inv @ self.second_form @ _t(self.chol_inv)
        reduced = 0.5 * (reduced + _t(reduced))
        vals, q = np.linalg.eigh(reduced)
        vecs = _t(self.chol_inv) @ q
        order = np.argsort(-np.abs(vals), axis=-1, kind="stable")
        return (
            np.take_along_axis(vals, order, axis=-1),
            np.take_along_axis(vecs, order[..., None, :], axis=-1),
        )

    @property
    def eigenvalues(self) -> np.ndarray:
        """(..., d) real eigenvalues of A, sorted by descending |.|."""
        return self._eigen[0]

    @property
    def eigenvectors(self) -> np.ndarray:
        """(..., d, d) G-orthonormal eigenvector columns, in eigenvalue order."""
        return self._eigen[1]


def _first(bad: np.ndarray):
    """Index of the first flagged point of a stack, or None."""
    return tuple(np.argwhere(bad)[0]) if bad.any() else None


def point_frame(jet: Jet2) -> PointFrame:
    """The frames of a jet stack, checked; raises
    :class:`NonImmersionPointError`, naming the coordinates of the first bad
    point, where the jet's value or partials are not finite, where the first
    partials are dependent (smallest singular value at most
    ``_REGULARITY_RTOL`` times the largest) and where the normal degenerates.
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
    svals = np.linalg.svd(d1, compute_uv=False)
    k = _first(svals[..., -1] <= _REGULARITY_RTOL * svals[..., 0])
    if k is not None:
        raise NonImmersionPointError(
            f"first partials are dependent at {jet.coords[k]} "
            f"(singular values {svals[k][0]:.3g} .. {svals[k][-1]:.3g})"
        )
    frame = PointFrame(jet)
    k = _first(frame._cross[1][..., 0] <= TINY)
    if k is not None:
        raise NonImmersionPointError(f"degenerate normal at {jet.coords[k]}")
    return frame


def gnorm_op(frame: PointFrame, M: np.ndarray) -> np.ndarray:
    """Operator norm of an endomorphism M in the G-geometry of the frame:
    the spectral norm of L^T M L^{-T}, taken as that of its transpose
    K = L^{-1} M^T L, i.e. the square root of the largest eigenvalue of
    K K^T.  M may carry extra leading axes."""
    K = frame.chol_inv @ _t(M) @ frame.chol
    return np.sqrt(np.linalg.eigvalsh(K @ _t(K))[..., -1])


def gnorm_columns(chol: np.ndarray, V: np.ndarray) -> np.ndarray:
    """||v||_G of every column v of ``V``, via the Cholesky factor of G."""
    return np.linalg.norm(_t(chol) @ V, axis=-2)


@dataclass(frozen=True)
class RankResult:
    rank: np.ndarray            # (...) ints
    nullity: np.ndarray         # (...) ints
    null_mask: np.ndarray       # (..., d) which eigenvector columns span the nullity
    indeterminate: np.ndarray   # (...) bools


def rank_and_nullity(frame: PointFrame) -> RankResult:
    """Rank of A = count of its G-singular values above _RANK_RTOL * largest.

    For the G-self-adjoint shape operator the singular values in the
    induced geometry are |eigenvalues|, so the relative nullity is spanned
    by the eigenvector columns that ``null_mask`` marks.  Values inside the
    band [cutoff/10, cutoff*10] make the decision unreliable; that sets the
    flag and emits one :class:`IndeterminateRankWarning` for the stack.
    """
    absvals = np.abs(frame.eigenvalues)
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
    keep = absvals > cutoff
    rank = keep.sum(axis=-1)
    return RankResult(rank, frame.d - rank, ~keep, indeterminate)


def christoffel(jet: Jet2, metric_inv: np.ndarray) -> np.ndarray:
    """Christoffel symbols Gamma[..., k, i, j] from a 2-jet stack and the
    inverse of its metric.

    Gamma^k_ij = G^{kl} <f_ij, f_l>, the tangential part of the second
    partials; symmetric in (i, j) because the jet's second partials are.
    """
    d = jet.d
    lead = jet.d1.shape[:-2]
    proj = np.einsum("...ijc,...lc->...lij", jet.d2, jet.d1).reshape(lead + (d, d * d))
    return (metric_inv @ proj).reshape(lead + (d, d, d))


def laplace_beltrami(jet: Jet2, grad, hess) -> np.ndarray:
    """G^{ij} (d_i d_j gamma - Gamma^k_ij d_k gamma) on a 2-jet stack of the
    chart, from the exact gradient (..., d) and Hessian (..., d, d) of the
    scalar gamma at the same points."""
    Ginv = np.linalg.inv(jet.d1 @ _t(jet.d1))
    corr = hess - np.einsum("...kij,...k->...ij", christoffel(jet, Ginv), grad)
    return np.trace(Ginv @ corr, axis1=-2, axis2=-1)


def covariant_field_derivative(gam: np.ndarray, S: np.ndarray, dS: np.ndarray) -> np.ndarray:
    """Covariant derivative of a (1,1)-tensor field; returns [..., i, k, j].

    ``gam`` holds the Christoffels [..., k, i, l], ``S`` the operator matrix
    S[..., k, j] (column j = image of basis vector j) and ``dS[..., i]`` its
    exact coordinate derivative d_i S:
    (nabla_i S)^k_j = d_i S^k_j + Gamma^k_il S^l_j - Gamma^l_ij S^k_l.
    """
    gam_i = np.swapaxes(gam, -3, -2)  # [..., i, k, l] = Gamma^k_il
    S = S[..., None, :, :]
    return dS + gam_i @ S - S @ gam_i


def minimality_residual(frame: PointFrame) -> np.ndarray:
    """|trace A| / ||A||_G, with the norm floored at 1e-14."""
    scale = np.maximum(frame.shape_norm, 1e-14)
    return np.abs(np.trace(frame.shape_operator, axis1=-2, axis2=-1)) / scale


def anticommutation_residual(frame: PointFrame, J: np.ndarray) -> np.ndarray:
    """||A J + J A||_G / ||A||_G (zero shape operator gives zero)."""
    A = frame.shape_operator
    num = gnorm_op(frame, A @ J + J @ A)
    den = frame.shape_norm
    quiet = (den <= 1e-14) & (num <= 1e-14)
    return np.where(quiet, 0.0, num / np.maximum(den, 1e-14))


def parallel_J_residual(frame: PointFrame, J) -> np.ndarray:
    """max_{i,j} ||(nabla_i J) e_j||_G / sqrt(d) for a constant matrix J
    (a coordinate complex structure): only the Christoffel commutator
    contributes."""
    J = np.asarray(J, dtype=np.float64)
    nab = covariant_field_derivative(frame.christoffel, J, 0.0)
    norms = gnorm_columns(frame.chol[..., None, :, :], nab)
    return norms.max(axis=(-2, -1)) / np.sqrt(frame.d)


def codazzi_residual(frame: PointFrame, S, dS) -> np.ndarray:
    """max_{i,j} ||(nabla_i S) e_j - (nabla_j S) e_i||_G / ||S||_G for the
    operator S on the frame's points and its exact coordinate derivatives
    dS[..., i] = d_i S."""
    nab = np.swapaxes(covariant_field_derivative(frame.christoffel, S, dS), -2, -1)
    iu, ju = np.triu_indices(frame.d, 1)
    diff = nab[..., iu, ju, :] - nab[..., ju, iu, :]  # (..., pairs, k), i < j
    norms = np.linalg.norm(diff @ frame.chol, axis=-1)  # ||L^T v|| = ||v^T L||
    return norms.max(axis=-1, initial=0.0) / np.maximum(gnorm_op(frame, S), 1e-14)
