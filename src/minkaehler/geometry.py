"""Pointwise hypersurface geometry from chart jets.

Everything here is frame data at a single point: induced metric, unit
normal from the generalized cross product (in coordinate index order),
scalar second fundamental form, shape operator with its eigen-data, rank
and relative nullity, Christoffel symbols read off the same 2-jet, the
covariant derivative of a (1,1)-field given its exact coordinate
derivative, the Laplace-Beltrami operator on scalar fields, and residuals
for the Kaehler checks (anticommutation with J, parallelism of J) and the
Codazzi symmetry.

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

import numpy as np

from . import kernels
from .charts import FD_STEP_D1, FD_STEP_D2, ImmersionChart, Jet2
from .errors import (
    DomainError,
    IndeterminateRankWarning,
    NonImmersionPointError,
)

# Floor for norms used as divisors.
TINY = 1e-300


def generalized_cross(vectors: np.ndarray) -> np.ndarray:
    """Cross product of d vectors in R^{d+1} (rows of ``vectors``).

    Defined by <result, u> = det([u | v_1 | ... | v_d]); for (e1, e2) in
    R^3 this gives e3.  Not normalized.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2 or vectors.shape[1] != vectors.shape[0] + 1:
        raise DomainError(f"need d vectors of R^(d+1), got shape {vectors.shape}")
    return kernels.cross_columns(vectors[None])[0]


@dataclass(frozen=True)
class PointFrame:
    """Metric, normal, and shape-operator data at one chart point."""

    jet: Jet2
    metric: np.ndarray          # (d, d)
    chol: np.ndarray            # lower Cholesky factor of the metric
    normal: np.ndarray          # (d+1,) unit normal
    second_form: np.ndarray     # (d, d) H_ij
    shape_operator: np.ndarray  # (d, d) A = G^{-1} H
    eigenvalues: np.ndarray     # (d,) real, sorted by descending |.|
    eigenvectors: np.ndarray    # (d, d) columns, G-orthonormal, matching order

    @property
    def d(self) -> int:
        return self.metric.shape[0]


def point_frame(jet: Jet2, regularity_rtol: float = 1e-8) -> PointFrame:
    """Assemble the frame at a jet; raises if the point is not an immersion.

    ``regularity_rtol`` is the relative singular-value cutoff below which
    the first partials count as dependent.
    """
    d1 = jet.d1
    if jet.ambient != jet.d + 1:
        raise DomainError(
            f"hypersurface frame needs ambient = d+1, got d={jet.d}, ambient={jet.ambient}"
        )
    svals = np.linalg.svd(d1, compute_uv=False)
    if svals[-1] <= regularity_rtol * svals[0]:
        raise NonImmersionPointError(
            f"first partials are dependent at {jet.coords} "
            f"(singular values {svals[0]:.3g} .. {svals[-1]:.3g})"
        )
    raw = kernels.cross_columns(d1[None].astype(np.float64))[0]
    nrm = np.linalg.norm(raw)
    if nrm <= TINY:
        raise NonImmersionPointError(f"degenerate normal at {jet.coords}")
    normal = raw / nrm
    metric = d1 @ d1.T
    second = jet.d2 @ normal
    chol = np.linalg.cholesky(metric)
    shape_op = np.linalg.solve(metric, second)
    # eigen-data through the symmetric pencil (H, G): real spectrum,
    # G-orthonormal eigenvectors
    reduced = np.linalg.solve(chol, np.linalg.solve(chol, second).T).T
    reduced = 0.5 * (reduced + reduced.T)
    vals, q = np.linalg.eigh(reduced)
    vecs = np.linalg.solve(chol.T, q)
    order = np.argsort(-np.abs(vals), kind="stable")
    return PointFrame(
        jet=jet,
        metric=metric,
        chol=chol,
        normal=normal,
        second_form=second,
        shape_operator=shape_op,
        eigenvalues=vals[order],
        eigenvectors=vecs[:, order],
    )


def frame_at(chart: ImmersionChart, p) -> PointFrame:
    return point_frame(chart.jet(p))


def gnorm_vec(chol: np.ndarray, v: np.ndarray) -> float:
    """||v||_G via the Cholesky factor of G."""
    return float(np.linalg.norm(chol.T @ v))


def gnorm_op(chol: np.ndarray, M: np.ndarray) -> float:
    """Operator norm of an endomorphism in the G-geometry."""
    conj = chol.T @ M @ np.linalg.solve(chol, np.eye(chol.shape[0])).T
    return float(np.linalg.norm(conj, 2))


@dataclass(frozen=True)
class RankResult:
    rank: int
    nullity: int
    nullity_basis: np.ndarray  # (d, nullity) columns, G-orthonormal
    indeterminate: bool


def rank_and_nullity(frame: PointFrame, rel_tol: float = 1e-7) -> RankResult:
    """Rank of A = count of its G-singular values above rel_tol * largest.

    For the G-self-adjoint shape operator the singular values in the
    induced geometry are |eigenvalues|.  Values inside the band
    [cutoff/10, cutoff*10] make the decision unreliable; that emits an
    :class:`IndeterminateRankWarning` and sets the flag.
    """
    absvals = np.abs(frame.eigenvalues)
    scale = float(absvals.max(initial=0.0))
    if scale == 0.0:
        return RankResult(0, frame.d, frame.eigenvectors.copy(), False)
    cutoff = rel_tol * scale
    in_band = (absvals >= cutoff / 10.0) & (absvals <= cutoff * 10.0)
    indeterminate = bool(in_band.any())
    if indeterminate:
        warnings.warn(
            f"shape-operator spectrum has values inside the rank-decision band "
            f"around {cutoff:.3g}; rank may be unreliable",
            IndeterminateRankWarning,
            stacklevel=2,
        )
    keep = absvals > cutoff
    rank = int(keep.sum())
    basis = frame.eigenvectors[:, ~keep]
    return RankResult(rank, frame.d - rank, basis, indeterminate)


def metric_of(chart: ImmersionChart, p) -> np.ndarray:
    """Induced metric G_ij = <f_i, f_j> at p."""
    d1 = chart.jet(np.asarray(p, dtype=np.float64)).d1
    return d1 @ d1.T


def christoffel(chart: ImmersionChart, p) -> np.ndarray:
    """Christoffel symbols Gamma[k, i, j] from the 2-jet at p.

    Gamma^k_ij = G^{kl} <f_ij, f_l>, the tangential part of the second
    partials; symmetric in (i, j) because the jet's second partials are.
    """
    jet = chart.jet(np.asarray(p, dtype=np.float64))
    d = jet.d
    proj = np.einsum("ijc,lc->lij", jet.d2, jet.d1).reshape(d, d * d)
    return np.linalg.solve(jet.d1 @ jet.d1.T, proj).reshape(d, d, d)


def scalar_fd_jet(fn, p, h1=None, h2=None):
    """(value, gradient, hessian) of a scalar field by central differences."""
    p = np.asarray(p, dtype=np.float64)
    d = p.size
    scale = np.maximum(1.0, np.abs(p))
    h1 = scale * (FD_STEP_D1 if h1 is None else h1)
    h2 = scale * (FD_STEP_D2 if h2 is None else h2)
    f0 = float(fn(p))
    grad = np.empty(d)
    hess = np.empty((d, d))
    for i in range(d):
        e = np.zeros(d)
        e[i] = 1.0
        grad[i] = (fn(p + h1[i] * e) - fn(p - h1[i] * e)) / (2 * h1[i])
        hess[i, i] = (fn(p + h2[i] * e) - 2 * f0 + fn(p - h2[i] * e)) / h2[i] ** 2
    for i in range(d):
        ei = np.zeros(d)
        ei[i] = 1.0
        for j in range(i + 1, d):
            ej = np.zeros(d)
            ej[j] = 1.0
            v = (
                fn(p + h2[i] * ei + h2[j] * ej)
                - fn(p + h2[i] * ei - h2[j] * ej)
                - fn(p - h2[i] * ei + h2[j] * ej)
                + fn(p - h2[i] * ei - h2[j] * ej)
            ) / (4 * h2[i] * h2[j])
            hess[i, j] = v
            hess[j, i] = v
    return f0, grad, hess


def laplace_beltrami(chart: ImmersionChart, gamma, p, h=None) -> float:
    """G^{ij} (d_i d_j gamma - Gamma^k_ij d_k gamma) with FD jets of gamma.

    ``h`` scales the second-difference step (default eps^(1/4) per
    coordinate); the Christoffel symbols come from the chart's 2-jet.
    """
    p = np.asarray(p, dtype=np.float64)
    _, grad, hess = scalar_fd_jet(gamma, p, h2=h)
    gam = christoffel(chart, p)
    ginv = np.linalg.inv(metric_of(chart, p))
    corr = hess - np.einsum("kij,k->ij", gam, grad)
    return float(np.einsum("ij,ij->", ginv, corr))


def covariant_field_derivative(chart: ImmersionChart, S, dS, p) -> np.ndarray:
    """Covariant derivative of a (1,1)-tensor field at p; returns [i, k, j].

    ``S`` is the operator matrix S[k, j] at p (column j = image of basis
    vector j) and ``dS[i]`` its exact coordinate derivative d_i S there:
    (nabla_i S)^k_j = d_i S^k_j + Gamma^k_il S^l_j - Gamma^l_ij S^k_l.
    """
    gam_i = christoffel(chart, p).transpose(1, 0, 2)  # [i, k, l] = Gamma^k_il
    return dS + gam_i @ S - S @ gam_i


def minimality_residual(frame: PointFrame) -> float:
    """|trace A| / ||A||_G, with the norm floored at 1e-14."""
    scale = max(gnorm_op(frame.chol, frame.shape_operator), 1e-14)
    return abs(float(np.trace(frame.shape_operator))) / scale


def anticommutation_residual(frame: PointFrame, J: np.ndarray) -> float:
    """||A J + J A||_G / ||A||_G (zero shape operator gives zero)."""
    A = frame.shape_operator
    num = gnorm_op(frame.chol, A @ J + J @ A)
    den = gnorm_op(frame.chol, A)
    if den <= 1e-14:
        return 0.0 if num <= 1e-14 else num / max(den, 1e-14)
    return num / den


def parallel_J_residual(chart: ImmersionChart, J, p) -> float:
    """max_{i,j} ||(nabla_i J) e_j||_G / sqrt(d) for a constant matrix J
    (a coordinate complex structure): only the Christoffel commutator
    contributes."""
    p = np.asarray(p, dtype=np.float64)
    d = chart.d
    nab = covariant_field_derivative(chart, np.asarray(J, dtype=np.float64), np.zeros((d, d, d)), p)
    frame = point_frame(chart.jet(p))
    worst = 0.0
    for i in range(d):
        for j in range(d):
            worst = max(worst, gnorm_vec(frame.chol, nab[i, :, j]))
    return worst / np.sqrt(d)


def codazzi_residual(chart: ImmersionChart, S, dS, p) -> float:
    """max_{i,j} ||(nabla_i S) e_j - (nabla_j S) e_i||_G / ||S||_G for the
    operator S at p and its exact coordinate derivatives dS[i] = d_i S."""
    p = np.asarray(p, dtype=np.float64)
    nab = covariant_field_derivative(chart, S, dS, p)
    frame = point_frame(chart.jet(p))
    den = gnorm_op(frame.chol, S)
    worst = 0.0
    for i in range(chart.d):
        for j in range(i + 1, chart.d):
            worst = max(worst, gnorm_vec(frame.chol, nab[i, :, j] - nab[j, :, i]))
    return worst / max(den, 1e-14)


def weingarten_residual(chart: ImmersionChart, p) -> float:
    """FD cross-check of dN(e_i) = -f_*(A e_i); relative to |A e_i|."""
    p = np.asarray(p, dtype=np.float64)
    hs = FD_STEP_D1 * np.maximum(1.0, np.abs(p))
    fr = point_frame(chart.jet(p))
    worst = 0.0
    for i in range(chart.d):
        e = np.zeros(chart.d)
        e[i] = hs[i]
        Np = point_frame(chart.jet(p + e)).normal
        Nm = point_frame(chart.jet(p - e)).normal
        dN = (Np - Nm) / (2 * hs[i])
        push = fr.jet.d1.T @ fr.shape_operator[:, i]
        worst = max(worst, np.linalg.norm(dN + push) / (1.0 + np.linalg.norm(push)))
    return worst
