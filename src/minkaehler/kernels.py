"""Numeric kernels for the inner loops of verification sweeps.

``horner_many`` evaluates stacks of truncated power series at a batch of
points, stepping only over the coefficient columns that can change a bit
of the result (a polynomial seed's rows are zero past its degree).
``ldl_factors`` factors a stack of metrics G once, as L D L^T, and gives
the Cholesky factor, its inverse and G^{-1}; ``cross_columns`` gives the
cofactor normal vector of a hypersurface frame from one Householder QR.
Those two run every step along the point axis, moved last, so that each
arithmetic step is one vector operation over the whole stack, never one
LAPACK call per small matrix.  All are plain numpy.  ``BACKEND`` names the
numeric path for provenance records.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

BACKEND = "numpy"


def horner_many(coeffs: np.ndarray, dz: np.ndarray) -> np.ndarray:
    """Evaluate a stack of polynomials at a batch of complex offsets.

    ``coeffs`` has shape (rows, order+1), row r holding the Taylor
    coefficients of one series (index k multiplies dz**k).  ``dz`` has
    shape (points,).  Returns shape (rows, points).

    Trailing columns whose every entry is +0.0 bitwise are dropped, all but
    the first of them (and at least two columns are kept), so the first
    step is still (+0)·dz + c_last: at every finite offset the result is
    bitwise that of the full recurrence, signed zeros included (a
    non-finite offset gives a non-finite value either way).
    """
    coeffs = np.ascontiguousarray(coeffs, dtype=np.complex128)
    dz = np.ascontiguousarray(dz, dtype=np.complex128)
    live = np.flatnonzero(coeffs.view(np.uint64).reshape(coeffs.shape + (2,)).any(axis=(0, 2)))
    last = live[-1] if live.size else -1
    coeffs = coeffs[:, : max(last + 2, 2)]
    acc = np.repeat(coeffs[:, -1][:, None], dz.shape[0], axis=1)
    for k in range(coeffs.shape[1] - 2, -1, -1):
        acc *= dz
        acc += coeffs[:, k][:, None]
    return acc


def _points_last(a: np.ndarray, tail: tuple) -> np.ndarray:
    """(..., *tail) as (*tail, P): the leading axes flattened to one point
    axis, moved last (a view where it can be)."""
    return np.moveaxis(a.reshape((-1,) + tail), 0, -1)


def _points_first(a: np.ndarray, lead: tuple) -> np.ndarray:
    """The inverse of :func:`_points_last`, as a contiguous array."""
    return np.ascontiguousarray(np.moveaxis(a, -1, 0)).reshape(lead + a.shape[:-1])


def ldl_factors(G: np.ndarray) -> tuple:
    """(C, C^{-1}, G^{-1}) for each (d, d) slice of G (..., d, d), from one
    L D L^T factorization (L unit lower triangular, D diagonal).

    C = L D^{1/2} is the lower Cholesky factor, C^{-1} = D^{-1/2} L^{-1},
    and G^{-1} = L^{-T} D^{-1} L^{-1} takes no square root, so it carries
    the rounding of one division per pivot rather than that of C^{-T} C^{-1}.
    Only the lower triangle of G is read.  At a slice that is not positive
    definite some pivot is at most zero and the factors hold a NaN or an
    infinity there; no warning is raised, so a caller tests the factors.
    """
    G = np.asarray(G, dtype=np.float64)
    lead, d = G.shape[:-2], G.shape[-1]
    g = _points_last(G, (d, d))
    L = np.zeros(g.shape)
    Linv = np.zeros(g.shape)
    D = np.empty(g.shape[1:])
    with np.errstate(all="ignore"):
        for j in range(d):
            ld = L[j, :j] * D[:j]  # [k] = L_jk D_k, k < j
            D[j] = g[j, j] - (L[j, :j] * ld).sum(axis=0)
            L[j + 1 :, j] = (g[j + 1 :, j] - (L[j + 1 :, :j] * ld).sum(axis=1)) / D[j]
            L[j, j] = 1.0
            # row j of L^{-1} by forward substitution
            Linv[j, :j] = -(L[j, :j, None] * Linv[:j, :j]).sum(axis=0)
            Linv[j, j] = 1.0
        scaled = Linv / D[:, None]  # D^{-1} L^{-1}
        inv = np.zeros(g.shape)
        for k in range(d):  # (row k of L^{-1})^T (row k of D^{-1} L^{-1}), nonzero up to k
            inv[: k + 1, : k + 1] += Linv[k, : k + 1, None] * scaled[k, None, : k + 1]
        root = np.sqrt(D)
        L *= root  # C
        Linv /= root[:, None]  # C^{-1}
    return tuple(_points_first(a, lead) for a in (L, Linv, inv))


# sums of squares inside this range hold no square that over- or underflowed
# enough to move their square root
_SQUARES_SAFE = (2.0**-960, 2.0**960)


def _norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norms of the columns of x (n, P): the square root of the sum
    of squares, and at a column where that sum left ``_SQUARES_SAFE`` (an
    entry below about 1e-145 or above 1e145 may have lost its square)
    ``hypot`` over the entries, which squares nothing."""
    with np.errstate(over="ignore", under="ignore"):
        squares = (x * x).sum(axis=0)
    norm = np.sqrt(squares)
    lo, hi = _SQUARES_SAFE
    risky = ~((squares >= lo) & (squares <= hi))
    if risky.any():
        norm[risky] = np.hypot.reduce(x[:, risky], axis=0)
    return norm


def cross_columns(d1: np.ndarray) -> np.ndarray:
    """Generalized cross product of the rows of each (d, d+1) slice.

    ``d1`` has shape (..., d, d+1), over any leading axes; each slice holds
    d tangent vectors of R^{d+1}.  Component i of the result is the signed
    i-th cofactor of the (d+1, d) matrix M whose columns are those vectors,
    so that dot(result, u) = det([u | v_1 | ... | v_d]) for every u; for
    (e1, e2) in R^3 this gives e3.  Returns shape (..., d+1); the result is
    not normalized.  Any other shape raises :class:`DomainError`.

    With a Householder QR, M = H_1 ... H_d R, the cofactor vector is
    R_11 ... R_dd H_1 ... H_d e_{d+1}: each of the d reflections turns the
    orientation once, as does moving u past the d columns.  Each reflection
    is built as LAPACK's ``dlarfg`` builds it, from a column norm that
    :func:`_norms` guards against squares that under- or overflow.  A
    column that is zero where its reflection acts gives R_kk = 0, so the
    result is an exact zero, never a NaN.
    """
    d1 = np.asarray(d1, dtype=np.float64)
    if d1.ndim < 2 or d1.shape[-1] != d1.shape[-2] + 1:
        raise DomainError(f"need d vectors with d+1 ambient dims, got shape {d1.shape}")
    lead, (d, amb) = d1.shape[:-2], d1.shape[-2:]
    cols = _points_last(d1, (d, amb)).copy()  # cols[j]: column j of M, over the points
    betas, reflectors = [], []
    for k in range(d):
        x = cols[k, k:]
        norm = _norms(x)
        beta = -np.copysign(norm, x[0])  # R_kk
        shift = x[0] - beta
        shift[shift == 0.0] = 1.0  # a zero column: v = e_1 and R_kk = 0
        v = x[1:] / shift  # v = (1, v[1:]) with H_k = I - tau v v^T
        tau = 1.0 + np.abs(x[0]) / np.where(norm > 0.0, norm, 1.0)
        rest = cols[k + 1 :, k:]
        w = rest[:, 0] + (v * rest[:, 1:]).sum(axis=1)
        w *= tau
        rest[:, 0] -= w
        rest[:, 1:] -= v * w[:, None]
        betas.append(beta)
        reflectors.append((v, tau))
    y = np.zeros(cols.shape[1:])
    y[-1] = 1.0
    for k in range(d - 1, -1, -1):
        v, tau = reflectors[k]
        part = y[k:]
        w = part[0] + (v * part[1:]).sum(axis=0)
        w *= tau
        part[0] -= w
        part[1:] -= v * w
    with np.errstate(over="ignore", invalid="ignore"):  # as the cofactors themselves do
        y *= np.prod(betas, axis=0)
    return _points_first(y, lead)
