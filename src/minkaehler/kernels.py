"""Numeric kernels for the inner loops of verification sweeps.

``horner_many`` evaluates stacks of truncated power series at a batch of
points, stepping only over the coefficient columns that can change a bit
of the result (a polynomial seed's rows are zero past its degree).
``cross_columns`` factors a stack of tangent frames f_* by one Householder
QR, for the cofactor normal and the Cholesky factor of G = f_* f_*^T with
its inverse, never forming G; each of its steps is one vector operation
along the point axis, moved last, never one LAPACK call per small matrix.
All are plain numpy.  ``BACKEND`` names the numeric path for provenance
records.
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


# sums of squares inside this range hold no square that over- or underflowed
# enough to move their square root
_SQUARES_SAFE = (2.0**-960, 2.0**960)


def _norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norms of the columns of x (n, P): the square root of the sum
    of squares, and at a column where that sum left ``_SQUARES_SAFE`` (an
    entry below about 1e-145 or above 1e145 may have lost its square) the
    same of the column scaled by the power of two that brings its largest
    entry into [1/2, 1), scaled back.  Scaling by a power of two is exact,
    so a column scaled by 2^k has its norm scaled by 2^k to the bit."""
    with np.errstate(over="ignore", under="ignore"):
        squares = (x * x).sum(axis=0)
    norm = np.sqrt(squares)
    lo, hi = _SQUARES_SAFE
    risky = ~((squares >= lo) & (squares <= hi))
    if risky.any():
        cols = x[:, risky]
        exp = np.frexp(np.abs(cols).max(axis=0))[1]
        with np.errstate(under="ignore"):
            scaled = np.ldexp(cols, -exp)
            norm[risky] = np.ldexp(np.sqrt((scaled * scaled).sum(axis=0)), exp)
    return norm


def cross_columns(d1: np.ndarray) -> tuple:
    """(n, C, C^{-1}) of the rows of each (d, m) slice of ``d1``, m > d,
    from one Householder QR M = H_1 ... H_d R of the (m, d) matrix M whose
    columns are the rows; leading axes are a point stack.

    C = R^T, each row of R sign-flipped to a positive diagonal, is the lower
    Cholesky factor of G = M^T M, and C^{-1} comes by forward substitution.
    n = R_11 ... R_dd H_1 ... H_d e_m is orthogonal to every row; for
    m = d + 1 it is the cofactor vector, dot(n, u) = det([u | M]) for every
    u (e3 for (e1, e2) in R^3), and it is not normalized.  Each reflection
    is built as LAPACK's ``dlarfg`` builds it, from a column norm that
    :func:`_norms` guards against squares that under- or overflow.  A
    column that is zero where its reflection acts gives R_kk = 0: n is an
    exact zero, never a NaN, and C^{-1} is quietly not finite.  m <= d
    raises :class:`DomainError`.
    """
    d1 = np.asarray(d1, dtype=np.float64)
    if d1.ndim < 2 or d1.shape[-1] <= d1.shape[-2]:
        raise DomainError(f"need d vectors with more than d ambient dims, got shape {d1.shape}")
    lead, (d, amb) = d1.shape[:-2], d1.shape[-2:]
    cols = _points_last(d1, (d, amb)).copy()  # cols[j]: column j of M, over the points
    chol = np.zeros((d, d) + cols.shape[2:])
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
        chol[k, k] = norm
        chol[k + 1 :, k] = rest[:, 0] * np.copysign(1.0, beta)  # R_kj, j > k, signed
        betas.append(beta)
        reflectors.append((v, tau))
    chol_inv = np.zeros(chol.shape)
    with np.errstate(all="ignore"):
        for j in range(d):  # row j of C^{-1}
            chol_inv[j, :j] = -(chol[j, :j, None] * chol_inv[:j, :j]).sum(axis=0) / chol[j, j]
            chol_inv[j, j] = 1.0 / chol[j, j]
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
    return _points_first(y, lead), _points_first(chol, lead), _points_first(chol_inv, lead)
