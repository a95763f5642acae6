"""Numeric kernels, with optional numba acceleration.

The two inner loops that dominate verification sweeps are batched Horner
evaluation of stacks of truncated power series and the cofactor-expansion
normal vector of a hypersurface frame.  Both ship in two interchangeable
implementations:

* a numba ``@njit`` version, used by default when numba imports cleanly;
* a pure-numpy version, selected by setting ``MINKAEHLER_PURE_NUMPY=1``
  in the environment (or used automatically when numba is unavailable).

``BACKEND`` records which path is active.  Both paths are importable under
explicit names (``horner_many_numpy`` / ``horner_many_numba`` and the
``cross_columns_*`` pair) so they can be compared against each other
regardless of the flag.
"""

from __future__ import annotations

import os

import numpy as np

_FORCE_NUMPY = os.environ.get("MINKAEHLER_PURE_NUMPY", "").strip().lower() in {
    "1",
    "true",
    "yes",
}

try:
    if _FORCE_NUMPY:
        raise ImportError("numpy path forced by MINKAEHLER_PURE_NUMPY")
    from numba import njit

    HAS_NUMBA = True
except ImportError:
    HAS_NUMBA = False


def horner_many_numpy(coeffs: np.ndarray, dz: np.ndarray) -> np.ndarray:
    """Evaluate a stack of polynomials at a batch of complex offsets.

    ``coeffs`` has shape (rows, order+1), row r holding the Taylor
    coefficients of one series (index k multiplies dz**k).  ``dz`` has
    shape (points,).  Returns shape (rows, points).
    """
    coeffs = np.ascontiguousarray(coeffs, dtype=np.complex128)
    dz = np.ascontiguousarray(dz, dtype=np.complex128)
    acc = np.repeat(coeffs[:, -1][:, None], dz.shape[0], axis=1)
    for k in range(coeffs.shape[1] - 2, -1, -1):
        acc = acc * dz[None, :] + coeffs[:, k][:, None]
    return acc


def cross_columns_numpy(d1: np.ndarray) -> np.ndarray:
    """Generalized cross product of the rows of each (d, d+1) slice.

    ``d1`` has shape (points, d, d+1); slice p holds d tangent vectors of
    R^{d+1}.  Component i of the result is the signed i-th cofactor of the
    (d+1, d) matrix whose columns are those vectors, so that
    dot(result, u) = det([u | v_1 | ... | v_d]) for every u.
    Returns shape (points, d+1); the result is not normalized.
    """
    d1 = np.asarray(d1, dtype=np.float64)
    npts, d, amb = d1.shape
    if amb != d + 1:
        raise ValueError(f"need d+1 ambient dims, got {amb} for d={d}")
    cols = d1.transpose(0, 2, 1)  # (points, d+1, d)
    out = np.empty((npts, amb))
    rows = np.arange(amb)
    for i in range(amb):
        minor = cols[:, rows != i, :]
        out[:, i] = (-1.0) ** i * np.linalg.det(minor)
    return out


if HAS_NUMBA:

    @njit(cache=True)
    def horner_many_numba(coeffs, dz):  # pragma: no cover - numba path
        rows, ncoef = coeffs.shape
        npts = dz.shape[0]
        out = np.empty((rows, npts), np.complex128)
        for r in range(rows):
            for p in range(npts):
                acc = coeffs[r, ncoef - 1]
                z = dz[p]
                for k in range(ncoef - 2, -1, -1):
                    acc = acc * z + coeffs[r, k]
                out[r, p] = acc
        return out

    @njit(cache=True)
    def _det_destructive(a):  # pragma: no cover - numba path
        n = a.shape[0]
        det = 1.0
        for j in range(n):
            piv = j
            big = abs(a[j, j])
            for i in range(j + 1, n):
                if abs(a[i, j]) > big:
                    big = abs(a[i, j])
                    piv = i
            if big == 0.0:
                return 0.0
            if piv != j:
                for k in range(n):
                    tmp = a[j, k]
                    a[j, k] = a[piv, k]
                    a[piv, k] = tmp
                det = -det
            det *= a[j, j]
            inv = 1.0 / a[j, j]
            for i in range(j + 1, n):
                factor = a[i, j] * inv
                for k in range(j, n):
                    a[i, k] -= factor * a[j, k]
        return det

    @njit(cache=True)
    def cross_columns_numba(d1):  # pragma: no cover - numba path
        npts, d, amb = d1.shape
        out = np.empty((npts, amb))
        minor = np.empty((d, d))
        for p in range(npts):
            for i in range(amb):
                for r in range(amb):
                    if r == i:
                        continue
                    rr = r if r < i else r - 1
                    for c in range(d):
                        minor[rr, c] = d1[p, c, r]
                sign = -1.0 if i % 2 else 1.0
                out[p, i] = sign * _det_destructive(minor.copy())
        return out

    horner_many = horner_many_numba
    cross_columns = cross_columns_numba
    BACKEND = "numba"
else:
    horner_many = horner_many_numpy
    cross_columns = cross_columns_numpy
    BACKEND = "numpy"


def warmup() -> str:
    """Trigger JIT compilation of the hot kernels; returns the backend name.

    Useful before timed runs so one-off compile cost does not land inside a
    measured pipeline.  A no-op on the numpy path.
    """
    c = np.zeros((2, 3), np.complex128)
    horner_many(c, np.zeros(2, np.complex128))
    cross_columns(np.array([[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]]))
    return BACKEND
