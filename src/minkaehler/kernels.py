"""Numeric kernels for the two inner loops of verification sweeps.

``horner_many`` evaluates stacks of truncated power series at a batch of
points, stepping only over the coefficient columns that can change a bit
of the result (a polynomial seed's rows are zero past its degree);
``cross_columns`` gives the cofactor-expansion normal vector of a
hypersurface frame.  Both are plain numpy.  ``BACKEND`` names the numeric
path for provenance records.
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


def cross_columns(d1: np.ndarray) -> np.ndarray:
    """Generalized cross product of the rows of each (d, d+1) slice.

    ``d1`` has shape (..., d, d+1), over any leading axes; each slice holds
    d tangent vectors of R^{d+1}.  Component i of the result is the signed
    i-th cofactor of the (d+1, d) matrix whose columns are those vectors,
    so that dot(result, u) = det([u | v_1 | ... | v_d]) for every u; for
    (e1, e2) in R^3 this gives e3.  Returns shape (..., d+1); the result is
    not normalized.  Any other shape raises :class:`DomainError`.
    """
    d1 = np.asarray(d1, dtype=np.float64)
    if d1.ndim < 2 or d1.shape[-1] != d1.shape[-2] + 1:
        raise DomainError(f"need d vectors with d+1 ambient dims, got shape {d1.shape}")
    amb = d1.shape[-1]
    cols = np.swapaxes(d1, -1, -2)  # (..., d+1, d)
    # keep[i] lists the rows of minor i, every row but row i
    keep = np.array([[r for r in range(amb) if r != i] for i in range(amb)])
    signs = (-1.0) ** np.arange(amb)
    return np.linalg.det(cols[..., keep, :]) * signs
