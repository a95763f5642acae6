"""Numeric kernels for the two inner loops of verification sweeps.

``horner_many`` evaluates stacks of truncated power series at a batch of
points; ``cross_columns`` gives the cofactor-expansion normal vector of a
hypersurface frame.  Both are plain numpy.  ``BACKEND`` names the numeric
path for provenance records.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"


def horner_many(coeffs: np.ndarray, dz: np.ndarray) -> np.ndarray:
    """Evaluate a stack of polynomials at a batch of complex offsets.

    ``coeffs`` has shape (rows, order+1), row r holding the Taylor
    coefficients of one series (index k multiplies dz**k).  ``dz`` has
    shape (points,).  Returns shape (rows, points).
    """
    coeffs = np.ascontiguousarray(coeffs, dtype=np.complex128)
    dz = np.ascontiguousarray(dz, dtype=np.complex128)
    acc = np.repeat(coeffs[:, -1][:, None], dz.shape[0], axis=1)
    for k in range(coeffs.shape[1] - 2, -1, -1):
        acc *= dz
        acc += coeffs[:, k][:, None]
    return acc


def cross_columns(d1: np.ndarray) -> np.ndarray:
    """Generalized cross product of the rows of each (d, d+1) slice.

    ``d1`` has shape (points, d, d+1); slice p holds d tangent vectors of
    R^{d+1}.  Component i of the result is the signed i-th cofactor of the
    (d+1, d) matrix whose columns are those vectors, so that
    dot(result, u) = det([u | v_1 | ... | v_d]) for every u.
    Returns shape (points, d+1); the result is not normalized.
    """
    d1 = np.asarray(d1, dtype=np.float64)
    _, d, amb = d1.shape
    if amb != d + 1:
        raise ValueError(f"need d+1 ambient dims, got {amb} for d={d}")
    cols = d1.transpose(0, 2, 1)  # (points, d+1, d)
    # keep[i] lists the rows of minor i, every row but row i
    keep = np.array([[r for r in range(amb) if r != i] for i in range(amb)])
    signs = (-1.0) ** np.arange(amb)
    return np.linalg.det(cols[:, keep, :]) * signs
