"""Truncated complex power-series arithmetic about a fixed basepoint.

A :class:`TruncatedSeries` stores the Taylor coefficients of a holomorphic
function about a basepoint, through a finite order::

    a(z) = sum_k  coeffs[..., k] * (z - base)**k,    k = 0 .. order

Coefficients have shape ``(..., order + 1)``: the leading axes make a stack
of series sharing one basepoint and order (a vector-valued series is a
stack of its components), and every operation acts along the last axis
and broadcasts the leading ones.  The algebra is the quotient-ring
arithmetic of polynomials in (z - base): sums require equal basepoints and
truncate to the shorter operand, products use the Cauchy convolution
truncated to the minimum operand order, differentiation lowers the order
by one, and integration raises it by one while installing an explicit
integration constant.  Series are immutable; every operation returns a
fresh object and never recenters the basepoint.

The inner product :func:`vdot` of two stacks is the symmetric bilinear
form sum_k a_k * b_k over axis 0, with no complex conjugation; isotropy
statements in the construction depend on that convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

DEFAULT_ORDER = 32


def _as_coeffs(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.complex128)
    if arr.ndim == 0 or arr.shape[-1] == 0:
        raise ValueError("coefficients must have a nonempty last axis")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class TruncatedSeries:
    """Immutable truncated Taylor series about ``base``, or a stack of them.

    Parameters
    ----------
    base : complex
        Expansion point.
    coeffs : array_like
        Taylor coefficients of shape (..., order+1), ``coeffs[..., k]``
        multiplying ``(z-base)**k``.
    """

    base: complex
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "base", complex(self.base))
        object.__setattr__(self, "coeffs", _as_coeffs(self.coeffs))

    @property
    def order(self) -> int:
        return self.coeffs.shape[-1] - 1

    def __len__(self) -> int:
        if self.coeffs.ndim == 1:
            raise TypeError("a single series has no length")
        return self.coeffs.shape[0]

    def __getitem__(self, index) -> "TruncatedSeries":
        """The series at ``index`` of the leading axes."""
        index = index if isinstance(index, tuple) else (index,)
        if len(index) >= self.coeffs.ndim:
            raise IndexError("series index must leave the coefficient axis")
        return TruncatedSeries(self.base, self.coeffs[index])

    @staticmethod
    def constant(value: complex, base: complex = 0.0, order: int = DEFAULT_ORDER) -> "TruncatedSeries":
        c = np.zeros(order + 1, dtype=np.complex128)
        c[0] = value
        return TruncatedSeries(base, c)

    @staticmethod
    def variable(base: complex = 0.0, order: int = DEFAULT_ORDER) -> "TruncatedSeries":
        """The identity function z, expanded about ``base``."""
        if order < 1:
            raise ValueError("the identity series needs order >= 1")
        c = np.zeros(order + 1, dtype=np.complex128)
        c[0] = base
        c[1] = 1.0
        return TruncatedSeries(base, c)


def _require_same_base(a: TruncatedSeries, b: TruncatedSeries) -> None:
    if a.base != b.base:
        raise DomainError(
            f"basepoint mismatch: {a.base} vs {b.base}; series are never recentered"
        )


def series_add(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Sum, truncated to the minimum operand order."""
    _require_same_base(a, b)
    n = min(a.order, b.order)
    return TruncatedSeries(a.base, a.coeffs[..., : n + 1] + b.coeffs[..., : n + 1])


def _convolve(a: TruncatedSeries, b: TruncatedSeries) -> np.ndarray:
    """The untruncated Cauchy products of the broadcast stacks.

    Each pair of full rows goes to ``np.convolve`` in operand order, so a
    stacked product rounds exactly like the scalar products of its rows.
    """
    _require_same_base(a, b)
    lead = np.broadcast_shapes(a.coeffs.shape[:-1], b.coeffs.shape[:-1])
    x, y = (np.broadcast_to(s.coeffs, lead + s.coeffs.shape[-1:]).reshape(-1, s.order + 1) for s in (a, b))
    full = [np.convolve(u, v) for u, v in zip(x, y)]
    return np.reshape(full, lead + (a.order + b.order + 1,))


def series_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product, truncated to the minimum operand order."""
    n = min(a.order, b.order)
    return TruncatedSeries(a.base, _convolve(a, b)[..., : n + 1])


def series_diff(a: TruncatedSeries) -> TruncatedSeries:
    """Term-wise derivative; order drops by one.

    Differentiating an order-0 series returns the zero series of order 0
    rather than an empty coefficient array.
    """
    if a.order == 0:
        return TruncatedSeries(a.base, np.zeros_like(a.coeffs))
    k = np.arange(1, a.order + 1)
    return TruncatedSeries(a.base, a.coeffs[..., 1:] * k)


def series_int(a: TruncatedSeries, constant=0.0) -> TruncatedSeries:
    """Term-wise antiderivative with value ``constant`` at the basepoint;
    ``constant`` broadcasts over the leading axes.

    The order rises by one.
    """
    out = np.empty(a.coeffs.shape[:-1] + (a.order + 2,), dtype=np.complex128)
    out[..., 0] = constant
    out[..., 1:] = a.coeffs / np.arange(1, a.order + 2)
    return TruncatedSeries(a.base, out)


def series_eval(a: TruncatedSeries, z: complex):
    """Horner evaluation at ``z``; one value per series of the stack."""
    dz = complex(z) - a.base
    acc = np.zeros(a.coeffs.shape[:-1], dtype=np.complex128)
    for k in range(a.order, -1, -1):
        acc = acc * dz + a.coeffs[..., k]
    return acc[()]


def to_order(a: TruncatedSeries, order: int) -> TruncatedSeries:
    """``a`` truncated or zero-padded to ``order``."""
    if order < 0:
        raise ValueError("order must be >= 0")
    if order == a.order:
        return a
    c = np.zeros(a.coeffs.shape[:-1] + (order + 1,), dtype=np.complex128)
    keep = min(order, a.order) + 1
    c[..., :keep] = a.coeffs[..., :keep]
    return TruncatedSeries(a.base, c)


def vdot(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Symmetric bilinear inner product sum_k a_k*b_k over axis 0 (no
    conjugation)."""
    if len(a) != len(b):
        raise DomainError(f"dimension mismatch: {len(a)} vs {len(b)}")
    prod = series_mul(a, b)
    return TruncatedSeries(prod.base, prod.coeffs.sum(axis=0))


def mul_error_bound(a: TruncatedSeries, b: TruncatedSeries, rho: float):
    """Bound on |a*b - series_mul(a,b)| for |z - base| <= rho, one per
    series of the stack.

    The truncated product drops the convolution terms above the minimum
    operand order; the bound sums their moduli times rho**k.
    """
    n = min(a.order, b.order)
    tail = _convolve(a, b)[..., n + 1:]
    return np.abs(tail) @ rho ** np.arange(n + 1, n + 1 + tail.shape[-1], dtype=np.float64)
