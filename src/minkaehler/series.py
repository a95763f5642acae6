"""Truncated complex power-series arithmetic about a fixed basepoint.

A :class:`TruncatedSeries` stores the Taylor coefficients of a holomorphic
function about a basepoint, through a finite order::

    a(z) = sum_k  coeffs[k] * (z - base)**k,    k = 0 .. order

The algebra is the quotient-ring arithmetic of polynomials in (z - base):
sums require equal basepoints and truncate to the shorter operand,
products use the Cauchy convolution truncated to the minimum operand
order, differentiation lowers the order by one, and integration raises it
by one while installing an explicit integration constant.  Series are
immutable; every operation returns a fresh object and never recenters the
basepoint.

:class:`SeriesVector` is a tuple of component series sharing one basepoint
and order.  Its inner product :func:`vdot` is the symmetric bilinear form
sum_k a_k * b_k with no complex conjugation; isotropy statements in the
construction depend on that convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

DEFAULT_ORDER = 32


def _as_coeffs(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.complex128)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("coefficients must be a nonempty 1-d sequence")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class TruncatedSeries:
    """Immutable truncated Taylor series about ``base``.

    Parameters
    ----------
    base : complex
        Expansion point.
    coeffs : array_like
        Taylor coefficients, ``coeffs[k]`` multiplying ``(z-base)**k``.
    """

    base: complex
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "base", complex(self.base))
        object.__setattr__(self, "coeffs", _as_coeffs(self.coeffs))

    @property
    def order(self) -> int:
        return self.coeffs.size - 1

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

    @staticmethod
    def zero(base: complex = 0.0, order: int = DEFAULT_ORDER) -> "TruncatedSeries":
        return TruncatedSeries(base, np.zeros(order + 1, dtype=np.complex128))

    # -- operator sugar; the series_* functions are the canonical ops --
    def __add__(self, other):
        if isinstance(other, TruncatedSeries):
            return series_add(self, other)
        return series_add(self, TruncatedSeries.constant(other, self.base, self.order))

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries(self.base, -self.coeffs)

    def __sub__(self, other):
        return self + (-other if isinstance(other, TruncatedSeries) else -complex(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            return series_mul(self, other)
        return TruncatedSeries(self.base, self.coeffs * complex(other))

    __rmul__ = __mul__

    def __call__(self, z: complex) -> complex:
        return series_eval(self, z)


def _require_same_base(a: TruncatedSeries, b: TruncatedSeries) -> None:
    if a.base != b.base:
        raise DomainError(
            f"basepoint mismatch: {a.base} vs {b.base}; series are never recentered"
        )


def series_add(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Sum, truncated to the minimum operand order."""
    _require_same_base(a, b)
    n = min(a.order, b.order)
    return TruncatedSeries(a.base, a.coeffs[: n + 1] + b.coeffs[: n + 1])


def series_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product, truncated to the minimum operand order."""
    _require_same_base(a, b)
    n = min(a.order, b.order)
    full = np.convolve(a.coeffs, b.coeffs)
    return TruncatedSeries(a.base, full[: n + 1])


def series_diff(a: TruncatedSeries) -> TruncatedSeries:
    """Term-wise derivative; order drops by one.

    Differentiating an order-0 series returns the zero series of order 0
    rather than an empty coefficient array.
    """
    if a.order == 0:
        return TruncatedSeries.zero(a.base, 0)
    k = np.arange(1, a.order + 1)
    return TruncatedSeries(a.base, a.coeffs[1:] * k)


def series_int(a: TruncatedSeries, constant: complex = 0.0) -> TruncatedSeries:
    """Term-wise antiderivative with value ``constant`` at the basepoint.

    The order rises by one.
    """
    out = np.empty(a.order + 2, dtype=np.complex128)
    out[0] = constant
    out[1:] = a.coeffs / np.arange(1, a.order + 2)
    return TruncatedSeries(a.base, out)


def series_eval(a: TruncatedSeries, z: complex) -> complex:
    """Horner evaluation at ``z``."""
    dz = complex(z) - a.base
    acc = 0j
    for c in a.coeffs[::-1]:
        acc = acc * dz + c
    return acc


def truncate(a: TruncatedSeries, order: int) -> TruncatedSeries:
    if order < 0:
        raise ValueError("order must be >= 0")
    if order >= a.order:
        return a
    return TruncatedSeries(a.base, a.coeffs[: order + 1])


def mul_error_bound(a: TruncatedSeries, b: TruncatedSeries, rho: float) -> float:
    """Bound on |a*b - series_mul(a,b)| for |z - base| <= rho.

    The truncated product drops the convolution terms above the minimum
    operand order; the bound sums their moduli times rho**k.
    """
    _require_same_base(a, b)
    n = min(a.order, b.order)
    full = np.convolve(a.coeffs, b.coeffs)
    tail = full[n + 1:]
    if tail.size == 0:
        return 0.0
    powers = rho ** np.arange(n + 1, n + 1 + tail.size, dtype=np.float64)
    return float(np.abs(tail) @ powers)


@dataclass(frozen=True)
class SeriesVector:
    """Tuple of component series sharing one basepoint and order."""

    components: tuple

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise ValueError("SeriesVector needs at least one component")
        base = comps[0].base
        order = comps[0].order
        for c in comps[1:]:
            if c.base != base:
                raise DomainError("all components must share one basepoint")
            if c.order != order:
                raise DomainError("all components must share one order")
        object.__setattr__(self, "components", comps)

    @property
    def dim(self) -> int:
        return len(self.components)

    @property
    def base(self) -> complex:
        return self.components[0].base

    @property
    def order(self) -> int:
        return self.components[0].order

    def diff(self) -> "SeriesVector":
        return SeriesVector(tuple(series_diff(c) for c in self.components))

    def integrate(self, constants=None) -> "SeriesVector":
        if constants is None:
            constants = np.zeros(self.dim, dtype=np.complex128)
        constants = np.asarray(constants, dtype=np.complex128)
        if constants.shape != (self.dim,):
            raise ValueError(f"need {self.dim} integration constants, got {constants.shape}")
        return SeriesVector(
            tuple(series_int(c, k) for c, k in zip(self.components, constants))
        )

    def eval(self, z: complex) -> np.ndarray:
        return np.array([series_eval(c, z) for c in self.components])

    def scale(self, s: TruncatedSeries) -> "SeriesVector":
        return SeriesVector(tuple(series_mul(s, c) for c in self.components))

    def coeff_matrix(self, width: int | None = None) -> np.ndarray:
        """Component coefficients stacked as rows, zero-padded to ``width``."""
        if width is None:
            width = self.order + 1
        out = np.zeros((self.dim, width), dtype=np.complex128)
        for i, c in enumerate(self.components):
            out[i, : c.order + 1] = c.coeffs
        return out


def vdot(a: SeriesVector, b: SeriesVector) -> TruncatedSeries:
    """Symmetric bilinear inner product sum_k a_k*b_k (no conjugation)."""
    if a.dim != b.dim:
        raise DomainError(f"dimension mismatch: {a.dim} vs {b.dim}")
    acc = series_mul(a.components[0], b.components[0])
    for i in range(1, a.dim):
        acc = series_add(acc, series_mul(a.components[i], b.components[i]))
    return acc
