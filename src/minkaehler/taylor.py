"""Truncated multivariate Taylor arithmetic over point and component stacks.

A :class:`Taylor` is a polynomial in n variables t_1..t_n truncated at
total degree K, stored as its coefficients on the monomials of degree <= K
along the last axis.  The monomials are graded, so those of a lower order
form a prefix.  Leading axes hold points and components: a (P, 3) Taylor
holds one expansion per point and coordinate.

Seeding x_i = p_i + t_i (:meth:`Taylor.variables`) and evaluating a formula
gives the formula's expansion about p; its k-th derivative tensor is the
degree-k coefficients times alpha! (:meth:`Taylor.derivatives`).  Combining
two operands truncates to the lower order, ``diff`` lowers the order by
one, and :meth:`Taylor.compose` substitutes one expansion into another,
which also gives every elementary function from its derivatives at the
value.  :func:`solve` solves linear systems by the Neumann series about the
value.  :class:`TaylorChart` is the closed-form chart: one value formula
in this arithmetic, whose jets of every order are exact.

The index tables behind products, derivatives and compositions are built
on first use, once per (number of variables, order).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .charts import ImmersionChart


def _size(n: int, order: int) -> int:
    """Number of monomials of degree <= order in n variables."""
    return math.comb(n + order, n)


@functools.lru_cache(maxsize=None)
def _degree(n: int, k: int) -> tuple:
    """The degree-k monomials of n variables, in table order: their sorted
    variable-index tuples (rows) and exponent vectors."""
    combos = list(itertools.combinations_with_replacement(range(n), k))
    combos = np.array(combos, dtype=np.intp).reshape(len(combos), k)
    exps = np.zeros((len(combos), n), dtype=np.intp)
    for j in range(k):
        exps[np.arange(len(combos)), combos[:, j]] += 1
    return combos, exps


@functools.lru_cache(maxsize=None)
def _exponents(n: int, order: int) -> tuple:
    """(exponents (M, n), {exponent tuple: index}) for degree <= order."""
    exps = np.concatenate([_degree(n, k)[1] for k in range(order + 1)])
    return exps, {tuple(e): i for i, e in enumerate(exps)}


def _factorials(exps: np.ndarray) -> np.ndarray:
    """alpha! for each exponent row."""
    return np.array([math.prod(map(math.factorial, e)) for e in exps], dtype=np.float64)


@functools.lru_cache(maxsize=None)
def _product(n: int, order: int) -> tuple:
    """Operand indices (ia, ib) of every monomial pair of total degree <=
    order, and the 0/1 matrix summing each pair into its product."""
    exps, index = _exponents(n, order)
    deg = exps.sum(axis=1)
    ia, ib = np.nonzero(deg[:, None] + deg[None, :] <= order)
    into = np.zeros((len(ia), len(exps)))
    into[np.arange(len(ia)), [index[tuple(e)] for e in exps[ia] + exps[ib]]] = 1.0
    return ia, ib, into


@functools.lru_cache(maxsize=None)
def _diff(n: int, order: int, i: int) -> tuple:
    """For d/dt_i: the source index of each monomial of order - 1 and its
    factor (the exponent of t_i before differentiating)."""
    lower, _ = _exponents(n, order - 1)
    _, index = _exponents(n, order)
    step = np.eye(n, dtype=np.intp)[i]
    return np.array([index[tuple(e + step)] for e in lower]), lower[:, i] + 1.0


@functools.lru_cache(maxsize=None)
def _powers(n: int, order: int) -> tuple:
    """For each monomial t^a of degree >= 1: the index of t^(a - e_j) and
    the variable j it is multiplied by (the first variable of a)."""
    exps, index = _exponents(n, order)
    var = np.argmax(exps[1:] > 0, axis=1)
    parent = [index[tuple(e - np.eye(n, dtype=np.intp)[j])] for e, j in zip(exps[1:], var)]
    return parent, var


@functools.lru_cache(maxsize=None)
def _restrict(n: int, r: int, order: int) -> np.ndarray:
    """Index in the n-variable table of each monomial of the first r."""
    _, index = _exponents(n, order)
    exps, _ = _exponents(r, order)
    pad = np.zeros((len(exps), n - r), dtype=np.intp)
    return np.array([index[tuple(e)] for e in np.hstack([exps, pad])])


@functools.lru_cache(maxsize=None)
def _tensor(n: int, k: int) -> tuple:
    """For every index tuple (i_1..i_k): its monomial's index and alpha!,
    as two (n,)*k arrays."""
    combos, exps = _degree(n, k)
    where = {tuple(c): j for j, c in enumerate(combos)}
    tuples = list(itertools.product(range(n), repeat=k))
    local = np.array([where[tuple(sorted(t))] for t in tuples], dtype=np.intp)
    shape = (n,) * k
    # _size(n, k - 1) counts the monomials of lower degree (0 when k = 0)
    return (local + _size(n, k - 1)).reshape(shape), _factorials(exps)[local].reshape(shape)


class Taylor:
    """Truncated Taylor expansions in ``n`` variables to total degree
    ``order``; ``c`` has shape (..., M) over the graded monomials."""

    __array_ufunc__ = None  # ndarray operands defer to the reflected methods

    def __init__(self, coeffs, n: int, order: int):
        self.c = np.asarray(coeffs, dtype=np.float64)
        self.n = n
        self.order = order

    @classmethod
    def variables(cls, pts, order: int) -> "Taylor":
        """x_i = p_i + t_i for a (..., n) point stack: a (..., n) Taylor."""
        pts = np.asarray(pts, dtype=np.float64)
        n = pts.shape[-1]
        c = np.zeros(pts.shape + (_size(n, order),))
        c[..., 0] = pts
        if order:
            c[..., 1 : n + 1] = np.eye(n)
        return cls(c, n, order)

    @classmethod
    def from_derivatives(cls, tensors) -> "Taylor":
        """The expansion whose k-th derivative tensor is ``tensors[k]``, of
        shape (..., n^k) with its k derivative axes last (k = 0..order >= 1)."""
        order = len(tensors) - 1
        n = tensors[-1].shape[-1]
        parts = []
        for k, t in enumerate(tensors):
            combos, exps = _degree(n, k)
            flat = np.ravel_multi_index(tuple(combos.T), (n,) * k) if k else [0]
            parts.append(t.reshape(t.shape[: t.ndim - k] + (-1,))[..., flat] / _factorials(exps))
        return cls(np.concatenate(parts, axis=-1), n, order)

    # -- shape ------------------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.c.shape[:-1]

    @property
    def value(self) -> np.ndarray:
        return self.c[..., 0]

    def __getitem__(self, key) -> "Taylor":
        key = key if isinstance(key, tuple) else (key,)
        return Taylor(self.c[key + (slice(None),)], self.n, self.order)

    def reshape(self, shape) -> "Taylor":
        return Taylor(self.c.reshape(tuple(shape) + self.c.shape[-1:]), self.n, self.order)

    def sum(self, axis: int) -> "Taylor":
        return Taylor(self.c.sum(axis=axis - 1 if axis < 0 else axis), self.n, self.order)

    @staticmethod
    def stack(items, axis: int = -1) -> "Taylor":
        """Stack Taylors and constants (broadcast against them) on a new
        leading axis, at the lowest order among them."""
        like = next(t for t in items if isinstance(t, Taylor))
        items = [like._lift(t) for t in items]
        order = min(t.order for t in items)
        cs = np.broadcast_arrays(*(t.c[..., : _size(like.n, order)] for t in items))
        return Taylor(np.stack(cs, axis=axis - 1 if axis < 0 else axis), like.n, order)

    def derivatives(self, k: int) -> np.ndarray:
        """The k-th derivative tensor, shape (..., n^k) with its k
        derivative axes last."""
        idx, fact = _tensor(self.n, k)
        return self.c[..., idx] * fact

    def restrict(self, r: int) -> "Taylor":
        """The expansion along the first r variables, the others held at 0."""
        return Taylor(self.c[..., _restrict(self.n, r, self.order)], r, self.order)

    # -- arithmetic -------------------------------------------------------

    def _lift(self, other) -> "Taylor":
        if isinstance(other, Taylor):
            return other
        other = np.asarray(other, dtype=np.float64)
        c = np.zeros(other.shape + self.c.shape[-1:])
        c[..., 0] = other
        return Taylor(c, self.n, self.order)

    def _common(self, other) -> tuple:
        other = self._lift(other)
        if other.n != self.n:
            raise ValueError(f"operands have {self.n} and {other.n} variables")
        order = min(self.order, other.order)
        size = _size(self.n, order)
        return self.c[..., :size], other.c[..., :size], order

    def __add__(self, other) -> "Taylor":
        a, b, order = self._common(other)
        return Taylor(a + b, self.n, order)

    __radd__ = __add__

    def __neg__(self) -> "Taylor":
        return Taylor(-self.c, self.n, self.order)

    def __sub__(self, other) -> "Taylor":
        a, b, order = self._common(other)
        return Taylor(a - b, self.n, order)

    def __rsub__(self, other) -> "Taylor":
        return -self + other

    def __mul__(self, other) -> "Taylor":
        if not isinstance(other, Taylor):
            return Taylor(self.c * np.asarray(other, dtype=np.float64)[..., None], self.n, self.order)
        a, b, order = self._common(other)
        ia, ib, into = _product(self.n, order)
        return Taylor((a[..., ia] * b[..., ib]) @ into, self.n, order)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Taylor":
        if isinstance(other, Taylor):
            return self * other.reciprocal()
        return self * (1.0 / np.asarray(other, dtype=np.float64))

    def diff(self, i: int) -> "Taylor":
        """d/dt_i, one order lower."""
        if self.order < 1:
            raise ValueError("an order-0 expansion has no derivative")
        src, factor = _diff(self.n, self.order, i)
        return Taylor(self.c[..., src] * factor, self.n, self.order - 1)

    # -- composition ------------------------------------------------------

    def compose(self, inner: "Taylor") -> "Taylor":
        """Substitute ``inner`` (..., n) into this expansion, read as an
        expansion about inner's value: sum_a c_a (inner - value)^a, in
        inner's variables.  Leading axes of ``self`` beyond inner's point
        axes are components."""
        if inner.shape[-1] != self.n:
            raise ValueError(f"need {self.n} inner components, got {inner.shape[-1]}")
        order = min(self.order, inner.order)
        h = inner - inner.value
        lead = inner.shape[:-1]
        one = np.zeros(lead + (_size(inner.n, order),))
        one[..., 0] = 1.0
        powers = [Taylor(one, inner.n, order)]
        for parent, j in zip(*_powers(self.n, order)):
            powers.append(powers[parent] * h[..., j])
        table = np.stack([p.c for p in powers], axis=-2)
        table = table.reshape(lead + (1,) * (len(self.shape) - len(lead)) + table.shape[-2:])
        coeffs = self.c[..., None, : len(powers)] @ table
        return Taylor(coeffs[..., 0, :], inner.n, order)

    def _apply(self, derivs) -> "Taylor":
        """f(self) from f^(k) at self's value, k = 0..order."""
        coeffs = np.stack([d / math.factorial(k) for k, d in enumerate(derivs)], axis=-1)
        return Taylor(coeffs, 1, self.order).compose(self[..., None])

    def _power(self, a: float) -> "Taylor":
        u = self.value
        derivs = [np.sqrt(u) if a == 0.5 else u**a]
        for k in range(1, self.order + 1):
            derivs.append(derivs[-1] * (a - k + 1) / u)
        return self._apply(derivs)

    def sqrt(self) -> "Taylor":
        return self._power(0.5)

    def reciprocal(self) -> "Taylor":
        return self._power(-1.0)

    def sin(self) -> "Taylor":
        s, c = np.sin(self.value), np.cos(self.value)
        return self._apply([(s, c, -s, -c)[k % 4] for k in range(self.order + 1)])

    def cos(self) -> "Taylor":
        s, c = np.sin(self.value), np.cos(self.value)
        return self._apply([(c, -s, -c, s)[k % 4] for k in range(self.order + 1)])

    def log(self) -> "Taylor":
        u = self.value
        derivs = [np.log(u)]
        derivs += [(-1.0) ** (k - 1) * math.factorial(k - 1) / u**k for k in range(1, self.order + 1)]
        return self._apply(derivs)


def dot(a: Taylor, b) -> Taylor:
    """Inner product over the last leading axis."""
    return (a * b).sum(-1)


def unit(v: Taylor) -> Taylor:
    """v / |v| over the last leading axis."""
    return v * dot(v, v).sqrt().reciprocal()[..., None]


def solve(A: Taylor, b: Taylor) -> Taylor:
    """x with A x = b for a (..., n, n) Taylor stack and a (..., n) right
    side: the Neumann series x = A0^{-1} (b - (A - A0) x) about A's value
    A0, iterated once per order."""
    A0 = A.value
    rest = A - A0
    x = Taylor(np.linalg.solve(A0, b.c), b.n, b.order)
    for _ in range(min(A.order, b.order)):
        r = b - dot(rest, x[..., None, :])
        x = Taylor(np.linalg.solve(A0, r.c), r.n, r.order)
    return x


@dataclass
class TaylorChart(ImmersionChart):
    """Chart from one value formula written in Taylor arithmetic.

    ``fn`` maps a (P, d) stack of :class:`Taylor` variables to the
    (P, ambient) Taylor values; the jets of any order are that expansion's
    derivative tensors, exact up to roundoff.
    """

    d: int
    ambient: int
    box: np.ndarray
    fn: Callable

    def jet_batch(self, pts, order: int = 2) -> tuple:
        pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
        out = self.fn(Taylor.variables(pts, order))
        return tuple(np.moveaxis(out.derivatives(k), 1, -1) for k in range(order + 1))
