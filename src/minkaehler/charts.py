"""Chart infrastructure: jets, sampling boxes, and analytic test charts.

An immersion chart maps an open box of R^d into R^{m+1} and reports the
jet (value, first partials, second partials) at a stack of points of its
box through ``jet_batch``; ``jet`` wraps that stack as a :class:`Jet2`
with the points' leading axes, a single point being the case with none.
Charts built from holomorphic seed data live in :mod:`minkaehler.weierstrass`;
this module holds the shared protocol plus the small closed-form charts the
test oracles lean on (sphere, plane, polar plane, plane curves, products
with a Euclidean factor) and a generic finite-difference chart used by the
Gauss-parametrization builder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError

EPS = np.finfo(np.float64).eps
# Central first differences balance truncation against roundoff near eps^(1/3);
# second differences near eps^(1/4).  Scales multiply max(1, |coordinate|).
FD_STEP_D1 = EPS ** (1.0 / 3.0)
FD_STEP_D2 = EPS ** 0.25


@dataclass(frozen=True)
class Jet2:
    """Jet of a chart over any leading point axes ``...``.

    value : (..., m+1) ambient points
    d1    : (..., d, m+1) first partials, row i = d(chart)/d(coord i)
    d2    : (..., d, d, m+1) second partials, symmetric in the two axes
    coords: (..., d) the evaluation points
    d3    : (..., d, d, d, m+1) third partials, when asked for
    """

    coords: np.ndarray
    value: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    d3: np.ndarray | None = None

    @property
    def d(self) -> int:
        return self.d1.shape[-2]

    @property
    def ambient(self) -> int:
        return self.d1.shape[-1]


def _check_order_two(order: int) -> None:
    if order != 2:
        raise DomainError(f"this chart has jets of order 2 only, got order {order}")


class ImmersionChart:
    """Base class: a parametrized piece of a submanifold with jets.

    Subclasses set ``d`` (domain dimension), ``ambient`` (= m+1), ``box``
    (d, 2) sampling box, and implement ``jet_batch(pts, order=2)``: for a
    (P, d) stack it returns (value, d1, d2) stacked along a leading P axis,
    plus d3 with ``order=3`` where the chart supports it.
    """

    d: int
    ambient: int
    box: np.ndarray

    def jet_batch(self, pts, order: int = 2) -> tuple:  # pragma: no cover - abstract
        raise NotImplementedError

    def jet(self, p, order: int = 2) -> Jet2:
        """The jet at points ``p`` of shape (..., d), as one :class:`Jet2`
        with the same leading axes; one point (d,) gives the one-point slice."""
        p = np.asarray(p, dtype=np.float64)
        parts = self.jet_batch(p.reshape(-1, p.shape[-1]), order)
        lead = p.shape[:-1]
        return Jet2(p, *(a.reshape(lead + a.shape[1:]) for a in parts))

    def value(self, p) -> np.ndarray:
        return self.jet(p).value

    def contains(self, p, margin: float = 0.0) -> bool:
        p = np.asarray(p, dtype=np.float64)
        return bool(
            np.all(p >= self.box[:, 0] + margin) and np.all(p <= self.box[:, 1] - margin)
        )


@dataclass
class CallableChart(ImmersionChart):
    """Chart from closed-form jet closures (analytic test geometries); the
    closures take one point, and ``jet_batch`` stacks their results."""

    d: int
    ambient: int
    box: np.ndarray
    value_fn: Callable
    d1_fn: Callable
    d2_fn: Callable

    def jet_batch(self, pts, order: int = 2) -> tuple:
        _check_order_two(order)
        pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
        return tuple(
            np.array([fn(p) for p in pts], dtype=np.float64).reshape(
                (len(pts),) + (self.d,) * k + (self.ambient,)
            )
            for k, fn in enumerate((self.value_fn, self.d1_fn, self.d2_fn))
        )


@dataclass
class FDJetChart(ImmersionChart):
    """Chart whose jets come from central differences of a value closure.

    First partials use step ``h1`` per coordinate, second partials ``h2``
    (both scaled by max(1, |coordinate|)).  Central differences of maps that
    are affine in a coordinate are exact for that coordinate up to roundoff.
    """

    d: int
    ambient: int
    box: np.ndarray
    value_fn: Callable
    h1: float = FD_STEP_D1
    h2: float = FD_STEP_D2

    def value(self, p) -> np.ndarray:
        return np.asarray(self.value_fn(np.asarray(p, dtype=np.float64)), dtype=np.float64)

    def jet_batch(self, pts, order: int = 2) -> tuple:
        _check_order_two(order)
        pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
        jets = [self._stencil(p) for p in pts]
        return tuple(np.array(part) for part in zip(*jets))

    def _stencil(self, p) -> tuple:
        scale = np.maximum(1.0, np.abs(p))
        h1 = self.h1 * scale
        h2 = self.h2 * scale
        f0 = self.value(p)
        d1 = np.empty((self.d, self.ambient))
        d2 = np.empty((self.d, self.d, self.ambient))
        for i in range(self.d):
            ei = np.zeros(self.d)
            ei[i] = 1.0
            d1[i] = (self.value(p + h1[i] * ei) - self.value(p - h1[i] * ei)) / (2 * h1[i])
            d2[i, i] = (
                self.value(p + h2[i] * ei) - 2 * f0 + self.value(p - h2[i] * ei)
            ) / h2[i] ** 2
        for i in range(self.d):
            ei = np.zeros(self.d)
            ei[i] = 1.0
            for j in range(i + 1, self.d):
                ej = np.zeros(self.d)
                ej[j] = 1.0
                hij = (h2[i], h2[j])
                val = (
                    self.value(p + hij[0] * ei + hij[1] * ej)
                    - self.value(p + hij[0] * ei - hij[1] * ej)
                    - self.value(p - hij[0] * ei + hij[1] * ej)
                    + self.value(p - hij[0] * ei - hij[1] * ej)
                ) / (4 * hij[0] * hij[1])
                d2[i, j] = val
                d2[j, i] = val
        return f0, d1, d2


@dataclass
class ProductChart(ImmersionChart):
    """Cylinder ``(y, z) -> (profile(y), z)`` over a profile chart.

    Appends ``extra`` flat Euclidean coordinates to both domain and ambient
    space; the second fundamental form is carried entirely by the profile.
    """

    profile: ImmersionChart
    extra: int
    extra_halfwidth: float = 0.5

    def __post_init__(self):
        self.d = self.profile.d + self.extra
        self.ambient = self.profile.ambient + self.extra
        flat = np.array([[-self.extra_halfwidth, self.extra_halfwidth]] * self.extra)
        self.box = np.vstack([self.profile.box, flat]) if self.extra else self.profile.box.copy()

    def jet_batch(self, pts, order: int = 2) -> tuple:
        pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
        dp, mp = self.profile.d, self.profile.ambient
        out = []
        for k, part in enumerate(self.profile.jet_batch(pts[:, :dp], order)):
            full = np.zeros((len(pts),) + (self.d,) * k + (self.ambient,))
            full[(slice(None),) + (slice(0, dp),) * k + (slice(0, mp),)] = part
            out.append(full)
        out[0][:, mp:] = pts[:, dp:]
        out[1][:, dp:, mp:] = np.eye(self.extra)
        return tuple(out)


def sphere_chart(box=None) -> CallableChart:
    """Unit sphere S^2 in R^3, oriented so the frame normal points inward.

    Coordinates (s, t) = (azimuth, polar angle); the index-order normal of
    (f_s, f_t) is -f, so the shape operator is +Identity.
    """
    if box is None:
        box = np.array([[0.2, 1.4], [0.7, 2.3]])

    def val(p):
        s, t = p
        return np.array([np.sin(t) * np.cos(s), np.sin(t) * np.sin(s), np.cos(t)])

    def d1(p):
        s, t = p
        return np.array(
            [
                [-np.sin(t) * np.sin(s), np.sin(t) * np.cos(s), 0.0],
                [np.cos(t) * np.cos(s), np.cos(t) * np.sin(s), -np.sin(t)],
            ]
        )

    def d2(p):
        s, t = p
        f = val(p)
        fss = np.array([-np.sin(t) * np.cos(s), -np.sin(t) * np.sin(s), 0.0])
        fst = np.array([-np.cos(t) * np.sin(s), np.cos(t) * np.cos(s), 0.0])
        ftt = -f
        return np.array([[fss, fst], [fst, ftt]])

    return CallableChart(d=2, ambient=3, box=np.asarray(box, float), value_fn=val, d1_fn=d1, d2_fn=d2)


def plane_chart(d: int = 2, box=None) -> CallableChart:
    """Affine d-plane in R^{d+1}: zero shape operator, rank 0."""
    if box is None:
        box = np.array([[-1.0, 1.0]] * d)
    frame = np.zeros((d, d + 1))
    frame[:, :d] = np.eye(d)
    offset = np.zeros(d + 1)
    offset[d] = 1.0

    return CallableChart(
        d=d,
        ambient=d + 1,
        box=np.asarray(box, float),
        value_fn=lambda p: offset + frame.T @ p,
        d1_fn=lambda p: frame.copy(),
        d2_fn=lambda p: np.zeros((d, d, d + 1)),
    )


def polar_plane_chart(box=None) -> CallableChart:
    """Flat plane in R^3 in polar coordinates (r, theta).

    Metric diag(1, r^2); the closed-form Christoffel symbols
    Gamma^r_tt = -r, Gamma^t_rt = 1/r serve as a finite-difference oracle.
    """
    if box is None:
        box = np.array([[0.5, 2.0], [0.2, 1.2]])

    def val(p):
        r, t = p
        return np.array([r * np.cos(t), r * np.sin(t), 0.0])

    def d1(p):
        r, t = p
        return np.array([[np.cos(t), np.sin(t), 0.0], [-r * np.sin(t), r * np.cos(t), 0.0]])

    def d2(p):
        r, t = p
        zero = np.zeros(3)
        frt = np.array([-np.sin(t), np.cos(t), 0.0])
        ftt = np.array([-r * np.cos(t), -r * np.sin(t), 0.0])
        return np.array([[zero, frt], [frt, ftt]])

    return CallableChart(d=2, ambient=3, box=np.asarray(box, float), value_fn=val, d1_fn=d1, d2_fn=d2)


def ellipse_chart(a: float = 1.5, b: float = 0.8, box=None) -> CallableChart:
    """Plane curve (a cos t, b sin t) as a 1-dimensional chart in R^2."""
    if box is None:
        box = np.array([[0.3, 2.8]])

    return CallableChart(
        d=1,
        ambient=2,
        box=np.asarray(box, float),
        value_fn=lambda p: np.array([a * np.cos(p[0]), b * np.sin(p[0])]),
        d1_fn=lambda p: np.array([[-a * np.sin(p[0]), b * np.cos(p[0])]]),
        d2_fn=lambda p: np.array([[[-a * np.cos(p[0]), -b * np.sin(p[0])]]]),
    )


def grid_points(box, counts) -> np.ndarray:
    """Regular grid over a (d, 2) box; counts is one int per axis (>= 2)."""
    box = np.asarray(box, dtype=np.float64)
    counts = [int(c) for c in np.atleast_1d(counts)]
    if len(counts) == 1:
        counts = counts * box.shape[0]
    if len(counts) != box.shape[0]:
        raise DomainError(f"need {box.shape[0]} axis counts, got {len(counts)}")
    if any(c < 2 for c in counts):
        raise DomainError("grid needs at least 2 points per axis")
    axes = [np.linspace(lo, hi, c) for (lo, hi), c in zip(box, counts)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def random_points(box, count: int, rng) -> np.ndarray:
    """Uniform samples in a (d, 2) box from a seeded Generator."""
    box = np.asarray(box, dtype=np.float64)
    return rng.uniform(box[:, 0], box[:, 1], size=(count, box.shape[0]))


def shrink_box(box, fraction: float) -> np.ndarray:
    """Box scaled about its center; keeps FD stencils inside the domain."""
    box = np.asarray(box, dtype=np.float64)
    mid = box.mean(axis=1, keepdims=True)
    return mid + (box - mid) * fraction
