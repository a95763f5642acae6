"""Chart infrastructure: jets, sampling boxes, and analytic test charts.

An immersion chart maps an open box of R^d into R^{m+1} and reports the
jet (value, first partials, second partials) at a stack of points of its
box through ``jet_batch``; ``jet`` wraps that stack as a :class:`Jet2`
with the points' leading axes, a single point being the case with none.
Charts built from holomorphic seed data live in :mod:`minkaehler.weierstrass`;
this module holds the shared protocol plus the small closed-form charts the
test oracles lean on (sphere, plane, polar plane, plane curves, products
with a Euclidean factor).  A closed-form chart is a :class:`TaylorChart`:
one value formula in Taylor arithmetic, whose jets of every order are
exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError
from .taylor import Taylor


@dataclass(frozen=True)
class Jet2:
    """Jet of a chart over any leading point axes ``...``.

    value : (..., m+1) ambient points
    d1    : (..., d, m+1) first partials, row i = d(chart)/d(coord i)
    d2    : (..., d, d, m+1) second partials, symmetric in the two axes
    coords: (..., d) the evaluation points
    d3    : (..., d, d, d, m+1) third partials, when asked for

    Higher orders come from ``jet_batch`` alone.
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


class ImmersionChart:
    """Base class: a parametrized piece of a submanifold with jets.

    Subclasses set ``d`` (domain dimension), ``ambient`` (= m+1), ``box``
    (d, 2) sampling box, and implement ``jet_batch(pts, order=2)``: for a
    (P, d) stack it returns (value, d1, ..., d_order) stacked along a
    leading P axis, d_k of shape (P, d, ..., d, m+1).
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


@dataclass
class TaylorChart(ImmersionChart):
    """Chart from one value formula written in Taylor arithmetic.

    ``fn`` maps a (P, d) stack of :class:`~minkaehler.taylor.Taylor`
    variables to the (P, ambient) Taylor values; the jets of any order are
    that expansion's derivative tensors, exact up to roundoff.
    """

    d: int
    ambient: int
    box: np.ndarray
    fn: Callable

    def jet_batch(self, pts, order: int = 2) -> tuple:
        pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
        out = self.fn(Taylor.variables(pts, order))
        return tuple(np.moveaxis(out.derivatives(k), 1, -1) for k in range(order + 1))


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


def sphere_chart(box=None) -> TaylorChart:
    """Unit sphere S^2 in R^3, oriented so the frame normal points inward.

    Coordinates (s, t) = (azimuth, polar angle); the index-order normal of
    (f_s, f_t) is -f, so the shape operator is +Identity.
    """
    if box is None:
        box = np.array([[0.2, 1.4], [0.7, 2.3]])

    def fn(x):
        s, t = x[..., 0], x[..., 1]
        return Taylor.stack([t.sin() * s.cos(), t.sin() * s.sin(), t.cos()])

    return TaylorChart(2, 3, np.asarray(box, float), fn)


def plane_chart(d: int = 2, box=None) -> TaylorChart:
    """Affine d-plane in R^{d+1}: zero shape operator, rank 0."""
    if box is None:
        box = np.array([[-1.0, 1.0]] * d)
    return TaylorChart(
        d, d + 1, np.asarray(box, float), lambda x: Taylor.stack([x[..., i] for i in range(d)] + [1.0])
    )


def polar_plane_chart(box=None) -> TaylorChart:
    """Flat plane in R^3 in polar coordinates (r, theta).

    Metric diag(1, r^2); the closed-form Christoffel symbols
    Gamma^r_tt = -r, Gamma^t_rt = 1/r serve as a finite-difference oracle.
    """
    if box is None:
        box = np.array([[0.5, 2.0], [0.2, 1.2]])

    def fn(x):
        r, t = x[..., 0], x[..., 1]
        return Taylor.stack([r * t.cos(), r * t.sin(), 0.0])

    return TaylorChart(2, 3, np.asarray(box, float), fn)


def ellipse_chart(a: float = 1.5, b: float = 0.8, box=None) -> TaylorChart:
    """Plane curve (a cos t, b sin t) as a 1-dimensional chart in R^2."""
    if box is None:
        box = np.array([[0.3, 2.8]])
    return TaylorChart(
        1, 2, np.asarray(box, float), lambda x: Taylor.stack([a * x[..., 0].cos(), b * x[..., 0].sin()])
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
