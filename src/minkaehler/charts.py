"""Chart infrastructure: jets, sampling boxes, and product charts.

An immersion chart maps an open box of R^d into R^{m+1} and reports the
jet (value, first partials, second partials) at a stack of points of its
box through ``jet_batch``; ``jet`` wraps that stack as a :class:`Jet2`
with the points' leading axes, a single point being the case with none.
Charts built from holomorphic seed data live in :mod:`minkaehler.weierstrass`,
where a stack of family members puts a member axis before the points
and ``member_jets`` splits it into one Jet2 per member.  This module holds
the shared protocol and products with a Euclidean factor.  Closed-form
charts, one value formula in Taylor arithmetic, are
:class:`minkaehler.taylor.TaylorChart`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class Jet2:
    """Jet of a chart over any leading point axes ``...``.

    value : (..., m+1) ambient points
    d1    : (..., d, m+1) first partials, row i = d(chart)/d(coord i)
    d2    : (..., d, d, m+1) second partials, symmetric in the two axes
    coords: (..., d) the evaluation points

    Higher orders come from ``jet_batch`` alone.
    """

    coords: np.ndarray
    value: np.ndarray
    d1: np.ndarray
    d2: np.ndarray

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

    def jet(self, p) -> Jet2:
        """The 2-jet at points ``p`` of shape (..., d), as one :class:`Jet2`
        with the same leading axes after any member axis of the chart; one
        point (d,) gives the one-point slice."""
        p = np.asarray(p, dtype=np.float64)
        parts = self._on_points(p, 2)
        return Jet2(np.broadcast_to(p, parts[0].shape[:-1] + p.shape[-1:]), *parts)

    def value(self, p) -> np.ndarray:
        return self._on_points(np.asarray(p, dtype=np.float64), 0)[0]

    def _on_points(self, p: np.ndarray, order: int) -> tuple:
        """``jet_batch`` on the (..., d) stack ``p`` flattened to one point
        axis, each array's point axis reshaped back to p's leading axes."""
        parts = self.jet_batch(p.reshape(-1, p.shape[-1]), order)
        lead, member = p.shape[:-1], parts[0].ndim - 2
        return tuple(a.reshape(a.shape[:member] + lead + a.shape[member + 1 :]) for a in parts)


@dataclass
class ProductChart(ImmersionChart):
    """Cylinder ``(y, z) -> (profile(y), z)`` over a profile chart.

    Appends ``extra`` flat Euclidean coordinates, each over [-0.5, 0.5], to
    both domain and ambient space; the second fundamental form is carried
    entirely by the profile.
    """

    profile: ImmersionChart
    extra: int

    def __post_init__(self):
        self.d = self.profile.d + self.extra
        self.ambient = self.profile.ambient + self.extra
        flat = np.array([[-0.5, 0.5]] * self.extra)
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
        if order:
            out[1][:, dp:, mp:] = np.eye(self.extra)
        return tuple(out)


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
    """Box scaled about its center by ``fraction``."""
    box = np.asarray(box, dtype=np.float64)
    mid = box.mean(axis=1, keepdims=True)
    return mid + (box - mid) * fraction
