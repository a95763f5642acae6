"""Recursive Weierstrass-type construction of minimal Kaehler hypersurfaces.

Seed data is holomorphic: a nowhere-zero series alpha_0, chain multipliers
mu_1..mu_n, and representation coefficients b_0..b_{n-1} with b_{n-1}
nowhere zero, all expanded about one basepoint.  The chain iterates

    phi_r     = integral of alpha_r        (component-wise, with constants)
    alpha_r+1 = mu_r+1 * ( (1 - q)/2, i (1 + q)/2, phi_r ),
                q = vdot(phi_r, phi_r)

so alpha_r has 2r+1 components; each alpha_r and phi_r is one stack of
component series (:mod:`minkaehler.series`).  With delta = alpha_n and its
derivatives delta^(j), the holomorphic representative on U x W, W in
C^{n-1}, is

    F(z, w) = sum_{j=0}^{n-1} integral b_j delta^(j) dz
            + sum_{j=1}^{n-1} w_j delta^(j-1),

valued in C^{2n+1}.  :func:`build_chain` integrates its z part once, as
the chain's ``base``, so every chart built on one chain shares it.  The
hypersurface chart is f = sqrt(2) Re F in the real coordinates
(x, y, u_1, v_1, ...), its conjugate is fbar = sqrt(2) Im F, and the
associated family is f_theta = cos(theta) f + sin(theta) fbar.  Because F
is affine in w and holomorphic in z, a jet of any order reduces to Horner
evaluations of stored coefficient rows; those go through the kernels
module.  Verification reads jets to order 3; the Gauss
parametrization of :mod:`minkaehler.gausspar` reads the 4-jets.
A JSON seed is read against ``_SEED_SCHEMA``; an unknown key at any level,
a missing one or a non-finite number raises :class:`SeedValidationError`.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import kernels
from .charts import ImmersionChart, shrink_box
from .errors import REQUIRED, DomainError, DomainWarning, SeedValidationError, expect_json, read_json
from .series import (
    DEFAULT_ORDER,
    TruncatedSeries,
    series_add,
    series_diff,
    series_int,
    series_mul,
    to_order,
    vdot,
)

SQRT2 = math.sqrt(2.0)
_ZERO_TOL = 1e-9  # a seed series counts as zero below this relative modulus


@dataclass(frozen=True)
class DomainSpec:
    """Restricted domain: a disc about the basepoint and a box in C^{n-1}.

    ``radius`` bounds |z - basepoint|; ``w_halfwidth[j]`` bounds both the
    real and imaginary part of w_{j+1}.
    """

    radius: float
    w_halfwidth: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "w_halfwidth", tuple(float(h) for h in self.w_halfwidth))
        if self.radius <= 0:
            raise SeedValidationError("domain radius must be positive")
        if any(h <= 0 for h in self.w_halfwidth):
            raise SeedValidationError("domain w half-widths must be positive")


@dataclass
class WeierstrassSeed:
    """Holomorphic seed data for one construction run.

    ``mu`` and ``b`` are lists of n series each; integration constants
    default to zero everywhere.  ``phi_constants[r]`` (length 2r+1) feeds
    the integral producing phi_r, r = 0..n-1; ``rep_constants[j]`` (length
    2n+1) feeds the integral of b_j delta^(j).
    """

    n: int
    alpha0: TruncatedSeries
    mu: list
    b: list
    domain: DomainSpec
    trunc_order: int = DEFAULT_ORDER
    phi_constants: list | None = None
    rep_constants: list | None = None
    name: str = "custom"

    def __post_init__(self):
        if self.n < 1:
            raise SeedValidationError("n must be at least 1")
        if len(self.mu) != self.n:
            raise SeedValidationError(f"need n={self.n} chain multipliers, got {len(self.mu)}")
        if len(self.b) != self.n:
            raise SeedValidationError(f"need n={self.n} representation coefficients, got {len(self.b)}")
        if len(self.domain.w_halfwidth) != self.n - 1:
            raise SeedValidationError(
                f"domain needs {self.n - 1} w half-widths, got {len(self.domain.w_halfwidth)}"
            )
        base = self.alpha0.base
        for s in list(self.mu) + list(self.b):
            if s.base != base:
                raise SeedValidationError("all seed series must share the basepoint")
        # normalize orders to the run's truncation order
        self.alpha0 = to_order(self.alpha0, self.trunc_order)
        self.mu = [to_order(s, self.trunc_order) for s in self.mu]
        self.b = [to_order(s, self.trunc_order) for s in self.b]
        if self.phi_constants is not None:
            self.phi_constants = [np.asarray(c, dtype=np.complex128) for c in self.phi_constants]
            if len(self.phi_constants) != self.n:
                raise SeedValidationError(f"need {self.n} phi constant vectors")
            for r, c in enumerate(self.phi_constants):
                if c.shape != (2 * r + 1,):
                    raise SeedValidationError(f"phi constants for step {r} must have length {2 * r + 1}")
        if self.rep_constants is not None:
            self.rep_constants = [np.asarray(c, dtype=np.complex128) for c in self.rep_constants]
            if len(self.rep_constants) != self.n:
                raise SeedValidationError(f"need {self.n} representation constant vectors")
            for c in self.rep_constants:
                if c.shape != (2 * self.n + 1,):
                    raise SeedValidationError(f"representation constants must have length {2 * self.n + 1}")

    @property
    def basepoint(self) -> complex:
        return self.alpha0.base


def _domain_samples(seed: WeierstrassSeed) -> np.ndarray:
    """The basepoint and 16 points on each of 6 circles out to the radius."""
    radii = np.linspace(0.0, seed.domain.radius, 7)[1:]
    angles = np.linspace(0.0, 2 * np.pi, 16, endpoint=False)
    pts = [seed.basepoint]
    for r in radii:
        pts.extend(seed.basepoint + r * np.exp(1j * angles))
    return np.asarray(pts)


def validate_seed(seed: WeierstrassSeed) -> None:
    """Check that every seed series is kept far enough to converge on the
    domain disc, then the nowhere-zero invariants on a polar grid of it.

    A series counts as cut off short of convergence when its term of order
    ``trunc_order`` is nonzero and at least as large as every other term
    |c_k| r^k at the domain radius r (compared as logarithms, so that no
    radius overflows).  Raises :class:`SeedValidationError` naming the
    offending datum.  The nonzero tolerance ``_ZERO_TOL`` is relative to the
    largest sampled modulus (with floor 1).
    """
    radius, order = seed.domain.radius, seed.trunc_order
    labeled = [("alpha0", seed.alpha0)]
    labeled += [(f"mu[{r}]", m) for r, m in enumerate(seed.mu, start=1)]
    labeled += [(f"b[{j}]", b) for j, b in enumerate(seed.b)]
    for label, series in labeled:
        mods = np.abs(series.coeffs)
        k = np.flatnonzero(mods)
        terms = k * math.log(radius) + np.log(mods[k])
        if order > 0 and mods[-1] > 0 and terms[-1] >= terms.max():
            raise SeedValidationError(
                f"seed series {label} does not converge on the domain: its term of "
                f"order {order} is its largest at radius {radius:g}"
            )

    samples = _domain_samples(seed)

    def check(series: TruncatedSeries, label: str):
        vals = np.abs(kernels.horner_many(series.coeffs[None, :], samples - series.base)[0])
        if not vals.min() > _ZERO_TOL * max(1.0, vals.max()):  # true on NaN or infinity too
            raise SeedValidationError(
                f"seed invariant violated: {label} must be nonzero on the domain "
                f"(min modulus {vals.min():.3g} at sampled points)"
            )

    check(seed.alpha0, "alpha0")
    check(seed.b[seed.n - 1], "b[n-1]")
    # the recursion multiplies by mu_r at every step; a zero would make the
    # chart degenerate even though only alpha0 and b[n-1] carry the contract
    for r, m in enumerate(seed.mu, start=1):
        check(m, f"mu[{r}]")


@dataclass(frozen=True)
class WeierstrassChain:
    """Output of the recursion: alphas, phis, delta and its derivatives,
    each a stack of component series.

    ``alphas[r]`` = alpha_r (2r+1 components, r = 0..n), ``phis[r]`` =
    phi_r (r = 0..n-1), ``delta_derivs[j]`` = delta^(j) for j = 0..n (one
    past the representation's needs, for second partials of the chart),
    and ``base`` = sum_j integral b_j delta^(j) dz, the z-integral part of
    the representative F (2n+1 components).
    """

    alphas: tuple
    phis: tuple
    delta_derivs: tuple
    base: TruncatedSeries

    @property
    def delta(self) -> TruncatedSeries:
        return self.alphas[-1]


def build_chain(seed: WeierstrassSeed) -> WeierstrassChain:
    """Run the recursion from alpha_0 through delta = alpha_n, and integrate
    the z part of the representative."""
    one = TruncatedSeries.constant(1.0, seed.basepoint, seed.trunc_order)
    alphas = [TruncatedSeries(seed.basepoint, seed.alpha0.coeffs[None])]
    phis = []
    phi_constants = [0.0] * seed.n if seed.phi_constants is None else seed.phi_constants
    for r in range(seed.n):
        phi = series_int(alphas[r], phi_constants[r])
        phis.append(phi)
        q = vdot(phi, phi)
        mu = seed.mu[r]
        head1 = series_mul(mu, (one - q) * 0.5)
        head2 = series_mul(mu, (one + q) * 0.5) * 1j
        tail = series_mul(mu, phi)
        alphas.append(TruncatedSeries(seed.basepoint, np.vstack([head1.coeffs, head2.coeffs, tail.coeffs])))
    derivs = _derivatives([alphas[-1]], seed.n + 1)
    rep_constants = [0.0] * seed.n if seed.rep_constants is None else seed.rep_constants
    pieces = [series_int(series_mul(b, d), c) for b, d, c in zip(seed.b, derivs, rep_constants)]
    return WeierstrassChain(tuple(alphas), tuple(phis), tuple(derivs), functools.reduce(series_add, pieces))


def _snap_phase(theta: float) -> complex:
    """Mixing weights for the family; quarter-turn angles snap exactly."""
    if theta == 0.0:
        return 1.0 + 0.0j
    if theta == math.pi / 2:
        return -1.0j
    return math.cos(theta) - 1.0j * math.sin(theta)


def _jet_table(n: int, order: int) -> tuple:
    """Where each partial of f = Re(phase F) up to ``order`` comes from.

    A partial along x or u_j keeps the complex factor, one along y or v_j
    multiplies it by i; one w_j index turns d^a F / dz^a into delta^(j-1+a)
    and two give zero (F is affine in w).  Entry k indexes, per partial of
    order k, the rows Re(phase S), Im(phase S) and a zero row that jet_batch
    stacks for S = (d^a F / dz^a, a = 0..order; delta^(0..n-2+order)), with
    the signs of Re(i^p c) = Re c, -Im c, -Re c, Im c.
    """
    d, nsrc = 2 * n, 2 * order + n
    table = []
    for k in range(order + 1):
        rows = np.full((d,) * k, 2 * nsrc, dtype=np.intp)
        signs = np.ones((d,) * k + (1,))
        for idx in itertools.product(range(d), repeat=k):
            ws = [c // 2 for c in idx if c >= 2]
            power = sum(c % 2 for c in idx)
            if len(ws) <= 1:
                rows[idx] = (order + ws[0] + k - 1 if ws else k) + nsrc * (power % 2)
                signs[idx] = -1.0 if power % 4 in (1, 2) else 1.0
        table.append((rows, signs))
    return tuple(table)


def _derivatives(series, count: int) -> list:
    """The first ``count`` of (s, s', s'', ...), continuing ``series`` by
    differentiation."""
    series = list(series[:count])
    while len(series) < count:
        series.append(series_diff(series[-1]))
    return series


class SeriesChart(ImmersionChart):
    """Family member f_theta = sqrt(2) Re( e^{-i theta} F ) with jets of
    any order.

    Real coordinates (x, y, u_1, v_1, ..., u_{n-1}, v_{n-1}) with
    z = basepoint + x + i y and w_j = u_j + i v_j; the sampling ``box`` is
    the domain's inscribed box scaled by 0.7.  All jets come from
    Horner evaluation of stored coefficient rows, built per order on first
    use; delta^(n+1) and beyond, read only by partials of order 3 and up,
    are differentiated here rather than in the chain.
    """

    def __init__(self, seed: WeierstrassSeed, theta: float = 0.0, chain: WeierstrassChain | None = None):
        if not 0.0 <= theta < math.pi:
            raise ValueError("theta must lie in [0, pi)")
        self.seed = seed
        self.theta = float(theta)
        self.chain = build_chain(seed) if chain is None else chain
        n = seed.n
        self.d = 2 * n
        self.ambient = 2 * n + 1
        self._rows_by_order = {}
        self._phase = SQRT2 * _snap_phase(self.theta)
        halves = np.repeat([seed.domain.radius / math.sqrt(2.0), *seed.domain.w_halfwidth], 2)
        self.box = shrink_box(np.stack([-halves, halves], axis=1), 0.7)

    def domain_contains(self, pts) -> np.ndarray:
        """Whether each point of a (..., d) stack lies in the seed's domain;
        shape (...)."""
        pts = np.asarray(pts, dtype=np.float64)
        halves = np.repeat(self.seed.domain.w_halfwidth, 2)
        inside = np.hypot(pts[..., 0], pts[..., 1]) <= self.seed.domain.radius
        return inside & np.all(np.abs(pts[..., 2:]) <= halves, axis=-1)

    def _rows(self, order: int) -> tuple:
        """Coefficient rows and jet table for ``order``, built on first use:
        d^a base for a = 0..order, then delta^(j) for j = 0..n-2+order, each
        a stack of 2n+1 component rows zero-padded to one width."""
        if order not in self._rows_by_order:
            n = self.seed.n
            series = _derivatives([self.chain.base], order + 1)
            series += _derivatives(self.chain.delta_derivs, n - 1 + order)
            top = max(s.order for s in series)
            coef = np.concatenate([to_order(s, top).coeffs for s in series])
            self._rows_by_order[order] = (coef, _jet_table(n, order))
        return self._rows_by_order[order]

    def jet_batch(self, pts, order: int = 2) -> tuple:
        """Vectorized jets: (value (P,m+1), d1 (P,d,m+1), d2 (P,d,d,m+1),
        ...) to any ``order``, d_k of shape (P, d, ..., d, m+1); orders
        below 2 are sliced from the 2-jet.  Warns with
        :class:`DomainWarning` when a point leaves the seed's domain."""
        pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
        if pts.shape[1] != self.d:
            raise DomainError(f"points must have {self.d} coordinates, got {pts.shape[1]}")
        if order < 0:
            raise DomainError(f"jet order must be nonnegative, got {order}")
        if not self.domain_contains(pts).all():
            warnings.warn(
                "chart evaluated outside the seed's declared domain",
                DomainWarning,
                stacklevel=2,
            )
        k = max(order, 2) + 1
        coef, table = self._rows(k - 1)
        m1, npts = self.ambient, pts.shape[0]
        # one block per row stack: d^a F / dz^a for a < k, then delta^(j);
        # the w part of F adds w_j delta^(j-1+a) to d^a F / dz^a.  Far out
        # of the domain these overflow silently: the frame names the first
        # non-finite point.
        with np.errstate(over="ignore", invalid="ignore"):
            src = kernels.horner_many(coef, pts[:, 0] + 1j * pts[:, 1]).reshape(-1, m1, npts)
            for j in range(1, self.seed.n):
                src[:k] += (pts[:, 2 * j] + 1j * pts[:, 2 * j + 1]) * src[k + j - 1 : 2 * k + j - 1]
            parts = np.zeros((npts, 2 * len(src) + 1, m1))  # Re, Im, a zero row
            for i, s in enumerate(src):
                # one product per source: numpy's complex product can round a
                # value differently at another offset in a longer array
                c = self._phase * s
                parts[:, i, :] = c.real.T
                parts[:, len(src) + i, :] = c.imag.T
        out = []
        for rows, signs in table:
            dk = np.take(parts, rows, axis=1)
            dk *= signs
            out.append(dk)
        return tuple(out[: order + 1])

    def values(self, pts) -> np.ndarray:
        """The chart's values at a (P, d) stack of points."""
        return self.jet_batch(pts)[0]


def immersion_f(seed: WeierstrassSeed, chain: WeierstrassChain | None = None) -> SeriesChart:
    """The hypersurface chart f = sqrt(2) Re F."""
    return SeriesChart(seed, 0.0, chain)


def conjugate_fbar(seed: WeierstrassSeed, chain: WeierstrassChain | None = None) -> SeriesChart:
    """The conjugate chart fbar = sqrt(2) Im F."""
    return SeriesChart(seed, math.pi / 2, chain)


def associated(seed: WeierstrassSeed, theta: float, chain: WeierstrassChain | None = None) -> SeriesChart:
    """Associated-family member cos(theta) f + sin(theta) fbar, theta in [0, pi)."""
    return SeriesChart(seed, theta, chain)


def chart_complex_structure(d: int) -> np.ndarray:
    """The chart complex structure J compatible with the conjugate:
    fbar_* = f_* o J.  Columns are images of basis vectors; on each
    coordinate pair J sends d/dx -> -d/dy and d/dy -> d/dx (likewise
    u_j, v_j), i.e. blocks [[0, 1], [-1, 0]].
    """
    if d % 2:
        raise ValueError("chart dimension must be even")
    J = np.zeros((d, d))
    for k in range(0, d, 2):
        J[k, k + 1] = 1.0
        J[k + 1, k] = -1.0
    return J


# -- JSON seed ingestion ----------------------------------------------------

def _c2pair(z: complex) -> list:
    return [float(np.real(z)), float(np.imag(z))]


def _pair2c(p, key: str) -> complex:
    if not isinstance(p, (list, tuple)):
        return complex(expect_json(p, "number", key, SeedValidationError))
    if len(expect_json(p, "list", key, SeedValidationError, of="number")) != 2:
        raise SeedValidationError(f"complex entries are [re, im] pairs, got {p!r}")
    return complex(float(p[0]), float(p[1]))


def _series_to_json(s: TruncatedSeries) -> list:
    return [_c2pair(c) for c in s.coeffs]


def _complex_list(entries: list, key: str) -> np.ndarray:
    return np.array([_pair2c(p, key) for p in entries], dtype=np.complex128)


def _series_from_json(coeffs, base: complex, order: int, key: str) -> TruncatedSeries:
    if not coeffs:
        raise SeedValidationError(f"{key} needs at least one coefficient")
    return to_order(TruncatedSeries(base, _complex_list(coeffs, key)), order)


def seed_to_json(seed: WeierstrassSeed) -> dict:
    out = {
        "n": seed.n,
        "name": seed.name,
        "basepoint": _c2pair(seed.basepoint),
        "trunc_order": seed.trunc_order,
        "alpha0": _series_to_json(seed.alpha0),
        "mu": [_series_to_json(s) for s in seed.mu],
        "b": [_series_to_json(s) for s in seed.b],
        "domain": {
            "radius": seed.domain.radius,
            "w_halfwidth": list(seed.domain.w_halfwidth),
        },
    }
    if seed.phi_constants is not None:
        out["constants"] = out.get("constants", {})
        out["constants"]["phi"] = [[_c2pair(c) for c in vec] for vec in seed.phi_constants]
    if seed.rep_constants is not None:
        out["constants"] = out.get("constants", {})
        out["constants"]["rep"] = [[_c2pair(c) for c in vec] for vec in seed.rep_constants]
    return out


# each seed key's JSON kind, item kind and default; complex entries are checked by _pair2c
_SEED_SCHEMA = {
    "n": ("integer", None, REQUIRED),
    "name": ("string", None, "custom"),
    "basepoint": (None, None, [0.0, 0.0]),  # a number or an [re, im] pair
    "trunc_order": ("integer", None, DEFAULT_ORDER),
    "alpha0": ("list", None, REQUIRED),
    "mu": ("list", "list", REQUIRED),
    "b": ("list", "list", REQUIRED),
    "domain": (
        {"radius": ("number", None, REQUIRED), "w_halfwidth": ("list", "number", [])}, None, REQUIRED
    ),
    "constants": ({"phi": ("list", "list", None), "rep": ("list", "list", None)}, None, {}),
}


def seed_from_json(data: dict) -> WeierstrassSeed:
    data = read_json(data, _SEED_SCHEMA, "seed", SeedValidationError)
    base = _pair2c(data["basepoint"], "seed basepoint")
    order = int(data["trunc_order"])
    if order < 0:
        raise SeedValidationError(f"seed trunc_order must be >= 0, got {order}")
    phi_c, rep_c = (
        None if vecs is None else [_complex_list(vec, f"seed constants {k}") for vec in vecs]
        for k, vecs in data["constants"].items()
    )
    return WeierstrassSeed(
        n=int(data["n"]),
        alpha0=_series_from_json(data["alpha0"], base, order, "seed alpha0"),
        mu=[_series_from_json(s, base, order, "seed mu") for s in data["mu"]],
        b=[_series_from_json(s, base, order, "seed b") for s in data["b"]],
        domain=DomainSpec(float(data["domain"]["radius"]), data["domain"]["w_halfwidth"]),
        trunc_order=order,
        phi_constants=phi_c,
        rep_constants=rep_c,
        name=data["name"],
    )


def chain_to_json(chain: WeierstrassChain) -> dict:
    def vec(v: TruncatedSeries) -> list:
        return [_series_to_json(row) for row in v]

    return {
        "alphas": [vec(a) for a in chain.alphas],
        "phis": [vec(p) for p in chain.phis],
        "delta_derivs": [vec(d) for d in chain.delta_derivs],
    }
