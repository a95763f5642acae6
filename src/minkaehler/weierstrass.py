"""Recursive Weierstrass-type construction of minimal Kaehler hypersurfaces.

Seed data is holomorphic: a nowhere-zero series alpha_0, chain multipliers
mu_1..mu_n, and representation coefficients b_0..b_{n-1} with b_{n-1}
nowhere zero, all expanded about one basepoint.  The chain iterates

    phi_r     = integral of alpha_r        (component-wise, with constants)
    alpha_r+1 = mu_r+1 * ( (1 - q)/2, i (1 + q)/2, phi_r ),
                q = vdot(phi_r, phi_r)

so alpha_r has 2r+1 components.  With delta = alpha_n and its derivatives
delta^(j), the holomorphic representative on U x W, W in C^{n-1}, is

    F(z, w) = sum_{j=0}^{n-1} integral b_j delta^(j) dz
            + sum_{j=1}^{n-1} w_j delta^(j-1),

valued in C^{2n+1}.  The hypersurface chart is f = sqrt(2) Re F in the real
coordinates (x, y, u_1, v_1, ...), its conjugate is fbar = sqrt(2) Im F,
and the associated family is f_theta = cos(theta) f + sin(theta) fbar.
Because F is affine in w and holomorphic in z, a jet of any order reduces
to Horner evaluations of stored coefficient rows; those go through the
kernels module.  Verification reads jets to order 3; the Gauss
parametrization of :mod:`minkaehler.gausspar` reads the 4-jets.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import kernels
from .charts import ImmersionChart, shrink_box
from .errors import DomainError, DomainWarning, SeedValidationError
from .series import (
    DEFAULT_ORDER,
    SeriesVector,
    TruncatedSeries,
    series_mul,
    truncate,
    vdot,
)

SQRT2 = math.sqrt(2.0)


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
        self.alpha0 = _to_order(self.alpha0, self.trunc_order)
        self.mu = [_to_order(s, self.trunc_order) for s in self.mu]
        self.b = [_to_order(s, self.trunc_order) for s in self.b]
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


def _to_order(s: TruncatedSeries, order: int) -> TruncatedSeries:
    if s.order == order:
        return s
    if s.order > order:
        return truncate(s, order)
    c = np.zeros(order + 1, dtype=np.complex128)
    c[: s.order + 1] = s.coeffs
    return TruncatedSeries(s.base, c)


def _domain_samples(seed: WeierstrassSeed, radial: int = 6, angular: int = 16) -> np.ndarray:
    radii = np.linspace(0.0, seed.domain.radius, radial + 1)[1:]
    angles = np.linspace(0.0, 2 * np.pi, angular, endpoint=False)
    pts = [seed.basepoint]
    for r in radii:
        pts.extend(seed.basepoint + r * np.exp(1j * angles))
    return np.asarray(pts)


def validate_seed(seed: WeierstrassSeed, zero_tol: float = 1e-9) -> None:
    """Check the nowhere-zero invariants on a polar grid of the domain disc.

    Raises :class:`SeedValidationError` naming the offending datum.  The
    tolerance is relative to the largest sampled modulus (with floor 1).
    """
    samples = _domain_samples(seed)

    def check(series: TruncatedSeries, label: str):
        vals = np.abs([series(z) for z in samples])
        if vals.min() <= zero_tol * max(1.0, vals.max()):
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
    """Output of the recursion: alphas, phis, delta and its derivatives.

    ``alphas[r]`` = alpha_r (dimension 2r+1, r = 0..n), ``phis[r]`` = phi_r
    (r = 0..n-1), ``delta_derivs[j]`` = delta^(j) for j = 0..n (one past the
    representation's needs, for second partials of the chart).
    """

    alphas: tuple
    phis: tuple
    delta_derivs: tuple

    @property
    def delta(self) -> SeriesVector:
        return self.alphas[-1]


def build_chain(seed: WeierstrassSeed) -> WeierstrassChain:
    """Run the recursion from alpha_0 through delta = alpha_n."""
    one = TruncatedSeries.constant(1.0, seed.basepoint, seed.trunc_order)
    alphas = [SeriesVector((seed.alpha0,))]
    phis = []
    for r in range(seed.n):
        const = None if seed.phi_constants is None else seed.phi_constants[r]
        phi = alphas[r].integrate(const)
        phis.append(phi)
        q = vdot(phi, phi)
        mu = seed.mu[r]
        head1 = series_mul(mu, (one - q) * 0.5)
        head2 = series_mul(mu, (one + q) * 0.5) * 1j
        tail = phi.scale(mu)
        alphas.append(SeriesVector((head1, head2) + tail.components))
    delta = alphas[-1]
    derivs = [delta]
    for _ in range(seed.n):
        derivs.append(derivs[-1].diff())
    return WeierstrassChain(tuple(alphas), tuple(phis), tuple(derivs))


class HolomorphicRep:
    """The representative F(z, w) in C^{2n+1} and its exact derivatives.

    F is holomorphic in z and affine in w: dF/dw_j = delta^(j-1) for
    j = 1..n-1, and all second w-derivatives vanish.
    """

    def __init__(self, seed: WeierstrassSeed, chain: WeierstrassChain | None = None):
        if chain is None:
            chain = build_chain(seed)
        self.seed = seed
        self.chain = chain
        n = seed.n
        pieces = []
        for j in range(n):
            integrand = SeriesVector(
                tuple(series_mul(seed.b[j], c) for c in chain.delta_derivs[j].components)
            )
            const = None if seed.rep_constants is None else seed.rep_constants[j]
            pieces.append(integrand.integrate(const))
        self.base_part = pieces[0]
        for p in pieces[1:]:
            self.base_part = SeriesVector(
                tuple(a + b for a, b in zip(self.base_part.components, p.components))
            )
        self.w_parts = [chain.delta_derivs[j - 1] for j in range(1, n)]

    @property
    def ambient_dim(self) -> int:
        return 2 * self.seed.n + 1

    def _split(self, w) -> np.ndarray:
        w = np.asarray(w, dtype=np.complex128).reshape(-1)
        if w.shape != (self.seed.n - 1,):
            raise DomainError(f"w must have {self.seed.n - 1} complex entries, got {w.shape}")
        return w

    def value(self, z: complex, w=()) -> np.ndarray:
        w = self._split(w)
        out = self.base_part.eval(z)
        for wj, part in zip(w, self.w_parts):
            out = out + wj * part.eval(z)
        return out

    def w_partial(self, j: int) -> SeriesVector:
        """dF/dw_j as a vector series; j runs from 1 to n-1."""
        if not 1 <= j <= self.seed.n - 1:
            raise DomainError(f"w index must be in 1..{self.seed.n - 1}")
        return self.w_parts[j - 1]


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


class SeriesChart(ImmersionChart):
    """Family member f_theta = sqrt(2) Re( e^{-i theta} F ) with jets of
    any order.

    Real coordinates (x, y, u_1, v_1, ..., u_{n-1}, v_{n-1}) with
    z = basepoint + x + i y and w_j = u_j + i v_j.  All jets come from
    Horner evaluation of stored coefficient rows, built per order on first
    use; delta^(n+1) and beyond, read only by partials of order 3 and up,
    are differentiated here rather than in the chain.
    """

    def __init__(self, seed: WeierstrassSeed, theta: float = 0.0, chain: WeierstrassChain | None = None, box=None):
        if not 0.0 <= theta < math.pi:
            raise ValueError("theta must lie in [0, pi)")
        rep = HolomorphicRep(seed, chain)
        self.seed = seed
        self.rep = rep
        self.theta = float(theta)
        self.chain = rep.chain
        n = seed.n
        self.d = 2 * n
        self.ambient = 2 * n + 1
        self._width = max(
            rep.base_part.order + 1,
            max((d.order + 1 for d in rep.chain.delta_derivs), default=1),
        )
        base1 = rep.base_part.diff()
        # rows base^(0..2), delta^(0..n); each order k > 2 appends base^(k)
        # and delta^(n+k-2), so a lower order's rows are a prefix
        self._series = [rep.base_part, base1, base1.diff(), *rep.chain.delta_derivs]
        self._rows_by_order = {}
        self._phase = SQRT2 * _snap_phase(self.theta)
        if box is None:
            zhalf = seed.domain.radius / math.sqrt(2.0)
            halves = [zhalf, zhalf]
            for h in seed.domain.w_halfwidth:
                halves.extend([h, h])
            box = np.array([[-h, h] for h in halves])
            box = shrink_box(box, 0.7)
        self.box = np.asarray(box, dtype=np.float64)

    def domain_contains(self, pts, margin: float = 0.0) -> np.ndarray:
        """Whether each point of a (..., d) stack lies in the seed's domain,
        ``margin`` inside its boundary; shape (...)."""
        pts = np.asarray(pts, dtype=np.float64)
        halves = np.repeat(self.seed.domain.w_halfwidth, 2)
        inside = np.hypot(pts[..., 0], pts[..., 1]) <= self.seed.domain.radius - margin
        return inside & np.all(np.abs(pts[..., 2:]) <= halves - margin, axis=-1)

    def _rows(self, order: int) -> tuple:
        """Coefficient rows and jet table for ``order``, built on first use."""
        if order not in self._rows_by_order:
            n, s = self.seed.n, self._series
            while len(s) < n + 2 * order:
                s += [s[2 if len(s) == n + 4 else -2].diff(), s[-1].diff()]
            coef = np.vstack([r.coeff_matrix(self._width) for r in s[: n + 2 * order]])
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
        coef, table = self._rows(max(order, 2))
        n = self.seed.n
        m1 = self.ambient
        npts = pts.shape[0]
        dz = pts[:, 0] + 1j * pts[:, 1]
        blocks = kernels.horner_many(coef, dz.astype(np.complex128))
        blocks = blocks.reshape(-1, m1, npts)
        # d^a F / dz^a and delta^(0) .. delta^(n-2+order), from the row layout
        Fz = [b.copy() for b in (*blocks[:3], *blocks[n + 4 :: 2])]
        delta = [*blocks[3 : n + 4], *blocks[n + 5 :: 2]]
        wmat = pts[:, 2::2] + 1j * pts[:, 3::2] if n > 1 else np.zeros((npts, 0), complex)
        for j in range(1, n):
            wj = wmat[:, j - 1]
            for a in range(len(Fz)):
                Fz[a] += wj[None, :] * delta[j - 1 + a]
        sources = Fz + delta
        parts = np.zeros((npts, 2 * len(sources) + 1, m1))  # Re, Im, a zero row
        for i, s in enumerate(sources):
            # one product per source: numpy's complex product can round a
            # value differently at another offset in a longer array
            c = self._phase * s
            parts[:, i, :] = c.real.T
            parts[:, len(sources) + i, :] = c.imag.T
        out = []
        for rows, signs in table:
            dk = np.take(parts, rows, axis=1)
            dk *= signs
            out.append(dk)
        return tuple(out[: order + 1])

    def values(self, pts) -> np.ndarray:
        return self.jet_batch(pts)[0]


def immersion_f(seed: WeierstrassSeed, chain: WeierstrassChain | None = None, box=None) -> SeriesChart:
    """The hypersurface chart f = sqrt(2) Re F."""
    return SeriesChart(seed, 0.0, chain, box)


def conjugate_fbar(seed: WeierstrassSeed, chain: WeierstrassChain | None = None, box=None) -> SeriesChart:
    """The conjugate chart fbar = sqrt(2) Im F."""
    return SeriesChart(seed, math.pi / 2, chain, box)


def associated(seed: WeierstrassSeed, theta: float, chain: WeierstrassChain | None = None, box=None) -> SeriesChart:
    """Associated-family member cos(theta) f + sin(theta) fbar, theta in [0, pi)."""
    return SeriesChart(seed, theta, chain, box)


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


def _pair2c(p) -> complex:
    if isinstance(p, (int, float)):
        return complex(p)
    if len(p) != 2:
        raise SeedValidationError(f"complex entries are [re, im] pairs, got {p!r}")
    return complex(float(p[0]), float(p[1]))


def _series_to_json(s: TruncatedSeries) -> list:
    return [_c2pair(c) for c in s.coeffs]


def _series_from_json(coeffs, base: complex, order: int) -> TruncatedSeries:
    vals = np.array([_pair2c(p) for p in coeffs], dtype=np.complex128)
    return _to_order(TruncatedSeries(base, vals), order)


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


def seed_from_json(data: dict) -> WeierstrassSeed:
    try:
        n = int(data["n"])
        base = _pair2c(data.get("basepoint", [0.0, 0.0]))
        order = int(data.get("trunc_order", DEFAULT_ORDER))
        alpha0 = _series_from_json(data["alpha0"], base, order)
        mu = [_series_from_json(s, base, order) for s in data["mu"]]
        b = [_series_from_json(s, base, order) for s in data["b"]]
        dom = data["domain"]
        domain = DomainSpec(float(dom["radius"]), tuple(dom.get("w_halfwidth", ())))
    except KeyError as exc:
        raise SeedValidationError(f"seed JSON is missing required key {exc}") from exc
    consts = data.get("constants", {})
    phi_c = None
    rep_c = None
    if "phi" in consts:
        phi_c = [np.array([_pair2c(c) for c in vec], dtype=np.complex128) for vec in consts["phi"]]
    if "rep" in consts:
        rep_c = [np.array([_pair2c(c) for c in vec], dtype=np.complex128) for vec in consts["rep"]]
    seed = WeierstrassSeed(
        n=n,
        alpha0=alpha0,
        mu=mu,
        b=b,
        domain=domain,
        trunc_order=order,
        phi_constants=phi_c,
        rep_constants=rep_c,
        name=str(data.get("name", "custom")),
    )
    return seed


def chain_to_json(chain: WeierstrassChain) -> dict:
    def vec(v: SeriesVector) -> list:
        return [_series_to_json(c) for c in v.components]

    return {
        "alphas": [vec(a) for a in chain.alphas],
        "phis": [vec(p) for p in chain.phis],
        "delta_derivs": [vec(d) for d in chain.delta_derivs],
    }
