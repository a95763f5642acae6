"""Independent closed-form oracles used by the test suite.

Everything here is derived from classical textbook formulas, written
without reference to the package's own construction path, so agreement is
evidence rather than tautology.

* classical Weierstrass data (fW, g) induces the conformal metric
  lambda^2 (dx^2 + dy^2) with lambda = |fW| (1 + |g|^2) / 2 and Gauss
  curvature K = -(4 |g'|) ^2 / (|fW| (1+|g|^2)^2)^2.  The package charts
  carry an extra factor sqrt(2), which scales lambda by sqrt(2) and K by
  1/2.
* the catenoid seed uses fW = 1/z^2, g = z about basepoint 2; its
  conjugate is a helicoid with the same conformal factor.
* closed-form catenoid of neck radius sqrt(2), matching the exported
  vertex positions of the builtin seed.
* polar-coordinate Christoffel symbols on the flat plane.
* finite-difference references for the connection: Christoffel symbols
  from central differences of the metric, and the covariant derivative of
  the tangential part T_* of a variation field from central differences
  of T_* itself.  Both read only first partials, so they share nothing
  with the package's jet route, which reads the second partials.
* the covariant derivative of a (1,1)-field S, the input of the Codazzi
  check, from central differences of S's values; the package takes the
  part of d_l S that the Codazzi check reads exactly from the 2-jets.
* the support function of the ellipse (a cos t, b sin t) with outward
  normal: h = a b / sqrt(b^2 cos^2 t + a^2 sin^2 t).
* one central-difference jet of any value map (vector or scalar), the
  reference for every chart and Taylor formula with exact jets.
* the 2-jet of a f + b g from the jets of f and g (jets are linear), and
  the full, checked frames of the phase family's members cos(theta) f +
  sin(theta) T at sampled phases, whose metric deviation the package
  bounds in closed form instead.
* finite-difference routes that only tests call: the Weingarten equation
  dN = -f_* A, the first and second t-variations of the metric along
  f + tT, and the t-variations of the unit normal and of the shape
  operator (the bending tensor B) along f + tT, each a central difference
  between two deformed frames; the package takes both in closed form.
* the benchmark's workload module, loaded from its file, for the random
  seeds it verifies.
* closed-form test charts (sphere, plane, polar plane, ellipse) written as
  Taylor formulas, and three helpers: the metric at one point, the
  Variation (the chart's frame and the field's jet) every bending residual
  takes, and the default-grid bundle of each of the six verified seeds
  (``SIX_SEEDS``).
* the loops that the package's vectorized kernels replaced, kept as
  references: the generalized cross product one cofactor determinant at a
  time, and a residual report aggregated point by point.
* the operator norm in the G-geometry, the spectral norm of C^T M C^{-T}
  from one ``eigvalsh`` per point: the G-norm the package used before its
  Frobenius norm, which lies between it and sqrt(d) times it.
* the coordinate routes the package took before every operator became
  its matrix in the orthonormal frame, with G^{-1}, A = G^{-1} H, the
  Christoffel symbols Gamma and d_l G each from a solve against G and the
  contractions written as numpy's ``einsum`` and broadcast matmuls: the
  Laplace-Beltrami operator, the covariant derivative of a (1,1)-field,
  T_*, sigma, the three routes to B, the Codazzi derivative of B, the
  wedge of the linearized curvature identity, and nabla T_* through the
  coordinate derivative d_i T_*.  The tests compare them with the
  package's frame matrices through M_hat = C^T M C^{-T}.
* the full work the package's hot path skips, kept as references: the
  Horner recurrence over every coefficient column, zero padding included,
  the frame's regularity check with one SVD of every point's partials, a
  slice export that formats every cell on its own (the OBJ, then the CSV),
  and the greedy clustering of normals one sample against every earlier
  cluster at a time.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import sys
from pathlib import Path

import math

import numpy as np

from minkaehler.bending import Variation
from minkaehler.charts import Jet2
from minkaehler.errors import NonImmersionPointError
from minkaehler.export import slice_chart, slice_points
from minkaehler.geometry import (
    PointFrame,
    _flat,
    anticommutation_residual,
    minimality_residual,
    point_frame,
)
from minkaehler.report import ResidualReport
from minkaehler.seeds import builtin_seed
from minkaehler.suites import build_bundle
from minkaehler.taylor import Taylor, TaylorChart
from minkaehler.weierstrass import DomainSpec, chart_complex_structure, seed_from_json

SQRT2 = np.sqrt(2.0)


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
    Gamma^r_tt = -r, Gamma^t_rt = 1/r serve as an oracle (see
    :func:`polar_christoffel`).
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


def metric_of(chart, p) -> np.ndarray:
    """Induced metric G_ij = <f_i, f_j> at one point p."""
    d1 = chart.jet(np.asarray(p, dtype=np.float64)).d1
    return d1 @ d1.T


def frame_and_jet(chart, fld, p) -> Variation:
    """The field along the chart at points p of shape (..., d): the frame of
    the chart and the 2-jet of the field, the input of every bending
    residual."""
    return Variation(point_frame(chart.jet(p)), fld.jet(p))


SIX_SEEDS = ("enneper", "catenoid", "m4r5", "random-n1", "random-n2", "random-n3")


def seed_bundle(name):
    """A default-grid bundle of a built-in, of the built-in enneper on a
    disc of radius 1e12 (``enneper-r1e12``) or of a seed the benchmark's
    verify-random workload draws (n = 3 on its [2] * 6 grid)."""
    if name in ("enneper", "catenoid", "m4r5"):
        return build_bundle(builtin_seed(name))
    if name == "enneper-r1e12":
        return build_bundle(dataclasses.replace(builtin_seed("enneper"), domain=DomainSpec(radius=1e12)))
    seeds = {s["name"]: s for s in perfbench_module("workloads").random_seeds()}
    seed = seed_from_json(seeds[name])
    return build_bundle(seed, counts=[2] * 6 if seed.n == 3 else None)


def cross_columns_loop(d1: np.ndarray) -> np.ndarray:
    """Generalized cross product of the rows of each (d, d+1) slice, one
    signed cofactor determinant per component."""
    npts, d, amb = d1.shape
    cols = d1.transpose(0, 2, 1)
    out = np.empty((npts, amb))
    rows = np.arange(amb)
    for i in range(amb):
        out[:, i] = (-1.0) ** i * np.linalg.det(cols[:, rows != i, :])
    return out


def horner_untrimmed(coeffs: np.ndarray, dz: np.ndarray) -> np.ndarray:
    """The Horner recurrence over every column of ``coeffs`` (rows, order+1)
    at the offsets ``dz``, trailing zero columns included."""
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    acc = np.repeat(coeffs[:, -1][:, None], dz.shape[0], axis=1)
    for k in range(coeffs.shape[1] - 2, -1, -1):
        acc = acc * dz[None, :] + coeffs[:, k][:, None]
    return acc


def point_frame_full_svd(jet) -> PointFrame:
    """``point_frame`` with its regularity check on every point: one SVD of
    the whole stack of first partials, flagging smallest <= 1e-8 largest."""
    d1 = jet.d1
    finite = np.isfinite(jet.value).all(axis=-1) & np.isfinite(d1).all(axis=(-2, -1))
    bad = ~(finite & np.isfinite(jet.d2).all(axis=(-3, -2, -1)))
    if bad.any():
        raise NonImmersionPointError(f"the jet at {jet.coords[tuple(np.argwhere(bad)[0])]} is not finite")
    svals = np.linalg.svd(d1, compute_uv=False)
    bad = svals[..., -1] <= 1e-8 * svals[..., 0]
    if bad.any():
        k = tuple(np.argwhere(bad)[0])
        raise NonImmersionPointError(
            f"first partials are dependent at {jet.coords[k]} "
            f"(singular values {svals[k][0]:.3g} .. {svals[k][-1]:.3g})"
        )
    return PointFrame(jet)


def gnorm_spectral(frame, M: np.ndarray) -> np.ndarray:
    """Spectral norm of C^T M C^{-T}, with C the frame's Cholesky factor of
    G: the square root of the largest eigenvalue of K K^T, K = C^{-1} M^T C."""
    K = frame.chol_inv @ np.swapaxes(M, -1, -2) @ frame.chol
    return np.sqrt(np.linalg.eigvalsh(K @ np.swapaxes(K, -1, -2))[..., -1])


def export_slice_per_cell(seed, spec, obj_path, csv_path, name: str = "slice") -> None:
    """``export_slice`` writing one ``format(x, ".17g")`` per cell: the OBJ's
    vertex and face lines, then the CSV's header and rows."""
    chart = slice_chart(seed, spec)
    pts = slice_points(chart, spec)
    frame = point_frame(chart.jet(pts))
    residuals = {
        "anticommutation": anticommutation_residual(frame, chart_complex_structure(chart.d)),
        "minimality": minimality_residual(frame),
    }
    values = frame.jet.value
    nu, nv = spec.counts
    lines = [f"o {name}"] + ["v " + " ".join(format(x, ".17g") for x in row[:3]) for row in values.tolist()]
    for i in range(nu - 1):
        for j in range(nv - 1):
            a = i * nv + j + 1
            lines.append(f"f {a} {a + nv} {a + nv + 1} {a + 1}")
    Path(obj_path).write_bytes(("\n".join(lines) + "\n").encode("ascii"))
    header = [f"x{k}" for k in range(pts.shape[1])] + [f"f{k}" for k in range(values.shape[1])]
    lines = [",".join(header + sorted(residuals))]
    columns = [residuals[key] for key in sorted(residuals)]
    for r, (x, f) in enumerate(zip(pts.tolist(), values.tolist())):
        cells = x + f + [float(col[r]) for col in columns]
        lines.append(",".join(format(c, ".17g") for c in cells))
    Path(csv_path).write_bytes(("\n".join(lines) + "\n").encode("ascii"))


def cluster_labels_loop(normals: np.ndarray, tol: float) -> np.ndarray:
    """Greedy clustering of unit normals: each sample joins the first earlier
    cluster whose founding normal lies within ``tol``, else founds one."""
    labels = np.empty(len(normals), dtype=np.intp)
    reps = []
    for i, n in enumerate(normals):
        near = [ci for ci, rep in enumerate(reps) if np.linalg.norm(n - rep) < tol]
        labels[i] = near[0] if near else len(reps)
        reps += [] if near else [n]
    return labels


def report_from_residuals_loop(identity, residuals, tolerance, control=False) -> ResidualReport:
    """:meth:`ResidualReport.from_residuals` with one ``float`` per point."""
    vals = [float(r) for r in residuals]
    finite = [v for v in vals if math.isfinite(v)]
    worst = max(finite, default=0.0)
    total = 0.0  # from left to right, not by sum(), which Python 3.12 compensates
    for v in finite:
        total += v
    mean = min(total / len(finite), worst) if finite else 0.0
    passed = (worst > tolerance) if control else (worst < tolerance)
    return ResidualReport(
        identity=str(identity),
        points=len(vals),
        max_residual=worst,
        mean_residual=mean,
        tolerance=float(tolerance),
        passed=bool(passed) and len(finite) == len(vals),
        control=bool(control),
        nonfinite=len(vals) - len(finite),
    )


def classical_conformal_factor(fw: complex, g: complex) -> float:
    """lambda for classical Weierstrass data at one point (unscaled)."""
    return abs(fw) * (1.0 + abs(g) ** 2) / 2.0


def chart_conformal_factor(fw: complex, g: complex) -> float:
    """Conformal factor of the package's sqrt(2)-scaled charts."""
    return SQRT2 * classical_conformal_factor(fw, g)


def enneper_metric(z: complex) -> np.ndarray:
    lam = chart_conformal_factor(1.0, z)
    return lam**2 * np.eye(2)


def enneper_gauss_curvature(z: complex) -> float:
    """K of the sqrt(2)-scaled Enneper chart (classical K halved)."""
    k_classical = -((4.0 * 1.0) / (1.0 * (1.0 + abs(z) ** 2) ** 2)) ** 2
    return 0.5 * k_classical


def catenoid_metric(z: complex) -> np.ndarray:
    """Shared first fundamental form of the catenoid chart and its
    conjugate helicoid, in the chart's conformal coordinates."""
    lam = chart_conformal_factor(1.0 / z**2, z)
    return lam**2 * np.eye(2)


def catenoid_closed_form(z: complex, basepoint: complex = 2.0) -> np.ndarray:
    """Exact catenoid point for the builtin seed at chart coordinate z.

    Integrating (fW (1-g^2)/2, i fW (1+g^2)/2, fW g) with fW = 1/z^2,
    g = z from the basepoint and scaling by sqrt(2).
    """
    f1 = -(z + 1.0 / z) / 2.0 + (basepoint + 1.0 / basepoint) / 2.0
    f2 = 1j * (z - 1.0 / z) / 2.0 - 1j * (basepoint - 1.0 / basepoint) / 2.0
    f3 = np.log(z) - np.log(basepoint)
    return SQRT2 * np.array([f1.real, f2.real, f3.real])


def polar_christoffel(r: float) -> np.ndarray:
    """Gamma[k, i, j] for the flat metric diag(1, r^2) in (r, theta)."""
    gam = np.zeros((2, 2, 2))
    gam[0, 1, 1] = -r
    gam[1, 0, 1] = gam[1, 1, 0] = 1.0 / r
    return gam


EPS = np.finfo(np.float64).eps
# Central first differences balance truncation against roundoff near eps^(1/3);
# second differences near eps^(1/4).  Steps scale with max(1, |coordinate|).
FD_STEP_D1 = EPS ** (1.0 / 3.0)
FD_STEP_D2 = EPS ** 0.25


def _fd_steps(p: np.ndarray) -> np.ndarray:
    return FD_STEP_D1 * np.maximum(1.0, np.abs(p))


def fd_jet(fn, p, h1: float = FD_STEP_D1, h2: float = FD_STEP_D2) -> tuple:
    """(value, d1, d2) of the value map ``fn`` at one point by central
    differences: d1[i] with step h1, d2[i, j] with step h2 (each scaled by
    max(1, |p_i|)).  Values may be scalars or arrays."""
    p = np.asarray(p, dtype=np.float64)
    d = p.size
    scale = np.maximum(1.0, np.abs(p))
    s1, s2 = h1 * scale, h2 * scale
    e = np.eye(d)

    def f(q):
        return np.asarray(fn(q), dtype=np.float64)

    f0 = f(p)
    d1 = np.array([(f(p + s1[i] * e[i]) - f(p - s1[i] * e[i])) / (2 * s1[i]) for i in range(d)])
    d2 = np.empty((d, d) + f0.shape)
    for i in range(d):
        d2[i, i] = (f(p + s2[i] * e[i]) - 2 * f0 + f(p - s2[i] * e[i])) / s2[i] ** 2
        for j in range(i + 1, d):
            a, b = s2[i] * e[i], s2[j] * e[j]
            d2[i, j] = d2[j, i] = (
                f(p + a + b) - f(p + a - b) - f(p - a + b) + f(p - a - b)
            ) / (4 * s2[i] * s2[j])
    return f0, d1, d2


def weingarten_residual(chart, p) -> float:
    """FD cross-check of dN(e_i) = -f_*(A e_i); relative to |A e_i|."""
    p = np.asarray(p, dtype=np.float64)
    hs = _fd_steps(p)
    fr = point_frame(chart.jet(p))
    worst = 0.0
    for i in range(chart.d):
        e = np.zeros(chart.d)
        e[i] = hs[i]
        dN = (point_frame(chart.jet(p + e)).normal - point_frame(chart.jet(p - e)).normal) / (2 * hs[i])
        push = fr.jet.d1.T @ shape_operator(fr)[:, i]
        worst = max(worst, np.linalg.norm(dN + push) / (1.0 + np.linalg.norm(push)))
    return worst


def _deformed_metric(chart, fld, p, t: float) -> np.ndarray:
    """The metric of f + tT at one point p, from the sum of the first
    partials of f and t T."""
    d1 = chart.jet(p).d1 + t * fld.jet(p).d1
    return d1 @ d1.T


def first_variation_metric_residual(chart, fld, p, eps: float = 1e-4) -> float:
    """||(G(eps) - G(-eps)) / 2 eps||_F / ||G(0)||_F along f + tT.

    The metric of the deformed chart is exactly quadratic in t, so the
    central difference isolates the first-order term with no truncation
    error; for a bending this is roundoff-sized.
    """
    gp = _deformed_metric(chart, fld, p, eps)
    gm = _deformed_metric(chart, fld, p, -eps)
    return float(np.linalg.norm((gp - gm) / (2 * eps)) / np.linalg.norm(metric_of(chart, p)))


def second_variation_metric_residual(chart, fld, p, t: float = 0.1) -> float:
    """||G(t) - G(0) - t^2 <T_i, T_j>||_F / ||G(0)||_F (exact identity)."""
    g0 = metric_of(chart, p)
    gt = _deformed_metric(chart, fld, p, t)
    td1 = fld.jet(p).d1
    return float(np.linalg.norm(gt - g0 - t * t * (td1 @ td1.T)) / np.linalg.norm(g0))


def mix_jets(a, ja: Jet2, b, jb: Jet2) -> Jet2:
    """The 2-jet of a f + b g from the jets of f and g on the same points
    (exact: jets are linear); 1-d arrays a, b stack the mixes on a new leading axis."""
    pairs = ((ja.value, jb.value), (ja.d1, jb.d1), (ja.d2, jb.d2))
    mixed = (np.multiply.outer(a, x) + np.multiply.outer(b, y) for x, y in pairs)
    return Jet2(np.broadcast_to(ja.coords, np.shape(a) + ja.coords.shape), *mixed)


def scaled_jet(jet: Jet2, factor: float) -> Jet2:
    """The jet of ``factor`` times the field."""
    return dataclasses.replace(jet, value=factor * jet.value, d1=factor * jet.d1, d2=factor * jet.d2)


def sampled_family_metric(f: Jet2, T: Jet2, phases) -> np.ndarray:
    """max over the phases of ||G_theta - G||_F / ||G||_F per point, G_theta
    the metric of the full, checked frame of the member cos(theta) f +
    sin(theta) T, every phase in one frame stack."""
    members = point_frame(mix_jets(np.cos(phases), f, np.sin(phases), T))
    G = PointFrame(f).metric
    worst = np.linalg.norm(members.metric - G, axis=(-2, -1)).max(axis=0)
    return worst / np.linalg.norm(G, axis=(-2, -1))


def _deformed_frame(v, t: float):
    """The frame of f + tT, from the 2-jets of f and T that the Variation
    ``v`` holds (exact in t, since the deformation is affine).  It reads
    the two jets only, none of the pieces a Variation keeps."""
    return point_frame(mix_jets(1.0, v.frame.jet, t, v.jet))


def fd_normal_variation(v, eps: float = 1e-4) -> np.ndarray:
    """(N(eps) - N(-eps)) / (2 eps) along f + tT: the t-derivative of the
    unit normal with O(eps^2) truncation."""
    up = _deformed_frame(v, eps).normal
    down = _deformed_frame(v, -eps).normal
    return (up - down) / (2 * eps)


def B_by_fd(v, eps: float = 1e-4) -> np.ndarray:
    """B as the central t-difference of the (coordinate) shape operator of
    f + tT, with O(eps^2) truncation."""
    ap = shape_operator(_deformed_frame(v, eps))
    am = shape_operator(_deformed_frame(v, -eps))
    return (ap - am) / (2 * eps)


def fd_christoffel(chart, p) -> np.ndarray:
    """Gamma[k, i, j] = (1/2) G^{kl} (d_i G_jl + d_j G_il - d_l G_ij), with
    d_i G by central differences at steps eps^(1/3) max(1, |p_i|)."""
    p = np.asarray(p, dtype=np.float64)
    hs = _fd_steps(p)
    d = p.size
    dG = np.empty((d, d, d))
    for i in range(d):
        e = np.zeros(d)
        e[i] = hs[i]
        dG[i] = (metric_of(chart, p + e) - metric_of(chart, p - e)) / (2 * hs[i])
    # term[l, i, j] = d_i G_jl + d_j G_il - d_l G_ij
    term = np.einsum("ijl->lij", dG) + np.einsum("jil->lij", dG) - dG
    return 0.5 * np.einsum("kl,lij->kij", np.linalg.inv(metric_of(chart, p)), term)


def fd_tangential_covariant_derivative(chart, field, p) -> np.ndarray:
    """(nabla_i T_*)^k_j as [i, k, j]: T_* = G^{-1} <f_i, T_j> differenced
    at steps eps^(1/3) max(1, |p_i|), plus Gamma^k_il T^l_j - Gamma^l_ij T^k_l
    from :func:`fd_christoffel`.  ``field`` maps the chart's jet at a point
    to the field's jet there."""
    p = np.asarray(p, dtype=np.float64)

    def tstar(q):
        jet = chart.jet(q)
        d1 = jet.d1
        return np.linalg.solve(d1 @ d1.T, d1 @ field(jet).d1.T)

    hs = _fd_steps(p)
    d = p.size
    gam = fd_christoffel(chart, p)
    S = tstar(p)
    out = np.empty((d, d, d))
    for i in range(d):
        e = np.zeros(d)
        e[i] = hs[i]
        dS = (tstar(p + e) - tstar(p - e)) / (2 * hs[i])
        out[i] = dS + gam[:, i, :] @ S - S @ gam[:, i, :]
    return out


def fd_codazzi(chart, field, p) -> np.ndarray:
    """(nabla_i S)^k_j as [i, k, j] for the operator field ``field``:
    d_i S by central differences of its values at steps eps^(1/3)
    max(1, |p_i|), plus Gamma^k_il S^l_j - Gamma^l_ij S^k_l from
    :func:`fd_christoffel`."""
    p = np.asarray(p, dtype=np.float64)
    hs = _fd_steps(p)
    d = p.size
    gam = fd_christoffel(chart, p)
    S = field(p)
    out = np.empty((d, d, d))
    for i in range(d):
        e = np.zeros(d)
        e[i] = hs[i]
        dS = (field(p + e) - field(p - e)) / (2 * hs[i])
        out[i] = dS + gam[:, i, :] @ S - S @ gam[:, i, :]
    return out


def ellipse_support(a: float, b: float, t: float) -> float:
    """Distance from the center to the tangent line at parameter t."""
    return a * b / np.sqrt(b**2 * np.cos(t) ** 2 + a**2 * np.sin(t) ** 2)


def sphere_harmonic_eigencheck(value_z: float) -> float:
    """Degree-1 spherical harmonics on S^2 satisfy Delta gamma = -2 gamma."""
    return -2.0 * value_z


def perfbench_module(name: str):
    """The module ``perfbench/<name>.py`` of this checkout."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the file runs
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


# -- coordinate references, through solves against G ------------------------
#
# Each forms the coordinate object the package no longer holds (G^{-1}, A,
# Gamma, d_l G, T_*, sigma, the coordinate B) from a solve against G and
# einsum or broadcast contractions; a test compares it with the package's
# frame matrix through :func:`in_frame`.

def _t(M):
    return np.swapaxes(M, -1, -2)


def in_frame(frame, M) -> np.ndarray:
    """M_hat = C^T M C^{-T}, the matrix of the coordinate operator M in the
    frame's orthonormal basis; M may carry extra axes ahead of the frame's."""
    return _t(frame.chol) @ M @ _t(frame.chol_inv)


def metric_inv(frame) -> np.ndarray:
    """G^{-1}, by a solve against G."""
    G = frame.metric
    return np.linalg.solve(G, np.broadcast_to(np.eye(G.shape[-1]), G.shape))


def shape_operator(frame) -> np.ndarray:
    """A = G^{-1} H, by a solve against G."""
    return np.linalg.solve(frame.metric, frame.second_form)


def christoffel_coord(frame) -> np.ndarray:
    """Gamma[..., k, i, j] = G^{kl} <f_ij, f_l>, by a solve against G."""
    jet = frame.jet
    d, lead = jet.d, jet.d1.shape[:-2]
    proj = np.einsum("...ijc,...lc->...lij", jet.d2, jet.d1).reshape(lead + (d, d * d))
    return np.linalg.solve(frame.metric, proj).reshape(lead + (d, d, d))


def metric_derivative(jet) -> np.ndarray:
    """[..., l, k, q] = d_l G_kq = <f_lk, f_q> + <f_k, f_lq>."""
    dG = jet.d2 @ _t(jet.d1)[..., None, :, :]
    return dG + _t(dG)


def gnorm_coord(frame, M) -> np.ndarray:
    """sqrt(tr(G^{-1} M^T G M)), the Frobenius G-norm of a coordinate
    operator M, by a solve against G."""
    G = frame.metric
    return np.sqrt(np.trace(np.linalg.solve(G, _t(M) @ G @ M), axis1=-2, axis2=-1))


def second_form_broadcast(jet, normal) -> np.ndarray:
    """H_ij = <f_ij, N>."""
    return (jet.d2 @ normal[..., None, :, None])[..., 0]


def laplace_beltrami_coord(frame, grad, hess) -> np.ndarray:
    """G^{ij} (d_i d_j gamma - Gamma^k_ij d_k gamma)."""
    corr = hess - np.einsum("...kij,...k->...ij", christoffel_coord(frame), grad)
    return np.trace(np.linalg.solve(frame.metric, corr), axis1=-2, axis2=-1)


def covariant_field_derivative_coord(gam, S, dS) -> np.ndarray:
    """[..., i, k, j] = d_i S^k_j + Gamma^k_il S^l_j - Gamma^l_ij S^k_l."""
    gam_i = np.swapaxes(gam, -3, -2)
    S = S[..., None, :, :]
    return dS + gam_i @ S - S @ gam_i


def covariant_field_derivative_broadcast(frame, form, dform) -> np.ndarray:
    """The package's Codazzi derivative D[..., i, j, k] with its Christoffel
    term as one product per i, (b C^{-T}) Gamma_hat_i, Gamma_hat_i[l, k] =
    Gamma_hat[l, i, k]: the same frame sum, as a broadcast matmul."""
    gam_i = np.swapaxes(frame.christoffel_hat, -3, -2)
    half = dform - (form @ _t(frame.chol_inv))[..., None, :, :] @ gam_i
    return half - np.swapaxes(half, -3, -2)


def B_by_variation_broadcast(v) -> np.ndarray:
    """The package's frame route C^{-1} dH C^{-T} - C^{-1} dG C^{-T} A_hat
    with dH_ij = <T_ij, N> + <f_ij, dN> as broadcast products."""
    frame, dN, Cinv = v.frame, v.normal_variation, v.frame.chol_inv
    dG = frame.jet.d1 @ _t(v.jet.d1)
    dG = dG + _t(dG)
    dH = (v.jet.d2 @ frame.normal[..., None, :, None] + frame.jet.d2 @ dN[..., None, :, None])[..., 0]
    return Cinv @ (dH @ _t(Cinv) - dG @ _t(Cinv) @ frame.shape_hat)


def tstar(v) -> np.ndarray:
    """T_* = G^{-1} <f_i, T_j>, by a solve against G."""
    return np.linalg.solve(v.frame.metric, v.frame.jet.d1 @ _t(v.jet.d1))


def sigma(v) -> np.ndarray:
    """sigma = G^{-1} tau, by a solve against G."""
    return np.linalg.solve(v.frame.metric, v.tau[..., None])[..., 0]


def b_form_coord(v) -> np.ndarray:
    """B_ij = <T_ij - Gamma^k_ij T_k, N>."""
    corrected = v.jet.d2 - np.einsum("...kij,...kc->...ijc", christoffel_coord(v.frame), v.jet.d1)
    return (corrected @ v.frame.normal[..., None, :, None])[..., 0]


def B_by_formula_coord(v) -> np.ndarray:
    """B = G^{-1} b^T, the covariant-Hessian route."""
    return np.linalg.solve(v.frame.metric, _t(b_form_coord(v)))


def B_by_variation_coord(v) -> np.ndarray:
    """G^{-1} (dH - dG A) with dH_ij = <T_ij, N> + <f_ij, dN>, dN = -f_*^T sigma."""
    frame = v.frame
    dN = -(sigma(v)[..., None, :] @ frame.jet.d1)[..., 0, :]
    dG = frame.jet.d1 @ _t(v.jet.d1)
    dG = dG + _t(dG)
    dH = (v.jet.d2 @ frame.normal[..., None, :, None] + frame.jet.d2 @ dN[..., None, :, None])[..., 0]
    return np.linalg.solve(frame.metric, dH - dG @ shape_operator(frame))


def B_by_BAT_coord(v) -> np.ndarray:
    """A T_*."""
    return shape_operator(v.frame) @ tstar(v)


def tangential_covariant_derivative_coord(v) -> np.ndarray:
    """nabla T_*, [..., i, k, j], with d_i P_kj = <f_ik, T_j> + <f_k, T_ij>."""
    frame, jb, ts = v.frame, v.frame.jet, tstar(v)
    dP = jb.d2 @ _t(v.jet.d1)[..., None, :, :] + np.einsum("...kc,...ijc->...ikj", jb.d1, v.jet.d2)
    dT = np.linalg.solve(frame.metric[..., None, :, :], dP - metric_derivative(jb) @ ts[..., None, :, :])
    return covariant_field_derivative_coord(christoffel_coord(frame), ts, dT)


def tstar_derivative(v) -> np.ndarray:
    """d_i T_* from the 2-jets of f and T, as [..., i, k, j]: with P_ij =
    <f_i, T_j> and T_* = G^{-1} P, d_i T_* = G^{-1} (d_i P - d_i G T_*).
    The package's route to nabla T_* before it read the orthonormal frame."""
    frame, jb, ts = v.frame, v.frame.jet, tstar(v)
    shape = jb.d2.shape[:-1] + (frame.d,)
    # built as [..., k, i, j] so that G^{-1} acts on one matrix axis:
    # d_i P_kj = <f_k, T_ij> + <f_ik, T_j>, less (d_i G T_*)_kj
    dP = (jb.d1 @ _t(_flat(v.jet.d2, 2))).reshape(shape)
    dP += np.swapaxes((_flat(jb.d2, 2) @ _t(v.jet.d1)).reshape(shape), -3, -2)
    dP -= np.swapaxes((_flat(metric_derivative(jb), 2) @ ts).reshape(shape), -3, -2)
    return np.swapaxes((metric_inv(frame) @ _flat(dP, 2, keep=0)).reshape(shape), -3, -2)


def tangential_covariant_derivative_by_gamma(v) -> np.ndarray:
    """nabla T_* as [..., i, k, j] = d_i T_* + Gamma_i T_* - T_* Gamma_i,
    from :func:`tstar_derivative` and the Christoffels through G^{-1}."""
    return covariant_field_derivative_coord(christoffel_coord(v.frame), tstar(v), tstar_derivative(v))


def in_orthonormal_columns(frame, nab) -> np.ndarray:
    """A covariant derivative [..., i, k, j] of a (1,1)-field as the
    columns C^T (nabla_i S) e_j, [..., k, (i, j)], the layout of
    :func:`~minkaehler.bending.tangential_covariant_derivative`."""
    hat = _t(frame.chol)[..., None, :, :] @ nab  # [..., i, k, j]
    return _flat(np.swapaxes(hat, -3, -2), 2, keep=0)


def B_with_codazzi_derivative_coord(v) -> tuple:
    """(B, d_l B less G^{-1} of the part <T_ijl, N> - <f_ijl, s>) as
    coordinate operators from the 2-jets of f and T, [..., l, k, j] for
    d_l B^k_j: the route through sigma, d_l sigma and d_l G."""
    frame, jet, field_jet = v.frame, v.frame.jet, v.jet
    Ginv, N, f1, f2 = metric_inv(frame), frame.normal, jet.d1, jet.d2
    dG = metric_derivative(jet)
    dN = -(_t(shape_operator(frame)) @ f1)
    sig = sigma(v)
    dtau = np.einsum("...klc,...c->...lk", field_jet.d2, N)
    dtau += np.einsum("...kc,...lc->...lk", field_jet.d1, dN)
    dsigma = Ginv @ _t(dtau - (dG @ sig[..., None, :, None])[..., 0])
    ds = _t(dsigma) @ f1 + np.einsum("...q,...qlc->...lc", sig, f2)
    dform = np.einsum("...ijc,...lc->...lij", field_jet.d2, dN)
    dform -= np.einsum("...ijc,...lc->...lij", f2, ds)
    op = B_by_formula_coord(v)
    return op, Ginv[..., None, :, :] @ (_t(dform) - dG @ op[..., None, :, :])


def codazzi_lowered(frame, nab) -> np.ndarray:
    """D[..., i, j, k] = (G ((nabla_i S) e_j - (nabla_j S) e_i))_k from a
    covariant derivative [..., i, k, j] of a (1,1)-field S: the Codazzi
    derivative of S's lowered form, the package's
    :func:`~minkaehler.geometry.covariant_field_derivative`."""
    diff = nab - np.swapaxes(nab, -3, -1)  # [..., i, k, j] = (nabla_i S)^k_j - (nabla_j S)^k_i
    return np.swapaxes(frame.metric[..., None, :, :] @ diff, -2, -1)


def codazzi_columns(frame, D) -> np.ndarray:
    """A lowered Codazzi derivative D[..., i, j, k] carried to the
    orthonormal frame by C^{-1} on each index, as the columns [..., c, (a,
    b)] = C^{-1}_ai C^{-1}_bj C^{-1}_ck D_ijk: the layout of
    :func:`~minkaehler.geometry.covariant_field_derivative`."""
    Cinv = frame.chol_inv
    return _flat(np.einsum("...ai,...bj,...ck,...ijk->...cab", Cinv, Cinv, Cinv, D), 2, keep=0)


def codazzi_coord(v) -> np.ndarray:
    """The Codazzi derivative of B's lowered form by the coordinate route."""
    op, dop = B_with_codazzi_derivative_coord(v)
    return codazzi_lowered(v.frame, covariant_field_derivative_coord(christoffel_coord(v.frame), op, dop))


def fundamental_equation_residual_coord(v) -> np.ndarray:
    """sqrt(sum_{a<b} ||A X_a ^ B X_b + B X_a ^ A X_b||_G^2) / (||A||_G
    ||B||_G) over the G-orthonormal basis X = C^{-T}, with the coordinate
    A and B, (u ^ w) = u (G w)^T - w (G u)^T and the G-norms by solves."""
    frame = v.frame
    G, X = frame.metric, _t(frame.chol_inv)
    AX, BX = shape_operator(frame) @ X, B_by_formula_coord(v) @ X
    GAX, GBX = G @ AX, G @ BX

    def outer(U, a, W, b):  # [..., r, c] = (U e_a)_r (W e_b)_c
        return U[..., :, a, None] * W[..., None, :, b]

    total = 0.0
    for a, b in zip(*np.triu_indices(frame.d, 1)):
        wedge = outer(AX, a, GBX, b) - outer(BX, b, GAX, a) + outer(BX, a, GAX, b) - outer(AX, b, GBX, a)
        total = total + gnorm_coord(frame, wedge) ** 2
    den = gnorm_coord(frame, shape_operator(frame)) * gnorm_coord(frame, B_by_formula_coord(v))
    return np.sqrt(total) / den
