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
  check, from central differences of S's values; the package takes d_l S
  exactly from jets to order 3.
* the support function of the ellipse (a cos t, b sin t) with outward
  normal: h = a b / sqrt(b^2 cos^2 t + a^2 sin^2 t).
* one central-difference jet of any value map (vector or scalar), the
  reference for every chart and Taylor formula with exact jets.
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
"""

from __future__ import annotations

import dataclasses
import importlib.util
import sys
from pathlib import Path

import math

import numpy as np

from minkaehler.bending import CombinationField, Variation
from minkaehler.charts import TaylorChart, mix_jets
from minkaehler.geometry import point_frame
from minkaehler.report import ResidualReport
from minkaehler.seeds import builtin_seed
from minkaehler.suites import build_bundle
from minkaehler.taylor import Taylor
from minkaehler.weierstrass import DomainSpec, seed_from_json

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
    seeds = {s["name"]: s for s in benchmark_workloads().random_seeds()}
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


def report_from_residuals_loop(identity, residuals, tolerance, control=False) -> ResidualReport:
    """:meth:`ResidualReport.from_residuals` with one ``float`` per point."""
    mask = np.ma.getmaskarray(residuals)
    vals = [float(r) for r, out in zip(np.ma.getdata(residuals), mask) if not out]
    finite = [v for v in vals if math.isfinite(v)]
    worst = max(finite, default=0.0)
    mean = sum(finite) / len(finite) if finite else 0.0
    passed = (worst > tolerance) if control else (worst < tolerance)
    return ResidualReport(
        identity=str(identity),
        points=mask.size,
        max_residual=worst,
        mean_residual=mean,
        tolerance=float(tolerance),
        passed=bool(passed) and len(finite) == len(vals) > 0,
        control=bool(control),
        nonfinite=len(vals) - len(finite),
        excluded=int(mask.sum()),
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
        push = fr.jet.d1.T @ fr.shape_operator[:, i]
        worst = max(worst, np.linalg.norm(dN + push) / (1.0 + np.linalg.norm(push)))
    return worst


def first_variation_metric_residual(chart, fld, p, eps: float = 1e-4) -> float:
    """||(G(eps) - G(-eps)) / 2 eps||_F / ||G(0)||_F along f + tT.

    The metric of the deformed chart is exactly quadratic in t, so the
    central difference isolates the first-order term with no truncation
    error; for a bending this is roundoff-sized.
    """
    gp = metric_of(CombinationField((chart, fld), (1.0, eps)), p)
    gm = metric_of(CombinationField((chart, fld), (1.0, -eps)), p)
    return float(np.linalg.norm((gp - gm) / (2 * eps)) / np.linalg.norm(metric_of(chart, p)))


def second_variation_metric_residual(chart, fld, p, t: float = 0.1) -> float:
    """||G(t) - G(0) - t^2 <T_i, T_j>||_F / ||G(0)||_F (exact identity)."""
    g0 = metric_of(chart, p)
    gt = metric_of(CombinationField((chart, fld), (1.0, t)), p)
    td1 = fld.jet(p).d1
    return float(np.linalg.norm(gt - g0 - t * t * (td1 @ td1.T)) / np.linalg.norm(g0))


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
    """B as the central t-difference of the shape operator of f + tT, with
    O(eps^2) truncation."""
    ap = _deformed_frame(v, eps).shape_operator
    am = _deformed_frame(v, -eps).shape_operator
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


def fd_tangential_covariant_derivative(chart, fld, p) -> np.ndarray:
    """(nabla_i T_*)^k_j as [i, k, j]: T_* = G^{-1} <f_i, T_j> differenced
    at steps eps^(1/3) max(1, |p_i|), plus Gamma^k_il T^l_j - Gamma^l_ij T^k_l
    from :func:`fd_christoffel`."""
    p = np.asarray(p, dtype=np.float64)

    def tstar(q):
        d1 = chart.jet(q).d1
        return np.linalg.solve(d1 @ d1.T, d1 @ fld.jet(q).d1.T)

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


def benchmark_workloads():
    """The module ``perfbench/workloads.py`` of this checkout."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the file runs
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module
