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
  dN = -f_* A, and the first and second t-variations of the metric along
  f + tT.
"""

from __future__ import annotations

import numpy as np

from minkaehler.bending import CombinationField
from minkaehler.geometry import metric_of, point_frame

SQRT2 = np.sqrt(2.0)


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


def _fd_metric(chart, p) -> np.ndarray:
    d1 = chart.jet(p).d1
    return d1 @ d1.T


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
        dG[i] = (_fd_metric(chart, p + e) - _fd_metric(chart, p - e)) / (2 * hs[i])
    # term[l, i, j] = d_i G_jl + d_j G_il - d_l G_ij
    term = np.einsum("ijl->lij", dG) + np.einsum("jil->lij", dG) - dG
    return 0.5 * np.einsum("kl,lij->kij", np.linalg.inv(_fd_metric(chart, p)), term)


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
