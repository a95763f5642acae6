"""Checks of the program's outputs against computations made apart from it.

Nothing here calls into ``minkaehler``: the closed form, the series
recursion and the grid are recomputed with numpy alone, so a fault in the
package cannot hide behind itself.  Every ``check_*`` function returns a
list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import math

import numpy as np

SQRT2 = math.sqrt(2.0)
VALUE_TOL = 1e-12  # chart values against the closed form / own recursion
RESIDUAL_TOL = 1e-10  # exported minimality and anticommutation columns
CONTROL_FLOOR = 1e-2  # every negative control must land above this


# -- m4r5: F(z, w) = delta(z) - delta(0) + w delta(z) -------------------------

def m4r5_delta(z: np.ndarray) -> np.ndarray:
    """delta = alpha_2 for alpha0 = mu1 = mu2 = 1; shape (5, P).

    phi_0 = z, alpha_1 = ((1 - z^2)/2, i(1 + z^2)/2, z), phi_1 its integral,
    q = phi_1 . phi_1 = -z^4/12, alpha_2 = ((1 - q)/2, i(1 + q)/2, phi_1).
    """
    z = np.asarray(z, dtype=np.complex128)
    q = -(z**4) / 12.0
    return np.array([
        (1.0 - q) / 2.0,
        1j * (1.0 + q) / 2.0,
        (z - z**3 / 3.0) / 2.0,
        1j * (z + z**3 / 3.0) / 2.0,
        z**2 / 2.0,
    ])


def m4r5_values(pts: np.ndarray, theta: float = 0.0) -> np.ndarray:
    """sqrt(2) Re(e^{-i theta} F) at chart points (x, y, u, v); shape (P, 5)."""
    pts = np.asarray(pts, dtype=np.float64)
    z = pts[:, 0] + 1j * pts[:, 1]
    w = pts[:, 2] + 1j * pts[:, 3]
    delta = m4r5_delta(z)
    F = delta - m4r5_delta(np.zeros(1)) + w[None, :] * delta
    return (SQRT2 * (math.cos(theta) - 1j * math.sin(theta)) * F).real.T


# -- inline seeds: the recursion, truncated as the program truncates -----------
# Coefficient arrays in ascending powers of (z - basepoint).  Sums and
# products keep the shorter operand's length, integration adds one
# coefficient and differentiation drops one.

def _add(a, b):
    n = min(len(a), len(b))
    return a[:n] + b[:n]


def _mul(a, b):
    n = min(len(a), len(b))
    return np.convolve(a, b)[:n]


def _integrate(a):
    return np.concatenate(([0.0], a / np.arange(1, len(a) + 1)))


def _diff(a):
    if len(a) == 1:
        return np.zeros(1, dtype=np.complex128)
    return a[1:] * np.arange(1, len(a))


def _coeffs(pairs, order: int) -> np.ndarray:
    out = np.zeros(order + 1, dtype=np.complex128)
    for k, (re, im) in enumerate(pairs[: order + 1]):
        out[k] = complex(re, im)
    return out


def seed_representative(seed: dict):
    """Coefficient rows of F = base + sum_j w_j w_part_j for a seed's JSON.

    Returns ``(base, w_parts)``: ``base`` is a list of 2n+1 coefficient
    arrays and ``w_parts[j-1]`` the rows multiplying w_j.  Handles seeds
    without integration constants, which is all the benchmark generates.
    """
    n = int(seed["n"])
    order = int(seed.get("trunc_order", 32))
    alpha = [_coeffs(seed["alpha0"], order)]
    mu = [_coeffs(s, order) for s in seed["mu"]]
    b = [_coeffs(s, order) for s in seed["b"]]
    one = np.zeros(order + 1, dtype=np.complex128)
    one[0] = 1.0
    for r in range(n):
        phi = [_integrate(c) for c in alpha]
        q = _mul(phi[0], phi[0])
        for c in phi[1:]:
            q = _add(q, _mul(c, c))
        head1 = _mul(mu[r], _add(one, -q) * 0.5)
        head2 = _mul(mu[r], _add(one, q) * 0.5) * 1j
        alpha = [head1, head2] + [_mul(mu[r], c) for c in phi]
    derivs = [alpha]
    for _ in range(n):
        derivs.append([_diff(c) for c in derivs[-1]])
    base = None
    for j in range(n):
        piece = [_integrate(_mul(b[j], c)) for c in derivs[j]]
        base = piece if base is None else [_add(x, y) for x, y in zip(base, piece)]
    return base, [derivs[j - 1] for j in range(1, n)]


def seed_values(seed: dict, pts: np.ndarray) -> np.ndarray:
    """f = sqrt(2) Re F at chart points, from the recursion; shape (P, 2n+1)."""
    pts = np.asarray(pts, dtype=np.float64)
    dz = pts[:, 0] + 1j * pts[:, 1]  # chart coordinates are offsets from the basepoint
    base, w_parts = seed_representative(seed)
    F = np.array([np.polynomial.polynomial.polyval(dz, c) for c in base])
    for j, rows in enumerate(w_parts, start=1):
        w = pts[:, 2 * j] + 1j * pts[:, 2 * j + 1]
        F = F + w[None, :] * np.array([np.polynomial.polynomial.polyval(dz, c) for c in rows])
    return (SQRT2 * F).real.T


def check_values(got: np.ndarray, expected: np.ndarray, label: str) -> list:
    got = np.asarray(got, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    if got.shape != expected.shape:
        return [f"{label}: shape {got.shape}, expected {expected.shape}"]
    err = float(np.max(np.abs(got - expected))) if got.size else 0.0
    if not err <= VALUE_TOL:
        return [f"{label}: values differ from the independent computation by {err:.3e}"]
    return []


# -- verify reports -----------------------------------------------------------

def check_report(report: dict, suites, points: int, tolerated=()) -> list:
    """A ``report.json``: the suites ran on ``points`` points, every
    non-control row passes except those named in ``tolerated`` (a known
    fault, counted as a failed operation by the caller), and every control
    clears ``CONTROL_FLOOR``.  Verdicts are recomputed from the numbers."""
    problems = []
    if report.get("points") != points:
        problems.append(f"report has {report.get('points')} points, expected {points}")
    if list(report.get("suites", [])) != list(suites):
        problems.append(f"report ran suites {report.get('suites')}, expected {list(suites)}")
    failing = set()
    for row in report.get("reports", []):
        name, worst = row["identity"], row["max_residual"]
        if row["control"]:
            if not (row["tolerance"] >= CONTROL_FLOOR and worst > row["tolerance"]):
                problems.append(f"control {name} at {worst:.3e} does not clear its floor")
            continue
        passed = worst < row["tolerance"]
        if passed != row["pass"]:
            problems.append(f"row {name} verdict disagrees with its residual")
        if not passed:
            failing.add(name)
    if failing - set(tolerated):
        problems.append(f"rows {sorted(failing - set(tolerated))} FAIL")
    if report.get("all_pass") != (not failing):
        problems.append("all_pass disagrees with the rows")
    return problems


# -- exports ------------------------------------------------------------------

def slice_grid(box_u, box_v, counts, base: np.ndarray, axes) -> np.ndarray:
    """The (nu*nv, d) u-major grid of a slice, as the CSV must list it."""
    nu, nv = counts
    us = np.linspace(box_u[0], box_u[1], nu)
    vs = np.linspace(box_v[0], box_v[1], nv)
    pts = np.tile(np.asarray(base, dtype=np.float64), (nu * nv, 1))
    uu, vv = np.meshgrid(us, vs, indexing="ij")
    pts[:, axes[0]] = uu.ravel()
    pts[:, axes[1]] = vv.ravel()
    return pts


def check_obj(text: str, csv_rows: list, counts) -> list:
    """OBJ: one vertex per grid point (the CSV's first three values, byte
    for byte) and one quad per grid cell."""
    nu, nv = counts
    verts, faces = [], []
    for line in text.splitlines():
        if line.startswith("v "):
            verts.append(line[2:].split(" "))
        elif line.startswith("f "):
            faces.append(tuple(int(k) for k in line[2:].split(" ")))
    problems = []
    if len(verts) != nu * nv:
        problems.append(f"OBJ has {len(verts)} vertices, expected {nu * nv}")
    if len(faces) != (nu - 1) * (nv - 1):
        problems.append(f"OBJ has {len(faces)} faces, expected {(nu - 1) * (nv - 1)}")
    expected_faces = {
        (i * nv + j + 1, (i + 1) * nv + j + 1, (i + 1) * nv + j + 2, i * nv + j + 2)
        for i in range(nu - 1)
        for j in range(nv - 1)
    }
    if set(faces) != expected_faces:
        problems.append("OBJ faces are not the grid quads")
    if verts != [row[:3] for row in csv_rows]:
        problems.append("OBJ vertices differ from the CSV values")
    return problems


def check_export(obj_text: str, csv_text: str, grid: np.ndarray, expected: np.ndarray, counts) -> list:
    """CSV: header, the slice grid, values against ``expected`` and residual
    columns below ``RESIDUAL_TOL``; then the OBJ against the CSV."""
    lines = csv_text.splitlines()
    d, m1 = grid.shape[1], expected.shape[1]
    header = [f"x{k}" for k in range(d)] + [f"f{k}" for k in range(m1)] + ["anticommutation", "minimality"]
    if not lines or lines[0].split(",") != header:
        return [f"CSV header {lines[0] if lines else ''!r}, expected {','.join(header)!r}"]
    cells = [line.split(",") for line in lines[1:]]
    if len(cells) != len(grid) or any(len(row) != len(header) for row in cells):
        return [f"CSV has {len(cells)} rows, expected {len(grid)} rows of {len(header)} cells"]
    table = np.array(cells, dtype=np.float64)
    problems = []
    if not np.allclose(table[:, :d], grid, rtol=0.0, atol=1e-14):
        problems.append("CSV coordinates are not the slice grid")
    problems += check_values(table[:, d : d + m1], expected, "CSV values")
    worst = float(np.max(table[:, d + m1 :]))
    if not worst < RESIDUAL_TOL:
        problems.append(f"CSV residual columns reach {worst:.3e}")
    problems += check_obj(obj_text, [row[d : d + m1] for row in cells], counts)
    return problems
