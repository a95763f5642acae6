"""Mesh and table exports of two-dimensional chart slices.

A slice fixes all but two chart coordinates and samples the remaining pair
on a grid.  The sampled immersion values become a Wavefront OBJ mesh
(vertices from the first three ambient coordinates, quad faces from the
grid) and a CSV table (chart coordinates, all ambient coordinates, and
per-point residual columns).  All numbers are written with 17 significant
digits, the bytes of ``format(x, ".17g")``, so identical inputs produce
byte-identical files.  Each cell's text is made at most once per export:
the OBJ writer formats the first three ambient coordinates a chunk of rows
at a time and hands that text on, so the CSV reuses it for its f0..f2
cells, and the CSV formats each distinct chart coordinate once, since a
grid line repeats its coordinates in every row.  Text is held per chunk as
a few large strings, never one object per cell for the whole slice.  Every
frame and residual is computed before either file is opened, so a failed
slice writes nothing; the slice reads its frame's A_hat, A's matrix in the
orthonormal frame, and its Frobenius norm ||A||_G
(:func:`~minkaehler.geometry.gnorm_op`), never the eigen-data, so an
export calls no eigen-solver.  A slice's JSON form is read against
``SLICE_SCHEMA``, which the CLI config's ``export`` section shares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, expect_json, read_json
from .geometry import anticommutation_residual, minimality_residual, point_frame
from .weierstrass import SeriesChart, WeierstrassSeed, chart_complex_structure

__all__ = [
    "SLICE_SCHEMA",
    "SliceSpec",
    "export_csv",
    "export_obj",
    "export_slice",
    "slice_chart",
    "slice_from_json",
    "slice_points",
]

_FIELDS = ("f", "fbar", "ftheta")
_NUM = "%.17g"  # the bytes of format(x, ".17g")
_CHUNK = 256  # rows formatted per call


@dataclass(frozen=True)
class SliceSpec:
    """A 2-dimensional slice of a chart: two free axes, the rest pinned."""

    axes: tuple = (0, 1)
    counts: tuple = (12, 12)
    fixed: dict = field(default_factory=dict)  # axis index -> pinned value
    box: tuple = None  # optional ((lo, hi), (lo, hi)) for the free axes
    field_name: str = "f"
    theta: float = 0.0

    def __post_init__(self):
        if len(self.axes) != 2 or self.axes[0] == self.axes[1]:
            raise DomainError("a slice needs two distinct free axes")
        if len(self.counts) != 2:
            raise DomainError("a slice needs two grid counts")
        if any(int(c) < 2 for c in self.counts):
            raise DomainError("slice grids need at least 2 points per axis")
        if self.field_name not in _FIELDS:
            raise DomainError(f"unknown field {self.field_name!r}; choose from {_FIELDS}")


# each slice key's JSON kind, item kind and default; box pairs are checked below
SLICE_SCHEMA = {
    "axes": ("list", "integer", [0, 1]),
    "counts": ("list", "integer", [12, 12]),
    "fixed": ("object", "number", {}),
    "box": ("list", None, None),
    "field": ("string", None, "f"),
    "theta": ("number", None, 0.0),
}


def slice_from_json(data: dict) -> SliceSpec:
    """Build a :class:`SliceSpec` from its JSON form (all keys optional)."""
    data = read_json(data, SLICE_SCHEMA, "slice", DomainError)
    fixed = {}
    for k, v in data["fixed"].items():
        try:
            fixed[int(k)] = float(v)
        except ValueError:
            raise DomainError(f"slice fixed key {k!r} is not an axis index") from None
    box = data["box"]
    if box is not None:
        pairs = (expect_json(pair, "list", "slice box", DomainError, "number") for pair in box)
        box = tuple(tuple(float(x) for x in pair) for pair in pairs)
        if len(box) != 2 or any(len(pair) != 2 for pair in box):
            raise DomainError("slice box needs one (lo, hi) pair per free axis")
    return SliceSpec(
        axes=tuple(int(a) for a in data["axes"]),
        counts=tuple(int(c) for c in data["counts"]),
        fixed=fixed,
        box=box,
        field_name=data["field"],
        theta=float(data["theta"]),
    )


def slice_chart(seed: WeierstrassSeed, spec: SliceSpec) -> SeriesChart:
    """The family member the slice samples: f, fbar, or the theta member."""
    theta = {"f": 0.0, "fbar": math.pi / 2, "ftheta": spec.theta}[spec.field_name]
    return SeriesChart(seed, theta)


def slice_points(chart: SeriesChart, spec: SliceSpec) -> np.ndarray:
    """The (nu * nv, d) grid of chart coordinates the slice visits.

    Row order is u-major: the point at grid index (i, j) is row i * nv + j.
    Raises :class:`DomainError` when an axis is out of range, a pinned
    value is missing, or any sample leaves the chart domain.
    """
    d = chart.d
    ax_u, ax_v = spec.axes
    if not (0 <= ax_u < d and 0 <= ax_v < d):
        raise DomainError(f"slice axes {spec.axes} out of range for a {d}-coordinate chart")
    for a in spec.fixed:
        if not 0 <= a < d:
            raise DomainError(f"pinned axis {a} out of range for a {d}-coordinate chart")
        if a in spec.axes:
            raise DomainError(f"axis {a} is both free and pinned")
    # axes that are neither free nor pinned sit at coordinate 0
    rest = [a for a in range(d) if a not in spec.axes]
    base = np.zeros(d)
    for a in rest:
        base[a] = spec.fixed.get(a, 0.0)
    if spec.box is None:
        box_u = chart.box[ax_u]
        box_v = chart.box[ax_v]
    else:
        box_u, box_v = spec.box
    nu, nv = (int(c) for c in spec.counts)
    us = np.linspace(box_u[0], box_u[1], nu)
    vs = np.linspace(box_v[0], box_v[1], nv)
    pts = np.tile(base, (nu * nv, 1))
    uu, vv = np.meshgrid(us, vs, indexing="ij")
    pts[:, ax_u] = uu.ravel()
    pts[:, ax_v] = vv.ravel()
    outside = ~chart.domain_contains(pts)
    if outside.any():
        raise DomainError(f"slice leaves the chart domain at {pts[np.argmax(outside)]}")
    return pts


def export_obj(path, values: np.ndarray, counts, name: str = "slice") -> list:
    """Write an OBJ mesh, grid vertices and quad faces; returns the vertex text.

    Vertices take the first three ambient coordinates of ``values`` (rows
    in u-major grid order); faces are the grid quads, 1-indexed.  The
    vertex text is those three columns as ``a,b,c`` lines, one string per
    chunk of ``_CHUNK`` rows, each cell formatted once: the vertex lines
    are made from it, and :func:`export_csv` takes its f0..f2 cells from it.
    """
    values = np.asarray(values, dtype=np.float64)
    nu, nv = (int(c) for c in counts)
    if values.shape[0] != nu * nv:
        raise DomainError(f"value rows ({values.shape[0]}) must equal nu*nv ({nu * nv})")
    if values.shape[1] < 3:
        raise DomainError("OBJ export needs at least three ambient coordinates")
    # face (i, j) joins vertices a = i nv + j + 1, a + nv, a + nv + 1, a + 1
    a = (np.arange(nu - 1)[:, None] * nv + np.arange(nv - 1) + 1).ravel()
    faces = np.stack([a, a + nv, a + nv + 1, a + 1], axis=1)
    text = []
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"o {name}\n")
        for start in range(0, len(values), _CHUNK):
            chunk = values[start : start + _CHUNK, :3]
            lines = f"{_NUM},{_NUM},{_NUM}\n" * len(chunk) % tuple(chunk.ravel().tolist())
            text.append(lines)
            fh.write("v " + lines[:-1].replace(",", " ").replace("\n", "\nv ") + "\n")
        for start in range(0, len(faces), _CHUNK):
            chunk = faces[start : start + _CHUNK]
            fh.write("f %d %d %d %d\n" * len(chunk) % tuple(chunk.ravel().tolist()))
    return text


def export_csv(path, coords: np.ndarray, values: np.ndarray, residuals: dict, vertex_text: list) -> None:
    """Write a CSV table: chart coordinates, ambient values, residuals.

    The f0..f2 cells come from ``vertex_text``, which :func:`export_obj`
    returned for the same ``values``.  The other cells are formatted here,
    a chunk of rows per call, and each distinct coordinate once: a grid
    line repeats its coordinates in every row.
    """
    coords = np.ascontiguousarray(coords, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if coords.shape[0] != values.shape[0]:
        raise DomainError("coordinate and value row counts differ")
    res_items = sorted(residuals.items())
    for key, col in res_items:
        if len(col) != coords.shape[0]:
            raise DomainError(f"residual column {key!r} has the wrong length")
    d = coords.shape[1]
    header = (
        [f"x{k}" for k in range(d)]
        + [f"f{k}" for k in range(values.shape[1])]
        + [key for key, _ in res_items]
    )
    # the cells after f2: the other values, then one column per residual
    rest = [values[:, 3:], *(np.asarray(col, dtype=np.float64)[:, None] for _, col in res_items)]
    bits = coords.view(np.uint64)
    memo = {}  # coordinate text by bit pattern, so that -0.0 stays -0
    row = "%s," * d + "%s" + f",{_NUM}" * (len(header) - d - 3) + "\n"
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for k, start in enumerate(range(0, len(coords), _CHUNK)):
            rows = slice(start, start + _CHUNK)
            keys, where = np.unique(bits[rows], return_inverse=True)
            for b, v in zip(keys.tolist(), keys.view(np.float64).tolist()):
                if b not in memo:
                    memo[b] = _NUM % v
            texts = np.array([memo[b] for b in keys.tolist()], dtype=object)
            f012 = vertex_text[k].split("\n")[:-1]
            cells = np.empty((len(f012), len(header) - 2), dtype=object)
            cells[:, :d] = texts[where.reshape(-1, d)]
            cells[:, d] = f012
            cells[:, d + 1 :] = np.concatenate([col[rows] for col in rest], axis=1)
            fh.write(row * len(f012) % tuple(cells.ravel().tolist()))


def export_slice(seed: WeierstrassSeed, spec: SliceSpec, obj_path, csv_path, name: str = "slice") -> int:
    """Sample the slice and write both files; returns the point count.

    The CSV carries two analytic per-point residual columns: the
    minimality defect |trace A| / ||A||_G and the anticommutation defect
    ||A J + J A||_G / ||A||_G, each ||.||_G the Frobenius norm of a frame
    matrix, :func:`~minkaehler.geometry.gnorm_op`.
    """
    chart = slice_chart(seed, spec)
    pts = slice_points(chart, spec)
    frame = point_frame(chart.jet(pts))
    minim = minimality_residual(frame)
    antic = anticommutation_residual(frame, chart_complex_structure(chart.d))
    values = frame.jet.value
    del frame  # free the jets and frame, so that the writers reuse their memory
    vertex_text = export_obj(obj_path, values, spec.counts, name=name)
    export_csv(csv_path, pts, values, {"minimality": minim, "anticommutation": antic}, vertex_text)
    return len(pts)
