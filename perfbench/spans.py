"""In-memory spans around the program's layer boundaries, for traced runs.

``install`` wraps the public functions at each boundary in every
``minkaehler`` module namespace that holds them (the defining module and
every module that imported the name), plus two methods of ``SeriesChart``
and the suite registry.  Each call records a span: a name, a start, an
end, the span that was open when it began, an operation id, and, for jet
calls, the number of points.  Spans stay in flat arrays until
``Tracer.save`` writes them out at the end of the run.

A call that re-enters the boundary it is already inside (``render_json``
recurses) records no second span.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# span name -> (module, attribute) of the function it wraps
FUNCTIONS = {
    "cli.config": ("minkaehler.cli", "load_config"),
    "weierstrass.chain": ("minkaehler.weierstrass", "build_chain"),
    "kernels.horner": ("minkaehler.kernels", "horner_many"),
    "kernels.cross": ("minkaehler.kernels", "cross_columns"),
    "geometry.frame": ("minkaehler.geometry", "point_frame"),
    "geometry.christoffel": ("minkaehler.geometry", "christoffel"),
    "geometry.covariant": ("minkaehler.geometry", "covariant_field_derivative"),
    "geometry.gnorm": ("minkaehler.geometry", "gnorm_op"),
    "bending.b_formula": ("minkaehler.bending", "B_by_formula"),
    "report.render": ("minkaehler.report", "render_json"),
    "report.table": ("minkaehler.report", "render_text_table"),
    "export.obj": ("minkaehler.export", "export_obj"),
    "export.csv": ("minkaehler.export", "export_csv"),
}
# span name -> method of minkaehler.weierstrass.SeriesChart
METHODS = {
    "weierstrass.chart_build": "__init__",
    "weierstrass.jet": "jet_batch",
}


# units of the per-layer metrics that are neither times (s) nor call counts
UNITS = {
    "weierstrass.jet_points": "points",
    "weierstrass.jets_per_point": "jets/point",
    "geometry.frames_per_point": "frames/point",
    "export.bytes": "bytes",
}


def unit(metric: str) -> str:
    return UNITS.get(metric, "s" if metric.endswith("_s") else "count")


def _jet_points(args) -> int:
    pts = np.asarray(args[1])
    return 1 if pts.ndim < 2 else pts.shape[0]


class Tracer:
    """Spans of one run; operation 0 is the warm-up."""

    def __init__(self):
        self.names = []  # span name table; spans store indices into it
        self._ids = {}
        self.name = array("i")
        self.parent = array("q")
        self.op = array("i")
        self.points = array("q")
        self.start = array("d")
        self.end = array("d")
        self.current_op = 0
        self._stack = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def call(self, name_id: int, fn, args, kwargs, points: int = 0):
        stack = self._stack
        if stack and self.name[stack[-1]] == name_id:
            return fn(*args, **kwargs)
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(stack[-1] if stack else -1)
        self.op.append(self.current_op)
        self.points.append(points)
        self.end.append(0.0)
        stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = time.perf_counter()
            stack.pop()

    def wrap(self, name: str, fn, count_points=None):
        name_id = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            points = count_points(args) if count_points else 0
            return self.call(name_id, fn, args, kwargs, points)

        return traced

    def span(self, name: str, fn, *args):
        """Run ``fn(*args)`` inside a span of its own (the operation root)."""
        return self.call(self._name_id(name), fn, args, {})

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "points": np.frombuffer(self.points, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def install(tracer: Tracer):
    """Wrap every boundary; returns a function that restores the originals."""
    import minkaehler.suites as suites
    import minkaehler.weierstrass as weierstrass

    package = [m for n, m in sorted(sys.modules.items()) if n == "minkaehler" or n.startswith("minkaehler.")]
    undo = []
    for name, (module, attr) in FUNCTIONS.items():
        original = getattr(sys.modules[module], attr)
        traced = tracer.wrap(name, original)
        for mod in package:
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, traced)
                undo.append((mod, attr, original))
    for name, attr in METHODS.items():
        original = getattr(weierstrass.SeriesChart, attr)
        count = _jet_points if attr == "jet_batch" else None
        setattr(weierstrass.SeriesChart, attr, tracer.wrap(name, original, count))
        undo.append((weierstrass.SeriesChart, attr, original))
    registry = suites._SUITES
    saved = dict(registry)
    for suite, fn in saved.items():
        registry[suite] = tracer.wrap(f"suites.{suite}", fn)

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
        registry.update(saved)

    return uninstall


def layer_metrics(tracer: Tracer, ops: int, sample_points: float, suite_names) -> dict:
    """Per-operation layer figures from the spans of operations 1..``ops``.

    Times are inclusive (a span's whole duration) except ``jet_s``, which is
    self time: the jet span minus the Horner spans it contains.  Counts and
    times are totals over the measured operations divided by ``ops``.
    """
    a = tracer.arrays()
    dur = a["end"] - a["start"]
    has_parent = a["parent"] >= 0
    child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur))
    measured = a["op"] >= 1
    ids = {n: i for i, n in enumerate(tracer.names)}

    def select(name):
        return measured & (a["name"] == ids.get(name, -1))

    def calls(name):
        return int(np.count_nonzero(select(name))) / ops

    def seconds(*names):
        return sum(float(dur[select(n)].sum()) for n in names) / ops

    jets = select("weierstrass.jet")
    out = {
        "cli.config_s": seconds("cli.config"),
        "weierstrass.chain_s": seconds("weierstrass.chain"),
        "weierstrass.chart_builds": calls("weierstrass.chart_build"),
        "weierstrass.chart_build_s": seconds("weierstrass.chart_build"),
        "weierstrass.jet_calls": calls("weierstrass.jet"),
        "weierstrass.jet_points": int(a["points"][jets].sum()) / ops,
        "weierstrass.jet_s": float((dur[jets] - child[jets]).sum()) / ops,
        "kernels.horner_calls": calls("kernels.horner"),
        "kernels.horner_s": seconds("kernels.horner"),
        "kernels.cross_calls": calls("kernels.cross"),
        "kernels.cross_s": seconds("kernels.cross"),
        "geometry.frame_calls": calls("geometry.frame"),
        "geometry.frame_s": seconds("geometry.frame"),
        "geometry.christoffel_calls": calls("geometry.christoffel"),
        "geometry.christoffel_s": seconds("geometry.christoffel"),
        "geometry.covariant_s": seconds("geometry.covariant"),
        "geometry.gnorm_calls": calls("geometry.gnorm"),
        "geometry.gnorm_s": seconds("geometry.gnorm"),
        "bending.b_formula_calls": calls("bending.b_formula"),
        "bending.b_formula_s": seconds("bending.b_formula"),
        "report.render_s": seconds("report.render", "report.table"),
        "export.write_s": seconds("export.obj", "export.csv"),
    }
    for suite in suite_names:
        out[f"suites.{suite}_s"] = seconds(f"suites.{suite}")
    out["weierstrass.jets_per_point"] = out["weierstrass.jet_points"] / sample_points
    out["geometry.frames_per_point"] = out["geometry.frame_calls"] / sample_points
    return out
