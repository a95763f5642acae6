"""Residual reports: aggregation, deterministic JSON, and text tables.

A :class:`ResidualReport` summarizes one verified identity over a sample
set.  Negative controls are reports with ``control=True``: they describe a
deliberately broken input and *pass* only when the residual exceeds the
floor, demonstrating that the residual actually measures something.  The
JSON rendering is :func:`json.dumps` with sorted keys and each float in
its shortest round-trip repr, so identical configurations produce
byte-identical reports.
"""

from __future__ import annotations

import functools
import json
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ResidualReport",
    "all_passed",
    "render_json",
    "render_text_table",
    "report_to_dict",
]


@dataclass(frozen=True)
class ResidualReport:
    """Max/mean residual of one identity over a sample set, with verdict.

    ``tolerance`` is an upper bound for ordinary reports and a lower floor
    for control reports; ``passed`` already accounts for the inversion.
    ``nonfinite`` counts NaN or infinite residuals; any fails the row, and
    max and mean cover the finite values (0.0 when there are none).  Every
    point counts: a relative residual whose scale vanishes reads 0 where
    the identity holds exactly and inf where it does not, and one whose
    scale is not finite reads NaN (:func:`~minkaehler.geometry.relative`),
    so such a point fails its row through ``nonfinite`` or passes by
    measuring 0, and never drops out.
    """

    identity: str
    points: int
    max_residual: float
    mean_residual: float
    tolerance: float
    passed: bool
    control: bool = False
    nonfinite: int = 0

    @staticmethod
    def from_residuals(identity, residuals, tolerance, control=False) -> "ResidualReport":
        vals = np.asarray(residuals, dtype=np.float64).ravel()
        if not vals.size:
            raise ValueError(f"suite {identity!r} produced no residuals")
        # a max and a sum from left to right over the list keep every report
        # byte-stable: from Python 3.12 on, sum() of floats is compensated
        finite = vals[np.isfinite(vals)].tolist()
        worst = max(finite, default=0.0)
        # the rounded mean of nearly equal values may pass their max
        mean = min(functools.reduce(operator.add, finite, 0.0) / len(finite), worst) if finite else 0.0
        passed = (worst > tolerance) if control else (worst < tolerance)
        return ResidualReport(
            identity=str(identity),
            points=vals.size,
            max_residual=worst,
            mean_residual=mean,
            tolerance=float(tolerance),
            passed=bool(passed) and len(finite) == len(vals),
            control=bool(control),
            nonfinite=len(vals) - len(finite),
        )

    @property
    def verdict(self) -> str:
        if self.control:
            return "expected-fail" if self.passed else "CONTROL-TOO-SMALL"
        return "pass" if self.passed else "FAIL"


def report_to_dict(report: ResidualReport) -> dict:
    """The report's fields, ``passed`` under the JSON key ``pass``: a
    shallow copy, since every field is a str, an int, a float or a bool."""
    row = dict(vars(report))
    row["pass"] = row.pop("passed")
    return row


def all_passed(reports) -> bool:
    """True iff every non-control report passed (controls never gate)."""
    return all(r.passed for r in reports if not r.control)


def render_json(obj) -> str:
    """Deterministic JSON: sorted keys, two-space indent, ASCII only, floats
    in their shortest round-trip repr; NaN or infinity raises ValueError."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)


def render_text_table(reports) -> str:
    """Fixed-width table, one row per report, ending with a verdict line."""
    headers = ("identity", "points", "max", "mean", "tolerance", "verdict")
    rows = [
        (
            r.identity,
            str(r.points),
            f"{r.max_residual:.3e}",
            f"{r.mean_residual:.3e}",
            f"{r.tolerance:.1e}",
            r.verdict,
        )
        for r in reports
    ]
    widths = [
        max(len(headers[c]), *(len(row[c]) for row in rows)) if rows else len(headers[c])
        for c in range(len(headers))
    ]
    def fmt(row):
        return "  ".join(cell.ljust(widths[c]) for c, cell in enumerate(row)).rstrip()
    lines = [fmt(headers), fmt(tuple("-" * w for w in widths))]
    lines.extend(fmt(row) for row in rows)
    lines.append("")
    lines.append("ALL PASS" if all_passed(reports) else "FAILURES PRESENT")
    return "\n".join(lines)
