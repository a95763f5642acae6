"""Measure how much the host itself varies, apart from the program.

    python3 perfbench/host_noise.py

Times the host-speed probe (``reference.py``) back to back for
``SECONDS`` seconds, one probe at a time and as the mean of each second's
probes, then times ``IMPORTS`` fresh interpreters importing
``minkaehler`` from ``src``.  Prints the minimum, quartiles and maximum
of each, and their spread (interquartile range over median, and max over
min).
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

SRC = Path(__file__).resolve().parent.parent / "src"
SECONDS = 30.0
IMPORTS = 20


def summary(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {
        "n": len(values),
        "min": min(values),
        "q1": q1,
        "median": med,
        "q3": q3,
        "max": max(values),
        "iqr_over_median": (q3 - q1) / med,
        "max_over_min": max(values) / min(values),
    }


def main() -> int:
    probes, seconds = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < SECONDS:
        window = []
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 1.0:
            window.append(reference.probe())
        probes += window
        seconds.append(sum(window) / len(window))
    code = (
        "import time; t = time.perf_counter(); import sys; "
        f"sys.path.insert(0, {str(SRC)!r}); import minkaehler; "
        "print(time.perf_counter() - t)"
    )
    imports = [
        float(subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout)
        for _ in range(IMPORTS)
    ]
    figures = {"probe_s": summary(probes), "probe_mean_per_second_s": summary(seconds),
               "fresh_import_s": summary(imports)}
    print(json.dumps(figures, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
