"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads verify-m4r5 export-dense --seeds 1-10

For every workload, runs ``run.py`` once per seed, one run at a time, for
the run length ``BENCHMARK.json`` sets and with tracing off, and
prints for each metric the median, the quartiles and the interquartile
range as a share of the median (``statistics.quantiles(values, n=4)``),
with the share of failed operations.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(spec: str) -> list:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def stats(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / med if med else 0.0}


def main() -> int:
    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    for workload in args.workloads:
        runs = []
        for seed in seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(benchmark["run_seconds"]), "--trace", "0"]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=True)
            runs.append(json.loads(done.stdout.strip().splitlines()[-1]))
            print(f"{workload} seed {seed}: {json.dumps(runs[-1])}", file=sys.stderr, flush=True)
        figures = {
            name: stats([r["metrics"][name]["value"] for r in runs]) for name in runs[0]["metrics"]
        }
        print(f"{workload}: correct {all(r['correct'] for r in runs)}, failed "
              f"{sum(r['failed'] for r in runs)}/{sum(r['attempted'] for r in runs)}")
        for name, f in figures.items():
            print(f"  {name:28s} median {f['median']:.6g}  q1 {f['q1']:.6g}  q3 {f['q3']:.6g}"
                  f"  iqr/median {f['iqr_share']:.4f}  bound {bounds[name]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
