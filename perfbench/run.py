"""Benchmark of ``minkaehler verify`` and ``minkaehler export``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its ``src``.
One process, one client, closed loop: after one warm-up operation on a
smaller input, the run repeats whole rounds of the workload's operations
(each one call into ``minkaehler.cli.main`` with a config file) until
``--seconds`` have passed and at least ``MIN_OPS`` operations have run.
The last round's outputs are checked against computations made apart from
the program (``checks.py``), and every earlier round must have left the
same bytes.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones.  ``op_s`` is the
median over the run's rounds of a round's time per operation, and
``points_per_s`` the median over rounds of a round's sample points over
its time.  Both times are scaled to a fixed host speed: while an
operation runs, ``reference.Sampler`` times a short fixed probe every
25 ms, and the operation's own time is scaled by the probes' nominal over
their mean time (``reference.py``).  ``setup_s`` is the median of
``SETUPS`` fresh set-ups in raw wall time, each in its own interpreter,
half before the warm-up and half after the loop; ``peak_rss_mb`` is the
peak resident memory of this process up to the end of the loop.  With
``--trace 1`` the layer boundaries are wrapped (``spans.py``), nothing is
sampled, and the metrics are the per-layer ones, per operation, in raw
time.

A record of the run (provenance, per-operation times, output hashes and
every metric) goes to ``perfbench/out/<workload>_seed<N>_trace<T>.json``;
a traced run also writes its spans beside it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_OPS = 3  # operations per run, at least, so that op_s is a median
SETUPS = 20  # fresh set-ups per run, half before and half after the loop; setup_s is their median
THREADS = "1"  # BLAS/OpenMP threads; with the main thread, at most 2 in all


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_sha() -> str:
    """HEAD of the checkout, or 'unknown' outside a git repository."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_setups(items, count: int) -> list:
    probe = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), *items]
    times = []
    for _ in range(count):
        done = subprocess.run(probe, capture_output=True, text=True, timeout=120, check=True)
        times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return times


class Runner:
    """Runs and checks the operations of one workload."""

    def __init__(self, workload, work_dir: Path):
        from minkaehler import cli

        self.cli = cli
        self.workload = workload
        self.work_dir = work_dir
        self.paths = []
        for k, op in enumerate(workload.round + (workload.warmup,)):
            name = "warmup" if op is workload.warmup else str(k)
            config = dict(op.config, output_dir=str(work_dir / name))
            path = work_dir / f"{name}.json"
            path.write_text(json.dumps(config, indent=1, sort_keys=True) + "\n")
            self.paths.append(path)
        self.problems = []

    def setup_items(self) -> list:
        return [f"{op.command}:{path}" for op, path in zip(self.workload.round, self.paths)]

    def call(self, index: int) -> int:
        op = (self.workload.round + (self.workload.warmup,))[index]
        with contextlib.redirect_stdout(io.StringIO()):
            return self.cli.main([op.command, "--config", str(self.paths[index])])

    def outputs(self, index: int) -> list:
        out = self.work_dir / str(index)
        if self.workload.round[index].command == "verify":
            return [out / "report.json"]
        return [out / "m4r5_ftheta.obj", out / "m4r5_ftheta.csv"]

    def digest(self, index: int) -> str:
        """sha256 of the output files of operation ``index``; '' if one is missing."""
        h = hashlib.sha256()
        for path in self.outputs(index):
            if not path.is_file():
                return ""
            h.update(path.read_bytes())
        return h.hexdigest()

    def check(self, index: int, rc: int) -> tuple:
        """(failed, output bytes) of the outputs operation ``index`` left."""
        import checks
        import workloads

        op = self.workload.round[index]
        out = self.work_dir / str(index)
        if op.command == "verify":
            if rc not in (0, 1):
                self.problems.append(f"verify {index} exited {rc}")
                return True, 0
            report = json.loads((out / "report.json").read_bytes())
            self.problems += checks.check_report(report, op.suites, op.points, op.tolerated)
            if rc != (0 if report["all_pass"] else 1):
                self.problems.append(f"verify {index} exited {rc} against all_pass")
            return not report["all_pass"], 0
        if rc != 0:
            self.problems.append(f"export {index} exited {rc}")
            return True, 0
        spec = op.config["export"]
        base = [0.0, 0.0, spec["fixed"]["2"], spec["fixed"]["3"]]
        box = workloads.slice_box()
        grid = checks.slice_grid(box, box, spec["counts"], base, spec["axes"])
        expected = checks.m4r5_values(grid, spec["theta"])
        obj, csv = out / "m4r5_ftheta.obj", out / "m4r5_ftheta.csv"
        obj_text, csv_text = obj.read_text(), csv.read_text()
        self.problems += checks.check_export(obj_text, csv_text, grid, expected, spec["counts"])
        return False, obj.stat().st_size + csv.stat().st_size

    def check_chart_values(self) -> None:
        """The verified charts' values at their sample points, through the
        program's config path, against the closed form or own recursion."""
        import checks
        from minkaehler.suites import build_bundle

        for op, path in zip(self.workload.round, self.paths):
            if op.command != "verify":
                continue
            config = self.cli.load_config(path)
            bundle = build_bundle(self.cli.resolve_seed(config["seed"]), counts=config["sampling"]["counts"])
            got = bundle.chart.values(bundle.points)
            seed = op.config["seed"]
            if seed == "m4r5":
                expected = checks.m4r5_values(bundle.points)
            else:
                expected = checks.seed_values(seed, bundle.points)
            self.problems += checks.check_values(got, expected, f"{bundle.seed.name} chart")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "minkaehler" / "__init__.py").is_file():
        print(f"error: no minkaehler package under {SRC}", file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = THREADS
    sys.path.insert(0, str(SRC))
    import numpy as np

    import minkaehler
    import reference
    import spans
    import workloads
    from minkaehler import kernels

    if Path(minkaehler.__file__).resolve().parent != (SRC / "minkaehler").resolve():
        print(f"error: minkaehler imported from {minkaehler.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = workloads.make(args.workload, args.seed)
    work_dir = OUT / "work" / workload.name
    work_dir.mkdir(parents=True, exist_ok=True)
    runner = Runner(workload, work_dir)

    setup_times = run_setups(runner.setup_items(), SETUPS // 2)

    tracer = uninstall = None
    if args.trace:
        tracer = spans.Tracer()
        uninstall = spans.install(tracer)

    warm = len(workload.round)
    t = time.perf_counter()
    runner.call(warm)
    warmup_s = time.perf_counter() - t

    # Only the output's sha256 is kept in the loop, so that the checks' own
    # memory stays out of peak_rss_mb; the last round's outputs are checked
    # afterwards, and every earlier round must have left the same bytes.
    times, scaled, probes, cpu, points, codes, digests = [], [], [], [], [], [], []
    start = time.perf_counter()
    while len(times) < MIN_OPS or time.perf_counter() - start < args.seconds:
        for index, op in enumerate(workload.round):
            for path in runner.outputs(index):
                path.unlink(missing_ok=True)
            c0 = time.process_time()
            if tracer:
                tracer.current_op = len(times) + 1
                t0 = time.perf_counter()
                rc = tracer.span("op", runner.call, index)
                times.append(time.perf_counter() - t0)
            else:
                with reference.Sampler() as sampler:
                    rc = runner.call(index)
                times.append(sampler.raw_s)
                scaled.append(sampler.scaled_s)
                probes.append(sampler.probe_s)
            cpu.append(time.process_time() - c0)
            points.append(op.points)
            codes.append(rc)
            digests.append(runner.digest(index))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if uninstall:
        uninstall()
    setup_times += run_setups(runner.setup_items(), SETUPS - SETUPS // 2)

    last = len(times) - len(workload.round)
    checked = [runner.check(index, codes[last + index]) for index in range(len(workload.round))]
    for k, (rc, digest) in enumerate(zip(codes, digests)):
        index = k % len(workload.round)
        if (rc, digest) != (codes[last + index], digests[last + index]):
            runner.problems.append(f"operation {k} left other outputs than the checked operation {last + index}")
    failed = sum(checked[k % len(workload.round)][0] for k in range(len(times)))
    out_bytes = [checked[k % len(workload.round)][1] for k in range(len(times))]
    runner.check_chart_values()

    ops = len(times)
    size = len(workload.round)
    rounds_raw = [sum(times[k:k + size]) for k in range(0, ops, size)]
    rounds = [sum(scaled[k:k + size]) for k in range(0, len(scaled), size)]
    stem = f"{workload.name}_seed{args.seed}_trace{args.trace}"
    if tracer:
        layers = spans.layer_metrics(tracer, ops, sum(points) / ops, workloads.SUITES)
        layers["export.bytes"] = sum(out_bytes) / ops
        layers["process.cpu_s"] = sum(cpu) / ops
        metrics = {k: {"value": v, "unit": spans.unit(k)} for k, v in sorted(layers.items())}
        tracer.save(OUT / f"{stem}.spans.npz")
    else:
        round_points = sum(points[:size])
        e2e = {
            "op_s": (statistics.median(r / size for r in rounds), "s"),
            "points_per_s": (statistics.median(round_points / r for r in rounds), "points/s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}

    record = {
        "args": vars(args),
        "provenance": {
            "git_sha": git_sha(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "backend": kernels.BACKEND,
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "threads_env": THREADS,
        },
        "warmup_s": warmup_s,
        "op_times_s": times,
        "op_cpu_s": cpu,
        "op_points": points,
        "output_sha256": digests,
        "setup_times_s": setup_times,
        "op_scaled_s": scaled,
        "op_probe_mean_s": probes,
        "round_raw_s": rounds_raw,
        "round_scaled_s": rounds,
        "metrics": metrics,
        "problems": runner.problems,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    for problem in runner.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {"correct": not runner.problems, "attempted": ops, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
