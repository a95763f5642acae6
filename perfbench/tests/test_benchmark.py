"""Tests of the benchmark's own checks, runs and tracing.

    python3 -m pytest -q perfbench/tests

The checks must accept the program's real outputs and reject each kind of
wrong output; a very short run of every workload must complete with a
correct result; tracing must leave ``report.json`` byte-identical and
repeat its counts exactly.  The short runs take about two minutes.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from minkaehler import cli  # noqa: E402
from minkaehler.suites import build_bundle  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


# -- closed forms against the program's charts --------------------------------

def test_m4r5_closed_form_matches_chart_and_rejects_a_perturbation():
    bundle = build_bundle(cli.resolve_seed("m4r5"))
    got = bundle.chart.values(bundle.points)
    expected = checks.m4r5_values(bundle.points)
    assert checks.check_values(got, expected, "m4r5") == []
    expected[17, 3] += 1e-9
    assert checks.check_values(got, expected, "m4r5")


@pytest.mark.parametrize("index", [0, 1, 2])
def test_recursion_matches_random_seed_charts_and_rejects_a_perturbation(index):
    seed = workloads.random_seeds()[index]
    bundle = build_bundle(cli.resolve_seed(seed), counts=[2] * (2 * seed["n"]))
    got = bundle.chart.values(bundle.points)
    expected = checks.seed_values(seed, bundle.points)
    assert checks.check_values(got, expected, seed["name"]) == []
    expected[0, -1] *= 1 + 1e-9
    assert checks.check_values(got, expected, seed["name"])


# -- report checks ------------------------------------------------------------

def _row(identity, worst, tol, control=False):
    passed = worst > tol if control else worst < tol
    return {"identity": identity, "points": 4, "max_residual": worst, "mean_residual": worst,
            "tolerance": tol, "pass": passed, "control": control}


def _report(rows):
    return {"points": 4, "suites": ["minimality", "codazzi_b"], "reports": rows,
            "all_pass": all(r["pass"] for r in rows if not r["control"])}


def test_report_check_accepts_a_passing_report():
    rows = [_row("minimality", 1e-16, 1e-8), _row("codazzi_b", 1e-6, 5.5e-6),
            _row("codazzi_b_control", 1.0, 1e-2, control=True)]
    assert checks.check_report(_report(rows), ["minimality", "codazzi_b"], 4) == []


def test_report_check_rejects_a_fail_row():
    rows = [_row("minimality", 1e-6, 1e-8), _row("codazzi_b", 1e-6, 5.5e-6)]
    assert checks.check_report(_report(rows), ["minimality", "codazzi_b"], 4)


def test_report_check_rejects_a_control_below_its_floor():
    rows = [_row("minimality", 1e-16, 1e-8), _row("codazzi_b", 1e-6, 5.5e-6),
            _row("codazzi_b_control", 1e-3, 1e-2, control=True)]
    assert checks.check_report(_report(rows), ["minimality", "codazzi_b"], 4)


def test_report_check_rejects_a_verdict_that_disagrees_with_its_residual():
    row = _row("minimality", 1e-6, 1e-8)
    row["pass"] = True
    report = _report([row])
    report["all_pass"] = True
    assert checks.check_report(report, ["minimality", "codazzi_b"], 4)


def test_report_check_tolerates_only_the_named_fault():
    fault = [_row("minimality", 1e-16, 1e-8), _row("codazzi_b", 1e-4, 5.5e-6)]
    assert checks.check_report(_report(fault), ["minimality", "codazzi_b"], 4, ("codazzi_b",)) == []
    other = [_row("minimality", 1e-6, 1e-8), _row("codazzi_b", 1e-4, 5.5e-6)]
    assert checks.check_report(_report(other), ["minimality", "codazzi_b"], 4, ("codazzi_b",))


# -- export checks ------------------------------------------------------------

@pytest.fixture(scope="module")
def small_export(tmp_path_factory):
    out = tmp_path_factory.mktemp("export")
    spec = dict(workloads.export_slice(7), counts=[6, 5])
    config = out / "config.json"
    config.write_text(json.dumps({"seed": "m4r5", "export": spec, "output_dir": str(out)}))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["export", "--config", str(config)]) == 0
    base = [0.0, 0.0, spec["fixed"]["2"], spec["fixed"]["3"]]
    box = workloads.slice_box()
    grid = checks.slice_grid(box, box, spec["counts"], base, spec["axes"])
    expected = checks.m4r5_values(grid, spec["theta"])
    obj = (out / "m4r5_ftheta.obj").read_text()
    csv = (out / "m4r5_ftheta.csv").read_text()
    return obj, csv, grid, expected, spec["counts"]


def test_export_check_accepts_the_program_export(small_export):
    assert checks.check_export(*small_export) == []


def test_export_check_rejects_an_obj_missing_a_face(small_export):
    obj, csv, grid, expected, counts = small_export
    lines = obj.splitlines()
    face = next(i for i, line in enumerate(lines) if line.startswith("f "))
    broken = "\n".join(lines[:face] + lines[face + 1:]) + "\n"
    assert checks.check_export(broken, csv, grid, expected, counts)


def test_export_check_rejects_a_perturbed_closed_form_value(small_export):
    obj, csv, grid, expected, counts = small_export
    wrong = expected.copy()
    wrong[3, 1] += 1e-9
    assert checks.check_export(obj, csv, grid, wrong, counts)


def test_export_check_rejects_a_large_residual_column(small_export):
    obj, csv, grid, expected, counts = small_export
    lines = csv.splitlines()
    cells = lines[2].split(",")
    cells[-1] = "1e-6"
    broken = "\n".join(lines[:2] + [",".join(cells)] + lines[3:]) + "\n"
    assert checks.check_export(obj, broken, grid, expected, counts)


# -- tracing ------------------------------------------------------------------

def _verify_report(tmp_path, out):
    config = tmp_path / f"{out}.json"
    config.write_text(json.dumps({"seed": "m4r5", "sampling": {"counts": [2, 2, 2, 2]},
                                  "output_dir": str(tmp_path / out)}))
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["verify", "--config", str(config)])
    return (tmp_path / out / "report.json").read_bytes()


def test_tracing_leaves_report_byte_identical_and_restores_the_program(tmp_path):
    import minkaehler.bending as bending
    import minkaehler.geometry as geometry

    plain = _verify_report(tmp_path, "plain")
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        traced = _verify_report(tmp_path, "traced")
    finally:
        uninstall()
    assert traced == plain
    assert bending.point_frame is geometry.point_frame
    assert not hasattr(geometry.point_frame, "__wrapped__")
    names = {tracer.names[i] for i in set(tracer.name)}
    assert {"weierstrass.jet", "kernels.horner", "geometry.christoffel", "suites.codazzi_b"} <= names


# -- host-speed sampling -----------------------------------------------------

def test_sampling_leaves_report_byte_identical_and_scales_by_the_probes(tmp_path):
    plain = _verify_report(tmp_path, "plain")
    with reference.Sampler() as sampler:
        sampled = _verify_report(tmp_path, "sampled")
    assert sampled == plain
    assert len(sampler.samples) >= 2
    assert sampler.raw_s > 0
    assert sampler.scaled_s == pytest.approx(sampler.raw_s * reference.REF_S / sampler.probe_s)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL


# -- whole runs ---------------------------------------------------------------

def _check_result(result, declared):
    assert result["correct"] is True
    assert result["attempted"] >= 3
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_a_very_short_run_completes(workload):
    result = _result(_run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0"))
    _check_result(result, BENCHMARK["end_to_end"])
    expected_failed = result["attempted"] if workload == "verify-random" else 0
    assert result["failed"] == expected_failed
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_runs_give_every_layer_metric_with_repeating_counts():
    args = ("--workload", "export-dense", "--seed", "5", "--seconds", "1", "--trace", "1")
    first, second = _result(_run(*args)), _result(_run(*args))
    _check_result(first, BENCHMARK["per_layer"])
    counts = {k for k, m in first["metrics"].items() if m["unit"] != "s"}
    assert {k: first["metrics"][k] for k in counts} == {k: second["metrics"][k] for k in counts}
    assert first["metrics"]["weierstrass.jet_calls"]["value"] == 4097.0


def test_run_without_the_program_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run("--workload", "export-dense", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
