import json
import subprocess
import sys

import pytest

from minkaehler import builtin_seed
from minkaehler.cli import DEFAULT_CONFIG, build_parser, load_config, main
from minkaehler.errors import NonImmersionPointError
from minkaehler.suites import SUITE_ORDER
from minkaehler.weierstrass import seed_to_json

from oracles import perfbench_module

REPORT_KEYS = {
    "identity",
    "points",
    "max_residual",
    "mean_residual",
    "tolerance",
    "pass",
    "control",
    "nonfinite",
}


ENNEPER_JSON = seed_to_json(builtin_seed("enneper"))


def raw_seed(key: str, text: str) -> str:
    """The enneper seed's JSON text with ``key`` set to the raw JSON ``text``."""
    return json.dumps(dict(ENNEPER_JSON, **{key: "<raw>"})).replace('"<raw>"', text)


def write_config(tmp_path, name="config.json", **overrides):
    data = dict(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


@pytest.fixture(autouse=True)
def run_in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)


class TestTopLevel:
    def test_print_defaults_is_valid_json(self, capsys):
        assert main(["--print-defaults"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {
            "config",
            "builtin_seeds",
            "suites",
            "tolerances",
            "expected_residuals",
        }
        assert payload["config"]["seed"] == "enneper"
        assert payload["config"]["export"]["box"] is None
        assert "m4r5" in payload["builtin_seeds"]
        for manifest in payload["expected_residuals"].values():
            assert type(manifest["rank"]) is float and manifest["rank"] == 1e-12

    def test_printed_defaults_run_as_a_config(self, tmp_path, capsys):
        assert main(["--print-defaults"]) == 0
        config = json.loads(capsys.readouterr().out)["config"]
        cfg = write_config(tmp_path, **config)
        assert main(["verify", "--config", cfg]) == 0

    def test_no_command_prints_help_and_fails(self, capsys):
        assert main([]) == 2
        assert "usage:" in capsys.readouterr().out

    def test_parser_is_built_once_and_keeps_no_state(self, capsys):
        # one parser per process: a parse leaves nothing for the next, and
        # a usage error exits 2 with the same message every time
        assert build_parser() is build_parser()
        assert build_parser().parse_args(["verify", "--suite", "rank"]).suites == ["rank"]
        assert build_parser().parse_args(["verify"]).suites is None
        errors = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["verify", "--bogus"])
            errors.append((exc.value.code, capsys.readouterr().err))
        assert errors[0] == errors[1] and errors[0][0] == 2 and "--bogus" in errors[0][1]

    def test_defaults_object_is_not_mutated_by_configs(self, tmp_path):
        before = json.dumps(DEFAULT_CONFIG, sort_keys=True)
        cfg = write_config(tmp_path, sampling={"counts": [2, 2]}, output_dir="o")
        load_config(cfg)
        assert json.dumps(DEFAULT_CONFIG, sort_keys=True) == before


class TestGenerate:
    def test_bundle_is_deterministic(self, tmp_path, capsys):
        for out in ("one", "two"):
            cfg = write_config(tmp_path, name=f"{out}.json", seed="m4r5", output_dir=out)
            assert main(["generate", "--config", cfg]) == 0
        first = (tmp_path / "one" / "m4r5_bundle.json").read_bytes()
        second = (tmp_path / "two" / "m4r5_bundle.json").read_bytes()
        assert first == second
        payload = json.loads(first)
        assert set(payload) == {"seed", "chain", "chart"}
        assert payload["chart"]["coordinate_dim"] == 4
        assert payload["chart"]["ambient_dim"] == 5
        assert payload["seed"]["name"] == "m4r5"

    @pytest.mark.parametrize("counts", [[3, 3, 3], [1, 1]])
    def test_sampling_is_not_read(self, tmp_path, capsys, counts):
        # generate samples no grid, so counts that no grid could use are moot
        cfg = write_config(tmp_path, seed="enneper", sampling={"counts": counts}, output_dir="out")
        assert main(["generate", "--config", cfg]) == 0
        assert (tmp_path / "out" / "enneper_bundle.json").exists()

    def test_degenerate_seed_is_refused(self, tmp_path, capsys):
        broken = seed_to_json(builtin_seed("enneper"))
        broken["b"] = [[[0.0, 0.0]]]
        cfg = write_config(tmp_path, seed=broken, output_dir="out")
        assert main(["generate", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "b[n-1] must be nonzero" in err


class TestVerify:
    def verify_config(self, tmp_path, out="out", **extra):
        return write_config(
            tmp_path,
            name=f"cfg_{out}.json",
            seed="enneper",
            sampling={"counts": [3, 3]},
            suites=["minimality", "rotation", "bending_condition"],
            output_dir=out,
            **extra,
        )

    def test_passing_run(self, tmp_path, capsys):
        cfg = self.verify_config(tmp_path)
        assert main(["verify", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "ALL PASS" in out
        assert "bending_condition_control" in out
        assert "expected-fail" in out
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["all_pass"] is True
        assert report["seed"] == "enneper"
        assert report["points"] == 9
        assert report["suites"] == ["minimality", "rotation", "bending_condition"]
        for row in report["reports"]:
            assert set(row) == REPORT_KEYS

    def test_report_bytes_are_reproducible(self, tmp_path):
        for out in ("a", "b"):
            cfg = self.verify_config(tmp_path, out=out)
            assert main(["verify", "--config", cfg]) == 0
        assert (tmp_path / "a" / "report.json").read_bytes() == (
            tmp_path / "b" / "report.json"
        ).read_bytes()

    @pytest.mark.parametrize("seed", ["m4r5", "inline-n3"])
    def test_default_reports_repeat_in_one_process(self, tmp_path, seed, n3_chart):
        # a second run in the same process must not read state the first left
        spec = seed_to_json(n3_chart.seed) if seed == "inline-n3" else seed
        sampling = {"counts": [2] * 6} if seed == "inline-n3" else {}
        for out in ("a", "b"):
            cfg = write_config(tmp_path, f"{out}.json", seed=spec, sampling=sampling, output_dir=out)
            assert main(["verify", "--config", cfg]) == 0
        assert (tmp_path / "a" / "report.json").read_bytes() == (
            tmp_path / "b" / "report.json"
        ).read_bytes()

    def test_suite_flags_override_config(self, tmp_path):
        cfg = self.verify_config(tmp_path)
        assert main(["verify", "--config", cfg, "--suite", "anticommutation"]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["suites"] == ["anticommutation"]

    def test_impossible_tolerance_fails_with_status_1(self, tmp_path, capsys):
        # a zero tolerance is unsatisfiable: pass requires residual < bound
        cfg = self.verify_config(tmp_path, tolerances={"minimality": 0.0})
        assert main(["verify", "--config", cfg]) == 1
        assert "FAILURES PRESENT" in capsys.readouterr().out
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["all_pass"] is False

    def test_unknown_suite_is_a_usage_error(self, tmp_path, capsys):
        cfg = self.verify_config(tmp_path)
        assert main(["verify", "--config", cfg, "--suite", "nope"]) == 2
        assert "unknown suites" in capsys.readouterr().err

    def test_seed_named_like_a_builtin_of_another_dimension(self, tmp_path, capsys):
        # the suite plan reads the chart's dimension: an n = 1 seed skips the
        # nullity suite whatever it is called
        seed = dict(ENNEPER_JSON, name="m4r5")
        cfg = write_config(tmp_path, seed=seed, sampling={"counts": [3, 3]}, output_dir="out")
        assert main(["verify", "--config", cfg]) == 0
        assert main(["generate", "--config", cfg]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text(encoding="ascii"))
        assert report["suites"] == [s for s in SUITE_ORDER if s != "nullity_in_bending_kernel"]
        rank = next(row for row in report["reports"] if row["identity"] == "rank")
        assert type(rank["max_residual"]) is float and rank["max_residual"] < 1e-15
        bundle = json.loads((tmp_path / "out" / "m4r5_bundle.json").read_text(encoding="ascii"))
        assert bundle["seed"]["name"] == "m4r5" and bundle["chart"]["coordinate_dim"] == 2

    def test_defaults_need_no_config_file(self, tmp_path, capsys):
        # no --config at all: the defaults run the enneper seed end to end
        assert main(["verify", "--suite", "minimality"]) == 0
        assert (tmp_path / "minkaehler-out" / "report.json").exists()


class TestConfigErrors:
    def test_unknown_key_is_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, seed="enneper", tolerance=1.0)
        assert main(["verify", "--config", cfg]) == 2
        assert "unknown config keys" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "sampling",
        # rng_seed was a sampling key; the control fields' generator seed is now fixed
        [{"count": [3, 3]}, {"margin": 0.9}]
        + [{"rng_seed": v} for v in (3, 1.5, -5, None)],
    )
    def test_unknown_sampling_key_is_rejected(self, tmp_path, capsys, sampling):
        cfg = write_config(tmp_path, seed="enneper", sampling=sampling)
        assert main(["verify", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "unknown config sampling keys" in err and repr(next(iter(sampling))) in err

    @pytest.mark.parametrize(
        "argv, config, key",
        [
            (["verify"], {"sampling": {"counts": [2.9, 2.2]}}, "counts"),
            (["verify"], {"sampling": {"counts": [True, 3]}}, "counts"),
            (["verify"], {"seed": dict(seed_to_json(builtin_seed("enneper")), n=1.7)}, "seed n"),
            (
                ["verify"],
                {"seed": dict(seed_to_json(builtin_seed("enneper")), trunc_order=24.5)},
                "seed trunc_order",
            ),
            (["export", "--slice", '{"counts": [3.9, 2.5]}'], {}, "slice counts"),
            (["export", "--slice", '{"axes": [0.5, 1]}'], {}, "slice axes"),
        ],
    )
    def test_integer_keys_reject_fractions_and_booleans(self, tmp_path, capsys, argv, config, key):
        cfg = write_config(tmp_path, **config)
        assert main(argv + ["--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err and "integer" in err

    @pytest.mark.parametrize(
        "config, key",
        [
            ({"seed": dict(ENNEPER_JSON, trunc_ordr=4)}, "'trunc_ordr'"),
            ({"seed": dict(ENNEPER_JSON, domain={"radius": 0.5, "w_halfwidht": [1]})}, "'w_halfwidht'"),
            ({"seed": dict(ENNEPER_JSON, constants={"ph": [[[0.5, 0.0]]]})}, "'ph'"),
            ({"export": {"feild": "f"}}, "'feild'"),
        ],
        ids=["seed", "seed-domain", "seed-constants", "export"],
    )
    def test_unknown_key_is_rejected_at_every_level(self, tmp_path, capsys, config, key):
        cfg = write_config(tmp_path, sampling={"counts": [2, 2]}, **config)
        assert main(["verify", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown") and key in err

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize(
        "config, slice_spec, key",
        [
            ('{"tolerances": {"minimality": @}}', None, "config tolerances"),
            ('{"seed": %s}' % raw_seed("basepoint", "@"), None, "seed basepoint"),
            ('{"seed": %s}' % raw_seed("basepoint", "[@, 0.0]"), None, "seed basepoint"),
            ('{"seed": %s}' % raw_seed("domain", '{"radius": @}'), None, "seed domain radius"),
            ('{"seed": %s}' % raw_seed("alpha0", "[@]"), None, "seed alpha0"),
            ("{}", '{"field": "ftheta", "theta": @}', "slice theta"),
            ('{"seed": "m4r5"}', '{"fixed": {"2": @}}', "slice fixed"),
            ("{}", '{"box": [[@, 0.1], [-0.1, 0.1]]}', "slice box"),
        ],
        ids=["tolerance", "basepoint", "basepoint-pair", "radius", "coefficient", "theta", "fixed", "box"],
    )
    def test_non_finite_numbers_name_the_key(self, tmp_path, capsys, literal, config, slice_spec, key):
        # raw JSON text: Python's parser reads NaN and Infinity, JSON has neither
        path = tmp_path / "config.json"
        path.write_text(config.replace("@", literal), encoding="utf-8")
        argv = ["verify", "--config", str(path), "--suite", "minimality"]
        if slice_spec is not None:
            argv = ["export", "--config", str(path), "--slice", slice_spec.replace("@", literal)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err and "Traceback" not in err

    @pytest.mark.parametrize("key, value", [("alpha0", []), ("mu", [[]]), ("b", [[]])])
    def test_empty_coefficient_list_names_the_key(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, seed=dict(ENNEPER_JSON, **{key: value}), sampling={"counts": [2, 2]})
        assert main(["verify", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: seed {key} needs at least one coefficient")

    @pytest.mark.parametrize("command", ["verify", "export"])
    def test_non_finite_jet_names_the_point(self, tmp_path, package_env, command):
        # a finite radius far past the series' convergence overflows the
        # jets; numpy's overflow warnings must not print ahead of the error
        seed = dict(ENNEPER_JSON, domain=dict(ENNEPER_JSON["domain"], radius=1e300))
        cfg = write_config(tmp_path, seed=seed, sampling={"counts": [2, 2]})
        proc = subprocess.run(
            [sys.executable, "-m", "minkaehler", command, "--config", cfg],
            env={**package_env, "PYTHONWARNINGS": "default"},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: the jet at [") and lines[0].endswith("is not finite")

    def test_large_finite_radius_still_verifies(self, tmp_path, capsys):
        seed = dict(ENNEPER_JSON, domain=dict(ENNEPER_JSON["domain"], radius=1e12))
        cfg = write_config(tmp_path, seed=seed, sampling={"counts": [2, 2]})
        assert main(["verify", "--config", cfg]) == 0
        assert "ALL PASS" in capsys.readouterr().out

    def test_domain_past_the_series_convergence_names_the_series(self, tmp_path, capsys):
        seed = seed_to_json(builtin_seed("catenoid"))
        seed["domain"]["radius"] = 3.0
        cfg = write_config(tmp_path, seed=seed, sampling={"counts": [4, 4]})
        assert main(["verify", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: seed series b[0] does not converge on the domain")
        assert "radius 3" in err

    @pytest.mark.parametrize(
        "seed, message",
        [
            (
                dict(seed_to_json(builtin_seed("catenoid")), domain={"radius": 3.0, "w_halfwidth": []}),
                "seed series b[0] does not converge on the domain: its term of order 32 is its largest at radius 3",
            ),
            (
                dict(ENNEPER_JSON, alpha0=[[0, 0], [1, 0]]),
                "seed invariant violated: alpha0 must be nonzero on the domain (min modulus 0 at sampled points)",
            ),
            (
                dict(ENNEPER_JSON, alpha0=[[1e308, 0], [1e308, 0]]),
                "seed invariant violated: alpha0 is not finite on the domain",
            ),
        ],
        ids=["catenoid-radius-3", "enneper-zero-alpha0", "enneper-overflowing-alpha0"],
    )
    def test_every_command_rejects_a_bad_seed_alike(self, tmp_path, capsys, seed, message):
        # the seed checks itself when read, before any command samples it
        cfg = write_config(tmp_path, seed=seed, output_dir="out")
        for command in ("verify", "generate", "export"):
            assert main([command, "--config", cfg]) == 2
            assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_seed_name_must_be_a_string(self, tmp_path, capsys):
        cfg = write_config(tmp_path, seed=dict(ENNEPER_JSON, name=5), sampling={"counts": [2, 2]})
        assert main(["verify", "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith("error: seed name must be a JSON string")

    def test_negative_trunc_order_names_the_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, seed=dict(seed_to_json(builtin_seed("enneper")), trunc_order=-1))
        assert main(["verify", "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith("error: seed trunc_order must be >= 0")

    def test_non_integer_fixed_key_names_the_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, seed="m4r5")
        assert main(["export", "--config", cfg, "--slice", '{"fixed": {"a": 1}}']) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: slice fixed key 'a'")

    def test_malformed_json_is_reported(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["verify", "--config", str(path)]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_missing_file_is_reported(self, tmp_path, capsys):
        assert main(["verify", "--config", str(tmp_path / "absent.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_seed_must_be_name_or_object(self, tmp_path, capsys):
        cfg = write_config(tmp_path, seed=42)
        assert main(["verify", "--config", cfg]) == 2
        assert "built-in name" in capsys.readouterr().err

    def test_unknown_builtin_name_is_reported(self, tmp_path, capsys):
        cfg = write_config(tmp_path, seed="nope")
        assert main(["verify", "--config", cfg]) == 2
        assert "unknown builtin seed" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["generate", "verify", "export"])
    @pytest.mark.parametrize("name", ["../x", "a/b", "", "\u00e9", "a\nb", ".hidden"])
    def test_seed_name_that_is_no_plain_file_stem_writes_nothing(self, tmp_path, capsys, command, name):
        # the name is the stem of every file a seed writes
        cfg = write_config(tmp_path, seed=dict(ENNEPER_JSON, name=name), output_dir="out")
        assert main([command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: seed name") and repr(name) in err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize(
        "command, config",
        [
            ("verify", {"sampling": 5}),
            ("verify", {"suites": 5}),
            ("verify", {"output_dir": 5}),
            ("export", {"export": {"counts": 5}}),
            ("export", {"export": {"fixed": 5}}),
            ("export", {"export": {"axes": None}}),
            ("export", {"export": {"box": 3}}),
            ("verify", {"seed": dict(seed_to_json(builtin_seed("enneper")), alpha0=5)}),
            # a boolean is never a number
            ("verify", {"tolerances": {"minimality": True}}),
            ("export", {"export": {"field": "ftheta", "theta": True}}),
            ("verify", {"seed": dict(seed_to_json(builtin_seed("enneper")), domain={"radius": True})}),
            ("verify", {"seed": dict(seed_to_json(builtin_seed("enneper")), basepoint=True)}),
            ("verify", {"seed": dict(seed_to_json(builtin_seed("enneper")), alpha0=[[True, 0]])}),
        ],
    )
    def test_wrong_json_type_is_a_usage_error(self, tmp_path, capsys, command, config):
        # exit 1 means an identity failed; a malformed input must not read as one
        cfg = write_config(tmp_path, **config)
        assert main([command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


class TestExport:
    def test_obj_and_csv_files(self, tmp_path, capsys):
        cfg = write_config(tmp_path, seed="enneper", output_dir="mesh")
        assert main(["export", "--config", cfg]) == 0
        obj = (tmp_path / "mesh" / "enneper_f.obj").read_text()
        csv = (tmp_path / "mesh" / "enneper_f.csv").read_text()
        lines = obj.splitlines()
        assert lines[0].startswith("o ")
        assert sum(1 for l in lines if l.startswith("v ")) == 144
        assert sum(1 for l in lines if l.startswith("f ")) == 121
        assert len(csv.splitlines()) == 145  # header + one row per vertex

    def test_inline_slice_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path, seed="enneper", output_dir="mesh")
        spec = json.dumps({"axes": [0, 1], "counts": [2, 2], "field": "fbar"})
        assert main(["export", "--config", cfg, "--slice", spec]) == 0
        assert (tmp_path / "mesh" / "enneper_fbar.obj").exists()
        assert (tmp_path / "mesh" / "enneper_fbar.csv").exists()

    def test_slice_outside_domain_is_reported(self, tmp_path, capsys):
        cfg = write_config(tmp_path, seed="enneper", output_dir="mesh")
        spec = json.dumps({"counts": [2, 2], "box": [[-10.0, 10.0], [-10.0, 10.0]]})
        assert main(["export", "--config", cfg, "--slice", spec]) == 2
        assert "leaves the chart domain" in capsys.readouterr().err

    def test_failed_export_writes_no_file(self, tmp_path, monkeypatch, capsys):
        # every frame is computed before a file is opened
        def fail(jet):
            raise NonImmersionPointError("first partials are dependent")

        monkeypatch.setattr("minkaehler.export.point_frame", fail)
        cfg = write_config(tmp_path, seed="enneper", output_dir="mesh")
        assert main(["export", "--config", cfg]) == 2
        assert "first partials are dependent" in capsys.readouterr().err
        for suffix in ("obj", "csv"):
            assert not (tmp_path / "mesh" / f"enneper_f.{suffix}").exists()

    def test_exports_are_deterministic(self, tmp_path):
        for out in ("m1", "m2"):
            cfg = write_config(tmp_path, name=f"{out}.json", seed="enneper", output_dir=out)
            assert main(["export", "--config", cfg]) == 0
        for suffix in ("obj", "csv"):
            assert (tmp_path / "m1" / f"enneper_f.{suffix}").read_bytes() == (
                tmp_path / "m2" / f"enneper_f.{suffix}"
            ).read_bytes()


def test_module_entry_point_runs(package_env):
    proc = subprocess.run(
        [sys.executable, "-m", "minkaehler", "--print-defaults"],
        env=package_env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["config"]["output_dir"] == "minkaehler-out"


def test_command_line_loads_no_taylor_arithmetic(package_env):
    # closed-form charts and the Gauss parametrization stay out of every
    # command's import graph
    probe = "import json, sys, minkaehler.cli; print(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env=package_env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert {"minkaehler.cli", "minkaehler.suites", "minkaehler.export"} <= loaded
    assert not {"minkaehler.taylor", "minkaehler.gausspar"} & loaded


def test_every_benchmark_trace_point_records_a_span(tmp_path):
    """A small verify and export pass through every boundary the
    benchmark's tracer wraps, so a refactor that bypasses one (and so reads
    zero on its per-layer metric) fails here."""
    spans = perfbench_module("spans")
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        sampling, export = {"counts": [2, 2, 2, 2]}, {"counts": [4, 4]}
        cfg = write_config(tmp_path, seed="m4r5", sampling=sampling, export=export, output_dir="out")
        assert main(["verify", "--config", cfg]) == 0
        assert main(["export", "--config", cfg]) == 0
    finally:
        uninstall()
    recorded = {tracer.names[k] for k in tracer.arrays()["name"]}
    wanted = {*spans.FUNCTIONS, *spans.METHODS, *(f"suites.{name}" for name in SUITE_ORDER)}
    assert not wanted - recorded, sorted(wanted - recorded)
