"""Batch front end: construct charts, verify identities, export slices.

Subcommands
-----------
``generate --config c.json``
    Run the recursion and write the full series bundle (seed, chain, chart
    metadata) as deterministic JSON.

``verify --config c.json [--suite name ...]``
    Run verification suites over a sample grid; write ``report.json`` and
    print a plain-text table.  Exit status 0 iff every non-control suite
    passes; negative controls report ``expected-fail`` without affecting
    the status.

``export --config c.json [--slice spec]``
    Write an OBJ mesh and a CSV table for a two-dimensional slice of the
    chart (``--slice`` takes inline JSON and overrides the config).

``--print-defaults`` prints the embedded default configuration, the
registered suites, their tolerances, and the built-in expected-residual
manifests, then exits.

All outputs are deterministic for a fixed config: JSON floats are written
in their shortest round-trip repr (CSV and OBJ at 17 significant digits),
and no timestamps or machine identifiers appear.  A seed's name is the
stem of the files it writes, so a seed is checked to have a plain one.

The config is read against ``CONFIG_SCHEMA`` (its ``export`` section
against the slice schema, an inline seed against the seed schema): an
unknown key at any level, a value of the wrong JSON kind, NaN or infinity
exits 2 with an ``error:`` line naming the key.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .errors import NonImmersionPointError, PreconditionError, read_json
from .export import SLICE_SCHEMA, export_slice, slice_from_json
from .report import all_passed, render_json, render_text_table, report_to_dict
from .seeds import BUILTIN_NAMES, EXPECTED_RESIDUALS, builtin_seed
from .suites import (
    DEFAULT_TOLERANCES,
    SUITE_ORDER,
    build_bundle,
    default_suites,
    run_suites,
)
from .weierstrass import SeriesChart, chain_to_json, seed_from_json, seed_to_json

# each config key's JSON kind, item kind and default; the export section is
# a slice spec, and ``seed`` (a built-in name or a seed object) is read by
# :func:`resolve_seed`
CONFIG_SCHEMA = {
    "seed": (None, None, "enneper"),
    "suites": ("list", "string", None),
    "sampling": ({"counts": ("list", "integer", None)}, None, {}),
    "tolerances": ("object", "number", {}),
    "export": (SLICE_SCHEMA, None, {}),
    "output_dir": ("string", None, "minkaehler-out"),
}
DEFAULT_CONFIG = read_json({}, CONFIG_SCHEMA, "config")
# DomainError and SeedValidationError are ValueErrors
_USER_ERRORS = (NonImmersionPointError, OSError, PreconditionError, ValueError)


def load_config(path) -> dict:
    """Defaults overlaid with the JSON config file (when given)."""
    data = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    return read_json(data, CONFIG_SCHEMA, "config")


def resolve_seed(spec):
    """A seed from a built-in name or an inline seed object."""
    if isinstance(spec, str):
        return builtin_seed(spec)
    if isinstance(spec, dict):
        return seed_from_json(spec)
    raise ValueError("config 'seed' must be a built-in name or a seed object")


def _bundle_from_config(config):
    seed = resolve_seed(config["seed"])
    return build_bundle(seed, counts=config["sampling"]["counts"])


def _out_dir(config) -> Path:
    out = Path(config["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_generate(config) -> int:
    seed = resolve_seed(config["seed"])
    chart = SeriesChart(seed)
    payload = {
        "seed": seed_to_json(seed),
        "chain": chain_to_json(seed.chain),
        "chart": {
            "theta": 0.0,
            "ambient_dim": chart.ambient,
            "coordinate_dim": chart.d,
            "box": [[float(lo), float(hi)] for lo, hi in chart.box],
            "trunc_order": seed.trunc_order,
        },
    }
    out = _out_dir(config) / f"{seed.name}_bundle.json"
    out.write_text(render_json(payload) + "\n", encoding="ascii")
    print(f"wrote {out}")
    return 0


def cmd_verify(config, suite_names=None) -> int:
    bundle = _bundle_from_config(config)
    names = suite_names or config["suites"] or default_suites(bundle)
    reports = run_suites(bundle, names=names, tolerances=config["tolerances"])
    table = render_text_table(reports)
    payload = {
        "seed": bundle.seed.name,
        "points": len(bundle.points),
        "suites": list(names),
        "reports": [report_to_dict(r) for r in reports],
        "all_pass": all_passed(reports),
    }
    out = _out_dir(config) / "report.json"
    out.write_text(render_json(payload) + "\n", encoding="ascii")
    print(table)
    print(f"wrote {out}")
    return 0 if all_passed(reports) else 1


def cmd_export(config, slice_json=None) -> int:
    seed = resolve_seed(config["seed"])
    data = json.loads(slice_json) if slice_json else config["export"]
    spec = slice_from_json(data)
    out = _out_dir(config)
    base = f"{seed.name}_{spec.field_name}"
    obj_path = out / f"{base}.obj"
    csv_path = out / f"{base}.csv"
    count = export_slice(seed, spec, obj_path, csv_path, name=base)
    print(f"wrote {obj_path} and {csv_path} ({count} points)")
    return 0


def print_defaults() -> None:
    payload = {
        "config": DEFAULT_CONFIG,
        "builtin_seeds": list(BUILTIN_NAMES),
        "suites": list(SUITE_ORDER),
        "tolerances": DEFAULT_TOLERANCES,
        "expected_residuals": EXPECTED_RESIDUALS,
    }
    print(render_json(payload))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, so every :func:`main` call shares it."""
    parser = argparse.ArgumentParser(
        prog="minkaehler",
        description=(
            "Construct minimal Kaehler hypersurface charts from holomorphic "
            "seed data and verify their bending identities."
        ),
    )
    parser.add_argument(
        "--print-defaults",
        action="store_true",
        help="print the embedded defaults as JSON and exit",
    )
    sub = parser.add_subparsers(dest="command")
    gen = sub.add_parser("generate", help="write the series bundle for a seed")
    gen.add_argument("--config", help="JSON config path")
    ver = sub.add_parser("verify", help="run verification suites")
    ver.add_argument("--config", help="JSON config path")
    ver.add_argument(
        "--suite",
        action="append",
        dest="suites",
        metavar="NAME",
        help="suite to run (repeatable; overrides the config list)",
    )
    exp = sub.add_parser("export", help="write OBJ and CSV for a 2-d slice")
    exp.add_argument("--config", help="JSON config path")
    exp.add_argument("--slice", help="inline JSON slice spec (overrides config)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.print_defaults:
        print_defaults()
        return 0
    if args.command is None:
        parser.print_help()
        return 2
    try:
        config = load_config(args.config)
        if args.command == "generate":
            return cmd_generate(config)
        if args.command == "verify":
            return cmd_verify(config, suite_names=args.suites)
        if args.command == "export":
            return cmd_export(config, slice_json=args.slice)
    except json.JSONDecodeError as exc:
        # before the generic handlers: JSONDecodeError is a ValueError
        print(f"error: invalid JSON: {exc}", file=sys.stderr)
        return 2
    except _USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    raise SystemExit(main())
