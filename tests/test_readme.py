"""The README's quick-start examples run against the package as it stands,
so a README that names a removed API or config key fails."""

import json
import re
from pathlib import Path

from minkaehler import cli
from minkaehler.errors import read_json
from minkaehler.export import slice_from_json
from minkaehler.suites import SUITE_ORDER

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(lang: str) -> str:
    """The first fenced code block of the README in ``lang``."""
    text = README.read_text(encoding="utf-8")
    return re.search(rf"^```{lang}\n(.*?)^```", text, re.S | re.M).group(1)


def test_library_quick_start_runs(capsys):
    exec(compile(_block("python"), str(README), "exec"), {"__name__": "readme"})
    out = capsys.readouterr().out
    # every number it prints is a residual of an identity that holds
    values = [float(x) for x in re.findall(r"[-+]?\d+\.?\d*(?:e[-+]?\d+)?", out)]
    assert values and max(map(abs, values)) < 1e-12, out


def test_config_example_reads_against_the_schema():
    config = read_json(json.loads(_block("json")), cli.CONFIG_SCHEMA, "config")
    cli.resolve_seed(config["seed"])
    slice_from_json(config["export"])
    assert set(config["tolerances"]) <= set(SUITE_ORDER)
