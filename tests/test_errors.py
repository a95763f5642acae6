import copy
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from minkaehler.cli import load_config, resolve_seed
from minkaehler.errors import REQUIRED, DomainError, SeedValidationError, read_json
from minkaehler.export import slice_from_json
from minkaehler.weierstrass import seed_from_json

SCHEMA = {
    "name": ("string", None, REQUIRED),
    "counts": ("list", "integer", [2, 2]),
    "box": ("list", None, None),
    "inner": ({"radius": ("number", None, 1.0), "tags": ("list", "string", [])}, None, {}),
}


class TestReadJson:
    def test_returned_defaults_are_copies(self):
        first = read_json({"name": "a"}, SCHEMA, "thing")
        first["counts"].append(3)
        first["inner"]["tags"].append("x")
        second = read_json({"name": "a"}, SCHEMA, "thing")
        assert second["counts"] == [2, 2] and second["inner"]["tags"] == []
        assert SCHEMA["counts"][2] == [2, 2]

    def test_nested_defaults_are_filled(self):
        out = read_json({"name": "a", "inner": {"tags": ["t"]}}, SCHEMA, "thing")
        assert out == {"name": "a", "counts": [2, 2], "box": None, "inner": {"radius": 1.0, "tags": ["t"]}}

    def test_required_keys_are_named(self):
        with pytest.raises(ValueError, match="thing is missing required key 'name'"):
            read_json({}, SCHEMA, "thing")

    def test_unknown_nested_key_is_named(self):
        with pytest.raises(ValueError, match=r"unknown thing inner keys \['radus'\]"):
            read_json({"name": "a", "inner": {"radus": 2.0}}, SCHEMA, "thing")

    def test_null_only_where_the_default_is_none(self):
        assert read_json({"name": "a", "box": None}, SCHEMA, "thing")["box"] is None
        for key in ("name", "counts", "inner"):
            with pytest.raises(ValueError, match=f"thing {key} must be a JSON"):
                read_json({"name": "a", key: None}, SCHEMA, "thing")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 1e400, 10**400, True])
    def test_numbers_are_finite_and_not_booleans(self, value):
        with pytest.raises(ValueError, match="thing inner radius must be a JSON number"):
            read_json({"name": "a", "inner": {"radius": value}}, SCHEMA, "thing")

    def test_the_given_error_type_is_raised(self):
        with pytest.raises(LookupError):
            read_json({"name": "a", "extra": 1}, SCHEMA, "thing", LookupError)


# -- fuzz: every mutated input returns or raises the reader's declared error --

SEED = {
    "n": 2,
    "name": "fuzz",
    "basepoint": [0.1, 0.0],
    "trunc_order": 4,
    "alpha0": [[1.0, 0.0], 0.5],
    "mu": [[[1.0, 0.0]], [[1.0, 0.5], [0.25, 0.0]]],
    "b": [[1.0], [[0.0, 1.0]]],
    "domain": {"radius": 0.5, "w_halfwidth": [0.5]},
    "constants": {"phi": [[0.0], [[0.0, 0.0], 1.0, 0.0]], "rep": [[0.0] * 5, [0.0] * 5]},
}
SLICE = {
    "axes": [0, 2],
    "counts": [3, 4],
    "fixed": {"1": 0.05},
    "box": [[-0.1, 0.1], [0, 0.1]],
    "field": "ftheta",
    "theta": 0.7,
}
CONFIG = {
    "seed": SEED,
    "suites": ["minimality"],
    "sampling": {"counts": [2, 2, 2, 2]},
    "tolerances": {"minimality": 1e-7},
    "export": SLICE,
    "output_dir": "out",
}
BAD_VALUES = st.sampled_from([math.nan, math.inf, -math.inf, True, False, 0.5, -2.5, "x", "", None])
NEW_KEYS = st.sampled_from(["extra", "n", "box", "phi", "2", "radius"]) | st.text(max_size=3)
FUZZ = settings(max_examples=60, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])


def _paths(node, path=()):
    """The path to every node of a parsed JSON tree, the root first."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, path + (key,))


@st.composite
def mutated(draw, base):
    """``base`` with one to three edits: a key added to an object, or a node
    replaced by NaN, an infinity, a boolean, a fraction, a string or null."""
    data = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(data))))
        node = data
        for key in path[:-1]:
            node = node[key]
        target = node[path[-1]] if path else data
        if isinstance(target, dict) and draw(st.booleans()):
            target[draw(NEW_KEYS)] = draw(BAD_VALUES)
        elif path:
            node[path[-1]] = draw(BAD_VALUES)
        else:
            data = draw(BAD_VALUES)
    return data


@FUZZ
@given(mutated(SEED))
def test_seed_reader_returns_or_raises_its_error(data):
    try:
        seed_from_json(data)
    except SeedValidationError:
        pass


@FUZZ
@given(mutated(SLICE))
def test_slice_reader_returns_or_raises_its_error(data):
    try:
        slice_from_json(data)
    except DomainError:
        pass


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "config.json"


@FUZZ
@given(data=mutated(CONFIG))
def test_config_reader_returns_or_raises_its_error(config_path, data):
    config_path.write_text(json.dumps(data), encoding="utf-8")
    try:
        config = load_config(config_path)
        resolve_seed(config["seed"])
        slice_from_json(config["export"])
    except ValueError:  # the config's own error, or the seed's or the slice's
        pass


def test_unmutated_inputs_are_valid(config_path):
    config_path.write_text(json.dumps(CONFIG), encoding="utf-8")
    config = load_config(config_path)
    assert resolve_seed(config["seed"]).name == "fuzz"
    assert slice_from_json(config["export"]).axes == (0, 2)
