"""Exception and warning types shared across the package, and the JSON
input reader: :func:`read_json` checks a parsed object against a schema,
so every object level rejects unknown keys and every number is finite."""

import copy
import sys


class DomainError(ValueError):
    """Raised when an evaluation point or basepoint leaves the
    declared domain of a series, chart, or seed, or when two series with
    incompatible basepoints are combined."""


class SeedValidationError(ValueError):
    """Raised when holomorphic seed data violates one of its invariants
    (zero leading data, wrong counts, empty domain)."""


class NonImmersionPointError(ArithmeticError):
    """Raised when a chart's first partials fail to be linearly independent
    at a point that was sampled as regular."""


class PreconditionError(RuntimeError):
    """Raised when an operation's documented precondition fails on the
    actual inputs (wrong rank, missing bending property, bad frame)."""


class DomainWarning(UserWarning):
    """Emitted when a seed chart is evaluated at points outside its seed's
    declared domain, where the truncation error bound no longer holds."""


class IndeterminateRankWarning(UserWarning):
    """Emitted when a singular value of the shape operator falls inside the
    band around the rank cutoff where the rank decision is unreliable."""


_JSON_KINDS = {
    "list": (list, tuple),
    "object": dict,
    "number": (int, float),
    "integer": (int, float),
    "string": str,
}
REQUIRED = object()  # the schema default of a key that must be given


def _fits(value, kind: str) -> bool:
    """Whether ``value`` is of JSON ``kind``; a number is finite and never a boolean."""
    if not isinstance(value, _JSON_KINDS[kind]):
        return False
    if kind in ("number", "integer") and (isinstance(value, bool) or not abs(value) <= sys.float_info.max):
        return False
    return kind != "integer" or isinstance(value, int) or value.is_integer()


def expect_json(value, kind: str, key: str, error: type = ValueError, of: str | None = None):
    """``value`` when it is a parsed JSON ``kind`` (list, object, number,
    integer or string) whose items, or object values, are each of kind
    ``of`` when given; otherwise raise ``error`` naming ``key``."""
    if not _fits(value, kind):
        raise error(f"{key} must be a JSON {kind}{f' of {of}s' if of else ''}, got {value!r}")
    if of is not None:
        for item in value.values() if kind == "object" else value:
            expect_json(item, of, key, error)
    return value


def read_json(data, schema: dict, where: str, error: type = ValueError) -> dict:
    """``data`` read as a JSON object against ``schema``: a dict of every
    known key, with a copy of the default for each missing one.

    ``schema`` maps a key to ``(kind, item kind, default)``; the kind is an
    :func:`expect_json` kind, a nested schema (a missing value is read from
    its default), or None when the caller checks the value.  A key whose
    default is None may be null; one whose default is :data:`REQUIRED` must
    be given.  Raises ``error`` naming ``where`` and the key."""
    expect_json(data, "object", where, error)
    unknown = set(data) - set(schema)
    if unknown:
        raise error(f"unknown {where} keys {sorted(unknown)}; known: {sorted(schema)}")
    out = {}
    for key, (kind, of, default) in schema.items():
        if key not in data and default is REQUIRED:
            raise error(f"{where} is missing required key {key!r}")
        value = data[key] if key in data else copy.deepcopy(default)
        if isinstance(kind, dict):
            value = read_json(value, kind, f"{where} {key}", error)
        elif kind is not None and not (value is None and default is None):
            expect_json(value, kind, f"{where} {key}", error, of)
        out[key] = value
    return out
