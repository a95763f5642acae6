"""Exception and warning types shared across the package, and a JSON type check."""


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


def _fits(value, kind: str) -> bool:
    """Whether ``value`` is of JSON ``kind``; a boolean is never a number."""
    if not isinstance(value, _JSON_KINDS[kind]):
        return False
    if kind in ("number", "integer") and isinstance(value, bool):
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
