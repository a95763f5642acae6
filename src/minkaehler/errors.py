"""Exception and warning types shared across the package."""


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
    """Emitted when a series is evaluated outside its declared radius."""


class IndeterminateRankWarning(UserWarning):
    """Emitted when a singular value of the shape operator falls inside the
    band around the rank cutoff where the rank decision is unreliable."""
