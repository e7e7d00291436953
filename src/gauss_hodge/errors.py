"""Exception types shared across the package."""


class GaussHodgeError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(GaussHodgeError, ValueError):
    """An argument is outside the operation's domain (bad axis, bad degree, ...)."""


class DimensionMismatchError(DomainError):
    """Operands live on different spaces (dimension or scalar kind)."""


class DegreeOverflowError(GaussHodgeError):
    """A degree-raising operation would exceed the configured capacity."""

    def __init__(self, message: str, required_capacity: int | None = None):
        super().__init__(message)
        self.required_capacity = required_capacity


class NotClosedError(GaussHodgeError):
    """A solve was attempted on an input that is not closed.

    Carries the squared norm of the offending closedness residual.
    """

    def __init__(self, message: str, residual_norm_sq=None):
        super().__init__(message)
        self.residual_norm_sq = residual_norm_sq


class SolveNumericalError(GaussHodgeError):
    """A result cannot be written in float mode: a value lies beyond the
    double range, so its double would not be finite."""


class InvariantViolationError(GaussHodgeError):
    """A pipeline tripwire fired: a stage identity or stage bound failed.

    These conditions are mathematically guaranteed for valid inputs, so this
    error indicates
    either corrupted input or an implementation bug, never a tolerable state.
    """

    def __init__(self, stage: str, message: str, lhs=None, rhs=None):
        super().__init__(f"{stage}: {message}")
        self.stage = stage
        self.lhs = lhs
        self.rhs = rhs
