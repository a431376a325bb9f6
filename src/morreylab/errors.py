"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Point array has the wrong dimension or non-finite entries."""


class DomainError(ValueError):
    """A numeric argument is outside the operation's admissible range."""


class UnsupportedGroupError(DomainError):
    """The operation is not defined for this group law or gauge."""


class IntegrandError(ValueError):
    """The integrand returned a non-finite value away from any flagged
    singular point.  The offending node is reported in the message."""


class AccuracyError(RuntimeError):
    """The quadrature budget was exhausted.  The best estimate achieved
    is attached as the ``estimate`` attribute."""

    def __init__(self, message, estimate=None):
        super().__init__(message)
        self.estimate = estimate


class DegenerateInputError(ValueError):
    """The input makes the requested check meaningless (e.g. u == 0)."""
