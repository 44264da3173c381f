"""Exception types shared across the package."""


class DomainError(ValueError):
    """A radius or exponent falls outside the valid domain."""


class ProfileError(ValueError):
    """A metric profile violates its smoothness/positivity invariants."""


class ConvergenceError(RuntimeError):
    """An iterative solve failed to converge.

    ``last_iterate`` holds the final field for post-mortem inspection.
    """

    def __init__(self, message, last_iterate=None):
        super().__init__(message)
        self.last_iterate = last_iterate


class MonotonicityError(RuntimeError):
    """A sequence that must be monotone (within tolerance) is not."""


class InfeasibleExponentError(ValueError):
    """Exponent-formula hypotheses are violated (named in the message)."""


class StabilizationError(RuntimeError):
    """An exterior estimate meets no stabilization rule before r_max."""
