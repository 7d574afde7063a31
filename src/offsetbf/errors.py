"""Exceptions shared across the design and loading modules."""


class DegenerateChannelsError(ValueError):
    """Raised when channel estimates are too close to collinear for the
    requested operation (rank-deficient ZF, singular coupling matrix)."""


class ConvergenceError(RuntimeError):
    """Raised when a fixed-point or eigen solver does not converge.

    The last iterate is attached as ``last_iterate`` so callers can inspect
    or warm-start from it.
    """

    def __init__(self, message, last_iterate=None):
        super().__init__(message)
        self.last_iterate = last_iterate


class InfeasibleLoadingError(RuntimeError):
    """Raised when a power loading has negative power entries, i.e. no
    nonnegative loading meets the offset constraints.

    Rescheduling one or more users is the documented remedy. The offending
    power vector is attached as ``powers``.
    """

    def __init__(self, message, powers=None):
        super().__init__(message)
        self.powers = powers
