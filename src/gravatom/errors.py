"""Exception types shared across the library: one for each outcome a caller can act on."""


class GravatomError(Exception):
    """Base class for all library errors."""


class DomainError(GravatomError, ValueError):
    """A refused input, command-line arguments included: the command line exits 2 on it."""


class RegimeError(DomainError):
    """Inputs leave the weak-field regime where the first-order expansion holds."""


class ConvergenceError(GravatomError, RuntimeError):
    """A quadrature did not reach the requested accuracy.

    Carries the best estimate obtained and its error bound.
    """

    def __init__(self, message, best_estimate=None, error_bound=None):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.error_bound = error_bound
