"""Exception types shared across the library."""


class GravatomError(Exception):
    """Base class for all library errors."""


class DomainError(GravatomError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class RegimeError(GravatomError, ValueError):
    """Inputs leave the weak-field regime where the first-order expansion holds."""


class DegenerateError(GravatomError, ValueError):
    """The dissipative generator is degenerate (no dissipation at all)."""


class ConvergenceError(GravatomError, RuntimeError):
    """A quadrature did not reach the requested accuracy.

    Carries the best estimate obtained and its error bound.
    """

    def __init__(self, message, best_estimate=None, error_bound=None):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.error_bound = error_bound


class DivergenceError(ConvergenceError):
    """Oscillatory-tail contributions failed to decay."""
