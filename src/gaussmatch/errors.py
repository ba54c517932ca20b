"""Exception types shared across the package."""


class GaussMatchError(Exception):
    """Base class for every error this package raises deliberately."""


class InvalidInputError(GaussMatchError, ValueError):
    """An argument violates an operation's contract (shape, finiteness, range)."""


class SingularMatrixError(GaussMatchError):
    """A matrix that must be positive definite has an eigenvalue at or below the floor.

    Carries the offending smallest eigenvalue and the floor it was judged
    against (``linalg.eigenvalue_floor``) when they are known.
    """

    def __init__(self, message, smallest_eigenvalue=None, floor=None):
        super().__init__(message)
        self.smallest_eigenvalue = smallest_eigenvalue
        self.floor = floor


class InsufficientDataError(GaussMatchError, ValueError):
    """A dataset has too few points for the requested statistic."""


class ParseError(GaussMatchError, ValueError):
    """Malformed text or image input; ``line`` is 1-based when applicable."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class OracleConvergenceError(GaussMatchError, RuntimeError):
    """The numerical minimizer did not converge; carries the best value seen."""

    def __init__(self, message, best_value=None):
        super().__init__(message)
        self.best_value = best_value
