"""Exception types shared across the package."""


class DynscError(Exception):
    """Base class for all library errors."""


class InvalidInputError(DynscError, ValueError):
    """An argument violates a documented precondition."""


class ZeroDegreeError(InvalidInputError):
    """A normalized Laplacian was requested for a matrix with a zero row sum."""


class GenerationError(DynscError, RuntimeError):
    """A membership sequence could not be generated within the retry budget."""


class EigenSolverError(DynscError, RuntimeError):
    """The iterative eigensolver failed to converge and no dense fallback applies."""


class MemoryBudgetError(DynscError, MemoryError):
    """A dense n-by-n computation would need more memory than the machine has available."""
