"""Exception types shared across the package, and the array route of
the functions that take a scalar or an array."""


class PLapError(Exception):
    """Base class for all package errors."""


class DomainError(PLapError, ValueError):
    """An argument is outside the mathematical domain of the operation."""


class PoleError(DomainError):
    """Evaluation requested too close to a pole of the generalized tangent."""

    def __init__(self, message: str, nearest_pole: float):
        super().__init__(message)
        self.nearest_pole = nearest_pole


class PotentialParseError(PLapError, ValueError):
    """A potential-spec document violates the schema.

    ``location`` is a human-readable pointer into the document
    (field name or knot index).
    """

    def __init__(self, message: str, location: str = "document"):
        super().__init__(f"{location}: {message}")
        self.location = location


class StateError(PLapError, RuntimeError):
    """An object is missing state required by the operation."""


class IntegrationError(PLapError, RuntimeError):
    """Adaptive integration failed; ``last_x`` is the last good abscissa."""

    def __init__(self, message: str, last_x: float):
        super().__init__(message)
        self.last_x = last_x


class SearchError(PLapError, RuntimeError):
    """Eigenvalue search failed; carries diagnostic details."""

    def __init__(self, message: str, details: dict | None = None):
        super().__init__(message)
        self.details = dict(details or {})


# what a failed solve raises; a harness notes it, and a spectrum names
# its index
SOLVE_FAILED = (SearchError, IntegrationError)


def is_array(x) -> bool:
    """An array or a list, not a scalar; decided without numpy."""
    return isinstance(x, (list, tuple)) or bool(getattr(x, "ndim", 0))


def map_array(f, x, width: int) -> tuple:
    """``f``, which returns ``width`` floats, on each element of the
    array-like ``x``: one ndarray of x's shape per value."""
    import numpy as np

    arr = np.asarray(x, dtype=float)
    out = np.array([f(v) for v in arr.ravel().tolist()], dtype=float).reshape(-1, width)
    return tuple(col.reshape(arr.shape) for col in out.T)
