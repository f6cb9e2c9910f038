"""Exception types shared across the package, and the config range checks."""

import math


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


def check_range(cfg, low, *names: str, strict: bool = False) -> None:
    """Raise DomainError naming the first field of ``cfg`` in ``names``
    that is not finite and at least ``low`` (above it, if ``strict``)."""
    for name in names:
        value = getattr(cfg, name)
        if not (low < value if strict else low <= value) or value == math.inf:
            rule = f"> {low}" if strict else f">= {low}"
            raise DomainError(f"{name} must be finite and {rule}, got {value}")
