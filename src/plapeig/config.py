"""The range-checked settings of the integrator, the eigenvalue search and
the harnesses, and the ones each harness reads.  No layer is imported
here, so the CLI takes its defaults and flag types without the solver."""

import math
from dataclasses import dataclass

from .errors import DomainError


def check_range(cfg, low, *names: str, strict: bool = False) -> None:
    """Raise DomainError naming the first field of ``cfg`` in ``names``
    that is not finite and at least ``low`` (above it, if ``strict``)."""
    for name in names:
        value = getattr(cfg, name)
        if not (low < value if strict else low <= value) or value == math.inf:
            rule = f"> {low}" if strict else f">= {low}"
            raise DomainError(f"{name} must be finite and {rule}, got {value}")


@dataclass(frozen=True)
class SolverConfig:
    """Local error control for the adaptive integrator, and the
    eigenvalue search's residual gate.

    ``phase_tol`` is the accepted residual |phi(ell) - n*pi_p| in phase
    units.  The secant search aims at min(1e-10, phase_tol/10), so the
    root does not depend on ``phase_tol`` at or above the default; a
    root that misses it at ``rel_tol`` and ``abs_tol`` is a
    ``SearchError``.

    ``rel_tol``, ``abs_tol`` and ``phase_tol`` must be positive and
    finite, and ``max_steps`` at least 10; any other value is a
    ``DomainError`` naming the field.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_steps: int = 200_000
    phase_tol: float = 1e-9

    def __post_init__(self):
        check_range(self, 0, "rel_tol", "abs_tol", strict=True)
        check_range(self, 10, "max_steps")
        check_range(self, 0, "phase_tol", strict=True)


@dataclass(frozen=True)
class HarnessConfig(SolverConfig):
    """The solver settings, and the scan resolution and slack of the
    verification harnesses; ``vars(cfg)`` holds every setting.

    ``slack_rel`` and ``slack_abs`` must be positive and finite,
    ``rho_points`` and ``ell_points`` at least 1, and ``rho_span``
    finite and at least 1; any other value is a ``DomainError`` naming
    the field.  The solver's fields are checked first.
    """

    slack_rel: float = 1e-8   # ratio inequalities
    slack_abs: float = 1e-10  # sensitivity sign
    rho_points: int = 32
    rho_span: float = 4.0     # grid reaches rho_span * threshold
    ell_points: int = 24

    def __post_init__(self):
        super().__post_init__()
        check_range(self, 0, "slack_rel", "slack_abs", strict=True)
        check_range(self, 1, "rho_points", "ell_points", "rho_span")


# the settings each harness reads and its certificate records, besides p
# and the potential: T1 scans rho, the others an index range, T3 also ell
_TOLERANCE = ("rel_tol", "abs_tol", "max_steps")
_RATIO = _TOLERANCE + ("phase_tol", "n_max", "slack_rel")
READS = {"T1": _TOLERANCE + ("rho_points", "rho_span", "slack_abs"),
         "T2": _RATIO, "R1": _RATIO, "T3": _RATIO + ("ell_points",)}
