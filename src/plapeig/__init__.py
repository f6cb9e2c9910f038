"""Spectral toolkit for the one-dimensional p-Laplacian.

Computes Dirichlet eigenvalues and eigenfunctions of

    -((y')^(p-1))' = (p-1) (lambda - q(x)) y^(p-1),   y(0) = y(ell) = 0,

for p > 1 and continuous potentials q, through the phase substitution
y = R * S_p(phi) built on the generalized sine S_p, and provides
harnesses that numerically verify eigenvalue-ratio inequalities for
single-barrier and single-well potentials.
"""

import importlib

from .errors import (DomainError, IntegrationError, PLapError, PoleError,
                     PotentialParseError, SearchError, StateError)

__version__ = "0.1.0"

# the public names of each layer; the first use of any of them or of a
# layer module loads every layer at once, so a process that uses none
# compiles none, and one that uses any finds them all in sys.modules
_LAYERS = {
    "ptrig": ("PContext", "make_context", "sp", "sp_prime", "sp_pair", "tp",
              "arcsp"),
    "potentials": ("Potential", "Shape", "ShapeCertificate", "classify",
                   "restrict", "parse_potential_spec", "constant",
                   "piecewise_linear", "sampled_table", "scaled_tent"),
    "prufer": ("PruferTrajectory", "integrate_phase", "integrate_amplitude",
               "integrate_sensitivity", "reconstruct_eigenfunction"),
    "eigensolver": ("SolverConfig", "Eigenpair", "Spectrum",
                    "bracket_eigenvalue", "find_eigenvalue",
                    "compute_spectrum", "direct_shoot", "ShotResult"),
    "theorems": ("HarnessConfig", "ScanPoint", "TheoremCertificate",
                 "verify_theorem1", "verify_theorem2", "verify_theorem3",
                 "verify_remark1"),
}

__all__ = [
    "PLapError", "DomainError", "PoleError", "PotentialParseError",
    "StateError", "IntegrationError", "SearchError",
    *(name for names in _LAYERS.values() for name in names),
    "__version__",
]


def __getattr__(name: str):
    if name not in _LAYERS and name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    for layer, names in _LAYERS.items():
        module = importlib.import_module(f".{layer}", __name__)
        globals().update((n, getattr(module, n)) for n in names)
    return globals()[name]


def __dir__():
    return sorted({*globals(), *__all__, *_LAYERS})
