"""Spectral toolkit for the one-dimensional p-Laplacian.

Computes Dirichlet eigenvalues and eigenfunctions of

    -((y')^(p-1))' = (p-1) (lambda - q(x)) y^(p-1),   y(0) = y(ell) = 0,

for p > 1 and continuous potentials q, through the phase substitution
y = R * S_p(phi) built on the generalized sine S_p, and provides
harnesses that numerically verify eigenvalue-ratio inequalities for
single-barrier and single-well potentials.
"""

from .errors import (DataError, DomainError, IntegrationError, PLapError,
                     PoleError, PotentialParseError, SearchError, StateError)
from .ptrig import (PContext, arcsp, arcsp_quadrature, make_context,
                    reduce_argument, sp, sp_pair, sp_prime, tp)
from .potentials import (Potential, Shape, ShapeCertificate, classify,
                         constant, parse_potential_spec, piecewise_linear,
                         random_nonpositive_piecewise_linear, restrict,
                         sampled_table, scaled_tent)
from .prufer import (PruferTrajectory, ToleranceConfig, integrate_amplitude,
                     integrate_phase, integrate_phase_from,
                     integrate_sensitivity, reconstruct_eigenfunction)
from .eigensolver import (Eigenpair, Lambda1Sign, ShotResult, SolverConfig,
                          Spectrum, bracket_eigenvalue, compute_spectrum,
                          direct_shoot, find_eigenvalue, sign_of_lambda1)
from .theorems import (HarnessConfig, ScanPoint, TheoremCertificate,
                       verify_remark1, verify_theorem1, verify_theorem2,
                       verify_theorem3)

__version__ = "0.1.0"

__all__ = [
    "PLapError", "DomainError", "PoleError", "PotentialParseError",
    "DataError", "StateError", "IntegrationError", "SearchError",
    "PContext", "make_context", "sp", "sp_prime", "sp_pair", "tp",
    "reduce_argument", "arcsp", "arcsp_quadrature",
    "Potential", "Shape", "ShapeCertificate", "classify", "restrict",
    "parse_potential_spec", "constant", "piecewise_linear", "sampled_table",
    "scaled_tent", "random_nonpositive_piecewise_linear",
    "ToleranceConfig", "PruferTrajectory", "integrate_phase",
    "integrate_amplitude", "integrate_sensitivity", "integrate_phase_from",
    "reconstruct_eigenfunction",
    "SolverConfig", "Eigenpair", "Spectrum", "bracket_eigenvalue",
    "find_eigenvalue", "compute_spectrum", "direct_shoot", "sign_of_lambda1",
    "ShotResult", "Lambda1Sign",
    "HarnessConfig", "ScanPoint", "TheoremCertificate", "verify_theorem1",
    "verify_theorem2", "verify_theorem3", "verify_remark1",
    "__version__",
]
