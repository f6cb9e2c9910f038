import dataclasses
import sys
from pathlib import Path

import pytest

from plapeig import eigensolver, make_context

sys.path.insert(0, str(Path(__file__).parent))  # make oracles importable

_CTX_CACHE = {}


@pytest.fixture
def ctx_for():
    """Context factory with session-wide caching (table build is cheap
    but there is no reason to repeat it per test)."""

    def get(p):
        if p not in _CTX_CACHE:
            _CTX_CACHE[p] = make_context(p)
        return _CTX_CACHE[p]

    return get


@pytest.fixture
def ctx2(ctx_for):
    return ctx_for(2.0)


@pytest.fixture
def ctx3(ctx_for):
    return ctx_for(3.0)


@pytest.fixture
def coarse_phase(monkeypatch):
    """Round the terminal phase of every integration in the eigenvalue
    search to 1e-3, so no root can meet ``phase_tol`` and the search
    must raise :class:`SearchError` (an injected fault, independent of
    the last bit of any integration)."""
    integrate = eigensolver.integrate_phase

    def rounded(*args, **kwargs):
        traj = integrate(*args, **kwargs)
        return dataclasses.replace(traj, phi_end=round(traj.phi_end, 3))

    monkeypatch.setattr(eigensolver, "integrate_phase", rounded)


@pytest.fixture
def rounded_first_pass(monkeypatch):
    """Round the terminal phase to 1e-6 for the integrations at the
    default ``rel_tol`` only, so the first pass of the search misses
    ``phase_tol`` and the tighter re-solve must rescue the root (an
    injected fault, independent of the last bit of any integration)."""
    integrate = eigensolver.integrate_phase
    default_rel_tol = eigensolver.SolverConfig().tolerance.rel_tol

    def rounded(ctx, q, rho, ell, tol):
        traj = integrate(ctx, q, rho, ell, tol)
        if tol.rel_tol != default_rel_tol:
            return traj
        return dataclasses.replace(traj, phi_end=round(traj.phi_end, 6))

    monkeypatch.setattr(eigensolver, "integrate_phase", rounded)
