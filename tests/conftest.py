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
