"""Phase, amplitude and spectral-sensitivity integration.

With rho = lambda^(1/p) the substitution

    y(x) = R(x) * S_p(phi(x)),      y'(x) = rho * R(x) * S_p'(phi(x)),

turns the eigenvalue equation into the decoupled system

    phi'(x)        = rho - q(x)/rho^(p-1) * |S_p(phi)|^p,      phi(0) = 0,
    (log R)'(x)    = q(x)/rho^(p-1) * S_p(phi)^(p-1) * S_p'(phi),

where f^(p-1) = |f|^(p-2) f.  Differentiating the phase equation in rho
gives the sensitivity u = d(phi)/d(rho):

    u' = a(x) u + b(x),   u(0) = 0,
    a  = -p * q/rho^(p-1) * S_p(phi)^(p-1) * S_p'(phi),
    b  = 1 + (p-1) * q/rho^p * |S_p(phi)|^p,

from which the rho-derivative of the scaled phase theta = phi/rho at
the right endpoint is (rho*u - phi)/rho^2.

The integrator is an adaptive explicit Dormand-Prince 4(5) pair with PI
step-size control.  The right-hand sides are smooth wherever q is, so
stiffness is not a concern; interior knots of piecewise-linear
potentials are forced to be step boundaries because the right-hand side
is only C0 there.  The phase is never reduced modulo the period during
integration; it accumulates so that the Dirichlet eigencondition
phi(ell) = n*pi_p indexes eigenvalues unambiguously.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, IntegrationError, StateError
from .potentials import Potential
from .ptrig import PContext, fast_abs_sp_pow, fast_pair, sp_pair

# rho beyond this is accepted but flagged: b(x) -> 1 and theta -> ell,
# so sensitivity output carries heavy cancellation
RHO_CONDITIONING_LIMIT = 1e8


@dataclass(frozen=True)
class ToleranceConfig:
    """Local error control for the adaptive integrator."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_steps: int = 200_000

    def __post_init__(self):
        if self.rel_tol <= 0.0 or self.abs_tol <= 0.0 or self.max_steps < 10:
            raise DomainError("tolerances must be positive and max_steps >= 10")


@dataclass(frozen=True)
class PruferTrajectory:
    """Result of one integration over [0, ell].

    ``dense_x``/``dense_phi``/``dense_logr`` (and matching derivative
    arrays) hold the controller-accepted steps for reconstruction;
    ``dense_logr`` is None when amplitude was not requested, ``u_end``
    is None when sensitivity was not requested.  Immutable once built.
    """

    ctx: PContext
    rho: float
    ell: float
    phi_end: float
    theta_end: float
    logr_end: float | None
    u_end: float | None
    dense_x: np.ndarray = field(repr=False, compare=False)
    dense_phi: np.ndarray = field(repr=False, compare=False)
    dense_dphi: np.ndarray = field(repr=False, compare=False)
    dense_logr: np.ndarray | None = field(repr=False, compare=False)
    dense_dlogr: np.ndarray | None = field(repr=False, compare=False)
    stats: dict = field(repr=False, compare=False)

    @property
    def theta_dot_end(self) -> float:
        """d(theta)/d(rho) at ell, from the co-integrated sensitivity."""
        if self.u_end is None:
            raise StateError("trajectory was integrated without sensitivity")
        return (self.rho * self.u_end - self.phi_end) / self.rho ** 2


# Dormand-Prince 4(5) pair; row 7 equals the 5th-order weights (FSAL).
_C = (0.0, 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0, 1.0, 1.0)
_A = (
    (),
    (1.0 / 5.0,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0,
     -5103.0 / 18656.0),
    (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0,
     11.0 / 84.0),
)
_E = (71.0 / 57600.0, 0.0, -71.0 / 16695.0, 71.0 / 1920.0,
      -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 6.0
# PI controller exponents for a 5th-order error estimate
_PI_ALPHA = 0.17
_PI_BETA = 0.04


def _advance_piece(f, x, y, x_end, h, tol, record, counters):
    """Adaptive DP45 over one smooth piece; mutates record/counters."""
    dim = len(y)
    k1 = f(x, y)
    counters["n_rhs"] += 1
    err_old = 1e-4
    while x < x_end:
        if counters["n_steps"] + counters["n_rejected"] >= tol.max_steps:
            raise IntegrationError(
                f"step budget {tol.max_steps} exhausted at x={x!r}", last_x=x)
        h_try = min(h, x_end - x)
        if h_try < 1e-14 * max(1.0, abs(x)):
            raise IntegrationError(
                f"step size underflow at x={x!r}", last_x=x)

        k = [k1]
        yi = y
        for i in range(1, 7):
            a = _A[i]
            yi = tuple(
                y[d] + h_try * sum(a[j] * k[j][d] for j in range(i))
                for d in range(dim))
            k.append(f(x + _C[i] * h_try, yi))
        counters["n_rhs"] += 6
        y_new = yi  # stage 7 argument: the 5th-order solution

        err = 0.0
        for d in range(dim):
            e = h_try * sum(_E[j] * k[j][d] for j in range(7))
            sc = tol.abs_tol + tol.rel_tol * max(abs(y[d]), abs(y_new[d]))
            err += (e / sc) ** 2
        err = math.sqrt(err / dim)

        if err <= 1.0:
            x_new = x + h_try
            if x_end - x_new < 1e-14 * max(1.0, abs(x_end)):
                x_new = x_end
            x, y, k1 = x_new, y_new, k[6]  # FSAL
            counters["n_steps"] += 1
            record(x, y, k1)
            fac = _MAX_FACTOR if err == 0.0 else min(
                _MAX_FACTOR,
                max(_MIN_FACTOR, _SAFETY * err ** -_PI_ALPHA * err_old ** _PI_BETA))
            err_old = max(err, 1e-4)
            if h_try >= h:  # not shortened by the piece boundary: rescale
                h = h_try * fac
        else:
            counters["n_rejected"] += 1
            h = h_try * max(0.1, min(0.9, _SAFETY * err ** -0.2))
    return x, y, h


def _integrate(ctx: PContext, q: Potential, rho: float, ell: float,
               tol: ToleranceConfig, with_logr: bool, with_u: bool,
               x_start: float = 0.0, y_start: tuple | None = None
               ) -> PruferTrajectory:
    if not (isinstance(rho, (int, float)) and math.isfinite(rho)) or rho <= 0.0:
        raise DomainError(
            f"rho must be a positive real (the substitution needs lambda > 0), got {rho!r}")
    rho = float(rho)
    ell = float(ell)
    if not 0.0 < ell <= 1.0:
        raise DomainError(f"right endpoint must lie in (0, 1], got {ell}")
    if ell > q.domain_end + 1e-12:
        raise DomainError(
            f"right endpoint {ell} exceeds potential domain [0, {q.domain_end}]")
    ell = min(ell, q.domain_end)

    stats_warnings: list[str] = []
    if rho > RHO_CONDITIONING_LIMIT:
        msg = (f"rho={rho:g} is extremely large; theta ~ ell and "
               "sensitivity output is ill-conditioned")
        warnings.warn(msg, RuntimeWarning, stacklevel=3)
        stats_warnings.append(msg)

    p = ctx.p
    inv_rho_pm1 = rho ** (1.0 - p)
    inv_rho_p = rho ** -p
    qval = q.value

    if with_u:
        def f(x, y):
            phi, _, u = y
            s, c = fast_pair(ctx, phi)
            abs_s_p = abs(s) ** p
            odd = math.copysign(abs(s) ** (p - 1.0), s) * c
            qx = qval(x)
            coef = qx * inv_rho_pm1
            return (rho - coef * abs_s_p,
                    coef * odd,
                    -p * coef * odd * u + 1.0 + (p - 1.0) * qx * inv_rho_p * abs_s_p)
        dim = 3
    elif with_logr:
        def f(x, y):
            phi, _ = y
            s, c = fast_pair(ctx, phi)
            coef = qval(x) * inv_rho_pm1
            return (rho - coef * abs(s) ** p,
                    coef * math.copysign(abs(s) ** (p - 1.0), s) * c)
        dim = 2
    else:
        def f(x, y):
            return (rho - qval(x) * inv_rho_pm1 * fast_abs_sp_pow(ctx, y[0]),)
        dim = 1

    y = y_start if y_start is not None else (0.0,) * dim
    if len(y) != dim:
        raise DomainError("initial state has wrong dimension")
    x = x_start

    k0 = f(x, y)
    xs = [x]
    phis = [y[0]]
    dphis = [k0[0]]
    logrs = [y[1]] if with_logr or with_u else None
    dlogrs = [k0[1]] if with_logr or with_u else None

    def record(xv, yv, kv):
        xs.append(xv)
        phis.append(yv[0])
        dphis.append(kv[0])
        if logrs is not None:
            logrs.append(yv[1])
            dlogrs.append(kv[1])

    counters = {"n_steps": 0, "n_rejected": 0, "n_rhs": 1}
    bounds = [x] + [b for b in q.interior_knots() if x < b < ell] + [ell]
    h = min(ell - x, 0.1 * ctx.pi_p / rho)
    for a, b in zip(bounds, bounds[1:]):
        x, y, h = _advance_piece(f, a, y, b, h, tol, record, counters)

    stats = {"n_steps": counters["n_steps"],
             "n_rejected": counters["n_rejected"],
             "n_rhs": counters["n_rhs"],
             "n_pieces": len(bounds) - 1,
             "rel_tol": tol.rel_tol, "abs_tol": tol.abs_tol,
             "warnings": tuple(stats_warnings)}
    return PruferTrajectory(
        ctx=ctx, rho=rho, ell=ell,
        phi_end=y[0], theta_end=y[0] / rho,
        logr_end=y[1] if (with_logr or with_u) else None,
        u_end=y[2] if with_u else None,
        dense_x=np.asarray(xs), dense_phi=np.asarray(phis),
        dense_dphi=np.asarray(dphis),
        dense_logr=None if logrs is None else np.asarray(logrs),
        dense_dlogr=None if dlogrs is None else np.asarray(dlogrs),
        stats=stats)


def integrate_phase(ctx: PContext, q: Potential, rho: float, ell: float,
                    tol: ToleranceConfig = ToleranceConfig()) -> PruferTrajectory:
    """Integrate the phase equation with phi(0) = 0 up to x = ell.

    For q <= 0 the phase is strictly increasing (phi' >= rho > 0).
    """
    return _integrate(ctx, q, rho, ell, tol, with_logr=False, with_u=False)


def integrate_amplitude(ctx: PContext, q: Potential, rho: float, ell: float,
                        tol: ToleranceConfig = ToleranceConfig()) -> PruferTrajectory:
    """Phase plus log-amplitude with the normalization R(0) = 1.

    Integrating log R keeps R positive by construction.
    """
    return _integrate(ctx, q, rho, ell, tol, with_logr=True, with_u=False)


def integrate_sensitivity(ctx: PContext, q: Potential, rho: float, ell: float,
                          tol: ToleranceConfig = ToleranceConfig()) -> PruferTrajectory:
    """Phase, log-amplitude and the sensitivity u = d(phi)/d(rho).

    The variational route is the primary method for theta's
    rho-derivative; finite differences in rho are noisier at large rho
    and serve only as a test oracle.
    """
    return _integrate(ctx, q, rho, ell, tol, with_logr=True, with_u=True)


def integrate_phase_from(ctx: PContext, q: Potential, rho: float,
                         x_start: float, phi_start: float, ell: float,
                         tol: ToleranceConfig = ToleranceConfig()) -> PruferTrajectory:
    """Phase integration restarted from an interior state (consistency
    checks and piecewise scans)."""
    return _integrate(ctx, q, rho, ell, tol, with_logr=False, with_u=False,
                      x_start=float(x_start), y_start=(float(phi_start),))


def _hermite(xq, xs, ys, ds):
    """Vectorized cubic Hermite evaluation on accepted-step data."""
    idx = np.clip(np.searchsorted(xs, xq, side="right") - 1, 0, len(xs) - 2)
    x0 = xs[idx]
    h = xs[idx + 1] - x0
    t = np.where(h > 0, (xq - x0) / np.where(h > 0, h, 1.0), 0.0)
    y0, y1 = ys[idx], ys[idx + 1]
    d0, d1 = ds[idx], ds[idx + 1]
    t2 = t * t
    t3 = t2 * t
    return ((2 * t3 - 3 * t2 + 1) * y0 + (t3 - 2 * t2 + t) * h * d0
            + (3 * t2 - 2 * t3) * y1 + (t3 - t2) * h * d1)


def reconstruct_eigenfunction(traj: PruferTrajectory, samples: int = 513) -> np.ndarray:
    """Sample y = R*S_p(phi) and y' = rho*R*S_p'(phi) on a uniform grid.

    Requires a trajectory with amplitude dense output.  Returns an array
    of shape (samples, 3) with columns x, y, y'.
    """
    if traj.dense_logr is None:
        raise StateError("trajectory carries no amplitude dense output; "
                         "use integrate_amplitude or integrate_sensitivity")
    if samples < 2:
        raise DomainError("need at least 2 samples")
    xq = np.linspace(0.0, traj.ell, samples)
    phi = _hermite(xq, traj.dense_x, traj.dense_phi, traj.dense_dphi)
    logr = _hermite(xq, traj.dense_x, traj.dense_logr, traj.dense_dlogr)
    r = np.exp(logr)
    s, c = sp_pair(traj.ctx, phi)
    out = np.empty((samples, 3))
    out[:, 0] = xq
    out[:, 1] = r * s
    out[:, 2] = traj.rho * r * c
    return out
