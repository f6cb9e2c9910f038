"""Dirichlet eigenvalues by phase shooting, with a direct-shooting oracle.

Because the amplitude R stays positive, y(ell) = 0 exactly when the
phase satisfies phi(ell, rho) = n * pi_p; the n-th eigenvalue is the
unique lambda = rho^p at which that level is crossed.  Candidate
intervals come from the constant-comparison bound

    (n*pi_p/ell)^p + min q  <=  lambda_n  <=  (n*pi_p/ell)^p + max q,

and the root is located by bracketed bisection with inverse-quadratic
acceleration that never leaves the bracket.  The substitution
rho = lambda^(1/p) needs lambda > 0, so when the lower bound is not
positive the search runs on the shifted potential q + c with
c = -min q and reports lambda_n(q) = lambda_n(q + c) - c; the shift
identity is exact, and the shifted bracket starts at (n*pi_p/ell)^p > 0.

The direct shooter integrates the untransformed equation as the first
order system (y, v) with v = (y')^(p-1), using an independent library
integrator; it is the validation oracle for the phase route and is held
to a looser tolerance because y' = |v|^(1/(p-1)) sgn(v) has unbounded
slope at the degenerate points v = 0 when p > 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from .errors import DomainError, SearchError
from .potentials import Potential
from .prufer import PruferTrajectory, ToleranceConfig, integrate_phase
from .ptrig import PContext


@dataclass(frozen=True)
class SolverConfig:
    """Eigenvalue search configuration.

    ``phase_tol`` is the accepted residual |phi(ell) - n*pi_p| in phase
    units.  ``oracle_check`` re-shoots each found eigenvalue with the
    direct integrator and validates its interior zero count.
    """

    phase_tol: float = 1e-9
    max_bisections: int = 200
    tolerance: ToleranceConfig = field(default_factory=ToleranceConfig)
    oracle_rtol: float = 1e-10
    oracle_atol: float = 1e-12
    oracle_check: bool = False

    def __post_init__(self):
        if self.phase_tol <= 0.0 or self.max_bisections < 8:
            raise DomainError("phase_tol must be positive, max_bisections >= 8")


@dataclass(frozen=True)
class Eigenpair:
    """One validated eigenvalue: lambda = rho^p - shift, residual in
    phase units, zero_count interior zeros of the eigenfunction, and the
    final lambda-bracket as an honesty interval.

    ``shift`` is the constant c the search added to the potential (0
    unless the comparison lower bound is not positive), so the
    eigenfunction is ``integrate_amplitude(ctx, q.shifted(pair.shift),
    pair.rho, ell)``.  ``bracket`` is in unshifted lambda.
    """

    n: int
    lam: float
    rho: float
    phi_end: float
    residual: float
    zero_count: int
    bracket: tuple[float, float]
    shift: float = 0.0

    @property
    def bracket_width(self) -> float:
        return self.bracket[1] - self.bracket[0]


@dataclass(frozen=True)
class Spectrum:
    """Consecutive eigenpairs 1..n_max on [0, ell]."""

    ell: float
    pairs: tuple[Eigenpair, ...]
    ctx: PContext
    potential: Potential
    config: SolverConfig

    def lambdas(self) -> np.ndarray:
        return np.array([pr.lam for pr in self.pairs])


def bracket_eigenvalue(ctx: PContext, q: Potential, n: int, ell: float
                       ) -> tuple[float, float]:
    """Comparison-based lambda interval guaranteed to contain lambda_n:
    (n*pi_p/ell)^p + min q and (n*pi_p/ell)^p + max q, of either sign."""
    if n < 1:
        raise DomainError(f"eigenvalue index must be >= 1, got {n}")
    if not 0.0 < ell <= 1.0:
        raise DomainError(f"interval length must lie in (0, 1], got {ell}")
    qmin, qmax = q.min_max()
    free = (n * ctx.pi_p / ell) ** ctx.p
    return free + qmin, free + qmax


def find_eigenvalue(ctx: PContext, q: Potential, n: int, ell: float,
                    cfg: SolverConfig = SolverConfig()) -> Eigenpair:
    """Locate lambda_n(ell) by root-finding phi(ell, rho) = n*pi_p.

    Bisection on the bracket guarantees convergence (phi(ell, .) crosses
    each level n*pi_p exactly once upward); inverse-quadratic steps only
    accelerate inside the bracket.  Every real lambda_n is reached: when
    the comparison lower bound is not positive, the search runs on
    q - min q and the shift is taken off again (``Eigenpair.shift``).
    """
    target = n * ctx.pi_p
    lo, hi = bracket_eigenvalue(ctx, q, n, ell)
    shift = 0.0 if lo > 0.0 else -q.min_max()[0]
    if shift:
        q = q.shifted(shift)
        lo, hi = lo + shift, hi + shift
    width = max(hi - lo, 1e-9 * (1.0 + abs(hi)))
    lo = max(lo - 1e-12 * (1.0 + abs(lo)), 0.5 * lo)
    hi = hi + 1e-12 * (1.0 + abs(hi))

    evals: list[tuple[float, float]] = []

    def h(rho: float) -> float:
        r = integrate_phase(ctx, q, rho, ell, cfg.tolerance).phi_end - target
        evals.append((rho, r))
        return r

    rho_lo = lo ** (1.0 / ctx.p)
    rho_hi = hi ** (1.0 / ctx.p)
    f_lo = h(rho_lo)
    f_hi = h(rho_hi) if rho_hi > rho_lo else f_lo

    grow = 0
    while f_hi < 0.0:
        grow += 1
        if grow > 60:
            raise SearchError(
                f"no sign change while expanding upper bracket for n={n}",
                details={"phi_lo": f_lo + target, "phi_hi": f_hi + target})
        hi += width * 2.0 ** grow
        rho_hi = hi ** (1.0 / ctx.p)
        f_hi = h(rho_hi)
    shrink = 0
    while f_lo > 0.0:
        shrink += 1
        lo = max(lo - width * 2.0 ** shrink, 0.5 * lo)
        rho_lo = lo ** (1.0 / ctx.p)
        f_lo = h(rho_lo)
        if shrink > 60:
            raise SearchError(
                f"no sign change while expanding lower bracket for n={n}",
                details={"phi_lo": f_lo + target, "phi_hi": f_hi + target})

    if f_lo == 0.0:
        rho_n = rho_lo
    elif f_hi == 0.0:
        rho_n = rho_hi
    else:
        rho_n = brentq(h, rho_lo, rho_hi, xtol=1e-13 * (1.0 + rho_hi),
                       rtol=4.0 * np.finfo(float).eps,
                       maxiter=cfg.max_bisections)

    traj = integrate_phase(ctx, q, rho_n, ell, cfg.tolerance)
    residual = abs(traj.phi_end - target)
    if residual > cfg.phase_tol:
        # the integrated phase is only reproducible to the integrator's
        # accumulated error, which can exceed phase_tol at the default
        # local tolerance (the right-hand side is merely C^1 in phi at
        # multiples of pi_p when p < 2); re-polish on a tighter
        # integration around the located root
        tight = ToleranceConfig(
            rel_tol=max(1e-3 * cfg.tolerance.rel_tol, 1e-14),
            abs_tol=max(1e-3 * cfg.tolerance.abs_tol, 1e-15),
            max_steps=cfg.tolerance.max_steps)

        def h_tight(rho: float) -> float:
            r = integrate_phase(ctx, q, rho, ell, tight).phi_end - target
            evals.append((rho, r))
            return r

        w = max(16.0 * residual / max(0.1, ell), 1e-12 * (1.0 + rho_n))
        for _ in range(8):
            a, b = max(rho_n - w, 0.5 * rho_n), rho_n + w
            fa, fb = h_tight(a), h_tight(b)
            if fa <= 0.0 <= fb:
                break
            w *= 4.0
        else:
            raise SearchError(
                f"could not re-bracket n={n} for the tight polish",
                details={"rho": rho_n})
        if fa == 0.0:
            rho_n = a
        elif fb == 0.0:
            rho_n = b
        else:
            rho_n = brentq(h_tight, a, b, xtol=1e-13 * (1.0 + b),
                           rtol=4.0 * np.finfo(float).eps,
                           maxiter=cfg.max_bisections)
        traj = integrate_phase(ctx, q, rho_n, ell, tight)
        residual = abs(traj.phi_end - target)
        if residual > cfg.phase_tol:
            raise SearchError(
                f"root polish for n={n} stalled at residual {residual:g} "
                f"(phase_tol {cfg.phase_tol:g})",
                details={"rho": rho_n, "phi_end": traj.phi_end})

    lam = rho_n ** ctx.p
    neg = [r ** ctx.p for r, v in evals if v < 0.0]
    pos = [r ** ctx.p for r, v in evals if v > 0.0]
    bracket = (min(max(neg) if neg else lam, lam) - shift,
               max(min(pos) if pos else lam, lam) - shift)

    zero_count = _interior_level_crossings(traj, cfg.phase_tol)
    if zero_count != n - 1:
        raise SearchError(
            f"zero count {zero_count} inconsistent with index n={n}",
            details={"rho": rho_n, "phi_end": traj.phi_end})

    if cfg.oracle_check:
        shot = direct_shoot(ctx, q, lam, ell, cfg)
        if shot.zero_count != n - 1:
            raise SearchError(
                f"direct-shooting oracle counts {shot.zero_count} zeros "
                f"for n={n}", details={"lambda": lam})

    return Eigenpair(n=n, lam=lam - shift, rho=rho_n, phi_end=traj.phi_end,
                     residual=residual, zero_count=zero_count,
                     bracket=bracket, shift=shift)


def _interior_level_crossings(traj: PruferTrajectory, phase_tol: float) -> int:
    """Number of interior zeros of y: upward crossings of k*pi_p in (0, ell).

    The phase can only cross multiples of pi_p upward (phi' = rho > 0
    there), so the count is determined by the terminal phase; a guard
    keeps the crossing at the endpoint itself (the eigencondition) from
    being counted as interior.
    """
    guard = max(1e-6, 10.0 * phase_tol)
    return max(0, int(math.floor((traj.phi_end - guard) / traj.ctx.pi_p)))


def compute_spectrum(ctx: PContext, q: Potential, n_max: int, ell: float,
                     cfg: SolverConfig = SolverConfig()) -> Spectrum:
    """Eigenpairs 1..n_max, validated for strict increase."""
    if n_max < 1:
        raise DomainError(f"n_max must be >= 1, got {n_max}")
    pairs = []
    for n in range(1, n_max + 1):
        try:
            pairs.append(find_eigenvalue(ctx, q, n, ell, cfg))
        except SearchError as exc:
            raise SearchError(f"eigenvalue search failed at index {n}: {exc}",
                              details={"n": n}) from exc
    for a, b in zip(pairs, pairs[1:]):
        if b.lam <= a.lam:
            raise SearchError(
                f"spectrum not strictly increasing at n={b.n}",
                details={"lam_prev": a.lam, "lam": b.lam})
    return Spectrum(ell=ell, pairs=tuple(pairs), ctx=ctx, potential=q,
                    config=cfg)


@dataclass(frozen=True)
class ShotResult:
    """Terminal data of one direct shot of the untransformed equation."""

    y_end: float
    zero_count: int
    yprime_end: float
    max_abs_y: float
    quality_warning: bool = False

    def __iter__(self):
        return iter((self.y_end, self.zero_count))


def direct_shoot(ctx: PContext, q: Potential, lam: float, ell: float,
                 cfg: SolverConfig = SolverConfig()) -> ShotResult:
    """Integrate the original equation from y(0)=0, y'(0)=1 to x=ell.

    First-order form: y' = |v|^(1/(p-1)) sgn(v), v' = -(p-1)(lambda - q) y^(p-1)
    with v = (y')^(p-1).  Works for any real lambda and shares no code
    with the phase route, which makes it the validation oracle behind
    ``oracle_check`` and the tests.  Interior zeros are counted from
    dense samples of y; the adaptive integrator shortens steps through
    the degenerate v = 0 points (p > 2), where local accuracy drops to
    first order, so oracle comparisons use a looser tolerance than the
    phase method.  On an integration failure the shot retries with 100x
    coarser tolerance and flags ``quality_warning``.
    """
    from scipy.integrate import solve_ivp

    if not 0.0 < ell <= 1.0:
        raise DomainError(f"interval length must lie in (0, 1], got {ell}")
    lam = float(lam)
    p = ctx.p
    exp_back = 1.0 / (p - 1.0)

    def rhs(x, yv):
        y, v = yv
        dy = math.copysign(abs(v) ** exp_back, v) if v != 0.0 else 0.0
        dv = (-(p - 1.0) * (lam - q.value(x))
              * math.copysign(abs(y) ** (p - 1.0), y)) if y != 0.0 else 0.0
        return (dy, dv)

    bounds = [0.0] + [b for b in q.interior_knots() if 0.0 < b < ell] + [ell]
    samples_per_piece = max(64, 2048 // max(1, len(bounds) - 1))

    state = (0.0, 1.0)
    warned = False
    ys_all = []
    for a, b in zip(bounds, bounds[1:]):
        rtol, atol = cfg.oracle_rtol, cfg.oracle_atol
        for attempt in range(2):
            sol = solve_ivp(rhs, (a, b), state, method="RK45",
                            rtol=rtol, atol=atol, dense_output=True)
            if sol.success:
                break
            rtol, atol = rtol * 100.0, atol * 100.0
            warned = True
        else:
            raise SearchError(f"direct shot failed on [{a}, {b}]",
                              details={"lambda": lam})
        xs = np.linspace(a, b, samples_per_piece + 1)
        ys_all.append(sol.sol(xs)[0])
        state = (float(sol.y[0, -1]), float(sol.y[1, -1]))

    y_samples = np.concatenate(ys_all)
    max_abs = float(np.max(np.abs(y_samples)))
    # strict sign alternations away from the endpoints; samples below the
    # noise floor are skipped rather than counted as crossings
    floor = 1e-11 * max(max_abs, 1e-300)
    interior = y_samples[1:-1]
    signs = np.sign(interior[np.abs(interior) > floor])
    zero_count = int(np.count_nonzero(signs[1:] != signs[:-1]))

    y_end, v_end = state
    yp_end = math.copysign(abs(v_end) ** exp_back, v_end) if v_end else 0.0
    return ShotResult(y_end=y_end, zero_count=zero_count, yprime_end=yp_end,
                      max_abs_y=max_abs, quality_warning=warned)


@dataclass(frozen=True)
class Lambda1Sign:
    """Classification of the sign of the first eigenvalue."""

    classification: str  # "positive" | "zero_within_tol" | "nonpositive"
    margin: float        # |pi_p - phi(ell)| at lambda = 0, phase units


def sign_of_lambda1(ctx: PContext, q: Potential, ell: float,
                    cfg: SolverConfig = SolverConfig()) -> Lambda1Sign:
    """Sturm-comparison test of lambda_1(ell) > 0 by one phase at lambda = 0.

    The first eigenvalue is positive exactly when the lambda = 0
    solution keeps its sign on (0, ell].  That solution is the phase of
    q + c at rho = c^(1/p), here with c = (pi_p/ell)^p; since phi crosses
    multiples of pi_p only upward, y has no zero in (0, ell] exactly when
    phi(ell) < pi_p.  |pi_p - phi(ell)| <= phase_tol marks the borderline.
    """
    rho = ctx.pi_p / ell
    phi_end = integrate_phase(ctx, q.shifted(rho ** ctx.p), rho, ell,
                              cfg.tolerance).phi_end
    gap = ctx.pi_p - phi_end
    if abs(gap) <= cfg.phase_tol:
        cls = "zero_within_tol"
    elif gap > 0.0:
        cls = "positive"
    else:
        cls = "nonpositive"
    return Lambda1Sign(classification=cls, margin=abs(gap))
