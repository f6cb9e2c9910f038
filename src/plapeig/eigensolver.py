"""Dirichlet eigenvalues by phase shooting, and a direct shot for the tests.

Because the amplitude R stays positive, y(ell) = 0 exactly when the
phase satisfies phi(ell, rho) = n * pi_p; the n-th eigenvalue is the
unique lambda = rho^p at which that level is crossed.  Candidate
intervals come from the constant-comparison bound

    (n*pi_p/ell)^p + min q  <=  lambda_n  <=  (n*pi_p/ell)^p + max q,

and ``find_eigenvalue`` runs a secant iteration on the phase miss
phi(ell) - n*pi_p in rho, from the first-order guess
(n*pi_p/ell)^p + mean q, safeguarded by that interval.  The terminal
phase of each integration, kept by rho, is the search's one record: the
part of the interval known to hold the root is read off it, the padded
interval's end standing in for a side not yet seen, and a step that
leaves that part becomes a bisection.  The padded interval is the only
bracket: its ends are never integrated by themselves and never moved.
It runs once: a root whose miss exceeds the residual gate, one outside
the interval included, is a ``SearchError``.

The search runs on the shifted potential q + c and reports
lambda_n(q) = lambda_n(q + c) - c; the shift identity is exact.  It
takes c = -mean q, so only q - mean q multiplies the rough term
Q = (q + c)*rho^(1-p) of the phase equation: a constant potential is
searched as q = 0, whose first guess is the root, and elsewhere |Q|
shrinks, and with it the cost of each integration.  With one scale per
search this is the scaled Prufer transformation of Sturm-Liouville
codes (Pryce 1993; Bailey, Everitt and Zettl, SLEIGN2, 2001).  The
substitution rho = lambda^(1/p) needs lambda + c > 0, so where the
shifted lower bound (n*pi_p/ell)^p + min q - mean q is not positive it
takes c = -min q instead, whose bracket starts at (n*pi_p/ell)^p > 0.

The direct shooter, ``direct_shoot``, is the tests' oracle for the phase
route, and no production path calls it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .config import SolverConfig
from .errors import SOLVE_FAILED, DomainError, SearchError
from .potentials import Potential
from .prufer import integrate_phase
from .ptrig import PContext

# secant or bisection steps one search takes at most before it returns
# the best evaluated rho; it converges far earlier
_MAX_STEPS = 100

_SHOT_RTOL, _SHOT_ATOL = 1e-10, 1e-12


@dataclass(frozen=True)
class Eigenpair:
    """One validated eigenvalue: lambda = rho^p - shift, phi_end and its
    residual |phi_end - n*pi_p| in phase units at the accepted rho, and
    zero_count interior zeros of the eigenfunction.  No interval around
    lambda is kept: the residual is the search's only measure of its root.

    ``zero_count`` is n - 1, fixed by the accepted residual: the phase
    crosses the multiples of pi_p only upward, so phi(ell) = n*pi_p
    within ``phase_tol`` leaves n - 1 interior crossings.

    ``shift`` is the constant c the search added to the potential:
    -mean q on [0, ell], or -min q where that could leave lambda + c <= 0
    (see ``find_eigenvalue``), so it is nonzero on almost every pair.
    ``rho`` belongs to the shifted potential, rho^p = lambda + shift,
    and the eigenfunction is ``reconstruct_eigenfunction(ctx,
    q.shifted(pair.shift), pair.rho, ell)``.
    """

    n: int
    lam: float
    rho: float
    phi_end: float
    residual: float
    zero_count: int
    shift: float = 0.0


@dataclass(frozen=True)
class Spectrum:
    """Consecutive eigenpairs 1..n_max on [0, ell]."""

    ell: float
    pairs: tuple[Eigenpair, ...]
    ctx: PContext
    potential: Potential
    config: SolverConfig

    def lambdas(self):  # an ndarray
        import numpy as np

        return np.array([pr.lam for pr in self.pairs])


def bracket_eigenvalue(ctx: PContext, q: Potential, n: int, ell: float
                       ) -> tuple[float, float]:
    """Comparison-based lambda interval guaranteed to contain lambda_n:
    (n*pi_p/ell)^p + min q and (n*pi_p/ell)^p + max q, of either sign.
    An index that is not an integer >= 1, or bounds that overflow a
    float, are a ``DomainError``."""
    _check_index("eigenvalue index", n)
    if not 0.0 < ell <= 1.0:
        raise DomainError(f"interval length must lie in (0, 1], got {ell}")
    qmin, qmax = q.min_max()
    try:
        free = (n * ctx.pi_p / ell) ** ctx.p
    except OverflowError:
        free = math.inf
    if not math.isfinite(free + qmax):
        raise DomainError(f"comparison bound (n*pi_p/ell)^p overflows for "
                          f"n={n}, p={ctx.p:g}, ell={ell:g}")
    return free + qmin, free + qmax


def find_eigenvalue(ctx: PContext, q: Potential, n: int, ell: float,
                    cfg: SolverConfig = SolverConfig()) -> Eigenpair:
    """Locate lambda_n(ell) by root-finding phi(ell, rho) = n*pi_p.

    A safeguarded secant in rho runs from the first-order guess
    lambda_0 = (n*pi_p/ell)^p + mean q with the slope d phi/d rho = ell
    of q = 0; phi(ell, .) crosses each level n*pi_p once, upward, so the
    root is unique.  The terminal phase of each integration, kept by
    rho, is the search's only record, and each step reads the bracket
    off it: the largest rho whose miss is negative and the smallest whose
    miss is positive, the padded comparison ends standing in until each
    side is seen.  A step that leaves the bracket, or follows two
    evaluations that each failed to halve the miss, bisects it.  The
    padded ends are never integrated by themselves and never moved, so
    every integrated rho lies strictly inside the padded interval.  The
    search stops at |miss| <= min(1e-10, phase_tol/10); a search that
    ends short of it, when the bracket collapses (whichever sides have
    been seen) or ``_MAX_STEPS`` run out, takes the evaluated rho of
    least miss.  A root outside the interval, which only a faulty
    integration can put there, collapses the bracket onto a padded end
    and fails the residual gate.

    It runs once, at ``cfg``'s tolerances; a root that misses ``phase_tol``
    raises :class:`SearchError` with its rho and phi(ell).  An accepted
    root returns at once, with the residual of its rho and no interval
    around lambda_n, so no integration is spent beyond the search.
    The search runs on q - mean q (``_mean``, exact on the knots), or
    on q - min q where the shifted lower bound
    (n*pi_p/ell)^p + min q - mean q is not positive, and the shift is
    taken off again (``Eigenpair.shift``): the interval and the guess
    above are those of the shifted potential, and the returned lambda
    is unshifted.  The residual, the only acceptance test, fixes
    ``zero_count`` at n - 1.
    """
    p = ctx.p
    target = n * ctx.pi_p
    lo, hi = bracket_eigenvalue(ctx, q, n, ell)
    qbar = _mean(q, ell)
    shift = -qbar if lo > qbar else -q.min_max()[0]
    if shift:
        q = q.shifted(shift)
        lo, hi = lo + shift, hi + shift
    lam0 = min(max((n * ctx.pi_p / ell) ** p + _mean(q, ell), lo), hi)
    # the padded comparison interval in rho: the bracket's ends until
    # each side is seen
    ends = (max(lo - 1e-12 * (1.0 + abs(lo)), 0.5 * lo) ** (1.0 / p),
            (hi + 1e-12 * (1.0 + abs(hi))) ** (1.0 / p))
    stop = min(1e-10, 0.1 * cfg.phase_tol)

    # terminal phase of every integration, by rho
    phis: dict[float, float] = {}

    def h(rho: float) -> float:
        if rho not in phis:
            phis[rho] = integrate_phase(ctx, q, rho, ell, cfg).phi_end
        return phis[rho] - target

    rho, slope = lam0 ** (1.0 / p), ell
    f = h(rho)
    f_prev, stalls = math.inf, 0
    for _ in range(_MAX_STEPS):
        if abs(f) <= stop:
            break
        a = max((r for r, phi in phis.items() if phi < target),
                default=ends[0])
        b = min((r for r, phi in phis.items() if phi > target),
                default=ends[1])
        if b - a <= 1e-13 * (1.0 + b):
            break
        stalls = stalls + 1 if abs(f) > 0.5 * f_prev else 0
        nxt = rho - f / slope if slope > 0.0 and stalls < 2 else math.nan
        if not a < nxt < b:
            nxt = 0.5 * (a + b)
        fn = h(nxt)
        slope = (fn - f) / (nxt - rho)
        f_prev = abs(f)
        rho, f = nxt, fn
    if abs(f) > stop:
        rho = min(phis, key=lambda r: (abs(phis[r] - target), r))

    residual = abs(phis[rho] - target)
    if residual > cfg.phase_tol:
        raise SearchError(
            f"root for n={n} misses the phase target by {residual:g} "
            f"(phase_tol {cfg.phase_tol:g})",
            details={"rho": rho, "phi_end": phis[rho]})

    return Eigenpair(n=n, lam=rho ** p - shift, rho=rho,
                     phi_end=phis[rho], residual=residual,
                     zero_count=n - 1, shift=shift)


def _check_index(name: str, n) -> None:
    """Refuse an index that is not an integer >= 1: a float, even a whole
    one, and a bool are refused, numpy integers accepted."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise DomainError(f"{name} must be an integer, got {n!r}")
    if n < 1:
        raise DomainError(f"{name} must be >= 1, got {n}")


def _mean(q: Potential, ell: float) -> float:
    """Mean of q on [0, ell], exact by the trapezoid rule on its knots."""
    xs = [x for x in q.xs if x < ell] + [ell]
    qs = [q.value(x) for x in xs]
    return sum((b - a) * (qa + qb) for a, b, qa, qb
               in zip(xs, xs[1:], qs, qs[1:])) / (2.0 * ell)


def compute_spectrum(ctx: PContext, q: Potential, n_max: int, ell: float,
                     cfg: SolverConfig = SolverConfig()) -> Spectrum:
    """Eigenpairs 1..n_max, validated for strict increase."""
    _check_index("n_max", n_max)
    pairs = []
    for n in range(1, n_max + 1):
        try:
            pairs.append(find_eigenvalue(ctx, q, n, ell, cfg))
        except SOLVE_FAILED as exc:
            raise SearchError(f"eigenvalue search failed at index {n}: {exc}",
                              details={**getattr(exc, "details", {}), "n": n}
                              ) from exc
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


def direct_shoot(ctx: PContext, q: Potential, lam: float, ell: float
                 ) -> ShotResult:
    """Integrate the original equation from y(0)=0, y'(0)=1 to x=ell.

    First-order form: y' = |v|^(1/(p-1)) sgn(v), v' = -(p-1)(lambda - q) y^(p-1)
    with v = (y')^(p-1).  Works for any real lambda and shares no code
    with the phase route, which makes it the tests' validation oracle;
    it needs scipy (``solve_ivp``, imported on first call).  Interior
    zeros are counted from dense samples of y; the adaptive integrator
    shortens steps through the degenerate v = 0 points (p > 2), where
    local accuracy drops to first order, so oracle comparisons use a
    looser tolerance than the phase method.  A piece that ``solve_ivp``
    fails to integrate raises :class:`SearchError`.
    """
    import numpy as np
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
    ys_all = []
    for a, b in zip(bounds, bounds[1:]):
        sol = solve_ivp(rhs, (a, b), state, method="RK45",
                        rtol=_SHOT_RTOL, atol=_SHOT_ATOL,
                        dense_output=True)
        if not sol.success:
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
                      max_abs_y=max_abs)
