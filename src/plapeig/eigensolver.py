"""Dirichlet eigenvalues by phase shooting, and a direct shot for the tests.

Because the amplitude R stays positive, y(ell) = 0 exactly when the
phase satisfies phi(ell, rho) = n * pi_p; the n-th eigenvalue is the
unique lambda = rho^p at which that level is crossed.  Candidate
intervals come from the constant-comparison bound

    (n*pi_p/ell)^p + min q  <=  lambda_n  <=  (n*pi_p/ell)^p + max q,

and one routine runs a secant iteration on the phase miss
phi(ell) - n*pi_p in rho, from the first-order guess
(n*pi_p/ell)^p + mean q, safeguarded by that interval: a step that
leaves the part of it known to hold the root becomes a bisection, and an
end that fails to bracket the root is widened.  It runs once: a root
whose miss exceeds the residual gate is a ``SearchError``.  The substitution
rho = lambda^(1/p) needs lambda > 0, so when the lower bound is not
positive the search runs on the shifted potential q + c with
c = -min q and reports lambda_n(q) = lambda_n(q + c) - c; the shift
identity is exact, and the shifted bracket starts at (n*pi_p/ell)^p > 0.

The direct shooter, ``direct_shoot``, is the tests' oracle for the phase
route, and no production path calls it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, SearchError, check_range
from .potentials import Potential
from .prufer import ToleranceConfig, integrate_phase
from .ptrig import PContext

# secant or bisection steps one search takes at most before it returns
# the best evaluated rho; it converges far earlier
_MAX_STEPS = 100

_SHOT_RTOL, _SHOT_ATOL = 1e-10, 1e-12


@dataclass(frozen=True)
class SolverConfig:
    """Eigenvalue search configuration.

    ``phase_tol`` is the accepted residual |phi(ell) - n*pi_p| in phase
    units.  The secant search aims at min(1e-10, phase_tol/10), so the
    root does not depend on ``phase_tol`` at or above the default; a
    root that misses it at ``tolerance`` is a ``SearchError``.
    ``phase_tol`` must be positive and finite; any other value is a
    ``DomainError`` naming it.
    """

    phase_tol: float = 1e-9
    tolerance: ToleranceConfig = field(default_factory=ToleranceConfig)

    def __post_init__(self):
        check_range(self, 0, "phase_tol", strict=True)


@dataclass(frozen=True)
class Eigenpair:
    """One validated eigenvalue: lambda = rho^p - shift, residual in
    phase units, zero_count interior zeros of the eigenfunction, and the
    final lambda-bracket as an honesty interval.

    ``zero_count`` is n - 1, fixed by the accepted residual: the phase
    crosses the multiples of pi_p only upward, so phi(ell) = n*pi_p
    within ``phase_tol`` leaves n - 1 interior crossings.

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

    One routine, :func:`_solve`, runs a safeguarded secant in rho from
    the first-order guess lambda_0 = (n*pi_p/ell)^p + mean q, with the
    slope d phi/d rho = ell of q = 0; phi(ell, .) crosses each level
    n*pi_p exactly once upward, so the root is unique, and the
    comparison bracket safeguards the search.  It runs once, every
    integration at ``cfg.tolerance``; a root that misses ``phase_tol``
    raises :class:`SearchError` with its rho and phi(ell).  The returned
    bracket is built from every evaluation; when none lies just across
    the root, one more is taken there.  Every real lambda_n is reached:
    when the comparison lower bound is not positive, the search runs on
    q - min q and the shift is taken off again (``Eigenpair.shift``).
    The residual is the only acceptance test; it fixes ``zero_count`` at
    n - 1.
    """
    p = ctx.p
    target = n * ctx.pi_p
    lo, hi = bracket_eigenvalue(ctx, q, n, ell)
    shift = 0.0 if lo > 0.0 else -q.min_max()[0]
    if shift:
        q = q.shifted(shift)
        lo, hi = lo + shift, hi + shift
    width = max(hi - lo, 1e-9 * (1.0 + abs(hi)))
    lam0 = min(max((n * ctx.pi_p / ell) ** p + _mean(q, ell), lo), hi)
    lo = max(lo - 1e-12 * (1.0 + abs(lo)), 0.5 * lo)
    hi = hi + 1e-12 * (1.0 + abs(hi))
    stop = min(1e-10, 0.1 * cfg.phase_tol)

    # terminal phase of every integration, by rho
    phis: dict[float, float] = {}

    def h(rho: float) -> float:
        if rho not in phis:
            phis[rho] = integrate_phase(ctx, q, rho, ell,
                                        cfg.tolerance).phi_end
        return phis[rho] - target

    rho_n, slope = _solve(h, p, lo, hi, width, n, lam0 ** (1.0 / p), ell,
                          stop)
    residual = abs(phis[rho_n] - target)
    if residual > cfg.phase_tol:
        raise SearchError(
            f"root for n={n} misses the phase target by {residual:g} "
            f"(phase_tol {cfg.phase_tol:g})",
            details={"rho": rho_n, "phi_end": phis[rho_n]})

    # honesty bracket: an evaluation across the root within four
    # corrections of it, or one more, stepping out until it lands there
    side = 1.0 if h(rho_n) < 0.0 else -1.0
    step = max(2.0 * residual / slope if slope > 0.0 else 0.0,
               1e-12 * rho_n)
    if residual and not any(
            side * (phi - target) > 0.0 and abs(r - rho_n) <= 2.0 * step
            for r, phi in phis.items()):
        for _ in range(60):
            if side * h(rho_n + side * step) > 0.0:
                break
            step *= 2.0
        else:
            raise SearchError(f"no evaluation across the root for n={n}",
                              details={"rho": rho_n, "residual": residual})

    # both sides now hold an evaluation; an exact hit belongs to both
    lam = rho_n ** p
    neg = [r ** p for r, phi in phis.items() if phi <= target]
    pos = [r ** p for r, phi in phis.items() if phi >= target]
    bracket = (min(max(neg), lam) - shift, max(min(pos), lam) - shift)
    return Eigenpair(n=n, lam=lam - shift, rho=rho_n,
                     phi_end=phis[rho_n], residual=residual,
                     zero_count=n - 1, bracket=bracket, shift=shift)


def _mean(q: Potential, ell: float) -> float:
    """Mean of q on [0, ell], exact by the trapezoid rule on its knots."""
    xs = [x for x in q.xs if x < ell] + [ell]
    qs = [q.value(x) for x in xs]
    return sum((b - a) * (qa + qb) for a, b, qa, qb
               in zip(xs, xs[1:], qs, qs[1:])) / (2.0 * ell)


def _solve(h, p: float, lo: float, hi: float, width: float, n: int,
           rho: float, slope: float, stop: float) -> tuple[float, float]:
    """Root in rho of the phase miss h, by a safeguarded secant from rho.

    The root lies between the largest rho whose miss is negative and the
    smallest whose miss is positive; until one of those is seen, the end
    of the lambda interval [lo, hi] stands in for it.  A step that
    leaves this bracket, or follows two evaluations that each failed to
    halve the miss, bisects it instead.  A bracket end not yet evaluated
    is evaluated first, widened by width*2^k while it fails to bracket
    the root (the lower end at most halving, so it stays positive).
    Stops at |miss| <= stop, or returns the evaluated rho of least miss
    once the bracket has collapsed.  Returns (rho, last slope).
    """
    ends = [lo, hi]
    bracket = [lo ** (1.0 / p), hi ** (1.0 / p)]
    seen = [False, False]  # whether each bracket end has been evaluated
    best = (math.inf, rho)
    f_prev = math.inf
    stalls = 0

    def visit(r: float) -> float:
        nonlocal best
        f = h(r)
        if f < 0.0:
            bracket[0], seen[0] = r, True
        elif f > 0.0:
            bracket[1], seen[1] = r, True
        best = min(best, (abs(f), r))
        return f

    def widen(i: int) -> tuple[float, float]:
        # evaluate end i (0 lower, 1 upper); widen it while its miss has
        # the wrong sign, so the root lies beyond it
        r = bracket[i]
        f = visit(r)
        k = 0
        while (f < 0.0) if i else (f > 0.0):
            k += 1
            if k > 60:
                raise SearchError(
                    f"no sign change while expanding "
                    f"{'upper' if i else 'lower'} bracket for n={n}",
                    details={"miss": f})
            if i:
                ends[1] += width * 2.0 ** k
            else:
                ends[0] = max(ends[0] - width * 2.0 ** k, 0.5 * ends[0])
            r = bracket[i] = ends[i] ** (1.0 / p)
            f = visit(r)
        seen[i] = True
        return r, f

    f = visit(rho)
    for _ in range(_MAX_STEPS):
        if abs(f) <= stop:
            return rho, slope
        a, b = bracket
        if seen[0] and seen[1] and b - a <= 1e-13 * (1.0 + b):
            break
        stalls = stalls + 1 if abs(f) > 0.5 * f_prev else 0
        nxt = rho - f / slope if slope > 0.0 and stalls < 2 else math.nan
        if not a < nxt < b:
            i = 1 if f < 0.0 else 0  # the side the root lies on
            if not seen[i]:
                r, fr = widen(i)
                slope = (fr - f) / (r - rho)
                rho, f = r, fr
                f_prev, stalls = math.inf, 0
                continue
            nxt = 0.5 * (a + b)
        fn = visit(nxt)
        slope = (fn - f) / (nxt - rho)
        f_prev = abs(f)
        rho, f = nxt, fn
    return best[1], slope


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
