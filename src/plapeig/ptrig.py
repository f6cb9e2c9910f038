"""Generalized p-trigonometric functions S_p, S_p' and T_p.

For p > 1 the p-sine S_p is the solution of the free one-dimensional
p-Laplacian initial value problem

    -((y')^(p-1))' = (p-1) y^(p-1),    y(0) = 0,  y'(0) = 1,

with f^(p-1) = |f|^(p-2) f.  It is odd, 2*pi_p-periodic, and satisfies
|S_p|^p + |S_p'|^p = 1 everywhere, where pi_p = 2*pi / (p*sin(pi/p)) is
its first positive zero (the half period).  On the fundamental quarter
period [0, pi_p/2] the inverse function is the incomplete integral

    x(s) = integral_0^s (1 - t^p)^(-1/p) dt
         = (pi_p/2) * I(s^p; 1/p, 1 - 1/p),

with I the regularized incomplete beta function.  Every evaluation
goes through one front end: it folds the argument onto the quarter
period by periodicity, oddness and the reflection S_p(pi_p - x) =
S_p(x), and reads S_p there off a Chebyshev-spaced table, built once per
context, by cubic Hermite interpolation.  The integrator's fast path
stops there; the public functions polish that value by Newton iteration
on this relation.  Near the quarter-period endpoint, where the inverse
map is flat, the complementary integral in s' = S_p' is inverted instead
so both S_p and S_p' keep full absolute accuracy.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np
from scipy import special as _sps

from .errors import DomainError, PoleError

# Quarter-period inversion table: Chebyshev-Lobatto nodes in x.
TABLE_INTERVALS = 2048
# Newton polish iterations on top of the table / betaincinv seed.
_NEWTON_ITERS = 2
# tp() refuses evaluation closer than this to an odd multiple of pi_p/2.
POLE_GUARD = 1e-8
# Below x^p = eps, S_p(x) = x * (1 - x^p/(p*(p+1)) + ...) rounds to x.
_IDENTITY_BELOW = float(np.finfo(float).eps)


@dataclass(frozen=True)
class PContext:
    """Immutable evaluation context for one exponent p.

    Holds the derived constants and the quarter-period inversion table;
    every operation taking a context is pure and thread-safe.
    """

    p: float
    pi_p: float
    p_conj: float
    # the table: nodes x and S_p(x), S_p'(x) there, as plain floats so
    # the scalar front end runs on C-level bisect and arithmetic
    _xs: tuple = field(repr=False, compare=False)
    _ss: tuple = field(repr=False, compare=False)
    _cs: tuple = field(repr=False, compare=False)
    # max inverse-map residual observed at off-node probe points, /pi_p
    probe_residual: float = field(default=0.0, compare=False)

    @property
    def quarter(self) -> float:
        return 0.5 * self.pi_p


def make_context(p: float) -> PContext:
    """Build a :class:`PContext` for exponent ``p`` (requires p > 1)."""
    try:
        p = float(p)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"exponent must be a real number, got {p!r}") from exc
    if not math.isfinite(p) or p <= 1.0:
        raise DomainError(f"exponent must satisfy p > 1, got {p!r}")

    pi_p = 2.0 * math.pi / (p * math.sin(math.pi / p))
    qtr = 0.5 * pi_p
    a, b = 1.0 / p, 1.0 - 1.0 / p

    n = TABLE_INTERVALS
    i = np.arange(n + 1)
    x = qtr * 0.5 * (1.0 - np.cos(np.pi * i / n))  # Chebyshev-Lobatto in x
    y = x / qtr
    # Invert from whichever end of the beta integral is well conditioned.
    lo = y <= 0.5
    s = np.empty_like(y)
    c = np.empty_like(y)
    z_lo = _sps.betaincinv(a, b, y[lo])
    s[lo] = z_lo ** (1.0 / p)
    c[lo] = (1.0 - z_lo) ** (1.0 / p)
    z_hi = _sps.betaincinv(b, a, 1.0 - y[~lo])
    s[~lo] = (1.0 - z_hi) ** (1.0 / p)
    c[~lo] = z_hi ** (1.0 / p)
    s[0], c[0] = 0.0, 1.0
    s[-1], c[-1] = 1.0, 0.0

    ctx = PContext(p=p, pi_p=pi_p, p_conj=p / (p - 1.0),
                   _xs=tuple(x.tolist()), _ss=tuple(s.tolist()),
                   _cs=tuple(c.tolist()))

    # Accuracy probe at off-node points; large p degrades gracefully and
    # the context reports by how much.  Each point is judged by the
    # better-conditioned of the direct and complementary inverse maps.
    xp = qtr * (np.arange(1, 64) / 64.0 + 0.5 / TABLE_INTERVALS)
    xp = xp[xp < qtr]
    sv, cv = _pair(ctx, xp)
    r_direct = np.abs(arcsp(ctx, sv) - xp)
    r_compl = np.abs(qtr * _sps.betainc(b, a, cv ** p) - (qtr - xp))
    resid = float(np.max(np.minimum(r_direct, r_compl))) / pi_p
    object.__setattr__(ctx, "probe_residual", resid)
    return ctx


def arcsp(ctx: PContext, s) -> np.ndarray | float:
    """Inverse p-sine on [0, 1]: the incomplete integral x(s).

    Computed through the regularized incomplete beta function; this is
    the map that Newton iteration inverts during evaluation.
    """
    a = 1.0 / ctx.p
    z = np.abs(np.asarray(s, dtype=float)) ** ctx.p
    out = ctx.quarter * _sps.betainc(a, 1.0 - a, z)
    return float(out) if np.ndim(s) == 0 else out


def _quarter_pair(ctx: PContext, xr: np.ndarray,
                  seed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(S_p, S_p') on the fundamental quarter period, vectorized.

    Below the midpoint, Newton inverts x(s) from ``seed``, the table's
    S_p(xr); above it the complementary integral in the derivative
    variable is inverted so accuracy does not collapse where the direct
    map flattens.  Where xr^p < eps, S_p(xr) is xr to rounding and Newton
    could only spoil it: betainc's relative error grows with -log(s^p),
    and once s^p underflows the residual reads -xr.
    """
    p = ctx.p
    qtr = ctx.quarter
    a = 1.0 / p
    b = 1.0 - a
    s = np.empty_like(xr)
    c = np.empty_like(xr)

    lo = xr <= 0.5 * qtr
    if np.any(lo):
        x_lo = xr[lo]
        sv = seed[lo]
        for _ in range(_NEWTON_ITERS):
            # F(s) - x = 0, F'(s) = (1 - s^p)^(-1/p)
            resid = qtr * _sps.betainc(a, b, sv ** p) - x_lo
            sv = np.clip(sv - resid * (1.0 - sv ** p) ** (1.0 / p), 0.0, 1.0)
        sv = np.where(x_lo ** p < _IDENTITY_BELOW, x_lo, sv)
        s[lo] = sv
        c[lo] = (1.0 - sv ** p) ** (1.0 / p)

    hi = ~lo
    if np.any(hi):
        delta = qtr - xr[hi]
        zc = _sps.betaincinv(b, a, delta / qtr)
        cv = zc ** (1.0 / p)
        # one guarded Newton step on the complementary integral H(c) = delta
        resid = qtr * _sps.betainc(b, a, cv ** p) - delta
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = resid * cv ** (2.0 - p) * (1.0 - cv ** p) ** ((p - 1.0) / p)
        ok = np.isfinite(step) & (np.abs(step) <= 0.25 * cv + 1e-300)
        cv = np.where(ok, np.clip(cv - step, 0.0, 1.0), cv)
        c[hi] = cv
        s[hi] = (1.0 - cv ** p) ** (1.0 / p)

    return s, c


def _quarter(ctx: PContext, x: float) -> tuple[float, float, float, float]:
    """Fold a finite scalar onto the quarter period; the one front end.

    Returns ``(xr, s, sign_s, sign_c)`` with ``xr`` in [0, pi_p/2],
    ``s`` the cubic Hermite interpolant of S_p(xr) on the table, and
    S_p(x) = sign_s * S_p(xr), S_p'(x) = sign_c * S_p'(xr).  Each
    quadrant is decided on an exact difference (r - pi_p for r in
    (pi_p, 2*pi_p], pi_p - r for r in (pi_p/2, pi_p]), so ``xr`` never
    leaves the quarter period and a boundary belongs to the lower
    quadrant.  Fold and lookup share one frame: this runs once per
    integrator right-hand side.
    """
    pi_p = ctx.pi_p
    two_pi = 2.0 * pi_p
    r = x - two_pi * math.floor(x / two_pi)
    if not 0.0 <= r < two_pi:
        # rounding put the floor one period off, or more once the
        # spacing of floats near x exceeds the period
        r %= two_pi
    if r > pi_p:
        r -= pi_p
        sign_s = -1.0
    else:
        sign_s = 1.0
    if r > 0.5 * pi_p:
        xr = pi_p - r
        sign_c = -sign_s
    else:
        xr = r
        sign_c = sign_s

    xs = ctx._xs
    i = bisect_right(xs, xr) - 1
    if i >= TABLE_INTERVALS:
        i = TABLE_INTERVALS - 1
    x0 = xs[i]
    h = xs[i + 1] - x0
    t = (xr - x0) / h
    s0 = ctx._ss[i]
    s1 = ctx._ss[i + 1]
    d0 = ctx._cs[i]  # ds/dx = S_p'
    d1 = ctx._cs[i + 1]
    t2 = t * t
    t3 = t2 * t
    s = ((2.0 * t3 - 3.0 * t2 + 1.0) * s0 + (t3 - 2.0 * t2 + t) * h * d0
         + (3.0 * t2 - 2.0 * t3) * s1 + (t3 - t2) * h * d1)
    if s > 1.0:
        s = 1.0
    elif s < 0.0:
        s = 0.0
    return xr, s, sign_s, sign_c


def _pair(ctx: PContext, x) -> tuple:
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError("argument must be finite")
    flat = arr.ravel()
    # fold |x| and apply oddness, so S_p(-x) = -S_p(x) exactly and a tiny
    # negative x is not rounded onto the period 2*pi_p; reshape so that an
    # empty argument still unpacks into four rows
    xr, seed, sign_s, sign_c = np.array(
        [_quarter(ctx, abs(v)) for v in flat.tolist()]).reshape(-1, 4).T
    s, c = _quarter_pair(ctx, xr, seed)
    s = (np.copysign(1.0, flat) * sign_s * s).reshape(arr.shape)
    c = (sign_c * c).reshape(arr.shape)
    if arr.ndim == 0:
        return float(s), float(c)
    return s, c


def sp(ctx: PContext, x):
    """Generalized sine S_p(x); odd, 2*pi_p-periodic, |S_p| <= 1.

    Accepts a scalar or an ndarray.
    """
    return _pair(ctx, x)[0]


def sp_prime(ctx: PContext, x):
    """Derivative S_p'(x); |S_p'| <= 1 with the quadrant's sign."""
    return _pair(ctx, x)[1]


def sp_pair(ctx: PContext, x):
    """(S_p(x), S_p'(x)) in one evaluation."""
    return _pair(ctx, x)


def tp(ctx: PContext, x: float) -> float:
    """Generalized tangent T_p = S_p / S_p'.

    Raises :class:`PoleError` within ``POLE_GUARD`` of an odd multiple
    of pi_p/2, carrying the nearest pole location.
    """
    x = float(x)
    if not math.isfinite(x):
        raise DomainError("argument must be finite")
    xr, _, sign_s, sign_c = _quarter(ctx, x)
    gap = ctx.quarter - xr
    if gap < POLE_GUARD:
        pole = x + sign_s * sign_c * gap
        raise PoleError(
            f"tangent pole within {POLE_GUARD:g} of x={x!r} "
            f"(nearest pole {pole!r})", nearest_pole=pole)
    s, c = _pair(ctx, x)
    return s / c


def fast_pair(ctx: PContext, x: float) -> tuple[float, float]:
    """Table-only (S_p, S_p') for integrator right-hand sides.

    Cubic Hermite interpolation on the quarter-period table, no Newton
    polish.  Absolute error is ~1e-11 over most of the period but grows
    near the zeros of S_p', where S_p' = (1 - S_p^p)^(1/p) amplifies the
    error in S_p.  Measured error in S_p' at pi_p/2 - 1e-6: 1.3e-6,
    2.4e-5 and 4.1e-5 for p = 3, 5 and 10; at pi_p/2 - 1e-9: 2.8e-5,
    4.6e-3 and 5.1e-2.  Integrated phase error stays well below solver
    tolerances.  Scalar arguments only.
    """
    _, s, ss, sc = _quarter(ctx, x)
    c = (1.0 - s ** ctx.p) ** (1.0 / ctx.p)
    return ss * s, sc * c


def fast_abs_sp_pow(ctx: PContext, x: float) -> float:
    """|S_p(x)|^p by the table fast path (phase equation right-hand side)."""
    return _quarter(ctx, x)[1] ** ctx.p
