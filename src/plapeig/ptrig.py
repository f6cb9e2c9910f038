"""Generalized p-trigonometric functions S_p, S_p' and T_p.

For p > 1 the p-sine S_p is the solution of the free one-dimensional
p-Laplacian initial value problem

    -((y')^(p-1))' = (p-1) y^(p-1),    y(0) = 0,  y'(0) = 1,

with f^(p-1) = |f|^(p-2) f.  It is odd, 2*pi_p-periodic, and satisfies
|S_p|^p + |S_p'|^p = 1 everywhere, where pi_p = 2*pi / (p*sin(pi/p)) is
its first positive zero (the half period).  On the fundamental quarter
period [0, pi_p/2] the inverse function is the incomplete integral

    x(s) = integral_0^s (1 - t^p)^(-1/p) dt,

which two power series with positive terms evaluate, split where
s^p = S_p'^p = 1/2.  With r_k = (1/p)_k / k! and r'_k = (1 - 1/p)_k / k!
((a)_k the rising factorial), below the split, in z = s^p,

    x(s) = s * sum_k r_k z^k / (k*p + 1),

and above it, in w = S_p'^(p-1) and zeta = S_p'^p,

    pi_p/2 - x = w * sum_k r'_k zeta^k / ((k+1)*p - 1).

Since z and zeta stay at or below 1/2 on their halves, 60 terms reach
rounding; a power sum in Python floats stops once a term no longer
moves it.  Every evaluation goes through one front end: it folds the
argument onto the quarter period by periodicity, oddness and the
reflection S_p(pi_p - x) = S_p(x), and reads S_p there off a table,
built forward from the two series once per context, by cubic Hermite
interpolation; ``make_context`` binds it to its table as ``fold``.  The
integrator's right-hand sides stop there; the public functions polish
that value by Newton iteration on the series of its half, in s below
the split and in w above it.  Both maps have a slope bounded away from
zero and infinity on their halves, so S_p and S_p' keep full absolute
accuracy up to the quarter-period endpoint.  All of it runs on Python
floats: an array argument is evaluated point by point into an ndarray,
and only then is numpy imported.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from typing import Callable

from .errors import DomainError, PoleError, is_array, map_array

# Terms of each inverse-map series; at z = 1/2 the 60th is below rounding.
SERIES_TERMS = 60
# Table intervals on each half of the quarter period, split at s^p = 1/2.
HALF_INTERVALS = 1024
TABLE_INTERVALS = 2 * HALF_INTERVALS
# Newton polish iterations on top of the table's cubic Hermite value.
_NEWTON_ITERS = 2
# tp() refuses evaluation closer than this to an odd multiple of pi_p/2.
POLE_GUARD = 1e-8


@dataclass(frozen=True)
class PContext:
    """Immutable evaluation context for one exponent p.

    Holds the derived constants, the coefficients of the two inverse-map
    series, the quarter-period table and ``fold``, the front end bound to
    that table (see :func:`_bind_fold`); every operation taking a
    context is pure and thread-safe.
    """

    p: float
    pi_p: float
    p_conj: float
    # the table: nodes x and S_p(x), S_p'(x) there; node HALF_INTERVALS
    # is the split s^p = 1/2
    _xs: tuple = field(repr=False, compare=False)
    _ss: tuple = field(repr=False, compare=False)
    _cs: tuple = field(repr=False, compare=False)
    # series coefficients r_k/(k p + 1) below the split, r'_k/((k+1) p - 1)
    # above it
    _lo: tuple = field(repr=False, compare=False)
    _hi: tuple = field(repr=False, compare=False)
    fold: Callable[[float], tuple[float, float, float, float]] = field(
        default=None, repr=False, compare=False)
    # max inverse-map residual observed at off-node probe points, /pi_p
    probe_residual: float = field(default=0.0, compare=False)

    @property
    def quarter(self) -> float:
        return 0.5 * self.pi_p

    def __reduce__(self):
        # pickle cannot carry the closure ``fold``; a context is a
        # function of p alone, so it is rebuilt from p
        return make_context, (self.p,)


def _coefficients(a: float, p: float, first: float) -> tuple:
    """(a)_k / k! / (k*p + first) for k < SERIES_TERMS."""
    r = [1.0]
    for k in range(SERIES_TERMS - 1):
        r.append(r[k] * (a + k) / (k + 1))
    return tuple(rk / (k * p + first) for k, rk in enumerate(r))


def _series(coef: tuple, z: float) -> float:
    """sum_{k>=1} coef[k] z^k, added largest term first until a term can
    no longer move the sum (the terms are positive and fall with k).
    The caller adds the k = 0 term, so the dominant term carries none of
    the tail's rounding."""
    acc = 0.0
    zk = z
    for c in coef[1:]:
        new = acc + c * zk
        if new == acc:
            break
        acc = new
        zk *= z
    return acc


def _below(ctx: PContext, s: float) -> float:
    """x(s) for s^p <= 1/2."""
    return s + s * _series(ctx._lo, s ** ctx.p)


def _above(ctx: PContext, w: float) -> float:
    """pi_p/2 - x as a function of w = S_p'^(p-1), for S_p'^p <= 1/2."""
    return w * ctx._hi[0] + w * _series(ctx._hi, w ** ctx.p_conj)


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
    ctx = PContext(p=p, pi_p=pi_p, p_conj=p / (p - 1.0),
                   _xs=(), _ss=(), _cs=(),
                   _lo=_coefficients(1.0 / p, p, 1.0),
                   _hi=_coefficients(1.0 - 1.0 / p, p, p - 1.0))

    # Nodes clustered at x = 0 and x = pi_p/2: s = s_split * u below the
    # split and w = w_split * u above it, with u = 1 - cos(pi j / 2048)
    # rising from 0 to 1 over j = 0..1024.  The split node comes from the
    # lower series.
    u = [1.0 - math.cos(0.5 * math.pi * j / HALF_INTERVALS)
         for j in range(HALF_INTERVALS + 1)]
    half = 0.5 ** (1.0 / p)  # S_p = S_p' at the split
    w_split = half ** (p - 1.0)
    s_lo = [half * uj for uj in u]
    w = [w_split * uj for uj in u[-2::-1]]  # from the split down to 0
    xs = [_below(ctx, s) for s in s_lo] + [qtr - _above(ctx, wj) for wj in w]
    ss = s_lo + [(1.0 - wj ** ctx.p_conj) ** (1.0 / p) for wj in w]
    cs = ([(1.0 - s ** p) ** (1.0 / p) for s in s_lo]
          + [wj ** (1.0 / (p - 1.0)) for wj in w])
    xs, ss, cs = tuple(xs), tuple(ss), tuple(cs)
    ctx = replace(ctx, _xs=xs, _ss=ss, _cs=cs,
                  fold=_bind_fold(pi_p, xs, ss, cs))

    # Accuracy probe at off-node points: each point is judged by the
    # series of its half, the map its Newton polish inverts.
    resid = 0.0
    for j in range(1, 64):
        x = qtr * (j / 64.0 + 0.5 / TABLE_INTERVALS)
        s, c = _pair(ctx, x)
        resid = max(resid, abs(_below(ctx, s) - x if x <= xs[HALF_INTERVALS]
                               else _above(ctx, c ** (p - 1.0)) - (qtr - x)))
    return replace(ctx, probe_residual=resid / pi_p)


def arcsp(ctx: PContext, s):
    """Inverse p-sine on [0, 1]: the incomplete integral x(s).

    Summed by the series of the half that z = s^p falls in; above the
    split the series runs in zeta = 1 - z, which is exact there.  Accepts
    a scalar or an array; s > 1 has no inverse and gives nan.
    """
    if is_array(s):
        return map_array(lambda v: (arcsp(ctx, v),), s, 1)[0]
    sa = abs(float(s))
    z = sa ** ctx.p
    if z <= 0.5:
        return _below(ctx, sa)
    zeta = 1.0 - z
    return (ctx.quarter - _above(ctx, zeta ** (1.0 / ctx.p_conj))
            if zeta >= 0.0 else math.nan)


def _quarter_pair(ctx: PContext, xr: float, seed: float) -> tuple[float, float]:
    """(S_p, S_p') on the fundamental quarter period.

    Newton polishes ``seed``, the table's S_p(xr), on the series of the
    half xr falls in; the halves part at the table's split node, so each
    series only ever sees z, zeta <= 1/2.  Below the split it solves
    x(s) = xr in s; above it, pi_p/2 - x = pi_p/2 - xr in w = S_p'^(p-1),
    whose slope there is 1/((p-1) s^(p-1)).
    """
    p = ctx.p
    half = 0.5 ** (1.0 / p)
    if xr <= ctx._xs[HALF_INTERVALS]:
        s = seed
        for _ in range(_NEWTON_ITERS):
            # x(s) - xr = 0, x'(s) = (1 - s^p)^(-1/p)
            resid = _below(ctx, s) - xr
            s = min(max(s - resid * (1.0 - s ** p) ** (1.0 / p), 0.0), half)
        return s, (1.0 - s ** p) ** (1.0 / p)

    gap = ctx.quarter - xr
    w_split = half ** (p - 1.0)
    w = min(max(1.0 - seed ** p, 0.0), 0.5) ** (1.0 / ctx.p_conj)
    for _ in range(_NEWTON_ITERS):
        # D(w) - gap = 0, D'(w) = 1/((p-1) s^(p-1)), s^p = 1 - w^p'
        resid = _above(ctx, w) - gap
        s_pm1 = (1.0 - w ** ctx.p_conj) ** (1.0 / ctx.p_conj)
        w = min(max(w - resid * (p - 1.0) * s_pm1, 0.0), w_split)
    return (1.0 - w ** ctx.p_conj) ** (1.0 / p), w ** (1.0 / (p - 1.0))


def _bind_fold(pi_p: float, xs: tuple, ss: tuple, cs: tuple):
    """The one front end, bound to one context's table:
    ``fold(x) -> (xr, s, sign_s, sign_c)``.

    Folds a finite scalar onto the quarter period: ``xr`` lies in
    [0, pi_p/2], ``s`` is the cubic Hermite interpolant of S_p(xr) on the
    table, and S_p(x) = sign_s * S_p(xr), S_p'(x) = sign_c * S_p'(xr).
    Each quadrant is decided on an exact difference (r - pi_p for r in
    (pi_p, 2*pi_p], pi_p - r for r in (pi_p/2, pi_p]), so ``xr`` never
    leaves the quarter period and a boundary belongs to the lower
    quadrant.  The period and the table are bound here, once per
    context, since fold and lookup run once per integrator right-hand
    side.
    """
    two_pi = 2.0 * pi_p
    half_pi = 0.5 * pi_p
    floor = math.floor
    last = TABLE_INTERVALS - 1

    def fold(x: float) -> tuple[float, float, float, float]:
        r = x - two_pi * floor(x / two_pi)
        if not 0.0 <= r < two_pi:
            # rounding put the floor one period off, or more once the
            # spacing of floats near x exceeds the period
            r %= two_pi
        if r > pi_p:
            r -= pi_p
            sign_s = -1.0
        else:
            sign_s = 1.0
        if r > half_pi:
            xr = pi_p - r
            sign_c = -sign_s
        else:
            xr = r
            sign_c = sign_s

        i = bisect_right(xs, xr) - 1
        if i > last:
            i = last
        x0 = xs[i]
        h = xs[i + 1] - x0
        t = (xr - x0) / h
        s0 = ss[i]
        s1 = ss[i + 1]
        d0 = cs[i]  # ds/dx = S_p'
        d1 = cs[i + 1]
        t2 = t * t
        t3 = t2 * t
        s = ((2.0 * t3 - 3.0 * t2 + 1.0) * s0 + (t3 - 2.0 * t2 + t) * h * d0
             + (3.0 * t2 - 2.0 * t3) * s1 + (t3 - t2) * h * d1)
        if s > 1.0:
            s = 1.0
        elif s < 0.0:
            s = 0.0
        return xr, s, sign_s, sign_c

    return fold


def _pair(ctx: PContext, x) -> tuple:
    if is_array(x):
        return map_array(lambda v: _pair(ctx, v), x, 2)
    x = float(x)
    if not math.isfinite(x):
        raise DomainError("argument must be finite")
    # fold |x| and apply oddness, so S_p(-x) = -S_p(x) exactly and a tiny
    # negative x is not rounded onto the period 2*pi_p
    xr, seed, sign_s, sign_c = ctx.fold(abs(x))
    s, c = _quarter_pair(ctx, xr, seed)
    return math.copysign(1.0, x) * sign_s * s, sign_c * c


def sp(ctx: PContext, x):
    """Generalized sine S_p(x); odd, 2*pi_p-periodic, |S_p| <= 1.

    A scalar gives a float, an array or a list an ndarray of its shape.
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
    xr, _, sign_s, sign_c = ctx.fold(x)
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
    error in S_p.  Measured error in S_p' at pi_p/2 - 1e-6: 1.5e-6,
    4.0e-6 and 6.8e-7 for p = 3, 5 and 10; at pi_p/2 - 1e-9: 2.6e-5,
    3.8e-3 and 3.4e-2.  Integrated phase error stays well below solver
    tolerances.  Scalar arguments only.
    """
    _, s, ss, sc = ctx.fold(x)
    c = (1.0 - s ** ctx.p) ** (1.0 / ctx.p)
    return ss * s, sc * c

