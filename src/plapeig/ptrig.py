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
built forward from the two series once per context: the cubic Hermite
interpolant of each table interval, stored as its monomial coefficients
in the distance from the interval's left node, found through a bucket
index (``_build_index``); ``make_context`` binds it to its table as
``fold``.  The amplitude's right-hand side stops there; the phase and
the sensitivity see S_p only through G = |S_p|^p, which has period
pi_p and is even about pi_p/2, and read it inline off a second table on
the same nodes and index, the cubic Hermite interpolant of G with the
slopes p*G*S_p'/S_p.  The public functions polish the fold's value by
Newton iteration on the series of its half, in s below the split and
in w above it.  Both maps have a slope bounded
away from zero and infinity on their halves, so S_p and S_p' keep full
absolute accuracy up to the quarter-period endpoint.  All of it runs on Python
floats: an array argument is evaluated point by point into an ndarray,
and only then is numpy imported.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from itertools import chain, repeat
from operator import sub

from .errors import DomainError, PoleError, is_array, map_array

# Terms of each inverse-map series; at z = 1/2 the 60th is below rounding.
SERIES_TERMS = 60
# Table intervals on each half of the quarter period, split at s^p = 1/2.
HALF_INTERVALS = 1024
TABLE_INTERVALS = 2 * HALF_INTERVALS
# Buckets of the index (see _build_index): uniform ones over the quarter
# period, and square-root ones over each half of the table.
_BUCKETS = 2 * TABLE_INTERVALS
_ROOT_BUCKETS = HALF_INTERVALS
# the interval numbers: the index tables of every context hold these
# int objects rather than a copy each
_INTERVAL = tuple(range(TABLE_INTERVALS))
# Newton polish iterations on top of the table's cubic Hermite value.
_NEWTON_ITERS = 2
# tp() refuses evaluation closer than this to an odd multiple of pi_p/2.
POLE_GUARD = 1e-8


def _starts(keys: list, first: int, n: int) -> list:
    """The ``n`` entries of one index table: entry k is the last interval
    whose left node's key is below k.  ``keys[j]`` is the key of the left
    node of interval ``first + j``; the keys do not fall, and keys[0] = 0,
    so entry 0 is ``first``."""
    table = [_INTERVAL[first]]
    table += chain.from_iterable(
        map(repeat, _INTERVAL[first:], map(sub, keys[1:], keys)))
    return table + [_INTERVAL[first + len(keys) - 1]] * (n - len(table))


def _build_index(xs: tuple, half_pi: float) -> tuple:
    """The index of the table nodes ``xs``: where the interval of xr in
    [0, pi_p/2] starts, the one ``bisect_right(xs, xr) - 1`` names, the
    last one for xr = pi_p/2.  Returns (scale, start, split, lo_scale,
    lo, hi_top, hi_scale, hi, right), ``right`` the right end of each
    interval, the last one open.

    A bucket's entry is the last interval whose left node lies in an
    earlier bucket, which starts at or before every xr of the bucket, and
    a forward scan over the right ends finishes.  The first read is the
    uniform bucket ``start[floor(xr * scale)]``.  The nodes cluster at
    the ends of the table, as s or w = 1 - cos of a uniform angle, and
    a uniform bucket that holds three left nodes or more reads -1
    instead: then xr below the split node reads ``lo[floor(sqrt(xr) *
    lo_scale)]`` and xr from the split node on ``hi[floor((hi_top -
    sqrt(pi_p/2 - xr)) * hi_scale)]``, buckets in the square root of the
    distance from the table's end, in which each half's nodes lie nearly
    evenly.  Every key rises with xr, so every entry is right;
    the scan takes two steps at most at p in [1.05, 50]
    (``tests/test_ptrig.py``).
    """
    floor, sqrt = math.floor, math.sqrt
    scale = _BUCKETS / half_pi
    keys = [floor(x * scale) for x in xs]
    start = _starts(keys[:TABLE_INTERVALS], 0, keys[-1] + 1)
    # the buckets that hold three left nodes or more
    for k, k2 in zip(keys, keys[2:TABLE_INTERVALS]):
        if k == k2:
            start[k] = -1
    split = xs[HALF_INTERVALS]
    lo_scale = _ROOT_BUCKETS / sqrt(split)
    lo = _starts([floor(sqrt(x) * lo_scale) for x in xs[:HALF_INTERVALS]],
                 0, floor(sqrt(split) * lo_scale) + 1)
    hi_top = sqrt(half_pi - split)
    hi_scale = _ROOT_BUCKETS / hi_top
    hi = _starts([floor((hi_top - sqrt(half_pi - x)) * hi_scale)
                  for x in xs[HALF_INTERVALS:TABLE_INTERVALS]],
                 HALF_INTERVALS, floor(hi_top * hi_scale) + 1)
    return (scale, tuple(start), split, lo_scale, tuple(lo), hi_top, hi_scale,
            tuple(hi), xs[1:TABLE_INTERVALS] + (math.inf,))


@dataclass(frozen=True)
class PContext:
    """Immutable evaluation context for one exponent p.

    Holds the derived constants, the coefficients of the two inverse-map
    series, the quarter-period tables of S_p and of G = |S_p|^p with
    their index, and ``fold``, the front end bound to the S_p table (see
    :func:`_bind_fold`); every operation taking a context is pure and
    thread-safe.
    """

    p: float
    pi_p: float
    p_conj: float
    # the table: nodes x and S_p(x), S_p'(x) there, node HALF_INTERVALS
    # the split s^p = 1/2; on interval i the cubic Hermite interpolant of
    # S_p is _ss[i] + _cs[i] d + _c2[i] d^2 + _c3[i] d^3, d = x - _xs[i]
    _xs: tuple = field(repr=False, compare=False)
    _ss: tuple = field(repr=False, compare=False)
    _cs: tuple = field(repr=False, compare=False)
    _c2: tuple = field(repr=False, compare=False)
    _c3: tuple = field(repr=False, compare=False)
    # the G table, G = |S_p|^p on the same nodes and in the same form:
    # _gs[i] + _gd[i] d + _g2[i] d^2 + _g3[i] d^3, which the integrator's
    # phase and sensitivity right-hand sides read
    _gs: tuple = field(repr=False, compare=False)
    _gd: tuple = field(repr=False, compare=False)
    _g2: tuple = field(repr=False, compare=False)
    _g3: tuple = field(repr=False, compare=False)
    _index: tuple = field(repr=False, compare=False)  # see _build_index
    # series coefficients r_k/(k p + 1) below the split, r'_k/((k+1) p - 1)
    # above it, for k >= 1
    _lo: tuple = field(repr=False, compare=False)
    _hi: tuple = field(repr=False, compare=False)
    fold: Callable[[float], tuple[float, float, float, float]] = field(
        default=None, repr=False, compare=False)

    @property
    def quarter(self) -> float:
        return 0.5 * self.pi_p

    def __reduce__(self):
        # pickle cannot carry the closure ``fold``; a context is a
        # function of p alone, so it is rebuilt from p
        return make_context, (self.p,)


def _coefficients(a: float, p: float, first: float) -> tuple:
    """(a)_k / k! / (k*p + first) for 1 <= k < SERIES_TERMS; the k = 0
    term, 1/first, is the callers'."""
    r = [1.0]
    for k in range(SERIES_TERMS - 1):
        r.append(r[k] * (a + k) / (k + 1))
    return tuple(r[k] / (k * p + first) for k in range(1, SERIES_TERMS))


def _series(coef: tuple, z: float) -> float:
    """sum_{k>=1} coef[k-1] z^k, added largest term first until a term
    can no longer move the sum (the terms are positive and fall with k).
    The caller adds the k = 0 term, so the dominant term carries none of
    the tail's rounding."""
    acc = 0.0
    zk = z
    for c in coef:
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
    return w * (1.0 / (ctx.p - 1.0)) + w * _series(ctx._hi, w ** ctx.p_conj)


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
    p_conj, inv_p, inv_pm1 = p / (p - 1.0), 1.0 / p, 1.0 / (p - 1.0)
    lo = _coefficients(inv_p, p, 1.0)
    hi = _coefficients(1.0 - inv_p, p, p - 1.0)

    # Nodes clustered at x = 0 and x = pi_p/2: s = s_split * u below the
    # split and w = w_split * u above it, with u = 1 - cos(pi j / 2048)
    # rising from 0 to 1 over j = 0..1024.  The split node comes from the
    # lower series.
    cos, right_angle = math.cos, 0.5 * math.pi
    u = [1.0 - cos(right_angle * j / HALF_INTERVALS)
         for j in range(HALF_INTERVALS + 1)]
    half = 0.5 ** (1.0 / p)  # S_p = S_p' at the split
    w_split = half ** (p - 1.0)
    s_lo = [half * uj for uj in u]
    w = [w_split * uj for uj in u[-2::-1]]  # from the split down to 0
    # z = s^p and zeta = w^p', raised once each for the series of x
    # (_below and _above, inlined, a call fewer per node) and for the
    # node values
    zs = [s ** p for s in s_lo]
    zetas = [wj ** p_conj for wj in w]
    xs = tuple([s + s * _series(lo, z) for s, z in zip(s_lo, zs)]
               + [qtr - (wj * inv_pm1 + wj * _series(hi, zeta))
                  for wj, zeta in zip(w, zetas)])
    ss = tuple(s_lo + [(1.0 - zeta) ** inv_p for zeta in zetas])
    cs = tuple([(1.0 - z) ** inv_p for z in zs] + [wj ** inv_pm1 for wj in w])
    # G = |S_p|^p is z below the split and 1 - zeta above it, and its
    # slope p*S_p^(p-1)*S_p' is p*G*S_p'/S_p, 0 at the zero node
    gs = tuple(zs + [1.0 - zeta for zeta in zetas])
    gd = tuple([0.0] + [p * g * c / s for g, c, s in zip(gs[1:], cs[1:], ss[1:])])
    # the monomial coefficients of the cubic Hermite interpolants of S_p
    # and G on each interval, from their end values s0, s1 (g0, g1) and
    # slopes d0, d1 (e0, e1)
    c2, c3, g2, g3 = [], [], [], []
    add2, add3, addg2, addg3 = c2.append, c3.append, g2.append, g3.append
    for x0, x1, s0, s1, d0, d1, g0, g1, e0, e1 in zip(
            xs, xs[1:], ss, ss[1:], cs, cs[1:], gs, gs[1:], gd, gd[1:]):
        h = x1 - x0
        hh = h * h
        m = (s1 - s0) / h
        add2((3.0 * m - 2.0 * d0 - d1) / h)
        add3((d0 + d1 - 2.0 * m) / hh)
        m = (g1 - g0) / h
        addg2((3.0 * m - 2.0 * e0 - e1) / h)
        addg3((e0 + e1 - 2.0 * m) / hh)
    ctx = PContext(p=p, pi_p=pi_p, p_conj=p_conj, _xs=xs, _ss=ss, _cs=cs,
                   _c2=tuple(c2), _c3=tuple(c3), _gs=gs, _gd=gd,
                   _g2=tuple(g2), _g3=tuple(g3), _index=_build_index(xs, qtr),
                   _lo=lo, _hi=hi)
    return replace(ctx, fold=_bind_fold(ctx))


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


def _bind_fold(ctx: PContext):
    """The one front end, bound to the context's table:
    ``fold(x) -> (xr, s, sign_s, sign_c)``.

    Folds a finite scalar onto the quarter period: ``xr`` lies in
    [0, pi_p/2], ``s`` is the cubic Hermite interpolant of S_p(xr) on the
    table, clamped to [0, 1], and S_p(x) = sign_s * S_p(xr),
    S_p'(x) = sign_c * S_p'(xr).  Each quadrant is decided on an exact
    difference (r - pi_p for r in (pi_p, 2*pi_p], pi_p - r for r in
    (pi_p/2, pi_p]), so ``xr`` never leaves the quarter period and a
    boundary belongs to the lower quadrant.

    The interval is the one the context's index finds, and the
    value is its cubic in d = xr - x_i, by Horner; a node gives its S_p
    exactly.  Over the phases of ``compute_spectrum`` on the benchmark's
    spectrum inputs the index's scan takes 0.24 to 0.30 steps on average
    at p = 1.5 to 5, and two at most.  The period, the tables and the
    index are bound here, once per context, since fold runs once per
    amplitude right-hand side; the phase and sensitivity right-hand
    sides in ``prufer._integrate`` read the G table instead, through the
    same index.
    """
    pi_p = ctx.pi_p
    two_pi = 2.0 * pi_p
    half_pi = 0.5 * pi_p
    floor, sqrt = math.floor, math.sqrt
    xs, ss, cs, c2, c3 = ctx._xs, ctx._ss, ctx._cs, ctx._c2, ctx._c3
    scale, start, split, lo_scale, lo, hi_top, hi_scale, hi, right = ctx._index

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

        i = start[floor(xr * scale)]
        if i < 0:
            if xr < split:
                i = lo[floor(sqrt(xr) * lo_scale)]
            else:
                i = hi[floor((hi_top - sqrt(half_pi - xr)) * hi_scale)]
        while right[i] <= xr:
            i += 1
        d = xr - xs[i]
        s = ss[i] + d * (cs[i] + d * (c2[i] + d * c3[i]))
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
    """Table-only (S_p, S_p'), for the tests' DP45 oracle and the
    benchmark's layer probe; the integrator reads its own tables.

    Cubic Hermite interpolation on the quarter-period table, no Newton
    polish.  Against the polished pair, on 20,000 uniform points of a
    period, the larger absolute error of the two has a median of 4.5e-15,
    3.9e-15 and 7.8e-16 for p = 3, 5 and 10, and a maximum of 4.6e-9,
    3.5e-8 and 7.2e-9.  It grows near the zeros of S_p', where
    S_p' = (1 - S_p^p)^(1/p) amplifies the error in S_p: in S_p' it is
    1.5e-6, 4.0e-6 and 6.8e-7 at pi_p/2 - 1e-6, and 2.6e-5, 3.8e-3 and
    3.4e-2 at pi_p/2 - 1e-9.  Integrated phase error stays well below
    solver tolerances.  Scalar arguments only.
    """
    _, s, ss, sc = ctx.fold(x)
    c = (1.0 - s ** ctx.p) ** (1.0 / ctx.p)
    return ss * s, sc * c

