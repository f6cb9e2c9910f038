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

with I the regularized incomplete beta function.  Evaluation inverts
this relation by Newton iteration seeded from a Chebyshev-spaced table
built once per context; arguments outside the quarter period reduce by
oddness, the reflection S_p(pi_p - x) = S_p(x), and periodicity.  Near
the quarter-period endpoint, where the inverse map is flat, the
complementary integral in s' = S_p' is inverted instead so both S_p and
S_p' keep full absolute accuracy.
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


@dataclass(frozen=True)
class PContext:
    """Immutable evaluation context for one exponent p.

    Holds the derived constants and the quarter-period inversion table.
    All arrays are read-only by convention; every operation taking a
    context is pure and thread-safe.
    """

    p: float
    pi_p: float
    p_conj: float
    table_x: np.ndarray = field(repr=False, compare=False)
    table_s: np.ndarray = field(repr=False, compare=False)
    table_c: np.ndarray = field(repr=False, compare=False)
    # plain-float copies for the scalar fast path (C-level bisect/arith)
    _xs: tuple = field(repr=False, compare=False, default=())
    _ss: tuple = field(repr=False, compare=False, default=())
    _cs: tuple = field(repr=False, compare=False, default=())
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
                   table_x=x, table_s=s, table_c=c,
                   _xs=tuple(float(v) for v in x),
                   _ss=tuple(float(v) for v in s),
                   _cs=tuple(float(v) for v in c))

    # Accuracy probe at off-node points; large p degrades gracefully and
    # the context reports by how much.  Each point is judged by the
    # better-conditioned of the direct and complementary inverse maps.
    xp = qtr * (np.arange(1, 64) / 64.0 + 0.5 / TABLE_INTERVALS)
    xp = xp[xp < qtr]
    sv, cv = _quarter_pair(ctx, xp)
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


def _quarter_pair(ctx: PContext, xr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(S_p, S_p') on the fundamental quarter period, vectorized.

    Below the midpoint, Newton inverts x(s) seeded from the context
    table; above it the complementary integral in the derivative
    variable is inverted so accuracy does not collapse where the direct
    map flattens.
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
        sv = np.interp(x_lo, ctx.table_x, ctx.table_s)
        for _ in range(_NEWTON_ITERS):
            # F(s) - x = 0, F'(s) = (1 - s^p)^(-1/p)
            resid = qtr * _sps.betainc(a, b, sv ** p) - x_lo
            sv = np.clip(sv - resid * (1.0 - sv ** p) ** (1.0 / p), 0.0, 1.0)
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


_SIGN_S = (1.0, 1.0, -1.0, -1.0)
_SIGN_C = (1.0, -1.0, -1.0, 1.0)


def reduce_argument(ctx: PContext, x):
    """Reduce ``x`` to the fundamental quarter period.

    Returns ``(xr, quadrant, period_count)`` with ``xr`` in
    [0, pi_p/2], ``quadrant`` in 0..3 and ``period_count`` the number of
    whole 2*pi_p periods removed.  Reconstruction:
    S_p(x) = sign_s[q] * S_p(xr) and S_p'(x) = sign_c[q] * S_p'(xr)
    with sign_s = (+,+,-,-) and sign_c = (+,-,-,+).  Quadrant boundaries
    belong to the lower quadrant, so x = pi_p reduces to (0, 1) and
    x = 3*pi_p/2 to (pi_p/2, 2).
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError("argument must be finite")
    two_pi = 2.0 * ctx.pi_p
    periods = np.floor(arr / two_pi)
    r = arr - two_pi * periods
    r = np.where(r < 0.0, r + two_pi, r)
    r = np.where(r >= two_pi, r - two_pi, r)
    t = r / ctx.quarter
    quad = np.clip(np.ceil(t).astype(int) - 1, 0, 3)
    xr = np.choose(quad, [r,
                          ctx.pi_p - r,
                          r - ctx.pi_p,
                          two_pi - r])
    xr = np.clip(xr, 0.0, ctx.quarter)
    if np.ndim(x) == 0:
        return float(xr), int(quad), int(periods)
    return xr, quad, periods.astype(int)


def _pair(ctx: PContext, x) -> tuple:
    xr, quad, _ = reduce_argument(ctx, x)
    scalar = np.ndim(x) == 0
    xr_arr = np.atleast_1d(np.asarray(xr, dtype=float))
    q_arr = np.atleast_1d(quad)
    s, c = _quarter_pair(ctx, xr_arr)
    sign_s = np.asarray(_SIGN_S)[q_arr]
    sign_c = np.asarray(_SIGN_C)[q_arr]
    s = sign_s * s
    c = sign_c * c
    if scalar:
        return float(s[0]), float(c[0])
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
    k = round((x - ctx.quarter) / ctx.pi_p)
    pole = ctx.quarter + k * ctx.pi_p
    if abs(x - pole) < POLE_GUARD:
        raise PoleError(
            f"tangent pole within {POLE_GUARD:g} of x={x!r} "
            f"(nearest pole {pole!r})", nearest_pole=pole)
    s, c = _pair(ctx, x)
    return s / c


def _fast_quarter(ctx: PContext, x: float) -> tuple[float, float, float]:
    """Quarter-period S_p by cubic Hermite on the table; returns
    (s, sign_s, sign_c) for the quadrant of the unreduced argument."""
    two_pi = 2.0 * ctx.pi_p
    r = x - two_pi * math.floor(x / two_pi)
    if r < 0.0:
        r += two_pi
    elif r >= two_pi:
        r -= two_pi
    qtr = 0.5 * ctx.pi_p
    if r <= qtr:
        xr, ss, sc = r, 1.0, 1.0
    elif r <= ctx.pi_p:
        xr, ss, sc = ctx.pi_p - r, 1.0, -1.0
    elif r <= 3.0 * qtr:
        xr, ss, sc = r - ctx.pi_p, -1.0, -1.0
    else:
        xr, ss, sc = two_pi - r, -1.0, 1.0

    xs = ctx._xs
    i = bisect_right(xs, xr) - 1
    if i >= TABLE_INTERVALS:
        i = TABLE_INTERVALS - 1
    elif i < 0:
        i = 0
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
    return s, ss, sc


def fast_pair(ctx: PContext, x: float) -> tuple[float, float]:
    """Table-only (S_p, S_p') for integrator right-hand sides.

    Cubic Hermite interpolation on the quarter-period table, no Newton
    polish.  Absolute error is ~1e-11 over most of the period and up to
    ~1e-8 within ~1e-6 of the derivative's zeros; integrated phase error
    stays well below solver tolerances.  Scalar arguments only.
    """
    s, ss, sc = _fast_quarter(ctx, x)
    c = (1.0 - s ** ctx.p) ** (1.0 / ctx.p)
    return ss * s, sc * c


def fast_abs_sp_pow(ctx: PContext, x: float) -> float:
    """|S_p(x)|^p by the table fast path (phase equation right-hand side)."""
    s, _, _ = _fast_quarter(ctx, x)
    return s ** ctx.p
