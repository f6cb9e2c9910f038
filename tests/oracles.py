"""Independent reference computations used only by the tests.

Each oracle solves the same mathematical problem as the package through
a different route (direct initial value integration with a library
integrator, the classical p = 2 phase equations, finite differences),
so agreement is evidence rather than tautology.
"""

import math

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq

from plapeig import DomainError, IntegrationError, Potential, direct_shoot


def sp_ivp(p, x, rtol=1e-12, atol=1e-14):
    """(S_p(x), S_p'(x)) by brute-force integration of the defining
    initial value problem in (y, v) form with v = (y')^(p-1)."""

    def rhs(t, yv):
        y, v = yv
        dy = math.copysign(abs(v) ** (1.0 / (p - 1.0)), v) if v != 0.0 else 0.0
        dv = (-(p - 1.0) * math.copysign(abs(y) ** (p - 1.0), y)
              if y != 0.0 else 0.0)
        return (dy, dv)

    sol = solve_ivp(rhs, (0.0, x), (0.0, 1.0), method="DOP853",
                    rtol=rtol, atol=atol)
    assert sol.success
    y, v = float(sol.y[0, -1]), float(sol.y[1, -1])
    yp = math.copysign(abs(v) ** (1.0 / (p - 1.0)), v) if v != 0.0 else 0.0
    return y, yp


# Frozen sp_ivp(p, x) outputs (DOP853, rtol=1e-12, atol=1e-14).  The
# integration itself carries error up to ~1e-11 near the degenerate
# v = 0 / y = 0 points when p != 2, so per-point tolerances differ.
SP_IVP_FROZEN = {
    (3.0, 1.0): (0.9113923332282835, 0.6239949555665291),
    (3.0, 0.5): (0.49475973853529753, 0.9578805780502336),
    (1.5, 0.7): (0.5995898651533786, 0.6596158296690786),
    (5.0, 1.3): (0.825690467929123, -0.9077090336872917),
    (2.0, 1.0): (0.8414709848078563, 0.5403023058681942),
}


def arcsp_quadrature(ctx, s, epsabs=1e-13):
    """Inverse p-sine by adaptive Gauss-Kronrod quadrature.

    Independent of ``plapeig.arcsp``: integrates (1 - t^p)^(-1/p) directly.
    The integrable endpoint singularity at t = 1 is removed by the
    substitution 1 - t = w^m with m = p/(p-1), which turns the tail into
    the bounded integrand m * g(1 - w^m)^(-1/p) for
    g(t) = (1 - t^p)/(1 - t).  Used as a cross-check of the series route
    and of pi_p itself (x(1) = pi_p/2).
    """
    s = float(s)
    if not 0.0 <= s <= 1.0:
        raise DomainError(f"arcsp argument must lie in [0, 1], got {s}")
    p = ctx.p
    split = min(s, 0.85)
    total = 0.0
    if split > 0.0:
        val, _ = quad(lambda t: (1.0 - t ** p) ** (-1.0 / p),
                      0.0, split, epsabs=epsabs, epsrel=1e-13, limit=200)
        total += val
    if s > split:
        m = ctx.p_conj

        def regularized(w):
            # g(1 - w^m) with 1 - (1-w^m)^p evaluated cancellation-free
            wm = w ** m
            one_minus_tp = -math.expm1(p * math.log1p(-wm))
            return m * (one_minus_tp / wm) ** (-1.0 / p)

        w_hi = (1.0 - split) ** (1.0 / m)
        w_lo = 0.0 if s >= 1.0 else (1.0 - s) ** (1.0 / m)
        val, _ = quad(regularized, w_lo, w_hi,
                      epsabs=epsabs, epsrel=1e-13, limit=200)
        total += val
    return total


def random_nonpositive_piecewise_linear(rng, n_knots=5, depth_scale=6.0):
    """Seeded random nonpositive piecewise-linear potential on [0, 1]."""
    if n_knots < 2:
        raise DomainError("need at least 2 knots")
    interior = np.sort(rng.uniform(0.05, 0.95, size=n_knots - 2))
    xs = np.concatenate(([0.0], interior, [1.0]))
    qs = -rng.uniform(0.0, depth_scale, size=n_knots)
    return Potential(kind="piecewise_linear",
                     xs=tuple(float(v) for v in xs),
                     qs=tuple(float(v) for v in qs))


def sampled_shape(q, tol=1e-12):
    """Shape report of q by the sampled rule: run-length signs of
    consecutive sample differences, plateau midpoint for x0 (None for
    neither), signs from the sample extrema.  Samples sit at every knot
    and every knot midpoint, so a turn between knots that the knots miss
    would show here.  Returns the ``ShapeCertificate.as_dict`` layout."""
    mids = [0.5 * (a + b) for a, b in zip(q.xs, q.xs[1:])]
    xs = np.array(sorted(q.xs + tuple(mids)))
    vals = np.asarray(q(xs), dtype=float)
    runs = []
    for d in np.diff(vals):
        sgn = 1 if d > tol else -1 if d < -tol else 0
        if sgn and (not runs or runs[-1] != sgn):
            runs.append(sgn)
    shape = {(): "constant", (1,): "monotone_increasing",
             (-1,): "monotone_decreasing", (1, -1): "single_barrier",
             (-1, 1): "single_well"}.get(tuple(runs), "neither")
    if shape == "single_well":
        plateau = np.flatnonzero(vals <= vals.min() + tol)
    else:
        plateau = np.flatnonzero(vals >= vals.max() - tol)
    x0 = (None if shape == "neither"
          else float(0.5 * (xs[plateau[0]] + xs[plateau[-1]])))
    q0, q1 = float(vals[0]), float(vals[-1])
    return {"shape": shape,
            "x0": x0,
            "nonpositive": bool(np.all(vals <= tol)),
            "nonnegative": bool(np.all(vals >= -tol)),
            "q_star": min(q0, q1), "q0": q0, "q1": q1}


def classical_prufer_p2(q, rho, ell, rtol=1e-12, atol=1e-13):
    """(phi(ell), log R(ell)) for p = 2 via the classical circular-phase
    equations with sin/cos, independent of the S_p machinery."""

    def rhs(x, y):
        phi = y[0]
        qq = q.value(x)
        return ((rho - (qq / rho) * math.sin(phi) ** 2),
                (qq / rho) * math.sin(phi) * math.cos(phi))

    sol = solve_ivp(rhs, (0.0, ell), (0.0, 0.0), method="DOP853",
                    rtol=rtol, atol=atol, max_step=0.25)
    assert sol.success
    return float(sol.y[0, -1]), float(sol.y[1, -1])


def direct_eigenvalue(ctx, q, n, ell):
    """lambda_n from direct shots alone; never touches the phase route.

    Bisection on the shot's zero count and terminal sign runs only until
    both bracket ends show n - 1 interior zeros; y(ell) changes sign
    exactly once on that bracket, and Brent's method on it sets the
    final accuracy.  Shots are cached by lambda.
    """
    qmin, qmax = q.min_max()
    free = (n * ctx.pi_p / ell) ** ctx.p
    lo = free + qmin - 1e-6 * (1.0 + abs(free))
    hi = free + qmax + 1e-6 * (1.0 + abs(free))
    parity = -1.0 if n % 2 == 0 else 1.0  # sign of y on its n-th arch
    shots = {}

    def shoot(lam):
        if lam not in shots:
            shots[lam] = direct_shoot(ctx, q, lam, ell)
        return shots[lam]

    def past(lam):
        shot = shoot(lam)
        if shot.zero_count >= n:
            return True
        return shot.zero_count == n - 1 and parity * shot.y_end <= 0.0

    for _ in range(80):
        if past(lo):
            lo -= 0.5 * (hi - lo)
        else:
            break
    assert not past(lo), "oracle bracket: lower end already past lambda_n"
    for _ in range(80):
        if not past(hi):
            hi += 0.5 * (hi - lo)
        else:
            break
    assert past(hi), "oracle bracket: upper end not past lambda_n"

    for _ in range(100):
        if shoot(lo).zero_count == shoot(hi).zero_count == n - 1:
            break
        mid = 0.5 * (lo + hi)
        if past(mid):
            hi = mid
        else:
            lo = mid
    else:
        raise RuntimeError(
            f"oracle bracket: no interval with {n - 1} zeros at both ends "
            f"found near [{lo!r}, {hi!r}]")

    def y_end(lam):
        return shoot(lam).y_end

    if y_end(hi) == 0.0:
        return hi
    return brentq(y_end, lo, hi, rtol=1e-13)


def phase_end_reference(ctx, q, rho, ell, rtol=1e-12, atol=1e-13):
    """phi(ell, rho) by a library integrator with fully polished S_p
    evaluations; reproducible to ~1e-13, which centered differences in
    rho need (the production path's table interpolation jitter would
    otherwise dominate at h = 1e-5)."""
    from plapeig.ptrig import sp  # accurate route

    p = ctx.p
    coef = rho ** (1.0 - p)

    def rhs(x, y):
        s = sp(ctx, float(y[0]))
        return (rho - q.value(x) * coef * abs(s) ** p,)

    bounds = [0.0] + [b for b in q.interior_knots() if 0.0 < b < ell] + [ell]
    phi = 0.0
    for a, b in zip(bounds, bounds[1:]):
        sol = solve_ivp(rhs, (a, b), (phi,), method="DOP853",
                        rtol=rtol, atol=atol)
        assert sol.success
        phi = float(sol.y[0, -1])
    return phi


def fd_u(ctx, q, rho, ell, tol=None, h=1e-5):
    """Centered finite-difference estimate of u = d(phi)/d(rho)."""
    hi = phase_end_reference(ctx, q, rho + h, ell)
    lo = phase_end_reference(ctx, q, rho - h, ell)
    return (hi - lo) / (2.0 * h)


def probe_residual(ctx):
    """Largest inverse-map residual of the polished S_p, over pi_p, at
    63 points off the table nodes (x = pi_p/2 * (j/64 + 1/4096)): each
    point is judged by the series of its half, the map its Newton polish
    inverts."""
    from plapeig.ptrig import (HALF_INTERVALS, TABLE_INTERVALS, _above,
                               _below, sp_pair)

    qtr = ctx.quarter
    resid = 0.0
    for j in range(1, 64):
        x = qtr * (j / 64.0 + 0.5 / TABLE_INTERVALS)
        s, c = sp_pair(ctx, x)
        resid = max(resid, abs(_below(ctx, s) - x
                               if x <= ctx._xs[HALF_INTERVALS]
                               else _above(ctx, c ** (ctx.p - 1.0)) - (qtr - x)))
    return resid / ctx.pi_p


def hermite_table_value(ctx, xr):
    """S_p(xr) on the quarter period by the cubic Hermite basis on the
    table interval ``bisect_right`` names (the last one at pi_p/2), from
    the node values and slopes alone, clamped to [0, 1]: the basis form
    of the cubic that the table front end evaluates in monomial form."""
    from bisect import bisect_right

    xs, ss, cs = ctx._xs, ctx._ss, ctx._cs
    i = min(bisect_right(xs, xr) - 1, len(xs) - 2)
    x0 = xs[i]
    h = xs[i + 1] - x0
    t = (xr - x0) / h
    t2 = t * t
    t3 = t2 * t
    s = ((2.0 * t3 - 3.0 * t2 + 1.0) * ss[i] + (t3 - 2.0 * t2 + t) * h * cs[i]
         + (3.0 * t2 - 2.0 * t3) * ss[i + 1] + (t3 - t2) * h * cs[i + 1])
    return min(max(s, 0.0), 1.0)


def fast_abs_sp_pow(ctx, x):
    """|S_p(x)|^p off the context's G table, read afresh on every call:
    the per-call reference for the integrator's per-piece right-hand
    sides.  G has period pi_p and is even about pi_p/2, so the read is
    at x mod pi_p reflected onto [0, pi_p/2], on the interval
    ``bisect_right`` names (the last one at pi_p/2), by the cubic in
    monomial form that the integrator evaluates."""
    from bisect import bisect_right

    pi_p = ctx.pi_p
    xs = ctx._xs
    r = x % pi_p
    if r > 0.5 * pi_p:
        r = pi_p - r
    i = min(bisect_right(xs, r) - 1, len(xs) - 2)
    d = r - xs[i]
    return ctx._gs[i] + d * (ctx._gd[i] + d * (ctx._g2[i] + d * ctx._g3[i]))


def index_points(ctx):
    """The points of [0, pi_p/2] where a read through the table's index
    could go wrong: every table node, every edge of the uniform and the
    square-root buckets (see ``ptrig._build_index``), the ulp neighbours
    of each, 0 and pi_p/2."""
    scale, start, _, lo_scale, lo, hi_top, hi_scale, hi, _ = ctx._index
    qtr = ctx.quarter
    edges = [k / scale for k in range(len(start))]
    edges += [(k / lo_scale) ** 2 for k in range(len(lo))]
    edges += [qtr - (hi_top - k / hi_scale) ** 2 for k in range(len(hi))]
    points = {0.0, qtr}
    for x in (*ctx._xs, *edges):
        points.update((math.nextafter(x, -math.inf), x,
                       math.nextafter(x, math.inf)))
    return sorted(x for x in points if 0.0 <= x <= qtr)


def phase_end_fixed_mesh(ctx, q, rho, ell, n_steps=2000):
    """phi(ell, rho) by classic fixed-mesh RK4.

    The mesh does not depend on rho, so the discretization error is a
    smooth function of rho and cancels in centered differences; adaptive
    integrators re-grid between the two shots and their jitter would
    swamp an h = 1e-5 difference quotient.
    """
    p = ctx.p
    coef = rho ** (1.0 - p)
    qv = q.value

    def f(x, phi):
        return rho - qv(x) * coef * fast_abs_sp_pow(ctx, phi)

    bounds = [0.0] + [b for b in q.interior_knots() if 0.0 < b < ell] + [ell]
    phi = 0.0
    for a, b in zip(bounds, bounds[1:]):
        n = max(50, int(round(n_steps * (b - a) / ell)))
        h = (b - a) / n
        x = a
        for _ in range(n):
            k1 = f(x, phi)
            k2 = f(x + 0.5 * h, phi + 0.5 * h * k1)
            k3 = f(x + 0.5 * h, phi + 0.5 * h * k2)
            k4 = f(x + h, phi + h * k3)
            phi += h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
            x += h
    return phi


def fd_theta_dot(ctx, q, rho, ell, tol=None, h=1e-5):
    """Centered finite-difference estimate of d(theta)/d(rho) on a
    shared fixed mesh (theta differences are cancellation-prone)."""
    hi = phase_end_fixed_mesh(ctx, q, rho + h, ell) / (rho + h)
    lo = phase_end_fixed_mesh(ctx, q, rho - h, ell) / (rho - h)
    return (hi - lo) / (2.0 * h)


# Dormand-Prince 4(5) tableau as tables; row 7 equals the 5th-order
# weights (FSAL)
_DP_C = (0.0, 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0, 1.0, 1.0)
_DP_A = (
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
_DP_E = (71.0 / 57600.0, 0.0, -71.0 / 16695.0, 71.0 / 1920.0,
         -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0)


def _dot(coeffs, ks, d):
    """sum_j coeffs[j] * ks[j][d], added left to right from 0.0 (the
    builtin ``sum`` of Python >= 3.12 compensates, which would not)."""
    acc = 0.0
    for a, k in zip(coeffs, ks):
        acc += a * k[d]
    return acc


def _hermite_root(y0, y1, s0, s1, level):
    """theta in (0, 1] where the cubic Hermite through (0, y0) and
    (1, y1), with slopes s0 and s1 per unit theta, meets ``level``: three
    Newton steps from the secant estimate."""
    dy = y1 - y0
    b2 = 3.0 * dy - 2.0 * s0 - s1
    b3 = s0 + s1 - 2.0 * dy
    theta = (level - y0) / dy
    for _ in range(3):
        value = (y0 - level) + theta * (s0 + theta * (b2 + theta * b3))
        slope = s0 + theta * (2.0 * b2 + theta * (3.0 * b3))
        theta -= value / slope
    return theta


def _reference_piece(f, x, y, x_end, h, tol, counters, spacing, ell,
                     defect=None, weights=(3.0, 10.0)):
    """Adaptive DP45 over one smooth piece of [0, ell] by a generic
    tableau loop.

    With ``spacing`` (the phase at p != 2; else None) the phase lands on
    the levels k*spacing.  ``counters["level"]`` is the level k it last
    sat on and ``counters["on_level"]`` whether the next step starts
    there; both carry across pieces.  Before a trial, the step to the
    next level in the direction of the phase slope, (level - phi)/phi',
    replaces the trial when it is no longer, unless it ends within the
    snap distance of the piece end.  A step whose phase ends within
    1e-7*spacing of the level next to k sits on it; one that passes it
    by more is replaced by the step that ends where the step's cubic
    Hermite meets the level, unless that point lies within the snap
    distance of either end of the step.  The error norm is the RMS over
    the components of z = e/(abs_tol + rel_tol*max(|y|, |y_new|)) as the
    kernel forms it: |z| for one component, else sqrt(sum(z*z)/dim).
    Both square by a product, never by a power, which can round apart
    from it and raises ``OverflowError`` where it gives inf.  The step
    factors are clamped by the builtin ``min`` and ``max``, which the
    kernel writes out as conditionals that evaluate the same way, NaN
    included, so the kernel matches this loop by construction.  The norm
    is weighted by ``weights[0]`` on a step that starts on a level, where
    the phase sat on it and has stayed within the window since, and by
    ``weights[1]`` on a step aimed at a level, predicted or Hermite.
    With ``defect`` (the phase and the sensitivity at p != 2),
    ``defect(level, x, h, slope, aimed, state)`` gives the corrections
    of the 5th-order state and the readings of the estimate, one per
    component, for the singular term of a step from x that leaves the
    level (aimed False) or is aimed at it (aimed True), applied before
    the last stage; ``state`` is the step's start for a step that leaves
    a level and its 5th-order end for one aimed at it.  The snap
    distance and the step floor are 1e-14 relative to ell: a step
    shorter than the floor is an underflow while the piece has the floor
    or more to go, and a shorter piece is one step.  Returns the state
    at ``x_end``, the step size and the slope there.
    """
    dim = len(y)
    k1 = f(x, y)
    counters["n_rhs"] += 1
    err_old = 1e-4
    snap = 1e-14 * ell
    window = 1e-7 * spacing if spacing else None
    landing = None  # (length, level step) of a pending step onto a level
    while x < x_end:
        attempts = (counters["n_steps"] + counters["n_rejected"]
                    + counters["n_landed"])
        if attempts >= tol.max_steps:
            raise IntegrationError(
                f"step budget {tol.max_steps} exhausted at x={x!r}", last_x=x)
        level = counters["level"]
        weight = weights[0] if counters["on_level"] else 1.0
        aim = None
        if landing:
            h_try = landing[0]
            aim = level + landing[1]
            weight *= weights[1]
        else:
            h_try = min(h, x_end - x)
            if spacing and k1[0] != 0.0:
                ahead = level + 1 if k1[0] > 0.0 else level - 1
                dist = (ahead * spacing - y[0]) / k1[0]
                if dist <= h_try and x_end - (x + dist) >= snap:
                    h_try = dist
                    aim = ahead
                    weight *= weights[1]
        if h_try < snap <= x_end - x:
            raise IntegrationError(f"step size underflow at x={x!r}", last_x=x)

        k = [k1]
        yi = y
        read = (0.0,) * dim  # the estimate's reading of the singular terms
        for i in range(1, 7):
            yi = tuple(y[d] + h_try * _dot(_DP_A[i], k, d) for d in range(dim))
            if i == 6 and defect and counters["on_level"]:
                dy, read = defect(level, x, h_try, k1[0], False, y)
                yi = tuple(a + b for a, b in zip(yi, dy))
            if i == 6 and defect and aim is not None:
                dy, de = defect(aim, x, h_try, None, True, yi)
                yi = tuple(a + b for a, b in zip(yi, dy))
                read = tuple(a + b for a, b in zip(read, de))
            k.append(f(x + _DP_C[i] * h_try, yi))
        counters["n_rhs"] += 6
        y_new = yi  # stage 7 argument: the 5th-order solution

        zs = [(h_try * _dot(_DP_E, k, d) - read[d])
              / (tol.abs_tol + tol.rel_tol * max(abs(y[d]), abs(y_new[d])))
              for d in range(dim)]
        if dim == 1:
            err = abs(zs[0]) * weight
        else:
            err = 0.0
            for z in zs:
                err += z * z
            err = math.sqrt(err / dim) * weight

        if err <= 1.0:
            if landing:
                counters["level"] += landing[1]
                counters["on_level"] = True
                landing = None
            elif spacing:
                step = (1 if y_new[0] >= (level + 1) * spacing - window
                        else -1 if y_new[0] <= (level - 1) * spacing + window
                        else 0)
                if step:
                    target = (level + step) * spacing
                    if abs(y_new[0] - target) > window:
                        length = h_try * _hermite_root(
                            y[0], y_new[0], h_try * k[0][0], h_try * k[6][0],
                            target)
                        if length >= snap and x_end - (x + length) >= snap:
                            landing = (length, step)
                            counters["n_landed"] += 1
                            continue
                    # within the window, or a crossing at either end of
                    # the step: the step is kept and sits on the level
                    counters["level"] += step
                    counters["on_level"] = True
                else:
                    counters["on_level"] = (
                        abs(y_new[0] - level * spacing) <= window)
            x_new = x + h_try
            if x_end - x_new < snap:
                x_new = x_end
            x, y, k1 = x_new, y_new, k[6]  # FSAL
            counters["n_steps"] += 1
            fac = 6.0 if err == 0.0 else min(
                6.0, max(0.2, 0.9 * err ** -0.17 * err_old ** 0.04))
            err_old = max(err, 1e-4)
            if h_try >= h:  # not shortened by a boundary: rescale
                h = h_try * fac
        else:
            counters["n_rejected"] += 1
            h = h_try * max(0.1, min(0.9, 0.9 * err ** -0.2))
            landing = None
    return y, h, k1


def reference_dp45(ctx, q, rho, ell, tol, dim):
    """Terminal state and counts of the Prufer system by a generic DP45.

    A tableau loop over tuple states, with the package's right-hand
    sides evaluated per call (``Potential.value``, and the G table read
    by ``fast_abs_sp_pow`` or, for the amplitude, ``fast_pair``, on
    every call) and its step control: dim = 1 is the phase, 2 adds
    log R, 3 the sensitivity's lanes v and m.  With G = |S_p(phi)|^p,
    Q = q*rho^(1-p), Q' = (dq/dx)*rho^(1-p) on the piece and
    phi' = rho - Q*G, they are m' = Q'*G/(p*phi') and
    v' = e^(-p*m)*(rho + (p-1)*Q*G)/phi', and at ell
    log R = -ln(phi'/rho)/p - m and u = d(phi)/d(rho) = e^(p*m)*(phi'/rho)*v,
    with phi'(ell) the last slope; a slope phi' <= 0 raises
    ``IntegrationError``.  Each piece steps mu = m + ln(L/L0)/p in place
    of m, L = rho - Q*G0 with G0 = G where the piece starts (0 if L would
    not stay positive up to the piece's right knot) and L0 = L there, so
    mu' = Q'*rho*(G - G0)/(p*phi'*L) and e^(-p*m) = e^(-p*mu)*L/L0; m is
    read back at the end of the piece.  For p != 2 the steps land on the levels
    k*pi_p/2 of the phase, whatever ``dim``, by prediction and by the
    Hermite fallback.  The phase (dim = 1, and dim = 3) also corrects the
    leading singular term C*t^a of its slope next to a level, t the
    x-distance from it and k the slope there: a = p and
    C = -Q*|k|^p at a zero, a = p/(p-1) and C = Q*((p-1)*|k|)^a at an
    extremum.  A step of length h that leaves a level (k its opening
    slope, Q at its start) adds C*h^(a+1)*(1/(a+1) - sum_i b_i c_i^a) to
    phi; one aimed at a level (k = rho at a zero and rho - Q at an
    extremum, Q at its end) does the same with 1 - c_i for c_i.  The
    next term, C1*t^(a+1), with Q' of the step's
    piece, has C1 = -Q'*|k|^a at a zero and
    Q'*(1 - a*Q/(2k))*((p-1)*|k|)^a at an extremum for a step that
    leaves the level, and the negatives for one aimed at it; the step
    adds C1*h^(a+2)*(1/(a+2) - sum_i b_i c_i^(a+1)) the same way.  A
    lane with slope F takes the same two terms with -dF/dG in place of Q
    and -(d/dx(dF/dG) + dF/dG*a*Q'/(2k)) in place of Q'*(1 - a*Q/(2k))
    (without the last term at a zero), all read at the level with phi' =
    k, G = 0 at a zero and 1 at an extremum, and m at the step's start
    for a step that leaves the level and at its 5th-order end for one
    aimed at it: dF/dG = p*rho*Q*e^(-p*m)/k^2 and d/dx(dF/dG) =
    p*rho^2*Q'*e^(-p*m)/k^3 for v, and dF/dG = Q'*rho/(p*k^2) and
    d/dx(dF/dG) = 2*rho*Q'^2*G/(p*k^3) for m.  Where
    min(p, p/(p-1)) >= 3/2 the estimate drops C*h^(a+1)*sum_i e_i c_i^a
    and C1*h^(a+2)*sum_i e_i c_i^(a+1) (with the same substitution) and
    no step is weighted; elsewhere the weights are 3 and 10, as they are
    for the amplitude.  The stage-unrolled kernel must match it bit for
    bit.  Returns a dict with ``phi_end``, ``logr_end``, ``u_end`` (None
    where not integrated), ``n_steps``, ``n_rejected``, ``n_landed`` and
    ``n_rhs``.
    """
    from plapeig.ptrig import fast_pair

    p = ctx.p
    inv_rho_pm1 = rho ** (1.0 - p)
    qval = q.value

    def rhs_of(x_start, phi_start):
        """The piece's right-hand side and, for dim = 3, its map from the
        piece's lane mu to m."""
        x0, x1, q0, dq = q.piece(x_start)
        dqx = dq / (x1 - x0) * inv_rho_pm1  # Q' of the piece

        if dim == 3:
            g_bar = fast_abs_sp_pow(ctx, phi_start)
            if not rho - (q0 + dq) * inv_rho_pm1 * g_bar > 0.0:
                g_bar = 0.0
            l_start = rho - qval(x_start) * inv_rho_pm1 * g_bar

            def to_m(x, mu):
                return mu - math.log((rho - qval(x) * inv_rho_pm1 * g_bar)
                                     / l_start) / p

            def f(x, y):
                phi, _, mu = y
                g = fast_abs_sp_pow(ctx, phi)
                big_q = qval(x) * inv_rho_pm1
                dphi = rho - big_q * g
                if not dphi > 0.0:
                    raise IntegrationError(f"phase stalls at x={x!r}", last_x=x)
                lx = rho - big_q * g_bar
                return (dphi,
                        math.exp(-p * mu) * (lx / l_start)
                        * (rho + (p - 1.0) * big_q * g) / dphi,
                        dqx * rho * (g - g_bar) / (p * dphi * lx))
            return f, to_m
        if dim == 2:
            def f(x, y):
                s, c = fast_pair(ctx, y[0])
                coef = qval(x) * inv_rho_pm1
                return (rho - coef * abs(s) ** p,
                        coef * math.copysign(abs(s) ** (p - 1.0), s) * c)
        else:
            def f(x, y):
                return (rho - qval(x) * inv_rho_pm1 * fast_abs_sp_pow(ctx, y[0]),)
        return f, None

    spacing = 0.5 * ctx.pi_p if p != 2.0 else None
    light = min(p, p / (p - 1.0)) >= 1.5

    def defect(level, x, h, slope, aimed, state):
        odd = level % 2 == 1
        sign, g, a = (1.0, p - 1.0, p / (p - 1.0)) if odd else (-1.0, 1.0, p)
        cs = [1.0 - c if aimed else c for c in _DP_C]
        powers = [(c ** a,) for c in cs]
        db = sign * (1.0 / (a + 1.0) - _dot(_DP_A[6], powers, 0))
        de = sign * _dot(_DP_E, powers, 0) if light else 0.0
        # the t^(a+1) term: Q' = dq/dx*rho^(1-p) of the step's piece, and
        # at an extremum the phase's curvature phi'' = -Q' there
        side = -sign if aimed else sign
        powers = [(c ** (a + 1.0),) for c in cs]
        db1 = side * (1.0 / (a + 2.0) - _dot(_DP_A[6], powers, 0))
        de1 = side * _dot(_DP_E, powers, 0) if light else 0.0
        x0, x1, _, dq = q.piece(x)
        dqx = dq / (x1 - x0) * inv_rho_pm1
        qx = qval(x + h if aimed else x) * inv_rho_pm1
        if aimed:
            slope = rho - qx if odd else rho
        c1 = dqx * (1.0 - a * qx / (2.0 * slope)) if odd and slope else dqx
        # the (Q, c1) of each component: the phase's, then v's and m's
        pairs = [(qx, c1)]
        if dim == 3:
            r = rho / (slope * slope)
            e = math.exp(-p * to_m(x + h if aimed else x, state[2]))
            if odd:
                pairs += [(-p * r * qx * e,
                           -p * r * dqx * e * (rho - 0.5 * a * qx) / slope),
                          (-dqx * r / p,
                           -dqx * dqx * r * (2.0 - 0.5 * a) / (p * slope))]
            else:
                pairs += [(-p * r * qx * e, -p * r * dqx * e * rho / slope),
                          (-dqx * r / p, 0.0)]
        t = h * (g * abs(slope * h)) ** a
        return (tuple(t * (b * db + b1 * h * db1) for b, b1 in pairs),
                tuple(t * (b * de + b1 * h * de1) for b, b1 in pairs))

    singular = spacing and dim != 2
    y = (0.0,) * dim
    # phi(0) = 0 sits on the level 0
    counters = {"n_steps": 0, "n_rejected": 0, "n_landed": 0, "n_rhs": 0,
                "level": 0, "on_level": spacing is not None}
    bounds = [0.0] + [b for b in q.interior_knots() if 0.0 < b < ell] + [ell]
    h = min(ell, 0.1 * ctx.pi_p / rho)
    for a, b in zip(bounds, bounds[1:]):
        f, to_m = rhs_of(a, y[0])
        y, h, k1 = _reference_piece(
            f, a, y, b, h, tol, counters, spacing, bounds[-1],
            defect if singular else None,
            (1.0, 1.0) if singular and light else (3.0, 10.0))
        if to_m:
            y = (y[0], y[1], to_m(b, y[2]))
    del counters["level"], counters["on_level"]
    logr = u = None
    if dim == 2:
        logr = y[1]
    elif dim == 3:
        w = k1[0] / rho
        logr, u = -math.log(w) / p - y[2], math.exp(p * y[2]) * w * y[1]
    return {"phi_end": y[0], "logr_end": logr, "u_end": u, **counters}


def variational_theta_dot(ctx, q, rho, ell, tol):
    """d(theta)/d(rho) at ell from the variational equation of the phase,
    u' = a*u + b with a = -p*Q*S_p^(p-1)*S_p' and b = 1 + (p-1)*(Q/rho)*G,
    integrated with phi and log R' = Q*S_p^(p-1)*S_p' by the generic
    tableau loop: the levels are landed, steps next to one are weighted 3
    and 10, and no singular term is corrected.  Its lanes carry S_p' and
    so are rough at the levels, which the package's lanes are not: an
    accuracy oracle at a tight ``tol``, not one matched bit for bit."""
    from plapeig.ptrig import fast_pair

    p = ctx.p
    inv_rho_pm1 = rho ** (1.0 - p)

    def f(x, y):
        s, c = fast_pair(ctx, y[0])
        big_q = q.value(x) * inv_rho_pm1
        g = abs(s) ** p
        odd = math.copysign(abs(s) ** (p - 1.0), s) * c
        return (rho - big_q * g, big_q * odd,
                -p * big_q * odd * y[2] + 1.0 + (p - 1.0) * big_q / rho * g)

    spacing = 0.5 * ctx.pi_p if p != 2.0 else None
    counters = {"n_steps": 0, "n_rejected": 0, "n_landed": 0, "n_rhs": 0,
                "level": 0, "on_level": spacing is not None}
    bounds = [0.0] + [b for b in q.interior_knots() if 0.0 < b < ell] + [ell]
    y = (0.0, 0.0, 0.0)
    h = min(ell, 0.1 * ctx.pi_p / rho)
    for a, b in zip(bounds, bounds[1:]):
        y, h, _ = _reference_piece(f, a, y, b, h, tol, counters, spacing,
                                   bounds[-1])
    return (rho * y[2] - y[0]) / rho ** 2


def count_sign_changes(values, floor_rel=1e-9):
    """Strict sign alternations of a sampled function, skipping samples
    below a relative noise floor."""
    arr = np.asarray(values, dtype=float)
    floor = floor_rel * np.max(np.abs(arr))
    signs = np.sign(arr[np.abs(arr) > floor])
    return int(np.count_nonzero(signs[1:] != signs[:-1]))
