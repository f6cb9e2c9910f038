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
step-size control.  Stiffness is not a concern.  Interior knots of
piecewise-linear potentials are forced to be step boundaries because
the right-hand side is only C0 there.  The phase is never reduced modulo
the period during integration; it accumulates so that the Dirichlet
eigencondition phi(ell) = n*pi_p indexes eigenvalues unambiguously.

For p != 2 the phase right-hand side is also not smooth in phi at the
quarter points k*pi_p/2: |S_p|^p behaves like |phi - k*pi_p|^p at the
zeros of S_p and like 1 - c*|phi - (k+1/2)*pi_p|^(p/(p-1)) at its
extrema.  A step that straddles such a point carries an error the DP45
estimate does not see, and where the straddle falls moves with rho, so
phi(ell, rho) jitters in rho far above the local tolerance.  The phase
kernel therefore ends a step on every level k*pi_p/2 the phase reaches.
Before each trial it predicts the distance to the next level from the
slope phi' and, when the trial would reach that level, shortens it to
end there; a trial that still passes a level is replaced by a shorter
one that ends where the cubic Hermite dense output of the trial meets
it (Hairer, Norsett and Wanner, Solving ODEs I, II.6).  On a step that
leaves a level or is aimed at one, the phase slope carries a term
C*t^a in the x-distance t from the level, with a non-integer a (p at a
zero, p/(p-1) at an extremum), which the tableau integrates with a
defect of one sign and its estimate under-reads (II.4).  The phase
adds that defect to its step and, where min(p, p/(p-1)) >= 3/2, takes
the term off its estimate; below 3/2 the next terms are as large, so
the estimate keeps them and the error norm of a step that starts or
ends on a level is weighted instead.  At p = 2, |S_2|^2 = sin^2 is
analytic, so no level is landed and results keep their bits.  The
amplitude and sensitivity integrations land too: the levels are those
of their phase, and their steps next to a level are weighted.

One stage-unrolled kernel, ``_kernel``, runs the pair for every
integration, so the step control, the step budget, the snap rule and
the landings live in one place.  The phase alone steps on a plain
float, with named stages k1..k7 and counts in local ints; the
eigenvalue search uses only this path.  For amplitude and sensitivity
the lanes log R and u ride along through a branch at each stage, and
the accepted steps are kept as dense output.

The kernel steps knot to knot, so on each of its pieces q is one affine
function.  It asks ``_integrate`` for the right-hand side of a piece
once, when the piece starts: that closure holds the potential's affine
piece (``Potential.piece``, in the arithmetic of ``Potential.value``)
and the context's p-sine table.  The phase closure reads |S_p|^p off
the table itself, in the arithmetic of ``PContext.fold`` and through
the same index, so a phase evaluation is the one call to the closure,
with no knot lookup; the amplitude and sensitivity closures call the
bound fold.  Only the c = 1 stages of a piece's last step, which land
on its right knot or an ulp past it, read q through
``Potential.value``, which takes the next piece there.

Every sum is added left to right in tableau order, so the kernel
reproduces a generic tableau loop bit for bit: terminal values, step
sequence and counts.  The test oracle ``reference_dp45`` is that loop,
landings included, with the right-hand sides evaluated the per-call
way, and the tests compare with ``==``.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

from .config import SolverConfig
from .errors import DomainError, IntegrationError, StateError
from .potentials import Potential
from .ptrig import PContext, sp_pair

# rho beyond this is accepted but flagged: b(x) -> 1 and theta -> ell,
# so sensitivity output carries heavy cancellation
RHO_CONDITIONING_LIMIT = 1e8


@dataclass(frozen=True)
class PruferTrajectory:
    """Result of one integration over [0, ell].

    ``dense_x``/``dense_phi``/``dense_logr`` (and matching derivative
    tuples) hold, as floats, the accepted steps of an amplitude or
    sensitivity integration for reconstruction, the steps landed on the
    levels k*pi_p/2 included; a phase-only integration keeps none, so
    all five are None there.  ``logr_end`` is None when amplitude was not
    requested, ``u_end`` when sensitivity was not.  ``stats`` holds the
    step, reject, landing and RHS counts.  Immutable once built.
    """

    ctx: PContext
    rho: float
    ell: float
    phi_end: float
    theta_end: float
    logr_end: float | None
    u_end: float | None
    stats: dict = field(repr=False, compare=False)
    dense_x: tuple | None = field(default=None, repr=False, compare=False)
    dense_phi: tuple | None = field(default=None, repr=False, compare=False)
    dense_dphi: tuple | None = field(default=None, repr=False, compare=False)
    dense_logr: tuple | None = field(default=None, repr=False, compare=False)
    dense_dlogr: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def theta_dot_end(self) -> float:
        """d(theta)/d(rho) at ell, from the co-integrated sensitivity."""
        if self.u_end is None:
            raise StateError("trajectory was integrated without sensitivity")
        return (self.rho * self.u_end - self.phi_end) / self.rho ** 2


# Dormand-Prince 4(5) pair.  _Aij: weight of slope j in stage i; row 7
# is the 5th-order solution, so k7 is the next step's k1 (FSAL).  _Ej:
# 5th- minus 4th-order weights.  The zero entries a72 and e2 are left
# out of the sums: a term 0*k can change only the sign of a zero sum.
_C2, _C3, _C4, _C5 = 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0  # c6 = c7 = 1
_A21 = 1.0 / 5.0
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = (19372.0 / 6561.0, -25360.0 / 2187.0,
                          64448.0 / 6561.0, -212.0 / 729.0)
_A61, _A62, _A63, _A64, _A65 = (9017.0 / 3168.0, -355.0 / 33.0,
                                46732.0 / 5247.0, 49.0 / 176.0,
                                -5103.0 / 18656.0)
_A71, _A73, _A74, _A75, _A76 = (35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0,
                                -2187.0 / 6784.0, 11.0 / 84.0)
_E1, _E3, _E4, _E5, _E6, _E7 = (71.0 / 57600.0, -71.0 / 16695.0,
                                71.0 / 1920.0, -17253.0 / 339200.0,
                                22.0 / 525.0, -1.0 / 40.0)
# nodes, row 7 and the estimate's weights as full rows, for _level_terms
_C = (0.0, _C2, _C3, _C4, _C5, 1.0, 1.0)
_B = (_A71, 0.0, _A73, _A74, _A75, _A76, 0.0)
_E = (_E1, 0.0, _E3, _E4, _E5, _E6, _E7)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 6.0
# PI controller exponents for a 5th-order error estimate
_PI_ALPHA = 0.17
_PI_BETA = 0.04
# at p != 2: a step whose phase ends within _LEVEL_WINDOW*pi_p/2 of a
# level k*pi_p/2 sits on it, and where _level_terms keeps the estimate
# uncorrected, the error norm of a step that starts on a level is
# weighted by _START_WEIGHT, of one aimed at a level by _END_WEIGHT: the
# DP45 estimate under-reads those steps by 5-23x
_LEVEL_WINDOW = 1e-7
_START_WEIGHT = 3.0
_END_WEIGHT = 10.0


@functools.lru_cache(maxsize=None)
def _level_terms(p):
    """Weights and singular-term defects of the phase steps next to a
    level k*pi_p/2 at p != 2, as ((start weight, end weight), (zero,
    extremum)).

    Next to a level the phase slope carries the term C*t^a, t the
    x-distance from the level, k the slope phi' there and Q =
    q*rho^(1-p): at a zero a = p and C = -Q*|k|^p, at an extremum a = p'
    = p/(p-1) and C = Q*((p-1)*|k|)^p'.  Each kind is (g, a, leave,
    aim): a step of length h with T = Q*h*(g*|k*h|)^a adds T*db to phi
    and takes T*de off the estimate, where (db, de) = sign(C)*(1/(a+1) -
    sum b_i c_i^a, sum e_i c_i^a) for a step that leaves the level and
    the same with 1 - c_i for one aimed at it; the sums run in tableau
    order.  Where min(p, p') < 3/2 the terms t^(a+1) and t^(2a) left out
    are as large as this one, so de = 0 and the weights stay; elsewhere
    the estimate drops the term and the weights are 1.
    """
    light = min(p, p / (p - 1.0)) >= 1.5
    kinds = []
    for sign, g, a in ((-1.0, 1.0, p), (1.0, p - 1.0, p / (p - 1.0))):
        ends = []
        for cs in (_C, tuple(1.0 - c for c in _C)):
            db = de = 0.0
            for b, e, c in zip(_B, _E, cs):
                db += b * c ** a
                de += e * c ** a
            ends.append((sign * (1.0 / (a + 1.0) - db), sign * de if light else 0.0))
        kinds.append((g, a, *ends))
    weights = (1.0, 1.0) if light else (_START_WEIGHT, _END_WEIGHT)
    return weights, tuple(kinds)


def _hermite_crossing(y0, y1, d0, d1, level):
    """theta in (0, 1] where the cubic Hermite with end values y0, y1 and
    end slopes d0, d1 (per unit theta) equals ``level``: three Newton
    steps from the linear estimate, enough for a crossing bracketed by
    y0 and y1 on a step the error control accepted."""
    c2 = 3.0 * (y1 - y0) - 2.0 * d0 - d1
    c3 = d0 + d1 - 2.0 * (y1 - y0)
    g0 = y0 - level
    theta = (level - y0) / (y1 - y0)
    for _ in range(3):
        theta -= ((g0 + theta * (d0 + theta * (c2 + theta * c3)))
                  / (d0 + theta * (2.0 * c2 + theta * (3.0 * c3))))
    return theta


def _kernel(rhs, bounds, h, tol, stats, spacing, dim, rho, terms):
    """Adaptive DP45 on the first ``dim`` components of (phi, log R, u),
    all 0 at bounds[0].

    ``rhs(x)`` hands out the right-hand side ``f`` of the piece of
    ``bounds`` that starts at x and ``coef``, which reads Q =
    q*rho^(1-p) as ``f`` reads q; the kernel asks for them once per
    piece.  With dim = 1 the phase steps alone on a plain float and
    ``f(x, phi) -> phi'``.  With dim = 2 or 3 the lanes log R and u ride
    along and ``f(x, phi, u) -> (phi', (log R)', u')``; log R enters no
    right-hand side, so only its 5th-order value is formed.  The error
    norm is the RMS over ``dim`` components: with dim = 2 ``f`` returns
    u' = 0, so u stays 0 and adds exactly 0 to the norm.  Each piece of
    ``bounds`` starts with a fresh slope and a fresh controller memory;
    the step size carries over.  Returns (phi, log R, u) at the last
    bound and, when the lanes ride along, the list of accepted states
    (x, phi, phi', log R, (log R)'), whose first entry holds the first
    piece's opening slope; else None.

    With ``spacing`` (pi_p/2 for p != 2, None at p = 2) every level
    k*spacing the phase reaches becomes a step boundary.  The kernel
    keeps the last level L the phase sat on (first 0) and the open cell
    (L - spacing, L + spacing) around it.  Before each trial it predicts
    the x-distance d = (L' - phi)/k1 to the next level L' in the
    direction of k1; when d is no longer than the step about to be
    tried, the trial takes length d instead, unless its end falls
    within ``snap`` of the piece end.  A step whose phase ends within
    the window ``_LEVEL_WINDOW*spacing`` of an end of the cell sits on
    that level.  A step that takes phi farther past an end of the cell
    is discarded: the crossing theta of that level on the trial's cubic
    Hermite (phi, phi_new, h*k1, h*k7) is found by three Newton steps
    from the linear estimate, and the step of length theta*h is taken
    in its place and sits on the level.  A crossing within ``snap`` of
    either end of the trial keeps the trial.  The right-hand side is
    smooth between levels, so a step straddles a non-smooth point of
    |S_p|^p by no more than the window or the error of the Hermite
    estimate.  A step starts on the level the phase last sat on while
    the phase is still within the window of it, so a sliver of a step
    before a knot does not change how the step after it is treated.

    The steps next to a level carry the singular term of the phase
    slope that ``_level_terms(p)`` describes.  With ``terms``, its
    value (the phase alone at p != 2), a step that starts on a level
    takes that level's defect with slope k1 and Q read at x, and a step
    aimed at a level (predicted or Hermite) takes it with slope rho at
    a zero and rho - Q at an extremum and Q read at x + h, before k7 is
    evaluated; the estimate drops what ``terms`` says it under-reads,
    and its weights multiply the error norm of a step that starts on a
    level and of one aimed at a level.  Without ``terms`` (amplitude
    and sensitivity) no step is corrected and the weights are
    ``_START_WEIGHT`` and ``_END_WEIGHT``.  ``snap``, which is also the
    step floor, is 1e-14 relative to the last bound ell, so a tiny
    interval steps as a unit one does.

    The step, reject and RHS counts and ``n_landed``, the discarded
    trials (six RHS evaluations each), go to ``stats``, also when the
    integration fails.
    """
    abs_tol, rel_tol, max_steps = tol.abs_tol, tol.rel_tol, tol.max_steps
    lanes = dim > 1
    ell = bounds[-1]
    (w_start, w_end), kinds = terms or ((_START_WEIGHT, _END_WEIGHT), None)
    phi = lr = u = 0.0
    k = dk = 0  # the phase last sat on the level k*spacing
    if spacing:
        # a phase past either bound has reached the level next to it
        win = _LEVEL_WINDOW * spacing
        lo_level, hi_level = win - spacing, spacing - win
    else:
        lo_level, hi_level = -math.inf, math.inf
    on_level = bool(spacing)  # phi(0) = 0 is the level 0
    n_steps = n_rejected = n_landed = n_rhs = 0
    snap = 1e-14 * ell  # every x lies in [0, ell]
    dense = [] if lanes else None
    try:
        for x, x_end in zip(bounds, bounds[1:]):
            f, coef = rhs(x)
            if lanes:
                k1, l1, u1 = f(x, phi, u)
                if not dense:
                    dense.append((x, phi, k1, lr, l1))
            else:
                k1 = f(x, phi)
            n_rhs += 1
            err_old = 1e-4
            land = 0.0  # length of a pending step onto a level, else 0
            while x < x_end:
                if n_steps + n_rejected + n_landed >= max_steps:
                    raise IntegrationError(
                        f"step budget {max_steps} exhausted at x={x!r}", last_x=x)
                weight = w_start if on_level else 1.0
                aim = None  # the level a step aimed at one ends on
                if land:
                    ht = land
                    aim = k + dk
                    weight *= w_end
                else:
                    rest = x_end - x
                    ht = rest if rest < h else h
                    if spacing and k1:
                        # predicted landing on the next level ahead
                        ahead = k + 1 if k1 > 0.0 else k - 1
                        d = (ahead * spacing - phi) / k1
                        if d <= ht and x_end - (x + d) >= snap:
                            ht = d
                            aim = ahead
                            weight *= w_end
                if ht < snap:
                    raise IntegrationError(
                        f"step size underflow at x={x!r}", last_x=x)

                y = phi + ht * (_A21 * k1)
                if lanes:
                    k2, l2, u2 = f(x + _C2 * ht, y, u + ht * (_A21 * u1))
                else:
                    k2 = f(x + _C2 * ht, y)
                y = phi + ht * (_A31 * k1 + _A32 * k2)
                if lanes:
                    k3, l3, u3 = f(x + _C3 * ht, y,
                                   u + ht * (_A31 * u1 + _A32 * u2))
                else:
                    k3 = f(x + _C3 * ht, y)
                y = phi + ht * (_A41 * k1 + _A42 * k2 + _A43 * k3)
                if lanes:
                    k4, l4, u4 = f(x + _C4 * ht, y,
                                   u + ht * (_A41 * u1 + _A42 * u2 + _A43 * u3))
                else:
                    k4 = f(x + _C4 * ht, y)
                y = phi + ht * (_A51 * k1 + _A52 * k2 + _A53 * k3 + _A54 * k4)
                if lanes:
                    k5, l5, u5 = f(x + _C5 * ht, y,
                                   u + ht * (_A51 * u1 + _A52 * u2 + _A53 * u3
                                             + _A54 * u4))
                else:
                    k5 = f(x + _C5 * ht, y)
                y = phi + ht * (_A61 * k1 + _A62 * k2 + _A63 * k3 + _A64 * k4
                                + _A65 * k5)
                if lanes:
                    k6, l6, u6 = f(x + ht, y,
                                   u + ht * (_A61 * u1 + _A62 * u2 + _A63 * u3
                                             + _A64 * u4 + _A65 * u5))
                else:
                    k6 = f(x + ht, y)
                phi_new = phi + ht * (_A71 * k1 + _A73 * k3 + _A74 * k4
                                      + _A75 * k5 + _A76 * k6)
                te = 0.0
                if lanes:
                    u_new = u + ht * (_A71 * u1 + _A73 * u3 + _A74 * u4
                                      + _A75 * u5 + _A76 * u6)
                    k7, l7, u7 = f(x + ht, phi_new, u_new)
                else:
                    # the singular terms of the levels the step leaves
                    # and is aimed at, which the tableau misreads
                    if kinds and on_level:
                        g, a, (db, de), _ = kinds[k & 1]
                        t = coef(x) * ht * (g * abs(k1 * ht)) ** a
                        phi_new += t * db
                        te = t * de
                    if kinds and aim is not None:
                        g, a, _, (db, de) = kinds[aim & 1]
                        qe = coef(x + ht)
                        slope = rho - qe if aim & 1 else rho
                        t = qe * ht * (g * abs(slope * ht)) ** a
                        phi_new += t * db
                        te += t * de
                    k7 = f(x + ht, phi_new)
                n_rhs += 6

                e = ht * (_E1 * k1 + _E3 * k3 + _E4 * k4 + _E5 * k5 + _E6 * k6
                          + _E7 * k7) - te
                err = (e / (abs_tol + rel_tol * max(abs(phi), abs(phi_new)))) ** 2
                if lanes:
                    lr_new = lr + ht * (_A71 * l1 + _A73 * l3 + _A74 * l4
                                        + _A75 * l5 + _A76 * l6)
                    el = ht * (_E1 * l1 + _E3 * l3 + _E4 * l4 + _E5 * l5
                               + _E6 * l6 + _E7 * l7)
                    eu = ht * (_E1 * u1 + _E3 * u3 + _E4 * u4 + _E5 * u5
                               + _E6 * u6 + _E7 * u7)
                    err = (err
                           + (el / (abs_tol + rel_tol * max(abs(lr), abs(lr_new)))) ** 2
                           + (eu / (abs_tol + rel_tol * max(abs(u), abs(u_new)))) ** 2
                           ) / dim
                err = math.sqrt(err) * weight

                if err <= 1.0:
                    if land or phi_new >= hi_level or phi_new <= lo_level:
                        if not land:
                            dk = 1 if phi_new >= hi_level else -1
                            level = (k + dk) * spacing
                            if abs(phi_new - level) > win:
                                land = ht * _hermite_crossing(
                                    phi, phi_new, ht * k1, ht * k7, level)
                                if land >= snap and x_end - (x + land) >= snap:
                                    n_landed += 1  # discard: land next attempt
                                    continue
                        # on the level: landed, within the window, or the
                        # crossing is an end of the trial, which is kept
                        k += dk
                        lo_level = (k - 1) * spacing + win
                        hi_level = (k + 1) * spacing - win
                        land = 0.0
                        on_level = True
                    elif spacing:
                        # a step that stays within the window of its
                        # level leaves the next one starting on it
                        on_level = abs(phi_new - k * spacing) <= win
                    x_new = x + ht
                    x = x_end if x_end - x_new < snap else x_new
                    phi, k1 = phi_new, k7
                    n_steps += 1
                    if lanes:
                        lr, u, l1, u1 = lr_new, u_new, l7, u7
                        dense.append((x, phi, k1, lr, l1))
                    if ht >= h:  # not shortened by a boundary: PI rescale
                        h = ht * (_MAX_FACTOR if err == 0.0 else min(
                            _MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * err ** -_PI_ALPHA
                                             * err_old ** _PI_BETA)))
                    err_old = max(err, 1e-4)
                else:
                    n_rejected += 1
                    h = ht * max(0.1, min(0.9, _SAFETY * err ** -0.2))
                    land = 0.0
    finally:
        stats.update(n_steps=n_steps, n_rejected=n_rejected, n_rhs=n_rhs,
                     n_landed=n_landed)
    return (phi, lr, u), dense


def _integrate(ctx: PContext, q: Potential, rho: float, ell: float,
               tol: SolverConfig, dim: int) -> PruferTrajectory:
    """One integration over [0, ell] of the first ``dim`` components of
    (phi, log R, u): 1 is the phase alone, 2 adds the amplitude, 3 the
    sensitivity."""
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
    pm1 = p - 1.0
    inv_p = 1.0 / p
    neg_p = -p
    inv_rho_pm1 = rho ** (1.0 - p)
    inv_rho_p = rho ** -p
    fold = ctx.fold
    qval = q.value
    # the table and its index, which the phase reads inline (see f below)
    pi_p = ctx.pi_p
    two_pi = 2.0 * pi_p
    half_pi = 0.5 * pi_p
    floor, sqrt = math.floor, math.sqrt
    xs, ss, cs, c2, c3 = ctx._xs, ctx._ss, ctx._cs, ctx._c2, ctx._c3
    scale, start, split, lo_scale, lo, hi_top, hi_scale, hi, right = ctx._index

    bounds = [0.0] + [b for b in q.interior_knots() if 0.0 < b < ell] + [ell]
    h = min(ell, 0.1 * ctx.pi_p / rho)
    stats = {"n_steps": 0, "n_rejected": 0, "n_landed": 0, "n_rhs": 0,
             "n_pieces": len(bounds) - 1,
             "rel_tol": tol.rel_tol, "abs_tol": tol.abs_tol,
             "warnings": tuple(stats_warnings)}

    def rhs(x_start):
        # q on the kernel piece from x_start is the potential's affine
        # piece there, in the arithmetic of Potential.value; from its
        # right knot x1 on (where the c = 1 stages of the last step
        # land) value reads the next piece, so value answers there
        x0, x1, q0, dq = q.piece(x_start)
        dx = x1 - x0

        def coef(x):  # Q = q*rho^(1-p), read as f reads q
            return (q0 + ((x - x0) / dx) * dq if x < x1 else qval(x)) * inv_rho_pm1
        if dim == 1:
            def f(x, phi):
                # fold(phi)[1], in the arithmetic of PContext.fold
                r = phi - two_pi * floor(phi / two_pi)
                if not 0.0 <= r < two_pi:
                    r %= two_pi
                if r > pi_p:
                    r -= pi_p
                if r > half_pi:
                    r = pi_p - r
                i = start[floor(r * scale)]
                if i < 0:
                    if r < split:
                        i = lo[floor(sqrt(r) * lo_scale)]
                    else:
                        i = hi[floor((hi_top - sqrt(half_pi - r)) * hi_scale)]
                while right[i] <= r:
                    i += 1
                d = r - xs[i]
                s = ss[i] + d * (cs[i] + d * (c2[i] + d * c3[i]))
                if s > 1.0:
                    s = 1.0
                elif s < 0.0:
                    s = 0.0
                qx = q0 + ((x - x0) / dx) * dq if x < x1 else qval(x)
                return rho - qx * inv_rho_pm1 * s ** p
        # one fold per call: S_p = sign_s*s, S_p' = sign_c*(1 - s^p)^(1/p)
        # (as fast_pair forms it), |S_p|^p = s^p, S_p^(p-1) = sign_s*s^(p-1)
        elif dim == 3:
            def f(x, phi, u):
                _, s, sign_s, sign_c = fold(phi)
                abs_s_p = s ** p
                odd = sign_s * s ** pm1 * (sign_c * (1.0 - abs_s_p) ** inv_p)
                qx = q0 + ((x - x0) / dx) * dq if x < x1 else qval(x)
                coef = qx * inv_rho_pm1
                return (rho - coef * abs_s_p,
                        coef * odd,
                        neg_p * coef * odd * u + 1.0 + pm1 * qx * inv_rho_p * abs_s_p)
        else:
            def f(x, phi, u):
                _, s, sign_s, sign_c = fold(phi)
                abs_s_p = s ** p
                qx = q0 + ((x - x0) / dx) * dq if x < x1 else qval(x)
                coef = qx * inv_rho_pm1
                return (rho - coef * abs_s_p,
                        coef * (sign_s * s ** pm1) * (sign_c * (1.0 - abs_s_p) ** inv_p),
                        0.0)
        return f, coef

    spacing = None if p == 2.0 else half_pi
    try:
        (phi, logr, u), dense = _kernel(
            rhs, bounds, h, tol, stats, spacing, dim, rho,
            _level_terms(p) if spacing and dim == 1 else None)
    except IntegrationError as exc:  # name the integration that failed
        raise IntegrationError(f"{exc} (rho={rho:g}, ell={ell:g})", exc.last_x) from exc
    x_steps, phis, dphis, logrs, dlogrs = ((None,) * 5 if dense is None
                                           else tuple(zip(*dense)))
    return PruferTrajectory(
        ctx=ctx, rho=rho, ell=ell, phi_end=phi, theta_end=phi / rho,
        logr_end=logr if dim > 1 else None, u_end=u if dim == 3 else None,
        stats=stats, dense_x=x_steps, dense_phi=phis, dense_dphi=dphis,
        dense_logr=logrs, dense_dlogr=dlogrs)


def integrate_phase(ctx: PContext, q: Potential, rho: float, ell: float,
                    tol: SolverConfig = SolverConfig()) -> PruferTrajectory:
    """Integrate the phase equation with phi(0) = 0 up to x = ell.

    For q <= 0 the phase is strictly increasing (phi' >= rho > 0).  Only
    the terminal phase and the counts are kept: the dense output is None.
    """
    return _integrate(ctx, q, rho, ell, tol, 1)


def integrate_amplitude(ctx: PContext, q: Potential, rho: float, ell: float,
                        tol: SolverConfig = SolverConfig()) -> PruferTrajectory:
    """Phase plus log-amplitude with the normalization R(0) = 1.

    Integrating log R keeps R positive by construction.
    """
    return _integrate(ctx, q, rho, ell, tol, 2)


def integrate_sensitivity(ctx: PContext, q: Potential, rho: float, ell: float,
                          tol: SolverConfig = SolverConfig()) -> PruferTrajectory:
    """Phase, log-amplitude and the sensitivity u = d(phi)/d(rho).

    The variational route is the primary method for theta's
    rho-derivative; finite differences in rho are noisier at large rho
    and serve only as a test oracle.
    """
    return _integrate(ctx, q, rho, ell, tol, 3)


def _hermite(xq, xs, ys, ds):
    """Vectorized cubic Hermite evaluation on accepted-step data."""
    import numpy as np

    xs, ys, ds = np.asarray(xs), np.asarray(ys), np.asarray(ds)
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


def reconstruct_eigenfunction(traj: PruferTrajectory, samples: int = 513):
    """Sample y = R*S_p(phi) and y' = rho*R*S_p'(phi) on a uniform grid.

    Requires a trajectory with amplitude dense output.  Returns an
    ndarray of shape (samples, 3) with columns x, y, y'.
    """
    if traj.dense_logr is None:
        raise StateError("trajectory carries no amplitude dense output; "
                         "use integrate_amplitude or integrate_sensitivity")
    if samples < 2:
        raise DomainError("need at least 2 samples")
    import numpy as np

    xq = np.linspace(0.0, traj.ell, samples)
    phi = _hermite(xq, traj.dense_x, traj.dense_phi, traj.dense_dphi)
    logr = _hermite(xq, traj.dense_x, traj.dense_logr, traj.dense_dlogr)
    r = np.exp(logr)
    s, c = sp_pair(traj.ctx, phi)
    return np.column_stack((xq, r * s, traj.rho * r * c))
