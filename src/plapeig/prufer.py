"""Phase, amplitude and spectral-sensitivity integration.

With rho = lambda^(1/p) the substitution

    y(x) = R(x) * S_p(phi(x)),      y'(x) = rho * R(x) * S_p'(phi(x)),

turns the eigenvalue equation into the decoupled system

    phi'(x)        = rho - Q(x) * G,      phi(0) = 0,
    (log R)'(x)    = Q(x) * S_p(phi)^(p-1) * S_p'(phi),

with Q = q/rho^(p-1), G = |S_p(phi)|^p and f^(p-1) = |f|^(p-2) f.
Differentiating the phase equation in rho gives the sensitivity
u = d(phi)/d(rho):

    u' = a(x) u + b(x),   u(0) = 0,
    a  = -p * Q * S_p(phi)^(p-1) * S_p'(phi),
    b  = 1 + (p-1) * (Q/rho) * G,

from which the rho-derivative of the scaled phase theta = phi/rho at
the right endpoint is (rho*u - phi)/rho^2.  The slopes of log R and u
carry S_p^(p-1)*S_p', which is rough next to the quarter points of phi
(see below).  Since d/dx G = p * S_p^(p-1) * S_p' * phi', wherever
phi' > 0 both follow from lanes whose slopes depend on phi only
through G:

    log R = -ln(phi'/rho)/p - m,        m' = Q' * G / (p * phi'),
    u     = e^(p*m) * (phi'/rho) * v,   v' = e^(-p*m) * (rho + (p-1) * Q * G) / phi',

with m(0) = v(0) = 0 and Q' = (dq/dx)/rho^(p-1).  On a steep piece
Q' is large, and m follows ln(phi') across it faster than steps in x
can resolve, so each piece integrates mu = m + ln(L/L0)/p in place of
m, with L = rho - Q*G0, G0 the value of G where the piece starts and L0
that of L: L takes the part of ln(phi') that Q' drives in closed form,
and mu' = Q' * rho * (G - G0) / (p * phi' * L) stays bounded however
steep the piece (G0 is 0 where L would not stay positive on the
piece).  The sensitivity integrates (phi, v, mu) and forms log R and u
at the right endpoint from phi' there; it is defined where the phase
does not stall, which holds wherever q <= 0 (phi' >= rho there), and
raises ``IntegrationError`` naming the stall where some stage sees
phi' <= 0 or a step underflows while phi' is below 1e-6*rho, as it
does when phi' -> 0.  The amplitude integrates log R
itself, because eigenfunctions are reconstructed on potentials where
phi' can reach 0.

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
leaves a level or is aimed at one, the phase slope carries a term C*t^a
in the x-distance t from the level, with a non-integer a (p at a zero,
p/(p-1) at an extremum), which the tableau integrates with a defect of
one sign and its estimate under-reads (II.4).  The next term,
C1*t^(a+1), comes from the slope Q' of Q = q*rho^(1-p) on the piece and,
at an extremum, from the phase's curvature phi'' = -Q' there; it changes
sign with the direction of the step.  The phase adds the defects of both
terms to its step and, where min(p, p/(p-1)) >= 3/2, takes them off its
estimate; below 3/2 the terms t^(2a) are as large, so the estimate keeps
them and the error norm of a step that starts or ends on a level is
weighted instead.  At p = 2, |S_2|^2 = sin^2 is analytic, so no level is
landed and results keep their bits.  The amplitude and sensitivity
integrations land too: the levels are those of their phase.  The
sensitivity's lanes carry dF/dG times the phase's term, F a lane's
slope, so one defect computation per step feeds all three components,
and they share the phase's estimate and weights.  The amplitude's log R
carries S_p' itself; its steps next to a level are weighted.

One stage-unrolled kernel, ``_kernel``, runs the pair for every
integration, so the step control, the step budget, the snap rule and
the landings live in one place.  The phase alone steps on a plain
float, with named stages k1..k7 and counts in local ints; the
eigenvalue search uses only this path.  For amplitude and sensitivity
two lanes ride along through a branch at each stage.  The kernel keeps
the state at the end of each of its pieces and nothing in between, so
``reconstruct_eigenfunction`` makes its samples bounds of the kernel
and reads the integrated state there.

The kernel steps knot to knot, so on each of its pieces q is one affine
function.  It asks ``_integrate`` for the right-hand side of a piece
once, when the piece starts: that closure holds the potential's affine
piece (``Potential.piece``, in the arithmetic of ``Potential.value``)
and the context's tables.  The phase and sensitivity closures read G =
|S_p|^p off its own table inline, at phi mod pi_p reflected about
pi_p/2 (G has period pi_p and is even about pi_p/2) and through the
S_p table's index, so an evaluation is the one call to the closure,
with no knot lookup, quadrant sign or power; the amplitude closure,
which needs the sign and S_p', calls the bound fold.  Only the c = 1
stages of a piece's last step, which land on its right knot or an ulp
past it, read q through ``Potential.value``, which takes the next piece
there; Q' is the piece's throughout.

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
    """Result of one integration over [0, ell]: the terminal state and
    the counts.

    ``logr_end`` is None when amplitude was not requested, ``u_end`` when
    sensitivity was not.  ``stats`` holds the step, reject, landing and
    RHS counts.  Immutable once built.
    """

    rho: float
    ell: float
    phi_end: float
    theta_end: float
    logr_end: float | None
    u_end: float | None
    stats: dict = field(repr=False, compare=False)

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
# snap distance and step floor, relative to the last bound ell
_SNAP = 1e-14
# a sensitivity step underflows with phi' below _STALL*rho: the phase
# stalls (phi' is about 1e-11*rho on the stalls of tests/test_prufer.py)
_STALL = 1e-6


@functools.lru_cache(maxsize=None)
def _level_terms(p):
    """Weights and singular-term defects of the phase steps next to a
    level k*pi_p/2 at p != 2, as ((start weight, end weight), (zero,
    extremum)).

    Next to a level the phase slope carries the terms C*t^a and
    C1*t^(a+1), t the x-distance from the level, k the slope phi' there,
    Q = q*rho^(1-p) and Q' = (dq/dx)*rho^(1-p) on the piece.  At a zero
    a = p, C = -Q*|k|^a and C1 = -Q'*|k|^a.  At an extremum a = p' =
    p/(p-1), C = Q*((p-1)*|k|)^a and C1 = Q'*(1 - a*Q/(2k))*((p-1)*|k|)^a:
    the curvature phi'' = -Q' there bends the phase distance from the
    level to k*t - Q'*t^2/2.  The t^(a+1) term is odd in the direction
    of the step, so C1 changes sign for a step aimed at the level, with
    Q and k read at the level.  Each kind is (g, a, leave, aim), and
    each end is (db, de, db1, de1): a step of length h with P =
    h*(g*|k*h|)^a adds P*(Q*db + c1*h*db1) to phi and takes P*(Q*de +
    c1*h*de1) off the estimate, where c1 = Q' at a zero and
    Q'*(1 - a*Q/(2k)) at an extremum.  For a step that leaves the level
    (db, de) = sign(C)*(1/(a+1) - sum b_i c_i^a, sum e_i c_i^a) and
    (db1, de1) = sign(C)*(1/(a+2) - sum b_i c_i^(a+1), sum e_i
    c_i^(a+1)); for one aimed at it the same with 1 - c_i for c_i, and
    (db1, de1) negated.  The sums run in tableau order.  Where
    min(p, p') < 3/2 the terms t^(2a) left out are as large as these,
    so de = de1 = 0 and the weights stay; elsewhere the estimate drops
    both terms and the weights are 1.
    """
    light = min(p, p / (p - 1.0)) >= 1.5
    kinds = []
    for sign, g, a in ((-1.0, 1.0, p), (1.0, p - 1.0, p / (p - 1.0))):
        ends = []
        for side, cs in ((sign, _C), (-sign, tuple(1.0 - c for c in _C))):
            db = de = db1 = de1 = 0.0
            for b, e, c in zip(_B, _E, cs):
                db += b * c ** a
                de += e * c ** a
                db1 += b * c ** (a + 1.0)
                de1 += e * c ** (a + 1.0)
            ends.append((sign * (1.0 / (a + 1.0) - db),
                         sign * de if light else 0.0,
                         side * (1.0 / (a + 2.0) - db1),
                         side * de1 if light else 0.0))
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


def _lane_terms(p, rho, k, big_q, dq, m, a, odd):
    """The sensitivity lanes' stand-ins for the phase's Q and c1 on a
    step next to a level (see ``_level_terms``), as (Q_v, c1_v, Q_m,
    c1_m), with the phase slope k, Q = ``big_q`` and m read at the level
    and Q' = ``dq`` the piece's.

    There G = |S_p(phi)|^p carries a term that is not smooth, of which
    the phase slope rho - Q*G carries -Q times and a lane's slope F
    dF/dG times, so a lane takes the phase's defects with -dF/dG for Q:
    dF/dG = p*rho*Q*e^(-p*m)/k^2 for v and Q'*rho/(p*k^2) for m, read
    with phi' = k and G = 0 at a zero, 1 at an extremum.  For c1 it
    takes -(D' + dF/dG*kappa), with D' the x-derivative of dF/dG along
    the level, p*rho^2*Q'*e^(-p*m)/k^3 for v and 2*rho*Q'^2*G/(p*k^3)
    for m, and kappa = -a*Q'/(2k) from the phase's curvature at an
    extremum, 0 at a zero."""
    r = rho / (k * k)
    e = math.exp(-p * m)
    if odd:
        return (-p * r * big_q * e, -p * r * dq * e * (rho - 0.5 * a * big_q) / k,
                -dq * r / p, -dq * dq * r * (2.0 - 0.5 * a) / (p * k))
    return -p * r * big_q * e, -p * r * dq * e * rho / k, -dq * r / p, 0.0


def _kernel(rhs, bounds, h, tol, stats, spacing, dim, rho, p, terms):
    """Adaptive DP45 on the phase and, with dim = 2 or 3, two lanes, all
    0 at bounds[0].

    ``rhs(x, phi)`` hands out the right-hand side ``f`` of the piece of
    ``bounds`` that starts at x with the phase phi, ``coef``, which reads
    Q = q*rho^(1-p) as ``f`` reads q, the piece's slope
    Q' = (dq/dx)*rho^(1-p), and ``to_m``, None but for the sensitivity;
    the kernel asks for them once per piece.  With dim = 1 the phase steps
    alone on a plain float and ``f(x, phi) -> phi'``.  With dim = 2 or 3
    the lanes v and m ride along and ``f(x, phi, m) -> (phi', v', m')``:
    v enters no right-hand side, so only its 5th-order value is formed,
    and m is fed back through the stages.  The amplitude (dim = 2) has
    v = log R and m' = 0, so m stays 0 and adds exactly 0 to the error
    norm.  The sensitivity (dim = 3) steps each piece on the piece's own
    lane mu in place of m, and ``to_m(x, mu)`` gives m, which the kernel
    takes at the end of the piece and where a level step reads it.  The
    error norm is the RMS over ``dim`` components of z = e/scale, with
    scale = abs_tol + rel_tol*max(|y|, |y_new|): |z| at dim = 1, and
    sqrt((z*z + z_v*z_v + z_m*z_m)/dim) with the lanes.  A square is a
    product, not a power, so it overflows to inf, and the step is
    rejected, where a power would raise ``OverflowError``.  Each piece of
    ``bounds`` starts with a fresh slope and a fresh controller memory;
    the step size carries over.  Returns the list of states (phi, v, m)
    at the end of each piece, and the phase slope at the last one, which
    is the last step's k7.

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

    The steps next to a level carry the singular term of the phase slope
    that ``_level_terms(p)`` describes.  With ``terms``, its value (the
    phase and the sensitivity at p != 2), a step that starts on a level
    takes that level's defects with slope k1 and Q read at x, and a step
    aimed at a level (predicted or Hermite) takes them with slope rho at
    a zero and rho - Q at an extremum and Q read at x + h, before k7 is
    evaluated, and both read the piece's Q'.  One defect computation
    feeds every component: the sensitivity's lanes take it with the
    stand-ins for Q and c1 of ``_lane_terms``, read with m at x for a
    step that leaves a level and with the 5th-order m at x + h for one
    aimed at a level (mu differs from m by a function of x alone, so
    its stand-ins are m's).  The estimate of each component drops what
    ``terms`` says it under-reads, and its weights multiply the error
    norm of a step that starts on a level and of one aimed at a level.
    Without ``terms`` (the amplitude) no step is corrected and the
    weights are ``_START_WEIGHT`` and ``_END_WEIGHT``.  ``snap`` is
    1e-14 relative to the last bound ell, so a tiny interval steps as a
    unit one does.  It is also the step floor: a step shorter than snap
    is an underflow while the piece has snap or more to go, and a piece
    shorter than snap is taken as one step.  A sensitivity step that
    underflows with k1 below ``_STALL*rho`` is named a stall.

    The step, reject and RHS counts and ``n_landed``, the discarded
    trials (six RHS evaluations each), go to ``stats``, also when the
    integration fails.
    """
    abs_tol, rel_tol, max_steps = tol.abs_tol, tol.rel_tol, tol.max_steps
    # the tableau, the controller and sqrt as locals, which the step loop
    # reads faster than globals
    c2, c3, c4, c5 = _C2, _C3, _C4, _C5
    a21, a31, a32, a41, a42, a43 = _A21, _A31, _A32, _A41, _A42, _A43
    a51, a52, a53, a54 = _A51, _A52, _A53, _A54
    a61, a62, a63, a64, a65 = _A61, _A62, _A63, _A64, _A65
    a71, a73, a74, a75, a76 = _A71, _A73, _A74, _A75, _A76
    e1, e3, e4, e5, e6, e7 = _E1, _E3, _E4, _E5, _E6, _E7
    safety, neg_alpha, beta = _SAFETY, -_PI_ALPHA, _PI_BETA
    min_factor, max_factor = _MIN_FACTOR, _MAX_FACTOR
    sqrt = math.sqrt
    lanes = dim > 1
    ell = bounds[-1]
    (w_start, w_end), kinds = terms or ((_START_WEIGHT, _END_WEIGHT), None)
    phi = v = m = 0.0
    k = dk = 0  # the phase last sat on the level k*spacing
    if spacing:
        # a phase past either bound has reached the level next to it
        win = _LEVEL_WINDOW * spacing
        lo_level, hi_level = win - spacing, spacing - win
    else:
        lo_level, hi_level = -math.inf, math.inf
    on_level = bool(spacing)  # phi(0) = 0 is the level 0
    # every attempt is a step, a reject or a discarded trial
    attempts = n_rejected = n_landed = n_rhs = 0
    snap = _SNAP * ell  # every x lies in [0, ell]
    states = []
    try:
        for x, x_end in zip(bounds, bounds[1:]):
            f, coef, dcoef, to_m = rhs(x, phi)
            if lanes:
                k1, v1, m1 = f(x, phi, m)
            else:
                k1 = f(x, phi)
            n_rhs += 1
            err_old = 1e-4
            land = 0.0  # length of a pending step onto a level, else 0
            while x < x_end:
                if attempts >= max_steps:
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
                if ht < snap <= x_end - x:
                    if dim == 3 and k1 < _STALL * rho:
                        # the lanes' slopes carry 1/phi', so they shrink
                        # the steps while phi' -> 0, before a stage can
                        # read phi' <= 0
                        raise IntegrationError(
                            f"phase stalls: phi' = {k1!r} where the step size "
                            f"underflows at x={x!r}", last_x=x)
                    raise IntegrationError(
                        f"step size underflow at x={x!r}", last_x=x)

                y = phi + ht * (a21 * k1)
                if lanes:
                    k2, v2, m2 = f(x + c2 * ht, y, m + ht * (a21 * m1))
                else:
                    k2 = f(x + c2 * ht, y)
                y = phi + ht * (a31 * k1 + a32 * k2)
                if lanes:
                    k3, v3, m3 = f(x + c3 * ht, y,
                                   m + ht * (a31 * m1 + a32 * m2))
                else:
                    k3 = f(x + c3 * ht, y)
                y = phi + ht * (a41 * k1 + a42 * k2 + a43 * k3)
                if lanes:
                    k4, v4, m4 = f(x + c4 * ht, y,
                                   m + ht * (a41 * m1 + a42 * m2 + a43 * m3))
                else:
                    k4 = f(x + c4 * ht, y)
                y = phi + ht * (a51 * k1 + a52 * k2 + a53 * k3 + a54 * k4)
                if lanes:
                    k5, v5, m5 = f(x + c5 * ht, y,
                                   m + ht * (a51 * m1 + a52 * m2 + a53 * m3
                                             + a54 * m4))
                else:
                    k5 = f(x + c5 * ht, y)
                y = phi + ht * (a61 * k1 + a62 * k2 + a63 * k3 + a64 * k4
                                + a65 * k5)
                if lanes:
                    k6, v6, m6 = f(x + ht, y,
                                   m + ht * (a61 * m1 + a62 * m2 + a63 * m3
                                             + a64 * m4 + a65 * m5))
                else:
                    k6 = f(x + ht, y)
                phi_new = phi + ht * (a71 * k1 + a73 * k3 + a74 * k4
                                      + a75 * k5 + a76 * k6)
                te = 0.0
                if lanes:
                    v_new = v + ht * (a71 * v1 + a73 * v3 + a74 * v4
                                      + a75 * v5 + a76 * v6)
                    m_new = m + ht * (a71 * m1 + a73 * m3 + a74 * m4
                                      + a75 * m5 + a76 * m6)
                    tv = tm = 0.0
                # the singular terms of the levels the step leaves and is
                # aimed at, which the tableau misreads
                if kinds and on_level:
                    g, a, (db, de, db1, de1), _ = kinds[k & 1]
                    qx = coef(x)
                    c1 = (dcoef * (1.0 - a * qx / (2.0 * k1))
                          if k & 1 and k1 else dcoef)
                    kh = k1 * ht
                    t = ht * (g * (kh if kh > 0.0 else -kh)) ** a
                    phi_new += t * (qx * db + c1 * ht * db1)
                    te = t * (qx * de + c1 * ht * de1)
                    if lanes:
                        qv, cv, qm, cm = _lane_terms(p, rho, k1, qx, dcoef,
                                                     to_m(x, m), a, k & 1)
                        v_new += t * (qv * db + cv * ht * db1)
                        m_new += t * (qm * db + cm * ht * db1)
                        tv = t * (qv * de + cv * ht * de1)
                        tm = t * (qm * de + cm * ht * de1)
                if kinds and aim is not None:
                    g, a, _, (db, de, db1, de1) = kinds[aim & 1]
                    qe = coef(x + ht)
                    slope = rho - qe if aim & 1 else rho
                    c1 = (dcoef * (1.0 - a * qe / (2.0 * slope))
                          if aim & 1 and slope else dcoef)
                    kh = slope * ht
                    t = ht * (g * (kh if kh > 0.0 else -kh)) ** a
                    phi_new += t * (qe * db + c1 * ht * db1)
                    te += t * (qe * de + c1 * ht * de1)
                    if lanes:
                        if not slope > 0.0:
                            raise IntegrationError(
                                f"phase stalls: phi' = {slope!r} <= 0 at the "
                                f"level ahead of x={x!r}", last_x=x)
                        qv, cv, qm, cm = _lane_terms(p, rho, slope, qe, dcoef,
                                                     to_m(x + ht, m_new), a,
                                                     aim & 1)
                        v_new += t * (qv * db + cv * ht * db1)
                        m_new += t * (qm * db + cm * ht * db1)
                        tv += t * (qv * de + cv * ht * de1)
                        tm += t * (qm * de + cm * ht * de1)
                if lanes:
                    k7, v7, m7 = f(x + ht, phi_new, m_new)
                else:
                    k7 = f(x + ht, phi_new)
                n_rhs += 6

                # each component's error over its scale abs_tol + rel_tol*
                # max(|y|, |y_new|), the abs and the max written out
                e = ht * (e1 * k1 + e3 * k3 + e4 * k4 + e5 * k5 + e6 * k6
                          + e7 * k7) - te
                s0 = phi if phi > 0.0 else -phi
                s1 = phi_new if phi_new > 0.0 else -phi_new
                z = e / (abs_tol + rel_tol * (s1 if s1 > s0 else s0))
                if lanes:
                    ev = ht * (e1 * v1 + e3 * v3 + e4 * v4 + e5 * v5
                               + e6 * v6 + e7 * v7) - tv
                    em = ht * (e1 * m1 + e3 * m3 + e4 * m4 + e5 * m5
                               + e6 * m6 + e7 * m7) - tm
                    s0 = v if v > 0.0 else -v
                    s1 = v_new if v_new > 0.0 else -v_new
                    zv = ev / (abs_tol + rel_tol * (s1 if s1 > s0 else s0))
                    s0 = m if m > 0.0 else -m
                    s1 = m_new if m_new > 0.0 else -m_new
                    zm = em / (abs_tol + rel_tol * (s1 if s1 > s0 else s0))
                    err = sqrt((z * z + zv * zv + zm * zm) / dim) * weight
                else:
                    err = (z if z > 0.0 else -z) * weight

                if err <= 1.0:
                    if land or phi_new >= hi_level or phi_new <= lo_level:
                        if not land:
                            dk = 1 if phi_new >= hi_level else -1
                            level = (k + dk) * spacing
                            off = phi_new - level
                            if off > win or off < -win:
                                land = ht * _hermite_crossing(
                                    phi, phi_new, ht * k1, ht * k7, level)
                                if land >= snap and x_end - (x + land) >= snap:
                                    # discard: land next attempt
                                    attempts += 1
                                    n_landed += 1
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
                        off = phi_new - k * spacing
                        on_level = -win <= off <= win
                    x_new = x + ht
                    x = x_end if x_end - x_new < snap else x_new
                    phi, k1 = phi_new, k7
                    attempts += 1
                    if lanes:
                        v, m, v1, m1 = v_new, m_new, v7, m7
                    # the clamps as the builtins evaluate them: min(a, b)
                    # is b if b < a else a, max(a, b) b if b > a else a
                    if ht >= h:  # not shortened by a boundary: PI rescale
                        if err == 0.0:
                            h = ht * max_factor
                        else:
                            fac = safety * err ** neg_alpha * err_old ** beta
                            fac = fac if fac > min_factor else min_factor
                            h = ht * (fac if fac < max_factor else max_factor)
                    err_old = 1e-4 if 1e-4 > err else err
                else:
                    attempts += 1
                    n_rejected += 1
                    # a NaN estimate takes the factor 0.9
                    fac = safety * err ** -0.2
                    fac = fac if fac < 0.9 else 0.9
                    h = ht * (fac if fac > 0.1 else 0.1)
                    land = 0.0
            if to_m:
                m = to_m(x, m)
            states.append((phi, v, m))
    finally:
        stats.update(n_steps=attempts - n_rejected - n_landed,
                     n_rejected=n_rejected, n_rhs=n_rhs, n_landed=n_landed)
    return states, k1


def _integrate(ctx: PContext, q: Potential, rho: float, ell: float,
               tol: SolverConfig, dim: int, grid=()):
    """One integration over [0, ell]: ``dim`` 1 is the phase alone, 2
    adds the amplitude log R, 3 the sensitivity's lanes v and m.  The
    kernel's bounds are the sorted set of 0, ell and the knots of q and
    points of ``grid`` in (0, ell).  Returns the trajectory, the bounds
    and the kernel's state (phi, v, m) at each bound after the first,
    where v is log R for the amplitude."""
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
    fold = ctx.fold
    qval = q.value
    # the G table and its index, which the phase and the sensitivity
    # read inline, in the arithmetic of abs_sp_pow
    pi_p = ctx.pi_p
    half_pi = 0.5 * pi_p
    floor, sqrt, exp, log = math.floor, math.sqrt, math.exp, math.log
    xs, gs, gd, g2, g3 = ctx._xs, ctx._gs, ctx._gd, ctx._g2, ctx._g3
    scale, start, split, lo_scale, lo, hi_top, hi_scale, hi, right = ctx._index

    def abs_sp_pow(phi):
        # G = |S_p(phi)|^p has period pi_p and is even about pi_p/2, so
        # it is read at the remainder, reflected onto the quarter period
        r = phi % pi_p
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
        return gs[i] + d * (gd[i] + d * (g2[i] + d * g3[i]))

    bounds = sorted({0.0, ell, *(x for x in (*q.interior_knots(), *grid)
                                 if 0.0 < x < ell)})
    h = min(ell, 0.1 * ctx.pi_p / rho)
    stats = {"n_steps": 0, "n_rejected": 0, "n_landed": 0, "n_rhs": 0,
             "n_pieces": len(bounds) - 1,
             "rel_tol": tol.rel_tol, "abs_tol": tol.abs_tol,
             "warnings": tuple(stats_warnings)}

    def rhs(x_start, phi_start):
        # q on the kernel piece from x_start is the potential's affine
        # piece there, in the arithmetic of Potential.value; from its
        # right knot x1 on (where the c = 1 stages of the last step
        # land) value reads the next piece, so value answers there
        x0, x1, q0, dq = q.piece(x_start)
        dx = x1 - x0
        dcoef = dq / dx * inv_rho_pm1  # Q' on the piece
        to_m = None

        def coef(x):  # Q = q*rho^(1-p), read as f reads q
            return (q0 + ((x - x0) / dx) * dq if x < x1 else qval(x)) * inv_rho_pm1
        if dim == 1:
            def f(x, phi):
                # g = abs_sp_pow(phi), inline
                r = phi % pi_p
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
                g = gs[i] + d * (gd[i] + d * (g2[i] + d * g3[i]))
                qx = q0 + ((x - x0) / dx) * dq if x < x1 else qval(x)
                return rho - qx * inv_rho_pm1 * g
        elif dim == 3:
            # the piece's lane is mu = m + ln(L(x)/L(x_start))/p with
            # L = rho - Q*g_bar, g_bar = G(phi_start): L' takes in closed
            # form the part of ln(phi') that Q' drives, so mu' is bounded
            # however steep the piece; g_bar = 0 where L would not stay
            # positive up to x1
            g_bar = abs_sp_pow(phi_start)
            if not rho - (q0 + dq) * inv_rho_pm1 * g_bar > 0.0:
                g_bar = 0.0
            l_start = rho - coef(x_start) * g_bar

            def to_m(x, mu):
                return mu - log((rho - coef(x) * g_bar) / l_start) / p

            def f(x, phi, mu):
                # g = abs_sp_pow(phi), inline
                r = phi % pi_p
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
                g = gs[i] + d * (gd[i] + d * (g2[i] + d * g3[i]))
                big_q = (q0 + ((x - x0) / dx) * dq if x < x1 else qval(x)) * inv_rho_pm1
                dphi = rho - big_q * g
                if not dphi > 0.0:
                    raise IntegrationError(
                        f"phase stalls: phi' = {dphi!r} <= 0 at x={x!r}", last_x=x)
                lx = rho - big_q * g_bar
                # e^(-p*m) = e^(-p*mu)*L(x)/L(x_start)
                return (dphi, exp(neg_p * mu) * (lx / l_start) * (rho + pm1 * big_q * g) / dphi,
                        dcoef * rho * (g - g_bar) / (p * dphi * lx))
        else:
            # one fold per call: S_p = sign_s*s, S_p' = sign_c*(1 - s^p)^(1/p)
            # (as fast_pair forms it), |S_p|^p = s^p, S_p^(p-1) = sign_s*s^(p-1)
            def f(x, phi, m):
                _, s, sign_s, sign_c = fold(phi)
                abs_s_p = s ** p
                qx = q0 + ((x - x0) / dx) * dq if x < x1 else qval(x)
                coef = qx * inv_rho_pm1
                return (rho - coef * abs_s_p,
                        coef * (sign_s * s ** pm1) * (sign_c * (1.0 - abs_s_p) ** inv_p),
                        0.0)
        return f, coef, dcoef, to_m

    spacing = None if p == 2.0 else half_pi
    try:
        states, slope = _kernel(rhs, bounds, h, tol, stats, spacing, dim, rho, p,
                                _level_terms(p) if spacing and dim != 2 else None)
    except IntegrationError as exc:  # name the integration that failed
        raise IntegrationError(f"{exc} (rho={rho:g}, ell={ell:g})", exc.last_x) from exc
    phi, v, m = states[-1]
    logr = u = None
    if dim == 2:
        logr = v
    elif dim == 3:
        # log R and u of the identity, with phi'(ell) the last slope
        w = slope / rho
        logr, u = -math.log(w) / p - m, math.exp(p * m) * w * v
    traj = PruferTrajectory(rho=rho, ell=ell, phi_end=phi, theta_end=phi / rho,
                            logr_end=logr, u_end=u, stats=stats)
    return traj, bounds, states


def integrate_phase(ctx: PContext, q: Potential, rho: float, ell: float,
                    tol: SolverConfig = SolverConfig()) -> PruferTrajectory:
    """Integrate the phase equation with phi(0) = 0 up to x = ell.

    For q <= 0 the phase is strictly increasing (phi' >= rho > 0).
    """
    return _integrate(ctx, q, rho, ell, tol, 1)[0]


def integrate_amplitude(ctx: PContext, q: Potential, rho: float, ell: float,
                        tol: SolverConfig = SolverConfig()) -> PruferTrajectory:
    """Phase plus log-amplitude with the normalization R(0) = 1.

    Integrating log R keeps R positive by construction.
    """
    return _integrate(ctx, q, rho, ell, tol, 2)[0]


def integrate_sensitivity(ctx: PContext, q: Potential, rho: float, ell: float,
                          tol: SolverConfig = SolverConfig()) -> PruferTrajectory:
    """Phase, log-amplitude and the sensitivity u = d(phi)/d(rho).

    The variational route is the primary method for theta's
    rho-derivative; finite differences in rho are noisier at large rho
    and serve only as a test oracle.  log R and u come from the lanes v
    and m and the phase slope phi' at ell (see the module docstring),
    so the route needs phi' > 0 on [0, ell]: it holds wherever q <= 0,
    as on T1's interval [0, x0].  Where lambda lies far below q the
    phase stalls, and a stage that sees phi' <= 0, or a step that
    underflows while phi' -> 0, raises ``IntegrationError``.
    """
    return _integrate(ctx, q, rho, ell, tol, 3)[0]


def reconstruct_eigenfunction(ctx: PContext, q: Potential, rho: float,
                              ell: float, samples: int = 513,
                              tol: SolverConfig = SolverConfig()):
    """Sample y = R*S_p(phi) and y' = rho*R*S_p'(phi) on a uniform grid
    of [0, ell], with R(0) = 1.

    One amplitude integration ends a step on every sample, so each sample
    reads its own integrated state.  For an eigenpair of
    ``find_eigenvalue`` pass ``q.shifted(pair.shift)`` and ``pair.rho``.
    Returns an ndarray of shape (samples, 3) with columns x, y, y'.
    """
    if samples < 2:
        raise DomainError("need at least 2 samples")
    import numpy as np

    xs = np.linspace(0.0, ell, samples)
    traj, bounds, states = _integrate(ctx, q, rho, ell, tol, 2,
                                      xs[1:-1].tolist())
    # the last bound at or before each sample: the sample itself, or
    # the integrated ell where ell ran up to 1e-12 past the domain
    i = np.searchsorted(bounds, xs, side="right") - 1
    phi, logr, _ = np.array([(0.0, 0.0, 0.0)] + states)[i].T
    r = np.exp(logr)
    s, c = sp_pair(ctx, phi)
    return np.column_stack((xs, r * s, traj.rho * r * c))
