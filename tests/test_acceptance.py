"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines; every criterion states its oracle and tolerance inline.
"""

import math

import numpy as np
import pytest

from plapeig import (SolverConfig, compute_spectrum, constant,
                     find_eigenvalue, integrate_phase,
                     piecewise_linear, reconstruct_eigenfunction, restrict,
                     scaled_tent, sp_pair, verify_remark1, verify_theorem1,
                     verify_theorem2, verify_theorem3)
from plapeig.cli import main as cli_main

from oracles import (count_sign_changes, direct_eigenvalue, fd_theta_dot,
                     random_nonpositive_piecewise_linear)

CFG = SolverConfig()


def _report(num, name, ok, detail):
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def well_potential(height):
    return piecewise_linear([[0.0, float(height)], [0.5, 0.0],
                             [1.0, float(height)]])


def test_criterion_1_ptrig_identities(ctx_for):
    worst_ident = 0.0
    worst_zero = 0.0
    for p in (1.2, 1.5, 2.0, 3.0, 5.0, 10.0):
        ctx = ctx_for(p)
        xs = np.linspace(-3.0 * ctx.pi_p, 3.0 * ctx.pi_p, 10_000)
        s, c = sp_pair(ctx, xs)
        worst_ident = max(worst_ident, float(np.max(np.abs(
            np.abs(s) ** p + np.abs(c) ** p - 1.0))))
        worst_zero = max(worst_zero, abs(sp_pair(ctx, ctx.pi_p)[0]))
    ctx2 = ctx_for(2.0)
    xs = np.linspace(-10.0, 10.0, 10_000)
    s2, c2 = sp_pair(ctx2, xs)
    worst_p2 = max(float(np.max(np.abs(s2 - np.sin(xs)))),
                   float(np.max(np.abs(c2 - np.cos(xs)))))
    ok = worst_ident <= 1e-10 and worst_zero <= 1e-10 and worst_p2 <= 1e-12
    _report(1, "p-trig identity suite", ok,
            f"identity {worst_ident:.2e} (<=1e-10), first zero "
            f"{worst_zero:.2e} (<=1e-10), sin/cos {worst_p2:.2e} (<=1e-12)")


def test_criterion_2_free_spectrum(ctx_for):
    worst = 0.0
    for p in (1.5, 2.0, 3.0, 5.0):
        ctx = ctx_for(p)
        for ell in (0.25, 0.5, 1.0):
            q = restrict(constant(0.0), ell)
            for n in range(1, 9):
                lam = find_eigenvalue(ctx, q, n, ell, CFG).lam
                exact = (n * ctx.pi_p / ell) ** p
                worst = max(worst, abs(lam - exact) / exact)
    _report(2, "free spectrum closed form", worst <= 1e-8,
            f"worst relative error {worst:.2e} (<=1e-8), "
            "96 eigenvalues (4 exponents x 3 lengths x n<=8)")


def test_criterion_3_shift_covariance(ctx_for):
    # a 1e-8 identity check needs the solver below that error floor
    tight = SolverConfig(rel_tol=1e-12, abs_tol=1e-13, phase_tol=1e-10)
    cases = [
        (2.0, scaled_tent(-5.0, 4.0)),
        (3.0, constant(-2.0)),
        (1.5, random_nonpositive_piecewise_linear(
            np.random.default_rng(42), depth_scale=4.0)),
    ]
    worst = 0.0
    for p, q in cases:
        ctx = ctx_for(p)
        base = compute_spectrum(ctx, q, 5, 1.0, tight).lambdas()
        for c in (-3.0, -1.0, 2.0):
            shifted = compute_spectrum(ctx, q.shifted(c), 5, 1.0,
                                       tight).lambdas()
            worst = max(worst, float(np.max(
                np.abs(shifted - (base + c)) / np.abs(base + c))))
    _report(3, "shift covariance", worst <= 1e-8,
            f"worst relative error {worst:.2e} (<=1e-8), "
            "3 potentials x 3 shifts x n<=5")


def test_criterion_4_oracle_agreement(ctx_for):
    rng = np.random.default_rng(2024)
    ps = (1.5, 2.0, 3.0)
    worst = 0.0
    for i in range(20):
        ctx = ctx_for(ps[i % 3])
        q = random_nonpositive_piecewise_linear(rng)
        for n in range(1, 7):
            lam = find_eigenvalue(ctx, q, n, 1.0, CFG).lam
            lam_direct = direct_eigenvalue(ctx, q, n, 1.0)
            worst = max(worst, abs(lam - lam_direct) / abs(lam))
    _report(4, "phase vs direct-shooting oracle", worst <= 1e-6,
            f"worst relative discrepancy {worst:.2e} (<=1e-6), "
            "20 random nonpositive potentials x n<=6")


def test_criterion_5_ratio_lower_bound(ctx_for):
    worst = math.inf
    in_hyp_pairs = 0
    for depth in (-1.0, -3.0, -5.0, -7.0, -10.0):
        q = scaled_tent(depth, abs(depth))
        for p in (1.5, 2.0, 3.0):
            cert = verify_theorem2(ctx_for(p), q, n_max=6)
            assert cert.verdict == "verified", cert.notes
            pts = [s for s in cert.scan if s.in_hypothesis]
            in_hyp_pairs += len(pts)
            worst = min(worst, min(s.margin for s in pts))
    exit_code = cli_main([
        "verify", "--theorem", "t2", "--p", "2", "--potential",
        '{"type":"scaled_tent","depth":-5,"rise":5}', "--n-max", "6"])
    ok = worst >= -1e-8 and exit_code == 0
    _report(5, "ratio lower bound (barriers)", ok,
            f"worst in-hypothesis margin {worst:.2e} (>=-1e-8) over "
            f"{in_hyp_pairs} pairs, verify exit code {exit_code}")


def test_criterion_6_sensitivity_sign(ctx_for):
    worst_td = -math.inf
    worst_fd = 0.0
    points = 0
    for depth in (-1.0, -5.0, -10.0):
        q = scaled_tent(depth, abs(depth))
        for p in (1.5, 2.0, 3.0):
            ctx = ctx_for(p)
            cert = verify_theorem1(ctx, q)
            assert cert.verdict == "verified", cert.notes
            vals = [s.value for s in cert.scan if s.in_hypothesis]
            assert len(vals) == 32
            points += len(vals)
            worst_td = max(worst_td, max(vals))
            x0 = cert.hypotheses["x0"]
            qr = restrict(q, x0)
            for s in cert.scan[::12]:
                rho = dict(s.inputs)["rho"]
                fd = fd_theta_dot(ctx, qr, rho, x0)
                worst_fd = max(worst_fd, abs(s.value - fd) / abs(fd))
    ok = worst_td <= 1e-10 and worst_fd <= 1e-4
    _report(6, "scaled-phase sensitivity sign", ok,
            f"max theta_dot {worst_td:.2e} (<=1e-10) over {points} grid "
            f"points, variational-vs-FD rel {worst_fd:.2e} (<=1e-4)")


def test_criterion_7_truncated_intervals(ctx_for):
    worst = math.inf
    for q_star in (-5.0, -10.0):
        q = scaled_tent(q_star, abs(q_star))
        for p in (2.0, 3.0):
            ctx = ctx_for(p)
            cert = verify_theorem3(ctx, q, n_max=4)
            assert cert.verdict == "verified", cert.notes
            bound = min(1.0, (-p / (3.0 * q_star)) ** (1.0 / p))
            assert cert.hypotheses["ell_bound"] == pytest.approx(bound,
                                                                 rel=1e-13)
            assert cert.hypotheses["ell_hat"] == pytest.approx(bound,
                                                               rel=1e-12)
            pts = [s for s in cert.scan if s.in_hypothesis]
            worst = min(worst, min(s.margin for s in pts
                                   if s.quantity == "ratio"))
            assert all(s.satisfied for s in pts)

    # analytic cross-check: constant q = -6 at p = 2
    ctx2 = ctx_for(2.0)
    cert = verify_theorem3(ctx2, constant(-6.0), n_max=3)
    assert cert.verdict == "verified"
    bound_err = abs(cert.hypotheses["ell_bound"] - 1.0 / 3.0)
    lam_err = 0.0
    for s in cert.scan:
        if s.quantity == "lambda1":
            ell = dict(s.inputs)["ell"]
            exact = (math.pi / ell) ** 2 - 6.0
            lam_err = max(lam_err, abs(s.value - exact) / exact)
    ok = worst >= -1e-8 and bound_err <= 1e-14 and lam_err <= 1e-8
    _report(7, "truncated-interval positivity and ratios", ok,
            f"worst ratio margin {worst:.2e} (>=-1e-8), analytic "
            f"ell_bound err {bound_err:.1e}, lambda_1(ell) rel err "
            f"{lam_err:.2e} (<=1e-8)")


def test_criterion_8_ratio_upper_bound(ctx_for):
    worst = math.inf
    pairs = 0
    for height in (1.0, 2.0, 3.0, 4.0, 5.0):
        q = well_potential(height)
        for p in (2.0, 3.0):
            cert = verify_remark1(ctx_for(p), q, n_max=6)
            assert cert.verdict == "verified", cert.notes
            pts = [s for s in cert.scan if s.in_hypothesis]
            pairs += len(pts)
            worst = min(worst, min(s.margin for s in pts))
    _report(8, "ratio upper bound (wells)", worst >= -1e-8,
            f"worst margin {worst:.2e} (>=-1e-8) over {pairs} pairs, "
            "heights 1..5, p in {2, 3}")


def test_criterion_9_oscillation_and_monotonicity(ctx_for):
    tent = scaled_tent(-5.0, 4.0)
    # interior zero counts of reconstructed eigenfunctions
    zero_ok = True
    for p in (2.0, 3.0):
        ctx = ctx_for(p)
        for n in range(1, 6):
            pair = find_eigenvalue(ctx, tent, n, 1.0, CFG)
            ys = reconstruct_eigenfunction(ctx, tent.shifted(pair.shift),
                                           pair.rho, 1.0, samples=1201,
                                           tol=CFG)[:, 1]
            zero_ok &= count_sign_changes(ys[1:-1]) == n - 1

    # lambda_n(ell) strictly decreasing in ell
    ctx2 = ctx_for(2.0)
    ells = np.linspace(0.2, 1.0, 9)
    mono_ok = True
    for n in (1, 2):
        lams = [find_eigenvalue(ctx2, restrict(tent, float(e)), n, float(e),
                                CFG).lam for e in ells]
        mono_ok &= all(a > b for a, b in zip(lams, lams[1:]))

    # phi(1, rho) strictly increasing on a 64-point scan (from the
    # regime where the sensitivity source term is nonnegative)
    ctx3 = ctx_for(3.0)
    rho_min = ((ctx3.p - 1.0) * 5.0) ** (1.0 / ctx3.p)
    phis = [integrate_phase(ctx3, tent, float(r), 1.0).phi_end
            for r in np.linspace(rho_min, 14.0, 64)]
    phase_ok = all(a < b for a, b in zip(phis, phis[1:]))

    ok = zero_ok and mono_ok and phase_ok
    _report(9, "oscillation and monotonicity", ok,
            f"zero counts {'ok' if zero_ok else 'BAD'}, "
            f"lambda(ell) decreasing {'ok' if mono_ok else 'BAD'}, "
            f"phi(rho) increasing {'ok' if phase_ok else 'BAD'}")
