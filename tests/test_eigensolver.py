import math

import numpy as np
import pytest

from plapeig import eigensolver
from plapeig import (DomainError, SearchError, SolverConfig,
                     bracket_eigenvalue, compute_spectrum, constant,
                     direct_shoot, find_eigenvalue, integrate_amplitude,
                     reconstruct_eigenfunction, restrict, scaled_tent)

from oracles import (count_sign_changes, direct_eigenvalue,
                     random_nonpositive_piecewise_linear)

TENT = scaled_tent(-5.0, 4.0)
TENT_SEED5 = scaled_tent(-4.526435930669148, 3.542758661908266)
CFG = SolverConfig()


class TestBracket:
    def test_free_is_exact(self, ctx2):
        lo, hi = bracket_eigenvalue(ctx2, constant(0.0), 1, 1.0)
        assert lo == pytest.approx(math.pi ** 2, rel=1e-15)
        assert hi == lo

    def test_constant_shift_collapses(self, ctx3):
        lo, hi = bracket_eigenvalue(ctx3, constant(-2.0), 2, 1.0)
        expect = (2.0 * ctx3.pi_p) ** 3 - 2.0
        assert lo == pytest.approx(expect, rel=1e-14)
        assert hi == pytest.approx(expect, rel=1e-14)

    def test_tent_range(self, ctx2):
        lo, hi = bracket_eigenvalue(ctx2, TENT, 1, 1.0)
        assert lo == pytest.approx(math.pi ** 2 - 5.0, rel=1e-14)
        assert hi == pytest.approx(math.pi ** 2 - 3.0, rel=1e-14)

    def test_negative_bounds_returned(self, ctx2):
        lo, hi = bracket_eigenvalue(ctx2, constant(-50.0), 1, 1.0)
        assert lo == pytest.approx(math.pi ** 2 - 50.0, rel=1e-14)
        assert hi == pytest.approx(math.pi ** 2 - 50.0, rel=1e-14)

    def test_bad_args(self, ctx2):
        with pytest.raises(DomainError):
            bracket_eigenvalue(ctx2, TENT, 0, 1.0)
        with pytest.raises(DomainError):
            bracket_eigenvalue(ctx2, TENT, 1, 0.0)


class TestFindEigenvalue:
    def test_free_p3_second(self, ctx3):
        pair = find_eigenvalue(ctx3, constant(0.0), 2, 1.0, CFG)
        assert pair.lam == pytest.approx((2.0 * ctx3.pi_p) ** 3, rel=1e-10)
        assert pair.rho ** ctx3.p == pytest.approx(pair.lam, rel=1e-14)
        assert pair.residual <= CFG.phase_tol
        assert pair.zero_count == 1

    def test_constant_shift_p2(self, ctx2):
        pair = find_eigenvalue(ctx2, constant(-2.0), 1, 1.0, CFG)
        assert pair.lam == pytest.approx(math.pi ** 2 - 2.0, rel=1e-10)

    def test_short_interval_free(self, ctx2):
        pair = find_eigenvalue(ctx2, constant(0.0), 3, 0.5, CFG)
        assert pair.lam == pytest.approx(36.0 * math.pi ** 2, rel=1e-10)

    def test_bracket_is_honest(self, ctx2):
        pair = find_eigenvalue(ctx2, TENT, 2, 1.0, CFG)
        lo, hi = pair.bracket
        assert lo <= pair.lam <= hi
        assert pair.bracket_width <= 1e-6 * pair.lam

    def test_negative_lambda_regime(self, ctx2):
        pair = find_eigenvalue(ctx2, constant(-50.0), 1, 1.0, CFG)
        assert pair.lam == pytest.approx(math.pi ** 2 - 50.0, rel=1e-10)
        assert pair.shift == 50.0
        assert pair.rho ** 2 == pytest.approx(pair.lam + pair.shift,
                                              rel=1e-14)
        lo, hi = pair.bracket
        assert lo <= pair.lam <= hi

    def test_large_phase_tol(self, ctx2):
        # a loose phase_tol accepts the same root; the accepted residual
        # fixes the zero count at n - 1, however wide the gate
        pair = find_eigenvalue(ctx2, scaled_tent(-5, 4), 2, 1.0,
                               SolverConfig(phase_tol=0.5))
        ref = find_eigenvalue(ctx2, scaled_tent(-5, 4), 2, 1.0, CFG)
        assert pair.lam == ref.lam
        assert pair.zero_count == 1


def spy_integrations(monkeypatch):
    """Record (rho, rel_tol) of every phase integration of the search."""
    calls = []
    real = eigensolver.integrate_phase

    def spy(ctx, q, rho, ell, tol):
        calls.append((rho, tol.rel_tol))
        return real(ctx, q, rho, ell, tol)

    monkeypatch.setattr(eigensolver, "integrate_phase", spy)
    return calls


class TestRootFind:
    def test_no_integration_repeated(self, ctx2, monkeypatch):
        calls = spy_integrations(monkeypatch)
        find_eigenvalue(ctx2, TENT, 2, 1.0)
        assert calls
        assert len(set(calls)) == len(calls)

    def test_missed_root_raises(self, ctx_for, coarse_phase, monkeypatch):
        # phi(ell) rounded to 1e-3 leaves no root within phase_tol: the
        # one pass raises at once, every integration at the configured
        # tolerance, with no tighter re-solve
        calls = spy_integrations(monkeypatch)
        with pytest.raises(SearchError) as err:
            find_eigenvalue(ctx_for(1.5), TENT, 5, 1.0, CFG)
        assert {"rho", "phi_end"} <= set(err.value.details)
        assert calls
        assert all(rel_tol == CFG.tolerance.rel_tol for _, rel_tol in calls)


class TestAccuracy:
    @pytest.mark.parametrize("p", (1.5, 3.0, 5.0))
    def test_closed_form_constant(self, ctx_for, p):
        # lambda_n = (n*pi_p/ell)^p + c on a constant, at the default
        # settings, within the README's 1e-8 relative; the last cases are
        # the benchmark's spectrum constants, c in [-3, -1] at ell = 1
        ctx = ctx_for(p)
        cases = [(c, ell) for c in (-2.0, 3.0) for ell in (0.5, 1.0)]
        cases += [(c, 1.0) for c in np.linspace(-3.0, -1.0, 9)]
        worst = 0.0
        for c, ell in cases:
            for pr in compute_spectrum(ctx, constant(c), 12, ell).pairs:
                exact = (pr.n * ctx.pi_p / ell) ** p + c
                worst = max(worst, abs(pr.lam - exact) / abs(exact))
        assert worst <= 1e-8

    @pytest.mark.parametrize("q", (constant(-2.0), TENT, TENT_SEED5),
                             ids=("constant", "tent", "tent-seed5"))
    @pytest.mark.parametrize("p", (1.5, 3.0, 5.0))
    def test_no_tight_resolve(self, ctx_for, monkeypatch, p, q):
        # the single pass meets phase_tol on these level-heavy inputs,
        # every integration at the configured tolerance.  At p = 1.5 the
        # benchmark's tent at seed 5 puts the level 12*pi_p/2 of rho_12
        # a sliver before its knot: the step after the knot still
        # starts on the level and must keep that error weight
        calls = spy_integrations(monkeypatch)
        compute_spectrum(ctx_for(p), q, 12, 1.0, CFG)
        assert calls
        assert all(rel_tol == CFG.tolerance.rel_tol for _, rel_tol in calls)


class TestSpectrum:
    def test_free_p2(self, ctx2):
        spec = compute_spectrum(ctx2, constant(0.0), 4, 1.0, CFG)
        assert np.allclose(spec.lambdas(),
                           [(n * math.pi) ** 2 for n in (1, 2, 3, 4)],
                           rtol=1e-10)
        assert [pr.n for pr in spec.pairs] == [1, 2, 3, 4]

    def test_constant_shift_p3(self, ctx3):
        spec = compute_spectrum(ctx3, constant(-3.0), 2, 1.0, CFG)
        expect = [(ctx3.pi_p) ** 3 - 3.0, (2.0 * ctx3.pi_p) ** 3 - 3.0]
        assert np.allclose(spec.lambdas(), expect, rtol=1e-8)

    def test_tent_increasing_and_ratios(self, ctx2):
        spec = compute_spectrum(ctx2, TENT, 5, 1.0, CFG)
        lams = spec.lambdas()
        assert np.all(np.diff(lams) > 0.0)
        # pairs above the -2*q* = 10 threshold obey the ratio lower bound
        for m in range(2, 6):
            if lams[m - 1] >= 10.0:
                for n in range(m + 1, 6):
                    assert (lams[n - 1] / lams[m - 1]
                            >= (n / m) ** 2 * (1.0 - 1e-10))

    def test_no_stall_at_p15(self, ctx_for):
        # the benchmark's constant at seed 18: a straddled level once
        # left the root of n = 11 at residual 1.09e-9
        spec = compute_spectrum(ctx_for(1.5),
                                constant(-2.191908090045919), 12, 1.0, CFG)
        assert [pr.n for pr in spec.pairs] == list(range(1, 13))
        assert max(pr.residual for pr in spec.pairs) <= CFG.phase_tol

    def test_failure_carries_index(self, ctx2, coarse_phase):
        with pytest.raises(SearchError) as err:
            compute_spectrum(ctx2, constant(-2.0), 2, 1.0, CFG)
        assert err.value.details.get("n") == 1


class TestShiftCovariance:
    # c = -8 carries lambda_1 from about 6.3 to about -1.7
    @pytest.mark.parametrize("c", (-1.0, 2.0, -8.0))
    def test_tent_shift(self, ctx2, c):
        base = compute_spectrum(ctx2, TENT, 3, 1.0, CFG).lambdas()
        shifted = compute_spectrum(ctx2, TENT.shifted(c), 3, 1.0, CFG).lambdas()
        assert np.allclose(shifted, base + c, rtol=1e-8, atol=1e-8)


class TestDirectShoot:
    def test_p2_at_first_eigenvalue(self, ctx2):
        shot = direct_shoot(ctx2, constant(0.0), math.pi ** 2, 1.0)
        assert abs(shot.y_end) <= 1e-9 * shot.max_abs_y
        assert shot.zero_count == 0

    def test_p3_at_first_eigenvalue(self, ctx3):
        shot = direct_shoot(ctx3, constant(0.0), ctx3.pi_p ** 3, 1.0)
        assert abs(shot.y_end) <= 1e-7 * shot.max_abs_y
        assert shot.zero_count == 0

    def test_lambda_zero_certificate(self, ctx2):
        # q = -2: lambda_1 = pi^2 - 2 > 0, so the lambda = 0 shot keeps
        # its sign
        shot = direct_shoot(ctx2, constant(-2.0), 0.0, 1.0)
        assert shot.zero_count == 0
        assert shot.y_end > 0.0


class TestSignOfLambda1:
    @pytest.mark.parametrize("p", (2.0, 3.0))
    def test_agrees_with_direct_shot(self, ctx_for, p):
        # T3's sign test: lambda_1(ell) > 0 exactly when the lower end of
        # the n = 1 bracket is; the lambda = 0 direct shot keeps its sign
        # on (0, ell] exactly then
        ctx = ctx_for(p)
        for q in (constant(-50.0), scaled_tent(-30.0, 30.0)):
            classes = set()
            for ell in np.linspace(0.1, 1.0, 10):
                qr = restrict(q, ell)
                shot = direct_shoot(ctx, qr, 0.0, ell)
                direct = shot.zero_count == 0 and shot.y_end > 0.0
                pair = find_eigenvalue(ctx, qr, 1, ell, CFG)
                assert (pair.bracket[0] > 0.0) == direct, (p, ell)
                classes.add(direct)
            assert classes == {True, False}


class TestOracleAgreement:
    @pytest.mark.parametrize("p,seed", [(1.5, 1), (2.0, 2), (3.0, 3),
                                        (2.0, 4)])
    def test_random_nonpositive(self, ctx_for, p, seed):
        ctx = ctx_for(p)
        q = random_nonpositive_piecewise_linear(np.random.default_rng(seed))
        for n in (1, 3):
            lam = find_eigenvalue(ctx, q, n, 1.0, CFG).lam
            lam_direct = direct_eigenvalue(ctx, q, n, 1.0)
            assert abs(lam - lam_direct) / abs(lam) <= 1e-6

    @pytest.mark.parametrize("p", (1.5, 2.0, 3.0))
    def test_negative_lambda1(self, ctx_for, p):
        ctx = ctx_for(p)
        q = scaled_tent(-30.0, 30.0)
        lam = find_eigenvalue(ctx, q, 1, 1.0, CFG).lam
        lam_direct = direct_eigenvalue(ctx, q, 1, 1.0)
        assert lam < 0.0
        assert abs(lam - lam_direct) / abs(lam) <= 1e-6


class TestOscillation:
    def test_eigenfunction_zero_counts(self, ctx3):
        for n in (1, 2, 3, 4):
            pair = find_eigenvalue(ctx3, TENT, n, 1.0, CFG)
            traj = integrate_amplitude(ctx3, TENT, pair.rho, 1.0,
                                       CFG.tolerance)
            grid = reconstruct_eigenfunction(traj, samples=1001)
            ys = grid[:, 1]
            assert count_sign_changes(ys[1:-1]) == n - 1
            assert abs(ys[-1]) <= 1e-7 * np.max(np.abs(ys))
            assert abs(ys[0]) == 0.0

    def test_domain_monotonicity(self, ctx2):
        lams = [find_eigenvalue(ctx2, restrict(TENT, ell), 1, ell, CFG).lam
                for ell in (0.3, 0.5, 0.7, 1.0)]
        assert all(a > b for a, b in zip(lams, lams[1:]))
