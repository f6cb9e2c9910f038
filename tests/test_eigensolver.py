import math

import numpy as np
import pytest

from plapeig import (DomainError, SearchError, SolverConfig,
                     bracket_eigenvalue, compute_spectrum, constant,
                     direct_shoot, find_eigenvalue, integrate_amplitude,
                     random_nonpositive_piecewise_linear,
                     reconstruct_eigenfunction, restrict, scaled_tent,
                     sign_of_lambda1)

from oracles import count_sign_changes, direct_eigenvalue

TENT = scaled_tent(-5.0, 4.0)
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

    def test_oracle_check_toggle(self, ctx2):
        cfg = SolverConfig(oracle_check=True)
        pair = find_eigenvalue(ctx2, TENT, 2, 1.0, cfg)
        assert pair.zero_count == 1


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

    def test_failure_carries_index(self, ctx2):
        # a phase residual of 1e-16 is below what the integration can
        # reproduce, so the search must refuse
        with pytest.raises(SearchError) as err:
            compute_spectrum(ctx2, constant(-50.0), 2, 1.0,
                             SolverConfig(phase_tol=1e-16))
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
        shot = direct_shoot(ctx2, constant(0.0), math.pi ** 2, 1.0, CFG)
        assert abs(shot.y_end) <= 1e-9 * shot.max_abs_y
        assert shot.zero_count == 0

    def test_p3_at_first_eigenvalue(self, ctx3):
        shot = direct_shoot(ctx3, constant(0.0), ctx3.pi_p ** 3, 1.0, CFG)
        assert abs(shot.y_end) <= 1e-7 * shot.max_abs_y
        assert shot.zero_count == 0

    def test_lambda_zero_certificate(self, ctx2):
        # q = -2: lambda_1 = pi^2 - 2 > 0, so the lambda = 0 shot keeps
        # its sign
        shot = direct_shoot(ctx2, constant(-2.0), 0.0, 1.0, CFG)
        assert shot.zero_count == 0
        assert shot.y_end > 0.0

    def test_result_unpacks(self, ctx2):
        y_end, zero_count = direct_shoot(ctx2, constant(0.0), 1.0, 1.0, CFG)
        assert isinstance(zero_count, int)


class TestSignOfLambda1:
    def test_free_positive(self, ctx3):
        res = sign_of_lambda1(ctx3, constant(0.0), 1.0, CFG)
        assert res.classification == "positive"
        assert res.margin > 0.0

    def test_deep_constant_nonpositive(self, ctx2):
        res = sign_of_lambda1(ctx2, constant(-50.0), 1.0, CFG)
        assert res.classification == "nonpositive"

    def test_deep_constant_short_interval_positive(self, ctx2):
        q = restrict(constant(-50.0), 0.3)
        res = sign_of_lambda1(ctx2, q, 0.3, CFG)
        assert res.classification == "positive"
        # analytic: lambda_1 = (pi/0.3)^2 - 50 > 0
        assert (math.pi / 0.3) ** 2 - 50.0 > 0.0

    def test_borderline_zero(self, ctx2):
        res = sign_of_lambda1(ctx2, constant(-math.pi ** 2), 1.0, CFG)
        assert res.classification == "zero_within_tol"
        assert res.margin <= CFG.phase_tol

    @pytest.mark.parametrize("p", (2.0, 3.0))
    def test_agrees_with_direct_shot(self, ctx_for, p):
        ctx = ctx_for(p)
        for q in (constant(-50.0), scaled_tent(-30.0, 30.0)):
            classes = set()
            for ell in np.linspace(0.1, 1.0, 10):
                qr = restrict(q, ell)
                shot = direct_shoot(ctx, qr, 0.0, ell, CFG)
                direct = ("positive" if shot.zero_count == 0
                          and shot.y_end > 0.0 else "nonpositive")
                res = sign_of_lambda1(ctx, qr, ell, CFG)
                assert res.classification == direct, (p, ell)
                classes.add(direct)
            assert classes == {"positive", "nonpositive"}


class TestOracleAgreement:
    @pytest.mark.parametrize("p,seed", [(1.5, 1), (2.0, 2), (3.0, 3),
                                        (2.0, 4)])
    def test_random_nonpositive(self, ctx_for, p, seed):
        ctx = ctx_for(p)
        q = random_nonpositive_piecewise_linear(np.random.default_rng(seed))
        for n in (1, 3):
            lam = find_eigenvalue(ctx, q, n, 1.0, CFG).lam
            lam_direct = direct_eigenvalue(ctx, q, n, 1.0, CFG)
            assert abs(lam - lam_direct) / abs(lam) <= 1e-6

    @pytest.mark.parametrize("p", (1.5, 2.0, 3.0))
    def test_negative_lambda1(self, ctx_for, p):
        ctx = ctx_for(p)
        q = scaled_tent(-30.0, 30.0)
        lam = find_eigenvalue(ctx, q, 1, 1.0, CFG).lam
        lam_direct = direct_eigenvalue(ctx, q, 1, 1.0, CFG)
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
