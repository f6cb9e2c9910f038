import dataclasses
import math

import numpy as np
import pytest

from plapeig import eigensolver
from plapeig import (DomainError, HarnessConfig, IntegrationError,
                     SearchError, SolverConfig, bracket_eigenvalue,
                     compute_spectrum, constant, direct_shoot,
                     find_eigenvalue, integrate_amplitude, integrate_phase,
                     piecewise_linear, reconstruct_eigenfunction, restrict,
                     scaled_tent)

from oracles import (count_sign_changes, direct_eigenvalue,
                     random_nonpositive_piecewise_linear)

TENT = scaled_tent(-5.0, 4.0)
TENT_SEED5 = scaled_tent(-4.526435930669148, 3.542758661908266)
PL5 = piecewise_linear([[0.0, -1.0], [0.25, -4.0], [0.5, -2.0],
                        [0.75, -5.0], [1.0, -1.5]])
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

    @pytest.mark.parametrize("p,n,ell", ((2.0, 1, 1e-300), (1000.0, 4, 1.0)))
    def test_overflow_is_domain_error(self, ctx_for, p, n, ell):
        # an in-range ell or p whose bound (n*pi_p/ell)^p passes the
        # largest float is refused by name, not left to OverflowError
        with pytest.raises(DomainError,
                           match=f"n={n}, p={p:g}, ell={ell:g}"):
            bracket_eigenvalue(ctx_for(p), TENT, n, ell)


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

    @pytest.mark.parametrize("q", (constant(-2.0), TENT),
                             ids=("constant", "tent"))
    @pytest.mark.parametrize("p", (1.5, 2.0, 3.0, 5.0))
    def test_no_integration_repeats_a_miss(self, ctx_for, monkeypatch, p, q):
        # two integrations of one search within 1e-11 relative in rho,
        # both missing the target by more than the stop on the same
        # side, say the same thing twice.  On a constant the comparison
        # bracket has zero width, so its padded ends lie that close to
        # the first guess, and the first widening used to integrate one
        ctx = ctx_for(p)
        real = eigensolver.integrate_phase
        for n in range(1, 13):
            misses = []

            def spy(ctx, q, rho, ell, tol, misses=misses, n=n):
                traj = real(ctx, q, rho, ell, tol)
                misses.append((rho, traj.phi_end - n * ctx.pi_p))
                return traj

            monkeypatch.setattr(eigensolver, "integrate_phase", spy)
            find_eigenvalue(ctx, q, n, 1.0, CFG)
            stop = 0.1 * CFG.phase_tol
            for j, (r, m) in enumerate(misses):
                for r0, m0 in misses[:j]:
                    same_rho = abs(r - r0) <= 1e-11 * max(r, r0)
                    same_miss = m * m0 > 0.0 and min(abs(m), abs(m0)) > stop
                    assert not (same_rho and same_miss), (n, r0, m0, r, m)

    @pytest.mark.parametrize("q", (TENT, constant(-2.0), PL5),
                             ids=("tent", "constant", "pl5"))
    @pytest.mark.parametrize("p", (1.5, 2.0, 3.0, 5.0))
    def test_bracket_is_read_off_the_evaluations(self, ctx_for, monkeypatch,
                                                 p, q):
        # each bracket end is lambda of the nearest integrated rho on its
        # side of the level, or lambda_n itself when the root lies on
        # that side; a root within two ulps of the level lies on both
        ctx = ctx_for(p)
        real = eigensolver.integrate_phase
        evals = []

        def spy(ctx, q, rho, ell, tol):
            traj = real(ctx, q, rho, ell, tol)
            evals.append((rho, traj.phi_end))
            return traj

        monkeypatch.setattr(eigensolver, "integrate_phase", spy)
        for n in range(1, 13):
            evals.clear()
            pair = find_eigenvalue(ctx, q, n, 1.0, CFG)
            target = n * ctx.pi_p
            tie = pair.residual <= 2.0 * math.ulp(target)
            lam_of = {rho: rho ** p - pair.shift for rho, _ in evals}
            below = [lam_of[r] for r, phi in evals
                     if phi <= target or tie and r == pair.rho]
            above = [lam_of[r] for r, phi in evals
                     if phi >= target or tie and r == pair.rho]
            assert pair.lam == lam_of[pair.rho]
            assert pair.bracket == (min(max(below), pair.lam),
                                    max(min(above), pair.lam)), n

    def test_exact_hit_is_its_own_bracket(self, ctx2, monkeypatch):
        # a phase that lands on the level exactly lies on both sides of
        # it: the bracket is [lambda, lambda], with no step-out
        real = eigensolver.integrate_phase

        def exact(ctx, q, rho, ell, tol):
            return dataclasses.replace(real(ctx, q, rho, ell, tol),
                                       phi_end=2.0 * ctx.pi_p)

        monkeypatch.setattr(eigensolver, "integrate_phase", exact)
        calls = spy_integrations(monkeypatch)
        pair = find_eigenvalue(ctx2, TENT, 2, 1.0, CFG)
        assert pair.residual == 0.0
        assert pair.bracket == (pair.lam, pair.lam)
        assert len(calls) == 1

    @pytest.mark.parametrize("ulps", (-2, -1, 1, 2, 3))
    def test_tie_closes_its_bracket(self, ctx2, monkeypatch, ulps):
        # a first guess that misses the level by at most two ulps of
        # n*pi_p is a tie: it closes its bracket [lambda, lambda] with no
        # more integration.  A miss of three ulps is none, and the
        # step-out integrates across the root
        real = eigensolver.integrate_phase
        target = 2.0 * ctx2.pi_p
        first = []

        def near_miss(ctx, q, rho, ell, tol):
            traj = real(ctx, q, rho, ell, tol)
            first.append(rho)
            if rho != first[0]:
                return traj
            return dataclasses.replace(
                traj, phi_end=target + ulps * math.ulp(target))

        monkeypatch.setattr(eigensolver, "integrate_phase", near_miss)
        calls = spy_integrations(monkeypatch)
        pair = find_eigenvalue(ctx2, TENT, 2, 1.0, CFG)
        assert pair.rho == first[0]
        assert pair.residual == abs(ulps) * math.ulp(target)
        if abs(ulps) <= 2:
            assert pair.bracket == (pair.lam, pair.lam)
            assert len(calls) == 1
        else:
            assert pair.bracket[0] < pair.bracket[1] == pair.lam
            assert len(calls) > 1

    @pytest.mark.parametrize("p,ceiling", (
        (1.5, (59, 46, 54)), (2.0, (51, 42, 52)),
        (3.0, (47, 51, 45)), (5.0, (40, 53, 41))))
    def test_integration_count_ceiling(self, ctx_for, monkeypatch, p,
                                       ceiling):
        # integrations are the solver's primary cost: compute_spectrum
        # (n_max=12, ell=1) on TENT, constant(-2) and PL5 makes at most
        # the counts the search made when this ceiling was set
        calls = spy_integrations(monkeypatch)
        counts = []
        for q in (TENT, constant(-2.0), PL5):
            before = len(calls)
            compute_spectrum(ctx_for(p), q, 12, 1.0, CFG)
            counts.append(len(calls) - before)
        assert all(c <= top for c, top in zip(counts, ceiling)), counts

    def test_missed_root_raises(self, ctx_for, coarse_phase, monkeypatch):
        # phi(ell) rounded to 1e-3 leaves no root within phase_tol: the
        # one pass raises at once, every integration at the configured
        # tolerance, with no tighter re-solve
        calls = spy_integrations(monkeypatch)
        with pytest.raises(SearchError) as err:
            find_eigenvalue(ctx_for(1.5), TENT, 5, 1.0, CFG)
        assert {"rho", "phi_end"} <= set(err.value.details)
        assert calls
        assert all(rel_tol == CFG.rel_tol for _, rel_tol in calls)


# relative bound of the closed-form test per p: where min(p, p/(p-1)) >=
# 3/2 the corrected singular term of the level steps holds 1e-9 (it read
# 1.5e-9 to 5.0e-9 without it); p = 5 keeps the README's 1e-8
CLOSED_FORM_BOUND = {1.5: 1e-9, 1.8: 1e-9, 2.5: 1e-9, 3.0: 1e-9, 5.0: 1e-8}


class TestAccuracy:
    @pytest.mark.parametrize("p", tuple(CLOSED_FORM_BOUND))
    def test_closed_form_constant(self, ctx_for, p):
        # lambda_n = (n*pi_p/ell)^p + c on a constant, at the default
        # settings; the last cases are the benchmark's spectrum
        # constants, c in [-3, -1] at ell = 1
        ctx = ctx_for(p)
        cases = [(c, ell) for c in (-2.0, 3.0) for ell in (0.5, 1.0)]
        cases += [(c, 1.0) for c in np.linspace(-3.0, -1.0, 9)]
        worst = 0.0
        for c, ell in cases:
            for pr in compute_spectrum(ctx, constant(c), 12, ell).pairs:
                exact = (pr.n * ctx.pi_p / ell) ** p + c
                worst = max(worst, abs(pr.lam - exact) / abs(exact))
        assert worst <= CLOSED_FORM_BOUND[p]

    @pytest.mark.parametrize("q", (constant(-2.0), TENT, TENT_SEED5),
                             ids=("constant", "tent", "tent-seed5"))
    @pytest.mark.parametrize("p", (1.5, 3.0, 5.0))
    def test_no_tight_resolve(self, ctx_for, monkeypatch, p, q):
        # the single pass meets phase_tol on these level-heavy inputs,
        # every integration at the configured tolerance.  At p = 1.5 the
        # benchmark's tent at seed 5 puts the level 12*pi_p/2 of rho_12
        # a sliver before its knot: the step after the knot still
        # starts on the level and must keep its singular-term correction
        calls = spy_integrations(monkeypatch)
        compute_spectrum(ctx_for(p), q, 12, 1.0, CFG)
        assert calls
        assert all(rel_tol == CFG.rel_tol for _, rel_tol in calls)


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

    def test_no_search_error_at_p18(self, ctx_for):
        # the benchmark's constant and 5-knot potential at seed 21: the
        # level steps, weighted but uncorrected, missed the phase target
        # by 5.3e-9 at n = 10 and by 1.8e-9 at n = 12
        ctx = ctx_for(1.8)
        c = -1.7411898164136461
        pl5 = piecewise_linear([[0.0, -2.5892173783713797],
                                [0.17489119939495518, -4.358934388399037],
                                [0.42220559086141196, -3.043427455675991],
                                [0.7671203120047578, -2.364228119427041],
                                [1.0, -2.281331068236651]])
        spec = compute_spectrum(ctx, pl5, 12, 1.0, CFG)
        assert [pr.n for pr in spec.pairs] == list(range(1, 13))
        for pr in compute_spectrum(ctx, constant(c), 12, 1.0, CFG).pairs:
            exact = (pr.n * ctx.pi_p) ** 1.8 + c
            assert pr.lam == pytest.approx(exact, rel=1e-9), pr.n

    def test_no_stall_at_p15(self, ctx_for):
        # the benchmark's constant at seed 18: a straddled level once
        # left the root of n = 11 at residual 1.09e-9
        spec = compute_spectrum(ctx_for(1.5),
                                constant(-2.191908090045919), 12, 1.0, CFG)
        assert [pr.n for pr in spec.pairs] == list(range(1, 13))
        assert max(pr.residual for pr in spec.pairs) <= CFG.phase_tol

    def test_array_return_types(self, ctx2):
        # the functions that return arrays still return ndarrays, numpy
        # imported on call
        spec = compute_spectrum(ctx2, TENT, 3, 1.0, CFG)
        lams = spec.lambdas()
        assert isinstance(lams, np.ndarray) and lams.shape == (3,)
        assert lams.tolist() == [pr.lam for pr in spec.pairs]
        pair = spec.pairs[1]
        traj = integrate_amplitude(ctx2, TENT, pair.rho, 1.0)
        grid = reconstruct_eigenfunction(traj, samples=33)
        assert isinstance(grid, np.ndarray) and grid.shape == (33, 3)
        assert grid.dtype == float

    def test_failure_carries_index(self, ctx2, coarse_phase):
        with pytest.raises(SearchError) as err:
            compute_spectrum(ctx2, constant(-2.0), 2, 1.0, CFG)
        assert err.value.details.get("n") == 1
        # the failed search's own details ride along beside the index
        cause = err.value.__cause__.details
        assert {"rho", "phi_end"} <= set(cause)
        assert err.value.details == {**cause, "n": 1}

    def test_integration_failure_carries_index(self, ctx2):
        # a step budget of 60 finds lambda_1 of TENT and runs out in the
        # search for lambda_2: the spectrum names that index
        with pytest.raises(SearchError) as err:
            compute_spectrum(ctx2, TENT, 3, 1.0, SolverConfig(max_steps=60))
        assert str(err.value).startswith(
            "eigenvalue search failed at index 2: step budget 60 exhausted")
        assert err.value.details == {"n": 2}
        assert isinstance(err.value.__cause__, IntegrationError)


def test_harness_config_is_a_solver_config(ctx3):
    # a harness config goes to the solver as it is, and solves as the
    # solver config with the same solver fields
    solver = SolverConfig(rel_tol=1e-9, abs_tol=1e-11, max_steps=5000,
                          phase_tol=1e-8)
    harness = HarnessConfig(**vars(solver), slack_rel=1e-6, rho_points=3,
                            ell_points=2)
    assert (find_eigenvalue(ctx3, TENT, 3, 1.0, harness)
            == find_eigenvalue(ctx3, TENT, 3, 1.0, solver))
    by_harness = integrate_phase(ctx3, PL5, 7.5, 1.0, harness)
    by_solver = integrate_phase(ctx3, PL5, 7.5, 1.0, solver)
    assert by_harness.phi_end == by_solver.phi_end
    assert by_harness.stats == by_solver.stats


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
            traj = integrate_amplitude(ctx3, TENT, pair.rho, 1.0, CFG)
            grid = reconstruct_eigenfunction(traj, samples=1001)
            ys = grid[:, 1]
            assert count_sign_changes(ys[1:-1]) == n - 1
            assert abs(ys[-1]) <= 1e-7 * np.max(np.abs(ys))
            assert abs(ys[0]) == 0.0

    def test_domain_monotonicity(self, ctx2):
        lams = [find_eigenvalue(ctx2, restrict(TENT, ell), 1, ell, CFG).lam
                for ell in (0.3, 0.5, 0.7, 1.0)]
        assert all(a > b for a, b in zip(lams, lams[1:]))
