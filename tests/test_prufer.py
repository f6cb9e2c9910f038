import math

import numpy as np
import pytest

from plapeig import (DomainError, IntegrationError, Potential, StateError,
                     SolverConfig, constant, direct_shoot, find_eigenvalue,
                     integrate_amplitude, integrate_phase,
                     integrate_sensitivity, piecewise_linear,
                     reconstruct_eigenfunction, restrict, scaled_tent, sp)
from plapeig import prufer

from oracles import (classical_prufer_p2, fast_abs_sp_pow, fd_u, index_points,
                     random_nonpositive_piecewise_linear, reference_dp45)

TENT = scaled_tent(-5.0, 4.0)
TIGHT = SolverConfig(rel_tol=1e-12, abs_tol=1e-13)
# interior knots, and a piece where q > 0 (phi' < rho there)
BUMP = piecewise_linear([[0.0, -2.0], [0.45, 3.0], [1.0, -1.0]])
WELL = piecewise_linear([[0.0, 5.0], [0.4, 0.5], [1.0, 4.0]])
# ends on its own last knot, at 0.8
SHORT_BUMP = restrict(BUMP, 0.8)
# integrator and the dimension of its state
INTEGRATORS = ((integrate_phase, 1), (integrate_amplitude, 2),
               (integrate_sensitivity, 3))


class TestFreePotential:
    @pytest.mark.parametrize("p", (1.5, 2.0, 3.0))
    def test_phase_is_linear(self, ctx_for, p):
        # q = 0 makes phi' = rho exactly
        ctx = ctx_for(p)
        traj = integrate_phase(ctx, constant(0.0), rho=ctx.pi_p, ell=1.0)
        assert traj.phi_end == pytest.approx(ctx.pi_p, rel=1e-14)
        assert traj.theta_end == pytest.approx(1.0, rel=1e-14)

    def test_amplitude_stays_one(self, ctx3):
        traj = integrate_amplitude(ctx3, constant(0.0), rho=2.7, ell=1.0)
        assert traj.logr_end == 0.0

    def test_sensitivity_is_length(self, ctx3):
        traj = integrate_sensitivity(ctx3, constant(0.0), rho=2.7, ell=1.0)
        assert traj.u_end == pytest.approx(1.0, rel=1e-13)
        assert traj.theta_dot_end == pytest.approx(0.0, abs=1e-14)


class TestAgainstClassical:
    def test_constant_shift_eigenlevel(self, ctx2):
        # for constant q the spectrum is the shifted free spectrum, so
        # the phase hits pi at lambda = pi^2 + c
        for c in (-2.0, 3.0):
            rho = math.sqrt(math.pi ** 2 + c)
            traj = integrate_phase(ctx2, constant(c), rho, 1.0)
            assert traj.phi_end == pytest.approx(math.pi, abs=5e-10)

    @pytest.mark.parametrize("rho", (1.0, 4.0, 9.5))
    def test_p2_phase_and_amplitude_regression(self, ctx2, rho):
        phi_ref, logr_ref = classical_prufer_p2(TENT, rho, 1.0)
        traj = integrate_amplitude(ctx2, TENT, rho, 1.0)
        assert traj.phi_end == pytest.approx(phi_ref, abs=1e-8)
        assert traj.logr_end == pytest.approx(logr_ref, abs=1e-8)

    def test_p2_random_potentials_regression(self, ctx2):
        rng = np.random.default_rng(11)
        for _ in range(5):
            q = random_nonpositive_piecewise_linear(rng)
            rho = float(rng.uniform(1.0, 8.0))
            phi_ref, logr_ref = classical_prufer_p2(q, rho, 1.0)
            traj = integrate_amplitude(ctx2, q, rho, 1.0)
            assert traj.phi_end == pytest.approx(phi_ref, abs=1e-8)
            assert traj.logr_end == pytest.approx(logr_ref, abs=1e-8)

    def test_p3_zero_count_matches_direct_oracle(self, ctx3):
        rho = 3.0
        traj = integrate_phase(ctx3, TENT, rho, 1.0)
        phase_zeros = int(math.floor(traj.phi_end / ctx3.pi_p))
        shot = direct_shoot(ctx3, TENT, rho ** 3, 1.0)
        assert phase_zeros == shot.zero_count

    def test_amplitude_matches_direct_extraction(self, ctx2):
        # the direct shot has y'(0) = 1 = (rho R S_p')(0) / rho, so its
        # invariant amplitude is R/rho under our R(0) = 1 normalization
        rho = 4.0
        traj = integrate_amplitude(ctx2, TENT, rho, 1.0)
        shot = direct_shoot(ctx2, TENT, rho ** 2, 1.0)
        r_direct = (abs(shot.y_end) ** 2 + abs(shot.yprime_end / rho) ** 2) ** 0.5
        assert math.exp(traj.logr_end) == pytest.approx(rho * r_direct,
                                                        rel=1e-6)


class TestSensitivity:
    def test_variational_vs_finite_difference_sweep(self, ctx_for):
        # 50 randomized (p, q, rho) cases, relative 1e-4
        rng = np.random.default_rng(23)
        ps = (1.5, 2.0, 3.0, 5.0)
        for i in range(50):
            ctx = ctx_for(ps[i % len(ps)])
            q = random_nonpositive_piecewise_linear(rng)
            rho = float(rng.uniform(1.0, 6.0))
            u_var = integrate_sensitivity(ctx, q, rho, 1.0).u_end
            u_fd = fd_u(ctx, q, rho, 1.0, SolverConfig())
            assert u_var == pytest.approx(u_fd, rel=1e-4)

    def test_tent_theta_dot_nonpositive_beyond_threshold(self, ctx2):
        qr = restrict(TENT, 0.5)
        threshold = math.sqrt(-2.0 * qr.value(0.0))
        for rho in (threshold, 1.5 * threshold, 20.0):
            td = integrate_sensitivity(ctx2, qr, rho, 0.5).theta_dot_end
            assert td <= 1e-10

    @pytest.mark.parametrize("p,bound", ((1.5, 1e-8), (3.0, 3e-8),
                                         (5.0, 1e-6)))
    def test_theta_dot_meets_tolerance(self, ctx_for, p, bound):
        # T1's quantity on its own rho range at the default tolerances,
        # against rel_tol 1e-13; steps that straddled a level k*pi_p/2
        # put the error at 3.4e-8, 1.3e-7 and 3.3e-6
        ctx = ctx_for(p)
        tight = SolverConfig(rel_tol=1e-13, abs_tol=1e-15)
        r0 = 10.0 ** (1.0 / p)
        for rho in np.geomspace(r0, 4.0 * r0, 16):
            td = integrate_sensitivity(ctx, TENT, float(rho), 0.5).theta_dot_end
            ref = integrate_sensitivity(ctx, TENT, float(rho), 0.5,
                                        tight).theta_dot_end
            assert td == pytest.approx(ref, rel=bound)


class TestTrajectoryContracts:
    def test_theta_is_phi_over_rho(self, ctx3):
        traj = integrate_phase(ctx3, TENT, 3.3, 1.0)
        assert traj.theta_end == traj.phi_end / traj.rho
        assert traj.theta_end * traj.rho == pytest.approx(traj.phi_end,
                                                          rel=4e-16)

    def test_positivity_for_nonpositive_q(self, ctx3):
        traj = integrate_amplitude(ctx3, TENT, 2.0, 1.0)
        assert min(traj.dense_dphi) >= traj.rho - 1e-12
        assert np.all(np.diff(traj.dense_phi) > 0.0)

    def test_monotone_in_rho(self, ctx3):
        # the sensitivity source term b(x) is nonnegative once
        # lambda >= (p-1)*max|q|, which guarantees d(phi)/d(rho) > 0; at
        # very small rho the q/rho^(p-1) term dominates and the terminal
        # phase genuinely dips (the eigensolver never relies on that
        # region: level crossings stay unique by oscillation theory)
        rho_min = ((ctx3.p - 1.0) * max(abs(v) for v in TENT.min_max())) \
            ** (1.0 / ctx3.p)
        rhos = np.linspace(rho_min, 12.0, 64)
        phis = [integrate_phase(ctx3, TENT, float(r), 1.0).phi_end
                for r in rhos]
        assert np.all(np.diff(phis) > 0.0)

    def test_knots_are_step_boundaries(self, ctx2):
        q = piecewise_linear([[0.0, -1.0], [0.37, -4.0], [1.0, -2.0]])
        traj = integrate_amplitude(ctx2, q, 3.0, 1.0)
        assert 0.37 in set(np.round(traj.dense_x, 12))
        assert traj.stats["n_pieces"] == 2

    def test_stats_recorded(self, ctx2):
        traj = integrate_amplitude(ctx2, TENT, 3.0, 1.0)
        assert traj.stats["n_steps"] == len(traj.dense_x) - 1
        assert traj.stats["n_rhs"] > 0

    def test_phase_keeps_no_dense_output(self, ctx2):
        # the search reads only phi_end; the counts stay
        traj = integrate_phase(ctx2, TENT, 3.0, 1.0)
        assert traj.dense_x is None
        assert traj.dense_phi is None and traj.dense_dphi is None
        assert traj.dense_logr is None and traj.dense_dlogr is None
        assert traj.stats["n_steps"] > 0 and traj.stats["n_rhs"] > 0


class TestUnrolledKernels:
    """The stage-unrolled kernels against the generic tableau loop."""

    @pytest.mark.parametrize("integrate,dim", INTEGRATORS)
    @pytest.mark.parametrize("q", (TENT, BUMP, WELL, SHORT_BUMP),
                             ids=("tent", "bump", "well", "restricted"))
    @pytest.mark.parametrize("p", (1.5, 2.0, 3.0, 5.0, 1.45, 3.3))
    def test_bit_identical_to_reference(self, ctx_for, p, q, integrate, dim):
        # the reference reads q by Potential.value on every call; at
        # ell = 0.37 the last piece of the kernel ends inside a piece of
        # the potential, at domain_end on its last knot.  p = 1.45 and
        # 3.3 lie just outside min(p, p/(p-1)) >= 3/2, where the phase
        # keeps its weights and its estimate reads the singular term
        ctx = ctx_for(p)
        for ell in (q.domain_end, 0.37):
            for rho in (2.5, 11.0):
                traj = integrate(ctx, q, rho, ell)
                ref = reference_dp45(ctx, q, rho, ell, SolverConfig(), dim)
                assert traj.phi_end == ref["phi_end"]
                assert traj.logr_end == ref["logr_end"]
                assert traj.u_end == ref["u_end"]
                for key in ("n_steps", "n_rejected", "n_landed", "n_rhs"):
                    assert traj.stats[key] == ref[key], key

    @pytest.mark.parametrize("integrate", [i for i, _ in INTEGRATORS])
    @pytest.mark.parametrize("p", (1.5, 3.0))
    def test_rhs_count(self, ctx_for, p, integrate):
        # one slope per piece start and six per attempted step or
        # discarded trial of a level landing; the systems store the
        # first piece's opening slope as dense output, at no extra cost
        q = piecewise_linear([[0.0, -1.0], [0.2, 2.0], [0.5, -4.0],
                              [0.8, 0.5], [1.0, -2.0]])
        landed = 0
        for rho in (1.5, 6.0):
            st = integrate(ctx_for(p), q, rho, 1.0).stats
            assert st["n_pieces"] == 4
            landed += st["n_landed"]
            assert st["n_rhs"] == st["n_pieces"] + 6 * (
                st["n_steps"] + st["n_rejected"] + st["n_landed"])
        if p == 1.5:
            # at rho = 6 every integrator overshoots a level once and
            # falls back to the Hermite landing; at p = 3 the predicted
            # landings leave no fallback on this potential
            assert landed > 0

    @pytest.mark.parametrize("p", (1.5, 3.0))
    def test_level_at_piece_end(self, ctx_for, p):
        # q = 0 puts phi = rho*x, so the level pi_p falls at
        # x = 1/(1 + rel): within the snap distance of the end the
        # predicted landing is not taken and the trial runs to the end,
        # farther in the step lands on the level and one short step
        # follows; no trial is discarded
        ctx = ctx_for(p)
        for rel, steps in ((4e-15, 3), (4e-13, 4)):
            rho = ctx.pi_p * (1.0 + rel)
            traj = integrate_phase(ctx, constant(0.0), rho, 1.0)
            ref = reference_dp45(ctx, constant(0.0), rho, 1.0,
                                 SolverConfig(), 1)
            assert traj.phi_end == ref["phi_end"]
            assert traj.phi_end == pytest.approx(rho, rel=1e-15)
            assert traj.stats["n_steps"] == ref["n_steps"] == steps
            assert traj.stats["n_landed"] == ref["n_landed"] == 0

    def test_p2_never_lands(self, ctx2):
        # |S_2|^2 = sin^2 is analytic: no level is a step boundary
        st = integrate_phase(ctx2, TENT, 11.0, 1.0).stats
        assert st["n_landed"] == 0

    @pytest.mark.parametrize("integrate,dim", ((integrate_phase, 1),
                                               (integrate_sensitivity, 3)))
    def test_step_budget(self, ctx3, integrate, dim):
        tol = SolverConfig(max_steps=10)
        with pytest.raises(IntegrationError) as info:
            integrate(ctx3, TENT, 40.0, 1.0, tol)
        with pytest.raises(IntegrationError) as ref:
            reference_dp45(ctx3, TENT, 40.0, 1.0, tol, dim)
        assert math.isfinite(info.value.last_x)
        assert 0.0 < info.value.last_x < 1.0
        assert info.value.last_x == ref.value.last_x


class TestPieceRightHandSide:
    """The right-hand side the kernel builds once per piece."""

    @staticmethod
    def piece_rhs(monkeypatch, ctx, q, rho, ell):
        """The kernel's bounds and its per-piece right-hand-side factory
        for the phase integration of q at rho over [0, ell]."""
        seen = {}
        kernel = prufer._kernel

        def spy(rhs, bounds, *args):
            seen.update(rhs=rhs, bounds=bounds)
            return kernel(rhs, bounds, *args)

        monkeypatch.setattr(prufer, "_kernel", spy)
        integrate_phase(ctx, q, rho, ell)
        return seen["bounds"], seen["rhs"]

    @staticmethod
    def special_phases(ctx):
        """Phases at which the phase slope's inline table read could part
        from ``PContext.fold``: each point of the table's index in all
        four quadrants, the levels k*pi_p/2, an ulp either side of the
        multiples of the period, both signs of all of them, and phases so
        large that phi - 2*pi_p*floor(phi/(2*pi_p)) leaves [0, 2*pi_p)."""
        pi_p, two_pi = ctx.pi_p, 2.0 * ctx.pi_p
        phases = []
        for xr in index_points(ctx):
            phases += (xr, pi_p - xr, pi_p + xr, two_pi - xr)
        phases += [k * ctx.quarter for k in range(-16, 17)]
        phases += [math.nextafter(k * two_pi, way) for k in range(-8, 9)
                   for way in (-math.inf, math.inf)]
        phases += [-phi for phi in phases]
        big = [k * two_pi * 2.0 ** e for k in (1, 3, 7) for e in range(40, 64, 3)]
        return phases + big + [math.nextafter(phi, math.inf) for phi in big]

    @pytest.mark.parametrize("p", (1.05, 1.5, 2.0, 3.0, 5.0, 50.0))
    def test_equals_per_call_route(self, ctx_for, p, monkeypatch):
        # random piecewise-linear potentials, both signs: on each piece,
        # at both ends, their ulp neighbours and random interior points,
        # the per-piece phase slope and Q = q*rho^(1-p), which the
        # singular terms next to a level read, are the per-call ones bit
        # for bit; so is the slope at every special phase
        ctx = ctx_for(p)
        rng = np.random.default_rng(20)
        rho = 7.0
        coef = rho ** (1.0 - p)
        checked = 0
        for _ in range(25):
            inner = np.sort(rng.uniform(0.02, 0.98, size=rng.integers(1, 7)))
            xs = [0.0, *inner.tolist(), 1.0]
            q = piecewise_linear([[x, rng.uniform(-40.0, 40.0)] for x in xs])
            ell = float(rng.choice([1.0, rng.uniform(0.3, 1.0)]))
            bounds, rhs = self.piece_rhs(monkeypatch, ctx, q, rho, ell)
            for a, b in zip(bounds, bounds[1:]):
                f, big_q = rhs(a)
                points = [a, math.nextafter(a, 2.0), math.nextafter(b, 0.0),
                          b, math.nextafter(b, 2.0),
                          *rng.uniform(a, b, size=8).tolist()]
                for x in points:
                    if x > q.domain_end:
                        continue
                    phi = float(rng.uniform(-1.0, 40.0))
                    assert f(x, phi) == (rho - q.value(x) * coef
                                         * fast_abs_sp_pow(ctx, phi)), (q, x)
                    assert big_q(x) == q.value(x) * coef, (q, x)
                    checked += 1
        assert checked > 1000

        f, _ = rhs(bounds[0])
        x = 0.5 * (bounds[0] + bounds[1])
        qx = q.value(x) * coef
        assert qx != 0.0
        phases = self.special_phases(ctx)
        two_pi = 2.0 * ctx.pi_p
        assert any(not 0.0 <= phi - two_pi * math.floor(phi / two_pi) < two_pi
                   for phi in phases)
        for phi in phases:
            assert f(x, phi) == rho - qx * fast_abs_sp_pow(ctx, phi), phi

    @pytest.mark.parametrize("p", (1.5, 3.0))
    def test_value_read_only_from_a_right_knot(self, ctx_for, p, monkeypatch):
        # q comes from the bound piece everywhere short of the piece's
        # right knot; only the c = 1 stages of a piece's last step, on
        # the knot or an ulp past it, ask Potential.value
        q = piecewise_linear([[0.0, -1.0], [0.2, 2.0], [0.5, -4.0],
                              [0.8, 0.5], [1.0, -2.0]])
        calls = []
        value = Potential.value

        def spy(self, x):
            calls.append(x)
            return value(self, x)

        monkeypatch.setattr(Potential, "value", spy)
        for ell in (1.0, 0.65):
            for rho in (1.5, 6.0, 20.0):
                integrate_phase(ctx_for(p), q, rho, ell)
        assert calls
        for x in calls:
            assert any(k <= x <= math.nextafter(k, 2.0) for k in q.xs[1:]), x


class TestTerminalMap:
    """phi(ell, rho) is smooth in rho once no step straddles a level
    k*pi_p/2, where |S_p|^p is not smooth for p != 2."""

    @staticmethod
    def jitter(ctx, q, rho12):
        # deviation of phi(ell) from its linear fit over 101 values of
        # rho within 1e-9 relative of rho12
        offsets = np.linspace(-1e-9, 1e-9, 101) * rho12
        phis = np.array([integrate_phase(ctx, q, rho12 + d, 1.0).phi_end
                         for d in offsets])
        fit = np.polyval(np.polyfit(offsets, phis, 1), offsets)
        return np.abs(phis - fit).max()

    @pytest.mark.parametrize("p", (1.5, 3.0, 5.0))
    def test_no_jitter_near_twelfth_eigenvalue(self, ctx_for, p):
        # rho_12 on q = -2; a step straddling a level made phi(ell)
        # jitter by 3e-7 or more
        ctx = ctx_for(p)
        rho12 = ((12.0 * ctx.pi_p) ** p - 2.0) ** (1.0 / p)
        assert self.jitter(ctx, constant(-2.0), rho12) <= 1e-8

    @pytest.mark.parametrize("p", (1.5, 3.0, 5.0))
    def test_no_jitter_on_tent(self, ctx_for, p):
        # the same on the tent, whose knot at 0.5 meets the levels at
        # varying phase; where the step partition changed, steps next
        # to a level whose error the DP45 estimate under-read made
        # phi(ell) jump by 3.6e-8 at p = 1.5
        ctx = ctx_for(p)
        rho12 = find_eigenvalue(ctx, TENT, 12, 1.0).rho
        assert self.jitter(ctx, TENT, rho12) <= 1e-8

    @pytest.mark.parametrize("p", (1.5, 3.0, 5.0))
    def test_level_at_knot(self, ctx_for, p):
        # q = 0 with a knot at 0.5 puts phi = rho*x, so at
        # rho = k*pi_p*(1 + rel) the level k*pi_p/2 falls at or next to
        # the knot, and k*pi_p at or next to the end: no step may
        # underflow there, and phi(1) stays exact
        ctx = ctx_for(p)
        q = piecewise_linear([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]])
        for k in (1, 2, 3, 5):
            for rel in (0.0, 1e-16, -1e-16, 1e-15, -1e-15, 4e-15, 1e-14,
                        1e-13, -1e-13, 1e-12, 1e-11, -1e-11):
                rho = k * ctx.pi_p * (1.0 + rel)
                traj = integrate_phase(ctx, q, rho, 1.0)
                assert traj.phi_end == pytest.approx(rho, rel=1e-14), (k, rel)


class TestErrors:
    def test_rho_must_be_positive(self, ctx2):
        with pytest.raises(DomainError):
            integrate_phase(ctx2, TENT, 0.0, 1.0)
        with pytest.raises(DomainError):
            integrate_phase(ctx2, TENT, -1.0, 1.0)

    def test_ell_range(self, ctx2):
        with pytest.raises(DomainError):
            integrate_phase(ctx2, TENT, 1.0, 0.0)
        with pytest.raises(DomainError):
            integrate_phase(ctx2, TENT, 1.0, 1.5)

    def test_huge_rho_warns(self, ctx2):
        with pytest.warns(RuntimeWarning):
            traj = integrate_phase(ctx2, TENT, 1e9, 1e-3)
        assert traj.stats["warnings"]

    def test_reconstruct_needs_amplitude(self, ctx2):
        traj = integrate_phase(ctx2, TENT, 3.0, 1.0)
        with pytest.raises(StateError):
            reconstruct_eigenfunction(traj)


class TestReconstruction:
    def test_free_eigenfunction_shape(self, ctx3):
        # at rho = n*pi_p the free solution is y = S_p(n pi_p x)
        rho = 2.0 * ctx3.pi_p
        traj = integrate_amplitude(ctx3, constant(0.0), rho, 1.0)
        grid = reconstruct_eigenfunction(traj, samples=201)
        xs, ys = grid[:, 0], grid[:, 1]
        assert np.abs(ys - sp(ctx3, rho * xs)).max() <= 1e-9
        assert abs(ys[-1]) <= 1e-9
        signs = np.sign(ys[1:-1][np.abs(ys[1:-1]) > 1e-9])
        assert int(np.count_nonzero(signs[1:] != signs[:-1])) == 1
