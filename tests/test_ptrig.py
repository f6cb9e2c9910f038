import math
import pickle
from bisect import bisect_right

import numpy as np
import pytest

from plapeig import (DomainError, PoleError, arcsp, compute_spectrum,
                     constant, make_context, sp, sp_pair, sp_prime, tp)
from plapeig.ptrig import fast_pair

from oracles import (SP_IVP_FROZEN, arcsp_quadrature, fast_abs_sp_pow,
                     hermite_table_value, index_points, probe_residual, sp_ivp)

ALL_P = (1.2, 1.5, 2.0, 3.0, 5.0, 10.0)


class TestContext:
    def test_p2_half_period_is_pi(self):
        assert make_context(2.0).pi_p == pytest.approx(math.pi, abs=1e-15)

    def test_p3_half_period_closed_form(self):
        # 2*pi/(3*sin(pi/3)) = 4*pi/(3*sqrt(3))
        assert make_context(3.0).pi_p == pytest.approx(
            4.0 * math.pi / (3.0 * math.sqrt(3.0)), rel=1e-15)
        assert make_context(3.0).pi_p == pytest.approx(2.4183991523122903,
                                                       rel=1e-13)

    def test_p15_half_period(self):
        assert make_context(1.5).pi_p == pytest.approx(
            2.0 * math.pi / (1.5 * math.sin(2.0 * math.pi / 3.0)), rel=1e-15)
        assert make_context(1.5).pi_p == pytest.approx(4.8367983046, rel=1e-10)

    def test_conjugate_exponent(self):
        ctx = make_context(3.0)
        assert ctx.p_conj == pytest.approx(1.5, rel=1e-15)

    @pytest.mark.parametrize("bad", [1.0, 0.5, -2.0, math.nan, math.inf, "x"])
    def test_rejects_bad_exponent(self, bad):
        with pytest.raises(DomainError):
            make_context(bad)

    def test_probe_residual_small(self, ctx_for):
        for p in ALL_P:
            assert probe_residual(ctx_for(p)) < 1e-12

    def test_pickle_round_trip(self, ctx3):
        # the bound fold is a closure; a pickled context is rebuilt from
        # p, table and fold included, and so is a spectrum holding one
        ctx = pickle.loads(pickle.dumps(ctx3))
        assert ctx == ctx3 and ctx._xs == ctx3._xs
        assert ctx.fold(1.3) == ctx3.fold(1.3)
        spec = compute_spectrum(ctx3, constant(-2.0), 2, 1.0)
        assert pickle.loads(pickle.dumps(spec)).pairs == spec.pairs


class TestSpValues:
    @pytest.mark.parametrize("p", ALL_P)
    def test_zero_at_origin_unit_slope(self, ctx_for, p):
        ctx = ctx_for(p)
        assert sp(ctx, 0.0) == 0.0
        assert sp_prime(ctx, 0.0) == 1.0

    def test_p2_quarter_period(self, ctx2):
        assert sp(ctx2, math.pi / 2.0) == pytest.approx(1.0, abs=1e-14)
        assert sp_prime(ctx2, math.pi) == pytest.approx(-1.0, abs=1e-14)

    def test_p3_quarter_period_extremum(self, ctx3):
        # where S_p' vanishes the power identity forces S_p = 1
        assert sp(ctx3, ctx3.pi_p / 2.0) == 1.0
        assert sp_prime(ctx3, ctx3.pi_p / 2.0) == 0.0

    @pytest.mark.parametrize("key", sorted(SP_IVP_FROZEN))
    def test_frozen_ivp_oracle_points(self, ctx_for, key):
        # direct integration of the defining equation; the oracle itself
        # is good to ~1e-11 near its degenerate points for p != 2
        p, x = key
        y_ref, yp_ref = SP_IVP_FROZEN[key]
        tol = 1e-12 if p in (2.0, 3.0) else 3e-11
        ctx = ctx_for(p)
        assert sp(ctx, x) == pytest.approx(y_ref, abs=tol)
        assert sp_prime(ctx, x) == pytest.approx(yp_ref, abs=max(tol, 1e-11))

    def test_live_ivp_oracle_recompute(self, ctx3):
        y_ref, yp_ref = sp_ivp(3.0, 0.8)
        assert sp(ctx3, 0.8) == pytest.approx(y_ref, abs=1e-12)
        assert sp_prime(ctx3, 0.8) == pytest.approx(yp_ref, abs=1e-12)

    def test_empty_array(self, ctx3):
        s, c = sp_pair(ctx3, np.array([]))
        assert s.shape == c.shape == (0,)

    @pytest.mark.parametrize("p", (1.5, 3.0, 10.0))
    def test_tiny_arguments(self, ctx_for, p):
        # S_p(x) = x to rounding here; s^p underflows from 1e-300 (p = 1.5),
        # 1e-110 (p = 3) and 1e-40 (p = 10)
        ctx = ctx_for(p)
        for x in 10.0 ** -np.arange(20, 301, 5):
            x = float(x)
            assert sp(ctx, x) / x == pytest.approx(1.0, rel=0, abs=1e-15)
            assert sp(ctx, -x) == -sp(ctx, x)
            assert sp_prime(ctx, -x) == sp_prime(ctx, x)

    def test_rejects_nonfinite(self, ctx2):
        with pytest.raises(DomainError):
            sp(ctx2, math.inf)
        with pytest.raises(DomainError):
            sp_prime(ctx2, math.nan)


class TestReturnTypes:
    """A scalar gives a float; an ndarray or a list gives an ndarray of
    its shape, equal point by point to the scalar route."""

    @pytest.mark.parametrize("x", (0.7, 0, np.float64(0.25), np.array(0.5)),
                             ids=("float", "int", "float64", "0-d"))
    def test_scalar_gives_float(self, ctx3, x):
        values = (sp(ctx3, x), sp_prime(ctx3, x), *sp_pair(ctx3, x),
                  arcsp(ctx3, x), tp(ctx3, x))
        assert all(type(v) is float for v in values)

    @pytest.mark.parametrize("x", ([0.1, 0.5, 0.9], [[0.1, 0.2], [0.3, 0.4]],
                                   np.linspace(0.0, 1.0, 6).reshape(2, 3),
                                   [], np.empty((0, 3))),
                             ids=("list", "nested", "2-d", "empty-list",
                                  "empty-2-d"))
    def test_array_gives_array_of_its_shape(self, ctx3, x):
        shape = np.shape(x)
        s, c = sp_pair(ctx3, x)  # an empty argument still unpacks
        for f, out in ((sp, sp(ctx3, x)), (sp_prime, sp_prime(ctx3, x)),
                       (lambda ctx, v: sp_pair(ctx, v)[0], s),
                       (lambda ctx, v: sp_pair(ctx, v)[1], c),
                       (arcsp, arcsp(ctx3, x))):
            assert isinstance(out, np.ndarray) and out.dtype == float
            assert out.shape == shape
            flat = np.asarray(x, dtype=float).ravel().tolist()
            assert out.ravel().tolist() == [f(ctx3, v) for v in flat]


class TestIdentities:
    @pytest.mark.parametrize("p", ALL_P)
    def test_power_identity(self, ctx_for, p):
        ctx = ctx_for(p)
        xs = np.linspace(-3.0 * ctx.pi_p, 3.0 * ctx.pi_p, 10_000)
        s, c = sp_pair(ctx, xs)
        resid = np.abs(np.abs(s) ** p + np.abs(c) ** p - 1.0)
        assert resid.max() <= 1e-10
        assert np.abs(s).max() <= 1.0 + 1e-15
        assert np.abs(c).max() <= 1.0 + 1e-15

    def test_p2_reduces_to_sin_cos(self, ctx2):
        xs = np.linspace(-10.0, 10.0, 10_000)
        s, c = sp_pair(ctx2, xs)
        assert np.abs(s - np.sin(xs)).max() <= 1e-12
        assert np.abs(c - np.cos(xs)).max() <= 1e-12

    @pytest.mark.parametrize("p", (1.5, 3.0, 5.0))
    def test_first_zero(self, ctx_for, p):
        ctx = ctx_for(p)
        xs = np.linspace(1e-6, ctx.pi_p - 1e-6, 2000)
        assert np.all(sp(ctx, xs) > 0.0)
        assert abs(sp(ctx, ctx.pi_p)) <= 1e-10

    @pytest.mark.parametrize("p", (1.5, 3.0, 10.0))
    def test_oddness_periodicity_reflection(self, ctx_for, p):
        ctx = ctx_for(p)
        xs = np.linspace(0.0, ctx.pi_p, 400)
        assert np.abs(sp(ctx, -xs) + sp(ctx, xs)).max() <= 1e-13
        assert np.abs(sp(ctx, xs + 2.0 * ctx.pi_p) - sp(ctx, xs)).max() <= 1e-12
        # quarter-period reflection adopted for this one-parameter family
        assert np.abs(sp(ctx, ctx.pi_p - xs) - sp(ctx, xs)).max() <= 1e-12

    @pytest.mark.parametrize("p", (1.5, 2.0, 3.0, 5.0))
    def test_second_derivative_identity(self, ctx_for, p):
        # |S'|^(p-2) S'' = -S^(p-1) at points where S' != 0,
        # finite-difference S''
        ctx = ctx_for(p)
        h = 1e-4
        checked = 0
        for x in np.linspace(0.08, 0.92, 12) * ctx.pi_p:
            s = sp(ctx, x)
            c = sp_prime(ctx, x)
            if abs(c) < 0.15:  # statement excludes zeros of S'
                continue
            s2 = (sp(ctx, x + h) - 2.0 * s + sp(ctx, x - h)) / h ** 2
            lhs = abs(c) ** (p - 2.0) * s2
            rhs = -math.copysign(abs(s) ** (p - 1.0), s)
            assert lhs == pytest.approx(rhs, abs=1e-6)
            checked += 1
        assert checked >= 6


class TestArgumentReduction:
    # ctx.fold(x) -> (xr, s, sign_s, sign_c); the quadrant is the
    # sign pair: (+,+), (+,-), (-,-), (-,+)
    def test_three_quarters_p2(self, ctx2):
        xr, _, sign_s, sign_c = ctx2.fold(1.5 * math.pi)
        assert xr == pytest.approx(math.pi / 2.0, abs=1e-15)
        assert (sign_s, sign_c) == (-1.0, -1.0)

    def test_period_count(self, ctx3):
        xr, _, sign_s, sign_c = ctx3.fold(2.0 * ctx3.pi_p + 0.3)
        assert (sign_s, sign_c) == (1.0, 1.0)
        assert xr == pytest.approx(0.3, abs=1e-13)
        xr, _, sign_s, sign_c = ctx3.fold(-0.3)
        assert (sign_s, sign_c) == (-1.0, 1.0)
        assert xr == pytest.approx(0.3, abs=1e-13)

    def test_reconstruction_signs(self, ctx3):
        for x in np.linspace(-2.5 * ctx3.pi_p, 2.5 * ctx3.pi_p, 101):
            xr, _, sign_s, sign_c = ctx3.fold(float(x))
            assert 0.0 <= xr <= ctx3.pi_p / 2.0
            sq, cq = sp_pair(ctx3, xr)
            assert sp(ctx3, float(x)) == pytest.approx(sign_s * sq, abs=1e-12)
            assert sp_prime(ctx3, float(x)) == pytest.approx(sign_c * cq,
                                                             abs=1e-12)

    def test_huge_arguments(self, ctx3):
        # from about 6e16 the rounded floor(x / 2pi_p) misses by more
        # than one period; the fold still lands on the quarter period
        for x in (5.923175574983616e16, -8.8867668955274e16,
                  9.211191485207544e17, 1e300):
            assert 0.0 <= ctx3.fold(x)[0] <= ctx3.quarter
            s, c = sp_pair(ctx3, x)
            assert abs(abs(s) ** 3 + abs(c) ** 3 - 1.0) <= 1e-10

    @pytest.mark.parametrize("p", (1.5, 3.0, 10.0))
    def test_quadrant_boundaries(self, ctx_for, p):
        # at k*pi_p/2 and one ulp either side: the fold stays on the
        # quarter period, the power identity holds, and S_p' changes
        # sign across each of its zeros (odd k)
        ctx = ctx_for(p)
        for k in range(-8, 9):
            b = k * ctx.quarter
            xs = np.array([np.nextafter(b, -math.inf), b,
                           np.nextafter(b, math.inf)])
            for x in xs:
                assert 0.0 <= ctx.fold(float(x))[0] <= ctx.quarter
            s, c = sp_pair(ctx, xs)
            assert np.abs(np.abs(s) ** p + np.abs(c) ** p - 1.0).max() <= 1e-10
            if k % 2:
                assert c[0] * c[2] < 0.0, (k, c)


class TestTableFold:
    """The fold reads S_p off the table interval that
    ``bisect_right(xs, xr) - 1`` names, the last one at pi_p/2, as the
    interval's cubic in d = xr - x_i."""

    @staticmethod
    def bisect_interval(ctx, xr):
        xs = ctx._xs
        return min(bisect_right(xs, xr) - 1, len(xs) - 2)

    @classmethod
    def on_interval(cls, ctx, xr):
        # the clamped monomial value on the interval bisect names
        i = cls.bisect_interval(ctx, xr)
        d = xr - ctx._xs[i]
        s = ctx._ss[i] + d * (ctx._cs[i] + d * (ctx._c2[i] + d * ctx._c3[i]))
        return min(max(s, 0.0), 1.0)

    @staticmethod
    def entry(ctx, xr):
        # the interval the index hands the forward scan
        scale, start, split, lo_scale, lo, hi_top, hi_scale, hi, _ = ctx._index
        i = start[math.floor(xr * scale)]
        if i < 0:
            if xr < split:
                i = lo[math.floor(math.sqrt(xr) * lo_scale)]
            else:
                i = hi[math.floor((hi_top - math.sqrt(ctx.quarter - xr)) * hi_scale)]
        return i

    @pytest.mark.parametrize("p", (1.05, 1.5, 2.0, 3.0, 5.0, 50.0))
    def test_bucket_index_is_bisect(self, ctx_for, p):
        # every node and its two ulp neighbours, every edge of a uniform
        # or square-root bucket and its neighbours, 0 and pi_p/2; an
        # interval other than bisect's shows in the value's last bits
        ctx = ctx_for(p)
        for xr in index_points(ctx):
            assert ctx.fold(xr) == (xr, self.on_interval(ctx, xr), 1.0, 1.0), xr

    @pytest.mark.parametrize("p", (1.05, 1.5, 2.0, 3.0, 5.0, 50.0))
    def test_scan_is_short(self, ctx_for, p):
        # on the same points the index hands the scan an interval at or
        # before bisect's and at most two intervals short of it; uniform
        # buckets alone left up to 39 at p = 5, where the nodes cluster
        # below pi_p/2
        ctx = ctx_for(p)
        assert -1 in ctx._index[1]  # some uniform buckets hand over
        for xr in index_points(ctx):
            assert 0 <= self.bisect_interval(ctx, xr) - self.entry(ctx, xr) <= 2, xr

    @pytest.mark.parametrize("p", ALL_P)
    def test_monomial_matches_hermite(self, ctx_for, p):
        # the monomial form of each interval's cubic is the Hermite-basis
        # form to rounding, and a node gives its value exactly
        ctx = ctx_for(p)
        rng = np.random.default_rng(11)
        for xr in rng.uniform(0.0, ctx.quarter, 4000).tolist():
            assert abs(ctx.fold(xr)[1] - hermite_table_value(ctx, xr)) <= 4e-16
        for x, s in zip(ctx._xs, ctx._ss):
            assert ctx.fold(x)[1] == s


class TestGTable:
    """The table of G = |S_p|^p that the integrator's phase and
    sensitivity right-hand sides read: the cubic Hermite interpolant of
    G on the S_p table's nodes, with slopes p*G*S_p'/S_p."""

    # (pointwise, integrated) bounds on |G - |sp|^p| at four Gauss points
    # of every table interval, about twice the measured 4.0e-8, 3.7e-9,
    # 2.8e-11, 1.7e-14, 2.8e-11, 1.7e-9, 1.5e-8, 6.3e-8 and 4.1e-10,
    # 2.2e-12, 1.6e-13, 1.0e-14, 7.8e-14, 2.9e-13, 1.7e-12, 3.9e-10; each
    # maximum sits next to a clustered end of the table.  Slopes built
    # without their factor p read 5.8e-5 and 4.0e-5 or more at every p.
    BOUNDS = {1.05: (8e-8, 8e-10), 1.2: (8e-9, 5e-12), 1.5: (6e-11, 4e-13),
              2.0: (4e-14, 3e-14), 3.0: (6e-11, 2e-13), 5.0: (4e-9, 6e-13),
              10.0: (3e-8, 4e-12), 50.0: (1.3e-7, 8e-10)}

    @pytest.mark.parametrize("p", sorted(BOUNDS))
    def test_against_polished_power(self, ctx_for, p):
        ctx = ctx_for(p)
        t, w = np.polynomial.legendre.leggauss(4)
        t, w = ((t + 1.0) / 2.0).tolist(), (w / 2.0).tolist()
        worst = integrated = 0.0
        for a, b in zip(ctx._xs, ctx._xs[1:]):
            for tj, wj in zip(t, w):
                x = a + tj * (b - a)
                err = abs(fast_abs_sp_pow(ctx, x) - abs(sp(ctx, x)) ** p)
                worst = max(worst, err)
                integrated += wj * (b - a) * err
        assert worst <= self.BOUNDS[p][0] and integrated <= self.BOUNDS[p][1]

    @pytest.mark.parametrize("p", ALL_P)
    def test_period_and_reflection(self, ctx_for, p):
        # G has period pi_p and is even about pi_p/2, both signs of x
        ctx = ctx_for(p)
        rng = np.random.default_rng(5)
        for x in rng.uniform(-4.0 * ctx.pi_p, 4.0 * ctx.pi_p, 500).tolist():
            assert fast_abs_sp_pow(ctx, x) == pytest.approx(
                abs(sp(ctx, x)) ** p, abs=self.BOUNDS[p][0])
        assert fast_abs_sp_pow(ctx, 0.0) == 0.0
        assert fast_abs_sp_pow(ctx, ctx.quarter) == 1.0


class TestTangent:
    def test_zero(self, ctx3):
        assert tp(ctx3, 0.0) == 0.0

    def test_p2_eighth_period(self, ctx2):
        assert tp(ctx2, math.pi / 4.0) == pytest.approx(1.0, rel=1e-13)

    def test_p3_frozen_ratio(self, ctx3):
        y_ref, yp_ref = SP_IVP_FROZEN[(3.0, 0.5)]
        assert tp(ctx3, 0.5) == pytest.approx(y_ref / yp_ref, rel=1e-11)

    def test_pole_error_carries_location(self, ctx3):
        pole = ctx3.pi_p / 2.0
        with pytest.raises(PoleError) as err:
            tp(ctx3, pole + 1e-9)
        assert err.value.nearest_pole == pytest.approx(pole, rel=1e-12)
        with pytest.raises(PoleError):
            tp(ctx3, pole + 3.0 * ctx3.pi_p)
        for x in (-pole - 1e-9, -pole + 1e-9):
            with pytest.raises(PoleError) as err:
                tp(ctx3, x)
            assert err.value.nearest_pole == pytest.approx(-pole, rel=1e-12)

    @pytest.mark.parametrize("p", (1.5, 2.0, 3.0))
    def test_derivative_identity(self, ctx_for, p):
        # T_p' = 1 + |T_p|^p, centered difference with h = 1e-6
        ctx = ctx_for(p)
        h = 1e-6
        for x in (0.1, 0.3, 0.45 * ctx.pi_p, -0.35 * ctx.pi_p):
            fd = (tp(ctx, x + h) - tp(ctx, x - h)) / (2.0 * h)
            expected = 1.0 + abs(tp(ctx, x)) ** p
            assert fd == pytest.approx(expected, rel=1e-5)


class TestInverseRoutes:
    @pytest.mark.parametrize("p", (1.5, 2.0, 3.0, 5.0))
    def test_quadrature_matches_beta_route(self, ctx_for, p):
        # independent Gauss-Kronrod route with the regularizing
        # substitution against the series form of the incomplete beta
        ctx = ctx_for(p)
        for s in (0.0, 0.3, 0.85, 0.999, 1.0):
            assert arcsp_quadrature(ctx, s) == pytest.approx(
                arcsp(ctx, s), abs=5e-13)

    @pytest.mark.parametrize("p", ALL_P)
    def test_quadrature_quarter_period(self, ctx_for, p):
        ctx = ctx_for(p)
        assert arcsp_quadrature(ctx, 1.0) == pytest.approx(
            0.5 * ctx.pi_p, abs=5e-13)

    def test_arcsp_inverts_sp(self, ctx3):
        xs = np.linspace(0.0, 0.5 * ctx3.pi_p, 50)
        assert np.abs(arcsp(ctx3, sp(ctx3, xs)) - xs).max() <= 1e-12


class TestFastPath:
    @pytest.mark.parametrize("p", (1.5, 2.0, 3.0, 10.0))
    def test_consistent_with_accurate_path(self, ctx_for, p):
        ctx = ctx_for(p)
        rng = np.random.default_rng(7)
        xs = rng.uniform(-3.0 * ctx.pi_p, 3.0 * ctx.pi_p, 3000)
        worst = 0.0
        for x in xs:
            fs, fc = fast_pair(ctx, float(x))
            a_s, a_c = sp_pair(ctx, float(x))
            worst = max(worst, abs(fs - a_s), abs(fc - a_c))
        # table interpolation degrades near the derivative's zeros for
        # large p; the bound documents the measured scale
        assert worst <= 5e-8


class TestSeries:
    # the inverse map x(s) is summed by two positive power series, split
    # where s^p = 1/2; scipy's incomplete beta is the oracle
    @pytest.mark.parametrize("p", (1.05, 1.5, 3.0, 10.0, 50.0))
    def test_arcsp_matches_incomplete_beta(self, ctx_for, p):
        from scipy.special import betainc

        ctx = ctx_for(p)
        s = np.linspace(0.0, 1.0, 2001)[1:]
        ref = ctx.quarter * betainc(1.0 / p, 1.0 - 1.0 / p, s ** p)
        assert np.max(np.abs(arcsp(ctx, s) / ref - 1.0)) <= 4e-14

    def test_arcsp_p2_is_arcsin(self, ctx2):
        # at p = 2 the closed form is the sharper oracle: x(s) = arcsin(s)
        s = np.linspace(0.0, 1.0, 2001)
        assert np.max(np.abs(arcsp(ctx2, s) - np.arcsin(s))) <= 1e-15

    @pytest.mark.parametrize("p", (20.0, 30.0, 50.0))
    def test_large_p(self, ctx_for, p):
        ctx = ctx_for(p)
        assert probe_residual(ctx) < 1e-12
        xs = np.linspace(0.0, ctx.quarter, 4001)
        s, c = sp_pair(ctx, xs)
        assert np.all(np.diff(s) >= 0.0)
        assert np.max(np.abs(s ** p + c ** p - 1.0)) <= 1e-12
