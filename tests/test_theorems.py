import json
import math
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest

from plapeig import (DomainError, HarnessConfig, SearchError, SolverConfig,
                     constant, eigensolver, piecewise_linear, prufer,
                     scaled_tent, theorems, verify_remark1, verify_theorem1,
                     verify_theorem2, verify_theorem3)

from oracles import fd_theta_dot

TENT = scaled_tent(-5.0, 4.0)
WELL = piecewise_linear([[0.0, 5.0], [0.5, 3.0], [1.0, 5.0]])
WSHAPE = piecewise_linear([[0.0, 0.0], [0.25, -1.0], [0.5, 0.0],
                           [0.75, -1.0], [1.0, 0.0]])
# a narrow rise to +1 on an otherwise constant -2
SPIKE = piecewise_linear([[0.0, -2.0], [0.5002, -2.0], [0.50045, 1.0],
                          [0.5007, -2.0], [1.0, -2.0]])
# two minima 2e-4 apart
TWO_MINIMA = piecewise_linear([[0.0, 5.0], [0.3001, 1.0], [0.3002, 4.0],
                               [0.3003, 1.0], [1.0, 5.0]])
FAST = HarnessConfig(ell_points=8)
# a step budget of 46 runs out at half of T1's rho grid on TENT; one of
# 45 runs out in the searches for lambda_2 and lambda_3 of T2 on TENT
# and of R1 on WELL
STARVED = HarnessConfig(max_steps=46)
STARVED_SEARCH = HarnessConfig(max_steps=45)


def strict_json(text):
    """``json.loads`` that refuses NaN and the infinities, as RFC 8259
    does."""
    def refuse(name):
        raise ValueError(f"non-finite number {name} in JSON")
    return json.loads(text, parse_constant=refuse)


def assert_certificate_consistent(cert):
    in_points = [s for s in cert.scan if s.in_hypothesis]
    if cert.verdict == "verified":
        assert in_points
        assert all(s.satisfied for s in in_points)
    if cert.verdict == "violated":
        assert any(not s.satisfied for s in in_points)
    if in_points:
        assert cert.worst_margin == min(s.margin for s in in_points)


class TestTheorem1:
    @pytest.mark.parametrize("num", (1, 2, 8, 32))
    @pytest.mark.parametrize("start,stop", (
        (math.sqrt(10.0), 4.0 * math.sqrt(10.0)), (0.37, 0.37),
        (2.5, 42.5), (1e-3, 2e-3),
        (0.5 * math.pi, 4.0 * math.pi)),  # q(0) = 0 at p = 2: pi_p scale
        ids=("tent", "span-1", "span-17", "small", "q0-zero"))
    def test_rho_grid_is_geomspace(self, num, start, stop):
        # numpy.geomspace's steps in Python floats: the ends are pinned
        # exactly; numpy may run its own SIMD log10 and pow, which round
        # the interior points otherwise than libm by an ulp or so
        grid = theorems._geomspace(start, stop, num)
        ref = np.geomspace(start, stop, num)
        assert len(grid) == num and all(type(r) is float for r in grid)
        assert grid[0] == ref[0] == start and grid[-1] == ref[-1]
        assert np.allclose(grid, ref, rtol=1e-15, atol=0.0)
        assert theorems._geomspace(1.0, 1000.0, 4) == [1.0, 10.0, 100.0,
                                                        1000.0]

    @pytest.mark.parametrize("q", (TENT, constant(0.0)), ids=("tent", "zero"))
    def test_scan_runs_the_rho_grid(self, ctx2, monkeypatch, q):
        # the harness scans exactly that grid, on the pi_p scale when
        # q(0) = 0
        class Flat:
            theta_dot_end = -1.0
        monkeypatch.setattr(theorems, "integrate_sensitivity",
                            lambda *args: Flat())
        cfg = HarnessConfig(rho_points=8, rho_span=3.0)
        cert = verify_theorem1(ctx2, q, cfg=cfg)
        rhos = [dict(s.inputs)["rho"] for s in cert.scan]
        threshold = cert.hypotheses["rho_threshold"]
        lo, hi = ((threshold, 3.0 * threshold) if threshold > 0.0
                  else (0.5 * math.pi, 3.0 * math.pi))
        assert rhos == theorems._geomspace(lo, hi, 8)

    def test_free_potential_zero_margin(self, ctx2):
        cert = verify_theorem1(ctx2, constant(0.0))
        assert cert.verdict == "verified"
        assert all(abs(s.value) <= 1e-13 for s in cert.scan)
        assert any("rigidity" in n for n in cert.notes)
        # T1 has one rho grid, so the note names no "default" one
        assert ("degenerate threshold q(0) = 0: any rho > 0 is in "
                "hypothesis; grid uses pi_p scale") in cert.notes
        assert_certificate_consistent(cert)

    def test_tent_barrier(self, ctx2):
        cert = verify_theorem1(ctx2, TENT)
        assert cert.verdict == "verified"
        assert cert.hypotheses["x0"] == pytest.approx(0.5, abs=1e-12)
        assert cert.hypotheses["rho_threshold"] == pytest.approx(
            math.sqrt(10.0), rel=1e-14)
        assert len([s for s in cert.scan if s.in_hypothesis]) == 32
        # grid spans threshold to 4x threshold
        rhos = [dict(s.inputs)["rho"] for s in cert.scan]
        assert min(rhos) == pytest.approx(math.sqrt(10.0), rel=1e-12)
        assert max(rhos) == pytest.approx(4.0 * math.sqrt(10.0), rel=1e-12)
        assert_certificate_consistent(cert)

    def test_variational_matches_finite_difference(self, ctx3):
        cert = verify_theorem1(ctx3, TENT)
        x0 = cert.hypotheses["x0"]
        from plapeig import restrict
        qr = restrict(TENT, x0)
        for s in cert.scan[::10]:
            rho = dict(s.inputs)["rho"]
            fd = fd_theta_dot(ctx3, qr, rho, x0)
            assert s.value == pytest.approx(fd, rel=1e-4)

    def test_increasing_ramp_p3(self, ctx3):
        # q = -1 + x is monotone increasing, turning point at the right
        # endpoint, threshold (2)^(1/3)
        ramp = piecewise_linear([[0.0, -1.0], [1.0, 0.0]])
        cert = verify_theorem1(ctx3, ramp)
        assert cert.verdict == "verified"
        assert cert.hypotheses["x0"] == pytest.approx(1.0)
        assert cert.hypotheses["rho_threshold"] == pytest.approx(
            2.0 ** (1.0 / 3.0), rel=1e-13)

    def test_empty_turning_interval_margins_are_plus_zero(self, ctx2):
        # q = -1 - 2x turns at x0 = 0: every row is theta_dot = 0 on an
        # empty interval, with margin +0.0, never -0.0
        ramp = piecewise_linear([[0.0, -1.0], [1.0, -3.0]])
        cert = verify_theorem1(ctx2, ramp)
        assert cert.verdict == "verified"
        assert cert.scan
        for s in cert.scan:
            assert s.value == 0.0
            assert s.margin == 0.0 and math.copysign(1.0, s.margin) == 1.0
            assert s.note == "empty turning interval"
        assert math.copysign(1.0, cert.worst_margin) == 1.0

    def test_hypothesis_gating_well(self, ctx2):
        cert = verify_theorem1(ctx2, WELL)
        assert cert.verdict == "inconclusive"
        assert any("hypothesis failure" in n for n in cert.notes)
        assert cert.scan == ()

    def test_turning_point_on_the_peak_knot(self, ctx2):
        # [0, x0] must end on the peak, so q is nondecreasing on all of it
        peak = piecewise_linear([[0.0, -5.0], [0.37, -3.0], [1.0, -5.0]])
        cert = verify_theorem1(ctx2, peak, cfg=HarnessConfig(rho_points=1))
        assert cert.hypotheses["x0"] == 0.37
        assert cert.hypotheses["restricted_shape"] == "monotone_increasing"
        assert cert.verdict == "verified"

    def test_gating_two_peaks(self, ctx2):
        # nondecreasing on [0, 0.5], but 0.5 is no turning point of q
        peaks = piecewise_linear([[0.0, -5.0], [0.2, -1.0], [0.5, -1.0],
                                  [0.6, -3.0], [0.8, -1.0], [1.0, -5.0]])
        cert = verify_theorem1(ctx2, peaks)
        assert cert.verdict == "inconclusive"
        assert cert.hypotheses["x0"] is None
        assert cert.notes == ("hypothesis failure: q must be monotone on "
                              "each side of one turning point; certified "
                              "neither",)
        assert cert.scan == ()


class TestTheorem2:
    def test_free_equality(self, ctx3):
        cert = verify_theorem2(ctx3, constant(0.0), n_max=4)
        assert cert.verdict == "verified"
        assert abs(cert.worst_margin) <= 1e-12
        assert_certificate_consistent(cert)

    @pytest.mark.parametrize("p", (1.5, 2.0, 3.0))
    def test_tent_verified(self, ctx_for, p):
        cert = verify_theorem2(ctx_for(p), TENT, n_max=5)
        assert cert.verdict == "verified"
        assert cert.worst_margin > -1e-8
        assert_certificate_consistent(cert)

    def test_threshold_probe_is_separate(self, ctx2):
        # depth -10: lambda_1 < 20 = -2*q*, so pairs with m = 1 are
        # recorded out of hypothesis and never fail the statement
        deep = scaled_tent(-10.0, 10.0)
        cert = verify_theorem2(ctx2, deep, n_max=4)
        assert cert.verdict == "verified"
        out = [s for s in cert.scan if not s.in_hypothesis]
        assert out and all(dict(s.inputs)["m"] == 1.0 for s in out)
        assert all("below threshold" in s.note for s in out)
        lam1 = cert.hypotheses["lambdas"][0]
        assert lam1 < cert.hypotheses["lambda_threshold"]

    def test_gating_neither(self, ctx2):
        cert = verify_theorem2(ctx2, WSHAPE, n_max=3)
        assert cert.verdict == "inconclusive"
        assert any("single-barrier" in n for n in cert.notes)

    def test_gating_positive(self, ctx2):
        cert = verify_theorem2(ctx2, WELL, n_max=3)
        assert cert.verdict == "inconclusive"

    def test_gating_narrow_spike(self, ctx2):
        cert = verify_theorem2(ctx2, SPIKE, n_max=3)
        assert cert.verdict == "inconclusive"
        assert cert.notes == ("hypothesis failure: q must be nonpositive",)

    def test_negative_lambda1_below_threshold(self, ctx2):
        # depth -30 pushes lambda_1 below zero: its pairs sit below the
        # threshold, are recorded out of hypothesis, and the remaining
        # pairs still verify
        deep = scaled_tent(-30.0, 30.0)
        cert = verify_theorem2(ctx2, deep, n_max=4)
        assert cert.verdict == "verified"
        assert cert.hypotheses["lambdas"][0] < 0.0
        first = [s for s in cert.scan if dict(s.inputs)["m"] == 1.0]
        assert len(first) == 3
        assert all(not s.in_hypothesis and "below threshold" in s.note
                   for s in first)

    def test_failed_search_leaves_its_pairs_out(self, ctx2, monkeypatch):
        # the scan walks the pairs that were found: without lambda_2 it
        # checks (1,3), (1,4) and (3,4), and the gap leaves it inconclusive
        real_find = theorems.find_eigenvalue

        def find(ctx, q, n, *args, **kwargs):
            if n == 2:
                raise SearchError("injected", details={"rho": 1.0})
            return real_find(ctx, q, n, *args, **kwargs)

        monkeypatch.setattr(theorems, "find_eigenvalue", find)
        cert = verify_theorem2(ctx2, TENT, n_max=4)
        assert [(dict(s.inputs)["m"], dict(s.inputs)["n"])
                for s in cert.scan] == [(1.0, 3.0), (1.0, 4.0), (3.0, 4.0)]
        assert cert.verdict == "inconclusive"
        assert cert.hypotheses["lambdas"][1] is None
        assert cert.notes == ("eigenvalue search failed at n=2: injected",)
        assert all(s.satisfied for s in cert.scan)

    @pytest.mark.parametrize("lower", (True, False), ids=("lower", "upper"))
    def test_ratio_bound_reverses_with_the_sign_of_lambda_m(self, lower):
        # lambda_2 / lambda_1 = -3 lies below 2^2 = 4 whatever the sign of
        # lambda_1: it misses a lower bound and meets an upper one
        pairs = {1: SimpleNamespace(lam=-1.0), 2: SimpleNamespace(lam=3.0)}
        (point,) = theorems._ratio_points(2.0, pairs, None, lower, 1e-8)
        assert point.value == -3.0 and point.bound == 4.0
        assert point.satisfied is not lower
        assert (point.margin < 0.0) is lower
        assert abs(point.margin) == 1.75  # |3 - (-4)| / 4

    def test_t1_t2_rigidity_consistency(self, ctx2):
        # strictly negative sensitivity somewhere forbids the all-pairs
        # exact-equality pattern (equality would force q = 0)
        c1 = verify_theorem1(ctx2, TENT)
        c2 = verify_theorem2(ctx2, TENT, n_max=4)
        strictly_negative = any(s.value < -1e-6 for s in c1.scan)
        assert strictly_negative
        margins = [abs(s.margin) for s in c2.scan if s.in_hypothesis]
        assert max(margins) > 1e-6


class TestTheorem3:
    def test_constant_minus6_analytic(self, ctx2):
        cert = verify_theorem3(ctx2, constant(-6.0), n_max=3, cfg=FAST)
        assert cert.verdict == "verified"
        assert cert.hypotheses["ell_bound"] == pytest.approx(1.0 / 3.0,
                                                             rel=1e-14)
        assert cert.hypotheses["ell_hat"] == pytest.approx(1.0 / 3.0,
                                                           rel=1e-12)
        for s in cert.scan:
            if s.quantity == "lambda1":
                ell = dict(s.inputs)["ell"]
                assert s.value == pytest.approx((math.pi / ell) ** 2 - 6.0,
                                                rel=1e-8)
        assert_certificate_consistent(cert)

    def test_tent_p3_bound(self, ctx3):
        cert = verify_theorem3(ctx3, TENT, n_max=3, cfg=FAST)
        assert cert.verdict == "verified"
        assert cert.hypotheses["ell_bound"] == pytest.approx(
            0.2 ** (1.0 / 3.0), rel=1e-14)
        ells = {dict(s.inputs)["ell"] for s in cert.scan}
        assert max(ells) <= cert.hypotheses["ell_bound"] + 1e-15
        assert_certificate_consistent(cert)

    def test_gating(self, ctx2):
        assert verify_theorem3(ctx2, WELL, cfg=FAST).verdict == "inconclusive"
        assert verify_theorem3(ctx2, WSHAPE, cfg=FAST).verdict == "inconclusive"

    def test_gating_narrow_spike(self, ctx2):
        cert = verify_theorem3(ctx2, SPIKE, n_max=2, cfg=FAST)
        assert cert.verdict == "inconclusive"
        assert cert.notes == ("hypothesis failure: q must be nonpositive",)

    def test_degenerate_threshold_q_star_zero(self, ctx2):
        # vanishing q is the only nonpositive barrier with q* = 0; the
        # length-bound formula degenerates and the whole interval is used
        cert = verify_theorem3(ctx2, constant(0.0), n_max=2, cfg=FAST)
        assert cert.verdict == "verified"
        assert cert.hypotheses["ell_bound"] == 1.0
        assert any("degenerate threshold" in n for n in cert.notes)

    def test_sign_of_lambda1_from_its_search(self, ctx2, monkeypatch):
        # lambda_1 = (pi/ell)^2 - 50 is positive at every ell up to
        # ell_bound = (1/75)^(1/2), and no integration runs outside a search
        searching = []
        outside = []
        real_find, real_integrate = theorems.find_eigenvalue, prufer._integrate

        def find(*args, **kwargs):
            searching.append(True)
            try:
                return real_find(*args, **kwargs)
            finally:
                searching.pop()

        def integrate(*args, **kwargs):
            if not searching:
                outside.append(args[2])
            return real_integrate(*args, **kwargs)

        monkeypatch.setattr(theorems, "find_eigenvalue", find)
        monkeypatch.setattr(prufer, "_integrate", integrate)
        cert = verify_theorem3(ctx2, constant(-50.0), n_max=2)
        assert outside == []
        rows = {dict(s.inputs)["ell"]: s for s in cert.scan
                if s.quantity == "lambda1"}
        assert len(rows) == 24
        for ell, s in rows.items():
            assert s.value == pytest.approx((math.pi / ell) ** 2 - 50.0,
                                            rel=1e-8)
            assert s.satisfied
        assert {dict(s.inputs)["ell"] for s in cert.scan
                if s.quantity == "ratio"} == set(rows)
        assert "NaN" not in cert.to_json()

    @pytest.mark.parametrize("p", (2.0, 3.0))
    def test_integrations_per_search(self, ctx_for, monkeypatch, p):
        # T3 makes most of a certificate's searches, so their cost is
        # pinned: on the tent at most 2.2 phase integrations per search
        searches, integrations = [], []
        real_find = theorems.find_eigenvalue
        real_phase = eigensolver.integrate_phase

        def find(*args, **kwargs):
            searches.append(args[2])
            return real_find(*args, **kwargs)

        def phase(*args, **kwargs):
            integrations.append(args[2])
            return real_phase(*args, **kwargs)

        monkeypatch.setattr(theorems, "find_eigenvalue", find)
        monkeypatch.setattr(eigensolver, "integrate_phase", phase)
        cert = verify_theorem3(ctx_for(p), TENT, n_max=3)
        assert cert.verdict == "verified"
        assert searches
        assert len(integrations) <= 2.2 * len(searches), (
            len(integrations), len(searches))

    def test_first_point_failure_is_inconclusive(self, ctx2, monkeypatch):
        # halving every lambda_2 forges a ratio violation at every point,
        # driving the existence judgment to its no-evidence outcome
        real_find = theorems.find_eigenvalue

        def find(ctx, q, n, *args, **kwargs):
            pair = real_find(ctx, q, n, *args, **kwargs)
            return replace(pair, lam=0.5 * pair.lam) if n == 2 else pair

        monkeypatch.setattr(theorems, "find_eigenvalue", find)
        cert = verify_theorem3(ctx2, constant(-6.0), n_max=2,
                               cfg=HarnessConfig(ell_points=4))
        assert cert.verdict == "inconclusive"
        assert cert.hypotheses["ell_hat"] == 0.0
        assert any("no positive ell certified" in n for n in cert.notes)
        # failing points are flagged, not counted against the statement
        assert all(not s.in_hypothesis for s in cert.scan
                   if s.quantity == "ratio")


class TestRemark1:
    def test_well_p2(self, ctx2):
        cert = verify_remark1(ctx2, WELL, n_max=6)
        assert cert.verdict == "verified"
        assert cert.worst_margin > -1e-8
        assert_certificate_consistent(cert)

    def test_constant_positive_p3(self, ctx3):
        # adding a positive constant shifts the free spectrum and can
        # only lower the ratios
        cert = verify_remark1(ctx3, constant(3.0), n_max=4)
        assert cert.verdict == "verified"
        lams = cert.hypotheses["lambdas"]
        for m in range(1, 5):
            for n in range(m + 1, 5):
                expect = ((n * ctx3.pi_p) ** 3 + 3.0) / ((m * ctx3.pi_p) ** 3 + 3.0)
                assert lams[n - 1] / lams[m - 1] == pytest.approx(expect,
                                                                  rel=1e-8)
                assert expect <= (n / m) ** 3

    def test_free_rigidity_note(self, ctx2):
        # q = 0 meets both statements with equality, and both say so
        r1 = verify_remark1(ctx2, constant(0.0), n_max=3)
        t2 = verify_theorem2(ctx2, constant(0.0), n_max=3)
        assert r1.verdict == t2.verdict == "verified"
        assert r1.notes == t2.notes == (
            "q vanishes: rigidity direction, ratios should be exact",)

    def test_gating_barrier(self, ctx2):
        assert verify_remark1(ctx2, TENT, n_max=3).verdict == "inconclusive"

    def test_gating_two_minima(self, ctx2):
        cert = verify_remark1(ctx2, TWO_MINIMA, n_max=3)
        assert cert.verdict == "inconclusive"
        assert cert.notes == ("hypothesis failure: q must be single-well; "
                              "certified neither",)


class TestCertificates:
    def test_byte_determinism(self, ctx2):
        a = verify_theorem2(ctx2, TENT, n_max=4).to_json()
        b = verify_theorem2(ctx2, TENT, n_max=4).to_json()
        assert a == b
        c = verify_theorem3(ctx2, constant(-6.0), n_max=2, cfg=FAST).to_json()
        d = verify_theorem3(ctx2, constant(-6.0), n_max=2, cfg=FAST).to_json()
        assert c == d

    def test_json_schema(self, ctx2):
        cert = verify_theorem2(ctx2, TENT, n_max=3)
        doc = json.loads(cert.to_json())
        assert set(doc) == {"theorem_id", "verdict", "worst_margin",
                            "hypotheses", "scan", "notes", "config"}
        assert doc["theorem_id"] == "T2"
        assert doc["config"]["slack_rel"] == 1e-8
        assert "slack_abs" not in doc["config"]  # T1's slack, unread here
        assert doc["hypotheses"]["shape_certificate"]["shape"] == "single_barrier"
        assert set(doc["scan"][0]) == {f.name for f in fields(cert.scan[0])}
        assert doc["scan"][0]["inputs"] == {"m": 1.0, "n": 2.0}

    def test_csv_rows_schema(self, ctx2):
        from plapeig.theorems import CSV_HEADER
        cert = verify_theorem2(ctx2, TENT, n_max=3)
        rows = cert.csv_rows()
        assert len(rows) == len(cert.scan)
        assert all(len(r) == len(CSV_HEADER) for r in rows)
        # m, n populated; rho, ell absent (None) for ratio rows
        assert rows[0][2] is None and rows[0][4] is not None

    def test_t1_scan_sorted_by_rho(self, ctx2):
        cert = verify_theorem1(ctx2, TENT)
        rhos = [dict(s.inputs)["rho"] for s in cert.scan]
        assert rhos == sorted(rhos)

    def test_config_describes_the_scan(self, ctx2):
        cfg = HarnessConfig(rho_points=5, rho_span=2.0, ell_points=3)
        t1 = verify_theorem1(ctx2, TENT, cfg=cfg)
        rhos = [dict(s.inputs)["rho"] for s in t1.scan]
        assert len(rhos) == t1.config["rho_points"] == 5
        assert rhos[0] == t1.hypotheses["rho_threshold"]
        assert rhos[-1] == pytest.approx(t1.config["rho_span"] * rhos[0],
                                         rel=1e-14)
        assert all(s.in_hypothesis for s in t1.scan)
        t3 = verify_theorem3(ctx2, constant(-6.0), n_max=2, cfg=cfg)
        ells = [dict(s.inputs)["ell"] for s in t3.scan
                if s.quantity == "lambda1"]
        assert len(ells) == t3.config["ell_points"] == 3
        assert ells[-1] == pytest.approx(t3.hypotheses["ell_bound"],
                                         rel=1e-15)


class TestFailedSolves:
    # a failed solve leaves its point uncomputed: None, never NaN, and
    # the certificate inconclusive unless a computed point violates
    def test_t1_failed_rows_leave_it_inconclusive(self, ctx2):
        cert = verify_theorem1(ctx2, TENT, cfg=STARVED)
        failed = [s for s in cert.scan if s.value is None]
        assert len(cert.scan) == 32 and len(failed) == 16
        for s in failed:
            assert s.margin is None and not s.in_hypothesis
            assert s.note.startswith("integration failed: step budget 46")
        # every computed point holds its bound, so no violation is shown
        assert cert.verdict == "inconclusive"
        assert_certificate_consistent(cert)
        doc = strict_json(cert.to_json())
        assert doc["worst_margin"] == cert.worst_margin > 0.0
        assert sum(s["value"] is None for s in doc["scan"]) == 16

    @pytest.mark.parametrize("verify,q", ((verify_theorem2, TENT),
                                          (verify_remark1, WELL)),
                             ids=("T2", "R1"))
    def test_integration_error_skips_its_index(self, ctx2, verify, q):
        # lambda_1 is found; the searches for 2 and 3 run out of steps,
        # which leaves no pair to scan
        cert = verify(ctx2, q, n_max=3, cfg=STARVED_SEARCH)
        assert cert.verdict == "inconclusive"
        assert cert.worst_margin is None and cert.scan == ()
        assert cert.hypotheses["lambdas"][1:] == [None, None]
        assert [n.split(":")[0] for n in cert.notes][:2] == [
            f"eigenvalue search failed at n={n}" for n in (2, 3)]
        assert "step budget 45 exhausted" in cert.notes[0]
        assert strict_json(cert.to_json())["worst_margin"] is None

    def test_t3_failed_lambda1_is_none(self, ctx2, monkeypatch):
        # the lambda_1 search fails at the third of four lengths: the
        # first two stay certified, the third leaves the certified range,
        # and the fourth is not searched
        real_find = theorems.find_eigenvalue
        first_searches = []

        def find(ctx, q, n, *args, **kwargs):
            if n == 1:
                first_searches.append(n)
                if len(first_searches) == 3:
                    raise SearchError("injected", details={"rho": 1.0})
            return real_find(ctx, q, n, *args, **kwargs)

        monkeypatch.setattr(theorems, "find_eigenvalue", find)
        cert = verify_theorem3(ctx2, constant(-6.0), n_max=2,
                               cfg=HarnessConfig(ell_points=4))
        rows = [s for s in cert.scan if s.quantity == "lambda1"]
        assert [s.value is None for s in rows] == [False, False, True]
        assert len(first_searches) == 3
        assert cert.notes[-1] == (
            f"last length searched: ell={dict(rows[2].inputs)['ell']!r}; "
            "the 1 larger lengths lie beyond empirical ell_hat and were "
            "not searched")
        assert rows[2].margin is None and not rows[2].in_hypothesis
        assert rows[2].note.startswith("lambda_1 search failed")
        assert not any("property breaks" in t
                       for t in (*cert.notes, *(s.note for s in cert.scan)))
        assert cert.hypotheses["ell_hat"] == dict(rows[1].inputs)["ell"]
        assert cert.verdict == "inconclusive"
        assert_certificate_consistent(cert)
        doc = strict_json(cert.to_json())
        assert doc["scan"][cert.scan.index(rows[2])]["value"] is None

    def test_t3_failed_search_ends_the_certified_range(self, ctx2):
        # a budget of 22 steps loses lambda_3 and lambda_4 at the third
        # of six lengths: the range certified ends at the second, the
        # failed length is uncomputed, not broken, and the three larger
        # lengths are not searched
        cert = verify_theorem3(ctx2, TENT, n_max=4,
                               cfg=HarnessConfig(max_steps=22, ell_points=6))
        ells = sorted({dict(s.inputs)["ell"] for s in cert.scan})
        assert len(ells) == 3
        assert cert.hypotheses["ell_hat"] == ells[1]
        assert cert.verdict == "inconclusive"
        assert_certificate_consistent(cert)
        for s in cert.scan:
            ell = dict(s.inputs)["ell"]
            assert s.in_hypothesis == (ell <= ells[1])
            if ell == ells[2]:
                assert s.note.startswith(
                    "eigenvalue search failed at n=3: step budget 22")
        assert [n.split(":")[0] for n in cert.notes] == [
            "eigenvalue search failed at n=3",
            "eigenvalue search failed at n=4", "last length searched"]
        assert cert.notes[-1].startswith(
            f"last length searched: ell={ells[2]!r}; the 3 larger lengths")
        assert not any("property breaks" in t
                       for t in (*cert.notes, *(s.note for s in cert.scan)))

    def test_refused_certificate_writes_null(self, ctx2):
        cert = verify_theorem2(ctx2, constant(3.0))
        assert cert.verdict == "inconclusive"
        assert cert.worst_margin is None
        assert strict_json(cert.to_json())["worst_margin"] is None


@pytest.mark.parametrize("cls,name,value", (
    (HarnessConfig, "rho_points", 0), (HarnessConfig, "ell_points", 0),
    (HarnessConfig, "rho_span", 0.5), (HarnessConfig, "rho_span", math.inf),
    (HarnessConfig, "slack_rel", -1.0), (HarnessConfig, "slack_abs", math.nan),
    (SolverConfig, "phase_tol", math.inf), (SolverConfig, "rel_tol", 0.0),
    (SolverConfig, "abs_tol", -1e-12), (SolverConfig, "max_steps", 9)))
def test_config_refuses_out_of_range_setting(cls, name, value):
    with pytest.raises(DomainError, match=f"^{name} must be "):
        cls(**{name: value})


def test_config_names_the_solver_field_first():
    # the solver's fields are checked before the harness's own
    with pytest.raises(DomainError, match="^rel_tol must be "):
        HarnessConfig(rel_tol=0.0, rho_points=0)
