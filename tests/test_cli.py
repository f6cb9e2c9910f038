import json
import math
import subprocess
import sys

import pytest

from plapeig import SearchError, SolverConfig
from plapeig.cli import main

TENT_SPEC = '{"type":"scaled_tent","depth":-5,"rise":4}'
WELL_SPEC = '{"type":"piecewise_linear","knots":[[0,5],[0.5,3],[1,5]]}'
FREE_SPEC = '{"type":"constant","value":0}'


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = [line for line in text.splitlines() if line and not line.startswith("#")]
    header = rows[0].split(",")
    return header, [r.split(",") for r in rows[1:]]


class TestPtrigTable:
    def test_p2_matches_sin_cos(self, capsys):
        code, out, _ = run_cli(capsys, "ptrig-table", "--p", "2",
                               "--x-min", "0", "--x-max", str(math.pi),
                               "--steps", "8")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["x", "sp", "sp_prime", "identity"]
        assert len(rows) == 9
        for row in rows:
            x = float(row[0])
            assert float(row[1]) == pytest.approx(math.sin(x), abs=1e-12)
            assert float(row[2]) == pytest.approx(math.cos(x), abs=1e-12)

    def test_p3_identity_column(self, capsys):
        code, out, _ = run_cli(capsys, "ptrig-table", "--p", "3",
                               "--x-min", "0", "--x-max", "2.418", "--steps", "9")
        assert code == 0
        _, rows = parse_csv(out)
        assert all(abs(float(r[3]) - 1.0) <= 1e-10 for r in rows)

    def test_header_echoes_only_what_it_reads(self, capsys):
        code, out, _ = run_cli(capsys, "ptrig-table", "--p", "3",
                               "--x-min", "0", "--x-max", "1", "--steps", "2")
        assert code == 0
        echoed = sorted(line.split("=")[0] for line in out.splitlines()
                        if line.startswith("#"))
        assert echoed == ["# format", "# p", "# steps", "# x_max", "# x_min"]

    def test_config_potential_not_read(self, capsys, tmp_path):
        # a config file shared with other subcommands may hold a
        # potential; ptrig-table neither parses nor echoes it
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"potential": {"type": "nope"}}))
        code, out, _ = run_cli(capsys, "ptrig-table", "--p", "2",
                               "--config", str(cfg), "--x-min", "0",
                               "--x-max", "1", "--steps", "2")
        assert code == 0
        assert "potential" not in out

    def test_p1_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "ptrig-table", "--p", "1",
                               "--x-min", "0", "--x-max", "1", "--steps", "4")
        assert code == 2
        assert "p > 1" in err

    def test_bad_range(self, capsys):
        code, _, err = run_cli(capsys, "ptrig-table", "--p", "2",
                               "--x-min", "1", "--x-max", "0", "--steps", "4")
        assert code == 2
        assert "usage error" in err

    def test_roundtrip_precision(self, capsys):
        code, out, _ = run_cli(capsys, "ptrig-table", "--p", "2",
                               "--x-min", "0", "--x-max", "1", "--steps", "2")
        _, rows = parse_csv(out)
        # 17 significant digits round-trip through text
        assert float(rows[1][1]) == math.sin(0.5)


class TestEigs:
    def test_free_spectrum(self, capsys):
        code, out, _ = run_cli(capsys, "eigs", "--p", "2", "--potential",
                               FREE_SPEC, "--n-max", "3")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["n", "lambda", "rho", "phi_end", "residual",
                          "zero_count", "shift"]
        lams = [float(r[1]) for r in rows]
        assert lams == pytest.approx([math.pi ** 2, 4 * math.pi ** 2,
                                      9 * math.pi ** 2], rel=1e-9)
        assert [int(r[5]) for r in rows] == [0, 1, 2]

    def test_shifted_free_p3(self, capsys):
        code, out, _ = run_cli(capsys, "eigs", "--p", "3", "--potential",
                               '{"type":"constant","value":-2}',
                               "--n-max", "2")
        assert code == 0
        _, rows = parse_csv(out)
        pi3 = 2.0 * math.pi / (3.0 * math.sin(math.pi / 3.0))
        assert float(rows[0][1]) == pytest.approx(pi3 ** 3 - 2.0, rel=1e-8)
        assert float(rows[1][1]) == pytest.approx((2 * pi3) ** 3 - 2.0,
                                                  rel=1e-8)

    def test_tent_rows_increasing(self, capsys):
        code, out, _ = run_cli(capsys, "eigs", "--p", "2", "--potential",
                               TENT_SPEC, "--n-max", "5")
        assert code == 0
        _, rows = parse_csv(out)
        lams = [float(r[1]) for r in rows]
        assert len(lams) == 5
        assert all(a < b for a, b in zip(lams, lams[1:]))

    def test_negative_eigenvalues(self, capsys):
        code, out, _ = run_cli(capsys, "eigs", "--p", "2", "--potential",
                               '{"type":"constant","value":-50}',
                               "--n-max", "2")
        assert code == 0
        _, rows = parse_csv(out)
        assert [float(r[1]) for r in rows] == pytest.approx(
            [math.pi ** 2 - 50.0, 4 * math.pi ** 2 - 50.0], rel=1e-10)

    def test_shift_column(self, capsys):
        # rho belongs to the shifted potential: rho^p = lambda + shift,
        # with shift 50 = -mean q on every row, whatever the sign of the
        # comparison lower bound
        code, out, _ = run_cli(capsys, "eigs", "--p", "2", "--potential",
                               '{"type":"constant","value":-50}',
                               "--n-max", "3")
        assert code == 0
        header, rows = parse_csv(out)
        assert header[-1] == "shift"
        assert [float(r[-1]) for r in rows] == [50.0, 50.0, 50.0]
        for r in rows:
            lam, rho, shift = float(r[1]), float(r[2]), float(r[-1])
            assert rho ** 2 == pytest.approx(lam + shift, rel=1e-14)

    def test_solver_failure_exit_2(self, capsys, coarse_phase):
        code, _, err = run_cli(capsys, "eigs", "--p", "2", "--potential",
                               '{"type":"constant","value":-2}',
                               "--n-max", "1")
        assert code == 2
        assert "index 1" in err
        assert err.count("eigenvalue search failed") == 1

    @pytest.mark.parametrize("command,where", (
        (("eigs",), "error: "),
        (("sweep", "--axis", "depth", "--values=-5,-10"),
         "sweep failed at depth=-5: ")), ids=("eigs", "sweep"))
    def test_integration_failure_names_index(self, capsys, command, where):
        # a budget of 45 steps finds lambda_1 of the tent and runs out in
        # the search for lambda_2
        code, out, err = run_cli(capsys, *command, "--p", "2", "--potential",
                                 TENT_SPEC, "--n-max", "3", "--max-steps", "45")
        assert code == 2 and out == ""
        assert err == (where + "eigenvalue search failed at index 2: step "
                       "budget 45 exhausted at x=0.8799877121728168 "
                       "(rho=6.28319, ell=1)\n")

    def test_large_phase_tol(self, capsys):
        code, out, err = run_cli(capsys, "eigs", "--p", "2", "--potential",
                                 '{"type":"constant","value":-2}',
                                 "--n-max", "3", "--phase-tol", "0.5")
        assert code == 0, err
        _, rows = parse_csv(out)
        assert [int(r[5]) for r in rows] == [0, 1, 2]

    def test_default_tolerances_echoed(self, capsys):
        code, out, _ = run_cli(capsys, "eigs", "--potential", FREE_SPEC,
                               "--n-max", "1", "--format", "report")
        assert code == 0
        echoed = json.loads(out)["config"]
        solver = SolverConfig()
        assert echoed["rel_tol"] == solver.rel_tol
        assert echoed["abs_tol"] == solver.abs_tol
        assert echoed["max_steps"] == solver.max_steps
        assert echoed["phase_tol"] == solver.phase_tol

    def test_no_crlf_and_config_echo(self, capsys):
        code, out, _ = run_cli(capsys, "eigs", "--p", "2", "--potential",
                               FREE_SPEC, "--n-max", "1")
        assert "\r" not in out
        assert "# p=2" in out
        assert "# n_max=1" in out


class TestVerify:
    def test_t2_tent_exit_0(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--theorem", "t2", "--p",
                                 "2", "--potential", TENT_SPEC, "--n-max", "4")
        assert code == 0
        assert "verified" in err
        header, rows = parse_csv(out)
        assert header[0] == "theorem_id"
        assert all(r[0] == "T2" for r in rows)

    def test_t2_on_well_exit_4(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--theorem", "t2", "--p", "2",
                               "--potential", WELL_SPEC, "--n-max", "3")
        assert code == 4
        assert "inconclusive" in err

    def test_t2_negative_lambda_m_rows_miss_their_bound(self, capsys):
        # depth -30 leaves lambda_1 < 0 < lambda_2: the ratios over
        # lambda_1 are negative, below (n/m)^2, and their rows say so
        # (out of hypothesis, so the verdict stays inconclusive)
        code, out, err = run_cli(
            capsys, "verify", "--theorem", "t2", "--p", "2", "--potential",
            '{"type":"scaled_tent","depth":-30,"rise":4}', "--n-max", "3")
        assert code == 4
        assert "inconclusive" in err
        header, rows = parse_csv(out)
        cols = [dict(zip(header, r)) for r in rows]
        assert [(c["m"], c["n"], c["margin"], c["satisfied"])
                for c in cols[:2]] == [
            ("1", "2", "-1.1398675839860419", "false"),
            ("1", "3", "-1.355231802401172", "false")]
        assert all(float(c["value"]) < 0.0 and c["in_hypothesis"] == "false"
                   for c in cols[:2])

    def test_r1_well_exit_0(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--theorem", "r1", "--p", "2",
                               "--potential", WELL_SPEC, "--n-max", "4")
        assert code == 0

    def test_t3_report_format(self, capsys, tmp_path):
        out_path = tmp_path / "cert.json"
        code, _, _ = run_cli(capsys, "verify", "--theorem", "t3", "--p", "2",
                             "--potential", '{"type":"constant","value":-6}',
                             "--n-max", "2", "--ell-points", "6",
                             "--format", "report", "--out", str(out_path))
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["kind"] == "theorem_certificate"
        cert = doc["certificate"]
        assert cert["verdict"] == "verified"
        assert cert["hypotheses"]["ell_bound"] == pytest.approx(1 / 3,
                                                                rel=1e-12)
        assert doc["config"]["ell_points"] == 6

    @pytest.mark.parametrize("argv", (
        ("--theorem", "t1", "--potential", TENT_SPEC, "--max-steps", "60"),
        ("--theorem", "t2", "--potential", TENT_SPEC, "--max-steps", "45",
         "--n-max", "3"),
        ("--theorem", "t2", "--potential", '{"type":"constant","value":3}')),
        ids=("t1-failed-solves", "t2-failed-solves", "t2-refused"))
    def test_uncomputed_is_inconclusive_and_null(self, capsys, argv):
        # a failed solve inside verify, or a refused hypothesis, is
        # inconclusive (exit 4); what was not computed is an empty cell
        # or null, never nan
        def refuse(name):
            raise ValueError(f"non-finite number {name} in JSON")

        code, out, err = run_cli(capsys, "verify", "--p", "2", *argv)
        assert code == 4
        assert "inconclusive" in err and "nan" not in err
        assert "nan" not in out
        code, out, _ = run_cli(capsys, "verify", "--p", "2", *argv,
                               "--format", "report")
        assert code == 4
        cert = json.loads(out, parse_constant=refuse)["certificate"]
        assert cert["verdict"] == "inconclusive"
        assert all(s["in_hypothesis"] for s in cert["scan"]
                   if s["value"] is not None)

    def test_csv_keeps_the_notes(self, capsys):
        # the searches for lambda_2 and lambda_3 run out of steps: the
        # CSV says so, one comment line per note after the settings
        argv = ("verify", "--theorem", "t2", "--p", "2", "--potential",
                TENT_SPEC, "--max-steps", "45", "--n-max", "3")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 4
        *settings, header = out.splitlines()
        notes = [ln for ln in settings if ln.startswith("# note=")]
        assert settings[-2:] == notes
        assert [ln.split(":")[0] for ln in notes] == [
            f"# note=eigenvalue search failed at n={n}" for n in (2, 3)]
        assert header.startswith("theorem_id,")
        code, report, _ = run_cli(capsys, *argv, "--format", "report")
        assert [f"# note={t}" for t in
                json.loads(report)["certificate"]["notes"]] == notes

    def test_csv_note_is_one_line(self, capsys, monkeypatch):
        from plapeig import theorems

        def find(*args, **kwargs):
            raise SearchError("first line\nsecond line")

        monkeypatch.setattr(theorems, "find_eigenvalue", find)
        code, out, _ = run_cli(capsys, "verify", "--theorem", "r1", "--p",
                               "2", "--potential", WELL_SPEC, "--n-max", "2")
        assert code == 4
        assert out.splitlines()[-3:-1] == [
            f"# note=eigenvalue search failed at n={n}: first line second line"
            for n in (1, 2)]

    def test_t1_tent_exit_0(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--theorem", "t1", "--p",
                               "1.5", "--potential", TENT_SPEC,
                               "--rho-points", "8")
        assert code == 0

    def test_ell_is_usage_error(self, capsys):
        # no harness reads ell (T3 scans its own grid), so verify neither
        # registers --ell nor echoes ell
        argv = ["verify", "--theorem", "t2", "--p", "2", "--potential",
                '{"type":"constant","value":-2}', "--n-max", "2"]
        with pytest.raises(SystemExit) as info:
            main(argv + ["--ell", "0.5"])
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert "# ell=" not in out

    @pytest.mark.parametrize("theorem,echoed", (
        ("t1", ["abs_tol", "max_steps", "rel_tol", "rho_points", "rho_span",
                "slack_abs"]),
        ("t2", ["abs_tol", "max_steps", "n_max", "phase_tol", "rel_tol",
                "slack_rel"]),
        ("t3", ["abs_tol", "ell_points", "max_steps", "n_max", "phase_tol",
                "rel_tol", "slack_rel"]),
        ("r1", ["abs_tol", "max_steps", "n_max", "phase_tol", "rel_tol",
                "slack_rel"])))
    def test_header_echoes_only_what_the_theorem_reads(self, capsys,
                                                       tmp_path, theorem,
                                                       echoed):
        # a config-file value the harness does not read passes unechoed
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n_max": 2, "rho_points": 2,
                                   "ell_points": 2, "slack_rel": 1e-8,
                                   "slack_abs": 1e-10, "phase_tol": 1e-9,
                                   "rho_span": 4.0}))
        spec = WELL_SPEC if theorem == "r1" else '{"type":"constant","value":-2}'
        code, out, _ = run_cli(capsys, "verify", "--theorem", theorem,
                               "--p", "2", "--potential", spec,
                               "--config", str(cfg))
        assert code == 0
        keys = sorted(line[2:].split("=")[0] for line in out.splitlines()
                      if line.startswith("# "))
        assert keys == sorted(echoed + ["format", "p", "potential",
                                        "theorem"])

    @pytest.mark.parametrize("theorem", ("t1", "t2", "t3", "r1"))
    def test_certificate_records_the_header_settings(self, capsys, tmp_path,
                                                     theorem):
        # the certificate's config holds exactly the settings the CLI
        # header echoes, less the CLI's own format and theorem
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n_max": 2, "rho_points": 2,
                                   "ell_points": 2}))
        spec = WELL_SPEC if theorem == "r1" else '{"type":"constant","value":-2}'
        argv = ("verify", "--theorem", theorem, "--p", "2", "--potential",
                spec, "--config", str(cfg))
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        header = {line[2:].split("=")[0] for line in out.splitlines()
                  if line.startswith("# ")}
        code, out, _ = run_cli(capsys, *argv, "--format", "report")
        assert code == 0
        recorded = json.loads(out)["certificate"]["config"]
        assert set(recorded) == header - {"format", "theorem"}

    @pytest.mark.parametrize("theorem,flag,value", (
        ("t1", "--n-max", "9"), ("t1", "--ell-points", "3"),
        ("t1", "--phase-tol", "1e-8"), ("t1", "--slack-rel", "1e-6"),
        ("t2", "--rho-points", "4"), ("t2", "--slack-abs", "1e-6"),
        ("t2", "--ell-points", "3"), ("r1", "--rho-span", "2"),
        ("t3", "--rho-points", "4")))
    def test_unread_flag_is_usage_error(self, capsys, theorem, flag, value):
        # T1 scans rho, the ratio harnesses an index range: a flag the
        # harness would ignore is refused rather than echoed
        code, out, err = run_cli(capsys, "verify", "--theorem", theorem,
                                 "--p", "2", "--potential",
                                 '{"type":"constant","value":-2}',
                                 flag, value)
        assert code == 2
        assert out == ""
        assert err == f"usage error: this run does not read {flag}\n"


class TestSweep:
    def test_failure_reported_once(self, capsys, coarse_phase):
        code, _, err = run_cli(capsys, "sweep", "--axis", "p", "--values",
                               "2,3", "--potential",
                               '{"type":"constant","value":-2}',
                               "--n-max", "1")
        assert code == 2
        assert "sweep failed at p=2" in err
        assert err.count("eigenvalue search failed") == 1

    def test_ell_axis_monotone(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--axis", "ell", "--values",
                               "0.2,0.4,0.6,0.8,1.0", "--p", "2",
                               "--potential", '{"type":"constant","value":-6}',
                               "--n-max", "2")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["axis", "n", "lambda", "ratio_to_lambda1", "bound"]
        lam1 = [float(r[2]) for r in rows if r[1] == "1"]
        assert all(a > b for a, b in zip(lam1, lam1[1:]))
        # analytic: lambda_1(ell) = (pi/ell)^2 - 6
        for ell, lam in zip((0.2, 0.4, 0.6, 0.8, 1.0), lam1):
            assert lam == pytest.approx((math.pi / ell) ** 2 - 6.0, rel=1e-8)

    def test_p_axis_free_ratios(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--axis", "p", "--values",
                               "1.5,2,3", "--potential", FREE_SPEC,
                               "--n-max", "3")
        assert code == 0
        _, rows = parse_csv(out)
        for r in rows:
            assert float(r[3]) == pytest.approx(float(r[4]), rel=1e-9)

    def test_depth_axis_needs_tent(self, capsys):
        # note the --values=... form: a leading dash would otherwise be
        # taken for an option by the argument parser
        code, _, err = run_cli(capsys, "sweep", "--axis", "depth",
                               "--values=-1,-5", "--p", "2", "--potential",
                               FREE_SPEC, "--n-max", "2")
        assert code == 2
        assert "scaled_tent" in err

    def test_depth_axis_tent(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--axis", "depth",
                               "--values=-1,-5,-10", "--p", "2",
                               "--potential", TENT_SPEC, "--n-max", "2")
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 6
        # deeper tents push lambda_1 down
        lam1 = [float(r[2]) for r in rows if r[1] == "1"]
        assert lam1[0] > lam1[1] > lam1[2]

    def test_ratio_empty_when_lambda1_nonpositive(self, capsys):
        argv = ("sweep", "--axis", "depth", "--values=-5,-30", "--p", "2",
                "--potential", '{"type":"scaled_tent","depth":-5,"rise":30}',
                "--n-max", "3")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        _, rows = parse_csv(out)
        shallow = [r for r in rows if r[0] == "-5"]
        deep = [r for r in rows if r[0] == "-30"]
        assert len(shallow) == len(deep) == 3
        lam1 = float(shallow[0][2])
        assert lam1 > 0.0
        for r in shallow:
            assert float(r[3]) == float(r[2]) / lam1
        assert float(deep[0][2]) < 0.0
        assert all(r[3] == "" for r in deep)
        code, out, _ = run_cli(capsys, *argv, "--format", "report")
        doc = json.loads(out)
        col = doc["columns"].index("ratio_to_lambda1")
        assert [row[col] is None for row in doc["rows"]] == [False] * 3 + [True] * 3

    @pytest.mark.parametrize("axis,flag,values", (("ell", "--ell", "0.5,1"),
                                                  ("p", "--p", "2,3")))
    def test_swept_setting_not_echoed(self, capsys, axis, flag, values):
        # the axis replaces the setting: its flag is refused, and the
        # header does not echo the default the run never reads
        argv = ("sweep", "--axis", axis, "--values", values, "--potential",
                '{"type":"constant","value":-2}', "--n-max", "1")
        code, out, err = run_cli(capsys, *argv, flag, "0.3")
        assert code == 2
        assert out == ""
        assert err == f"usage error: this run does not read {flag}\n"
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert f"# {axis}=" not in out
        assert "# axis=" + axis in out

    def test_too_few_values(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--axis", "ell", "--values",
                               "0.5", "--p", "2", "--potential", FREE_SPEC)
        assert code == 2


class TestClassify:
    def test_tent(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--potential", TENT_SPEC)
        assert code == 0
        header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        assert row["shape"] == "single_barrier"
        assert float(row["x0"]) == pytest.approx(0.5)
        assert float(row["q_star"]) == -5.0

    def test_neither_has_no_x0(self, capsys):
        spec = ('{"type":"piecewise_linear","knots":[[0,-5],[0.2,-1],'
                '[0.5,-1],[0.6,-3],[0.8,-1],[1,-5]]}')
        code, out, _ = run_cli(capsys, "classify", "--potential", spec)
        assert code == 0
        header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        assert (row["shape"], row["x0"]) == ("neither", "")
        code, out, _ = run_cli(capsys, "classify", "--potential", spec,
                               "--format", "report")
        doc = json.loads(out)
        assert doc["rows"][0][doc["columns"].index("x0")] is None

    def test_header_echoes_only_what_classify_reads(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--potential",
                               '{"type":"constant","value":-2}')
        assert code == 0
        echoed = sorted(line.split("=")[0] for line in out.splitlines()
                        if line.startswith("#"))
        assert "# p" not in echoed
        assert echoed == ["# format", "# potential"]
        code, out, _ = run_cli(capsys, "classify", "--potential", TENT_SPEC,
                               "--format", "report")
        assert sorted(json.loads(out)["config"]) == ["format", "potential"]

    def test_potential_from_file(self, capsys, tmp_path):
        path = tmp_path / "well.json"
        path.write_text(WELL_SPEC)
        code, out, _ = run_cli(capsys, "classify", "--potential", str(path))
        assert code == 0
        assert "single_well" in out

    def test_bad_spec_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--potential",
                               '{"type":"nope"}')
        assert code == 2
        assert "usage error" in err

    @pytest.mark.parametrize("flag,value", [("--p", "3"), ("--n-max", "9"),
                                            ("--rel-tol", "1e-3"),
                                            ("--grid-n", "64")])
    def test_unread_flag_is_usage_error(self, capsys, flag, value):
        # classify reads no solver setting, so it registers none, and
        # --p is not taken as an abbreviation of --potential
        with pytest.raises(SystemExit) as info:
            main(["classify", flag, value, "--potential", TENT_SPEC])
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestConfigPrecedence:
    def test_file_then_cli(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"p": 2.0, "n_max": 2}))
        # config file alone
        code, out, _ = run_cli(capsys, "eigs", "--config", str(cfg),
                               "--potential", FREE_SPEC)
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 2
        # CLI flag wins over the file
        code, out, _ = run_cli(capsys, "eigs", "--config", str(cfg),
                               "--potential", FREE_SPEC, "--n-max", "3")
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 3
        assert "# n_max=3" in out

    def test_out_key_is_unknown(self, capsys, tmp_path, monkeypatch):
        # the output path is a flag only: a config file's "out" was
        # accepted and ignored, so the data went to stdout
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"out": "x.csv"}))
        code, out, err = run_cli(capsys, "eigs", "--config", str(cfg),
                                 "--potential", FREE_SPEC, "--n-max", "1")
        assert code == 2
        assert out == ""
        assert err == "usage error: unknown config keys: ['out']\n"
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("entry,command", (
        ({"ell": 5}, ("classify", "--potential", TENT_SPEC)),
        ({"n_max": 0}, ("verify", "--theorem", "t1", "--p", "2",
                        "--potential", TENT_SPEC)),
        ({"n_max": 2.9}, ("classify", "--potential", TENT_SPEC)),
        ({"n_max": 0}, ("classify", "--potential", TENT_SPEC))),
        ids=("classify-ell", "verify-t1-n_max", "classify-n_max-type",
             "classify-n_max-range"))
    def test_unread_config_value_is_not_checked(self, capsys, tmp_path,
                                                entry, command):
        # a config-file value the run does not read is neither echoed
        # nor validated, by type or by range: classify reads no ell and
        # no n_max, T1 no n_max
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(entry))
        code, out, err = run_cli(capsys, *command, "--config", str(cfg))
        assert code == 0, err
        key = next(iter(entry))
        assert f"# {key}=" not in out
        assert "usage error" not in err

    def test_read_config_value_is_checked(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"ell": 5}))
        code, out, err = run_cli(capsys, "eigs", "--config", str(cfg),
                                 "--potential", FREE_SPEC, "--n-max", "1")
        assert code == 2
        assert out == ""
        assert err == "usage error: --ell must lie in (0, 1], got 5.0\n"

    @pytest.mark.parametrize("argv,name", (
        (("verify", "--theorem", "t1", "--rho-points", "-1"), "rho_points"),
        (("verify", "--theorem", "t1", "--rho-points", "0"), "rho_points"),
        (("verify", "--theorem", "t3", "--ell-points", "0"), "ell_points"),
        (("verify", "--theorem", "t1", "--rho-span", "-1"), "rho_span"),
        (("eigs", "--phase-tol", "inf"), "phase_tol"),
        (("eigs", "--max-steps", "5"), "max_steps")),
        ids=("t1-rho_points-neg", "t1-rho_points-0", "t3-ell_points-0",
             "t1-rho_span-neg", "eigs-phase_tol-inf", "eigs-max_steps-5"))
    def test_read_setting_out_of_range_is_usage_error(self, capsys, argv,
                                                      name):
        # the config dataclass that owns the setting refuses it, naming it
        code, out, err = run_cli(capsys, *argv, "--p", "2",
                                 "--potential", TENT_SPEC)
        assert code == 2
        assert out == ""
        assert err.startswith(f"usage error: {name} must be ")

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"nope": 1}))
        code, _, err = run_cli(capsys, "eigs", "--config", str(cfg),
                               "--potential", FREE_SPEC)
        assert code == 2
        assert "unknown config keys" in err

    @pytest.mark.parametrize("entry", ({"p": "abc"}, {"n_max": None},
                                       {"n_max": 2.9}, {"n_max": math.inf},
                                       {"p": True}),
                             ids=("p-str", "n_max-null", "n_max-2.9",
                                  "n_max-inf", "p-bool"))
    @pytest.mark.parametrize("command", (("eigs",), ("verify", "--theorem",
                                                      "t2")),
                             ids=("eigs", "verify"))
    def test_bad_config_value_is_usage_error(self, capsys, tmp_path, entry,
                                             command):
        # a value its key's type cannot hold exactly is refused, not
        # converted: 2.9 is no n_max, and a string is no p
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(entry))
        key = next(iter(entry))
        code, out, err = run_cli(capsys, *command, "--config", str(cfg),
                                 "--potential", FREE_SPEC)
        assert code == 2
        assert out == ""
        assert err.startswith(f"usage error: config key '{key}': ")

    def test_bad_config_potential_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(
            {"potential": {"type": "constant", "value": "x"}}))
        for argv in (("classify", "--config", str(cfg)),
                     ("classify", "--potential",
                      '{"type":"constant","value":"x"}')):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2
            assert out == ""
            assert err.startswith("usage error: invalid potential spec")

    def test_file_and_inline_potential_same_header(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(
            {"potential": {"type": "constant", "value": -2}}))
        inline = ("--potential", '{"type":"constant","value":-2}')
        for command in (("classify",), ("eigs", "--n-max", "1")):
            _, from_file, _ = run_cli(capsys, *command, "--config", str(cfg))
            _, from_flag, _ = run_cli(capsys, *command, *inline)
            assert from_file == from_flag
            assert '# potential={"type": "constant", "value": -2.0}' in from_file


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "plapeig", "eigs", "--p", "2",
             "--potential", FREE_SPEC, "--n-max", "1"],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert "lambda" in proc.stdout

    def test_module_invocation_verify_violated_path(self):
        # r1 on a barrier potential is a hypothesis mismatch: exit 4
        proc = subprocess.run(
            [sys.executable, "-m", "plapeig", "verify", "--theorem", "r1",
             "--p", "2", "--potential", TENT_SPEC],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 4

    @pytest.mark.parametrize("argv", (
        ("eigs", "--p", "2", "--potential", '{"type":"constant","value":-2}',
         "--n-max", "2", "--ell", "1e-300"),
        ("verify", "--theorem", "t2", "--p", "1000", "--potential", TENT_SPEC,
         "--n-max", "4"),
        ("sweep", "--axis", "ell", "--values", "1e-300,1", "--p", "2",
         "--potential", '{"type":"constant","value":-2}', "--n-max", "2")),
        ids=("eigs-ell", "verify-p", "sweep-ell"))
    def test_overflowing_bound_exit_2(self, argv):
        # an in-range --ell or --p whose comparison bound (n*pi_p/ell)^p
        # overflows a float is a failure with exit 2, not a traceback
        proc = subprocess.run([sys.executable, "-m", "plapeig", *argv],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "overflows for n=" in proc.stderr

    def test_huge_bound_names_rho_and_ell(self):
        # rho ~ 1e151 is finite; at p = 1.5 the phase of n = 5 lands on
        # ten levels after a first step of 0.1*pi_p, so a budget of 10
        # steps runs out by then: one warning line per rho searched and
        # one error line naming the index, rho and ell, exit 2
        proc = subprocess.run(
            [sys.executable, "-m", "plapeig", "eigs", "--p", "1.5",
             "--potential", '{"type":"constant","value":-2}',
             "--n-max", "5", "--ell", "1e-150", "--max-steps", "10"],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2
        *warnings, error = proc.stderr.splitlines()
        assert warnings
        assert all(w.startswith("warning: rho=") and "extremely" in w
                   for w in warnings)
        assert error.startswith("error: eigenvalue search failed at index 5: "
                                "step budget 10 exhausted at x=")
        assert "rho=" in error and "ell=1e-150" in error

    @pytest.mark.parametrize("ell", ("1e-14", "1e-150"))
    def test_tiny_ell_solves(self, ell):
        # the step floor and the snap distance are relative to ell, so a
        # tiny interval solves: lambda_n = (n*pi/ell)^2 - 2 at p = 2
        proc = subprocess.run(
            [sys.executable, "-m", "plapeig", "eigs", "--p", "2",
             "--potential", '{"type":"constant","value":-2}',
             "--n-max", "2", "--ell", ell],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        rows = [line.split(",") for line in proc.stdout.splitlines()
                if line[:1].isdigit()]
        assert [int(r[0]) for r in rows] == [1, 2]
        for r in rows:
            exact = (int(r[0]) * math.pi / float(ell)) ** 2 - 2.0
            assert float(r[1]) == pytest.approx(exact, rel=1e-12)

    def test_no_numpy_at_run_time(self):
        # numpy serves only the functions that return arrays: importing
        # the package and running every subcommand load none of it
        runs = [
            ["eigs", "--p", "3", "--potential", TENT_SPEC, "--n-max", "2"],
            ["classify", "--potential", TENT_SPEC],
            ["ptrig-table", "--p", "3", "--x-min", "0", "--x-max", "5",
             "--steps", "8"],
            ["verify", "--theorem", "t1", "--p", "2", "--potential",
             TENT_SPEC, "--rho-points", "3"],
            ["verify", "--theorem", "t2", "--p", "3", "--potential",
             TENT_SPEC, "--n-max", "3"],
            ["verify", "--theorem", "t3", "--p", "2", "--potential",
             TENT_SPEC, "--n-max", "2", "--ell-points", "2"],
            ["verify", "--theorem", "r1", "--p", "2", "--potential",
             WELL_SPEC, "--n-max", "3"],
            ["sweep", "--axis", "depth", "--values=-5,-10", "--p", "2",
             "--potential", TENT_SPEC, "--n-max", "2"]]
        code = (
            "import sys, io, contextlib, plapeig, plapeig.cli\n"
            f"for argv in {runs!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()), \\\n"
            "            contextlib.redirect_stderr(io.StringIO()):\n"
            "        assert plapeig.cli.main(argv) == 0, argv\n"
            "print(sorted(m for m in sys.modules if m.startswith('numpy')))\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_no_scipy_at_run_time(self):
        # scipy serves only the opt-in direct-shooting oracle and the
        # tests: a cold start, the p-sine, a spectrum, a certificate and
        # a CLI run load none of it
        code = (
            "import sys, io, contextlib, plapeig, plapeig.cli\n"
            "from plapeig import (constant, compute_spectrum, make_context,\n"
            "                     scaled_tent, sp_pair, verify_theorem2)\n"
            "ctx = make_context(3)\n"
            "sp_pair(ctx, [0.1, 1.2, 2.0])\n"
            "compute_spectrum(ctx, scaled_tent(-5, 4), 3, 1.0)\n"
            "verify_theorem2(make_context(2), constant(-2.0))\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert plapeig.cli.main(['eigs', '--p', '2', '--potential',"
            f" {TENT_SPEC!r}, '--n-max', '2']) == 0\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


LAYERS = {"ptrig", "potentials", "prufer", "eigensolver", "theorems"}


def _loaded(code):
    """The plapeig submodules a fresh interpreter holds after ``code``."""
    code += ("\nimport sys\nprint(' '.join(m for m in sys.modules "
             "if m.startswith('plapeig.')))\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return {m.split(".", 1)[1] for m in proc.stdout.split()}


class TestImportGraph:
    """A process loads only the layers it runs: the package, the CLI and
    ``--help`` load none, and each subcommand only its own."""

    def test_import_plapeig_loads_errors_only(self):
        assert _loaded("import plapeig") == {"errors"}

    @pytest.mark.parametrize("argv, absent", [
        (["--help"], LAYERS),
        (["classify", "--potential", TENT_SPEC],
         {"ptrig", "prufer", "eigensolver", "theorems"}),
        (["ptrig-table", "--p", "3", "--x-min", "0", "--x-max", "5",
          "--steps", "4"],
         {"potentials", "prufer", "eigensolver", "theorems"}),
        (["eigs", "--p", "3", "--potential", TENT_SPEC, "--n-max", "2"],
         {"theorems"}),
    ], ids=["help", "classify", "ptrig-table", "eigs"])
    def test_subcommand_loads_only_its_layers(self, argv, absent):
        code = ("import io, contextlib, plapeig.cli\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    try:\n"
                f"        assert plapeig.cli.main({argv!r}) == 0\n"
                "    except SystemExit as exc:\n"
                "        assert exc.code == 0\n")
        assert not _loaded(code) & absent

    def test_first_public_name_loads_every_layer(self):
        assert LAYERS <= _loaded("import plapeig\nplapeig.Shape")

    def test_star_import_binds_all(self):
        code = ("import plapeig\nns = {}\nexec('from plapeig import *', ns)\n"
                "missing = [n for n in plapeig.__all__ if n not in ns]\n"
                "assert not missing, missing")
        assert LAYERS <= _loaded(code)

    def test_names_are_the_layer_objects(self):
        import plapeig
        from plapeig import config, eigensolver, potentials, prufer, ptrig, theorems

        assert plapeig.make_context is ptrig.make_context
        assert plapeig.classify is potentials.classify
        assert plapeig.integrate_phase is prufer.integrate_phase
        assert plapeig.compute_spectrum is eigensolver.compute_spectrum
        assert plapeig.verify_theorem2 is theorems.verify_theorem2
        # the two configs keep their old homes too, and the solver's
        # serves the integrator
        assert (plapeig.SolverConfig is eigensolver.SolverConfig
                is prufer.SolverConfig is config.SolverConfig)
        assert (plapeig.HarnessConfig is theorems.HarnessConfig
                is config.HarnessConfig)
        assert issubclass(plapeig.HarnessConfig, plapeig.SolverConfig)
        assert not hasattr(plapeig, "ToleranceConfig")
        assert plapeig.ptrig is ptrig
        assert set(plapeig.__all__) | LAYERS <= set(dir(plapeig))

    def test_submodules_resolve(self):
        code = ("import plapeig, plapeig.cli\n"
                "assert plapeig.ptrig.make_context and plapeig.cli.main")
        assert LAYERS | {"cli"} <= _loaded(code)

    def test_unknown_name_is_attribute_error(self):
        import plapeig

        with pytest.raises(AttributeError, match="no_such_name"):
            plapeig.no_such_name
