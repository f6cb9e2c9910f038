import json
import math
import subprocess
import sys

import pytest

from plapeig import SolverConfig, ToleranceConfig
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
                          "zero_count", "bracket_width"]
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

    def test_solver_failure_exit_2(self, capsys):
        # phase_tol 1e-16 is below what the integration reproduces
        code, _, err = run_cli(capsys, "eigs", "--p", "2", "--potential",
                               '{"type":"constant","value":-50}',
                               "--n-max", "1", "--phase-tol", "1e-16")
        assert code == 2
        assert "index 1" in err
        assert err.count("eigenvalue search failed") == 1

    def test_default_tolerances_echoed(self, capsys):
        code, out, _ = run_cli(capsys, "eigs", "--potential", FREE_SPEC,
                               "--n-max", "1", "--format", "report")
        assert code == 0
        echoed = json.loads(out)["config"]
        tol, solver = ToleranceConfig(), SolverConfig()
        assert echoed["rel_tol"] == tol.rel_tol
        assert echoed["abs_tol"] == tol.abs_tol
        assert echoed["max_steps"] == tol.max_steps
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

    def test_t1_tent_exit_0(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--theorem", "t1", "--p",
                               "1.5", "--potential", TENT_SPEC,
                               "--rho-points", "8")
        assert code == 0


class TestSweep:
    def test_failure_reported_once(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--axis", "p", "--values",
                               "2,3", "--potential", FREE_SPEC,
                               "--n-max", "1", "--phase-tol", "1e-16")
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

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"nope": 1}))
        code, _, err = run_cli(capsys, "eigs", "--config", str(cfg),
                               "--potential", FREE_SPEC)
        assert code == 2
        assert "unknown config keys" in err


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
