import json
from pathlib import Path

import pytest

from coalitional_lotto.cli import main
from coalitional_lotto.core import EPS_FEAS, GameInstance, Mechanism, Transfer
from coalitional_lotto.mutual import is_mutually_beneficial
from coalitional_lotto.sweep import run_curve

DIAMOND_ARGS = ["--phi1", "12", "--phi2", "10", "--x1", "0.4", "--x2", "1.6"]
RIDGE_ARGS = ["--phi1", "10", "--phi2", "10", "--x1", "2", "--x2", "2"]


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse exits on usage errors and --help
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_diamond(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", *DIAMOND_ARGS)
        assert code == 0
        data = json.loads(out)
        assert data["case"] == "C2_1le2"
        assert data["region"] == "R3"
        assert data["mutual"]["budget"]["exists"] is True
        assert data["mutual"]["contest"]["exists"] is True
        assert data["mutual"]["joint"]["exists"] is True
        assert data["collective"]["optimum"] == pytest.approx(16.5)
        assert data["collective"]["optimal_budget"]["tau"] == pytest.approx(-0.690909090909)
        assert data["collective"]["optimal_contest"]["nu"] == pytest.approx(7.6)

    def test_invalid_game_exits_1(self, capsys):
        code, _, err = run_cli(
            capsys, "analyze", "--phi1", "12", "--phi2", "10", "--x1", "0", "--x2", "1.6"
        )
        assert code == 1
        assert "error" in err

    def test_parameter_below_feasibility_floor(self, capsys):
        # phi2 sits below EPS_FEAS; the zero transfer must stay feasible.
        game = ["--phi1", "1", "--phi2", "1e-13", "--x1", "1", "--x2", "1"]
        code, out, _ = run_cli(capsys, "analyze", *game)
        assert code == 0
        g = GameInstance(1, 1e-13, 1, 1)
        for verdict in json.loads(out)["mutual"].values():
            if verdict["exists"]:
                witness = verdict["witness"]
                assert is_mutually_beneficial(g, Transfer(witness["tau"], witness["nu"]))

    def test_retired_typo_flag_is_usage_error(self, capsys):
        # The literal reading is gone; an old script passing the flag must
        # read as a usage error, not as a verification disagreement (2).
        code, _, err = run_cli(capsys, "analyze", *DIAMOND_ARGS, "--typo-mode", "literal")
        assert code == 1 and "error:" in err

    def test_missing_flag_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "analyze", *DIAMOND_ARGS[:-2])
        assert code == 1 and "error:" in err

    @pytest.mark.parametrize("eps", ["nan", "inf", "-1", "1e-9"])
    def test_bad_eps_is_usage_error(self, capsys, eps):
        # The case tolerance is fixed and the flag is gone: any value, the
        # old default included, is a usage error.
        code, out, err = run_cli(capsys, "analyze", *RIDGE_ARGS, "--eps", eps)
        assert code == 1 and "error:" in err and out == ""

    def test_help_exits_0(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--help")
        assert code == 0 and "--phi1" in out and "--eps" not in out


class TestCurve:
    def test_contest_curve_peak(self, capsys, tmp_path):
        out_file = tmp_path / "curve.csv"
        code, _, _ = run_cli(
            capsys, "curve", *DIAMOND_ARGS, "--mechanism", "contest",
            "--steps", "500", "--out", str(out_file),
        )
        assert code == 0
        rows = [
            line.split(",")
            for line in out_file.read_text().splitlines()
            if line and not line.startswith("#") and not line.startswith("transfer")
        ]
        assert len(rows) == 500
        best = max(rows, key=lambda r: float(r[3]))
        # sampled at the 500-step resolution, so the peak is caught to ~0.01
        assert float(best[3]) == pytest.approx(16.5, abs=0.01)
        assert float(best[0]) == pytest.approx(7.6, abs=0.05)

    def test_budget_curve_peak(self, capsys, tmp_path):
        out_file = tmp_path / "curve.csv"
        code, _, _ = run_cli(
            capsys, "curve", *DIAMOND_ARGS, "--mechanism", "budget",
            "--steps", "500", "--out", str(out_file),
        )
        assert code == 0
        rows = [
            line.split(",")
            for line in out_file.read_text().splitlines()
            if line and not line.startswith("#") and not line.startswith("transfer")
        ]
        best = max(rows, key=lambda r: float(r[3]))
        assert float(best[3]) == pytest.approx(16.5, abs=0.01)
        assert float(best[0]) == pytest.approx(-0.690909, abs=0.05)

    def test_ridge_curve_peaks_at_zero(self, capsys, tmp_path):
        out_file = tmp_path / "curve.csv"
        code, _, _ = run_cli(
            capsys, "curve", "--phi1", "10", "--phi2", "10", "--x1", "2", "--x2", "2",
            "--mechanism", "contest", "--steps", "501", "--out", str(out_file),
        )
        assert code == 0
        rows = [
            line.split(",")
            for line in out_file.read_text().splitlines()
            if line and not line.startswith("#") and not line.startswith("transfer")
        ]
        best = max(rows, key=lambda r: float(r[3]))
        assert abs(float(best[0])) < 0.05

    def test_tiny_budgets_keep_the_feasibility_floor(self):
        # Budgets this small make the relative inset smaller than the floor
        # the budget verdict's scan keeps from each open endpoint.
        g = GameInstance(1, 1, 1e-7, 1e-7)
        rows = run_curve(g, Mechanism.BUDGET, 5)
        assert rows[0][0] == -g.x2 + 10 * EPS_FEAS
        assert rows[-1][0] == g.x1 - 10 * EPS_FEAS


class TestSweep:
    def test_case_predicate(self, capsys, tmp_path):
        out_file = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--phi1", "12", "--phi2", "10",
            "--axis", "x1=0.1:2", "--axis", "x2=0.1:2", "--steps", "5",
            "--predicate", "case", "--out", str(out_file),
        )
        assert code == 0
        lines = [l for l in out_file.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "x1,x2,case"
        assert len(lines) == 1 + 25

    def test_deterministic_output(self, capsys, tmp_path):
        args = [
            "sweep", "--phi1", "12", "--phi2", "10",
            "--axis", "x1=0.1:2", "--axis", "x2=0.1:2", "--steps", "4",
            "--predicate", "mutual-contest",
        ]
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(capsys, *args, "--out", str(f1))[0] == 0
        assert run_cli(capsys, *args, "--out", str(f2))[0] == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_bad_axis_name(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--phi1", "12", "--phi2", "10",
            "--axis", "bogus=0:1", "--axis", "x2=0.1:2", "--steps", "4",
            "--predicate", "case",
        )
        assert code == 1 and "error" in err

    def test_bad_predicate_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--phi1", "12", "--phi2", "10",
            "--axis", "x1=0.1:2", "--axis", "x2=0.1:2", "--predicate", "bogus",
        )
        assert code == 1 and "error:" in err

    def test_axis_count_enforced(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--phi1", "12", "--phi2", "10", "--x2", "1",
            "--axis", "x1=0.1:2", "--steps", "4", "--predicate", "case",
        )
        assert code == 1 and "error" in err


class TestVerify:
    def test_small_run(self, capsys, tmp_path):
        out_file = tmp_path / "verify.csv"
        code, _, _ = run_cli(
            capsys, "verify", "--count", "3", "--seed", "7", "--out", str(out_file)
        )
        assert code == 0
        lines = [l for l in out_file.read_text().splitlines() if not l.startswith("#")]
        assert len(lines) == 1 + 3

    def test_reproduces_committed_csv(self, capsys, tmp_path):
        # The committed file pins verify's output, oracle included, byte for
        # byte; it must never be regenerated to make this pass.
        out_file = tmp_path / "verify.csv"
        code, _, _ = run_cli(
            capsys, "verify", "--count", "100", "--seed", "7", "--out", str(out_file)
        )
        assert code == 0
        expected = Path(__file__).parent / "data" / "verify_seed7_count100.csv"
        assert out_file.read_bytes() == expected.read_bytes()

    def test_zero_count_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--count", "0")
        assert code == 1 and "error" in err

    def test_deterministic(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(capsys, "verify", "--count", "2", "--seed", "9", "--out", str(f1))
        run_cli(capsys, "verify", "--count", "2", "--seed", "9", "--out", str(f2))
        assert f1.read_bytes() == f2.read_bytes()
