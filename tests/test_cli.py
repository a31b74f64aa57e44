import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from coalitional_lotto import sweep
from coalitional_lotto.adversary import classify_case, player_payoffs
from coalitional_lotto.cli import build_parser, main
from coalitional_lotto.collective import max_collective_payoff
from coalitional_lotto.core import EPS_FEAS, GameInstance, GameValidationError, Mechanism, Transfer
from coalitional_lotto.mutual import (
    budget_mutual_exists,
    classify_region,
    contest_mutual_exists,
    is_mutually_beneficial,
    joint_mutual_exists,
)
from coalitional_lotto.sweep import Predicate, SweepSpec, run_curve, run_sweep, write_csv

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


# The committed planes of ``tests/data/sweep_<plane>_<predicate>.csv``: a
# figure plane shifted off the round grid, and a plane with a valuation axis.
SWEEP_PLANES = {
    "x1_x2": [
        "--phi1", "12", "--phi2", "10", "--axis", "x1=0.155:3.135", "--axis", "x2=0.074:3.054"
    ],
    "phi2_x1": ["--phi1", "12", "--x2", "0.6", "--axis", "phi2=0.5:20", "--axis", "x1=0.02:3"],
}


def _scalar_value(g: GameInstance, predicate: Predicate):
    """A sweep node's value from the one-game functions."""
    if predicate is Predicate.CASE:
        return str(classify_case(g))
    if predicate is Predicate.REGION:
        return classify_region(g).value
    if predicate is Predicate.MUTUAL_BUDGET:
        return int(budget_mutual_exists(g).exists)
    if predicate is Predicate.MUTUAL_CONTEST:
        return int(contest_mutual_exists(g).exists)
    if predicate is Predicate.MUTUAL_JOINT:
        return int(joint_mutual_exists(g).exists)
    u1, u2 = player_payoffs(g)
    return max_collective_payoff(g) - (u1 + u2)


def _scalar_rows(spec: SweepSpec):
    """``run_sweep``'s rows, one ``GameInstance`` and one scalar value per node."""
    rows = []
    (name1, lo1, hi1), (name2, lo2, hi2) = spec.axes
    for v1 in np.linspace(lo1, hi1, spec.steps).tolist():
        for v2 in np.linspace(lo2, hi2, spec.steps).tolist():
            g = GameInstance(**{**spec.fixed, name1: v1, name2: v2})
            rows.append((v1, v2, _scalar_value(g, spec.predicate)))
    return rows


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

    def test_fixed_and_swept_is_usage_error(self, capsys, tmp_path):
        out_file = tmp_path / "sweep.csv"
        code, out, err = run_cli(
            capsys, "sweep", "--phi1", "12", "--phi2", "10", "--x1", "0.5",
            "--axis", "x1=0.1:2", "--axis", "x2=0.1:2", "--steps", "4",
            "--predicate", "case", "--out", str(out_file),
        )
        assert code == 1 and out == ""
        assert "error: parameters both fixed and swept: ['x1']" in err
        assert not out_file.exists()

    @pytest.mark.parametrize("axis", ["x1=0.1:inf", "x1=0.1:nan", "x1=inf:inf"])
    def test_non_finite_axis_end_is_usage_error(self, axis):
        # A subprocess, so that a numpy warning would reach stderr rather
        # than pytest's warning capture.
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        done = subprocess.run(
            [
                sys.executable, "-m", "coalitional_lotto.cli", "sweep", "--phi1", "12",
                "--phi2", "10", "--axis", axis, "--axis", "x2=0.1:2", "--steps", "4",
                "--predicate", "case",
            ],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 1
        assert "error: axis x1: ends must be finite" in done.stderr
        assert "RuntimeWarning" not in done.stderr

    @pytest.mark.parametrize("plane", sorted(SWEEP_PLANES))
    @pytest.mark.parametrize("predicate", [p.value for p in Predicate])
    def test_reproduces_committed_csv(self, capsys, tmp_path, plane, predicate):
        # The committed files pin each predicate's plane byte for byte; they
        # must never be regenerated to make this pass.
        out_file = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            capsys, "sweep", *SWEEP_PLANES[plane], "--steps", "12",
            "--predicate", predicate, "--out", str(out_file),
        )
        assert code == 0
        expected = Path(__file__).parent / "data" / f"sweep_{plane}_{predicate}.csv"
        assert out_file.read_bytes() == expected.read_bytes()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "fixed,axes",
        [
            ({"phi1": 1.0, "phi2": 1e-300}, (("x1", 1e-300, 1e308), ("x2", 1.0, 1e308))),
            ({"phi2": 1e-300, "x2": 0.5}, (("x1", 1e-300, 1e308), ("phi1", 1e-300, 1e308))),
        ],
    )
    @pytest.mark.parametrize("predicate", list(Predicate))
    def test_extreme_values_match_scalar(self, fixed, axes, predicate):
        spec = SweepSpec(fixed=fixed, axes=axes, steps=12, predicate=predicate)
        rows = run_sweep(spec)
        expected = _scalar_rows(spec)
        if predicate is Predicate.COLLECTIVE_GAIN:
            # NaN (0/0 of tiny budgets) equals itself only as a string.
            rows, expected = ([(a, b, repr(v)) for a, b, v in r] for r in (rows, expected))
        assert rows == expected

    @pytest.mark.parametrize("predicate", list(Predicate))
    def test_blocks_match_one_block(self, monkeypatch, predicate):
        spec = SweepSpec(
            fixed={"phi1": 12.0, "phi2": 10.0},
            axes=(("x1", 0.02, 3.0), ("x2", 0.02, 3.0)),
            steps=11,
            predicate=predicate,
        )
        monkeypatch.setattr(sweep, "SWEEP_BLOCK", 10**6)
        whole = run_sweep(spec)
        monkeypatch.setattr(sweep, "SWEEP_BLOCK", 7)
        assert run_sweep(spec) == whole
        assert whole == _scalar_rows(spec)

    def test_invalid_node_raises_game_error(self):
        spec = SweepSpec(
            fixed={"phi1": 12.0, "phi2": -1.0},
            axes=(("x1", 0.1, 2.0), ("x2", 0.1, 2.0)),
            steps=3,
            predicate=Predicate.CASE,
        )
        with pytest.raises(GameValidationError, match="phi2 must be a positive finite real"):
            run_sweep(spec)


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


class TestWriteCsv:
    """Exact bytes of the CSV writer: one text per cell's type and value."""

    @staticmethod
    def written(comments, header, rows) -> str:
        stream = io.StringIO()
        write_csv(stream, comments, header, rows)
        return stream.getvalue()

    def test_mixed_column(self):
        # 1, 1.0 and True are equal keys in a dict but print differently.
        cells = [1, 1.0, True, -0.0, 0.0, 0, False, 1, True, 1.0, 0.1 + 0.2, np.float64(-0.0)]
        names = ["x", "y,z", "x", "", "x", "y,z", "x", "x", "", "y,z", "x", "x"]
        text = self.written(["units: none", "fixed: a=1"], ["v", "name"], zip(cells, names))
        assert text == (
            "# units: none\n# fixed: a=1\nv,name\n"
            "1,x\n1,y,z\nTrue,x\n0,\n0,x\n0,y,z\nFalse,x\n1,x\nTrue,\n1,y,z\n0.3,x\n0,x\n"
        )

    def test_special_floats_and_ints(self):
        rows = [
            (float("nan"), float("inf"), np.int64(3)),
            (float("nan"), float("-inf"), 3),
            (5e-324, 1e-13, -1e-13),
        ]
        assert self.written([], ["a", "b", "c"], rows) == (
            'a,b,c\nNaN,"Infinity",3\nNaN,"-Infinity",3\n4.94065645841e-324,1e-13,-1e-13\n'
        )

    def test_empty_rows(self):
        assert self.written(["c"], ["h1", "h2"], []) == "# c\nh1,h2\n"
        assert self.written([], ["h"], [(), []]) == "h\n\n\n"

    def test_rows_of_different_lengths(self):
        with pytest.raises(ValueError, match="differ in length"):
            write_csv(io.StringIO(), [], ["a", "b"], [(1, 2), (3,)])

    def test_generators(self):
        rows = ((i * 0.5, f"s{i % 2}") for i in range(4))
        comments = (f"line {k}" for k in range(2))
        assert self.written(comments, iter(["t", "s"]), rows) == (
            "# line 0\n# line 1\nt,s\n0,s0\n0.5,s1\n1,s0\n1.5,s1\n"
        )


class TestRepeatedMain:
    """Several commands in one process share one parser and must not leak state."""

    SWEEP = [
        "sweep", "--phi1", "12", "--phi2", "10", "--axis", "x1=0.1:2", "--axis", "x2=0.1:2",
        "--steps", "4", "--predicate", "mutual-budget",
    ]

    def test_commands_in_sequence(self, capsys, tmp_path):
        first, again = tmp_path / "first.csv", tmp_path / "again.csv"
        code, _, _ = run_cli(capsys, *self.SWEEP, "--out", str(first))
        assert code == 0
        code, _, err = run_cli(capsys, *self.SWEEP[:-2], "--predicate", "bogus")
        assert code == 1 and "error:" in err
        code, _, _ = run_cli(capsys, "verify", "--count", "2", "--seed", "3", "--out", "-")
        assert code == 0
        code, out, _ = run_cli(capsys, "analyze", *DIAMOND_ARGS)
        assert code == 0 and json.loads(out)["case"] == "C2_1le2"
        code, _, _ = run_cli(capsys, *self.SWEEP, "--out", str(again))
        assert code == 0
        assert again.read_bytes() == first.read_bytes()

    def test_append_option_starts_empty(self):
        for _ in range(2):
            args = build_parser().parse_args(self.SWEEP)
            assert args.axis == ["x1=0.1:2", "x2=0.1:2"]
