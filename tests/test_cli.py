import ctypes
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from coalitional_lotto import cli, sweep
from coalitional_lotto.adversary import classify_case, player_payoffs
from coalitional_lotto.analysis import format_float
from coalitional_lotto.cli import build_parser, main
from coalitional_lotto.collective import max_collective_payoff
from coalitional_lotto.core import (
    EPS_FEAS,
    GameInstance,
    GameValidationError,
    Mechanism,
    Transfer,
    transfer_feasible,
)
from coalitional_lotto.mutual import (
    budget_mutual_exists,
    classify_region,
    contest_mutual_exists,
    is_mutually_beneficial,
    joint_mutual_exists,
)
from coalitional_lotto.search import line_ends
from coalitional_lotto.sweep import (
    Predicate,
    SweepPlane,
    SweepSpec,
    run_curve,
    run_sweep,
    write_csv,
    write_plane,
)

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

    @pytest.mark.parametrize(
        "mechanism, steps, message",
        [
            (Mechanism.JOINT, 10, "curve supports budget or contest transfers only"),
            (Mechanism.BUDGET, 1, "steps must be >= 2"),
            (Mechanism.CONTEST, 0, "steps must be >= 2"),
        ],
    )
    def test_run_curve_checks(self, diamond, mechanism, steps, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            run_curve(diamond, mechanism, steps)

    def test_out_in_a_missing_directory_exits_1(self, capsys, tmp_path):
        out_file = tmp_path / "missing" / "curve.csv"
        code, out, err = run_cli(
            capsys, "curve", *DIAMOND_ARGS, "--mechanism", "contest", "--out", str(out_file)
        )
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "No such file or directory" in err
        assert not out_file.parent.exists()

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
        # However small the budgets, the curve runs between the ends every
        # budget line uses: each donor keeps 1e-11 of its own budget, ten
        # times the feasibility floor.
        g = GameInstance(1, 1, 1e-7, 1e-7)
        rows = run_curve(g, Mechanism.BUDGET, 5)
        assert (rows[0][0], rows[-1][0]) == line_ends(g, Mechanism.BUDGET)
        assert rows[-1][0] == g.x1 * (1 - 10 * EPS_FEAS)
        assert transfer_feasible(g, rows[0][0], 0.0) and transfer_feasible(g, rows[-1][0], 0.0)


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


def _scalar_plane(spec: SweepSpec) -> SweepPlane:
    """``run_sweep``'s plane, one ``GameInstance`` and one scalar value per node."""
    (name1, lo1, hi1), (name2, lo2, hi2) = spec.axes
    axis1 = np.linspace(lo1, hi1, spec.steps).tolist()
    axis2 = np.linspace(lo2, hi2, spec.steps).tolist()
    values = [
        _scalar_value(GameInstance(**{**spec.fixed, name1: v1, name2: v2}), spec.predicate)
        for v1 in axis1
        for v2 in axis2
    ]
    return SweepPlane(axis1, axis2, values)


def _plane_rows(plane: SweepPlane) -> list[tuple]:
    """The plane's rows (axis-1 value, axis-2 value, value), row-major."""
    nodes = itertools.product(plane.axis1, plane.axis2)
    return [(a, b, v) for (a, b), v in zip(nodes, plane.values)]


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

    @pytest.mark.parametrize("axis", ["x1", "x1:0.1:2", "x1=0.1", "x1=0.1-2", "x1=a:2"])
    def test_malformed_axis_exits_1(self, capsys, axis):
        code, out, err = run_cli(
            capsys, "sweep", "--phi1", "12", "--phi2", "10",
            "--axis", axis, "--axis", "x2=0.1:2", "--steps", "4", "--predicate", "case",
        )
        assert code == 1 and out == ""
        assert f"error: bad --axis {axis!r}; expected NAME=LO:HI" in err

    def test_out_in_a_missing_directory_exits_1(self, capsys, tmp_path):
        out_file = tmp_path / "missing" / "sweep.csv"
        code, out, err = run_cli(
            capsys, "sweep", "--phi1", "12", "--phi2", "10",
            "--axis", "x1=0.1:2", "--axis", "x2=0.1:2", "--steps", "4",
            "--predicate", "case", "--out", str(out_file),
        )
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "No such file or directory" in err
        assert not out_file.parent.exists()

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"steps": 1}, "steps must be >= 2"),
            ({"axes": (("x1", 0.1, 2.0), ("x1", 0.2, 3.0))}, "exactly two distinct swept axes required"),
            ({"axes": (("x1", 2.0, 2.0), ("x2", 0.1, 2.0))}, "axis x1: need 0 < lo < hi, got 2.0..2.0"),
            ({"axes": (("x1", 0.1, 2.0), ("x2", 3.0, 2.0))}, "axis x2: need 0 < lo < hi, got 3.0..2.0"),
            ({"axes": (("x1", 0.0, 2.0), ("x2", 0.1, 2.0))}, "axis x1: need 0 < lo < hi, got 0.0..2.0"),
            ({"fixed": {"phi1": 12.0}}, "parameters not fixed or swept: ['phi2']"),
        ],
    )
    def test_spec_checks(self, changes, message):
        spec = {
            "fixed": {"phi1": 12.0, "phi2": 10.0},
            "axes": (("x1", 0.1, 2.0), ("x2", 0.1, 2.0)),
            "steps": 3,
            "predicate": Predicate.CASE,
        }
        SweepSpec(**spec)
        with pytest.raises(ValueError, match=re.escape(message)):
            SweepSpec(**{**spec, **changes})

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
        plane = run_sweep(spec)
        expected = _scalar_plane(spec)
        if predicate is Predicate.COLLECTIVE_GAIN:
            # NaN (0/0 of tiny budgets) equals itself only as a string.
            plane, expected = (p._replace(values=list(map(repr, p.values))) for p in (plane, expected))
        assert plane == expected

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
        # One-game blocks leave every case but one, and some lines every
        # case, without pieces.
        for block in (7, 1):
            monkeypatch.setattr(sweep, "SWEEP_BLOCK", block)
            assert run_sweep(spec) == whole
        assert whole == _scalar_plane(spec)

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
        # byte; it must never be regenerated to make this pass.  Only a
        # deliberate oracle change rewrites it, through
        # scripts/make_golden_fixtures.py, with every moved cell listed.
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

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_the_generator_states_is_usage_error(self, capsys, tmp_path, seed):
        # SplitMix64 keeps a seed modulo 2**64: -1 would draw the games of
        # 2**64 - 1 under another header.
        out_file = tmp_path / "verify.csv"
        code, _, err = run_cli(
            capsys, "verify", "--count", "2", "--seed", seed, "--out", str(out_file)
        )
        assert code == 1 and "usage:" in err and "--seed" in err
        assert not out_file.exists()

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_seed_at_the_generator_ends_is_accepted(self, capsys, tmp_path, seed):
        out_file = tmp_path / "verify.csv"
        code, _, _ = run_cli(
            capsys, "verify", "--count", "2", "--seed", str(seed), "--out", str(out_file)
        )
        assert code == 0
        assert out_file.read_text().startswith(f"# count=2 seed={seed} ")

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


# Planes for the plane writer: the figure plane off the round grid, and a
# plane whose axes run from 5e-324 to 1e308, where the collective gain takes
# 0 and inf, but never NaN.
WRITE_PLANES = {
    "figure": ({"phi1": 12.0, "phi2": 10.0}, (("x1", 0.155, 3.135), ("x2", 0.074, 3.054))),
    "float-range": (
        {"phi2": 1e308, "x2": 5e-324},
        (("x1", 5e-324, 1e308), ("phi1", 5e-324, 1e308)),
    ),
}


class TestWritePlane:
    """``write_plane`` writes what ``write_csv`` writes for the plane's rows."""

    @staticmethod
    def by_write_csv(comments, header, plane: SweepPlane) -> str:
        stream = io.StringIO()
        write_csv(stream, comments, header, _plane_rows(plane))
        return stream.getvalue()

    @staticmethod
    def by_write_plane(comments, header, plane: SweepPlane) -> str:
        stream = io.StringIO()
        write_plane(stream, comments, header, plane)
        return stream.getvalue()

    @pytest.mark.parametrize("name", sorted(WRITE_PLANES))
    @pytest.mark.parametrize("predicate", list(Predicate))
    def test_sweep_output_equals_write_csv_of_rows(self, capsys, tmp_path, name, predicate):
        fixed, axes = WRITE_PLANES[name]
        argv = ["sweep", "--steps", "9", "--predicate", predicate.value]
        for param, value in fixed.items():
            argv += [f"--{param}", repr(value)]
        for axis, lo, hi in axes:
            argv += ["--axis", f"{axis}={lo!r}:{hi!r}"]
        out_file = tmp_path / "sweep.csv"
        assert run_cli(capsys, *argv, "--out", str(out_file))[0] == 0
        written = out_file.read_bytes().decode("utf-8")
        code, out, _ = run_cli(capsys, *argv, "--out", "-")
        assert code == 0 and out == written

        # The comment lines are pinned by the committed sweep files.
        comments = [line[2:] for line in written.splitlines() if line.startswith("# ")]
        header = [axes[0][0], axes[1][0], predicate.value]
        plane = run_sweep(SweepSpec(fixed=fixed, axes=axes, steps=9, predicate=predicate))
        assert written == self.by_write_csv(comments, header, plane)
        if predicate is Predicate.COLLECTIVE_GAIN and name == "float-range":
            values = {row.split(",")[2] for row in out.splitlines()[len(comments) + 1 :]}
            assert {"0", '"Infinity"'} <= values and "NaN" not in values

    def test_special_values_and_float_range_axes(self):
        nan = float("nan")
        plane = SweepPlane(
            [5e-324, 1.0, 1e308],
            [5e-324, 1e308],
            [-0.0, 0.0, nan, float("nan"), nan, float("-inf")],
        )
        text = self.by_write_plane(["c"], ["a", "b", "v"], plane)
        assert text == self.by_write_csv(["c"], ["a", "b", "v"], plane)
        assert text == (
            "# c\na,b,v\n"
            "4.94065645841e-324,4.94065645841e-324,0\n"
            "4.94065645841e-324,1e+308,0\n"
            "1,4.94065645841e-324,NaN\n"
            "1,1e+308,NaN\n"
            "1e+308,4.94065645841e-324,NaN\n"
            '1e+308,1e+308,"-Infinity"\n'
        )

    def test_float_column_spells_each_cell_as_format_float(self):
        cells = [
            math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308,
            1e300, -1e300, 1e-300, 1e308, 1 / 3, 16.5, 1e16, 123456789012.5, math.nan, -0.0,
        ]
        assert sweep._column_texts(cells) == [format_float(x) for x in cells]
        assert sweep._column_texts([]) == []

    def test_mixed_value_column(self):
        # 1, 1.0 and True are equal keys in a dict but print differently.
        plane = SweepPlane([0.5, 2.0], [1.0, 3.0], [1, 1.0, True, np.float64(-0.0)])
        text = self.by_write_plane([], ["p", "q", "v"], plane)
        assert text == self.by_write_csv([], ["p", "q", "v"], plane)
        assert text == "p,q,v\n0.5,1,1\n0.5,3,1\n2,1,True\n2,3,0\n"


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


def _libc_mallopt():
    try:
        return ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return None


# Runs the 30x30 criterion-8 plane twice through ``cli.main`` in one process
# and prints the minor page faults of the second run.
SECOND_PLANE_FAULTS = """
import resource, sys
from coalitional_lotto import cli
argv = ["sweep", "--phi1", "12", "--phi2", "10", "--axis", "x1=0.02:3", "--axis", "x2=0.02:3",
        "--steps", "30", "--predicate", "mutual-contest", "--out", sys.argv[1]]
assert cli.main(argv) == cli.EXIT_OK
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
assert cli.main(argv) == cli.EXIT_OK
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


class TestKeepFreedHeap:
    """``main`` keeps freed arrays on the heap; a libc without ``mallopt`` is left alone."""

    @pytest.fixture
    def fresh(self):
        cli._keep_freed_heap.cache_clear()
        yield cli._keep_freed_heap
        cli._keep_freed_heap.cache_clear()

    @pytest.mark.skipif(_libc_mallopt() is None, reason="libc has no mallopt")
    def test_a_second_plane_does_not_fault_its_arrays_back_in(self, tmp_path):
        # In a fresh process, so that no earlier test has tuned the allocator.
        # With glibc's default thresholds the second plane takes about 190
        # faults: each kernel call above about 6,000 lanes hands its freed
        # memory back to the system, and the next call faults it in again.
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", SECOND_PLANE_FAULTS, str(tmp_path / "plane.csv")],
            env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert int(done.stdout) < 50

    def test_sets_both_thresholds_once(self, fresh, monkeypatch):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        monkeypatch.setattr(ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
        assert fresh() is True
        assert calls == [(-3, 32 << 20), (-1, 64 << 20)]
        assert fresh() is True and len(calls) == 2

    @pytest.mark.parametrize("refusal", ["no libc", "no mallopt", "refused"])
    def test_a_libc_without_mallopt_is_left_alone(self, fresh, monkeypatch, capsys, refusal):
        def cdll(name):
            if refusal == "no libc":
                raise OSError(f"{name}: cannot open shared object file")
            if refusal == "no mallopt":
                return SimpleNamespace()
            return SimpleNamespace(mallopt=lambda param, value: 0)

        monkeypatch.setattr(ctypes, "CDLL", cdll)
        assert fresh() is False
        code, out, _ = run_cli(capsys, "analyze", *DIAMOND_ARGS)
        assert code == 0 and json.loads(out)["case"] == "C2_1le2"
        code, _, err = run_cli(capsys, "analyze", "--phi1", "-1", *DIAMOND_ARGS[2:])
        assert code == 1 and "error:" in err
