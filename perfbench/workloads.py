"""The benchmark's three workloads: seeded inputs, operations and checks.

Each workload turns the seed into a corpus of operations, each of which
runs the package through a public entry point.  The package only sees the
generated games or command lines.  All inputs come from
``random.Random(f"<workload>:<seed>")``, so one seed always gives the same
corpus.

* ``figure-sweep`` -- the criterion-8 plane (phi1=12, phi2=10, x1 and x2
  over [0.02, 3]) for all six predicates through the ``sweep`` command, CSV
  to a file.  An operation is one predicate plane.
* ``verify`` -- ``verify`` commands on seeded uniform-box games.  An
  operation is one command; failures are counted per verified game.
* ``analyze-stratified`` -- ``analyze_game`` plus ``to_json`` on one game at
  a time, from a corpus stratified over regions R1..R5.  An operation is one
  analyzed game.

``check`` judges the outputs of one pass over the corpus, after timing.
"""

from __future__ import annotations

import hashlib
import math
import random
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import process_time

import numpy as np

from coalitional_lotto import analysis, cli, mutual, oracle
from coalitional_lotto.core import GameInstance
from coalitional_lotto.mutual import Mechanism

OK, FAILED, WRONG = "ok", "failed", "wrong"


@dataclass
class Op:
    """One timed operation: its time, a digest of its output, and what the
    checks need from it (``None`` when it raised)."""

    seconds: float
    digest: str
    output: object


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _timed(fn, *args) -> tuple[float, object, bool]:
    """``fn(*args)`` timed on the process's CPU clock; an exception fails
    the operation, not the run."""
    t0 = process_time()
    try:
        result = fn(*args)
    except Exception:  # a raised operation is counted as failed; the loop goes on
        return process_time() - t0, traceback.format_exc(limit=3), False
    return process_time() - t0, result, True


def _csv_rows(text: str) -> tuple[list[str], list[list[str]]]:
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    if not lines:
        return [], []
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _beneficial(g: GameInstance, witness) -> bool:
    """Whether a witness strictly benefits both players; an infeasible or
    invalid witness does not."""
    try:
        return mutual.is_mutually_beneficial(g, witness)
    except ValueError:  # InfeasibleTransferError, GameValidationError
        return False


def _run_command(argv: list[str], out: Path) -> Op:
    """One CLI command writing to ``out``; output is (exit code, file text)."""
    out.unlink(missing_ok=True)
    seconds, rc, ran = _timed(cli.main, argv)
    if not ran:
        return Op(seconds, sha256(rc), None)
    text = out.read_text(encoding="utf-8") if out.exists() else ""
    return Op(seconds, sha256(text), (rc, text))


# --------------------------------------------------------------------------
# figure-sweep


FIGURE_PHI = (12.0, 10.0)
FIGURE_LO, FIGURE_HI = 0.02, 3.0
PREDICATES = (
    "mutual-budget", "mutual-joint", "mutual-contest", "collective-gain", "case", "region"
)
MUTUAL = {
    "mutual-budget": (Mechanism.BUDGET, mutual.budget_mutual_exists),
    "mutual-contest": (Mechanism.CONTEST, mutual.contest_mutual_exists),
    "mutual-joint": (Mechanism.JOINT, mutual.joint_mutual_exists),
}
CASE_LABELS = {"C4"} | {f"C{i}_{o}" for i in (1, 2, 3) for o in ("1le2", "1gt2")}
REGIONS = ("R1", "R2", "R3", "R4", "R5")


class FigureSweep:
    """The six predicate planes of one seeded grid.

    The seed shifts each axis by a fraction of one grid step, so every seed
    draws a different set of nodes from the same plane.
    """

    name = "figure-sweep"
    steps = 30
    # Operations between two timings of the reference loop (``run.py``).
    chunk = 1
    # Nodes per mutual plane that ``check`` re-decides with the grid oracle.
    oracle_nodes = 20

    def __init__(self, seed: int, tmp: Path) -> None:
        self.seed = seed
        self.tmp = tmp
        rng = random.Random(f"{self.name}:{seed}")
        h = (FIGURE_HI - FIGURE_LO) / (self.steps - 1)
        self.axes = [
            (name, FIGURE_LO + u * h, FIGURE_HI + u * h)
            for name, u in (("x1", rng.random()), ("x2", rng.random()))
        ]

    def corpus(self) -> list[str]:
        return list(PREDICATES)

    def games(self, predicate: str) -> int:
        return self.steps**2

    def _argv(self, steps: int, predicate: str, out: Path) -> list[str]:
        argv = ["sweep", "--phi1", repr(FIGURE_PHI[0]), "--phi2", repr(FIGURE_PHI[1])]
        for name, lo, hi in self.axes:
            argv += ["--axis", f"{name}={lo!r}:{hi!r}"]
        return argv + ["--steps", str(steps), "--predicate", predicate, "--out", str(out)]

    def run(self, predicate: str) -> Op:
        out = self.tmp / f"{predicate}.csv"
        return _run_command(self._argv(self.steps, predicate, out), out)

    def warm_up(self) -> None:
        for predicate in PREDICATES:
            cli.main(self._argv(3, predicate, self.tmp / "warm-up.csv"))

    def digests(self, predicates: list[str], ops: list[Op]) -> dict[str, str]:
        return {f"sweep {p}.csv": op.digest for p, op in zip(predicates, ops)}

    def check(self, predicates: list[str], ops: list[Op]) -> list[tuple[str, int]]:
        """(status, games) per plane.

        A plane is wrong when its CSV is malformed or a validated witness
        contradicts it.  It fails when a sampled node's verdict disagrees
        with ``oracle.grid_mutual_search`` and neither side flags
        ``near_boundary``.
        """
        grids = [np.linspace(lo, hi, self.steps) for _, lo, hi in self.axes]
        rng = random.Random(f"{self.name}-check:{self.seed}")
        return [(self._status(p, op, grids, rng), 1) for p, op in zip(predicates, ops)]

    def _status(self, predicate: str, op: Op, grids, rng: random.Random) -> str:
        if op.output is None:
            return WRONG
        rc, text = op.output
        _, rows = _csv_rows(text)
        if rc != cli.EXIT_OK or len(rows) != self.steps**2:
            return WRONG
        values = [row[2] for row in rows]
        if predicate in MUTUAL:
            domain_ok = set(values) <= {"0", "1"}
        elif predicate == "case":
            domain_ok = set(values) <= CASE_LABELS
        elif predicate == "region":
            domain_ok = set(values) <= set(REGIONS)
        else:
            floor = -1e-9 * sum(FIGURE_PHI)
            domain_ok = all(math.isfinite(float(v)) and float(v) >= floor for v in values)
        if not domain_ok:
            return WRONG
        if predicate not in MUTUAL:
            return OK
        mechanism, verdict_fn = MUTUAL[predicate]
        status = OK
        for node in rng.sample(range(self.steps**2), self.oracle_nodes):
            i, j = divmod(node, self.steps)
            g = GameInstance(*FIGURE_PHI, float(grids[0][i]), float(grids[1][j]))
            analytic = verdict_fn(g)
            if int(analytic.exists) != int(values[node]):
                return WRONG
            if analytic.exists and not _beneficial(g, analytic.witness):
                return WRONG
            grid = oracle.grid_mutual_search(g, mechanism)
            flagged = grid.near_boundary or analytic.near_boundary
            if grid.exists != analytic.exists and not flagged:
                if grid.exists and _beneficial(g, grid.witness):
                    return WRONG
                status = FAILED
        return status


# --------------------------------------------------------------------------
# verify


class Verify:
    """``commands`` verify commands of ``count`` games, each with its own seed."""

    name = "verify"
    commands = 6
    count = 25
    chunk = 1

    def __init__(self, seed: int, tmp: Path) -> None:
        self.seed = seed
        self.tmp = tmp

    def corpus(self) -> list[int]:
        rng = random.Random(f"{self.name}:{self.seed}")
        return [rng.getrandbits(32) for _ in range(self.commands)]

    def games(self, verify_seed: int) -> int:
        return self.count

    def _argv(self, count: int, verify_seed: int, out: Path) -> list[str]:
        return ["verify", "--count", str(count), "--seed", str(verify_seed), "--out", str(out)]

    def run(self, verify_seed: int) -> Op:
        out = self.tmp / "verify.csv"
        return _run_command(self._argv(self.count, verify_seed, out), out)

    def warm_up(self) -> None:
        cli.main(self._argv(1, 0, self.tmp / "warm-up.csv"))

    def digests(self, seeds: list[int], ops: list[Op]) -> dict[str, str]:
        return {f"verify --seed {s}.csv": op.digest for s, op in zip(seeds, ops)}

    def check(self, seeds: list[int], ops: list[Op]) -> list[tuple[str, int]]:
        """(status, games) per command and outcome: a game fails when its
        row has ok=0.

        Exit code 2 only reports such rows.  A command that fails otherwise,
        or writes the wrong number of rows, is wrong for all its games.
        """
        result = []
        for op in ops:
            if op.output is None or op.output[0] not in (cli.EXIT_OK, cli.EXIT_DISAGREEMENT):
                result.append((WRONG, self.count))
                continue
            header, rows = _csv_rows(op.output[1])
            if len(rows) != self.count or "ok" not in header:
                result.append((WRONG, self.count))
                continue
            ok = header.index("ok")
            failed = sum(row[ok] != "1" for row in rows)
            result += [(OK, self.count - failed), (FAILED, failed)]
        return result


# --------------------------------------------------------------------------
# analyze-stratified

# Log-uniform ranges: valuations and budgets each span several decades.
VALUATIONS = (1e-2, 1e2)
BIG_BUDGETS = (1.0, 1e2)
SMALL_BUDGETS = (1e-3, 1.0)


def region_of(x1: float, x2: float) -> str:
    """Budget region, as the paper defines R1..R5.

    Kept apart from ``mutual.classify_region`` so that the corpus does not
    move when the package changes.
    """
    if x1 + x2 < 1.0:
        return "R5"
    if x1 >= 1.0:
        return "R1" if x2 >= 1.0 else "R2"
    return "R3" if x2 >= 1.0 else "R4"


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def stratified_game(rng: random.Random, region: str, ridge: bool) -> GameInstance:
    """A game with budgets in ``region``; on the equal-ratio ridge if asked.

    Budgets are redrawn until they fall in the region: log-uniform, except
    in R4 (both below 1, sum at least 1), where they are uniform.  A ridge
    game keeps its budgets and sets ``phi2 = phi1 * x2 / x1``, so its region
    does not change.
    """
    big = (region in ("R1", "R2"), region in ("R1", "R3"))
    while True:
        if region == "R4":
            x1, x2 = rng.uniform(*SMALL_BUDGETS), rng.uniform(*SMALL_BUDGETS)
        else:
            x1, x2 = (_log_uniform(rng, *(BIG_BUDGETS if b else SMALL_BUDGETS)) for b in big)
        if region_of(x1, x2) == region:
            break
    phi1 = _log_uniform(rng, *VALUATIONS)
    phi2 = phi1 * x2 / x1 if ridge else _log_uniform(rng, *VALUATIONS)
    return GameInstance(phi1, phi2, x1, x2)


class AnalyzeStratified:
    """``size`` games: equal counts per region, one in ten on the ridge."""

    name = "analyze-stratified"
    # 1000 games leave ten beyond the 99th percentile.
    size = 1000
    # About 40 ms of games between two timings of the reference loop.
    chunk = 25

    def __init__(self, seed: int, tmp: Path) -> None:
        self.seed = seed
        self.tmp = tmp

    def corpus(self) -> list[GameInstance]:
        rng = random.Random(f"{self.name}:{self.seed}")
        n = len(REGIONS)
        return [stratified_game(rng, REGIONS[i % n], (i // n) % 10 == 9) for i in range(self.size)]

    def games(self, g: GameInstance) -> int:
        return 1

    @staticmethod
    def _analyze(g: GameInstance) -> tuple[analysis.AnalysisReport, str]:
        report = analysis.analyze_game(g)
        return report, analysis.to_json(report.as_dict())

    def run(self, g: GameInstance) -> Op:
        seconds, result, ran = _timed(self._analyze, g)
        if not ran:
            return Op(seconds, sha256(result), None)
        report, text = result
        verdicts = (report.mutual_budget, report.mutual_contest, report.mutual_joint)
        return Op(seconds, sha256(text), (text, [v.witness for v in verdicts if v.exists]))

    def warm_up(self) -> None:
        self._analyze(GameInstance(12.0, 10.0, 0.4, 1.6))

    def check(self, games: list[GameInstance], ops: list[Op]) -> list[tuple[str, int]]:
        """(status, 1) per game: wrong when analysis raised or a witness does
        not strictly benefit both players."""
        result = []
        for g, op in zip(games, ops):
            ok = op.output is not None and all(_beneficial(g, w) for w in op.output[1])
            result.append((OK if ok else WRONG, 1))
        return result

    def digests(self, games: list[GameInstance], ops: list[Op]) -> dict[str, str]:
        texts = (op.output[0] if op.output is not None else "" for op in ops)
        return {"analyze.json (concatenated)": sha256("\n".join(texts))}


WORKLOADS = {w.name: w for w in (FigureSweep, Verify, AnalyzeStratified)}
