"""Parameter sweeps, payoff curves, and the oracle verification drive.

These functions back the CLI subcommands; they return plain rows so they can
be tested without touching the filesystem.  Output ordering is row-major over
the swept axes and floats are formatted to 12 significant digits, so a given
spec always produces byte-identical CSV.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, TextIO

import numpy as np

from . import batch
from .adversary import adversary_value, best_response, classify_case, player_payoffs
from .analysis import format_float
from .collective import max_collective_payoff
from .core import GameInstance
from .mutual import (
    Mechanism,
    budget_mutual_exists,
    classify_region,
    contest_mutual_exists,
    joint_mutual_exists,
)
from .oracle import grid_best_responses, grid_line_oracle
from .rng import SplitMix64
from .search import transfer_interval

__all__ = [
    "Predicate",
    "SweepSpec",
    "run_sweep",
    "run_curve",
    "run_verify",
    "write_csv",
    "SAMPLE_LO",
    "SAMPLE_HI",
]

# Verification samples games uniformly from this box.
SAMPLE_LO = 0.05
SAMPLE_HI = 3.0

PARAM_NAMES = ("phi1", "phi2", "x1", "x2")


class Predicate(Enum):
    MUTUAL_BUDGET = "mutual-budget"
    MUTUAL_CONTEST = "mutual-contest"
    MUTUAL_JOINT = "mutual-joint"
    CASE = "case"
    REGION = "region"
    COLLECTIVE_GAIN = "collective-gain"


@dataclass(frozen=True)
class SweepSpec:
    """Two swept parameters over ranges, the rest fixed."""

    fixed: dict
    axes: tuple[tuple[str, float, float], tuple[str, float, float]]
    steps: int
    predicate: Predicate

    def __post_init__(self) -> None:
        if self.steps < 2:
            raise ValueError("steps must be >= 2")
        names = [axis[0] for axis in self.axes]
        if len(set(names)) != 2:
            raise ValueError("exactly two distinct swept axes required")
        for name, lo, hi in self.axes:
            if name not in PARAM_NAMES:
                raise ValueError(f"unknown axis {name!r}; choose from {PARAM_NAMES}")
            if not (0.0 < lo < hi):
                raise ValueError(f"axis {name}: need 0 < lo < hi, got {lo}..{hi}")
        missing = set(PARAM_NAMES) - set(names) - set(self.fixed)
        if missing:
            raise ValueError(f"parameters not fixed or swept: {sorted(missing)}")


def _predicate_value(g: GameInstance, predicate: Predicate):
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


def run_sweep(spec: SweepSpec):
    """Rows of (axis1 value, axis2 value, predicate value), row-major."""
    (name1, lo1, hi1), (name2, lo2, hi2) = spec.axes
    vals1 = np.linspace(lo1, hi1, spec.steps)
    vals2 = np.linspace(lo2, hi2, spec.steps)
    rows = []
    for v1 in vals1:
        for v2 in vals2:
            params = dict(spec.fixed)
            params[name1] = float(v1)
            params[name2] = float(v2)
            g = GameInstance(**params)
            rows.append((float(v1), float(v2), _predicate_value(g, spec.predicate)))
    return rows


def run_curve(g: GameInstance, mechanism: Mechanism, steps: int):
    """Payoffs along one mechanism's feasible interval: (t, u1, u2, u1+u2)."""
    if mechanism is Mechanism.JOINT:
        raise ValueError("curve supports budget or contest transfers only")
    if steps < 2:
        raise ValueError("steps must be >= 2")
    vs = np.linspace(*transfer_interval(g, mechanism), steps)
    taus = vs if mechanism is Mechanism.BUDGET else np.zeros(1)
    nus = vs if mechanism is Mechanism.CONTEST else np.zeros(1)
    u1, u2 = batch.payoffs_at_transfers(g, taus, nus)
    return [
        (float(v), float(a), float(b), float(a + b))
        for v, a, b in zip(vs, np.atleast_1d(u1), np.atleast_1d(u2))
    ]


# Tolerances for the verification drive: closed forms must match the grid
# oracle this tightly away from indifference plateaus and case boundaries.
VERIFY_ALLOC_TOL = 1e-6
VERIFY_VALUE_TOL = 1e-9
VERIFY_COLLECTIVE_RTOL = 1e-6


def sample_games(count: int, seed: int) -> list[GameInstance]:
    rng = SplitMix64(seed)
    games = []
    for _ in range(count):
        params = [rng.uniform(SAMPLE_LO, SAMPLE_HI) for _ in range(4)]
        games.append(GameInstance(*params))
    return games


def run_verify(count: int, seed: int):
    """Compare analytic verdicts/optima against the grid oracle.

    Returns (rows, ok): one row per sampled game; ok is False when any game
    disagrees on contest-transfer existence away from a condition boundary,
    or a closed-form optimum misses its oracle value beyond tolerance.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    games = sample_games(count, seed)
    # The contest line serves both the mutual search and the contest
    # collective maximum.
    lines = grid_line_oracle(games, Mechanism.CONTEST, (Mechanism.BUDGET, Mechanism.CONTEST))
    responses = grid_best_responses(games)
    rows = []
    ok = True
    for i, g in enumerate(games):
        label = classify_case(g)
        analytic = contest_mutual_exists(g)
        oracle_v = lines.verdicts[i]
        agree = analytic.exists == oracle_v.exists
        near = analytic.near_boundary or oracle_v.near_boundary

        xa_closed = best_response(g)
        xa_grid = responses[i]
        alloc_err = abs(xa_closed.xa1 - xa_grid.xa1)
        value_err = abs(
            adversary_value(g, xa_closed.xa1, xa_closed.xa2)
            - adversary_value(g, xa_grid.xa1, xa_grid.xa2)
        )
        br_ok = alloc_err <= VERIFY_ALLOC_TOL or value_err <= VERIFY_VALUE_TOL

        closed = max_collective_payoff(g)
        col_err = max(
            abs(lines.maxima[Mechanism.BUDGET][i] - closed),
            abs(lines.maxima[Mechanism.CONTEST][i] - closed),
        ) / abs(closed)
        col_ok = col_err <= VERIFY_COLLECTIVE_RTOL

        game_ok = (agree or near) and br_ok and col_ok
        ok = ok and game_ok
        rows.append(
            {
                "index": i,
                "phi1": g.phi1,
                "phi2": g.phi2,
                "x1": g.x1,
                "x2": g.x2,
                "case": str(label),
                "region": classify_region(g).value,
                "contest_analytic": int(analytic.exists),
                "contest_oracle": int(oracle_v.exists),
                "contest_agree": int(agree),
                "near_boundary": int(near),
                "br_alloc_err": alloc_err,
                "br_value_err": value_err,
                "collective_rel_err": col_err,
                "ok": int(game_ok),
            }
        )
    return rows, ok


def write_csv(
    stream: TextIO, comments: Iterable[str], header: Iterable[str], rows: Iterable[Iterable]
) -> None:
    """CSV with '#' comment lines naming units and fixed parameters."""
    for line in comments:
        stream.write(f"# {line}\n")
    stream.write(",".join(header) + "\n")
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, float):
                cells.append(format_float(cell))
            else:
                cells.append(str(cell))
        stream.write(",".join(cells) + "\n")
