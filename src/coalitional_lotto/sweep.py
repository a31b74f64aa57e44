"""Parameter sweeps, payoff curves, and the oracle verification drive.

These functions back the CLI subcommands; they return plain values so they
can be tested without touching the filesystem.  Output ordering is row-major
over the swept axes and floats are formatted to 12 significant digits, so a
given spec always produces byte-identical CSV.

A sweep builds its whole plane as one ``batch.GameArrays`` and evaluates it
in blocks of ``SWEEP_BLOCK`` games.  Every predicate runs over each block as
arrays (``mutual_arrays.budget_exists``, ``mutual_arrays.contest_exists``,
``mutual_arrays.joint_exists``, ``batch.case_of``, ``mutual.region_index``,
``collective.max_collective_payoff``), with no loop over the nodes; each
value equals the one-game verdict's.  ``run_sweep`` returns the plane as it
holds it, a ``SweepPlane`` of the two axis value lists and the row-major
value column, and ``write_plane`` writes it without building rows: each
axis value is formatted once, the value column goes through the same
per-distinct-value formatting as ``write_csv``'s columns, and each line
joins the axis-1 text, the axis-2 text and the value text along the grid.
The bytes equal those ``write_csv`` writes for the plane's rows.  ``curve``
and ``verify`` write their tables with ``write_csv``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter
from typing import Iterable, NamedTuple, TextIO

import numpy as np

from . import batch, mutual_arrays
from .adversary import CaseLabel, adversary_value, respond
from .analysis import format_float
from .batch import GameArrays
from .collective import max_collective_payoff
from .core import GameInstance
from .mutual import REGIONS, Mechanism, classify_region, region_index
from .oracle import grid_oracles
from .rng import SplitMix64
from .search import line_ends

__all__ = [
    "Predicate",
    "SweepSpec",
    "SweepPlane",
    "run_sweep",
    "run_curve",
    "run_verify",
    "write_csv",
    "write_plane",
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
    """Two swept parameters over ranges, the other two fixed."""

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
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"axis {name}: ends must be finite, got {lo}..{hi}")
            if not (0.0 < lo < hi):
                raise ValueError(f"axis {name}: need 0 < lo < hi, got {lo}..{hi}")
        both = set(names) & set(self.fixed)
        if both:
            raise ValueError(f"parameters both fixed and swept: {sorted(both)}")
        missing = set(PARAM_NAMES) - set(names) - set(self.fixed)
        if missing:
            raise ValueError(f"parameters not fixed or swept: {sorted(missing)}")


class SweepPlane(NamedTuple):
    """A swept plane: each axis's values, and the value at every node.

    ``values[i * len(axis2) + j]`` is the value at ``(axis1[i], axis2[j])``.
    """

    axis1: list[float]
    axis2: list[float]
    values: list


# Games per array evaluation of a sweep plane.  Blocks bound the working
# memory of the array verdicts, which hold a few dozen breaks and candidates
# per game, while each verdict call pays a fixed cost of about 0.4 ms.  On
# the criterion-8 plane (phi1=12, phi2=10, x1 and x2 over [0.02, 3]), 4096
# was the fastest of 1024 to 16384 at 300 x 300 nodes; from 1024 up, a
# 30 x 30 plane is one block.
SWEEP_BLOCK = 4096

# Case labels by ``2 * (index - 1) + swapped``, and region names by
# ``region_index``.
_CASE_NAMES = np.array([str(CaseLabel.of(i, s)) for i in (1, 2, 3, 4) for s in (False, True)])
_REGION_NAMES = np.array([region.value for region in REGIONS])


def _plane_games(fields: dict, count: int) -> GameArrays:
    """The games of a plane, each checked by ``GameInstance``'s rule.

    ``fields`` maps each parameter to a value or an array of ``count``
    values.  The first game in order that breaks the rule is built as a
    ``GameInstance``, which raises its error.
    """
    columns = [
        np.broadcast_to(np.asarray(fields[name], dtype=float), (count,)) for name in PARAM_NAMES
    ]
    valid = np.logical_and.reduce([np.isfinite(c) & (c > 0.0) for c in columns])
    if not valid.all():
        GameInstance(*(c[np.argmin(valid)] for c in columns))
    return GameArrays(*columns)


def _plane_values(games: GameArrays, predicate: Predicate) -> list:
    """The predicate's value at every game of ``games``, in order."""
    if predicate is Predicate.MUTUAL_CONTEST:
        return mutual_arrays.contest_exists(games).astype(int).tolist()
    if predicate is Predicate.MUTUAL_BUDGET:
        return mutual_arrays.budget_exists(games).astype(int).tolist()
    if predicate is Predicate.MUTUAL_JOINT:
        return mutual_arrays.joint_exists(games).astype(int).tolist()
    if predicate is Predicate.CASE:
        index, swapped = batch.case_of(*games)
        return _CASE_NAMES[2 * (index - 1) + swapped].tolist()
    if predicate is Predicate.REGION:
        return _REGION_NAMES[region_index(games.x1, games.x2)].tolist()
    u1, u2 = batch.payoffs_at_transfers(games, 0.0, 0.0)
    # Valuations near the top of the float range overflow the payoff sum.
    with np.errstate(over="ignore", invalid="ignore"):
        return (max_collective_payoff(games) - (u1 + u2)).tolist()


def run_sweep(spec: SweepSpec) -> SweepPlane:
    """The predicate's plane over the two axes, values row-major."""
    (name1, lo1, hi1), (name2, lo2, hi2) = spec.axes
    vals1 = np.linspace(lo1, hi1, spec.steps)
    vals2 = np.linspace(lo2, hi2, spec.steps)
    count = spec.steps * spec.steps
    fields = dict(spec.fixed)
    fields[name1] = np.repeat(vals1, spec.steps)
    fields[name2] = np.tile(vals2, spec.steps)
    games = _plane_games(fields, count)
    values = []
    for start in range(0, count, SWEEP_BLOCK):
        block = GameArrays(*(field[start : start + SWEEP_BLOCK] for field in games))
        values += _plane_values(block, spec.predicate)
    return SweepPlane(vals1.tolist(), vals2.tolist(), values)


def run_curve(g: GameInstance, mechanism: Mechanism, steps: int):
    """Payoffs along one mechanism's line (``search.line_ends``): (t, u1, u2, u1+u2)."""
    if mechanism is Mechanism.JOINT:
        raise ValueError("curve supports budget or contest transfers only")
    if steps < 2:
        raise ValueError("steps must be >= 2")
    vs = np.linspace(*line_ends(g, mechanism), steps)
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
    or a closed-form optimum misses its oracle value beyond tolerance.  The
    analytic contest flags of every game, ``exists`` and ``near_boundary``
    as the one-game verdict gives them, come from one array call
    (``mutual_arrays.line_flags``); the oracles of every game share one
    refinement pass (``oracle.grid_oracles``).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    games = sample_games(count, seed)
    # The contest line serves both the mutual search and the contest
    # collective maximum; the lines and the best responses share one
    # refinement pass.
    lines, responses = grid_oracles(
        games, Mechanism.CONTEST, (Mechanism.BUDGET, Mechanism.CONTEST)
    )
    flags = mutual_arrays.line_flags(GameArrays.of(games), Mechanism.CONTEST)
    analytic_exists, analytic_near = (flag.tolist() for flag in flags)
    rows = []
    ok = True
    for i, g in enumerate(games):
        label, (xa1, xa2), _ = respond(g)
        closed = max_collective_payoff(g)
        oracle_v = lines.verdicts[i]
        agree = analytic_exists[i] == oracle_v.exists
        near = analytic_near[i] or oracle_v.near_boundary

        xa_grid = responses[i]
        alloc_err = abs(xa1 - xa_grid.xa1)
        value_err = abs(
            adversary_value(g, xa1, xa2) - adversary_value(g, xa_grid.xa1, xa_grid.xa2)
        )
        br_ok = alloc_err <= VERIFY_ALLOC_TOL or value_err <= VERIFY_VALUE_TOL

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
                "contest_analytic": int(analytic_exists[i]),
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


def _formatter(kind: type):
    """The text of a cell of type ``kind``: 12 significant digits for floats."""
    return format_float if issubclass(kind, float) else str


def _column_texts(cells: list) -> list[str]:
    """Each cell's text, with each distinct cell formatted once.

    A column of one type is keyed by value; a mixed column by ``(type,
    value)``, so that ``1``, ``1.0`` and ``True`` stay apart.  Equal cells of
    one type print alike (``0.0`` and ``-0.0`` both print as ``0``).
    """
    kinds = set(map(type, cells))
    keys = cells if len(kinds) == 1 else list(zip(map(type, cells), cells))
    distinct = list(dict.fromkeys(keys))
    if len(kinds) == 1:
        texts = map(_formatter(*kinds), distinct)
    else:
        texts = (_formatter(kind)(cell) for kind, cell in distinct)
    memo = dict(zip(distinct, texts))
    return list(map(memo.__getitem__, keys))


def _preamble(comments: Iterable[str], header: Iterable[str]) -> str:
    """The '#' comment lines and the header line of a CSV."""
    return "".join([f"# {line}\n" for line in comments] + [",".join(header) + "\n"])


def write_csv(
    stream: TextIO, comments: Iterable[str], header: Iterable[str], rows: Iterable[Iterable]
) -> None:
    """CSV with '#' comment lines naming units and fixed parameters.

    Rows must all have the same length.  The cells are formatted column by
    column and the file is written at once.
    """
    rows = list(map(tuple, rows))
    widths = set(map(len, rows))
    if len(widths) > 1:
        raise ValueError(f"CSV rows differ in length: {sorted(widths)}")
    width = max(widths, default=0)
    if width:
        # Each cell and the comma or newline after it, row after row.
        step = 2 * width
        body = [","] * (step * len(rows))
        for k in range(width):
            body[2 * k :: step] = _column_texts(list(map(itemgetter(k), rows)))
        body[step - 1 :: step] = ["\n"] * len(rows)
    else:
        body = ["\n"] * len(rows)
    stream.write(_preamble(comments, header))
    stream.write("".join(body))


def write_plane(
    stream: TextIO, comments: Iterable[str], header: Iterable[str], plane: SweepPlane
) -> None:
    """The CSV that ``write_csv`` writes for the plane's rows.

    The rows are (axis-1 value, axis-2 value, value), row-major; none is
    built.  Each axis value is formatted once, and the value column as
    ``write_csv`` formats a column.
    """
    firsts = _column_texts(plane.axis1)
    seconds = [f",{text}," for text in _column_texts(plane.axis2)]
    width = len(seconds)
    # Four pieces per line: the axis-1 text, ",axis-2 text,", the value
    # text and the newline.
    body = ["\n"] * (4 * len(firsts) * width)
    for i, text in enumerate(firsts):
        body[4 * width * i : 4 * width * (i + 1) : 4] = [text] * width
    body[1::4] = seconds * len(firsts)
    body[2::4] = _column_texts(plane.values)
    stream.write(_preamble(comments, header))
    stream.write("".join(body))
