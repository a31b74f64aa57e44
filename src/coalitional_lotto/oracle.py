"""Brute-force grid oracles, independent of the analytic characterizations.

Every analytic claim in this package has a slow counterpart here:

* ``grid_best_response`` maximizes the adversary's two-front payoff by brute
  force over its split, using nothing but the one-vs-one payoff formula;
* ``grid_mutual_search`` scans the feasible transfer set for a point where
  both players strictly gain;
* ``grid_max_collective`` maximizes the collective payoff along a mechanism's
  feasible set by grid plus local refinement.

Each takes one game and is the one-game case of a form that takes a
sequence of games: ``grid_best_responses``, ``grid_mutual_searches`` and
``grid_max_collectives``.  ``grid_line_oracle`` serves the budget and
contest lines of both searches at once.  Every game's line is scanned
once, on its own, and cut down at once to its refinement brackets and to
the few numbers the knife-edge fallback reads (``search.RidgeScan``), so no
(games x grid) array is kept and no line is scanned twice.

Each oracle is a scan and a finish.  The scan hands over its refinement
rows (objective, brackets, step counts) and a finisher that turns their
refined maxima into the oracle's results.  One lockstep golden-section
pass (``search.golden_max``) refines the rows of several oracles at once,
each objective evaluated on its own slice of rows: ``grid_oracles`` serves
the line oracle and the best responses of a sample from one pass.  Each
game's results equal those of a one-game call bit for bit, whatever games
and oracles share the pass.

The test suite pins oracle outputs for a golden set of games as fixtures and
requires the closed forms to reproduce them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import batch
from .adversary import AdversaryAllocation
from .batch import GameArrays
from .core import GameInstance, Mechanism, Transfer
from .mutual import KNIFE_EDGE, MutualBenefitVerdict
from .search import (
    RidgeScan,
    along,
    golden_max,
    line_ends,
    min_gain,
    off_ridge_best,
    refine_transfers,
    thin_margin,
    transfer_objective,
)

__all__ = [
    "GridSpec",
    "DEFAULT_GRID_1D",
    "DEFAULT_GRID_2D",
    "LineOracle",
    "grid_best_response",
    "grid_best_responses",
    "grid_mutual_search",
    "grid_mutual_searches",
    "grid_max_collective",
    "grid_max_collectives",
    "grid_line_oracle",
    "grid_oracles",
]


@dataclass(frozen=True)
class GridSpec:
    """Grid density; scans run between the shared line ends (``search.line_ends``)."""

    resolution: int = 4001

    def __post_init__(self) -> None:
        if self.resolution < 3:
            raise ValueError("resolution must be >= 3")


DEFAULT_GRID_1D = GridSpec(4001)
DEFAULT_GRID_2D = GridSpec(401)

# Golden-section steps per refinement bracket.
MUTUAL_ITERS = 60
COLLECTIVE_ITERS = 80
BEST_RESPONSE_ITERS = 80
JOINT_ITERS = 60


def _adv_value_vec(g: GameInstance | GameArrays, xa1):
    """Adversary payoff over an array of splits (xa2 = 1 - xa1)."""
    xa1 = np.asarray(xa1, dtype=float)
    xa2 = 1.0 - xa1
    u1 = batch.one_v_one_vec(g.phi1, g.x1, xa1)
    u2 = batch.one_v_one_vec(g.phi2, g.x2, xa2)
    return (g.phi1 - u1) + (g.phi2 - u2)


def _bracket(grid: np.ndarray, k) -> tuple:
    """The grid points on either side of index ``k``, clipped to the grid."""
    return grid[np.maximum(k - 1, 0)], grid[np.minimum(k + 1, len(grid) - 1)]


class _Scan(NamedTuple):
    """An oracle's refinement rows, and how to finish them.

    Row ``i`` maximizes ``objective`` on ``[lo[i], hi[i]]`` in ``iters[i]``
    golden-section steps; ``objective`` takes this scan's rows only, as
    ``search.golden_max`` passes them.  ``finish(argmax, max)`` turns the
    refined rows into the oracle's result.
    """

    objective: Callable
    lo: np.ndarray
    hi: np.ndarray
    iters: np.ndarray
    finish: Callable


def _refine(*scans: _Scan) -> list:
    """Each scan's finished result, all their rows refined in one ``golden_max`` pass."""
    ends = np.cumsum([0] + [len(scan.lo) for scan in scans]).tolist()
    parts = [slice(i, j) for i, j in zip(ends, ends[1:])]

    def f(v):
        return np.concatenate(
            [scan.objective(v[..., part]) for scan, part in zip(scans, parts)], axis=-1
        )

    rows = zip(*((scan.lo, scan.hi, scan.iters) for scan in scans))
    lo, hi, iters = (np.concatenate(column) for column in rows)
    arg, best = golden_max(f, lo, hi, iters)
    return [scan.finish(arg[part], best[part]) for scan, part in zip(scans, parts)]


def _best_response_scan(games: Sequence[GameInstance], spec: GridSpec) -> _Scan:
    """Each game's best grid split, bracketed for refinement."""
    xs = np.linspace(0.0, 1.0, spec.resolution)
    top = np.empty(len(games), dtype=int)
    top_value = np.empty(len(games))
    for i, g in enumerate(games):
        values = _adv_value_vec(g, xs)
        top[i] = np.argmax(values)
        top_value[i] = values[top[i]]
    arrays = GameArrays.of(games)

    def finish(x_best, v_best):
        x_best = np.where(top_value > v_best, xs[top], x_best)
        return [AdversaryAllocation(x, 1.0 - x) for x in x_best.tolist()]

    iters = np.full(len(games), BEST_RESPONSE_ITERS)
    return _Scan(lambda x: _adv_value_vec(arrays, x), *_bracket(xs, top), iters, finish)


def grid_best_responses(
    games: Sequence[GameInstance], spec: GridSpec = DEFAULT_GRID_1D
) -> list[AdversaryAllocation]:
    """Argmax of the adversary objective over its budget split, by grid search.

    Golden-section refinement around the best grid point resolves interior
    optima to well below the per-game comparison tolerances.  On indifference
    plateaus any argmax is acceptable (the objective value is what matters).
    """
    return _refine(_best_response_scan(games, spec))[0]


def grid_best_response(
    g_bar: GameInstance, spec: GridSpec = DEFAULT_GRID_1D
) -> AdversaryAllocation:
    """``grid_best_responses`` for one game."""
    return grid_best_responses([g_bar], spec)[0]


def _local_maxima(score: np.ndarray, top: int) -> list[int]:
    """The ``top`` highest points that are at least both neighbours, highest first.

    Each end counts as having ``-inf`` outside it; a NaN point is no
    maximum.  Where no point qualifies, the argmax alone.
    """
    peak = score >= -np.inf
    peak[1:] &= score[1:] >= score[:-1]
    peak[:-1] &= score[:-1] >= score[1:]
    idx = np.flatnonzero(peak)
    if idx.size == 0:
        return [int(np.argmax(score))]
    order = idx[np.argsort(score[idx])[::-1]]
    return [int(i) for i in order[:top]]


def _cut_line(g: GameInstance, mechanism: Mechanism, spec: GridSpec, baseline, mutual, collective):
    """Scan one game's line and keep only what refinement needs.

    For the mutual search (when ``mutual``): the best scan point ``(v,
    smaller delta)``, the brackets around the best few local maxima of the
    smaller delta, and the scan's ``RidgeScan`` for ``off_ridge_best``.  For
    the collective maximum (when ``collective``): the best scan value and
    the bracket around it.  The scan itself is dropped on return.
    """
    vs = np.linspace(*line_ends(g, mechanism), spec.resolution)
    if mechanism is Mechanism.BUDGET:
        u1, u2 = batch.payoffs_at_transfers(g, vs, 0.0)
    else:
        u1, u2 = batch.payoffs_at_transfers(g, 0.0, vs)
    mutual_cut = collective_cut = None
    if mutual:
        score = np.minimum(u1 - baseline[0], u2 - baseline[1])
        k = int(np.argmax(score))
        peaks = [_bracket(vs, p) for p in _local_maxima(score, top=5)]
        mutual_cut = (float(vs[k]), float(score[k])), peaks, RidgeScan.of(g, mechanism, vs, score)
    if collective:
        total = u1 + u2
        k = int(np.argmax(total))
        collective_cut = float(total[k]), _bracket(vs, k)
    return mutual_cut, collective_cut


class LineOracle(NamedTuple):
    """Results of ``grid_line_oracle``, one entry per game."""

    verdicts: list[MutualBenefitVerdict]
    maxima: dict[Mechanism, list[float]]


def _line_scan(
    games: Sequence[GameInstance],
    mutual: Mechanism | None,
    collective: Sequence[Mechanism],
    spec: GridSpec,
) -> _Scan:
    """Each game's lines cut into refinement brackets (``_cut_line``); the
    finisher decides the ``LineOracle``."""
    arrays = GameArrays.of(games)
    base1, base2 = batch.payoffs_at_transfers(arrays, 0.0, 0.0)
    # One row per refinement bracket: game, budget line, mutual objective,
    # bracket ends, steps.
    rows: list[tuple] = []
    mutual_grid: list[tuple[float, float]] = []
    mutual_rows: list[range] = []
    ridge_scans: list[RidgeScan] = []
    collective_grid = {mech: [] for mech in collective}
    collective_rows = {mech: [] for mech in collective}
    lines = dict.fromkeys(([mutual] if mutual is not None else []) + list(collective))
    for i, g in enumerate(games):
        for mech in lines:
            budget = mech is Mechanism.BUDGET
            mutual_cut, collective_cut = _cut_line(
                g, mech, spec, (base1[i], base2[i]), mech is mutual, mech in collective_rows
            )
            if mutual_cut is not None:
                grid, peaks, ridge_scan = mutual_cut
                mutual_grid.append(grid)
                ridge_scans.append(ridge_scan)
                mutual_rows.append(range(len(rows), len(rows) + len(peaks)))
                rows += [(i, budget, True, lo, hi, MUTUAL_ITERS) for lo, hi in peaks]
            if collective_cut is not None:
                grid, (lo, hi) = collective_cut
                collective_grid[mech].append(grid)
                collective_rows[mech].append(len(rows))
                rows.append((i, budget, False, lo, hi, COLLECTIVE_ITERS))

    table = np.array(rows, dtype=float).reshape(-1, 6)
    game = table[:, 0].astype(int)
    lo, hi = table[:, 3], table[:, 4]
    objective = transfer_objective(
        arrays.take(game),
        table[:, 1] > 0,
        lo,
        hi,
        mutual=table[:, 2] > 0,
        baseline=(base1[game], base2[game]),
    )

    def finish(v, val):
        v, val = v.tolist(), val.tolist()
        maxima = {
            mech: [
                val[r] if val[r] > grid else grid
                for grid, r in zip(collective_grid[mech], collective_rows[mech])
            ]
            for mech in collective
        }
        if mutual is None:
            return LineOracle([], maxima)

        best = []
        for grid, refined in zip(mutual_grid, mutual_rows):
            for r in refined:
                if val[r] > grid[1]:
                    grid = (v[r], val[r])
            best.append(grid)
        best_v, best_val = np.array(best, dtype=float).reshape(-1, 2).T
        found = off_ridge_best(
            arrays, mutual, (base1, base2), best_v, best_val, ridge_scans, MUTUAL_ITERS
        )
        verdicts = []
        for g, (_, score), found_i in zip(games, best, found):
            if found_i is None:
                # Refinement can converge into the ridge sliver, where a
                # benefit exists only under the adversary's indifference
                # tie-break; such a point witnesses no robust opportunity.
                verdicts.append(KNIFE_EDGE[mutual])
                continue
            near = thin_margin(g, score)
            if found_i[1] > min_gain(g):
                witness = along(mutual, found_i[0])
                verdicts.append(MutualBenefitVerdict(mutual, True, witness, "oracle-grid", near))
            else:
                verdicts.append(MutualBenefitVerdict(mutual, False, None, None, near))
        return LineOracle(verdicts, maxima)

    return _Scan(objective, lo, hi, table[:, 5].astype(int), finish)


def grid_line_oracle(
    games: Sequence[GameInstance],
    mutual: Mechanism | None = None,
    collective: Sequence[Mechanism] = (),
    spec: GridSpec = DEFAULT_GRID_1D,
) -> LineOracle:
    """Mutual search along ``mutual`` and collective maxima along each of
    ``collective`` (budget or contest lines), for every game.

    Each game's line is scanned once for both uses.  The mutual search
    refines the smaller payoff delta around the best few local maxima of
    the scan and moves a maximum that landed on the equal-ratio ridge off it
    (``search.off_ridge_best``); the collective maximum refines around the
    best scan point.  All brackets share one lockstep pass.  ``verdicts`` is
    empty without ``mutual``.
    """
    return _refine(_line_scan(games, mutual, collective, spec))[0]


def grid_oracles(
    games: Sequence[GameInstance],
    mutual: Mechanism | None = None,
    collective: Sequence[Mechanism] = (),
    spec: GridSpec = DEFAULT_GRID_1D,
) -> tuple[LineOracle, list[AdversaryAllocation]]:
    """``grid_line_oracle`` and ``grid_best_responses`` of the same games,
    both refined in one lockstep pass; each result equals its own call's."""
    lines, responses = _refine(
        _line_scan(games, mutual, collective, spec), _best_response_scan(games, spec)
    )
    return lines, responses


def _grid_joint_search(g: GameInstance, baseline, spec: GridSpec) -> MutualBenefitVerdict:
    """The best point of the 2-D transfer grid, unrefined."""
    taus = np.linspace(*line_ends(g, Mechanism.BUDGET), spec.resolution)[:, None]
    nus = np.linspace(*line_ends(g, Mechanism.CONTEST), spec.resolution)[None, :]
    u1, u2 = batch.payoffs_at_transfers(g, taus, nus)
    score = np.minimum(u1 - baseline[0], u2 - baseline[1])
    k = int(np.argmax(score))
    i, j = divmod(k, spec.resolution)
    best = float(score[i, j])
    near = thin_margin(g, best)
    if best > min_gain(g):
        witness = Transfer(float(taus[i, 0]), float(nus[0, j]))
        return MutualBenefitVerdict(Mechanism.JOINT, True, witness, "oracle-grid", near)
    return MutualBenefitVerdict(Mechanism.JOINT, False, None, None, near)


def grid_mutual_searches(
    games: Sequence[GameInstance], mechanism: Mechanism, spec: GridSpec | None = None
) -> list[MutualBenefitVerdict]:
    """Exhaustive search for a strictly mutually beneficial transfer, per game.

    1-D scan for budget/contest (see ``grid_line_oracle``), 2-D for joint.
    """
    if mechanism is not Mechanism.JOINT:
        return grid_line_oracle(games, mechanism, (), spec or DEFAULT_GRID_1D).verdicts
    spec = spec or DEFAULT_GRID_2D
    baseline = batch.payoffs_at_transfers(GameArrays.of(games), 0.0, 0.0)
    return [
        _grid_joint_search(g, (u1, u2), spec)
        for g, u1, u2 in zip(games, baseline[0].tolist(), baseline[1].tolist())
    ]


def grid_mutual_search(
    g: GameInstance, mechanism: Mechanism, spec: GridSpec | None = None
) -> MutualBenefitVerdict:
    """``grid_mutual_searches`` for one game."""
    return grid_mutual_searches([g], mechanism, spec)[0]


def _joint_collectives(games: Sequence[GameInstance], spec: GridSpec) -> list[float]:
    """Best point of each game's 2-D grid, then two rounds of coordinate-wise
    golden refinement, one coordinate of every game per pass."""
    brackets = []
    for g in games:
        taus = np.linspace(*line_ends(g, Mechanism.BUDGET), spec.resolution)
        nus = np.linspace(*line_ends(g, Mechanism.CONTEST), spec.resolution)
        total = batch.collective_at_transfers(g, taus[:, None], nus[None, :])
        i, j = divmod(int(np.argmax(total)), spec.resolution)
        brackets.append((*_bracket(taus, i), *_bracket(nus, j), nus[j], total[i, j]))
    tau_lo, tau_hi, nu_lo, nu_hi, nu, best = np.array(brackets, dtype=float).reshape(-1, 6).T
    arrays = GameArrays.of(games)
    for _ in range(2):
        tau = refine_transfers(arrays, True, tau_lo, tau_hi, JOINT_ITERS, fixed=nu)[0]
        nu, val = refine_transfers(arrays, False, nu_lo, nu_hi, JOINT_ITERS, fixed=tau)
        best = np.where(val > best, val, best)
    return best.tolist()


def grid_max_collectives(
    games: Sequence[GameInstance], mechanism: Mechanism, spec: GridSpec | None = None
) -> list[float]:
    """Grid-plus-refinement maximum of the collective payoff along a
    mechanism, per game."""
    if mechanism is Mechanism.JOINT:
        return _joint_collectives(games, spec or DEFAULT_GRID_2D)
    return grid_line_oracle(games, None, (mechanism,), spec or DEFAULT_GRID_1D).maxima[mechanism]


def grid_max_collective(
    g: GameInstance, mechanism: Mechanism, spec: GridSpec | None = None
) -> float:
    """``grid_max_collectives`` for one game."""
    return grid_max_collectives([g], mechanism, spec)[0]
