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
(games x grid) array is kept and no line is scanned twice.  Each scan
builds its grid as ``np.linspace`` does, bit for bit, from a ramp made
once per call (``_grid``), and a line scanned only for its collective
maximum is scored by ``batch.collective_at_transfers``, the payoff sum
without the players' unswapping.

The joint oracles scan each game's 2-D transfer grid once, through one
generator (``_joint_maxima``) that keeps the first maximum of the
objective its caller asks for: the smaller payoff delta for the mutual
search, the payoff sum for the collective maximum.  It scores the grid a
block of whole rows per kernel call, at most ``SCAN_BLOCK`` lanes: under
glibc's default allocator thresholds, a whole-grid call allocates and
frees arrays large enough that their memory goes back to the system after
every call, and the next call faults it in again, so a 401-point grid
costs less in 41 blocks than in one call.  The command line raises those
thresholds for its process (``cli``), so this cliff now hits library
callers only.

Each oracle is a scan and a finish.  The scan hands over its refinement
rows (objective, brackets) and a finisher that turns their refined maxima
into the oracle's results.  One lockstep bracket zoom (``search.zoom_max``)
refines the rows of several oracles at once, each objective evaluated on
its own slice of rows, in as many rounds as the grid's resolution asks
(``search.zoom_rounds``: 21 after a 4001-point scan, 23 after the 401-point
joint grid).  ``grid_oracles`` serves the line oracle and the best
responses of a sample from one pass.  Each game's results equal those of
a one-game call bit for bit, whatever games and oracles share the pass.

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
    line_ends,
    min_gain,
    off_ridge_best,
    refine_transfers,
    thin_margin,
    transfer_objective,
    zoom_max,
    zoom_rounds,
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


def _adv_value_vec(g: GameInstance | GameArrays, xa1, xa2):
    """Adversary payoff over arrays of splits, ``xa2 = 1 - xa1``."""
    u1 = batch.one_v_one_vec(g.phi1, g.x1, xa1)
    u2 = batch.one_v_one_vec(g.phi2, g.x2, xa2)
    return (g.phi1 - u1) + (g.phi2 - u2)


def _grid(lo: float, hi: float, ramp: np.ndarray) -> np.ndarray:
    """``np.linspace(lo, hi, len(ramp))`` bit for bit, from ``ramp = np.arange(len(ramp))``.

    It takes numpy's steps: the ramp times the step, or, where the step
    rounds to 0, the ramp over the intervals times the span; then ``lo`` is
    added and the last point set to ``hi``.  A scan builds its ramp once
    and skips ``linspace``'s fixed cost per line.
    """
    intervals = len(ramp) - 1
    span = hi - lo
    step = span / intervals
    if step == 0.0:
        grid = ramp / intervals
        grid *= span
    else:
        grid = ramp * step
    grid += lo
    grid[-1] = hi
    return grid


def _bracket(grid: np.ndarray, k: int) -> tuple:
    """The grid points on either side of index ``k``, clipped to the grid."""
    return grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)]


class _Scan(NamedTuple):
    """An oracle's refinement rows, and how to finish them.

    Row ``i`` maximizes ``objective`` on ``[lo[i], hi[i]]``; ``objective``
    takes this scan's rows only, as ``search.zoom_max`` passes them.
    ``finish(argmax, max)`` turns the refined rows into the oracle's result.
    """

    objective: Callable
    lo: np.ndarray
    hi: np.ndarray
    finish: Callable


def _refine(spec: GridSpec, *scans: _Scan) -> list:
    """Each scan's finished result, all their rows refined in one ``zoom_max`` pass.

    Every scan ran on ``spec``'s grid, which sets the pass's rounds.
    """
    ends = np.cumsum([0] + [len(scan.lo) for scan in scans]).tolist()
    parts = [slice(i, j) for i, j in zip(ends, ends[1:])]

    def f(v):
        return np.concatenate(
            [scan.objective(v[..., part]) for scan, part in zip(scans, parts)], axis=-1
        )

    lo = np.concatenate([scan.lo for scan in scans])
    hi = np.concatenate([scan.hi for scan in scans])
    arg, best = zoom_max(f, lo, hi, zoom_rounds(spec.resolution))
    return [scan.finish(arg[part], best[part]) for scan, part in zip(scans, parts)]


def _best_response_scan(games: Sequence[GameInstance], spec: GridSpec) -> _Scan:
    """Each game's best grid split, bracketed for refinement."""
    xs = _grid(0.0, 1.0, np.arange(spec.resolution, dtype=float))
    rest = 1.0 - xs
    top = np.empty(len(games), dtype=int)
    top_value = np.empty(len(games))
    brackets = np.empty((2, len(games)))
    for i, g in enumerate(games):
        values = _adv_value_vec(g, xs, rest)
        k = int(np.argmax(values))
        top[i], top_value[i] = k, values[k]
        brackets[:, i] = _bracket(xs, k)
    arrays = GameArrays.of(games)

    def finish(x_best, v_best):
        x_best = np.where(top_value > v_best, xs[top], x_best)
        return [AdversaryAllocation(x, 1.0 - x) for x in x_best.tolist()]

    return _Scan(lambda x: _adv_value_vec(arrays, x, 1.0 - x), *brackets, finish)


def grid_best_responses(
    games: Sequence[GameInstance], spec: GridSpec = DEFAULT_GRID_1D
) -> list[AdversaryAllocation]:
    """Argmax of the adversary objective over its budget split, by grid search.

    A bracket zoom around the best grid point (``search.zoom_max``) narrows
    it to the floats' spacing, resolving interior optima far below the
    per-game comparison tolerances.  On indifference plateaus any argmax is
    acceptable (the objective value is what matters).
    """
    return _refine(spec, _best_response_scan(games, spec))[0]


def grid_best_response(
    g_bar: GameInstance, spec: GridSpec = DEFAULT_GRID_1D
) -> AdversaryAllocation:
    """``grid_best_responses`` for one game."""
    return grid_best_responses([g_bar], spec)[0]


def _local_maxima(score: np.ndarray, top: int) -> list[int]:
    """The ``top`` highest points that are at least both neighbours, highest first.

    Each end counts as having ``-inf`` outside it.  A NaN point is no
    maximum: a scan has at least three points, so each point has a
    neighbour, and every comparison with NaN is false.  Where no point
    qualifies, the argmax alone.
    """
    peak = np.empty(len(score), dtype=bool)
    peak[0] = True
    np.greater_equal(score[1:], score[:-1], out=peak[1:])
    peak[:-1] &= score[:-1] >= score[1:]
    idx = np.flatnonzero(peak)
    if idx.size == 0:
        return [int(np.argmax(score))]
    order = idx[np.argsort(score[idx])[::-1]]
    return [int(i) for i in order[:top]]


def _cut_line(g: GameInstance, mechanism: Mechanism, ramp, baseline, mutual, collective):
    """Scan one game's line and keep only what refinement needs.

    The scan's grid is ``_grid`` of the line's ends on ``ramp``.  For the
    mutual search (when ``mutual``): the best scan point ``(v, smaller
    delta)``, the brackets around the best few local maxima of the smaller
    delta, and the scan's ``RidgeScan`` for ``off_ridge_best``, which starts
    from that best point.  For the collective maximum (when
    ``collective``): the best scan value and the bracket around it; a line
    scanned for that alone is scored by ``batch.collective_at_transfers``.
    The scan itself is dropped on return.
    """
    vs = _grid(*line_ends(g, mechanism), ramp)
    taus, nus = (vs, 0.0) if mechanism is Mechanism.BUDGET else (0.0, vs)
    mutual_cut = collective_cut = None
    if mutual:
        u1, u2 = batch.payoffs_at_transfers(g, taus, nus)
        score = u1 - baseline[0]
        np.minimum(score, u2 - baseline[1], out=score)
        k = int(np.argmax(score))
        peaks = [_bracket(vs, p) for p in _local_maxima(score, top=5)]
        ridge_scan = RidgeScan.of(g, mechanism, vs, score, first=k)
        mutual_cut = (float(vs[k]), float(score[k])), peaks, ridge_scan
    if collective:
        total = u1 + u2 if mutual else batch.collective_at_transfers(g, taus, nus)
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
    ramp = np.arange(spec.resolution, dtype=float)
    # One row per refinement bracket: game, budget line, mutual objective,
    # bracket ends.
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
                g, mech, ramp, (base1[i], base2[i]), mech is mutual, mech in collective_rows
            )
            if mutual_cut is not None:
                grid, peaks, ridge_scan = mutual_cut
                mutual_grid.append(grid)
                ridge_scans.append(ridge_scan)
                mutual_rows.append(range(len(rows), len(rows) + len(peaks)))
                rows += [(i, budget, True, lo, hi) for lo, hi in peaks]
            if collective_cut is not None:
                grid, (lo, hi) = collective_cut
                collective_grid[mech].append(grid)
                collective_rows[mech].append(len(rows))
                rows.append((i, budget, False, lo, hi))

    table = np.array(rows, dtype=float).reshape(-1, 5)
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
        rounds = zoom_rounds(spec.resolution)
        found = off_ridge_best(
            arrays, mutual, (base1, base2), best_v, best_val, ridge_scans, rounds
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

    return _Scan(objective, lo, hi, finish)


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
    return _refine(spec, _line_scan(games, mutual, collective, spec))[0]


def grid_oracles(
    games: Sequence[GameInstance],
    mutual: Mechanism | None = None,
    collective: Sequence[Mechanism] = (),
    spec: GridSpec = DEFAULT_GRID_1D,
) -> tuple[LineOracle, list[AdversaryAllocation]]:
    """``grid_line_oracle`` and ``grid_best_responses`` of the same games,
    both refined in one lockstep pass; each result equals its own call's."""
    lines, responses = _refine(
        spec, _line_scan(games, mutual, collective, spec), _best_response_scan(games, spec)
    )
    return lines, responses


# Most lanes a joint scan passes to one kernel call, in whole grid rows.
# Under glibc's default thresholds, a call above about 6,000 lanes frees
# enough memory at the heap top that glibc returns it to the system, and
# the next call faults it back in: on one contest line (2-vCPU VM), 6,001
# lanes took 168 µs and no page fault per call, 7,001 lanes 266 µs and 50
# faults.  The command line keeps freed memory on the heap, so only
# library callers meet this cliff; the blocks serve them.
SCAN_BLOCK = 4096


def _joint_maxima(games: Sequence[GameInstance], spec: GridSpec, baseline=None):
    """Each game's joint grid and the first maximum of an objective on it.

    Yields ``(taus, nus, i, j, best)`` per game: the budget and contest
    axes, built by ``_grid`` from one ramp, and ``best``, the objective at
    ``(taus[i], nus[j])``, where ``np.argmax`` over the whole grid would
    pick it (the first NaN, else the first largest value).  The objective
    is the payoff sum ``u_w + u_s`` of ``batch.collective_at_transfers``;
    given the games' untransferred payoffs ``baseline = (u1s, u2s)``, it is
    the smaller payoff delta, unswapped as ``batch.payoffs_at_transfers``
    does.  The grid is scored in blocks of whole rows, each of at most
    ``SCAN_BLOCK`` lanes (one row where a row is longer), so no grid-sized
    array is made.
    """
    ramp = np.arange(spec.resolution, dtype=float)
    rows = max(SCAN_BLOCK // spec.resolution, 1)
    for n, g in enumerate(games):
        taus = _grid(*line_ends(g, Mechanism.BUDGET), ramp)
        nus = _grid(*line_ends(g, Mechanism.CONTEST), ramp)
        k = best = None
        for start in range(0, spec.resolution, rows):
            swap, uw, us = batch._front_payoffs(g, taus[start : start + rows, None], nus)
            if baseline is None:
                score = uw + us
            else:
                u1, u2 = np.where(swap, us, uw), np.where(swap, uw, us)
                score = np.minimum(u1 - baseline[0][n], u2 - baseline[1][n])
            top = int(np.argmax(score))
            value = score.flat[top]
            if best is None or value > best or (value != value and best == best):
                k, best = start * spec.resolution + top, value
        yield taus, nus, *divmod(k, spec.resolution), float(best)


def grid_mutual_searches(
    games: Sequence[GameInstance], mechanism: Mechanism, spec: GridSpec | None = None
) -> list[MutualBenefitVerdict]:
    """Exhaustive search for a strictly mutually beneficial transfer, per game.

    1-D scan for budget/contest (see ``grid_line_oracle``).  For joint, the
    best point of the 2-D transfer grid (``_joint_maxima``), unrefined.
    """
    if mechanism is not Mechanism.JOINT:
        return grid_line_oracle(games, mechanism, (), spec or DEFAULT_GRID_1D).verdicts
    baseline = [u.tolist() for u in batch.payoffs_at_transfers(GameArrays.of(games), 0.0, 0.0)]
    verdicts = []
    maxima = _joint_maxima(games, spec or DEFAULT_GRID_2D, baseline)
    for g, (taus, nus, i, j, best) in zip(games, maxima):
        near = thin_margin(g, best)
        if best > min_gain(g):
            witness = Transfer(float(taus[i]), float(nus[j]))
            verdicts.append(MutualBenefitVerdict(Mechanism.JOINT, True, witness, "oracle-grid", near))
        else:
            verdicts.append(MutualBenefitVerdict(Mechanism.JOINT, False, None, None, near))
    return verdicts


def grid_mutual_search(
    g: GameInstance, mechanism: Mechanism, spec: GridSpec | None = None
) -> MutualBenefitVerdict:
    """``grid_mutual_searches`` for one game."""
    return grid_mutual_searches([g], mechanism, spec)[0]


def _joint_collectives(games: Sequence[GameInstance], spec: GridSpec) -> list[float]:
    """Best point of each game's 2-D grid (``_joint_maxima``), then two
    rounds of coordinate-wise zoom refinement, one coordinate of every game
    per pass."""
    brackets = [
        (*_bracket(taus, i), *_bracket(nus, j), nus[j], best)
        for taus, nus, i, j, best in _joint_maxima(games, spec)
    ]
    tau_lo, tau_hi, nu_lo, nu_hi, nu, best = np.array(brackets, dtype=float).reshape(-1, 6).T
    arrays = GameArrays.of(games)
    rounds = zoom_rounds(spec.resolution)
    for _ in range(2):
        tau = refine_transfers(arrays, True, tau_lo, tau_hi, rounds, fixed=nu)[0]
        nu, val = refine_transfers(arrays, False, nu_lo, nu_hi, rounds, fixed=tau)
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
