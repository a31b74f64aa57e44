"""Rules shared by the numeric transfer searches and the grid oracle.

The mutual verdicts in ``mutual`` and the brute-force searches in ``oracle``
judge candidates by the same definitions, and the budget verdict and the
oracle search the same feasible intervals:

* feasible intervals are open, so searches stay ``max(width *
  INTERVAL_MARGIN, 10 * EPS_FEAS)`` inside each endpoint
  (``transfer_interval``); the contest verdict insets each end of its line
  by ``END_RTOL`` of that end's own size instead (``contest_ends``), so a
  side far shorter than the line keeps all but that share of itself;
* a transfer is mutually beneficial when both payoff deltas exceed
  ``GAIN_RTOL`` of the total valuation;
* a positive verdict is near a boundary when its best smaller delta stays
  below ``NEAR_RTOL`` of the total valuation;
* a transfer within relative ``RIDGE_RTOL`` of the equal-ratio ridge rides
  on the adversary's indifference tie-break, so a benefit found only there
  is a knife-edge, not evidence of a robust transfer.

Each search keeps its own resolution and refinement budget; only the rules
live here, with the one golden-section search.  ``golden_max`` refines an
array of brackets in lockstep, one objective call per step, so a whole
sample of games costs about as many numpy calls as one game.
``refine_transfers`` runs it along transfer lines through
``batch.payoffs_at_transfers``, after checking each bracket's ends like
``core.post_transfer_params``; ``off_ridge_best`` is the oracle's knife-edge
fallback, fed by the ``RidgeScan`` each line scan leaves behind.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from . import batch
from .batch import GameArrays
from .core import EPS_FEAS, GameInstance, Mechanism, Transfer

__all__ = [
    "GAIN_RTOL",
    "NEAR_RTOL",
    "RIDGE_RTOL",
    "INTERVAL_MARGIN",
    "END_RTOL",
    "min_gain",
    "thin_margin",
    "transfer_interval",
    "contest_ends",
    "along",
    "ridge_gap",
    "golden_max",
    "refine_transfers",
    "RidgeScan",
    "off_ridge_best",
]

GAIN_RTOL = 1e-12
NEAR_RTOL = 1e-3
RIDGE_RTOL = 1e-6
INTERVAL_MARGIN = 1e-6
END_RTOL = 10.0 * EPS_FEAS


def min_gain(g: GameInstance | GameArrays):
    """Smallest payoff delta that counts as a strict gain (per game for arrays)."""
    return GAIN_RTOL * g.total_valuation


def thin_margin(g: GameInstance, best: float) -> bool:
    """Whether a beneficial transfer's smaller delta is thinly positive.

    Negative verdicts always have best scores near zero (the no-transfer
    point), so only thin-positive margins are flagged.
    """
    return min_gain(g) < best < NEAR_RTOL * g.total_valuation


def transfer_interval(g: GameInstance | GameArrays, mechanism: Mechanism):
    """Inset endpoints of the open interval of budget or contest transfers.

    Floats for one game, arrays of them for a ``GameArrays``.
    """
    if mechanism is Mechanism.BUDGET:
        lo, hi = -g.x2, g.x1
    else:
        lo, hi = -g.phi2, g.phi1
    widest = np.maximum if isinstance(g, GameArrays) else max
    inset = widest((hi - lo) * INTERVAL_MARGIN, 10.0 * EPS_FEAS)
    return lo + inset, hi - inset


def contest_ends(g: GameInstance | GameArrays):
    """Ends of the contest line, ``-phi2`` and ``phi1`` each inset by ``END_RTOL`` of itself.

    Each end leaves its donor at least ten times what
    ``core.transfer_params`` requires, so both ends are feasible on every
    valid game, however far apart the valuations are.  A subnormal
    valuation too small to lose that share keeps the smallest float
    instead.  Floats for one game, arrays of them for a ``GameArrays``.
    """
    least = np.minimum if isinstance(g, GameArrays) else min
    keep = 1.0 - END_RTOL
    tiny = math.ulp(0.0)
    return -least(g.phi2 * keep, g.phi2 - tiny), least(g.phi1 * keep, g.phi1 - tiny)


def along(mechanism: Mechanism, v: float) -> Transfer:
    """The transfer of amount ``v`` through a budget or contest mechanism."""
    return Transfer(v, 0.0) if mechanism is Mechanism.BUDGET else Transfer(0.0, v)


def ridge_gap(g: GameInstance | GameArrays, mechanism: Mechanism, v):
    """Relative gap between post-transfer budget-to-valuation ratios."""
    if mechanism is Mechanism.BUDGET:
        r1 = (g.x1 - v) / g.phi1
        r2 = (g.x2 + v) / g.phi2
    else:
        r1 = g.x1 / (g.phi1 - v)
        r2 = g.x2 / (g.phi2 + v)
    return np.abs(r1 - r2) / np.maximum(r1, r2)


# Golden ratio conjugate: each step keeps this share of the bracket.
INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_max(f, a, b, iters):
    """Golden-section maxima of ``f`` on brackets ``[a[i], b[i]]``: (argmax, max).

    ``f`` maps an array of points to their values elementwise, row ``i`` of
    its argument belonging to bracket ``i``; it is called on shape ``(2,
    n)`` once and on shape ``(n,)`` once per step.  Row ``i`` takes
    ``iters[i]`` steps (``iters`` broadcasts), so each row is the scalar
    golden-section search bit for bit.  A row that has taken its steps
    keeps shrinking inside its bracket with the others; its result was
    read off when it finished.
    """
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    iters = np.broadcast_to(iters, a.shape)
    arg = np.empty_like(a)
    best = np.empty_like(a)
    c = b - INVPHI * (b - a)
    d = a + INVPHI * (b - a)
    fc, fd = f(np.stack((c, d)))
    # Not np.unique: its first call imports numpy.ma, which costs more than a
    # one-game search.
    finish = sorted(set(iters.ravel().tolist()))
    for step in range(finish[-1] + 1 if finish else 0):
        left = fc >= fd
        if step in finish:
            done = iters == step
            arg[done] = np.where(left, c, d)[done]
            best[done] = np.where(left, fc, fd)[done]
            if step == finish[-1]:
                break
        # Keep [a, d] (left) or [c, b]; the kept interior point is reused
        # and one new point is placed.
        a = np.where(left, a, c)
        b = np.where(left, d, b)
        span = INVPHI * (b - a)
        x = np.where(left, b - span, a + span)
        fx = f(x)
        c, d = np.where(left, x, d), np.where(left, c, x)
        fc, fd = np.where(left, fx, fd), np.where(left, fc, fx)
    return arg, best


def refine_transfers(
    games: GameInstance | GameArrays,
    budget,
    a,
    b,
    iters,
    fixed=0.0,
    mutual=False,
    baseline=(0.0, 0.0),
):
    """``golden_max`` along transfer lines, one bracket per row of ``games``.

    Row ``i`` moves budget (where ``budget`` holds) or valuation by ``v`` in
    ``[a[i], b[i]]``, holding the other component at ``fixed``.  It
    maximizes the smaller payoff delta against ``baseline`` where
    ``mutual`` holds and the collective payoff elsewhere.  Both ends of
    every bracket must pass ``core.post_transfer_params``'s rule, or
    ``InfeasibleTransferError`` is raised: the feasible set is an interval,
    so every point the search evaluates is then feasible.
    """

    def transfers(v):
        return np.where(budget, v, fixed), np.where(budget, fixed, v)

    for end in (a, b):
        batch.require_feasible(games, *transfers(end))

    def f(v):
        u1, u2 = batch.payoffs_at_transfers(games, *transfers(v))
        return np.where(mutual, np.minimum(u1 - baseline[0], u2 - baseline[1]), u1 + u2)

    return golden_max(f, a, b, iters)


class RidgeScan(NamedTuple):
    """What ``off_ridge_best`` needs of one game's scan of the smaller delta.

    ``best`` is the best beneficial scan point off the equal-ratio ridge,
    ``(v, value)``, or None; ``lo`` and ``hi`` are the scan's ends and
    ``step`` its spacing.  Build it with ``of`` while the scan is at hand,
    so the scan can be dropped.
    """

    best: tuple[float, float] | None
    lo: float
    hi: float
    step: float

    @classmethod
    def of(cls, g: GameInstance, mechanism: Mechanism, vs, score) -> "RidgeScan":
        beneficial = np.flatnonzero(score > min_gain(g))
        off = beneficial[ridge_gap(g, mechanism, vs[beneficial]) > RIDGE_RTOL]
        best = None
        if off.size:
            k = off[np.argmax(score[off])]
            best = (float(vs[k]), float(score[k]))
        return cls(best, float(vs[0]), float(vs[-1]), float(vs[1] - vs[0]))


def _off_ridge_scan(g, mechanism: Mechanism, scan: RidgeScan, v_ridge: float):
    """A beneficial maximum at ``v_ridge`` on the ridge, seen from the scan.

    Returns the best beneficial scan point off the ridge, ``((v, value),
    [])``, or failing that ``(None, sides)``: the brackets between the edge
    of the tie-break sliver and one scan step out, on either side.
    """
    if scan.best is not None:
        return scan.best, []
    step = scan.step

    def in_sliver(v: float) -> bool:
        return ridge_gap(g, mechanism, v) <= 2.0 * RIDGE_RTOL

    sides = []
    for sign in (1.0, -1.0):
        # Start at the smallest offset whose ridge gap exceeds the tie-break
        # sliver: bracket it by factors of 4, then bisect the bracket.
        short, delta = 0.0, step * 1e-9
        while delta < step and in_sliver(v_ridge + sign * delta):
            short, delta = delta, 4.0 * delta
        for _ in range(40):
            mid = 0.5 * (short + delta)
            if in_sliver(v_ridge + sign * mid):
                short = mid
            else:
                delta = mid
        a = v_ridge + sign * delta
        b = v_ridge + sign * step
        a, b = min(a, b), max(a, b)
        a, b = max(a, scan.lo), min(b, scan.hi)
        if a < b:
            sides.append((a, b))
    return None, sides


def off_ridge_best(
    games: GameArrays,
    mechanism: Mechanism,
    baseline,
    v_best,
    best,
    scans: Sequence[RidgeScan],
    iters: int,
) -> list[tuple[float, float] | None]:
    """The best beneficial transfer away from the equal-ratio ridge, per game.

    ``(v_best, best)`` are arrays of each game's refined maximum of the
    smaller payoff delta against ``baseline``, and ``scans[i]`` is game
    ``i``'s ``RidgeScan`` of that delta.  A maximum off the ridge, or one
    that is not beneficial, is returned unchanged.  A beneficial maximum on
    the ridge is replaced by the best off-ridge scan point; failing that,
    the two side intervals one scan step out from the ridge point are
    refined, all games' sides in one lockstep pass, where thin windows can
    open right at the ridge crossing.  None means the only benefit is the
    knife-edge.  No line is scanned again.
    """
    gain = min_gain(games)
    found: list = list(zip(v_best.tolist(), best.tolist()))
    on_ridge = (best > gain) & (ridge_gap(games, mechanism, v_best) <= RIDGE_RTOL)
    sides, lo, hi = [], [], []
    for i in np.flatnonzero(on_ridge):
        found[i], brackets = _off_ridge_scan(
            games.take(i), mechanism, scans[i], float(v_best[i])
        )
        for a, b in brackets:
            sides.append(i)
            lo.append(a)
            hi.append(b)
    sides = np.array(sides, dtype=int)
    side_games = games.take(sides)
    v, val = refine_transfers(
        side_games,
        mechanism is Mechanism.BUDGET,
        lo,
        hi,
        iters,
        mutual=True,
        baseline=(baseline[0][sides], baseline[1][sides]),
    )
    off = ridge_gap(side_games, mechanism, v) > RIDGE_RTOL
    side_best: dict[int, tuple[float, float]] = {}
    for i, v_i, val_i, off_i in zip(sides.tolist(), v.tolist(), val.tolist(), off.tolist()):
        if off_i and val_i > side_best.get(i, (None, -math.inf))[1]:
            side_best[i] = (v_i, val_i)
    for i, (v_i, val_i) in side_best.items():
        if val_i > gain[i]:
            found[i] = (v_i, val_i)
    return found
