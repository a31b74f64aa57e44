"""Rules shared by the numeric transfer searches and the grid oracle.

The mutual verdicts in ``mutual`` and the brute-force searches in ``oracle``
judge candidates by the same definitions and search the same lines:

* a budget or contest line moves one pair of parameters and keeps the
  other (``line_pairs``); feasible intervals are open, so every line stops
  where its donor keeps ``END_RTOL`` of its own share (``line_ends``), and
  a side far shorter than the line keeps all but that share of itself;
* a transfer is mutually beneficial when both payoff deltas exceed
  ``GAIN_RTOL`` of the total valuation;
* a positive verdict is near a boundary when its best smaller delta stays
  below ``NEAR_RTOL`` of the total valuation;
* a transfer inside the ridge sliver, within ratio gap ``2 * RIDGE_RTOL``
  of the equal-ratio ridge (``sliver``), rides on the adversary's
  indifference tie-break, so a benefit found only there is a knife-edge,
  not evidence of a robust transfer.  The verdicts and the oracle read
  the sliver's ends from this one rule; ``ridge_gap`` is the independent
  definition that checks it, and that the oracle's witnesses next to the
  sliver must pass.

Each search keeps its own resolution, which sets its refinement rounds;
only the rules live here, with the weak sides of a line that the sliver
is cut from (``line_sides``, ``moved_amount``) and the one refinement, a
bracket zoom.  ``zoom_max`` refines an array of brackets in lockstep, one
objective call of shape ``(7, n)`` per round, each round cutting every
bracket to a quarter; the objective must be elementwise with a leading
stack axis, and a whole sample of games costs as many numpy calls as one
game.  A scan of ``resolution`` points takes ``zoom_rounds(resolution)``
rounds, which bring a bracket of two scan steps down to the floats'
spacing at the line's span.
``transfer_objective`` scores points of transfer lines through
``batch.payoffs_at_transfers``, after checking each bracket's ends like
``core.post_transfer_params``, and ``refine_transfers`` runs ``zoom_max``
on it; ``off_ridge_best`` is the oracle's knife-edge fallback, fed by the
``RidgeScan`` each line scan leaves behind, and refines only outside the
sliver.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from . import batch
from .batch import GameArrays
from .core import EPS_FEAS, GameInstance, Mechanism, Transfer, ops_for

__all__ = [
    "GAIN_RTOL",
    "NEAR_RTOL",
    "RIDGE_RTOL",
    "END_RTOL",
    "min_gain",
    "thin_margin",
    "line_pairs",
    "line_ends",
    "along",
    "moved_amount",
    "line_sides",
    "sliver",
    "ridge_gap",
    "zoom_rounds",
    "zoom_max",
    "transfer_objective",
    "refine_transfers",
    "RidgeScan",
    "off_ridge_best",
]

GAIN_RTOL = 1e-12
NEAR_RTOL = 1e-3
RIDGE_RTOL = 1e-6
END_RTOL = 10.0 * EPS_FEAS


def min_gain(g: GameInstance | GameArrays):
    """Smallest payoff delta that counts as a strict gain (per game for arrays)."""
    return GAIN_RTOL * g.total_valuation


def thin_margin(g: GameInstance | GameArrays, best):
    """Whether a beneficial transfer's smaller delta is thinly positive.

    Negative verdicts always have best scores near zero (the no-transfer
    point), so only thin-positive margins are flagged.  Elementwise for a
    ``GameArrays`` and an array of best scores.
    """
    return (min_gain(g) < best) & (best < NEAR_RTOL * g.total_valuation)


def line_pairs(g: GameInstance | GameArrays, mechanism: Mechanism):
    """``(moved1, moved2, kept1, kept2)``: the pair a budget or contest line moves, then the other.

    A budget line moves the budgets and keeps the valuations; a contest
    line moves the valuations and keeps the budgets.  Fields of a
    ``GameInstance`` or of a ``GameArrays``.
    """
    if mechanism is Mechanism.BUDGET:
        return g.x1, g.x2, g.phi1, g.phi2
    return g.phi1, g.phi2, g.x1, g.x2


def line_ends(g: GameInstance | GameArrays, mechanism: Mechanism):
    """Ends of the budget or contest line, each donor keeping ``END_RTOL`` of its own share.

    The line runs from ``-x2`` to ``x1`` (budget) or from ``-phi2`` to
    ``phi1`` (contest), each end inset by ``END_RTOL`` of itself.  Each end
    leaves its donor at least ten times what ``core.transfer_params``
    requires, so both ends are feasible on every valid game, however far
    apart the two shares are.  A subnormal share too small to lose that
    part keeps the smallest float instead.  Floats for one game, arrays of
    them for a ``GameArrays``.
    """
    give1, give2 = line_pairs(g, mechanism)[:2]
    least = np.minimum if isinstance(g, GameArrays) else min
    keep = 1.0 - END_RTOL
    tiny = math.ulp(0.0)
    return -least(give2 * keep, give2 - tiny), least(give1 * keep, give1 - tiny)


def along(mechanism: Mechanism, v: float) -> Transfer:
    """The transfer of amount ``v`` through a budget or contest mechanism."""
    return Transfer(v, 0.0) if mechanism is Mechanism.BUDGET else Transfer(0.0, v)


def moved_amount(z, moved_w, moved_s):
    """Amount of the moved pair that w hands to s to land at ``z = sqrt(m_w' / m_s')``.

    Written as ``(m_w - m_s z**2) / (1 + z**2)``, it keeps the precision of
    the smaller of the pair on either side of the line and negates exactly
    when the players are swapped.  Floats or arrays.
    """
    zz = z * z
    return (moved_w - moved_s * zz) / (1.0 + zz)


def line_sides(g: GameInstance | GameArrays, mechanism: Mechanism):
    """Both weak sides of a line: ``(moved_w, moved_s, kept_w, kept_s, sign, rho)`` each.

    The moved and kept pairs are ``line_pairs``, and ``rho = sqrt(kept_w /
    kept_s)`` is the ridge in ``z = sqrt(m_w' / m_s')``: player w is weak
    for ``z`` below ``rho`` on a budget line and above it on a contest line.
    Player 1's side comes first, with sign 1, then player 2's, with sign -1:
    on the side where player w is weak, ``sign * moved_amount(z, moved_w,
    moved_s)`` is the transfer from player 1 to player 2.  Fields of a
    ``GameInstance`` or of a ``GameArrays``.
    """
    m1, m2, k1, k2 = line_pairs(g, mechanism)
    sqrt = ops_for(k1)[0]
    return (m1, m2, k1, k2, 1.0, sqrt(k1 / k2)), (m2, m1, k2, k1, -1.0, sqrt(k2 / k1))


# Below the ridge ``z = rho`` the ratio gap is ``1 - (z / rho)**2``, and above
# it ``1 - (rho / z)**2``, so the sliver's gap lies at ``rho * _SLIVER_ROOT``
# and at ``rho / _SLIVER_ROOT``.
_SLIVER_ROOT = math.sqrt(1.0 - 2.0 * RIDGE_RTOL)


def sliver(g: GameInstance | GameArrays, mechanism: Mechanism, sides=None):
    """The ridge sliver ``(lo, hi)``: transfers within ratio gap ``2 * RIDGE_RTOL`` of the ridge.

    The sliver is the open interval between the two weak sides' ends, each
    where the side's ``z`` sits at that gap from ``rho``: below it on a
    budget line and above it on a contest line, so player 1's side lies
    above the ridge on a budget line and below it on a contest line.
    ``sides`` are the line's ``line_sides`` when the caller holds them.
    Floats for one game, arrays of them for a ``GameArrays``.  Where the
    sliver is narrower than the floats' spacing its ends may meet or cross,
    and an end whose ``z**2`` overflows is NaN; no transfer is inside such
    a sliver.
    """
    budget = mechanism is Mechanism.BUDGET
    one, two = (
        sign * moved_amount(rho * _SLIVER_ROOT if budget else rho / _SLIVER_ROOT, m_w, m_s)
        for m_w, m_s, _, _, sign, rho in sides or line_sides(g, mechanism)
    )
    return (two, one) if budget else (one, two)


def ridge_gap(g: GameInstance | GameArrays, mechanism: Mechanism, v):
    """Relative gap between post-transfer budget-to-valuation ratios."""
    if mechanism is Mechanism.BUDGET:
        r1 = (g.x1 - v) / g.phi1
        r2 = (g.x2 + v) / g.phi2
    else:
        r1 = g.x1 / (g.phi1 - v)
        r2 = g.x2 / (g.phi2 + v)
    return np.abs(r1 - r2) / np.maximum(r1, r2)


# The 7 interior points of a bracket cut into eighths, as shares of its width.
_EIGHTHS = np.arange(1.0, 8.0)[:, None] / 8.0


def zoom_rounds(resolution: int) -> int:
    """Rounds of ``zoom_max`` after a scan of ``resolution`` points.

    The smallest ``r`` with ``4**r >= 2**52 * 2 / (resolution - 1)``: a
    bracket of two scan steps shrinks to about the floats' spacing at the
    line's span.
    """
    rounds = 0
    while 4**rounds * (resolution - 1) < 2**53:
        rounds += 1
    return rounds


def zoom_max(f, a, b, rounds: int):
    """Maxima of ``f`` on brackets ``[a[i], b[i]]`` by zooming in: (argmax, max).

    ``f`` maps an array of points to their values elementwise, the last
    axis of its argument running over the brackets.  Each round is one call
    on shape ``(7, n)``: the points ``a + (b - a) * j / 8``, ``j = 1..7``,
    of every bracket.  A round's best point is its first maximum, and each
    bracket narrows to that point's two neighbours, its own end standing
    next to the first and last point, so it shrinks 4x a round.  The result
    is the first maximum of all rounds: NaN is never a maximum, and the
    running best changes only on a strictly greater value, so a row with
    no value above ``-inf`` returns ``(a, -inf)``.  Rows do not mix, so each
    is its own one-row search bit for bit.  The rounds share one ``(9, n)``
    buffer of cuts, ends included, and each row's best value and next
    bracket are gathered from it by flat index; ``f`` must not keep the
    array it is given.
    """
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    n = a.size
    arg = a
    best = np.full_like(a, -np.inf)
    rows = np.arange(n)
    # Row ``i``'s cut ``j`` sits at flat index ``j * n + i`` of the buffer.
    cuts = np.empty((9, n))
    flat = cuts.reshape(-1)
    for _ in range(rounds):
        cuts[0], cuts[8] = a, b
        np.multiply(b - a, _EIGHTHS, out=cuts[1:8])
        cuts[1:8] += a
        values = f(cuts[1:8])
        # ``fmax`` turns NaN into ``-inf``, so NaN is never the first maximum.
        k = np.argmax(np.fmax(values, -np.inf), axis=0)
        at = k * n + rows
        top = values.reshape(-1)[at]
        better = top > best
        best = np.where(better, top, best)
        arg = np.where(better, flat[at + n], arg)
        a, b = flat[at], flat[at + 2 * n]
    return arg, best


def transfer_objective(
    games: GameInstance | GameArrays,
    budget,
    a,
    b,
    fixed=0.0,
    mutual=False,
    baseline=(0.0, 0.0),
):
    """The objective ``refine_transfers`` maximizes, for ``zoom_max``.

    Row ``i`` moves budget (where ``budget`` holds) or valuation by ``v`` in
    ``[a[i], b[i]]``, holding the other component at ``fixed``.  It scores
    the smaller payoff delta against ``baseline`` where ``mutual`` holds and
    the collective payoff elsewhere.  Both ends of every bracket must pass
    ``core.post_transfer_params``'s rule, or ``InfeasibleTransferError`` is
    raised: the feasible set is an interval, so every point inside the
    brackets, and so every point ``zoom_max`` evaluates, is then feasible.
    """

    def transfers(v):
        return np.where(budget, v, fixed), np.where(budget, fixed, v)

    for end in (a, b):
        batch.require_feasible(games, *transfers(end))

    def f(v):
        u1, u2 = batch.payoffs_at_transfers(games, *transfers(v))
        return np.where(mutual, np.minimum(u1 - baseline[0], u2 - baseline[1]), u1 + u2)

    return f


def refine_transfers(games: GameInstance | GameArrays, budget, a, b, rounds, **options):
    """``zoom_max`` of ``transfer_objective`` on brackets ``[a[i], b[i]]``.

    ``options`` are ``transfer_objective``'s ``fixed``, ``mutual`` and
    ``baseline``.
    """
    return zoom_max(transfer_objective(games, budget, a, b, **options), a, b, rounds)


class RidgeScan(NamedTuple):
    """What ``off_ridge_best`` needs of one game's scan of the smaller delta.

    ``best`` is the best beneficial scan point outside the ridge sliver,
    ``(v, value)``, or None; ``lo`` and ``hi`` are the scan's ends and
    ``step`` its spacing.  Build it with ``of`` while the scan is at hand,
    so the scan can be dropped.
    """

    best: tuple[float, float] | None
    lo: float
    hi: float
    step: float

    @classmethod
    def of(cls, g: GameInstance, mechanism: Mechanism, vs, score, first=None) -> "RidgeScan":
        """The scan's ``RidgeScan``; ``vs`` ascends, and ``score`` is the delta there.

        ``best`` is the first beneficial maximum in scan order among the
        points outside the open sliver; a NaN score is no benefit.
        ``first``, when given, is ``np.argmax(score)``, the scan's first
        maximum.  Where that is not NaN, the scan holds no NaN, and where it
        lies outside the sliver it is the first maximum there too: ``best``
        is that point if it is beneficial, and no point is otherwise.  Else
        the points outside the sliver are a run on each side of it (the
        whole scan when the sliver holds no float), and each run's best
        point is its first maximum.  The left run keeps a tie.
        """
        lo, hi = sliver(g, mechanism)
        gain = min_gain(g)
        ends = float(vs[0]), float(vs[-1]), float(vs[1] - vs[0])
        if first is not None:
            v, value = float(vs[first]), float(score[first])
            # Nothing lies inside NaN or crossed ends.
            if not math.isnan(value) and not lo < v < hi:
                return cls((v, value) if value > gain else None, *ends)
        n = len(vs)
        # False on NaN or crossed ends, where no transfer is inside.
        if lo < hi:
            left = int(np.searchsorted(vs, lo, "right"))
            right = int(np.searchsorted(vs, hi, "left"))
            runs = ((0, left), (right, n))
        else:
            runs = ((0, n),)
        best = None
        for a, b in runs:
            run = score[a:b]
            if not run.size:
                continue
            k = int(np.argmax(run))
            if math.isnan(run[k]):
                # ``argmax`` stops at the first NaN: take the beneficial points.
                beneficial = np.flatnonzero(run > gain)
                if not beneficial.size:
                    continue
                k = int(beneficial[np.argmax(run[beneficial])])
            value = float(run[k])
            if value > gain and (best is None or value > best[1]):
                best = (float(vs[a + k]), value)
        return cls(best, *ends)


def off_ridge_best(
    games: GameArrays,
    mechanism: Mechanism,
    baseline,
    v_best,
    best,
    scans: Sequence[RidgeScan],
    rounds: int,
) -> list[tuple[float, float] | None]:
    """The best beneficial transfer outside the ridge sliver, per game.

    ``(v_best, best)`` are arrays of each game's refined maximum of the
    smaller payoff delta against ``baseline``, and ``scans[i]`` is game
    ``i``'s ``RidgeScan`` of that delta.  A maximum outside the sliver, or
    one that is not beneficial, is returned unchanged.  A beneficial
    maximum inside it is replaced by the best scan point outside it;
    failing that, the two side intervals from the sliver's ends to one scan
    step out from the maximum are refined, all games' sides in one
    lockstep pass, where thin windows can open right at the ridge
    crossing.  Every point refined there lies outside the open sliver,
    and a point that ``ridge_gap`` puts inside it is never the best.
    None means the only benefit is the knife-edge.  No line is scanned
    again.
    """
    gain = min_gain(games)
    found: list = list(zip(v_best.tolist(), best.tolist()))
    edge_lo, edge_hi = sliver(games, mechanism)
    on_ridge = (best > gain) & (edge_lo < v_best) & (v_best < edge_hi)
    sides, lo, hi = [], [], []
    for i in np.flatnonzero(on_ridge).tolist():
        scan = scans[i]
        found[i] = scan.best
        if scan.best is not None:
            continue
        v = float(v_best[i])
        for a, b in ((float(edge_hi[i]), v + scan.step), (v - scan.step, float(edge_lo[i]))):
            a, b = max(a, scan.lo), min(b, scan.hi)
            if a < b:
                sides.append(i)
                lo.append(a)
                hi.append(b)
    if not sides:
        return found
    sides = np.array(sides, dtype=int)
    on_sides = games.take(sides)
    benefit = transfer_objective(
        on_sides,
        mechanism is Mechanism.BUDGET,
        lo,
        hi,
        mutual=True,
        baseline=(baseline[0][sides], baseline[1][sides]),
    )

    def outside(v):
        # The sides' maxima lie at the sliver's ends, which the refinement
        # reaches to within the float spacing of the line, where ``sliver``
        # and ``ridge_gap`` round apart: a point the gap puts in the sliver
        # is no witness.
        return np.where(ridge_gap(on_sides, mechanism, v) > 2 * RIDGE_RTOL, benefit(v), np.nan)

    v, val = zoom_max(outside, lo, hi, rounds)
    for i, v_i, val_i in zip(sides.tolist(), v.tolist(), val.tolist()):
        if val_i > gain[i] and (found[i] is None or val_i > found[i][1]):
            found[i] = (v_i, val_i)
    return found
