"""Existence of mutually beneficial transfers (budget, contest, joint).

A transfer is mutually beneficial when it strictly raises *both* players'
payoffs relative to no transfer.  Every transfer keeps the total budget
``X`` and the total valuation ``Phi``, so none lifts the payoff sum above
``max_collective_payoff``, which all three mechanisms reach; both players
can gain only when the surplus ``S`` of that maximum over the baseline sum
exceeds twice the gain floor.  Where that one test
(``surplus_rules_out``) rules a gain out, all three verdicts are absent
before any line is built; every game on the ridge is such a game.  A
budget transfer keeps both valuations, and no payoff exceeds its
valuation, so a player whose baseline payoff already is its valuation
rules out the budget line too (``capped_rules_out``, exact in floats).
The adversary leaves the strong player of every case-1 game unopposed, so
that player is capped, and every R1 game off the case-4 band is in case 1.
A contest transfer moves valuation, and a player gains only while its
post-transfer valuation exceeds its baseline payoff by the gain floor; the
contest line scores only where both players have that room
(``valuation_room``, exact in floats).  ``mutual_verdicts`` decides all
three verdicts of a game from one baseline and one surplus test.
Otherwise budget and contest transfers each move along a line and are
decided exactly by one line engine, and joint transfers are decided from
the surplus:

* the line engine (``_line_verdict``).  Budget and contest transfers each
  move one pair of parameters, budgets or valuations, and keep the other,
  so both lines run in the transfer itself (``tau`` or ``nu``).  On the
  side where player w is weak the moved pair sits at ``z = sqrt(m_w' /
  m_s')``, and the transfer is ``sign * (m_w - m_s z**2) / (1 + z**2)``
  (``search.moved_amount``); with ``rho = sqrt(kept_w / kept_s)`` the side
  is ``z < rho`` on a budget line and ``z > rho`` on a contest line
  (``search.line_sides``).  The equal-ratio ridge, the edges of the
  adversary's case-4 band around it, the ends of the ridge sliver
  (``search.sliver``, the oracle's too) and the case edges cut the line's
  feasible interval into pieces (``line_breaks``).  Each piece is
  classified at its midpoint by ``case_of``; on it both payoffs are closed
  forms in ``z``, so the best transfer lies at an end, a stationary point
  or a crossing of the two payoff deltas, all roots of quadratics.  Those
  candidates depend only on the case, its orientation and the game, so a
  line computes them once per ``(case, orientation)`` and each piece keeps
  the ones inside it.  One scoring pass evaluates them through
  ``adversary.payoffs_at``.  A contest piece whose ends leave a player no
  valuation room is dropped before it is classified, and a contest point
  without room is not scored.
* budget transfers keep ``Phi`` and the valuations and move the budgets
  ``b1 = x1 - tau``, ``b2 = x2 + tau``.  With ``X = x1 + x2`` and ``k =
  sqrt(phi_w * phi_s)``, case 3 gives ``u_w = (X/2)(phi_w z**2 + k z) / (1
  + z**2)`` and ``u_s = (X/2)(phi_s + k z) / (1 + z**2)``, case 2 gives
  ``u_w = k z / 2`` and ``u_s = phi_s - phi_s (1 + z**2) / (2 X) + k z /
  2``, and in case 1 ``u_s = phi_s`` while ``u_w`` rises with ``z``
  (``budget_candidate_forms``).  The case edges are roots of quadratics in
  ``z`` (``case_edges``).
* contest transfers keep the budgets and ``Phi = phi1 + phi2`` and move the
  valuations; the case edges are linear in ``z``, and on every piece both
  payoffs are ``N(z) / (1 + z**2)`` with ``N`` quadratic
  (``contest_candidate_forms``).  Both lines stop where the donor keeps
  ``search.END_RTOL`` of its own budget or valuation
  (``search.line_ends``).
* joint transfers -- decided from the collective surplus.  A joint
  transfer reaches the ridge and splits the maximum in any proportion, so
  ``S`` above twice the gain floor leaves a witness, placed just
  outside the ridge sliver, at ratio gap ``2 * RIDGE_RTOL`` on the game's
  own side, as ``case_of`` orients it.  There both payoffs are closed
  forms in the weak player's post-transfer valuation, and the equal-gain
  split solves a linear equation (cases 1, 2 and 4) or a quadratic (case
  3).

Every "exists" verdict carries a concrete witness transfer that is
re-validated through the actual payoff map; no verdict rests on the algebra
alone.  Routes name the case of the witness, ``exact:<case label>``; a
benefit found only within ``2 * RIDGE_RTOL`` of the ridge is the flagged
``ridge-knife-edge``, and a positive verdict is flagged when its smaller
gain is thin (``search.thin_margin``).

Each rule is written once, for a ``GameInstance`` or a ``GameArrays``, with
NaN marking an absent break, root or witness: the lines' breaks
(``side_breaks``, ``line_breaks``, with ``case_edges``; the sides, the ends
and the sliver are ``search``'s and the ridge ``collective.ridge_transfer``),
the roots of their quadratics (``positive_roots``), the candidate forms,
the joint witness (``gap_witness``), the two rule-out tests and the
valuation room.  The one-game engine drops NaN by the interval test it
already makes, and ``mutual_arrays`` stacks the values into columns to
decide all three verdicts over arrays of games.  Only the leaves branch on
floats against arrays (``core.ops_for`` and ``positive_roots``): float
division by zero and ``math.sqrt`` of a negative raise, and one game's
joint witness stops at the first confirmed case.  Case edges, the contest orientation and
the case-4 bands all use the one fixed tie tolerance
``adversary.CASE_RTOL``.  The paper's printed contest routes are kept in
``paper_routes`` as a plain check, which opens the printed windows and
tries a point of each; no verdict calls it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import batch
from .adversary import CASE_RTOL, CaseLabel, case_of, payoffs_at, player_payoffs
from .collective import max_collective_payoff, ridge_transfer
from .batch import GameArrays
from .core import GameInstance, Mechanism, Transfer, ops_for, root_product, transfer_feasible
from .search import (
    RIDGE_RTOL,
    along,
    line_ends,
    line_sides,
    min_gain,
    moved_amount,
    sliver,
    thin_margin,
)

__all__ = [
    "Region",
    "Mechanism",
    "MutualBenefitVerdict",
    "REGIONS",
    "classify_region",
    "region_index",
    "contest_mutual_exists",
    "budget_mutual_exists",
    "joint_mutual_exists",
    "mutual_verdicts",
    "is_mutually_beneficial",
]


class Region(Enum):
    """Partition of the budget plane: which cases a transfer can reach."""

    R1 = "R1"  # x1 >= 1, x2 >= 1
    R2 = "R2"  # x1 >= 1, x2 < 1
    R3 = "R3"  # x1 < 1, x2 >= 1
    R4 = "R4"  # x1 < 1, x2 < 1, x1 + x2 >= 1
    R5 = "R5"  # x1 + x2 < 1


REGIONS = tuple(Region)


def region_index(x1, x2):
    """Index into ``REGIONS`` of budgets ``x1``, ``x2``; elementwise on arrays.

    Each budget below 1 moves the index past the regions where it is at
    least 1 (R1..R4 by corner), and a combined budget below 1, which only
    R4's corner allows, moves it on to R5.  That last test halves both
    sides, which is exact, so budgets near the top of the float range do
    not overflow their sum.
    """
    return 2 * (x1 < 1.0) + (x2 < 1.0) + (0.5 * x1 + 0.5 * x2 < 0.5)


def classify_region(g: GameInstance) -> Region:
    return REGIONS[region_index(g.x1, g.x2)]


@dataclass(frozen=True)
class MutualBenefitVerdict:
    mechanism: Mechanism
    exists: bool
    witness: Transfer | None
    route: str | None
    near_boundary: bool

    def as_dict(self) -> dict:
        return {
            "mechanism": self.mechanism.value,
            "exists": self.exists,
            "witness": self.witness.as_dict() if self.witness is not None else None,
            "route": self.route,
            "near_boundary": self.near_boundary,
        }


def payoff_deltas(
    g: GameInstance, t: Transfer, baseline: tuple[float, float]
) -> tuple[float, float]:
    u1, u2 = player_payoffs(g, t)
    return u1 - baseline[0], u2 - baseline[1]


def is_mutually_beneficial(
    g: GameInstance, t: Transfer, baseline: tuple[float, float] | None = None
) -> bool:
    """Strict component-wise improvement over the no-transfer payoffs."""
    if baseline is None:
        baseline = player_payoffs(g)
    gain = min_gain(g)
    d1, d2 = payoff_deltas(g, t, baseline)
    return d1 > gain and d2 > gain


def positive_roots(a, b, c):
    """Both roots of ``a*z**2 + b*z + c = 0``, each NaN unless real and positive.

    Both are NaN when ``a == 0``.  Floats or arrays; float division by zero
    and ``math.sqrt`` of a negative raise, so floats branch where arrays
    mask.
    """
    d = b * b - 4.0 * a * c
    if isinstance(d, np.ndarray):
        r = -0.5 * (b + np.copysign(np.sqrt(d), b))
        real = (a != 0.0) & (d >= 0.0) & (r != 0.0)
        return tuple(np.where(real & (z > 0.0), z, np.nan) for z in (r / a, c / r))
    if a == 0.0 or d < 0.0:
        return math.nan, math.nan
    r = -0.5 * (b + math.copysign(math.sqrt(d), b))
    if r == 0.0:
        return math.nan, math.nan
    near, far = r / a, c / r
    return (near if near > 0.0 else math.nan), (far if far > 0.0 else math.nan)


def edge_quadratics(big_x, rho):
    """Coefficients ``(a, b, c)`` of the case-1 and case-2/3 edges, weak side ``w``.

    In ``z = sqrt(b_w / b_s)`` the side is ``z < rho``, the adversary's
    weak-front share is ``s = big_x * rho * z / (1 + z**2)``, and the edges
    are ``s = 1`` and ``1 - s = b_s``.
    """
    b = -big_x * rho
    return (1.0, b, 1.0), (1.0, b, 1.0 - big_x)


def case_edges(big_x, rho) -> list:
    """The four case edges on the side where player w is weak, NaN off the side.

    The roots of ``edge_quadratics`` below ``rho``; floats or arrays.
    """
    where = ops_for(rho)[1]
    roots = [z for quad in edge_quadratics(big_x, rho) for z in positive_roots(*quad)]
    return [where(z < rho, z, math.nan) for z in roots]


# Below the ridge ``z = rho`` the ratio gap is ``1 - (z / rho)**2``, and above
# it ``1 - (rho / z)**2``, so a gap ``gap`` lies at ``rho * sqrt(1 - gap)`` and
# at ``rho / sqrt(1 - gap)``.  The root ``sqrt(1 - gap)`` of the case-4 band's
# gap, just past ``CASE_RTOL`` (the ridge sliver's is ``search.sliver``'s):
_BAND_ROOT = math.sqrt(1.0 - 1.001 * CASE_RTOL)


def case3_forms(kept_w, kept_s, base_gap, moved_total, k):
    """Case 3's candidate forms, one for both lines: no points, three quadratics.

    On a case-3 piece of either line, with ``M = moved_total``, ``u_w =
    (M/2)(kept_w z**2 + k z) / (1 + z**2)`` and ``u_s = (M/2)(kept_s + k z)
    / (1 + z**2)``: the stationary points of each, and the crossing ``d_w =
    d_s`` with ``base_gap = base_w - base_s``.  Floats or arrays.
    """
    half = 0.5 * moved_total
    return [], [
        (k, -2.0 * kept_w, -k),
        (k, 2.0 * kept_s, -k),
        (half * kept_w - base_gap, 0.0, -(half * kept_s + base_gap)),
    ]


def budget_candidate_forms(index: int, phi_w, phi_s, base_gap, big_x, k):
    """Interior maximizer candidates of ``min(d_w, d_s)`` on one budget piece, in ``z``.

    A budget transfer keeps the valuations and ``X = big_x``; on the side
    where player w is weak it moves the budgets along ``z = sqrt(b_w /
    b_s)``.  With ``k = sqrt(phi_w * phi_s)`` and ``base_gap = base_w -
    base_s``, the payoffs on a piece of case ``index`` are

    * case 2: ``u_w = k z / 2``, ``u_s = phi_s - phi_s (1 + z**2) / (2 X) + k z / 2``;
    * case 3: ``u_w = (X/2)(phi_w z**2 + k z) / (1 + z**2)``,
      ``u_s = (X/2)(phi_s + k z) / (1 + z**2)`` (``case3_forms``).

    The candidates are the stationary points of ``u_w`` and ``u_s`` and the
    crossings ``d_w = d_s``: a list of points, and a list of quadratics
    ``(a, b, c)`` whose positive roots are candidates.  In case 1 ``u_s =
    phi_s`` and ``u_w`` rises with ``z``, and in case 4 both are constant,
    so only a piece's ends count.  The forms are plain arithmetic, so they
    take floats or arrays.
    """
    if index == 2:
        crossing = 1.0 - 2.0 * big_x * (phi_s + base_gap) / phi_s
        return [0.5 * k * big_x / phi_s], [(1.0, 0.0, crossing)]
    if index == 3:
        return case3_forms(phi_w, phi_s, base_gap, big_x, k)
    return [], []


def contest_candidate_forms(index: int, x_w, x_s, base_gap, big_phi, k):
    """Interior maximizer candidates of ``min(d_w, d_s)`` on one contest piece, in ``z``.

    A contest transfer keeps the budgets and ``Phi = big_phi``; on the side
    where player w is weak it moves the valuations along ``z = sqrt(p_w /
    p_s)``, so ``p_w = Phi z**2 / (1 + z**2)`` and ``p_s = Phi / (1 + z**2)``.
    The adversary's weak-front share is ``k z`` with ``k = sqrt(x_w * x_s)``,
    and on a piece of case ``index`` both payoffs are ``N(z) / (1 + z**2)``
    with ``N`` quadratic:

    * case 1: ``u_w = c_w p_w`` with ``c_w = u_player(1, x_w, 1)``, ``u_s = p_s``;
    * case 2: ``u_w = (Phi/2)(x_w / k) z / (1 + z**2)``,
      ``u_s = Phi (2 x_s - 1 + k z) / (2 x_s (1 + z**2))``;
    * case 3: ``u_w = (Phi/2)(x_w z**2 + k z) / (1 + z**2)``,
      ``u_s = (Phi/2)(x_s + k z) / (1 + z**2)``, the budget verdict's case 3
      with valuations and budgets exchanged (``case3_forms``);
    * case 4: ``u_i = (1 - 1 / (2 X)) p_i``.

    ``N / (1 + z**2)`` is stationary where ``B z**2 - 2 (A - C) z - B = 0``
    for ``N = A z**2 + B z + C``, and with ``base_gap = base_w - base_s`` the
    crossing ``d_w = d_s`` clears to a quadratic too.  Returns the points and
    the quadratics ``(a, b, c)`` whose positive roots are the candidates, as
    ``budget_candidate_forms`` does, with the same arguments: the kept pair,
    the baseline gap, the moved total and ``k``.  Floats or arrays.
    """
    if index == 2:
        stationary_s = (k, 2.0 * (2.0 * x_s - 1.0), -k)
        crossing = (base_gap, 0.0, big_phi * (1.0 - 0.5 / x_s) + base_gap)
        return [1.0], [stationary_s, crossing]
    if index == 3:
        return case3_forms(x_w, x_s, base_gap, big_phi, k)
    # Cases 1 and 4: u_w = c_w p_w and u_s = c_s p_s.
    if index == 1:
        # ``u_player(1, x_w, 1)``, bit for bit.
        c_w, c_s = ops_for(x_w)[1](x_w <= 1.0, 0.5 * x_w, 1.0 - 0.5 / x_w), 1.0
    else:
        c_w = c_s = 1.0 - 0.5 / (x_w + x_s)
    return [], [(c_w * big_phi - base_gap, 0.0, -(c_s * big_phi + base_gap))]


def side_breaks(mechanism: Mechanism, moved_w, moved_s, kept_w, kept_s, sign, rho) -> list:
    """Breaks of one weak side in the transfer: case-4 band end, case edges.

    The side is one of ``search.line_sides``: player w is weak for ``z``
    below ``rho = sqrt(kept_w / kept_s)`` on a budget line and above it on
    a contest line.  The budget edges are the four roots of
    ``edge_quadratics`` (``case_edges``); the contest edges, ``k z = 1`` and
    ``1 - k z = kept_s`` with ``k = sqrt(kept_w * kept_s)``, are linear.  An
    edge counts where it lies on the side and is NaN elsewhere.  Floats or
    arrays.
    """
    if mechanism is Mechanism.CONTEST:
        where = ops_for(kept_w)[1]
        k = root_product(kept_w, kept_s)
        zs = [rho / _BAND_ROOT]
        zs += [where(z > rho, z, math.nan) for z in (1.0 / k, (1.0 - kept_s) / k)]
    else:
        zs = [rho * _BAND_ROOT, *case_edges(moved_w + moved_s, rho)]
    return [sign * moved_amount(z, moved_w, moved_s) for z in zs]


def line_breaks(g, mechanism: Mechanism, sides, lo, hi):
    """The line from ``lo`` to ``hi`` in the transfer: ``(sliver, breaks)``.

    ``sides`` is the line's ``search.line_sides``, and ``sliver`` the
    ridge sliver they cut (``search.sliver``).  ``breaks`` lists the ends,
    the ridge, the sliver's ends and each weak side's ``side_breaks``, NaN
    where absent.  A game or a ``GameArrays``.
    """
    ends = sliver(g, mechanism, sides)
    one, two = (side_breaks(mechanism, *side) for side in sides)
    return ends, [lo, hi, ridge_transfer(g, mechanism), *ends, *one, *two]


def line_pieces(g: GameInstance, mechanism: Mechanism):
    """One game's line cut at its breaks: ``(sliver, pieces, sides)``.

    ``sliver`` is ``line_breaks``'s, and each piece is ``(a, b, mid)``, its
    ends and midpoint, between neighbouring distinct breaks inside
    ``search.line_ends`` (NaN is inside none).  ``sides`` is the line's
    ``line_sides``, which the breaks were cut from.
    """
    lo, hi = line_ends(g, mechanism)
    sides = line_sides(g, mechanism)
    sliver, breaks = line_breaks(g, mechanism, sides, lo, hi)
    vs = sorted({v for v in breaks if lo <= v <= hi})
    return sliver, [(a, b, 0.5 * (a + b)) for a, b in zip(vs, vs[1:])], sides


# The verdicts decided before any line is built, one frozen value each.
_ABSENT = {m: MutualBenefitVerdict(m, False, None, None, False) for m in Mechanism}
_ALL_ABSENT = tuple(_ABSENT.values())
# The flagged verdict of a benefit found only inside the ridge sliver, one
# frozen value per mechanism; the grid oracle returns it too.
KNIFE_EDGE = {m: MutualBenefitVerdict(m, False, None, "ridge-knife-edge", True) for m in Mechanism}


def surplus_rules_out(g, baseline, optimum) -> bool:
    """Whether the collective surplus leaves no room for a mutual gain.

    No transfer lifts the payoff sum above ``optimum``, the game's
    ``max_collective_payoff``, which budget, contest and joint transfers all
    reach, so both players gain only when the surplus over the baseline sum
    ``b1 + b2`` exceeds twice the gain floor.  ``g`` is a game or a
    ``GameArrays``, and ``baseline`` its ``(b1, b2)``; on arrays the answer
    is elementwise.
    """
    return optimum - (baseline[0] + baseline[1]) <= 2.0 * min_gain(g)


def capped_rules_out(g, baseline) -> bool:
    """Whether a player already wins its whole valuation, so no budget transfer helps both.

    A budget transfer keeps both valuations, and no payoff exceeds its
    valuation, so a player whose baseline payoff ``b_i`` reaches ``phi_i``
    cannot gain.  The rule is exact in floats: ``core.transfer_params``
    leaves each ``phi_i`` untouched when ``nu = 0``, and ``core.u_player``
    returns ``phi * t`` with ``t <= 1`` on every branch, so ``d_i = u_i -
    b_i <= 0 <= min_gain`` at every point of the line, the ridge sliver
    included.  The strong player of a case-1 game is such a player: the
    adversary leaves it unopposed, and ``phi_s * (1.0 - 0.0 / (2 x_s))`` is
    ``phi_s``.  Every R1 game off the case-4 band is in case 1: with ``x_w,
    x_s >= 1`` and ``x_w / phi_w < x_s / phi_s``, ``s**2 = x_w x_s phi_w /
    phi_s > x_w**2 >= 1``.  ``g`` is a game or a ``GameArrays``, and
    ``baseline`` its ``(b1, b2)``; on arrays the answer is elementwise.
    """
    return (baseline[0] >= g.phi1) | (baseline[1] >= g.phi2)


def valuation_room(g, baseline):
    """The room test of a contest line: whether both players may gain on a stretch.

    Returns ``room(a, b)``, which tells whether both players may gain on
    the contest stretch from ``a`` to ``b``; the game's valuations, its
    baseline and the gain floor are read once, when the test is built.  A
    contest transfer moves valuation, and no payoff exceeds its player's
    post-transfer valuation, so player 1 can gain at ``nu`` only while
    ``(phi1 - nu) - b1`` exceeds the gain floor, and player 2 only while
    ``(phi2 + nu) - b2`` does.  Player 1's room falls as ``nu`` grows and
    player 2's as it falls, so the test takes player 1's at ``a`` and player
    2's at ``b``; a single point is ``a == b``.  Where it fails, no point of
    the stretch benefits both.  The rule is exact in floats:
    ``core.transfer_params`` forms ``phi1 - nu`` and ``phi2 + nu`` with these
    same operations, ``core.u_player`` returns ``phi' * t`` with ``t <= 1``
    or ``phi'`` on every branch, so ``u_i <= phi_i'``, and rounding is
    monotone, so ``d_i = u_i - b_i <= phi_i' - b_i``.  ``g`` is a game or a
    ``GameArrays``, ``baseline`` its ``(b1, b2)``, and ``a`` and ``b``
    broadcast against them.
    """
    phi1, phi2, gain = g.phi1, g.phi2, min_gain(g)
    base1, base2 = baseline

    def room(a, b):
        return ((phi1 - a) - base1 > gain) & ((phi2 + b) - base2 > gain)

    return room


def _line_verdict(
    g: GameInstance, mechanism: Mechanism, baseline: tuple[float, float]
) -> MutualBenefitVerdict:
    """The verdict of one budget or contest transfer line, decided piece by piece.

    The breaks of ``line_breaks`` between the line's ends (NaN is between
    none) cut it into pieces.  Each piece is classified by ``case_of`` on
    the parameters its midpoint moves to, and its candidates are the
    positive roots of the mechanism's candidate forms on its weak side,
    moved back to the transfer by ``moved_amount`` and computed once per
    ``(case, orientation)``: they depend only on the case and the game.  The
    smaller payoff delta is evaluated through ``payoffs_at`` at each piece's
    ends and at the candidates inside it, among which its maximum lies.
    Every float is computed from the weak and strong sides' parameters, so
    the swapped game gives the negated witness and the mirrored label.  The
    route names the case of the deciding piece, ``exact:<case label>``, and
    thin positive margins are flagged (``thin_margin``).  A benefit found
    only inside the ridge sliver rides on the adversary's indifference
    tie-break and is reported as the flagged ``ridge-knife-edge``.  The
    caller has taken the surplus test (``surplus_rules_out``) on
    ``baseline``, the game's ``(b1, b2)``.  An empty line leaves no
    transfer, and so does a budget line where a player already wins its
    whole valuation (``capped_rules_out``).  On a contest line, a piece
    where the players lack valuation room (the line's ``valuation_room``
    test of its ends) is dropped before it is classified, and a point that
    lacks it is not scored: neither can hold a transfer that benefits both,
    and only such transfers decide the verdict, so both passes keep their
    result bit for bit.  The line's constants are computed once: the gain
    floor, the room test, and the weak sides, which cut the line and give
    the candidates.
    """
    budget = mechanism is Mechanism.BUDGET
    if budget and capped_rules_out(g, baseline):
        return _ABSENT[mechanism]
    base1, base2 = baseline
    forms = budget_candidate_forms if budget else contest_candidate_forms
    room = None if budget else valuation_room(g, baseline)
    gaps = base1 - base2, base2 - base1
    phi1, phi2, x1, x2 = g.phi1, g.phi2, g.x1, g.x2
    # Score of a transfer: the smaller payoff delta, ties broken by the sum.
    scores: dict[float, tuple[float, float]] = {}
    cases: dict[tuple[int, bool], list[float]] = {}

    def best_of(pieces):
        """Best score, its transfer and its ``case_of`` result.

        Points are compared by ``(score, sum, case index)``, so an end shared
        by two pieces goes to the higher case index and mirrored games get
        mirrored labels.
        """
        best, total, best_index, v_best, case = -math.inf, 0.0, 0, None, None
        for a, b, mid in pieces:
            if budget:
                pair = case_of(phi1, phi2, x1 - mid, x2 + mid)
            else:
                pair = case_of(phi1 - mid, phi2 + mid, x1, x2)
            inner = cases.get(pair)
            if inner is None:
                index, swapped = pair
                m_w, m_s, k_w, k_s, sign, _ = sides[swapped]
                points, quads = forms(
                    index, k_w, k_s, gaps[swapped], m_w + m_s, root_product(k_w, k_s)
                )
                zs = points + [z for quad in quads for z in positive_roots(*quad)]
                # A candidate that is not positive lies on no piece, and NaN
                # is an absent root.
                inner = cases[pair] = [sign * moved_amount(z, m_w, m_s) for z in zs if z > 0.0]
            index = pair[0]
            for v in (a, b, *[v for v in inner if a < v < b]):
                score = scores.get(v)
                if score is None:
                    if room is not None and not room(v, v):
                        continue
                    u1, u2 = payoffs_at(g, v, 0.0) if budget else payoffs_at(g, 0.0, v)
                    d1, d2 = u1 - base1, u2 - base2
                    # ``min(d1, d2)``, which keeps d1 on a tie.
                    score = scores[v] = (d2 if d2 < d1 else d1), d1 + d2
                value = score[0]
                if value > best or (
                    value == best and (score[1], index) > (total, best_index)
                ):
                    best, total, best_index, v_best, case = value, score[1], index, v, pair
        return best, v_best, case

    gain = min_gain(g)
    sliver, pieces, sides = line_pieces(g, mechanism)
    if room is not None:
        pieces = [p for p in pieces if room(p[0], p[1])]
    value, v_best, case = best_of(p for p in pieces if not sliver[0] < p[2] < sliver[1])
    if value > gain:
        route = f"exact:{CaseLabel.of(*case)}"
        return MutualBenefitVerdict(
            mechanism, True, along(mechanism, v_best), route, thin_margin(g, value)
        )
    # The sliver is searched only when no transfer off it benefits both.
    value, _, _ = best_of(p for p in pieces if sliver[0] < p[2] < sliver[1])
    if value > gain:
        return KNIFE_EDGE[mechanism]
    return _ABSENT[mechanism]


def _single_verdict(g: GameInstance, mechanism: Mechanism) -> MutualBenefitVerdict:
    """One verdict of a game: the surplus test on its own baseline, then the verdict's body."""
    baseline = payoffs_at(g, 0.0, 0.0)
    if surplus_rules_out(g, baseline, max_collective_payoff(g)):
        return _ABSENT[mechanism]
    if mechanism is Mechanism.JOINT:
        return _joint_verdict(g, baseline)
    return _line_verdict(g, mechanism, baseline)


def mutual_verdicts(
    g: GameInstance, baseline: tuple[float, float], optimum: float
) -> tuple[MutualBenefitVerdict, MutualBenefitVerdict, MutualBenefitVerdict]:
    """The budget, contest and joint verdicts of a game, from one baseline.

    ``baseline`` is the game's ``player_payoffs(g)`` and ``optimum`` its
    ``max_collective_payoff(g)``; one surplus test (``surplus_rules_out``)
    serves all three verdicts, each of which equals ``budget_mutual_exists``,
    ``contest_mutual_exists`` and ``joint_mutual_exists``, witness floats
    included.
    """
    if surplus_rules_out(g, baseline, optimum):
        return _ALL_ABSENT
    return (
        _line_verdict(g, Mechanism.BUDGET, baseline),
        _line_verdict(g, Mechanism.CONTEST, baseline),
        _joint_verdict(g, baseline),
    )


def budget_mutual_exists(g: GameInstance) -> MutualBenefitVerdict:
    """Mutually beneficial budget transfer, decided along ``tau`` (``_line_verdict``)."""
    return _single_verdict(g, Mechanism.BUDGET)


def contest_mutual_exists(g: GameInstance) -> MutualBenefitVerdict:
    """Mutually beneficial contest transfer, decided along ``nu`` (``_line_verdict``)."""
    return _single_verdict(g, Mechanism.CONTEST)


def gap_crossing(index: int, big_phi, big_x, gap, lead):
    """``p = phi_w'`` with ``u_w - u_s = lead`` on the case-``index`` piece of a gap curve.

    The curve holds the post-transfer games whose weak ratio sits ``gap``
    below the strong one: ``x_w' = (1 - gap) X p / D`` with ``D = Phi - gap
    p``.  With ``c = sqrt(1 - gap)``, the adversary's weak-front share is ``c
    X p / D`` in case 2 and ``c p / (c p + Phi - p)`` in case 3, and

    * case 1: ``u_s = Phi - p`` and ``u_w = p - D / (2 c**2 X)``, linear.  That
      form is exact once ``x_w' >= 1``; in the band ``c <= x_w' < 1`` it is
      off by at most ``p * gap**2 / 8``;
    * case 2: ``u_w = c p / 2``, ``u_s = Phi - p - (D - c X p) / (2 X)``, linear;
    * case 3: ``u_w = c X p (Phi - (1 - c) p) / (2 D)``, ``u_s = X (Phi - p)
      (Phi - (1 - c) p) / (2 D)``, a quadratic whose smaller positive root
      counts (NaN when it has none);
    * case 4 (when ``gap`` is within ``CASE_RTOL``, which float cancellation
      can make it at extreme valuations): ``u_i = phi_i' (1 - 1 / (2 X))``,
      linear.

    Floats or arrays.
    """
    if index == 1:
        half = 0.5 / ((1.0 - gap) * big_x)
        return (big_phi + lead + half * big_phi) / (2.0 + half * gap)
    if index == 2:
        return (lead + big_phi - big_phi / (2.0 * big_x)) / (1.0 - gap / (2.0 * big_x))
    if index == 3:
        near, far = positive_roots(*gap_quadratic(big_phi, big_x, gap, lead))
        # The smaller of the two, either of which may be NaN.
        where = ops_for(near)[1]
        return where(near <= far, near, where(far > 0.0, far, near))
    return 0.5 * (big_phi + lead / (1.0 - 0.5 / big_x))


def gap_quadratic(big_phi, big_x, gap, lead):
    """Coefficients ``(a, b, c)`` of ``gap_crossing``'s case-3 quadratic in ``p``."""
    b = -2.0 * (big_x * big_phi + lead * gap)
    c = big_phi * (big_x * big_phi + 2.0 * lead)
    return big_x * gap, b, c


def gap_witness(g, baseline):
    """The equal-gain split at ratio gap ``2 * RIDGE_RTOL``: ``(tau, nu, index, swapped)``.

    The witness keeps the weaker ratio with the same player (the game's own
    side of the ridge, oriented by ``case_of``, which gives ``swapped``) and
    moves budgets and valuations onto the gap curve of ``gap_crossing``.
    Along the curve ``u_w`` rises and ``u_s`` falls with ``p``, so the
    crossing ``d_w = d_s`` is the best split there.  It is taken from the
    first case, in the order below, whose crossing lies inside ``(0, Phi)``,
    whose transfer ``core.transfer_params`` accepts (``transfer_feasible``)
    and which ``case_of`` confirms there; ``index`` is that case, or 0 with NaN ``tau`` and
    ``nu`` when there is none.  A game and its ``(b1, b2)`` or a
    ``GameArrays`` and its arrays; one game stops at the first confirmed
    case.
    """
    arrays = isinstance(g, GameArrays)
    case_rule = batch.case_of if arrays else case_of
    where = ops_for(g.phi1)[1]
    swapped = case_rule(g.phi1, g.phi2, g.x1, g.x2)[1]
    b1, b2 = baseline
    phi_w, x_w, lead = where(swapped, (g.phi2, g.x2, b2 - b1), (g.phi1, g.x1, b1 - b2))
    sign = where(swapped, -1.0, 1.0)
    big_phi, big_x = g.total_valuation, g.total_budget
    gap = 2.0 * RIDGE_RTOL
    index, tau_hit, nu_hit = 0, math.nan, math.nan
    # Case 3 needs X < 1 and case 4 X >= 1; case 1 comes after 2, for rich w.
    for case, allowed in ((3, big_x < 1.0), (2, True), (1, True), (4, big_x >= 1.0)):
        # One game solves only the cases its budget allows, confirms only
        # feasible crossings inside the curve, and stops at the first
        # confirmed case.
        if not (arrays or allowed):
            continue
        p = gap_crossing(case, big_phi, big_x, gap, lead)
        inside = allowed & (0.0 < p) & (p < big_phi)
        if not (arrays or inside):
            continue
        p = where(inside, p, math.nan)
        xw = (1.0 - gap) * big_x * p / (big_phi - gap * p)
        tau, nu = sign * (x_w - xw), sign * (phi_w - p)
        # A crossing that leaves a player (almost) nothing is no transfer.
        inside = inside & transfer_feasible(g, tau, nu)
        if not (arrays or inside):
            continue
        hit = inside & (index == 0) & (case_rule(p, big_phi - p, xw, big_x - xw)[0] == case)
        index = where(hit, case, index)
        tau_hit, nu_hit = where(hit, tau, tau_hit), where(hit, nu, nu_hit)
        if not arrays and hit:
            break
    return tau_hit, nu_hit, index, swapped


def joint_mutual_exists(g: GameInstance) -> MutualBenefitVerdict:
    """Mutually beneficial joint transfer, from the collective surplus.

    A surplus at or below twice the gain floor (``surplus_rules_out``)
    certifies absence (no route, unflagged).  Otherwise the equal-gain split
    at the sliver's edge (``gap_witness``) is validated through the payoff
    map and named ``exact:<case label>``; when it fails, both players gain
    only inside the ridge sliver, the flagged ``ridge-knife-edge``.
    """
    return _single_verdict(g, Mechanism.JOINT)


def _joint_verdict(g: GameInstance, baseline) -> MutualBenefitVerdict:
    """``joint_mutual_exists`` after the surplus test on ``baseline``."""
    gain = min_gain(g)
    tau, nu, index, swapped = gap_witness(g, baseline)
    if index:
        witness = Transfer(tau, nu)
        d1, d2 = payoff_deltas(g, witness, baseline)
        if d1 > gain and d2 > gain:
            route = f"exact:{CaseLabel.of(index, swapped)}"
            return MutualBenefitVerdict(
                Mechanism.JOINT, True, witness, route, thin_margin(g, min(d1, d2))
            )
    return KNIFE_EDGE[Mechanism.JOINT]
