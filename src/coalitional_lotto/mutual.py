"""Existence of mutually beneficial transfers (budget, contest, joint).

A transfer is mutually beneficial when it strictly raises *both* players'
payoffs relative to no transfer.  Every transfer keeps the total budget
``X`` and the total valuation ``Phi``, so none lifts the payoff sum above
``max_collective_payoff``, which all three mechanisms reach; both players
can gain only when the surplus ``S`` of that maximum over the baseline sum
exceeds twice the gain floor.  Where that one test
(``surplus_rules_out``) rules a gain out, all three verdicts are absent
before any line is built; every game on the ridge is such a game.
Otherwise budget and contest transfers each move along a line and are
decided exactly by one line engine, and joint transfers are decided from
the surplus:

* the line engine (``_line_verdict``).  The equal-ratio ridge, the edges of
  the adversary's case-4 band around it, the edges of the ridge sliver and
  the case edges cut the line's feasible interval into pieces.  Each piece
  is classified at its midpoint by ``case_of``; on it both payoffs are
  closed forms, so the best transfer lies at an end, a stationary point or
  a crossing of the two payoff deltas, all roots of quadratics.  Those
  candidates depend only on the case, its orientation and the game, so a
  line computes them once per ``(case, orientation)`` and each piece keeps
  the ones inside it.  One scoring pass evaluates them through
  ``adversary.payoffs_at``.
* budget transfers keep ``X = x1 + x2`` and move the budgets ``b1 = x1 -
  tau``, ``b2 = x2 + tau`` along ``q = sqrt(b1 / b2)``.  With ``k =
  sqrt(phi1 * phi2)``, case 3 gives ``u1 = (X/2)(phi1 q**2 + k q) / (1 +
  q**2)`` and ``u2 = (X/2)(phi2 + k q) / (1 + q**2)``; case 2 with player 1
  weak gives ``u1 = k q / 2`` and ``u2 = phi2 - phi2 (1 + q**2) / (2 X) + k
  q / 2``; case 1 with player 1 weak gives ``u2 = phi2`` and ``u1 = phi1 b1
  / 2`` or ``phi1 (1 - 1 / (2 b1))``, rising with ``q``; player 2 weak swaps
  the players and uses ``1/q`` (``candidate_forms``).
* contest transfers keep the budgets and ``Phi = phi1 + phi2`` and move the
  valuations along ``w = sqrt(p1 / p2)``, ``p1 = phi1 - nu``.  The ridge is
  ``w = sqrt(x1 / x2)``, the case edges are linear in ``w`` (or ``1/w`` when
  player 2 is weak), and on every piece both payoffs are ``N(w) / (1 +
  w**2)`` with ``N`` quadratic (``contest_candidate_forms``).  The line
  stops ``search.END_RTOL`` of each valuation short of its end.
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
(``budget_breaks``, ``contest_breaks``, with ``case_edges`` and
``side_breaks``), the roots of their quadratics (``positive_roots``), the
candidate forms, the joint witness (``gap_witness``) and the surplus test.
The one-game engine drops NaN by the interval test it already makes, and
``mutual_arrays`` stacks the values into columns to decide all three
verdicts over arrays of games.  Only the leaves branch on floats against
arrays (``_ops`` and ``positive_roots``): float division by zero and
``math.sqrt`` of a negative raise, and one game's joint witness stops at
the first confirmed case.  Case edges, the contest orientation and the
case-4 bands all use the one fixed tie tolerance ``adversary.CASE_RTOL``.  The ridge transfer is
``collective.ridge_transfer``.  The paper's printed contest routes are kept
in ``paper_routes`` as a plain check, which opens the printed windows and
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
from .core import GameInstance, Mechanism, Transfer, u_player
from .search import RIDGE_RTOL, contest_ends, min_gain, thin_margin, transfer_interval

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


def _pick(cond, a, b):
    """``np.where`` for one game: ``a`` if ``cond`` else ``b``."""
    return a if cond else b


def _ops(x):
    """``(sqrt, where)`` for values like ``x``: numpy's on arrays.

    Floats get ``math.sqrt`` and ``_pick``: a numpy call on a float costs
    ten times as much and returns a numpy scalar.
    """
    return (np.sqrt, np.where) if isinstance(x, np.ndarray) else (math.sqrt, _pick)


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
    where = _ops(rho)[1]
    roots = [z for quad in edge_quadratics(big_x, rho) for z in positive_roots(*quad)]
    return [where(z < rho, z, math.nan) for z in roots]


def around_ridge(q_ridge: float, gap: float) -> tuple[float, float]:
    """The two values of ``q`` whose ratio gap to the ridge ``q_ridge`` is ``gap``."""
    s = math.sqrt(1.0 - gap)
    return q_ridge * s, q_ridge / s


def candidate_forms(index: int, phi_w, phi_s, base_gap, big_x, k):
    """Interior maximizer candidates of ``min(d_w, d_s)`` on one piece, in ``z``.

    With ``k = sqrt(phi_w * phi_s)``, ``X = big_x`` and ``base_gap = base_w -
    base_s``, the payoffs on a piece of case ``index`` are

    * case 2: ``u_w = k z / 2``, ``u_s = phi_s - phi_s (1 + z**2) / (2 X) + k z / 2``;
    * case 3: ``u_w = (X/2)(phi_w z**2 + k z) / (1 + z**2)``,
      ``u_s = (X/2)(phi_s + k z) / (1 + z**2)``.

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
        half_x = 0.5 * big_x
        return [], [
            (k, -2.0 * phi_w, -k),
            (k, 2.0 * phi_s, -k),
            (half_x * phi_w - base_gap, 0.0, -(half_x * phi_s + base_gap)),
        ]
    return [], []


def _piece_candidates(
    index: int, phi_w: float, phi_s: float, base_gap: float, big_x: float
) -> list[float]:
    """The candidates of ``candidate_forms`` for one piece, as a list of ``z``.

    A candidate that is not positive is dropped: it lies on no piece, and
    ``k`` underflows to 0 when ``phi_w * phi_s`` does, which puts the case-2
    point at 0.  So is an absent root (NaN).
    """
    k = math.sqrt(phi_w * phi_s)
    points, quads = candidate_forms(index, phi_w, phi_s, base_gap, big_x, k)
    roots = [z for quad in quads for z in positive_roots(*quad)]
    return [z for z in points + roots if z > 0.0]


def contest_candidate_forms(index: int, x_w, x_s, base_gap, big_phi, k, c1):
    """Interior maximizer candidates of ``min(d_w, d_s)`` on one contest piece, in ``z``.

    A contest transfer keeps the budgets and ``Phi = big_phi``; on the side
    where player w is weak it moves the valuations along ``z = sqrt(p_w /
    p_s)``, so ``p_w = Phi z**2 / (1 + z**2)`` and ``p_s = Phi / (1 + z**2)``.
    The adversary's weak-front share is ``k z`` with ``k = sqrt(x_w * x_s)``,
    and on a piece of case ``index`` both payoffs are ``N(z) / (1 + z**2)``
    with ``N`` quadratic:

    * case 1: ``u_w = c1 p_w`` with ``c1 = u_player(1, x_w, 1)``, ``u_s = p_s``;
    * case 2: ``u_w = (Phi/2)(x_w / k) z / (1 + z**2)``,
      ``u_s = Phi (2 x_s - 1 + k z) / (2 x_s (1 + z**2))``;
    * case 3: ``u_w = (Phi/2)(x_w z**2 + k z) / (1 + z**2)``,
      ``u_s = (Phi/2)(x_s + k z) / (1 + z**2)``, the budget verdict's case 3
      with valuations and budgets exchanged;
    * case 4: ``u_i = (1 - 1 / (2 X)) p_i``.

    ``N / (1 + z**2)`` is stationary where ``B z**2 - 2 (A - C) z - B = 0``
    for ``N = A z**2 + B z + C``, and with ``base_gap = base_w - base_s`` the
    crossing ``d_w = d_s`` clears to a quadratic too.  Returns the points and
    the quadratics ``(a, b, c)`` whose positive roots are the candidates, as
    ``candidate_forms`` does; the forms are plain arithmetic, so they take
    floats or arrays.
    """
    if index == 2:
        stationary_s = (k, 2.0 * (2.0 * x_s - 1.0), -k)
        crossing = (base_gap, 0.0, big_phi * (1.0 - 0.5 / x_s) + base_gap)
        return [1.0], [stationary_s, crossing]
    if index == 3:
        half_phi = 0.5 * big_phi
        return [], [
            (k, -2.0 * x_w, -k),
            (k, 2.0 * x_s, -k),
            (half_phi * x_w - base_gap, 0.0, -(half_phi * x_s + base_gap)),
        ]
    # Cases 1 and 4: u_w = c_w p_w and u_s = c_s p_s.
    if index == 1:
        c_w, c_s = c1, 1.0
    else:
        c_w = c_s = 1.0 - 0.5 / (x_w + x_s)
    return [], [(c_w * big_phi - base_gap, 0.0, -(c_s * big_phi + base_gap))]


def moved_valuation(z, phi_w, phi_s):
    """Valuation that w hands to s to land at ``z = sqrt(p_w / p_s)``.

    Written as ``(phi_w - phi_s z**2) / (1 + z**2)``, it keeps the
    precision of the smaller valuation on either side of the line and
    negates exactly when the players are swapped.  Floats or arrays.
    """
    zz = z * z
    return (phi_w - phi_s * zz) / (1.0 + zz)


def contest_sides(g: GameInstance):
    """Both weak sides of a contest line: ``(phi_w, phi_s, x_w, x_s, sign)``.

    ``sign * moved_valuation`` is the transfer ``nu`` from player 1 to player
    2.  Player 1 is weak above the ridge ``z = sqrt(x_w / x_s)`` of its own
    side, which holds the transfers below ``ridge_transfer``.  Fields of a
    ``GameInstance`` or of a ``GameArrays``.
    """
    return (g.phi1, g.phi2, g.x1, g.x2, 1.0), (g.phi2, g.phi1, g.x2, g.x1, -1.0)


def side_breaks(phi_w, phi_s, x_w, x_s, sign) -> list:
    """Breaks of one contest side in ``nu``: sliver end, case-4 band end, two case edges.

    The edges, ``k z = 1`` and ``1 - k z = x_s``, count where they lie on the
    side (``z`` above the ridge) and are NaN elsewhere.  Floats or arrays.
    """
    sqrt, where = _ops(x_w)
    rho = sqrt(x_w / x_s)
    k = sqrt(x_w * x_s)
    zs = [around_ridge(rho, 2.0 * RIDGE_RTOL)[1], around_ridge(rho, 1.001 * CASE_RTOL)[1]]
    zs += [where(z > rho, z, math.nan) for z in (1.0 / k, (1.0 - x_s) / k)]
    return [sign * moved_valuation(z, phi_w, phi_s) for z in zs]


def budget_breaks(g, lo, hi):
    """The budget line in ``q = sqrt(b1 / b2)``: ``(ends, sliver, breaks)``.

    ``lo``, ``hi`` bound ``tau``, and ``ends`` are their ``q``, in rising
    order.  ``sliver`` is the open interval within ``2 * RIDGE_RTOL`` of the
    ridge ``q = sqrt(phi1 / phi2)``.  ``breaks`` lists the ends, the ridge,
    the sliver's and the case-4 band's ends, and the case edges of
    ``case_edges`` (in ``z = q`` below the ridge, ``z = 1/q`` above it), NaN
    where absent.  A game or a ``GameArrays``.
    """
    sqrt, where = _ops(g.phi1)
    big_x = g.total_budget
    q_ridge = sqrt(g.phi1 / g.phi2)
    ends = sqrt((g.x1 - hi) / (g.x2 + hi)), sqrt((g.x1 - lo) / (g.x2 + lo))
    sliver = around_ridge(q_ridge, 2.0 * RIDGE_RTOL)
    # The case-4 band |gap| <= CASE_RTOL is a piece of its own: the payoffs
    # jump there.  A subnormal phi1 puts the ridge at q = 0, and player 2's
    # case edges off the line.
    above = case_edges(big_x, 1.0 / where(q_ridge > 0.0, q_ridge, math.nan))
    breaks = [
        *ends, q_ridge, *sliver, *around_ridge(q_ridge, 1.001 * CASE_RTOL),
        *case_edges(big_x, q_ridge), *(1.0 / z for z in above),
    ]
    return ends, sliver, breaks


def contest_breaks(g, lo, hi):
    """The contest line in ``nu``, from ``lo`` to ``hi``: ``(ends, sliver, breaks)``.

    ``breaks`` lists the ends, the ridge (``ridge_transfer``) and each weak
    side's ``side_breaks``; the sliver ends are the sides' first breaks.  A
    game or a ``GameArrays``.
    """
    below, above = (side_breaks(*side) for side in contest_sides(g))
    return (lo, hi), (below[0], above[0]), [lo, hi, ridge_transfer(g), *below, *above]


def _absent(mechanism: Mechanism) -> MutualBenefitVerdict:
    return MutualBenefitVerdict(mechanism, False, None, None, False)


def surplus_rules_out(g, baseline) -> bool:
    """Whether the collective surplus leaves no room for a mutual gain.

    No transfer lifts the payoff sum above ``max_collective_payoff``, which
    budget, contest and joint transfers all reach, so both players gain
    only when the surplus over the baseline sum ``b1 + b2`` exceeds twice
    the gain floor.  ``g`` is a game or a ``GameArrays``, and ``baseline``
    its ``(b1, b2)``; on arrays the answer is elementwise.
    """
    return max_collective_payoff(g) - (baseline[0] + baseline[1]) <= 2.0 * min_gain(g)


def _line_verdict(
    g, mechanism, baseline, ends, sliver, breaks, classify, candidates, transfer
) -> MutualBenefitVerdict:
    """The verdict of one transfer line, decided piece by piece.

    ``ends``, ``sliver`` and ``breaks`` are those of ``budget_breaks`` or
    ``contest_breaks``: the breaks between the ends (NaN is between none)
    cut the line into pieces, and ``sliver`` is the open coordinate
    interval within ``2 * RIDGE_RTOL`` of the equal-ratio ridge.
    ``classify(mid)`` gives the ``(index, swapped)`` of the piece around
    ``mid``, and ``candidates(index,
    swapped)`` the line's candidate coordinates for that case, computed once
    per line: they depend only on the case and the game.  ``transfer(c)`` is
    the ``(tau, nu)`` at coordinate ``c``.  The smaller payoff delta is
    evaluated through ``payoffs_at`` at each piece's ends and at the
    candidates inside it, among which its maximum lies.  The route names the
    case of the deciding piece, ``exact:<case label>``, and thin positive
    margins are flagged (``thin_margin``).  A benefit found only inside the
    sliver rides on the adversary's indifference tie-break and is reported
    as the flagged ``ridge-knife-edge``.
    """
    base1, base2 = baseline
    # Score of a transfer: the smaller payoff delta, ties broken by the sum.
    scores: dict[float, tuple[float, float]] = {}
    cases: dict[tuple[int, bool], list[float]] = {}

    def best_of(pieces):
        """Best score, its coordinate and its ``case_of`` result.

        Points are compared by ``(score, sum, case index)``, so an end shared
        by two pieces goes to the higher case index and mirrored games get
        mirrored labels.
        """
        best, total, best_index, c_best, case = -math.inf, 0.0, 0, None, None
        for a, b, mid in pieces:
            pair = classify(mid)
            inner = cases.get(pair)
            if inner is None:
                inner = cases[pair] = candidates(*pair)
            index = pair[0]
            for c in (a, b, *[c for c in inner if a < c < b]):
                score = scores.get(c)
                if score is None:
                    u1, u2 = payoffs_at(g, *transfer(c))
                    d1, d2 = u1 - base1, u2 - base2
                    # ``min(d1, d2)``, which keeps d1 on a tie.
                    score = scores[c] = (d2 if d2 < d1 else d1), d1 + d2
                value = score[0]
                if value > best or (
                    value == best and (score[1], index) > (total, best_index)
                ):
                    best, total, best_index, c_best, case = value, score[1], index, c, pair
        return best, c_best, case

    gain = min_gain(g)
    lo, hi = ends
    cs = sorted({c for c in breaks if lo <= c <= hi})
    pieces = [(a, b, 0.5 * (a + b)) for a, b in zip(cs, cs[1:])]
    value, c_best, case = best_of(p for p in pieces if not sliver[0] < p[2] < sliver[1])
    if value > gain:
        witness = Transfer(*transfer(c_best))
        route = f"exact:{CaseLabel.of(*case)}"
        return MutualBenefitVerdict(mechanism, True, witness, route, thin_margin(g, value))
    # The sliver is searched only when no transfer off it benefits both.
    value, _, _ = best_of(p for p in pieces if sliver[0] < p[2] < sliver[1])
    if value > gain:
        return MutualBenefitVerdict(mechanism, False, None, "ridge-knife-edge", True)
    return _absent(mechanism)


def budget_mutual_exists(g: GameInstance) -> MutualBenefitVerdict:
    """Mutually beneficial budget transfer, decided piece by piece (``_line_verdict``).

    The line's coordinate is ``q = sqrt(b1 / b2)``, which falls as ``tau``
    grows.  The ridge ``q = sqrt(phi1 / phi2)``, the edges of the
    adversary's case-4 band, and the case edges (``budget_breaks``) cut the
    feasible interval into pieces, whose candidates are those of
    ``_piece_candidates``.  An empty feasible interval, or a collective
    surplus that rules out a mutual gain (``surplus_rules_out``), leaves no
    transfer.
    """
    lo, hi = transfer_interval(g, Mechanism.BUDGET)
    if not lo < hi:
        return _absent(Mechanism.BUDGET)
    baseline = payoffs_at(g, 0.0, 0.0)
    if surplus_rules_out(g, baseline):
        return _absent(Mechanism.BUDGET)
    big_x = g.total_budget
    ends, sliver, breaks = budget_breaks(g, lo, hi)

    def classify(q_mid: float):
        b2 = big_x / (1.0 + q_mid * q_mid)
        return case_of(g.phi1, g.phi2, big_x - b2, b2)

    def candidates(index: int, swapped: bool) -> list[float]:
        if swapped:
            zs = _piece_candidates(index, g.phi2, g.phi1, baseline[1] - baseline[0], big_x)
            return [1.0 / z for z in zs]
        return _piece_candidates(index, g.phi1, g.phi2, baseline[0] - baseline[1], big_x)

    def transfer(q: float) -> tuple[float, float]:
        return min(max(big_x / (1.0 + q * q) - g.x2, lo), hi), 0.0

    return _line_verdict(
        g, Mechanism.BUDGET, baseline, ends, sliver, breaks, classify, candidates, transfer
    )


def contest_mutual_exists(g: GameInstance) -> MutualBenefitVerdict:
    """Mutually beneficial contest transfer, decided piece by piece (``_line_verdict``).

    The line's coordinate is the transfer ``nu`` itself, between the ends of
    ``search.contest_ends``.  The ridge (``ridge_transfer``) and, on each
    weak side, the sliver end, the case-4 band end and the case edges
    (``contest_breaks``) cut it into pieces.  Each piece is classified at
    its midpoint by ``case_of``, and its candidates are the roots of
    ``contest_candidate_forms`` in its weak side's ``z``, moved back to
    ``nu`` by ``moved_valuation``.  Every float is computed from the weak
    and strong sides' parameters, so the swapped game gives the negated
    witness and the mirrored label.  An empty line, or a collective surplus
    that rules out a mutual gain (``surplus_rules_out``), leaves no
    transfer.
    """
    lo, hi = contest_ends(g)
    if not lo < hi:
        return _absent(Mechanism.CONTEST)
    baseline = payoffs_at(g, 0.0, 0.0)
    if surplus_rules_out(g, baseline):
        return _absent(Mechanism.CONTEST)
    ends, sliver, breaks = contest_breaks(g, lo, hi)
    big_phi = g.total_valuation
    # Per side: its fields, k, the case-1 weak payoff per unit valuation and
    # the baseline gap base_w - base_s.
    sides = [
        (phi_w, phi_s, x_w, x_s, sign, math.sqrt(x_w * x_s), u_player(1.0, x_w, 1.0), gap)
        for (phi_w, phi_s, x_w, x_s, sign), gap in zip(
            contest_sides(g), (baseline[0] - baseline[1], baseline[1] - baseline[0])
        )
    ]

    def classify(nu_mid: float):
        return case_of(g.phi1 - nu_mid, g.phi2 + nu_mid, g.x1, g.x2)

    def candidates(index: int, swapped: bool) -> list[float]:
        phi_w, phi_s, x_w, x_s, sign, k, c1, gap = sides[swapped]
        points, quads = contest_candidate_forms(index, x_w, x_s, gap, big_phi, k, c1)
        roots = [z for quad in quads for z in positive_roots(*quad) if z > 0.0]
        return [sign * moved_valuation(z, phi_w, phi_s) for z in points + roots]

    def transfer(nu: float) -> tuple[float, float]:
        return 0.0, nu

    return _line_verdict(
        g, Mechanism.CONTEST, baseline, ends, sliver, breaks, classify, candidates, transfer
    )


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
        where = _ops(near)[1]
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
    first case, in the order below, whose crossing lies inside ``(0, Phi)``
    and which ``case_of`` confirms there; ``index`` is that case, or 0 with
    NaN ``tau`` and ``nu`` when there is none.  A game and its ``(b1, b2)``
    or a ``GameArrays`` and its arrays; one game stops at the first
    confirmed case.
    """
    arrays = isinstance(g, GameArrays)
    case_rule = batch.case_of if arrays else case_of
    where = _ops(g.phi1)[1]
    swapped = case_rule(g.phi1, g.phi2, g.x1, g.x2)[1]
    b1, b2 = baseline
    phi_w, x_w, lead = where(swapped, (g.phi2, g.x2, b2 - b1), (g.phi1, g.x1, b1 - b2))
    big_phi, big_x = g.total_valuation, g.total_budget
    gap = 2.0 * RIDGE_RTOL
    index, p_hit, xw_hit = 0, math.nan, math.nan
    # Case 3 needs X < 1 and case 4 X >= 1; case 1 comes after 2, for rich w.
    for case, allowed in ((3, big_x < 1.0), (2, True), (1, True), (4, big_x >= 1.0)):
        # One game solves only the cases its budget allows, confirms only
        # crossings inside the curve, and stops at the first confirmed case.
        if not (arrays or allowed):
            continue
        p = gap_crossing(case, big_phi, big_x, gap, lead)
        inside = allowed & (0.0 < p) & (p < big_phi)
        if not (arrays or inside):
            continue
        p = where(inside, p, math.nan)
        xw = (1.0 - gap) * big_x * p / (big_phi - gap * p)
        hit = inside & (index == 0) & (case_rule(p, big_phi - p, xw, big_x - xw)[0] == case)
        index = where(hit, case, index)
        p_hit, xw_hit = where(hit, p, p_hit), where(hit, xw, xw_hit)
        if not arrays and hit:
            break
    sign = where(swapped, -1.0, 1.0)
    return sign * (x_w - xw_hit), sign * (phi_w - p_hit), index, swapped


def joint_mutual_exists(g: GameInstance) -> MutualBenefitVerdict:
    """Mutually beneficial joint transfer, from the collective surplus.

    A surplus at or below twice the gain floor (``surplus_rules_out``)
    certifies absence (no route, unflagged).  Otherwise the equal-gain split
    at the sliver's edge (``gap_witness``) is validated through the payoff
    map and named ``exact:<case label>``; when it fails, both players gain
    only inside the ridge sliver, the flagged ``ridge-knife-edge``.
    """
    baseline = player_payoffs(g)
    if surplus_rules_out(g, baseline):
        return _absent(Mechanism.JOINT)
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
    return MutualBenefitVerdict(Mechanism.JOINT, False, None, "ridge-knife-edge", True)
