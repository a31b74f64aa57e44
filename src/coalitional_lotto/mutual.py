"""Existence of mutually beneficial transfers (budget, contest, joint).

A transfer is mutually beneficial when it strictly raises *both* players'
payoffs relative to no transfer.  Budget and contest transfers each move
along a line and are decided exactly by one line engine; joint transfers
are decided from the collective surplus:

* the line engine (``_line_verdict``).  The equal-ratio ridge, the edges of
  the adversary's case-4 band around it, the edges of the ridge sliver and
  the case edges cut the line's feasible interval into pieces.  Each piece
  is classified at its midpoint by ``case_of``; on it both payoffs are
  closed forms, so the best transfer lies at an end, a stationary point or
  a crossing of the two payoff deltas, all roots of quadratics.  One
  scoring pass evaluates them through ``adversary.payoffs_at``.
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
* joint transfers -- decided from the collective surplus.  Every transfer
  keeps ``X`` and ``Phi``, so none lifts the payoff sum above
  ``max_collective_payoff``, and both players can gain only when the
  surplus ``S`` of that maximum over the baseline sum exceeds twice the
  gain floor.  A joint transfer reaches the ridge and splits the maximum in
  any proportion, so ``S`` above that floor leaves a witness, placed just
  outside the ridge sliver, at ratio gap ``2 * RIDGE_RTOL`` on the game's
  own side.  There both payoffs are closed forms in the weak player's
  post-transfer valuation, and the equal-gain split solves a linear
  equation (cases 1, 2 and 4) or a quadratic (case 3).

Every "exists" verdict carries a concrete witness transfer that is
re-validated through the actual payoff map; no verdict rests on the algebra
alone.  Routes name the case of the witness, ``exact:<case label>``; a
benefit found only within ``2 * RIDGE_RTOL`` of the ridge is the flagged
``ridge-knife-edge``, and a positive verdict is flagged when its smaller
gain is thin (``search.thin_margin``).  ``mutual_arrays`` decides all three
verdicts over arrays of games from the same forms (``edge_quadratics``,
``candidate_forms``, ``contest_candidate_forms``, ``moved_valuation``,
``around_ridge``, ``gap_crossing``, ``gap_quadratic``).  Case edges, the
contest orientation and the case-4 bands all use the one fixed tie
tolerance ``adversary.CASE_RTOL``.  The paper's printed contest routes are
kept as a check in ``paper_routes``, which no verdict calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .adversary import CASE_RTOL, CaseLabel, case_of, payoffs_at, player_payoffs
from .collective import max_collective_payoff
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
    R4's corner allows, moves it on to R5.
    """
    return 2 * (x1 < 1.0) + (x2 < 1.0) + (x1 + x2 < 1.0)


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


def _positive_roots(a: float, b: float, c: float) -> list[float]:
    """Positive real roots of ``a*z**2 + b*z + c = 0`` (none when ``a == 0``)."""
    d = b * b - 4.0 * a * c
    if a == 0.0 or d < 0.0:
        return []
    r = -0.5 * (b + math.copysign(math.sqrt(d), b))
    roots = [r / a, c / r] if r != 0.0 else []
    return [z for z in roots if z > 0.0]


def edge_quadratics(big_x, rho):
    """Coefficients ``(a, b, c)`` of the case-1 and case-2/3 edges, weak side ``w``.

    In ``z = sqrt(b_w / b_s)`` the side is ``z < rho``, the adversary's
    weak-front share is ``s = big_x * rho * z / (1 + z**2)``, and the edges
    are ``s = 1`` and ``1 - s = b_s``.
    """
    b = -big_x * rho
    return (1.0, b, 1.0), (1.0, b, 1.0 - big_x)


def _case_edges(big_x: float, rho: float) -> list[float]:
    """Case edges on the side where player w is weak (``edge_quadratics``)."""
    return [z for quad in edge_quadratics(big_x, rho) for z in _positive_roots(*quad) if z < rho]


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

    A point that is not positive is dropped: it lies on no piece, and ``k``
    underflows to 0 when ``phi_w * phi_s`` does, which puts the case-2 point
    at 0.
    """
    k = math.sqrt(phi_w * phi_s)
    points, quads = candidate_forms(index, phi_w, phi_s, base_gap, big_x, k)
    return [z for z in points if z > 0.0] + [z for quad in quads for z in _positive_roots(*quad)]


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


def ridge_transfer(g):
    """The contest transfer that equalizes the two ratios, ``(x2 phi1 - x1 phi2) / X``."""
    return (g.x2 * g.phi1 - g.x1 * g.phi2) / (g.x1 + g.x2)


def _side_breaks(phi_w, phi_s, x_w, x_s, sign):
    """Breaks of one contest side: sliver end, case-4 band end, then its case edges.

    The edges, ``k z = 1`` and ``1 - k z = x_s``, count where they lie on the
    side (``z`` above the ridge).
    """
    rho = math.sqrt(x_w / x_s)
    k = math.sqrt(x_w * x_s)
    zs = [around_ridge(rho, 2.0 * RIDGE_RTOL)[1], around_ridge(rho, 1.001 * CASE_RTOL)[1]]
    zs += [z for z in (1.0 / k, (1.0 - x_s) / k) if z > rho]
    return [sign * moved_valuation(z, phi_w, phi_s) for z in zs]


def _absent(mechanism: Mechanism) -> MutualBenefitVerdict:
    return MutualBenefitVerdict(mechanism, False, None, None, False)


def _line_verdict(g, mechanism, baseline, cs, sliver, piece, transfer) -> MutualBenefitVerdict:
    """The verdict of one transfer line, decided piece by piece.

    ``cs`` are the sorted breaks of the line in its own coordinate, both
    ends included, and ``sliver`` is the open coordinate interval within
    ``2 * RIDGE_RTOL`` of the equal-ratio ridge.  ``piece(mid)`` classifies
    the piece around ``mid`` and returns ``(index, swapped, candidates)``;
    ``transfer(c)`` is the ``(tau, nu)`` at coordinate ``c``.  The smaller
    payoff delta is evaluated through ``payoffs_at`` at each piece's ends
    and at the candidates inside it, among which its maximum lies.  The
    route names the case of the deciding piece, ``exact:<case label>``, and
    thin positive margins are flagged (``thin_margin``).  A benefit found
    only inside the sliver rides on the adversary's indifference tie-break
    and is reported as the flagged ``ridge-knife-edge``.
    """
    base1, base2 = baseline
    # Score of a transfer: the smaller payoff delta, ties broken by the sum.
    scores: dict[float, tuple[float, float]] = {}

    def best_of(pieces):
        """Best (score, case index), coordinate and ``case_of`` result.

        An end shared by two pieces goes to the higher case index, so
        mirrored games get mirrored labels.
        """
        best = (-math.inf, 0.0, 0), None, None
        for a, b, mid in pieces:
            index, swapped, inner = piece(mid)
            for c in [a, b] + [c for c in inner if a < c < b]:
                score = scores.get(c)
                if score is None:
                    u1, u2 = payoffs_at(g, *transfer(c))
                    d1, d2 = u1 - base1, u2 - base2
                    score = scores[c] = (min(d1, d2), d1 + d2)
                key = (*score, index)
                if key > best[0]:
                    best = key, c, (index, swapped)
        return best

    gain = min_gain(g)
    pieces = [(a, b, 0.5 * (a + b)) for a, b in zip(cs, cs[1:])]
    (value, _, _), c_best, case = best_of(p for p in pieces if not sliver[0] < p[2] < sliver[1])
    if value > gain:
        witness = Transfer(*transfer(c_best))
        route = f"exact:{CaseLabel.of(*case)}"
        return MutualBenefitVerdict(mechanism, True, witness, route, thin_margin(g, value))
    # The sliver is searched only when no transfer off it benefits both.
    (value, _, _), _, _ = best_of(p for p in pieces if sliver[0] < p[2] < sliver[1])
    if value > gain:
        return MutualBenefitVerdict(mechanism, False, None, "ridge-knife-edge", True)
    return _absent(mechanism)


def budget_mutual_exists(g: GameInstance) -> MutualBenefitVerdict:
    """Mutually beneficial budget transfer, decided piece by piece (``_line_verdict``).

    The line's coordinate is ``q = sqrt(b1 / b2)``, which falls as ``tau``
    grows.  The ridge ``q = sqrt(phi1 / phi2)``, the edges of the
    adversary's case-4 band, and the case edges of ``_case_edges`` (in ``z
    = q`` below the ridge, ``z = 1/q`` above it) cut the feasible interval
    into pieces, whose candidates are those of ``_piece_candidates``.  An
    empty feasible interval leaves no transfer.
    """
    lo, hi = transfer_interval(g, Mechanism.BUDGET)
    if not lo < hi:
        return _absent(Mechanism.BUDGET)
    baseline = payoffs_at(g, 0.0, 0.0)
    big_x = g.total_budget
    q_ridge = math.sqrt(g.phi1 / g.phi2)
    q_lo = math.sqrt((g.x1 - hi) / (g.x2 + hi))
    q_hi = math.sqrt((g.x1 - lo) / (g.x2 + lo))
    sliver = around_ridge(q_ridge, 2.0 * RIDGE_RTOL)
    # The case-4 band |gap| <= CASE_RTOL is a piece of its own: the payoffs
    # jump there.
    breaks = {q_lo, q_hi, q_ridge, *sliver, *around_ridge(q_ridge, 1.001 * CASE_RTOL)}
    breaks.update(_case_edges(big_x, q_ridge))
    # A subnormal phi1 puts the ridge at q = 0, and its case edges at 0 and
    # infinity, off the line, as for an infinite 1 / q_ridge.
    breaks.update(1.0 / z for z in _case_edges(big_x, 1.0 / q_ridge if q_ridge else math.inf))
    qs = sorted(q for q in breaks if q_lo <= q <= q_hi)

    def piece(q_mid: float):
        b2 = big_x / (1.0 + q_mid * q_mid)
        index, swapped = case_of(g.phi1, g.phi2, big_x - b2, b2)
        if swapped:
            zs = _piece_candidates(index, g.phi2, g.phi1, baseline[1] - baseline[0], big_x)
            return index, swapped, [1.0 / z for z in zs]
        zs = _piece_candidates(index, g.phi1, g.phi2, baseline[0] - baseline[1], big_x)
        return index, swapped, zs

    def transfer(q: float) -> tuple[float, float]:
        return min(max(big_x / (1.0 + q * q) - g.x2, lo), hi), 0.0

    return _line_verdict(g, Mechanism.BUDGET, baseline, qs, sliver, piece, transfer)


def contest_mutual_exists(g: GameInstance) -> MutualBenefitVerdict:
    """Mutually beneficial contest transfer, decided piece by piece (``_line_verdict``).

    The line's coordinate is the transfer ``nu`` itself, between the ends of
    ``search.contest_ends``.  The ridge (``ridge_transfer``) and, on each
    weak side, the sliver end, the case-4 band end and the case edges
    (``_side_breaks``) cut it into pieces.  Each piece is classified at its
    midpoint by ``case_of``, and its candidates are the roots of
    ``contest_candidate_forms`` in its weak side's ``z``, moved back to
    ``nu`` by ``moved_valuation``.  Every float is computed from the weak
    and strong sides' parameters, so the swapped game gives the negated
    witness and the mirrored label.  An empty line leaves no transfer.
    """
    lo, hi = contest_ends(g)
    if not lo < hi:
        return _absent(Mechanism.CONTEST)
    baseline = payoffs_at(g, 0.0, 0.0)
    # Player 1 is weak below the ridge transfer, player 2 above it.
    below, above = (_side_breaks(*side) for side in contest_sides(g))
    sliver = below[0], above[0]
    breaks = {lo, hi, ridge_transfer(g), *below, *above}
    nus = sorted(nu for nu in breaks if lo <= nu <= hi)
    big_phi = g.total_valuation
    # Per side: its fields, k, the case-1 weak payoff per unit valuation and
    # the baseline gap base_w - base_s.
    sides = [
        (phi_w, phi_s, x_w, x_s, sign, math.sqrt(x_w * x_s), u_player(1.0, x_w, 1.0), gap)
        for (phi_w, phi_s, x_w, x_s, sign), gap in zip(
            contest_sides(g), (baseline[0] - baseline[1], baseline[1] - baseline[0])
        )
    ]

    def piece(nu_mid: float):
        index, swapped = case_of(g.phi1 - nu_mid, g.phi2 + nu_mid, g.x1, g.x2)
        phi_w, phi_s, x_w, x_s, sign, k, c1, gap = sides[swapped]
        points, quads = contest_candidate_forms(index, x_w, x_s, gap, big_phi, k, c1)
        zs = points + [z for quad in quads for z in _positive_roots(*quad)]
        return index, swapped, [sign * moved_valuation(z, phi_w, phi_s) for z in zs]

    def transfer(nu: float) -> tuple[float, float]:
        return 0.0, nu

    return _line_verdict(g, Mechanism.CONTEST, baseline, nus, sliver, piece, transfer)


def gap_crossing(index: int, big_phi: float, big_x: float, gap: float, lead: float):
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
      (Phi - (1 - c) p) / (2 D)``, a quadratic whose smaller root counts;
    * case 4 (when ``gap`` is within ``CASE_RTOL``, which float cancellation
      can make it at extreme valuations): ``u_i = phi_i' (1 - 1 / (2 X))``,
      linear.

    None when the quadratic has no positive root.  Cases 1, 2 and 4 are
    plain arithmetic, so they take arrays too.
    """
    if index == 1:
        half = 0.5 / ((1.0 - gap) * big_x)
        return (big_phi + lead + half * big_phi) / (2.0 + half * gap)
    if index == 2:
        return (lead + big_phi - big_phi / (2.0 * big_x)) / (1.0 - gap / (2.0 * big_x))
    if index == 3:
        return min(_positive_roots(*gap_quadratic(big_phi, big_x, gap, lead)), default=None)
    return 0.5 * (big_phi + lead / (1.0 - 0.5 / big_x))


def gap_quadratic(big_phi, big_x, gap, lead):
    """Coefficients ``(a, b, c)`` of ``gap_crossing``'s case-3 quadratic in ``p``."""
    b = -2.0 * (big_x * big_phi + lead * gap)
    c = big_phi * (big_x * big_phi + 2.0 * lead)
    return big_x * gap, b, c


def _gap_witness(
    g: GameInstance, baseline: tuple[float, float]
) -> tuple[Transfer, CaseLabel] | None:
    """The equal-gain split at ratio gap ``2 * RIDGE_RTOL``, with its case label.

    The witness keeps the weaker ratio with the same player (the game's own
    side of the ridge) and moves budgets and valuations onto the gap curve
    of ``gap_crossing``.  Along the curve ``u_w`` rises and ``u_s`` falls
    with ``p``, so the crossing ``d_w = d_s`` is the best split there.  It
    is taken from the piece that ``case_of`` confirms at its solution.
    """
    swapped = g.x2 / g.phi2 < g.x1 / g.phi1
    if swapped:
        phi_w, x_w, lead = g.phi2, g.x2, baseline[1] - baseline[0]
    else:
        phi_w, x_w, lead = g.phi1, g.x1, baseline[0] - baseline[1]
    big_phi, big_x = g.total_valuation, g.total_budget
    gap = 2.0 * RIDGE_RTOL
    # Case 3 needs X < 1 and case 4 X >= 1; case 1 comes last, for rich w.
    for index in (3, 2, 1) if big_x < 1.0 else (2, 1, 4):
        p = gap_crossing(index, big_phi, big_x, gap, lead)
        if p is None or not 0.0 < p < big_phi:
            continue
        xw = (1.0 - gap) * big_x * p / (big_phi - gap * p)
        if case_of(p, big_phi - p, xw, big_x - xw)[0] == index:
            tau, nu = x_w - xw, phi_w - p
            witness = Transfer(-tau, -nu) if swapped else Transfer(tau, nu)
            return witness, CaseLabel.of(index, swapped)
    return None


def joint_mutual_exists(g: GameInstance) -> MutualBenefitVerdict:
    """Mutually beneficial joint transfer, from the collective surplus.

    A surplus at or below twice the gain floor certifies absence (no route,
    unflagged).  Otherwise the equal-gain split at the sliver's edge
    (``_gap_witness``) is validated through the payoff map and named
    ``exact:<case label>``; when it fails, both players gain only inside the
    ridge sliver, the flagged ``ridge-knife-edge``.
    """
    baseline = player_payoffs(g)
    gain = min_gain(g)
    if max_collective_payoff(g) - (baseline[0] + baseline[1]) <= 2.0 * gain:
        return MutualBenefitVerdict(Mechanism.JOINT, False, None, None, False)
    found = _gap_witness(g, baseline)
    if found is not None:
        witness, label = found
        d1, d2 = payoff_deltas(g, witness, baseline)
        if d1 > gain and d2 > gain:
            return MutualBenefitVerdict(
                Mechanism.JOINT, True, witness, f"exact:{label}", thin_margin(g, min(d1, d2))
            )
    return MutualBenefitVerdict(Mechanism.JOINT, False, None, "ridge-knife-edge", True)
