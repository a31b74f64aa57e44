"""Adversary best response: case classification, optimal split, player payoffs.

Against a two-front game the adversary splits its unit budget to maximize the
sum of its two equilibrium payoffs.  The optimal split takes one of seven
structural forms ("cases"): for the orientation where player 1 has the weaker
budget-to-valuation ratio,

* case 1 -- the adversary sends everything to game 1;
* case 2 -- it overshoots player 1's budget and equates marginal payoffs,
  putting ``sqrt(x1*x2*phi1/phi2)`` on game 1;
* case 3 -- its budget exceeds both players combined and it splits
  proportionally to ``sqrt(x_i*phi_i)``;
* case 4 -- equal ratios with enough combined player budget: the adversary is
  indifferent among all splits with ``xa_i <= x_i``.

The mirrored orientation swaps indices.  Case 4 carries no orientation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .core import GameInstance, PayoffPair, Transfer, one_v_one_payoff, post_transfer

__all__ = [
    "Orientation",
    "CaseLabel",
    "AdversaryAllocation",
    "DEFAULT_EPS",
    "classify_case",
    "best_response",
    "player_payoffs",
]

# Relative tolerance for ratio equality and case-boundary membership.  The
# case sets partition the parameter space only up to measure-zero boundaries;
# a deterministic tolerance makes classification total and reproducible.
DEFAULT_EPS = 1e-9


class Orientation(Enum):
    ONE_LE_TWO = "1le2"
    ONE_GT_TWO = "1gt2"


@dataclass(frozen=True)
class CaseLabel:
    """Structural form of the adversary's best response.

    ``index`` is 1..4; ``orientation`` says which player has the weaker
    budget-to-valuation ratio, and is None for case 4 (equal ratios).
    """

    index: int
    orientation: Orientation | None

    def __str__(self) -> str:
        if self.index == 4:
            return "C4"
        return f"C{self.index}_{self.orientation.value}"

    @property
    def swapped(self) -> bool:
        return self.orientation is Orientation.ONE_GT_TWO


@dataclass(frozen=True)
class AdversaryAllocation:
    """Optimal adversary split ``(xa1, xa2)`` of the unit budget."""

    xa1: float
    xa2: float


def _classify_oriented(phi_w, phi_s, x_w, x_s, eps):
    """Case index for an oriented game (weak-ratio side first).

    Boundary membership uses the same relative slack ``eps``; the lower case-2
    boundary (expression exactly 0) classifies as case 1, where the adversary
    sends its whole budget to the weak side either way.
    """
    s = math.sqrt(x_w * x_s * phi_w / phi_s)
    if s >= 1.0 - eps * max(1.0, s):
        return 1
    if 1.0 - s <= x_s * (1.0 + eps):
        return 2
    return 3


def classify_case(g: GameInstance, eps: float = DEFAULT_EPS) -> CaseLabel:
    """Classify a game into the seven-way case partition.

    Equal budget-to-valuation ratios give case 4 when the players' combined
    budget covers the adversary's (>= 1) and case 3 otherwise (the case-3
    split formula is continuous through the equal-ratio ridge there).
    """
    r1 = g.x1 / g.phi1
    r2 = g.x2 / g.phi2
    if abs(r1 - r2) <= eps * max(r1, r2):
        if g.x1 + g.x2 >= 1.0:
            return CaseLabel(4, None)
        return CaseLabel(3, Orientation.ONE_LE_TWO)
    if r1 < r2:
        index = _classify_oriented(g.phi1, g.phi2, g.x1, g.x2, eps)
        return CaseLabel(index, Orientation.ONE_LE_TWO)
    index = _classify_oriented(g.phi2, g.phi1, g.x2, g.x1, eps)
    return CaseLabel(index, Orientation.ONE_GT_TWO)


def _split_oriented(index, phi_w, phi_s, x_w, x_s):
    """Adversary allocation to the weak-ratio game, by case index."""
    if index == 1:
        return 1.0
    if index == 2:
        return math.sqrt(x_w * x_s * phi_w / phi_s)
    if index == 3:
        a = math.sqrt(x_w * phi_w)
        b = math.sqrt(x_s * phi_s)
        return a / (a + b)
    # Case 4: any split with xa_i <= x_i is optimal.  Canonical choice is the
    # proportional split, which is always feasible (x_w + x_s >= 1) and agrees
    # with the case-3 formula on the equal-ratio ridge.
    return x_w / (x_w + x_s)


def best_response(g: GameInstance, eps: float = DEFAULT_EPS) -> AdversaryAllocation:
    """Closed-form optimal adversary split for a game.

    Uses the full unit budget; in every case the two components sum to 1.
    """
    label = classify_case(g, eps)
    if label.swapped:
        xa2 = _split_oriented(label.index, g.phi2, g.phi1, g.x2, g.x1)
        return AdversaryAllocation(1.0 - xa2, xa2)
    xa1 = _split_oriented(label.index, g.phi1, g.phi2, g.x1, g.x2)
    return AdversaryAllocation(xa1, 1.0 - xa1)


def player_payoffs(
    g: GameInstance, t: Transfer = Transfer(), eps: float = DEFAULT_EPS
) -> tuple[float, float]:
    """Both players' equilibrium payoffs after a transfer.

    Applies the transfer, lets the adversary best-respond to the new
    parameters, and evaluates each front's equilibrium payoff.
    """
    gb = post_transfer(g, t)
    xa = best_response(gb, eps)
    u1 = one_v_one_payoff(gb.phi1, gb.x1, xa.xa1).u_player
    u2 = one_v_one_payoff(gb.phi2, gb.x2, xa.xa2).u_player
    return u1, u2


def adversary_value(g: GameInstance, xa1: float, xa2: float) -> float:
    """Adversary payoff for an arbitrary split against a (post-transfer) game."""
    a1: PayoffPair = one_v_one_payoff(g.phi1, g.x1, xa1)
    a2: PayoffPair = one_v_one_payoff(g.phi2, g.x2, xa2)
    return a1.u_adversary + a2.u_adversary
