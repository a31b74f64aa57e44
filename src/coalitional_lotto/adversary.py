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
Ratio ties and case edges are decided with one fixed relative tolerance,
``CASE_RTOL``, which ``batch`` reads too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .core import (
    GameInstance,
    PayoffPair,
    Transfer,
    one_v_one_payoff,
    transfer_params,
    u_player,
)

__all__ = [
    "Orientation",
    "CaseLabel",
    "AdversaryAllocation",
    "CASE_RTOL",
    "case_of",
    "classify_case",
    "best_response",
    "payoffs_at",
    "player_payoffs",
]

# Relative tolerance for ratio equality and case-boundary membership.  The
# case sets partition the parameter space only up to measure-zero boundaries;
# one fixed tolerance makes classification total and reproducible.  It is a
# numeric tie rule, not a parameter of the model.
CASE_RTOL = 1e-9


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

    @classmethod
    def of(cls, index: int, swapped: bool) -> "CaseLabel":
        """The label of a ``case_of`` result."""
        if index == 4:
            return cls(4, None)
        return cls(index, Orientation.ONE_GT_TWO if swapped else Orientation.ONE_LE_TWO)


@dataclass(frozen=True)
class AdversaryAllocation:
    """Optimal adversary split ``(xa1, xa2)`` of the unit budget."""

    xa1: float
    xa2: float


def case_of(phi1, phi2, x1, x2):
    """Case index and orientation ``(index, swapped)`` of a game, on floats.

    ``swapped`` is true when player 2 has the weaker budget-to-valuation
    ratio.  Equal ratios (within relative ``CASE_RTOL``) give case 4 when the
    players' combined budget covers the adversary's (>= 1) and case 3 in the
    native orientation otherwise (the case-3 split formula is continuous
    through the equal-ratio ridge there).  Boundary membership uses the same
    relative slack; the lower case-2 boundary (expression exactly 0)
    classifies as case 1, where the adversary sends its whole budget to the
    weak side either way.
    """
    r1 = x1 / phi1
    r2 = x2 / phi2
    # Conditional expressions where max() would do: every scalar payoff runs
    # this rule, and a builtin call costs as much as the rest of a test.
    if abs(r1 - r2) <= CASE_RTOL * (r2 if r2 > r1 else r1):
        return (4 if x1 + x2 >= 1.0 else 3), False
    if r1 < r2:
        phi_w, phi_s, x_w, x_s, swapped = phi1, phi2, x1, x2, False
    else:
        phi_w, phi_s, x_w, x_s, swapped = phi2, phi1, x2, x1, True
    s = math.sqrt(x_w * x_s * phi_w / phi_s)
    # The slack of the case-1 edge is relative to max(1, s); any s above 1 is
    # in case 1 whatever the slack, so only its value at 1 counts.
    if s >= 1.0 - CASE_RTOL:
        return 1, swapped
    if 1.0 - s <= x_s * (1.0 + CASE_RTOL):
        return 2, swapped
    return 3, swapped


def classify_case(g: GameInstance) -> CaseLabel:
    """Classify a game into the seven-way case partition (see ``case_of``)."""
    return CaseLabel.of(*case_of(g.phi1, g.phi2, g.x1, g.x2))


def _split_oriented(index, phi_w, phi_s, x_w, x_s):
    """Adversary allocation to the weak-ratio game, by case index."""
    if index == 1:
        return 1.0
    if index == 2:
        return math.sqrt(x_w * x_s * phi_w / phi_s)
    if index == 3:
        a = math.sqrt(x_w * phi_w)
        b = math.sqrt(x_s * phi_s)
        if a + b == 0.0:
            # Both products underflow on subnormal valuations; the roots of
            # the factors keep their ratio.
            a = math.sqrt(x_w) * math.sqrt(phi_w)
            b = math.sqrt(x_s) * math.sqrt(phi_s)
        return a / (a + b)
    # Case 4: any split with xa_i <= x_i is optimal.  Canonical choice is the
    # proportional split, which is always feasible (x_w + x_s >= 1) and agrees
    # with the case-3 formula on the equal-ratio ridge.
    return x_w / (x_w + x_s)


def _split(phi1, phi2, x1, x2):
    """Optimal adversary split ``(xa1, xa2)`` of a game, on floats.

    The weak-ratio side's share comes from the closed form and the other
    side gets the rest, so the two always sum to 1.
    """
    index, swapped = case_of(phi1, phi2, x1, x2)
    if swapped:
        xa2 = _split_oriented(index, phi2, phi1, x2, x1)
        return 1.0 - xa2, xa2
    xa1 = _split_oriented(index, phi1, phi2, x1, x2)
    return xa1, 1.0 - xa1


def best_response(g: GameInstance) -> AdversaryAllocation:
    """Closed-form optimal adversary split for a game (see ``_split``)."""
    return AdversaryAllocation(*_split(g.phi1, g.phi2, g.x1, g.x2))


def payoffs_at(g: GameInstance, tau: float, nu: float) -> tuple[float, float]:
    """Both players' equilibrium payoffs after moving budget ``tau`` and valuation ``nu``.

    Applies the transfer, lets the adversary best-respond to the new
    parameters, and evaluates each front's equilibrium payoff, all on plain
    floats.  Raises ``InfeasibleTransferError`` like ``core.transfer_params``.
    """
    phi1, phi2, x1, x2 = transfer_params(g, tau, nu)
    xa1, xa2 = _split(phi1, phi2, x1, x2)
    return u_player(phi1, x1, xa1), u_player(phi2, x2, xa2)


def player_payoffs(g: GameInstance, t: Transfer = Transfer()) -> tuple[float, float]:
    """``payoffs_at`` after a ``Transfer``."""
    return payoffs_at(g, t.tau, t.nu)


def adversary_value(g: GameInstance, xa1: float, xa2: float) -> float:
    """Adversary payoff for an arbitrary split against a (post-transfer) game."""
    a1: PayoffPair = one_v_one_payoff(g.phi1, g.x1, xa1)
    a2: PayoffPair = one_v_one_payoff(g.phi2, g.x2, xa2)
    return a1.u_adversary + a2.u_adversary
