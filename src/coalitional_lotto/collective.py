"""Collective payoff optima: transfers that maximize the players' sum.

The sum of the players' payoffs is maximized exactly when the post-transfer
budget-to-valuation ratios agree, and the maximum value depends only on the
total budget and total valuation:

* combined budget >= 1:  ``(2S - 1) / (2S) * (phi1 + phi2)`` with
  ``S = x1 + x2``;
* combined budget < 1:   ``(phi1 + phi2) * S / 2``.

Because budget transfers preserve valuations and contest transfers preserve
budgets, both mechanisms (and joint transfers) reach the same ridge and the
same maximum; only the equalizing transfer amount differs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adversary import player_payoffs
from .batch import GameArrays
from .core import GameInstance, Transfer
from .search import min_gain

__all__ = [
    "CollectiveReport",
    "collective_payoff",
    "optimal_contest_transfer",
    "optimal_budget_transfer",
    "max_collective_payoff",
    "collectively_beneficial_exists",
    "collective_report",
]

@dataclass(frozen=True)
class CollectiveReport:
    baseline: float
    optimum: float
    optimal_budget: Transfer
    optimal_contest: Transfer
    improvable: bool

    def as_dict(self) -> dict:
        return {
            "baseline": self.baseline,
            "optimum": self.optimum,
            "optimal_budget": self.optimal_budget.as_dict(),
            "optimal_contest": self.optimal_contest.as_dict(),
            "improvable": self.improvable,
        }


def collective_payoff(g: GameInstance, t: Transfer = Transfer()) -> float:
    """Sum of both players' payoffs after a transfer."""
    u1, u2 = player_payoffs(g, t)
    return u1 + u2


def optimal_contest_transfer(g: GameInstance) -> Transfer:
    """The valuation transfer that equalizes budget-to-valuation ratios.

    ``nu = (x2*phi1 - x1*phi2) / (x1 + x2)``; always strictly feasible.
    """
    nu = (g.x2 * g.phi1 - g.x1 * g.phi2) / (g.x1 + g.x2)
    return Transfer(0.0, nu)


def optimal_budget_transfer(g: GameInstance) -> Transfer:
    """The budget transfer that equalizes budget-to-valuation ratios.

    ``tau = (x1*phi2 - x2*phi1) / (phi1 + phi2)``; always strictly feasible.
    """
    tau = (g.x1 * g.phi2 - g.x2 * g.phi1) / (g.phi1 + g.phi2)
    return Transfer(tau, 0.0)


def max_collective_payoff(g: GameInstance | GameArrays):
    """Closed-form maximum of the collective payoff over all transfers.

    A float for one game, an array of them for a ``GameArrays``.
    """
    total_b = g.x1 + g.x2
    total_v = g.phi1 + g.phi2
    rich = (2.0 * total_b - 1.0) / (2.0 * total_b) * total_v
    poor = 0.5 * total_v * total_b
    if isinstance(g, GameArrays):
        return np.where(total_b >= 1.0, rich, poor)
    return rich if total_b >= 1.0 else poor


def collectively_beneficial_exists(g: GameInstance) -> bool:
    """Whether any transfer strictly improves the players' combined payoff.

    False exactly when the game already sits on the equal-ratio ridge (up to
    tolerance): there the collective payoff is at its maximum.
    """
    return collective_report(g).improvable


def collective_report(g: GameInstance) -> CollectiveReport:
    """Baseline, optimum, optimal transfers and whether the optimum improves.

    The optimum improves on the baseline when the surplus exceeds the mutual
    verdicts' gain floor, ``search.min_gain``, so a transfer that benefits
    both players always counts as a collective improvement too.
    """
    baseline = collective_payoff(g)
    optimum = max_collective_payoff(g)
    return CollectiveReport(
        baseline=baseline,
        optimum=optimum,
        optimal_budget=optimal_budget_transfer(g),
        optimal_contest=optimal_contest_transfer(g),
        improvable=optimum - baseline > min_gain(g),
    )
