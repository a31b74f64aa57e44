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

import math
from dataclasses import dataclass

import numpy as np

from .adversary import player_payoffs
from .batch import GameArrays
from .core import GameInstance, Mechanism, Transfer, ops_for
from .search import line_pairs, min_gain

__all__ = [
    "CollectiveReport",
    "collective_payoff",
    "ridge_transfer",
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

    @classmethod
    def of(cls, g: GameInstance, baseline: float, optimum: float) -> "CollectiveReport":
        """The report of ``g`` from its baseline payoff sum and ``max_collective_payoff(g)``.

        The optimum improves on the baseline when the surplus exceeds the
        mutual verdicts' gain floor, ``search.min_gain``, so a transfer that
        benefits both players always counts as a collective improvement too.
        """
        return cls(
            baseline=baseline,
            optimum=optimum,
            optimal_budget=optimal_budget_transfer(g),
            optimal_contest=optimal_contest_transfer(g),
            improvable=optimum - baseline > min_gain(g),
        )


def collective_payoff(g: GameInstance, t: Transfer = Transfer()) -> float:
    """Sum of both players' payoffs after a transfer."""
    u1, u2 = player_payoffs(g, t)
    return u1 + u2


def ridge_transfer(g: GameInstance | GameArrays, mechanism: Mechanism):
    """The budget or contest transfer that equalizes the two ratios.

    With the pair the mechanism moves, ``m``, and the pair it keeps, ``k``
    (``search.line_pairs``), it is ``(m1 k2 - m2 k1) / (k1 + k2)``; always
    strictly feasible.  Where that overflows, it is recomputed on each pair
    scaled below 1 by a power of two, which is exact, and scaled back.  A
    float for one game, an array of them for a ``GameArrays``.
    """
    pairs = line_pairs(g, mechanism)
    if isinstance(g, GameArrays):
        with np.errstate(over="ignore", invalid="ignore"):
            v = _ridge_form(*pairs)
        over = ~np.isfinite(v)
        v[over] = _scaled_ridge(*(p[over] for p in pairs))
        return v
    v = _ridge_form(*pairs)
    return v if math.isfinite(v) else _scaled_ridge(*pairs)


def _ridge_form(m1, m2, k1, k2):
    """``(m1 k2 - m2 k1) / (k1 + k2)``, NaN where ``k1 + k2`` overflows."""
    kept = k1 + k2
    # ``kept / kept`` is 1 exactly, or NaN when ``kept`` is inf.
    return (m1 * k2 - m2 * k1) / kept * (kept / kept)


def _scaled_ridge(m1, m2, k1, k2):
    """``_ridge_form`` on each pair scaled below 1 by a power of two, scaled back."""
    frexp, ldexp, top = ops_for(m1)[2:]
    a, b = frexp(top(m1, m2))[1], frexp(top(k1, k2))[1]
    return ldexp(_ridge_form(ldexp(m1, -a), ldexp(m2, -a), ldexp(k1, -b), ldexp(k2, -b)), a)


def optimal_contest_transfer(g: GameInstance) -> Transfer:
    """The valuation transfer onto the equal-ratio ridge (``ridge_transfer``)."""
    return Transfer(0.0, ridge_transfer(g, Mechanism.CONTEST))


def optimal_budget_transfer(g: GameInstance) -> Transfer:
    """The budget transfer onto the equal-ratio ridge (``ridge_transfer``)."""
    return Transfer(ridge_transfer(g, Mechanism.BUDGET), 0.0)


def max_collective_payoff(g: GameInstance | GameArrays):
    """Closed-form maximum of the collective payoff over all transfers.

    A float for one game, an array of them for a ``GameArrays``.
    """
    if isinstance(g, GameArrays):
        # Every element computes both forms, and the one it does not take
        # may overflow: budgets near the float range's top or bottom.
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            total_b, rich, poor = _collective_forms(g)
        return np.where(total_b >= 1.0, rich, poor)
    total_b, rich, poor = _collective_forms(g)
    return rich if total_b >= 1.0 else poor


def _collective_forms(g):
    """Total budget and the collective maximum when it is at least 1 and below 1.

    The rich form ``(1 - 1 / (2 X)) Phi`` is written ``(X - 1/2) / X * Phi``,
    which doubles no budget, so it stays finite for every ``X`` up to the
    top of the float range.
    """
    total_b = g.x1 + g.x2
    total_v = g.phi1 + g.phi2
    return total_b, (total_b - 0.5) / total_b * total_v, 0.5 * total_v * total_b


def collectively_beneficial_exists(g: GameInstance) -> bool:
    """Whether any transfer strictly improves the players' combined payoff.

    False exactly when the game already sits on the equal-ratio ridge (up to
    tolerance): there the collective payoff is at its maximum.
    """
    return collective_report(g).improvable


def collective_report(g: GameInstance) -> CollectiveReport:
    """Baseline, optimum, optimal transfers and whether the optimum improves.

    ``CollectiveReport.of`` the game's ``collective_payoff`` and
    ``max_collective_payoff``.
    """
    return CollectiveReport.of(g, collective_payoff(g), max_collective_payoff(g))
