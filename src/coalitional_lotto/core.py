"""Core domain types and the one-vs-one General Lotto equilibrium payoff.

A game instance bundles the two players' cumulative contest valuations
(``phi1``, ``phi2``) and budgets (``x1``, ``x2``).  The common adversary's
budget is normalized to 1, so player budgets are expressed in units of the
adversary budget.  All downstream analysis (best response, transfer
benefits, collective optima) reduces to the closed-form equilibrium payoff
of a single General Lotto game, implemented here as ``u_player`` on plain
floats and wrapped with validation by ``one_v_one_payoff``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

__all__ = [
    "GameValidationError",
    "InfeasibleTransferError",
    "GameInstance",
    "Transfer",
    "Mechanism",
    "PayoffPair",
    "EPS_FEAS",
    "u_player",
    "one_v_one_payoff",
    "transfer_params",
    "post_transfer_params",
    "post_transfer",
    "swap_indices",
]

# Transfers that would numerically zero out a budget or valuation are
# rejected; feasibility intervals are open.
EPS_FEAS = 1e-12


class GameValidationError(ValueError):
    """Game parameters are outside the valid domain (positive finite reals)."""


class InfeasibleTransferError(ValueError):
    """A transfer would push a budget or valuation to zero or below."""


def _require_positive(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise GameValidationError(f"{name} must be a positive finite real, got {value!r}")
    return value


def _require_nonnegative(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value) or value < 0.0:
        raise GameValidationError(f"{name} must be a nonnegative finite real, got {value!r}")
    return value


@dataclass(frozen=True)
class GameInstance:
    """A two-front game: valuations ``phi1``, ``phi2`` and budgets ``x1``, ``x2``.

    The adversary budget is implicitly 1.  All four parameters must be
    strictly positive.
    """

    phi1: float
    phi2: float
    x1: float
    x2: float

    def __post_init__(self) -> None:
        for name in ("phi1", "phi2", "x1", "x2"):
            object.__setattr__(self, name, _require_positive(name, getattr(self, name)))

    @property
    def total_valuation(self) -> float:
        return self.phi1 + self.phi2

    @property
    def total_budget(self) -> float:
        return self.x1 + self.x2

    def as_dict(self) -> dict:
        return {"phi1": self.phi1, "phi2": self.phi2, "x1": self.x1, "x2": self.x2}

    @classmethod
    def from_dict(cls, data: dict) -> "GameInstance":
        try:
            return cls(data["phi1"], data["phi2"], data["x1"], data["x2"])
        except KeyError as exc:
            raise GameValidationError(f"missing game field {exc}") from exc


@dataclass(frozen=True)
class Transfer:
    """A transfer from player 1 to player 2: budget ``tau``, valuation ``nu``.

    Negative components move resources in the opposite direction.  Feasibility
    is relative to a game instance: ``-x2 < tau < x1`` and ``-phi2 < nu < phi1``
    (open intervals, checked with slack ``EPS_FEAS``; see ``transfer_params``).
    """

    tau: float = 0.0
    nu: float = 0.0

    def __post_init__(self) -> None:
        for name in ("tau", "nu"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise GameValidationError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)

    def as_dict(self) -> dict:
        return {"tau": self.tau, "nu": self.nu}


class Mechanism(Enum):
    """What a transfer moves: budget, contest valuation, or both."""

    BUDGET = "budget"
    CONTEST = "contest"
    JOINT = "joint"


@dataclass(frozen=True)
class PayoffPair:
    """Equilibrium payoffs of one General Lotto game: player and adversary.

    The two components always sum to the contest valuation of that game.
    """

    u_player: float
    u_adversary: float


def u_player(phi: float, x_player: float, x_adv: float) -> float:
    """Player's equilibrium payoff in one General Lotto game, on plain floats.

    ``phi * x_player / (2 * x_adv)`` when outgunned (``x_player <= x_adv``),
    ``phi * (1 - x_adv / (2 * x_player))`` otherwise.  Zero-budget limits: a
    player with no budget facing a positive adversary budget gets 0; an
    unopposed player wins everything; if both budgets are zero the player
    wins all contests (ties go to the player).  No validation: callers pass
    a positive ``phi`` and nonnegative budgets.
    """
    if x_player <= x_adv:
        return phi * (x_player / (2.0 * x_adv)) if x_adv > 0.0 else phi
    return phi * (1.0 - x_adv / (2.0 * x_player))


def one_v_one_payoff(phi: float, x_player: float, x_adv: float) -> PayoffPair:
    """Equilibrium payoffs of a single General Lotto game (see ``u_player``).

    Validates its inputs; the adversary gets what the player does not.
    """
    phi = _require_positive("phi", phi)
    x_player = _require_nonnegative("x_player", x_player)
    x_adv = _require_nonnegative("x_adv", x_adv)
    u = u_player(phi, x_player, x_adv)
    return PayoffPair(u, phi - u)


def transfer_params(g: GameInstance, tau: float, nu: float) -> tuple[float, float, float, float]:
    """Post-transfer parameters ``(phi1 - nu, phi2 + nu, x1 - tau, x2 + tau)``, on floats.

    The feasibility rule: every component must stay above ``EPS_FEAS``, or
    above ``EPS_FEAS`` times its own pre-transfer value when that is below 1,
    so the zero transfer is feasible on every valid game.  Otherwise
    ``InfeasibleTransferError`` is raised.
    """
    phi1 = g.phi1 - nu
    phi2 = g.phi2 + nu
    x1 = g.x1 - tau
    x2 = g.x2 + tau
    if phi1 > EPS_FEAS and phi2 > EPS_FEAS and x1 > EPS_FEAS and x2 > EPS_FEAS:
        return phi1, phi2, x1, x2
    if all(
        after > EPS_FEAS * min(1.0, before)
        for after, before in ((phi1, g.phi1), (phi2, g.phi2), (x1, g.x1), (x2, g.x2))
    ):
        return phi1, phi2, x1, x2
    raise InfeasibleTransferError(
        f"transfer (tau={tau}, nu={nu}) infeasible for game {g.as_dict()}"
    )


def post_transfer_params(g: GameInstance, t: Transfer) -> tuple[float, float, float, float]:
    """``transfer_params`` of a ``Transfer``."""
    return transfer_params(g, t.tau, t.nu)


def post_transfer(g: GameInstance, t: Transfer) -> GameInstance:
    """Apply a transfer: ``(phi1 - nu, phi2 + nu, x1 - tau, x2 + tau)``.

    Raises ``InfeasibleTransferError`` when a component would be driven to
    zero or below.  Total valuation and total player budget are preserved.
    """
    return GameInstance(*post_transfer_params(g, t))


def swap_indices(g: GameInstance) -> GameInstance:
    """Relabel the players: ``(phi2, phi1, x2, x1)``.  Involutive."""
    return GameInstance(g.phi2, g.phi1, g.x2, g.x1)
