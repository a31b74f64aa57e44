"""Vectorized payoff evaluation over arrays of transfers and of games.

Grid oracles and parameter sweeps evaluate the two players' payoffs at many
transfers, against one game or against many.  This module mirrors the scalar
pipeline in ``adversary`` (classification, closed-form split, equilibrium
payoff) with numpy array operations, so that a few-thousand-point scan costs
a fraction of a millisecond and one call can serve a whole sample of games.
``GameArrays`` holds the parameters of many games under the attribute names
of ``GameInstance``; ``payoffs_at_transfers`` broadcasts them against the
transfers.  The branching logic reads the same tolerance, ``CASE_RTOL``, and
must stay in lockstep with the scalar code; ``tests/test_batch.py`` enforces
agreement bit for bit on random inputs and at the case edges.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .adversary import CASE_RTOL
from .core import EPS_FEAS, GameInstance, Transfer, post_transfer_params

__all__ = [
    "GameArrays",
    "one_v_one_vec",
    "payoffs_at_transfers",
    "collective_at_transfers",
    "require_feasible",
]


class GameArrays(NamedTuple):
    """Parameters of many games, one array per ``GameInstance`` field.

    Anything that reads a game's ``phi1``, ``phi2``, ``x1``, ``x2`` with
    numpy arithmetic, such as ``payoffs_at_transfers``, then works on every
    game at once.  Build it from validated games with ``of``.
    """

    phi1: np.ndarray
    phi2: np.ndarray
    x1: np.ndarray
    x2: np.ndarray

    @classmethod
    def of(cls, games: Sequence[GameInstance]) -> "GameArrays":
        params = np.array([(g.phi1, g.phi2, g.x1, g.x2) for g in games], dtype=float)
        return cls(*params.reshape(-1, 4).T.copy())

    def take(self, rows) -> "GameArrays":
        """The games at ``rows`` (an index array may repeat games)."""
        return GameArrays(*(field[rows] for field in self))

    @property
    def total_valuation(self) -> np.ndarray:
        return self.phi1 + self.phi2


def one_v_one_vec(phi, x_player, x_adv):
    """``core.u_player`` over arrays, bit for bit.

    Branch values are computed unconditionally with guarded denominators,
    then selected.
    """
    safe_adv = np.where(x_adv > 0.0, x_adv, 1.0)
    outgunned = np.where(x_adv > 0.0, phi * (x_player / (2.0 * safe_adv)), phi)
    safe_pl = np.where(x_player > 0.0, x_player, 1.0)
    dominant = phi * (1.0 - x_adv / (2.0 * safe_pl))
    return np.where(x_player <= x_adv, outgunned, dominant)


def payoffs_at_transfers(g: GameInstance | GameArrays, taus, nus):
    """Player payoffs ``(u1, u2)`` for broadcastable arrays of transfers.

    ``g`` is one game, or a ``GameArrays`` whose fields broadcast against
    the transfers, one game per element.  Each payoff equals
    ``adversary.player_payoffs`` bit for bit.  The caller must keep
    transfers strictly feasible (see ``require_feasible``); no validation is
    performed here.
    """
    taus = np.asarray(taus, dtype=float)
    nus = np.asarray(nus, dtype=float)
    p1 = g.phi1 - nus
    p2 = g.phi2 + nus
    b1 = g.x1 - taus
    b2 = g.x2 + taus
    p1, p2, b1, b2 = np.broadcast_arrays(p1, p2, b1, b2)

    r1 = b1 / p1
    r2 = b2 / p2
    equal = np.abs(r1 - r2) <= CASE_RTOL * np.maximum(r1, r2)
    swap = ~equal & (r1 > r2)

    # Oriented views: index w = weaker ratio, s = stronger.
    pw = np.where(swap, p2, p1)
    ps = np.where(swap, p1, p2)
    bw = np.where(swap, b2, b1)
    bs = np.where(swap, b1, b2)

    s = np.sqrt(bw * bs * pw / ps)
    total_b = bw + bs
    case1 = ~equal & (s >= 1.0 - CASE_RTOL * np.maximum(1.0, s))
    case2 = ~equal & ~case1 & (1.0 - s <= bs * (1.0 + CASE_RTOL))
    ridge4 = equal & (total_b >= 1.0)
    # Remaining cells: case 3 proper, or the equal-ratio ridge with
    # total budget < 1 (where the case-3 formula is exact).
    sq_w = np.sqrt(bw * pw)
    sq_s = np.sqrt(bs * ps)
    xa_w = sq_w / (sq_w + sq_s)
    xa_w = np.where(ridge4, bw / total_b, xa_w)
    xa_w = np.where(case2, s, xa_w)
    xa_w = np.where(case1, 1.0, xa_w)

    uw = one_v_one_vec(pw, bw, xa_w)
    us = one_v_one_vec(ps, bs, 1.0 - xa_w)
    u1 = np.where(swap, us, uw)
    u2 = np.where(swap, uw, us)
    return u1, u2


def collective_at_transfers(g: GameInstance | GameArrays, taus, nus):
    """Sum of both players' payoffs over arrays of transfers."""
    u1, u2 = payoffs_at_transfers(g, taus, nus)
    return u1 + u2


def require_feasible(g: GameInstance | GameArrays, taus, nus) -> None:
    """Raise ``InfeasibleTransferError`` where ``core.post_transfer_params`` would.

    Transfers that leave every component above ``EPS_FEAS`` pass at once;
    any other is handed to ``post_transfer_params`` itself, which applies
    the full rule and raises.
    """
    phi1, phi2, x1, x2, taus, nus = np.broadcast_arrays(
        g.phi1, g.phi2, g.x1, g.x2, np.atleast_1d(taus), nus
    )
    clear = (
        (phi1 - nus > EPS_FEAS)
        & (phi2 + nus > EPS_FEAS)
        & (x1 - taus > EPS_FEAS)
        & (x2 + taus > EPS_FEAS)
    )
    for k in zip(*np.nonzero(~clear)):
        game = GameInstance(phi1[k], phi2[k], x1[k], x2[k])
        post_transfer_params(game, Transfer(taus[k], nus[k]))
