"""Vectorized payoff evaluation over arrays of transfers and of games.

Grid oracles and parameter sweeps evaluate the two players' payoffs at many
transfers, against one game or against many.  This module mirrors the scalar
pipeline in ``adversary`` (classification, closed-form split, equilibrium
payoff) with numpy array operations, so that one call can serve a whole
scan or a whole sample of games.  ``GameArrays`` holds the parameters of
many games under the attribute names of ``GameInstance``;
``payoffs_at_transfers`` broadcasts them against the transfers.

A call's cost is about fifty array passes plus numpy's fixed cost per
call, so the kernel keeps both down: it broadcasts by arithmetic alone,
fills the adversary's share in one array case by case, and does the
equal-ratio ridge's work only when some element lies on it.  Each front's
payoff takes one division (``one_v_one_vec``).

``case_of`` is the one vector case rule: the payoffs and the sweeps' array
verdicts classify through it.  It reads the same tolerance, ``CASE_RTOL``,
and must stay in lockstep with ``adversary.case_of``.  ``tests/test_batch.py``
holds the case rule and the payoffs to the scalar pipeline bit for bit: on
random inputs, on games over twelve and twenty-four decades, and on each
side of every case edge.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .adversary import CASE_RTOL
from .core import EPS_FEAS, GameInstance, Transfer, post_transfer_params

__all__ = [
    "GameArrays",
    "one_v_one_vec",
    "case_of",
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

    @property
    def total_budget(self) -> np.ndarray:
        return self.x1 + self.x2


def one_v_one_vec(phi, x_player, x_adv):
    """``core.u_player`` over arrays, bit for bit.

    Each branch divides the smaller budget by twice the larger, so one
    division serves both; where both budgets are 0 the quotient is left at
    1, and the player keeps ``phi``.
    """
    lo = np.minimum(x_player, x_adv)
    twice = 2.0 * np.maximum(x_player, x_adv)
    if twice.all():
        share = lo / twice
    else:
        share = np.divide(lo, twice, out=np.ones(np.shape(twice)), where=twice > 0.0)
    return phi * np.where(x_player <= x_adv, share, 1.0 - share)


def _case_rule(phi1, phi2, x1, x2):
    """The case rule of ``adversary.case_of`` over arrays, as masks and views.

    Returns ``(equal, swapped, case1, case2, pw, ps, bw, bs, s)``: the
    equal-ratio mask, or None when no element lies on the ridge; the
    orientation; the case-1 and case-2 tests (which count only off the
    ridge); the valuations and budgets of the weak-ratio (``w``) and
    strong-ratio (``s``) sides; and the adversary's case-2 share ``s`` of
    the weak front.
    """
    r1 = x1 / phi1
    r2 = x2 / phi2
    equal = np.abs(r1 - r2) <= CASE_RTOL * np.maximum(r1, r2)
    swapped = ~np.less(r1, r2)
    if equal.any():
        swapped &= ~equal
    else:
        equal = None
    pw = np.where(swapped, phi2, phi1)
    ps = np.where(swapped, phi1, phi2)
    bw = np.where(swapped, x2, x1)
    bs = np.where(swapped, x1, x2)
    # x1 * x2 is bw * bs in either orientation: a product does not depend on
    # the order of its factors.
    s = np.sqrt(x1 * x2 * pw / ps)
    case1 = s >= 1.0 - CASE_RTOL  # as in ``adversary.case_of``
    case2 = 1.0 - s <= bs * (1.0 + CASE_RTOL)
    return equal, swapped, case1, case2, pw, ps, bw, bs, s


def case_of(phi1, phi2, x1, x2):
    """``adversary.case_of`` over broadcastable arrays: ``(index, swapped)``.

    Each element equals the scalar rule's result on the same floats.
    """
    equal, swapped, case1, case2, *_ = _case_rule(phi1, phi2, x1, x2)
    index = np.where(case1, 1, np.where(case2, 2, 3))
    if equal is not None:
        index = np.where(equal, np.where(x1 + x2 >= 1.0, 4, 3), index)
    return index, swapped


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
    equal, swap, case1, case2, pw, ps, bw, bs, s = _case_rule(
        g.phi1 - nus, g.phi2 + nus, g.x1 - taus, g.x2 + taus
    )
    # The case-3 share, exact on the equal-ratio ridge with total budget < 1
    # too.  Both products underflow only on subnormal valuations; the roots
    # are then taken factor by factor, as in ``adversary``.
    root_w = np.sqrt(bw * pw)
    roots = root_w + np.sqrt(bs * ps)
    if not roots.all():
        under = roots == 0.0
        root_w = np.where(under, np.sqrt(bw) * np.sqrt(pw), root_w)
        roots = np.where(under, root_w + np.sqrt(bs) * np.sqrt(ps), roots)
    case3 = root_w / roots
    # The adversary's share of the weak front, filled case by case.
    xa_w = np.where(case2, s, case3)
    np.copyto(xa_w, 1.0, where=case1)
    if equal is not None:
        total_b = bw + bs
        np.copyto(xa_w, case3, where=equal)
        np.divide(bw, total_b, out=xa_w, where=equal & (total_b >= 1.0))

    uw = one_v_one_vec(pw, bw, xa_w)
    us = one_v_one_vec(ps, bs, 1.0 - xa_w)
    return np.where(swap, us, uw), np.where(swap, uw, us)


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
