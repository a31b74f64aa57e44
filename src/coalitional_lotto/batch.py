"""Vectorized payoff evaluation over arrays of transfers and of games.

Grid oracles and parameter sweeps evaluate the two players' payoffs at many
transfers, against one game or against many.  This module mirrors the scalar
pipeline in ``adversary`` (classification, closed-form split, equilibrium
payoff) with numpy array operations, so that one call can serve a whole
scan or a whole sample of games.  ``GameArrays`` holds the parameters of
many games under the attribute names of ``GameInstance``;
``payoffs_at_transfers`` broadcasts them against the transfers.  Its front
stage, ``_front_payoffs``, scores the weak-ratio and strong-ratio fronts;
``payoffs_at_transfers`` then hands each player its own, and
``collective_at_transfers`` sums the two fronts as they stand, which float
addition makes the same sum bit for bit.

A call's cost is its array passes plus numpy's fixed cost per call, so the
kernel keeps both down: it broadcasts by arithmetic alone and fills the
adversary's share in one array case by case.  Two pieces of work are done
only when some element needs them: the equal-ratio ridge's, when some
element lies on it, and case 3's (two roots per front and the lost-share
fallback), when some element takes it.  Each front's payoff takes one
division, built in place (``one_v_one_vec``).  Counted over verify's line
scans of 4001 points, which mostly hold cases 1 and 2 only, a call makes
about 45 array passes; one that takes case 3 makes about 13 more.

``case_of`` is the one vector case rule: the payoffs and the sweeps' array
verdicts classify through it.  It reads the same tolerance, ``CASE_RTOL``,
decides the lanes whose two ratios are equal below the smallest normal
float or both overflow to inf on the same ``adversary.exact_ratios``, and
must stay in lockstep with ``adversary.case_of``.  Where the rest of a
case-3 split rounds to 0, the strong front gets its own closed form, as in
``adversary._split``.
``tests/test_batch.py`` holds the case rule and the payoffs to the scalar
pipeline bit for bit: on random inputs, on games over twelve and
twenty-four decades, over the whole float range, and on each side of every
case edge.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple, Sequence

import numpy as np

from .adversary import CASE_RTOL, exact_ratios
from .core import GameInstance, Transfer, post_transfer_params, root_product, transfer_feasible

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
    1, and the player keeps ``phi``.  Each element is decided on its own,
    so a NaN budget gives NaN, as in ``u_player``.  The quotient is built
    in place in the fresh array of ``np.minimum`` and the divisor in that
    of ``np.maximum``, so no caller's array is written; 0-d budgets, for
    which numpy returns scalars, take the same steps on scalars.
    """
    share = np.minimum(x_player, x_adv)
    twice = np.maximum(x_player, x_adv)
    if share.ndim == 0:
        twice = 2.0 * twice
        share = share / twice if twice != 0.0 else np.float64(1.0)
        return phi * (share if x_player <= x_adv else 1.0 - share)
    twice *= 2.0
    if twice.all():
        np.divide(share, twice, out=share)
    else:
        share = np.divide(share, twice, out=np.ones(share.shape), where=twice != 0.0)
    np.subtract(1.0, share, out=share, where=x_player > x_adv)
    return phi * share


def _case_rule(phi1, phi2, x1, x2):
    """The case rule of ``adversary.case_of`` over arrays, as masks and views.

    Returns ``(equal, swapped, case1, case2, pw, ps, bw, bs, s)``: the
    equal-ratio mask, or None when every element is clear of the ridge; the
    orientation; the case-1 and case-2 tests (which count only off the
    ridge); the valuations and budgets of the weak-ratio (``w``) and
    strong-ratio (``s``) sides; and the adversary's case-2 share ``s`` of
    the weak front.
    """
    r1 = x1 / phi1
    r2 = x2 / phi2
    gap = np.abs(r1 - r2)
    lim = CASE_RTOL * np.maximum(r1, r2)
    off = gap > lim
    # Off the ridge, >= orients as ``adversary.case_of`` does.  ``off`` is
    # false on the ridge and where the gap is NaN, so a call with neither
    # tests nothing more.
    swapped = np.greater_equal(r1, r2)
    if off.all():
        equal = None
    else:
        if np.min(r1) < sys.float_info.min or math.isnan(gap.max()):
            # Two equal ratios that are subnormal or 0 (which ``lim`` cannot
            # tell, as ``CASE_RTOL * r`` rounds subnormals together) or both
            # inf (a NaN gap) are decided again on ``exact_ratios``, as in
            # the scalar rule.  A NaN gap left after that comes from a NaN
            # input, which the scalar rule leaves swapped.
            edge = np.equal(r1, r2) & ((r1 < sys.float_info.min) | (r1 == math.inf))
            if edge.any():
                e1, e2 = exact_ratios(*np.broadcast_arrays(phi1, phi2, x1, x2))
                r1 = np.where(edge, e1, r1)
                r2 = np.where(edge, e2, r2)
                gap = np.abs(r1 - r2)
                lim = CASE_RTOL * np.maximum(r1, r2)
                swapped = np.greater_equal(r1, r2)
            swapped |= np.isnan(gap)
        # One ratio that overflows to inf is no tie (inf <= inf), as in the
        # scalar rule; ``>=`` above already orients it.
        equal = (gap <= lim) & (gap < math.inf)
        swapped &= ~equal
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


# A subnormal valuation overflows its ratio, and the share ``s``, to inf, and
# two inf ratios leave a NaN gap; budgets or valuations near the top of the
# float range overflow their sums and products.  The case rule and the
# payoffs decide these as the scalar pipeline does, without a warning.
@np.errstate(over="ignore", invalid="ignore")
def case_of(phi1, phi2, x1, x2):
    """``adversary.case_of`` over broadcastable arrays: ``(index, swapped)``.

    Each element equals the scalar rule's result on the same floats.
    """
    equal, swapped, case1, case2, *_ = _case_rule(phi1, phi2, x1, x2)
    index = np.where(case1, 1, np.where(case2, 2, 3))
    if equal is not None:
        index = np.where(equal, np.where(x1 + x2 >= 1.0, 4, 3), index)
    return index, swapped


@np.errstate(over="ignore", invalid="ignore")
def _front_payoffs(g: GameInstance | GameArrays, taus, nus):
    """The payoffs by front, ``(swapped, u_w, u_s)``, of ``payoffs_at_transfers``.

    ``u_w`` is the payoff of the player with the weak ratio and ``u_s`` that
    of the other; player 1 is the weak one where ``swapped`` is false.
    """
    taus = np.asarray(taus, dtype=float)
    nus = np.asarray(nus, dtype=float)
    equal, swap, case1, case2, pw, ps, bw, bs, s = _case_rule(
        g.phi1 - nus, g.phi2 + nus, g.x1 - taus, g.x2 + taus
    )
    # The adversary's share of the weak front, filled case by case; case 3
    # is taken off the ridge where neither case 1 nor case 2 holds, and on
    # it where the total budget is below 1.
    xa_w = np.where(case1, 1.0, s)
    settled = case1 | case2
    if equal is not None:
        total_b = bw + bs
        rich = equal & (total_b >= 1.0)
        np.divide(bw, total_b, out=xa_w, where=rich)
        settled = np.where(equal, rich, settled)
    if settled.all():
        xa_s = 1.0 - xa_w
    else:
        # The case-3 share, exact on the ridge too.  Each root is
        # ``core.root_product``, as in ``adversary``.
        root_w = root_product(bw, pw)
        root_s = root_product(bs, ps)
        case3 = root_w / (root_w + root_s)
        xa_w = np.where(settled, xa_w, case3)
        xa_s = 1.0 - xa_w
        lost = np.equal(case3, 1.0)
        if lost.any():
            # Where a case-3 share that rounds to 1 is taken, the strong
            # front gets its own closed form, as in ``adversary._split``.
            xa_s = np.where(lost & ~settled, root_s / (root_w + root_s), xa_s)
    return swap, one_v_one_vec(pw, bw, xa_w), one_v_one_vec(ps, bs, xa_s)


def payoffs_at_transfers(g: GameInstance | GameArrays, taus, nus):
    """Player payoffs ``(u1, u2)`` for broadcastable arrays of transfers.

    ``g`` is one game, or a ``GameArrays`` whose fields broadcast against
    the transfers, one game per element.  Each payoff equals
    ``adversary.player_payoffs`` bit for bit.  The caller must keep
    transfers strictly feasible (see ``require_feasible``); no validation is
    performed here.
    """
    swap, uw, us = _front_payoffs(g, taus, nus)
    return np.where(swap, us, uw), np.where(swap, uw, us)


def collective_at_transfers(g: GameInstance | GameArrays, taus, nus):
    """Sum of both players' payoffs over arrays of transfers.

    The sum ``u_w + u_s`` of the two fronts needs no unswapping; float
    addition commutes, so it equals ``u1 + u2`` of ``payoffs_at_transfers``
    bit for bit.
    """
    _, uw, us = _front_payoffs(g, taus, nus)
    return uw + us


def require_feasible(g: GameInstance | GameArrays, taus, nus) -> None:
    """Raise ``InfeasibleTransferError`` where ``core.post_transfer_params`` would.

    Every element is decided by ``core.transfer_feasible``; the first that
    fails is handed to ``post_transfer_params``, which raises.
    """
    ok = transfer_feasible(g, taus, nus)
    if not np.all(ok):
        *fields, ok = np.broadcast_arrays(g.phi1, g.phi2, g.x1, g.x2, taus, nus, ok)
        k = np.argmin(ok)
        first = [field.flat[k] for field in fields]
        post_transfer_params(GameInstance(*first[:4]), Transfer(*first[4:]))
