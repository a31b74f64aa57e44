"""Vectorized payoff evaluation over arrays of transfers and of games.

Grid oracles and parameter sweeps evaluate the two players' payoffs at many
transfers, against one game or against many.  This module runs the scalar
pipeline of ``adversary`` (its one case rule, ``case_rule``, and its one
split, ``front_shares``, both written for floats and arrays) over numpy
arrays, and scores each front's equilibrium payoff, so that one call can
serve a whole scan or a whole sample of games.  ``GameArrays`` holds the
parameters of many games under the attribute names of ``GameInstance``;
``payoffs_at_transfers`` broadcasts them against the transfers.  Its front
stage, ``_front_payoffs``, scores the weak-ratio and strong-ratio fronts;
``payoffs_at_transfers`` then hands each player its own, and
``collective_at_transfers`` sums the two fronts as they stand, which float
addition makes the same sum bit for bit.

A call's cost is its array passes plus numpy's fixed cost per call, so the
kernel keeps both down: it broadcasts by arithmetic alone, and the rule
and the split do two pieces of work only when some element needs them:
the equal-ratio ridge's, when some element lies on it, and case 3's (two
roots per front), when some element takes it.  Each front's payoff takes
one division, built in place (``one_v_one_vec``).  ``case_of`` and the
kernel are where arrays meet the rule, so they silence numpy's overflow
warnings there: the float path of ``adversary`` calls no numpy function and
needs no ``np.errstate``.  ``tests/test_batch.py`` holds the array path to
the float path of the same body bit for bit: on random inputs, on games
over twelve and twenty-four decades, over the whole float range, and on
each side of every case edge.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from . import adversary
from .core import GameInstance, Transfer, post_transfer_params, transfer_feasible

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


# A subnormal valuation overflows its ratio, and the share ``s``, to inf, and
# two inf ratios leave a NaN gap; budgets or valuations near the top of the
# float range overflow their sums and products.  The case rule and the
# payoffs decide these as on floats, without a warning.
@np.errstate(over="ignore", invalid="ignore")
def case_of(phi1, phi2, x1, x2):
    """``adversary.case_of`` over broadcastable arrays: ``(index, swapped)``."""
    return adversary.case_of(phi1, phi2, x1, x2)


@np.errstate(over="ignore", invalid="ignore")
def _front_payoffs(g: GameInstance | GameArrays, taus, nus):
    """The payoffs by front, ``(swapped, u_w, u_s)``, of ``payoffs_at_transfers``.

    ``u_w`` is the payoff of the player with the weak ratio and ``u_s`` that
    of the other; player 1 is the weak one where ``swapped`` is false.
    """
    taus = np.asarray(taus, dtype=float)
    nus = np.asarray(nus, dtype=float)
    rule = adversary.case_rule(g.phi1 - nus, g.phi2 + nus, g.x1 - taus, g.x2 + taus)
    _, swapped, _, _, pw, ps, bw, bs, _ = rule
    xa_w, xa_s = adversary.front_shares(rule)
    return swapped, one_v_one_vec(pw, bw, xa_w), one_v_one_vec(ps, bs, xa_s)


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
