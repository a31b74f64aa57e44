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
``case_rule`` is the one case rule and ``front_shares`` the one split, each
written once for a game's floats and for arrays of games, with numpy's call
or a plain expression picked per expression (``core.ops_for``): ``case_of``,
``respond`` and the payoffs read them on floats, and ``batch`` and the array
verdicts on arrays.  Ratio ties and case
edges are decided with one fixed relative tolerance, ``CASE_RTOL``.  Two
equal ratios below the smallest normal float, where the quotients have
lost precision or underflowed to 0, or both overflowed to inf, are compared
on ``exact_ratios``, so a game and its mirror get mirrored labels across
the float range.  The float path calls no numpy function, so it needs no
``np.errstate``; array callers silence numpy's overflow warnings at their
own boundary.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .core import (
    GameInstance,
    PayoffPair,
    Transfer,
    case2_share,
    one_v_one_payoff,
    ops_for,
    root_product,
    transfer_params,
    u_player,
)

__all__ = [
    "Orientation",
    "CaseLabel",
    "CASE_LABELS",
    "AdversaryAllocation",
    "CASE_RTOL",
    "exact_ratios",
    "case_rule",
    "case_index",
    "case_of",
    "classify_case",
    "front_shares",
    "best_response",
    "respond",
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
    ``text`` is the label as printed, such as ``C2_1le2`` or ``C4``.
    """

    index: int
    orientation: Orientation | None
    text: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        text = "C4" if self.index == 4 else f"C{self.index}_{self.orientation.value}"
        object.__setattr__(self, "text", text)

    def __str__(self) -> str:
        return self.text

    @property
    def swapped(self) -> bool:
        return self.orientation is Orientation.ONE_GT_TWO

    @classmethod
    def of(cls, index: int, swapped: bool) -> "CaseLabel":
        """The label of a ``case_of`` result, from ``CASE_LABELS``."""
        return CASE_LABELS[2 * index + swapped - 2]


# The label of ``case_of`` result ``(index, swapped)`` at ``2 * (index - 1) +
# swapped``; both entries of case 4 are the same label.  Each label is made
# once, with its text.
CASE_LABELS = tuple(
    CaseLabel(i, None if i == 4 else Orientation.ONE_GT_TWO if s else Orientation.ONE_LE_TWO)
    for i in (1, 2, 3, 4)
    for s in (False, True)
)


@dataclass(frozen=True)
class AdversaryAllocation:
    """Optimal adversary split ``(xa1, xa2)`` of the unit budget."""

    xa1: float
    xa2: float


def exact_ratios(phi1, phi2, x1, x2):
    """The ratios ``x1 / phi1`` and ``x2 / phi2``, both times one power of two.

    Ratio ``i`` is the quotient of the ``frexp`` mantissas of ``x_i`` and
    ``phi_i`` times two to the difference of their exponents, less the
    larger of the two differences, so the larger ratio lands in
    ``[0.5, 2)``.  Where the plain quotients are equal below the smallest
    normal float (subnormal or 0) or both overflow to inf, these keep the
    exact ratios' tie and order: a ratio shifted below the smallest normal
    float is far from the other, and only its order counts.  Positive
    finite floats, or arrays of them.
    """
    frexp, ldexp, top = ops_for(phi1)[2:]
    (p1, e1), (p2, e2), (b1, f1), (b2, f2) = frexp(phi1), frexp(phi2), frexp(x1), frexp(x2)
    d = top(f1 - e1, f2 - e2)
    return ldexp(b1 / p1, f1 - e1 - d), ldexp(b2 / p2, f2 - e2 - d)


def case_rule(phi1, phi2, x1, x2):
    """The case rule on floats or arrays, as tests and the two sides of each game.

    Returns ``(equal, swapped, case1, case2, pw, ps, bw, bs, s)``: the
    equal-ratio test, None where no element ties; the orientation,
    ``swapped`` where player 2 has the weaker budget-to-valuation ratio; the
    case-1 and case-2 tests, which count only off the tie; the valuations
    and budgets of the weak-ratio (``w``) and strong-ratio (``s``) sides;
    and the adversary's case-2 share ``s`` of the weak front
    (``core.case2_share``).  Floats give a bool per test, arrays a mask.

    Equal ratios (within relative ``CASE_RTOL``) orient natively.  One
    ratio that overflows to inf is no tie: the other player is the weaker.
    When both ratios overflow to inf, or are equal below the smallest
    normal float, the tie and the orientation are decided on
    ``exact_ratios``, so a game and its mirror get mirrored labels there
    too.  The tie work, and ``exact_ratios`` within it, is done only when
    some element needs it.
    """
    r1 = x1 / phi1
    r2 = x2 / phi2
    gap = abs(r1 - r2)
    # Where floats and arrays differ, an expression on a game's Python
    # floats, where a call would cost as much as the test itself, and
    # numpy's call on anything else.
    arrays = type(gap) is not float
    lim = CASE_RTOL * (np.maximum(r1, r2) if arrays else r2 if r2 > r1 else r1)
    off = gap > lim
    swapped = r1 >= r2
    equal = None
    if not (off.all() if arrays else off):
        _, where, _, _, top = ops_for(gap)
        # Two equal ratios that are subnormal or 0 (which ``lim`` cannot
        # tell, as ``CASE_RTOL * r`` rounds subnormals together) or both inf
        # (a NaN gap) are decided again on ``exact_ratios``.
        same = r1 == r2
        if same.any() if arrays else same:
            edge = same & ((r1 < sys.float_info.min) | (r1 == math.inf))
            if edge.any() if arrays else edge:
                e1, e2 = exact_ratios(*(where(edge, v, 1.0) for v in (phi1, phi2, x1, x2)))
                r1, r2 = where(edge, e1, r1), where(edge, e2, r2)
                gap = abs(r1 - r2)
                lim = CASE_RTOL * top(r1, r2)
                swapped = r1 >= r2
        # One ratio that overflows to inf passes ``gap <= lim`` (inf <= inf)
        # but is no tie.
        equal = (gap <= lim) & (gap < math.inf)
        swapped = where(equal, False, swapped)
    if arrays:
        pw, ps = np.where(swapped, phi2, phi1), np.where(swapped, phi1, phi2)
        bw, bs = np.where(swapped, x2, x1), np.where(swapped, x1, x2)
    else:
        pw, ps, bw, bs = (phi2, phi1, x2, x1) if swapped else (phi1, phi2, x1, x2)
    # x1 * x2 is bw * bs in either orientation, and one factor fewer of the
    # share is an array where a line moves only valuations.
    s = case2_share(x1, x2, pw, ps)
    # The slack of the case-1 edge is relative to max(1, s); any s above 1 is
    # in case 1 whatever the slack, so only its value at 1 counts.  The lower
    # case-2 edge (``s`` exactly 0) classifies as case 1, where the adversary
    # sends its whole budget to the weak side either way.
    case1 = s >= 1.0 - CASE_RTOL
    case2 = 1.0 - s <= bs * (1.0 + CASE_RTOL)
    return equal, swapped, case1, case2, pw, ps, bw, bs, s


def case_index(rule):
    """Case index, 1..4, of each game of a ``case_rule`` result.

    Equal ratios give case 4 when the players' combined budget covers the
    adversary's (>= 1) and case 3 otherwise: the case-3 split is
    continuous through the equal-ratio ridge there.
    """
    equal, _, case1, case2, _, _, bw, bs, _ = rule
    # 1 in case 1, else 2 in case 2, else 3: sums of truth values, which
    # cost no call on floats.
    index = 3 - case1 - (case1 | case2)
    if equal is None:
        return index
    where = ops_for(bw)[1]
    return where(equal, where(bw + bs >= 1.0, 4, 3), index)


def case_of(phi1, phi2, x1, x2):
    """Case index and orientation ``(index, swapped)`` of a game, on floats or arrays.

    See ``case_rule`` and ``case_index``.  Array callers silence numpy's
    overflow warnings themselves (as ``batch.case_of`` does).
    """
    rule = case_rule(phi1, phi2, x1, x2)
    return case_index(rule), rule[1]


def classify_case(g: GameInstance) -> CaseLabel:
    """Classify a game into the seven-way case partition (see ``case_of``)."""
    return CaseLabel.of(*case_of(g.phi1, g.phi2, g.x1, g.x2))


def front_shares(rule):
    """The adversary's shares ``(xa_w, xa_s)`` of the weak and strong fronts.

    ``rule`` is a ``case_rule`` result.  Case 1 sends the whole budget to
    the weak front and case 2 its share ``s``.  Case 3 splits in proportion
    to ``sqrt(x_i * phi_i)``, each root ``core.root_product``, so a product
    below the smallest normal float keeps its share.  In case 4 any split
    with ``xa_i <= x_i`` is optimal; the canonical one is proportional to
    the budgets, which is always feasible (``x_w + x_s >= 1``) and agrees
    with the case-3 split on the equal-ratio ridge.  One share comes from
    its closed form and the other is its rest, so the two always sum to 1:
    the weak side's in cases 1, 2 and 4, and in case 3 the smaller one, so
    that neither loses its digits, as a small share taken as the rest of
    one near 1 would.  The roots are taken only when some element is in
    case 3.
    """
    equal, _, case1, case2, pw, ps, bw, bs, s = rule
    # A game's floats off the ridge in case 1 or 2 return at once; a mask
    # is never ``True``.
    if equal is None and case1 is True:
        return 1.0, 0.0
    if equal is None and case2 is True:
        return s, 1.0 - s
    where = ops_for(s)[1]
    closed = where(case1, 1.0, s)
    settled = case1 | case2
    if equal is not None:
        total = bw + bs
        rich = equal & (total >= 1.0)
        closed = where(rich, bw / total, closed)
        settled = where(equal, rich, settled)
    if settled.all() if isinstance(settled, np.ndarray) else settled:
        return closed, 1.0 - closed
    root_w = root_product(bw, pw)
    root_s = root_product(bs, ps)
    weak_small = root_w <= root_s
    closed = where(settled, closed, where(weak_small, root_w, root_s) / (root_w + root_s))
    # The side whose share is ``closed``.
    weak_closed = settled | weak_small
    rest = 1.0 - closed
    return where(weak_closed, closed, rest), where(weak_closed, rest, closed)


def best_response(g: GameInstance) -> AdversaryAllocation:
    """Closed-form optimal adversary split for a game (see ``front_shares``)."""
    rule = case_rule(g.phi1, g.phi2, g.x1, g.x2)
    xa_w, xa_s = front_shares(rule)
    return AdversaryAllocation(*((xa_s, xa_w) if rule[1] else (xa_w, xa_s)))


def respond(g: GameInstance) -> tuple[CaseLabel, tuple[float, float], tuple[float, float]]:
    """``classify_case``, ``best_response`` and ``player_payoffs`` of a game, from one ``case_rule``.

    Returns the label, the split ``(xa1, xa2)`` and the payoffs ``(u1, u2)``;
    each equals the call it stands for bit for bit, since the zero transfer
    leaves every parameter as it is.
    """
    rule = case_rule(g.phi1, g.phi2, g.x1, g.x2)
    xa_w, xa_s = front_shares(rule)
    _, swapped, _, _, pw, ps, bw, bs, _ = rule
    u_w, u_s = u_player(pw, bw, xa_w), u_player(ps, bs, xa_s)
    label = CaseLabel.of(case_index(rule), swapped)
    if swapped:
        return label, (xa_s, xa_w), (u_s, u_w)
    return label, (xa_w, xa_s), (u_w, u_s)


def payoffs_at(g: GameInstance, tau: float, nu: float) -> tuple[float, float]:
    """Both players' equilibrium payoffs after moving budget ``tau`` and valuation ``nu``.

    Applies the transfer, lets the adversary best-respond to the new
    parameters, and evaluates each front's equilibrium payoff, all on plain
    floats.  Raises ``InfeasibleTransferError`` like ``core.transfer_params``.
    """
    rule = case_rule(*transfer_params(g, tau, nu))
    xa_w, xa_s = front_shares(rule)
    _, swapped, _, _, pw, ps, bw, bs, _ = rule
    u_w, u_s = u_player(pw, bw, xa_w), u_player(ps, bs, xa_s)
    return (u_s, u_w) if swapped else (u_w, u_s)


def player_payoffs(g: GameInstance, t: Transfer = Transfer()) -> tuple[float, float]:
    """``payoffs_at`` after a ``Transfer``."""
    return payoffs_at(g, t.tau, t.nu)


def adversary_value(g: GameInstance, xa1: float, xa2: float) -> float:
    """Adversary payoff for an arbitrary split against a (post-transfer) game."""
    a1: PayoffPair = one_v_one_payoff(g.phi1, g.x1, xa1)
    a2: PayoffPair = one_v_one_payoff(g.phi2, g.x2, xa2)
    return a1.u_adversary + a2.u_adversary
