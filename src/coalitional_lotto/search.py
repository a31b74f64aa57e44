"""Rules shared by the numeric transfer searches and the grid oracle.

The budget and joint verdicts in ``mutual`` and the brute-force searches in
``oracle`` judge candidates by the same definitions, and the budget verdict
and the oracle search the same feasible intervals:

* feasible intervals are open, so searches stay ``max(width *
  INTERVAL_MARGIN, 10 * EPS_FEAS)`` inside each endpoint;
* a transfer is mutually beneficial when both payoff deltas exceed
  ``GAIN_RTOL`` of the total valuation;
* a positive verdict is near a boundary when its best smaller delta stays
  below ``NEAR_RTOL`` of the total valuation;
* a transfer within relative ``RIDGE_RTOL`` of the equal-ratio ridge rides
  on the adversary's indifference tie-break, so a benefit found only there
  is a knife-edge, not evidence of a robust transfer.

Each search keeps its own resolution and refinement budget; only the rules
live here.
"""

from __future__ import annotations

import math

import numpy as np

from .adversary import player_payoffs
from .core import EPS_FEAS, GameInstance, Mechanism, Transfer

__all__ = [
    "GAIN_RTOL",
    "NEAR_RTOL",
    "RIDGE_RTOL",
    "INTERVAL_MARGIN",
    "min_gain",
    "thin_margin",
    "transfer_interval",
    "along",
    "ridge_gap",
    "min_delta_fn",
    "golden_max",
    "off_ridge_best",
]

GAIN_RTOL = 1e-12
NEAR_RTOL = 1e-3
RIDGE_RTOL = 1e-6
INTERVAL_MARGIN = 1e-6


def min_gain(g: GameInstance) -> float:
    """Smallest payoff delta that counts as a strict gain."""
    return GAIN_RTOL * g.total_valuation


def thin_margin(g: GameInstance, best: float) -> bool:
    """Whether a beneficial transfer's smaller delta is thinly positive.

    Negative verdicts always have best scores near zero (the no-transfer
    point), so only thin-positive margins are flagged.
    """
    return min_gain(g) < best < NEAR_RTOL * g.total_valuation


def transfer_interval(g: GameInstance, mechanism: Mechanism) -> tuple[float, float]:
    """Inset endpoints of the open interval of budget or contest transfers."""
    if mechanism is Mechanism.BUDGET:
        lo, hi = -g.x2, g.x1
    else:
        lo, hi = -g.phi2, g.phi1
    inset = max((hi - lo) * INTERVAL_MARGIN, 10.0 * EPS_FEAS)
    return lo + inset, hi - inset


def along(mechanism: Mechanism, v: float) -> Transfer:
    """The transfer of amount ``v`` through a budget or contest mechanism."""
    return Transfer(v, 0.0) if mechanism is Mechanism.BUDGET else Transfer(0.0, v)


def ridge_gap(g: GameInstance, mechanism: Mechanism, v):
    """Relative gap between post-transfer budget-to-valuation ratios."""
    if mechanism is Mechanism.BUDGET:
        r1 = (g.x1 - v) / g.phi1
        r2 = (g.x2 + v) / g.phi2
    else:
        r1 = g.x1 / (g.phi1 - v)
        r2 = g.x2 / (g.phi2 + v)
    return np.abs(r1 - r2) / np.maximum(r1, r2)


def min_delta_fn(g: GameInstance, mechanism: Mechanism, baseline: tuple[float, float], eps: float):
    """The smaller payoff delta as a function of the transfer amount."""

    def f(v: float) -> float:
        u1, u2 = player_payoffs(g, along(mechanism, v), eps)
        return min(u1 - baseline[0], u2 - baseline[1])

    return f


def golden_max(f, a: float, b: float, iters: int) -> tuple[float, float]:
    """Golden-section maximum of ``f`` on ``[a, b]``: (argmax, max)."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc = f(c)
    fd = f(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return (c, fc) if fc >= fd else (d, fd)


def off_ridge_best(
    g: GameInstance, mechanism: Mechanism, vs, score, v_best: float, best: float, f, iters: int
) -> tuple[float, float] | None:
    """The best beneficial transfer away from the equal-ratio ridge.

    ``vs``/``score`` are a scan of the smaller delta ``f`` and ``(v_best,
    best)`` its refined maximum.  A maximum off the ridge, or one that is
    not beneficial, is returned unchanged.  A beneficial maximum on the
    ridge is replaced by the best off-ridge scan point; failing that, the two
    side intervals one scan step out from the ridge point are refined, where
    thin windows can open right at the ridge crossing.  None means the only
    benefit is the knife-edge.
    """
    gain = min_gain(g)
    if not (best > gain and ridge_gap(g, mechanism, v_best) <= RIDGE_RTOL):
        return v_best, best
    off = (ridge_gap(g, mechanism, vs) > RIDGE_RTOL) & (score > gain)
    if np.any(off):
        k = int(np.argmax(np.where(off, score, -np.inf)))
        return float(vs[k]), float(score[k])
    step = float(vs[1] - vs[0])
    found = (None, -math.inf)

    def in_sliver(v: float) -> bool:
        return ridge_gap(g, mechanism, v) <= 2.0 * RIDGE_RTOL

    for sign in (1.0, -1.0):
        # Start at the smallest offset whose ridge gap exceeds the tie-break
        # sliver: bracket it by factors of 4, then bisect the bracket.
        short, delta = 0.0, step * 1e-9
        while delta < step and in_sliver(v_best + sign * delta):
            short, delta = delta, 4.0 * delta
        for _ in range(40):
            mid = 0.5 * (short + delta)
            if in_sliver(v_best + sign * mid):
                short = mid
            else:
                delta = mid
        a = v_best + sign * delta
        b = v_best + sign * step
        a, b = min(a, b), max(a, b)
        a, b = max(a, float(vs[0])), min(b, float(vs[-1]))
        if a >= b:
            continue
        v, val = golden_max(f, a, b, iters)
        if val > found[1] and ridge_gap(g, mechanism, v) > RIDGE_RTOL:
            found = (v, val)
    if found[0] is not None and found[1] > gain:
        return found
    return None
