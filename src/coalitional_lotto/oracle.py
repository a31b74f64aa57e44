"""Brute-force grid oracles, independent of the analytic characterizations.

Every analytic claim in this package has a slow counterpart here:

* ``grid_best_response`` maximizes the adversary's two-front payoff by brute
  force over its split, using nothing but the one-vs-one payoff formula;
* ``grid_mutual_search`` scans the feasible transfer set for a point where
  both players strictly gain;
* ``grid_max_collective`` maximizes the collective payoff along a mechanism's
  feasible set by grid plus local refinement.

The test suite pins oracle outputs for a golden set of games as fixtures and
requires the closed forms to reproduce them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import batch
from .adversary import DEFAULT_EPS, AdversaryAllocation, adversary_value, player_payoffs
from .core import GameInstance, Mechanism, Transfer
from .mutual import MutualBenefitVerdict
from .search import (
    along,
    golden_max,
    min_delta_fn,
    min_gain,
    off_ridge_best,
    thin_margin,
    transfer_interval,
)

__all__ = [
    "GridSpec",
    "DEFAULT_GRID_1D",
    "DEFAULT_GRID_2D",
    "grid_best_response",
    "grid_mutual_search",
    "grid_max_collective",
]


@dataclass(frozen=True)
class GridSpec:
    """Grid density; scans keep the shared inset from open-interval endpoints."""

    resolution: int = 4001

    def __post_init__(self) -> None:
        if self.resolution < 3:
            raise ValueError("resolution must be >= 3")


DEFAULT_GRID_1D = GridSpec(4001)
DEFAULT_GRID_2D = GridSpec(401)


def _adv_value_vec(g: GameInstance, xa1):
    """Adversary payoff over an array of splits (xa2 = 1 - xa1)."""
    xa1 = np.asarray(xa1, dtype=float)
    xa2 = 1.0 - xa1
    u1 = batch.one_v_one_vec(g.phi1, g.x1, xa1)
    u2 = batch.one_v_one_vec(g.phi2, g.x2, xa2)
    return (g.phi1 - u1) + (g.phi2 - u2)


def grid_best_response(
    g_bar: GameInstance, spec: GridSpec = DEFAULT_GRID_1D
) -> AdversaryAllocation:
    """Argmax of the adversary objective over its budget split, by grid search.

    Golden-section refinement around the best grid point resolves interior
    optima to well below the per-game comparison tolerances.  On indifference
    plateaus any argmax is acceptable (the objective value is what matters).
    """
    xs = np.linspace(0.0, 1.0, spec.resolution)
    values = _adv_value_vec(g_bar, xs)
    k = int(np.argmax(values))

    def objective(x: float) -> float:
        return adversary_value(g_bar, x, 1.0 - x)

    lo = xs[max(k - 1, 0)]
    hi = xs[min(k + 1, len(xs) - 1)]
    x_best, v_best = golden_max(objective, lo, hi, 80)
    if values[k] > v_best:
        x_best = float(xs[k])
    return AdversaryAllocation(x_best, 1.0 - x_best)


def _local_maxima(score: np.ndarray, top: int) -> list[int]:
    left = np.empty_like(score)
    right = np.empty_like(score)
    left[0] = -np.inf
    left[1:] = score[:-1]
    right[-1] = -np.inf
    right[:-1] = score[1:]
    idx = np.flatnonzero((score >= left) & (score >= right))
    if idx.size == 0:
        return [int(np.argmax(score))]
    order = idx[np.argsort(score[idx])[::-1]]
    return [int(i) for i in order[:top]]


def grid_mutual_search(
    g: GameInstance, mechanism: Mechanism, spec: GridSpec | None = None
) -> MutualBenefitVerdict:
    """Exhaustive search for a strictly mutually beneficial transfer.

    1-D scan for budget/contest, 2-D for joint; grid hits are polished and
    near-misses refined by golden-section on the smaller payoff delta around
    the best few local maxima.
    """
    if spec is None:
        spec = DEFAULT_GRID_2D if mechanism is Mechanism.JOINT else DEFAULT_GRID_1D
    baseline = player_payoffs(g, eps=DEFAULT_EPS)
    gain = min_gain(g)

    if mechanism is Mechanism.JOINT:
        t_lo, t_hi = transfer_interval(g, Mechanism.BUDGET)
        n_lo, n_hi = transfer_interval(g, Mechanism.CONTEST)
        taus = np.linspace(t_lo, t_hi, spec.resolution)[:, None]
        nus = np.linspace(n_lo, n_hi, spec.resolution)[None, :]
        u1, u2 = batch.payoffs_at_transfers(g, taus, nus)
        score = np.minimum(u1 - baseline[0], u2 - baseline[1])
        k = int(np.argmax(score))
        i, j = divmod(k, spec.resolution)
        best = float(score[i, j])
        near = thin_margin(g, best)
        if best > gain:
            witness = Transfer(float(taus[i, 0]), float(nus[0, j]))
            return MutualBenefitVerdict(mechanism, True, witness, "oracle-grid", near)
        return MutualBenefitVerdict(mechanism, False, None, None, near)

    lo, hi = transfer_interval(g, mechanism)
    vs = np.linspace(lo, hi, spec.resolution)
    if mechanism is Mechanism.BUDGET:
        u1, u2 = batch.payoffs_at_transfers(g, vs, 0.0)
    else:
        u1, u2 = batch.payoffs_at_transfers(g, 0.0, vs)
    score = np.minimum(u1 - baseline[0], u2 - baseline[1])
    f = min_delta_fn(g, mechanism, baseline, DEFAULT_EPS)
    best_v, best = float(vs[int(np.argmax(score))]), float(np.max(score))
    for k in _local_maxima(score, top=5):
        a = vs[max(k - 1, 0)]
        b = vs[min(k + 1, len(vs) - 1)]
        v, val = golden_max(f, a, b, 60)
        if val > best:
            best_v, best = v, val
    near = thin_margin(g, best)
    # Refinement can converge onto the single transfer that lands the game on
    # the equal-ratio ridge, where a benefit exists only under the adversary's
    # indifference tie-break; such a point witnesses no robust opportunity.
    found = off_ridge_best(g, mechanism, vs, score, best_v, best, f, 60)
    if found is None:
        return MutualBenefitVerdict(mechanism, False, None, "ridge-knife-edge", True)
    best_v, best = found
    if best > gain:
        return MutualBenefitVerdict(mechanism, True, along(mechanism, best_v), "oracle-grid", near)
    return MutualBenefitVerdict(mechanism, False, None, None, near)


def grid_max_collective(
    g: GameInstance, mechanism: Mechanism, spec: GridSpec | None = None
) -> float:
    """Grid-plus-refinement maximum of the collective payoff along a mechanism."""
    if spec is None:
        spec = DEFAULT_GRID_2D if mechanism is Mechanism.JOINT else DEFAULT_GRID_1D

    if mechanism is Mechanism.JOINT:
        t_lo, t_hi = transfer_interval(g, Mechanism.BUDGET)
        n_lo, n_hi = transfer_interval(g, Mechanism.CONTEST)
        taus = np.linspace(t_lo, t_hi, spec.resolution)
        nus = np.linspace(n_lo, n_hi, spec.resolution)
        total = batch.collective_at_transfers(g, taus[:, None], nus[None, :])
        k = int(np.argmax(total))
        i, j = divmod(k, spec.resolution)
        tau, nu = float(taus[i]), float(nus[j])
        best = float(total[i, j])

        def joint_total(a: float, b: float) -> float:
            u1, u2 = player_payoffs(g, Transfer(a, b), DEFAULT_EPS)
            return u1 + u2

        # Two rounds of coordinate-wise golden refinement.
        for _ in range(2):
            a = taus[max(i - 1, 0)]
            b = taus[min(i + 1, len(taus) - 1)]
            tau, val = golden_max(lambda v: joint_total(v, nu), a, b, 60)
            a = nus[max(j - 1, 0)]
            b = nus[min(j + 1, len(nus) - 1)]
            nu, val = golden_max(lambda v: joint_total(tau, v), a, b, 60)
            best = max(best, val)
        return best

    lo, hi = transfer_interval(g, mechanism)
    vs = np.linspace(lo, hi, spec.resolution)
    if mechanism is Mechanism.BUDGET:
        total = batch.collective_at_transfers(g, vs, 0.0)
    else:
        total = batch.collective_at_transfers(g, 0.0, vs)

    def f(v: float) -> float:
        u1, u2 = player_payoffs(g, along(mechanism, v), DEFAULT_EPS)
        return u1 + u2

    k = int(np.argmax(total))
    a = vs[max(k - 1, 0)]
    b = vs[min(k + 1, len(vs) - 1)]
    _, refined = golden_max(f, a, b, 80)
    return max(float(total[k]), refined)
