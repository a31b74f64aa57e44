"""Existence of mutually beneficial transfers (budget, contest, joint).

A transfer is mutually beneficial when it strictly raises *both* players'
payoffs relative to no transfer.  The three mechanisms get three different
treatments:

* contest transfers -- full analytic characterization.  For a game oriented
  so that player 1 has the weaker budget-to-valuation ratio, a positive
  valuation transfer is beneficial either without changing the structure of
  the adversary's best response (strategically consistent) or by pushing the
  game into a different case (strategically inconsistent).  The inconsistent
  routes are enumerated per budget region R1..R5; each route reduces to
  threshold gates (alpha/beta breakpoints) and open intervals where one or
  two quadratics in the transfer amount are negative.
* budget transfers -- exact piecewise decision.  A budget transfer keeps
  ``X = x1 + x2`` and moves the budgets ``b1 = x1 - tau``, ``b2 = x2 + tau``
  along ``q = sqrt(b1 / b2)``.  The equal-ratio ridge and the case edges,
  each a root of a quadratic in ``q``, cut the feasible interval into
  pieces with closed-form payoffs.  With ``k = sqrt(phi1 * phi2)``, case 3
  gives ``u1 = (X/2)(phi1 q**2 + k q) / (1 + q**2)`` and ``u2 = (X/2)(phi2 +
  k q) / (1 + q**2)``; case 2 with player 1 weak gives ``u1 = k q / 2`` and
  ``u2 = phi2 - phi2 (1 + q**2) / (2 X) + k q / 2``; case 1 with player 1
  weak gives ``u2 = phi2`` and ``u1 = phi1 b1 / 2`` or ``phi1 (1 - 1 / (2
  b1))``, rising with ``q``; player 2 weak swaps the players and uses
  ``1/q``.  The best transfer on each piece lies at an end, a stationary
  point or a crossing of the two payoff deltas, all roots of quadratics,
  and is validated through the payoff map.
* joint transfers -- decided from the collective surplus.  Every transfer
  keeps ``X`` and ``Phi = phi1 + phi2``, so none lifts the payoff sum above
  ``max_collective_payoff``, and both players can gain only when the
  surplus ``S`` of that maximum over the baseline sum exceeds twice the
  gain floor.  A joint transfer reaches the ridge and splits the maximum in
  any proportion, so ``S`` above that floor leaves a witness, placed just
  outside the ridge sliver, at ratio gap ``2 * RIDGE_RTOL`` on the game's
  own side.  There both payoffs are closed forms in the weak player's
  post-transfer valuation, and the equal-gain split solves a linear
  equation (cases 1, 2 and 4) or a quadratic (case 3).

Every "exists" verdict carries a concrete witness transfer that is
re-validated through the actual payoff map; no verdict rests on the algebra
alone.  ``mutual_arrays`` decides the budget and joint verdicts over arrays
of games from the same forms (``edge_quadratics``, ``candidate_forms``,
``around_ridge``, ``gap_crossing``, ``gap_quadratic``).  Case edges, the
contest orientation and the budget verdict's case-4 band all use the one
fixed tie tolerance ``adversary.CASE_RTOL``.  Five printed coefficients in
the contest routes are misprints; only the corrected reading is
implemented, and ``calibration/typo_resolution.md`` records the grid-oracle
calibration that chose it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .adversary import CASE_RTOL, CaseLabel, case_of, classify_case, player_payoffs
from .collective import max_collective_payoff
from .core import GameInstance, Mechanism, Transfer, swap_indices
from .search import NEAR_RTOL, RIDGE_RTOL, min_gain, thin_margin, transfer_interval
from . import batch

__all__ = [
    "Region",
    "Mechanism",
    "MutualBenefitVerdict",
    "QuadraticWindow",
    "Thresholds",
    "REGIONS",
    "classify_region",
    "region_index",
    "quadratic_window",
    "thresholds",
    "sc_contest_exists",
    "si_contest_exists",
    "contest_mutual_exists",
    "budget_mutual_exists",
    "joint_mutual_exists",
    "is_mutually_beneficial",
]


class Region(Enum):
    """Partition of the budget plane: which cases a transfer can reach."""

    R1 = "R1"  # x1 >= 1, x2 >= 1
    R2 = "R2"  # x1 >= 1, x2 < 1
    R3 = "R3"  # x1 < 1, x2 >= 1
    R4 = "R4"  # x1 < 1, x2 < 1, x1 + x2 >= 1
    R5 = "R5"  # x1 + x2 < 1


REGIONS = tuple(Region)


def region_index(x1, x2):
    """Index into ``REGIONS`` of budgets ``x1``, ``x2``; elementwise on arrays.

    Each budget below 1 moves the index past the regions where it is at
    least 1 (R1..R4 by corner), and a combined budget below 1, which only
    R4's corner allows, moves it on to R5.
    """
    return 2 * (x1 < 1.0) + (x2 < 1.0) + (x1 + x2 < 1.0)


def classify_region(g: GameInstance) -> Region:
    return REGIONS[region_index(g.x1, g.x2)]


@dataclass(frozen=True)
class QuadraticWindow:
    """Open solution interval of ``a*nu**2 + b*nu + c < 0`` with ``a > 0``."""

    discriminant: float
    z_minus: float | None
    z_plus: float | None

    @property
    def empty(self) -> bool:
        return self.z_minus is None


def quadratic_window(a: float, b: float, c: float) -> QuadraticWindow:
    """Roots and solution window of a positive-leading-coefficient quadratic.

    The strict inequality holds exactly on ``(z_minus, z_plus)`` when the
    discriminant is positive, and nowhere otherwise (a touching root does not
    satisfy a strict inequality).
    """
    if not (a > 0.0):
        raise ValueError(f"leading coefficient must be positive, got {a!r}")
    d = b * b - 4.0 * a * c
    if d <= 0.0:
        return QuadraticWindow(d, None, None)
    r = math.sqrt(d)
    return QuadraticWindow(d, (-b - r) / (2.0 * a), (-b + r) / (2.0 * a))


@dataclass(frozen=True)
class Thresholds:
    """Transfer breakpoints for an oriented game.

    ``alpha1`` crosses the equal-ratio ridge; ``alpha2``/``alpha3`` cross the
    all-in boundary of case 1 in the swapped/native orientation; ``alpha4``/
    ``alpha5`` cross between cases 2 and 3.  ``beta1``/``beta2`` are the
    transfer sizes beyond which the recipient's gain condition holds
    trivially.
    """

    alpha1: float
    alpha2: float
    alpha3: float
    alpha4: float
    alpha5: float
    beta1: float
    beta2: float


def thresholds(g: GameInstance) -> Thresholds:
    f, s0, x1, x2 = g.phi1, g.phi2, g.x1, g.x2
    return Thresholds(
        alpha1=(x2 * f - x1 * s0) / (x1 + x2),
        alpha2=(f - x1 * x2 * s0) / (x1 * x2 + 1.0),
        alpha3=(x1 * x2 * f - s0) / (x1 * x2 + 1.0),
        alpha4=(x1 * x2 * f - (1.0 - x2) ** 2 * s0) / ((1.0 - x2) ** 2 + x1 * x2),
        alpha5=((1.0 - x1) ** 2 * f - x1 * x2 * s0) / ((1.0 - x1) ** 2 + x1 * x2),
        beta1=(2.0 - x2) / x2 * s0,
        beta2=math.sqrt(x1 * f * s0 / x2**3) - (1.0 - x2) ** 2 / x2**2 * s0,
    )


@dataclass(frozen=True)
class MutualBenefitVerdict:
    mechanism: Mechanism
    exists: bool
    witness: Transfer | None
    route: str | None
    near_boundary: bool

    def as_dict(self) -> dict:
        return {
            "mechanism": self.mechanism.value,
            "exists": self.exists,
            "witness": self.witness.as_dict() if self.witness is not None else None,
            "route": self.route,
            "near_boundary": self.near_boundary,
        }


class _Margins:
    """Tracks the smallest relative margin over every decisive comparison.

    A verdict whose smallest margin falls below the near-boundary tolerance
    sits close to some condition surface; such games are flagged because the
    analytic verdict and a finite-resolution search may legitimately differ
    there.
    """

    def __init__(self) -> None:
        self.min_margin = math.inf

    def note(self, lhs: float, rhs: float, scale: float = 0.0) -> None:
        denom = max(abs(lhs), abs(rhs), scale, 1e-300)
        margin = abs(lhs - rhs) / denom
        if margin < self.min_margin:
            self.min_margin = margin

    def lt(self, lhs: float, rhs: float, scale: float = 0.0) -> bool:
        self.note(lhs, rhs, scale)
        return lhs < rhs

    def near(self) -> bool:
        return self.min_margin < NEAR_RTOL


def payoff_deltas(
    g: GameInstance, t: Transfer, baseline: tuple[float, float]
) -> tuple[float, float]:
    u1, u2 = player_payoffs(g, t)
    return u1 - baseline[0], u2 - baseline[1]


def is_mutually_beneficial(
    g: GameInstance, t: Transfer, baseline: tuple[float, float] | None = None
) -> bool:
    """Strict component-wise improvement over the no-transfer payoffs."""
    if baseline is None:
        baseline = player_payoffs(g)
    gain = min_gain(g)
    d1, d2 = payoff_deltas(g, t, baseline)
    return d1 > gain and d2 > gain


# ---------------------------------------------------------------------------
# Contest transfers: analytic characterization for oriented games.
#
# All helpers below assume the oriented view (player 1 = weaker ratio) and
# consider positive transfers only.  Windows are intervals of nu where every
# gate holds; the final verdict validates a point from the window through the
# payoff map.
# ---------------------------------------------------------------------------

_ORIENT_SLACK = 10.0


def _require_oriented(g: GameInstance) -> None:
    r1 = g.x1 / g.phi1
    r2 = g.x2 / g.phi2
    if r1 > r2 * (1.0 + _ORIENT_SLACK * CASE_RTOL):
        raise ValueError(
            "game must be oriented so player 1 has the weaker budget-to-valuation ratio"
        )


def _sc_routes(g: GameInstance, case_index: int, m: _Margins):
    """Strategically consistent routes: derivative conditions at nu = 0.

    Returns a list of (route, window) pairs; consistent transfers have no
    printed window, so the window is None and validation takes small steps.
    """
    f, s0, x1, x2 = g.phi1, g.phi2, g.x1, g.x2
    phi_scale = f + s0
    routes = []
    if case_index == 2:
        ok1 = m.lt(s0, f, phi_scale)
        lhs = 2.0 - 4.0 * x2
        rhs = (f - s0) * math.sqrt(x1 * x2 / (f * s0))
        ok2 = m.lt(lhs, rhs, 1.0)
        if ok1 and ok2:
            routes.append(("SC:C2", None))
    elif case_index == 3:
        ok1 = m.lt(s0, f, phi_scale)
        ok2 = m.lt(4.0 * f * s0 * x1, x2 * (f - s0) ** 2, phi_scale**2)
        if ok1 and ok2:
            routes.append(("SC:C3", None))
    return routes


def _window(m: _Margins, phi_scale: float, lows, highs) -> tuple[float, float] | None:
    lo = max(lows)
    hi = min(highs)
    m.note(lo, hi, phi_scale)
    if lo < hi:
        return lo, hi
    return None


def _quad(m: _Margins, a: float, b: float, c: float) -> QuadraticWindow:
    w = quadratic_window(a, b, c)
    # Discriminant margin, normalized to the quadratic's own scale.
    m.note(w.discriminant, 0.0, max(b * b, abs(4.0 * a * c)))
    return w


def _ratio_gate(m: _Margins, g: GameInstance, lo: float, hi: float, window):
    """``window`` when the printed double inequality ``lo < phi2/phi1 < hi`` holds."""
    ratio = g.phi2 / g.phi1
    lo_ok = m.lt(lo, ratio, 1.0)
    hi_ok = m.lt(ratio, hi, 1.0)
    return window if lo_ok and hi_ok else None


def _p2a(g: GameInstance) -> float:
    """The root ``sqrt(x1*phi1*phi2/x2)`` of player 1's pre-transfer case-2 payoff.

    The printed form repeats phi2 under the root where phi1*phi2 belongs
    (routes 3.3, 4.4, 4.5 and 5.8).
    """
    return math.sqrt(g.x1 * g.phi1 * g.phi2 / g.x2)


def _si_windows(g: GameInstance, region: Region, case_index: int, m: _Margins):
    """All strategically inconsistent routes applicable to an oriented game.

    Returns (route, (lo, hi)) candidate windows in printed order, clipped to
    positive feasible transfers.  Conditions follow the printed
    characterization with its misprints corrected: route 2.1's constant ends
    in ``- phi1*phi2``, not ``- 4*phi1*phi2``; route 5.11's constant squares
    ``x2*phi2 + sqrt(x1*x2*phi1*phi2)``; and ``_p2a`` has phi1*phi2 under its
    root.
    """
    f, s0, x1, x2 = g.phi1, g.phi2, g.x1, g.x2
    phi = f + s0
    th = thresholds(g)
    a1, a2, a4, a5 = th.alpha1, th.alpha2, th.alpha4, th.alpha5
    b1t, b2t = th.beta1, th.beta2
    routes = []
    if region is Region.R1 and case_index == 1:
        w11 = _ratio_gate(
            m, g, (2.0 * x1 * x2 - x1 - x2) / (2.0 * x1 * x1), (2.0 * x2 - 1.0) / (2.0 * x1),
            (max(a1, s0 / (2.0 * x2 - 1.0)), f / (2.0 * x1)),
        )
        routes = [("1.1:C1_1le2->C1_1gt2", w11)]

    elif region is Region.R2 and case_index == 1:
        q1 = _quad(m, 1.0 + (2.0 * x1 - 1.0) ** 2 / (x1 * x2), s0 - f, -f * s0)
        q2 = _quad(m, 1.0, s0 - f, 4.0 * (x1 / x2) * s0 * s0 - f * s0)
        w21 = None
        if not q1.empty and not q2.empty:
            w21 = _window(m, phi, [q1.z_minus, q2.z_minus, a1], [q1.z_plus, q2.z_plus, a2])
        w22 = _ratio_gate(
            m, g,
            (-x1 * x2 + 2.0 * x1 - 1.0) / (2.0 * x1 * x1 * x2), x2 / (2.0 * x1 * (2.0 - x2)),
            (max(a2, s0 * (2.0 - x2) / x2), f / (2.0 * x1)),
        )
        routes = [("2.1:C1_1le2->C2_1gt2", w21), ("2.2:C1_1le2->C1_1gt2", w22)]

    elif region is Region.R3 and case_index == 1:
        w32 = _ratio_gate(
            m, g, (x1 + x2 - 2.0) / 2.0, (2.0 - x1) * (2.0 * x2 - 1.0) / 2.0,
            (max(a1, s0 / (2.0 * x2 - 1.0)), f * (2.0 - x1) / 2.0),
        )
        routes = [
            ("3.1:C1_1le2->C2_1le2", _form_c1_to_c2_native(g, th, m, a1)),
            ("3.2:C1_1le2->C1_1gt2", w32),
        ]

    elif region is Region.R3 and case_index == 2:
        lo = max(a1, math.sqrt(x1 * x2 * f * s0) / (2.0 * x2 - 1.0))
        routes = [("3.3:C2_1le2->C1_1gt2", (lo, f - 0.5 * _p2a(g)))]

    elif region is Region.R4 and case_index == 1:
        m.note(x2, 0.5, 1.0)
        routes = [
            ("4.1:C1_1le2->C2_1le2", _form_c1_to_c2_native(g, th, m, a1)),
            ("4.2:C1_1le2->C2_1gt2", _form_c1_to_c2_swapped(g, th, m, a1)),
            ("4.3:C1_1le2->C1_1gt2", _form_c1_to_c1_swapped(g, th, m)),
        ]

    elif region is Region.R4 and case_index == 2:
        routes = [
            ("4.4:C2_1le2->C2_1gt2", _form_c2_to_c2_swapped(g, th, m, a1)),
            ("4.5:C2_1le2->C1_1gt2", _form_c2_to_c1_swapped(g, th)),
        ]

    elif region is Region.R5 and case_index == 1:
        m.note(x2, 0.5, 1.0)
        w51 = _form_c1_to_c2_native(g, th, m, a4)
        q9 = _quad(m, 1.0 + x1 / x2, s0 - f, -f * s0)
        q10 = _quad(
            m,
            1.0 + x2 / x1,
            (x1 + 2.0 * x2 - 4.0) / x1 * s0 - f,
            (2.0 - x2) ** 2 * s0 * s0 / (x1 * x2) - f * s0,
        )
        routes = [
            ("5.1:C1_1le2->C2_1le2", w51),
            *_form_into_c3(
                m, phi, th, q9, q10, b1t, "5.2:C1_1le2->C3_1le2", "5.3:C1_1le2->C3_1gt2"
            ),
            ("5.4:C1_1le2->C2_1gt2", _form_c1_to_c2_swapped(g, th, m, a5)),
            ("5.5:C1_1le2->C1_1gt2", _form_c1_to_c1_swapped(g, th, m)),
        ]

    elif region is Region.R5 and case_index == 2:
        root = math.sqrt(f * s0 / (x1 * x2))
        q11 = _quad(
            m,
            1.0 + x2 / x1,
            2.0 * root + (x2 / x1) * (s0 - f) - 2.0 * f,
            (root - f) ** 2 - (x2 / x1) * f * s0,
        )
        q12 = _quad(
            m, 1.0 + x1 / x2, -2.0 * b2t + (x1 / x2) * (s0 - f), b2t * b2t - (x1 / x2) * f * s0
        )
        # Route 5.9 (C2 -> swapped C1) is left out: under the corrected
        # reading, wherever its window opens one of routes 5.6-5.8 validates
        # first, so it never decides a verdict.
        routes = [
            *_form_into_c3(
                m, phi, th, q11, q12, b2t, "5.6:C2_1le2->C3_1le2", "5.7:C2_1le2->C3_1gt2"
            ),
            ("5.8:C2_1le2->C2_1gt2", _form_c2_to_c2_swapped(g, th, m, a5)),
        ]

    elif region is Region.R5 and case_index == 3:
        # C3 -> C3 across the ridge (route 5.10) admits no beneficial transfer.
        # Route 5.12 (C3 -> swapped C1) is left out: under the corrected
        # reading, route 5.11 validates wherever its window opens.
        inner = (x1 - 1.0) ** 2 * f / x1 + math.sqrt(f * s0 * x1 * x2)
        q13 = _quad(
            m,
            1.0 + (x1 / x2) * (2.0 - 1.0 / x1) ** 2,
            (4.0 * x1 - 2.0) / x2 * inner + s0 - f,
            (x1 / x2) * inner * inner - f * s0,
        )
        q14 = _quad(
            m, 1.0, s0 - f, (x1 / x2) * (x2 * s0 + math.sqrt(x1 * x2 * f * s0)) ** 2 - f * s0
        )
        w511 = None
        if not q13.empty and not q14.empty:
            w511 = _window(m, phi, [q13.z_minus, q14.z_minus, a5], [q13.z_plus, q14.z_plus, a2])
        routes = [("5.11:C3_1le2->C2_1gt2", w511)]

    out = []
    for route, window in routes:
        if window is not None:
            lo = max(window[0], 0.0)
            hi = min(window[1], f * (1.0 - 1e-12))
            if lo < hi:
                out.append((route, (lo, hi)))
    return out


def _form_c1_to_c2_native(g: GameInstance, th: Thresholds, m: _Margins, upper_gate: float):
    """C1 -> native C2 (quadratic 3, plus quadratic 4 when x2 < 1/2)."""
    f, s0, x1, x2 = g.phi1, g.phi2, g.x1, g.x2
    q3 = _quad(m, 1.0, s0 - f, x1 * x2 * f * f - f * s0)
    if q3.empty:
        return None
    if x2 >= 0.5:
        return _window(m, f + s0, [q3.z_minus, th.alpha3], [q3.z_plus, upper_gate])
    q4 = _quad(
        m,
        (1.0 - 2.0 * x2) ** 2 + x1 * x2,
        2.0 * (1.0 - 2.0 * x2) * s0 + x1 * x2 * (s0 - f),
        s0 * s0 - x1 * x2 * f * s0,
    )
    if q4.empty:
        return None
    return _window(
        m, f + s0, [q3.z_minus, q4.z_minus, th.alpha3], [q3.z_plus, q4.z_plus, upper_gate]
    )


def _form_into_c3(
    m: _Margins, phi: float, th: Thresholds, q_out, q_in, beta: float, below: str, above: str
):
    """Into case 3 on either side of the ridge: routes ``below`` and ``above``.

    The outer quadratic with the beta gate as a lower bound, then both
    quadratics with the beta gate as an upper bound.
    """
    if q_out.empty:
        return []
    a1, a4, a5 = th.alpha1, th.alpha4, th.alpha5
    routes = [
        (below, _window(m, phi, [q_out.z_minus, beta, a4], [q_out.z_plus, a1])),
        (above, _window(m, phi, [q_out.z_minus, beta, a1], [q_out.z_plus, a5])),
    ]
    if not q_in.empty:
        lows, highs = [q_out.z_minus, q_in.z_minus], [q_out.z_plus, q_in.z_plus, beta]
        routes += [
            (below, _window(m, phi, lows + [a4], highs + [a1])),
            (above, _window(m, phi, lows + [a1], highs + [a5])),
        ]
    return routes


def _form_c1_to_c2_swapped(g: GameInstance, th: Thresholds, m: _Margins, lower_gate: float):
    """C1 -> swapped C2 (quadratics 5 and 6); lower gate differs by region."""
    f, s0, x1, x2 = g.phi1, g.phi2, g.x1, g.x2
    q5 = _quad(
        m,
        (1.0 - 2.0 * x1) ** 2 + x1 * x2,
        x1 * x2 * (s0 - f) - 2.0 * (x1 - 1.0) ** 2 * (1.0 - 2.0 * x1) * f,
        (x1 - 1.0) ** 4 * f * f - x1 * x2 * f * s0,
    )
    q6 = _quad(m, 1.0, s0 - f, 4.0 * (x1 / x2) * s0 * s0 - f * s0)
    if q5.empty or q6.empty:
        return None
    return _window(
        m, f + s0, [q5.z_minus, q6.z_minus, lower_gate], [q5.z_plus, q6.z_plus, th.alpha2]
    )


def _form_c1_to_c1_swapped(g: GameInstance, th: Thresholds, m: _Margins):
    """C1 -> swapped C1 in regions with x2 < 1."""
    f, s0, x1, x2 = g.phi1, g.phi2, g.x1, g.x2
    return _ratio_gate(
        m, g, (x1 * x2 - 2.0 * x2 + 1.0) / (2.0 * x2), (2.0 - x1) * x2 / (2.0 * (2.0 - x2)),
        (max(th.alpha2, s0 * (2.0 - x2) / x2), f * (2.0 - x1) / 2.0),
    )


def _form_c2_to_c2_swapped(g: GameInstance, th: Thresholds, m: _Margins, lower_gate: float):
    """C2 -> swapped C2 (quadratics 7 and 8); lower gate differs by region."""
    f, s0, x1, x2 = g.phi1, g.phi2, g.x1, g.x2
    inner = x1 * _p2a(g) - (2.0 * x1 - 1.0) * f
    q7 = _quad(
        m,
        (2.0 * x1 - 1.0) ** 2 + x1 * x2,
        2.0 * (2.0 * x1 - 1.0) * inner + x1 * x2 * (s0 - f),
        inner * inner - x1 * x2 * f * s0,
    )
    q8 = _quad(
        m,
        1.0,
        s0 - f,
        (x1 / x2) * ((2.0 - 1.0 / x2) * s0 + math.sqrt(x1 * f * s0 / x2)) ** 2 - f * s0,
    )
    if q7.empty or q8.empty:
        return None
    return _window(
        m, f + s0, [q7.z_minus, q8.z_minus, lower_gate], [q7.z_plus, q8.z_plus, th.alpha2]
    )


def _form_c2_to_c1_swapped(g: GameInstance, th: Thresholds):
    """C2 -> swapped C1."""
    return max(th.alpha2, th.beta2), g.phi1 - 0.5 * _p2a(g)


# ---------------------------------------------------------------------------
# Witness search and the public existence operations.
# ---------------------------------------------------------------------------


def _validate_window(
    g: GameInstance, lo: float, hi: float, baseline: tuple[float, float]
) -> float | None:
    """A validated transfer amount inside (lo, hi), or None.

    Tries the midpoint, then points shrinking toward either end, then a fine
    scan.  Windows from correctly-firing conditions validate at the midpoint;
    the ladder only matters within rounding distance of a boundary.  In a
    census of 1M games (``scripts/route_census.py`` families) it changed 277
    verdicts, every one drawn with valuations over 1e-12..1e12 and none
    with valuations within 1e-6..1e6.
    """
    width = hi - lo
    for frac in (0.5, 0.25, 0.75, 0.1, 0.9, 0.02, 0.98):
        nu = lo + frac * width
        if is_mutually_beneficial(g, Transfer(0.0, nu), baseline):
            return nu
    nus = np.linspace(lo + 1e-3 * width, hi - 1e-3 * width, 513)
    u1, u2 = batch.payoffs_at_transfers(g, 0.0, nus)
    score = np.minimum(u1 - baseline[0], u2 - baseline[1])
    k = int(np.argmax(score))
    if score[k] > min_gain(g):
        return float(nus[k])
    return None


def _validate_small_step(g: GameInstance, baseline: tuple[float, float]) -> float | None:
    """A validated small positive transfer (strategically consistent routes)."""
    nu = 0.25 * g.phi1
    for _ in range(60):
        if is_mutually_beneficial(g, Transfer(0.0, nu), baseline):
            return nu
        nu *= 0.5
    return None


def _oriented_contest_verdict(
    g: GameInstance, m: _Margins, sc: bool = True, si: bool = True
) -> tuple[bool, float | None, str | None]:
    """(exists, nu, route) for positive transfers in an oriented game."""
    label = classify_case(g)
    m.note(g.x1 / g.phi1, g.x2 / g.phi2)
    if label.index == 4:
        return False, None, None
    region = classify_region(g)
    m.note(g.x1, 1.0, 1.0)
    m.note(g.x2, 1.0, 1.0)
    m.note(g.x1 + g.x2, 1.0, 1.0)
    baseline = player_payoffs(g)
    candidates = []
    if sc:
        candidates.extend(_sc_routes(g, label.index, m))
    if si:
        candidates.extend(_si_windows(g, region, label.index, m))
    for route, window in candidates:
        if window is None:
            nu = _validate_small_step(g, baseline)
        else:
            nu = _validate_window(g, window[0], window[1], baseline)
        if nu is not None:
            return True, nu, route
        # A fired condition whose witnesses all fail validation is a
        # boundary artifact; flag it rather than trust the algebra.
        m.min_margin = 0.0
    return False, None, None


def _one_sided_verdict(g: GameInstance, sc: bool, si: bool):
    _require_oriented(g)
    m = _Margins()
    exists, nu, route = _oriented_contest_verdict(g, m, sc=sc, si=si)
    witness = Transfer(0.0, nu) if nu is not None else None
    return MutualBenefitVerdict(Mechanism.CONTEST, exists, witness, route, m.near())


def sc_contest_exists(g: GameInstance) -> MutualBenefitVerdict:
    """Strategically consistent positive contest transfer for an oriented game."""
    return _one_sided_verdict(g, sc=True, si=False)


def si_contest_exists(g: GameInstance) -> MutualBenefitVerdict:
    """Strategically inconsistent positive contest transfer for an oriented game."""
    return _one_sided_verdict(g, sc=False, si=True)


def _ridge_knife_edge(h: GameInstance) -> bool:
    """Whether the single ratio-equalizing transfer benefits both players.

    The transfer landing exactly on the equal-ratio ridge puts the adversary
    in its indifference case, where individual payoffs follow the canonical
    proportional tie-break.  A benefit that exists only at that one point is
    an artifact of the tie-break, not a robust alliance opportunity, so it
    flags the verdict instead of flipping it.
    """
    nu = thresholds(h).alpha1
    if not (0.0 < nu < h.phi1 * (1.0 - 1e-12)):
        return False
    return is_mutually_beneficial(h, Transfer(0.0, nu))


def contest_mutual_exists(g: GameInstance) -> MutualBenefitVerdict:
    """Mutually beneficial contest transfer, either direction.

    Positive transfers are characterized on the oriented game; the mirrored
    direction reuses the same characterization on the index-swapped game, so
    its witnesses carry a negated transfer amount.
    """
    r1 = g.x1 / g.phi1
    r2 = g.x2 / g.phi2
    m = _Margins()
    m.note(r1, r2)
    attempts = []
    if r1 <= r2 * (1.0 + CASE_RTOL):
        attempts.append((g, False))
    if r2 <= r1 * (1.0 + CASE_RTOL):
        attempts.append((swap_indices(g), True))
    for h, swapped in attempts:
        exists, nu, route = _oriented_contest_verdict(h, m)
        if exists:
            witness = Transfer(0.0, -nu) if swapped else Transfer(0.0, nu)
            tag = f"swap:{route}" if swapped else route
            return MutualBenefitVerdict(Mechanism.CONTEST, True, witness, tag, m.near())
    near = m.near()
    if not near:
        near = any(_ridge_knife_edge(h) for h, _ in attempts)
    return MutualBenefitVerdict(Mechanism.CONTEST, False, None, None, near)


def _positive_roots(a: float, b: float, c: float) -> list[float]:
    """Positive real roots of ``a*z**2 + b*z + c = 0`` (none when ``a == 0``)."""
    d = b * b - 4.0 * a * c
    if a == 0.0 or d < 0.0:
        return []
    r = -0.5 * (b + math.copysign(math.sqrt(d), b))
    roots = [r / a, c / r] if r != 0.0 else []
    return [z for z in roots if z > 0.0]


def edge_quadratics(big_x, rho):
    """Coefficients ``(a, b, c)`` of the case-1 and case-2/3 edges, weak side ``w``.

    In ``z = sqrt(b_w / b_s)`` the side is ``z < rho``, the adversary's
    weak-front share is ``s = big_x * rho * z / (1 + z**2)``, and the edges
    are ``s = 1`` and ``1 - s = b_s``.
    """
    b = -big_x * rho
    return (1.0, b, 1.0), (1.0, b, 1.0 - big_x)


def _case_edges(big_x: float, rho: float) -> list[float]:
    """Case edges on the side where player w is weak (``edge_quadratics``)."""
    return [z for quad in edge_quadratics(big_x, rho) for z in _positive_roots(*quad) if z < rho]


def around_ridge(q_ridge: float, gap: float) -> tuple[float, float]:
    """The two values of ``q`` whose ratio gap to the ridge ``q_ridge`` is ``gap``."""
    s = math.sqrt(1.0 - gap)
    return q_ridge * s, q_ridge / s


def candidate_forms(index: int, phi_w, phi_s, base_gap, big_x, k):
    """Interior maximizer candidates of ``min(d_w, d_s)`` on one piece, in ``z``.

    With ``k = sqrt(phi_w * phi_s)``, ``X = big_x`` and ``base_gap = base_w -
    base_s``, the payoffs on a piece of case ``index`` are

    * case 2: ``u_w = k z / 2``, ``u_s = phi_s - phi_s (1 + z**2) / (2 X) + k z / 2``;
    * case 3: ``u_w = (X/2)(phi_w z**2 + k z) / (1 + z**2)``,
      ``u_s = (X/2)(phi_s + k z) / (1 + z**2)``.

    The candidates are the stationary points of ``u_w`` and ``u_s`` and the
    crossings ``d_w = d_s``: a list of points, and a list of quadratics
    ``(a, b, c)`` whose positive roots are candidates.  In case 1 ``u_s =
    phi_s`` and ``u_w`` rises with ``z``, and in case 4 both are constant,
    so only a piece's ends count.  The forms are plain arithmetic, so they
    take floats or arrays.
    """
    if index == 2:
        crossing = 1.0 - 2.0 * big_x * (phi_s + base_gap) / phi_s
        return [0.5 * k * big_x / phi_s], [(1.0, 0.0, crossing)]
    if index == 3:
        half_x = 0.5 * big_x
        return [], [
            (k, -2.0 * phi_w, -k),
            (k, 2.0 * phi_s, -k),
            (half_x * phi_w - base_gap, 0.0, -(half_x * phi_s + base_gap)),
        ]
    return [], []


def _piece_candidates(
    index: int, phi_w: float, phi_s: float, base_gap: float, big_x: float
) -> list[float]:
    """The candidates of ``candidate_forms`` for one piece, as a list of ``z``."""
    k = math.sqrt(phi_w * phi_s)
    points, quads = candidate_forms(index, phi_w, phi_s, base_gap, big_x, k)
    return points + [z for quad in quads for z in _positive_roots(*quad)]


def budget_mutual_exists(g: GameInstance) -> MutualBenefitVerdict:
    """Mutually beneficial budget transfer, decided piece by piece.

    In ``q = sqrt(b1 / b2)``, which falls as ``tau`` grows, the ridge ``q =
    sqrt(phi1 / phi2)``, the edges of the adversary's case-4 band, and the
    case edges of ``_case_edges`` (in ``z = q`` below the ridge, ``z = 1/q``
    above it) cut the feasible interval into pieces.  Each piece is
    classified at its midpoint by ``case_of``, and the smaller payoff delta
    is evaluated through ``player_payoffs`` at its ends and its interior
    candidates (``_piece_candidates``), among which its maximum lies.  The
    route names the case of the deciding piece, ``exact:<case label>``.  The
    sliver within ``2 * RIDGE_RTOL`` of the ridge is searched apart: a
    benefit found only there rides on the adversary's indifference
    tie-break and is reported as the ``ridge-knife-edge``.
    """
    baseline = player_payoffs(g)
    gain = min_gain(g)
    lo, hi = transfer_interval(g, Mechanism.BUDGET)
    big_x = g.total_budget
    q_ridge = math.sqrt(g.phi1 / g.phi2)
    q_lo = math.sqrt((g.x1 - hi) / (g.x2 + hi))
    q_hi = math.sqrt((g.x1 - lo) / (g.x2 + lo))
    sliver = around_ridge(q_ridge, 2.0 * RIDGE_RTOL)
    # The case-4 band |gap| <= CASE_RTOL is a piece of its own: the payoffs
    # jump there.
    breaks = {q_lo, q_hi, q_ridge, *sliver, *around_ridge(q_ridge, 1.001 * CASE_RTOL)}
    breaks.update(_case_edges(big_x, q_ridge))
    breaks.update(1.0 / z for z in _case_edges(big_x, 1.0 / q_ridge))
    qs = sorted(q for q in breaks if q_lo <= q <= q_hi)

    def tau_at(q: float) -> float:
        return min(max(big_x / (1.0 + q * q) - g.x2, lo), hi)

    # Score of a transfer: the smaller payoff delta, ties broken by the sum.
    scores: dict[float, tuple[float, float]] = {}
    # Best (score, case index), q and case label, off the ridge sliver and
    # inside it.  An end shared by two pieces goes to the higher case index,
    # so mirrored games get mirrored labels.
    best = dict.fromkeys((False, True), ((-math.inf, 0.0, 0), q_lo, None))
    for qa, qb in zip(qs, qs[1:]):
        q_mid = 0.5 * (qa + qb)
        on_ridge = sliver[0] < q_mid < sliver[1]
        b2 = big_x / (1.0 + q_mid * q_mid)
        index, swapped = case_of(g.phi1, g.phi2, big_x - b2, b2)
        if swapped:
            zs = _piece_candidates(index, g.phi2, g.phi1, baseline[1] - baseline[0], big_x)
            inner = [1.0 / z for z in zs]
        else:
            inner = _piece_candidates(index, g.phi1, g.phi2, baseline[0] - baseline[1], big_x)
        for q in [qa, qb] + [q for q in inner if qa < q < qb]:
            if q not in scores:
                u1, u2 = player_payoffs(g, Transfer(tau_at(q), 0.0))
                d1, d2 = u1 - baseline[0], u2 - baseline[1]
                scores[q] = (min(d1, d2), d1 + d2)
            key = (*scores[q], index)
            if key > best[on_ridge][0]:
                best[on_ridge] = (key, q, CaseLabel.of(index, swapped))
    (value, _, _), q_best, label = best[False]
    if value > gain:
        witness = Transfer(tau_at(q_best), 0.0)
        return MutualBenefitVerdict(
            Mechanism.BUDGET, True, witness, f"exact:{label}", thin_margin(g, value)
        )
    (ridge_value, _, _), _, _ = best[True]
    if ridge_value > gain:
        return MutualBenefitVerdict(Mechanism.BUDGET, False, None, "ridge-knife-edge", True)
    return MutualBenefitVerdict(Mechanism.BUDGET, False, None, None, False)


def gap_crossing(index: int, big_phi: float, big_x: float, gap: float, lead: float):
    """``p = phi_w'`` with ``u_w - u_s = lead`` on the case-``index`` piece of a gap curve.

    The curve holds the post-transfer games whose weak ratio sits ``gap``
    below the strong one: ``x_w' = (1 - gap) X p / D`` with ``D = Phi - gap
    p``.  With ``c = sqrt(1 - gap)``, the adversary's weak-front share is ``c
    X p / D`` in case 2 and ``c p / (c p + Phi - p)`` in case 3, and

    * case 1: ``u_s = Phi - p`` and ``u_w = p - D / (2 c**2 X)``, linear.  That
      form is exact once ``x_w' >= 1``; in the band ``c <= x_w' < 1`` it is
      off by at most ``p * gap**2 / 8``;
    * case 2: ``u_w = c p / 2``, ``u_s = Phi - p - (D - c X p) / (2 X)``, linear;
    * case 3: ``u_w = c X p (Phi - (1 - c) p) / (2 D)``, ``u_s = X (Phi - p)
      (Phi - (1 - c) p) / (2 D)``, a quadratic whose smaller root counts;
    * case 4 (when ``gap`` is within ``CASE_RTOL``, which float cancellation
      can make it at extreme valuations): ``u_i = phi_i' (1 - 1 / (2 X))``,
      linear.

    None when the quadratic has no positive root.  Cases 1, 2 and 4 are
    plain arithmetic, so they take arrays too.
    """
    if index == 1:
        half = 0.5 / ((1.0 - gap) * big_x)
        return (big_phi + lead + half * big_phi) / (2.0 + half * gap)
    if index == 2:
        return (lead + big_phi - big_phi / (2.0 * big_x)) / (1.0 - gap / (2.0 * big_x))
    if index == 3:
        return min(_positive_roots(*gap_quadratic(big_phi, big_x, gap, lead)), default=None)
    return 0.5 * (big_phi + lead / (1.0 - 0.5 / big_x))


def gap_quadratic(big_phi, big_x, gap, lead):
    """Coefficients ``(a, b, c)`` of ``gap_crossing``'s case-3 quadratic in ``p``."""
    b = -2.0 * (big_x * big_phi + lead * gap)
    c = big_phi * (big_x * big_phi + 2.0 * lead)
    return big_x * gap, b, c


def _gap_witness(
    g: GameInstance, baseline: tuple[float, float]
) -> tuple[Transfer, CaseLabel] | None:
    """The equal-gain split at ratio gap ``2 * RIDGE_RTOL``, with its case label.

    The witness keeps the weaker ratio with the same player (the game's own
    side of the ridge) and moves budgets and valuations onto the gap curve
    of ``gap_crossing``.  Along the curve ``u_w`` rises and ``u_s`` falls
    with ``p``, so the crossing ``d_w = d_s`` is the best split there.  It
    is taken from the piece that ``case_of`` confirms at its solution.
    """
    swapped = g.x2 / g.phi2 < g.x1 / g.phi1
    if swapped:
        phi_w, x_w, lead = g.phi2, g.x2, baseline[1] - baseline[0]
    else:
        phi_w, x_w, lead = g.phi1, g.x1, baseline[0] - baseline[1]
    big_phi, big_x = g.total_valuation, g.total_budget
    gap = 2.0 * RIDGE_RTOL
    # Case 3 needs X < 1 and case 4 X >= 1; case 1 comes last, for rich w.
    for index in (3, 2, 1) if big_x < 1.0 else (2, 1, 4):
        p = gap_crossing(index, big_phi, big_x, gap, lead)
        if p is None or not 0.0 < p < big_phi:
            continue
        xw = (1.0 - gap) * big_x * p / (big_phi - gap * p)
        if case_of(p, big_phi - p, xw, big_x - xw)[0] == index:
            tau, nu = x_w - xw, phi_w - p
            witness = Transfer(-tau, -nu) if swapped else Transfer(tau, nu)
            return witness, CaseLabel.of(index, swapped)
    return None


def joint_mutual_exists(g: GameInstance) -> MutualBenefitVerdict:
    """Mutually beneficial joint transfer, from the collective surplus.

    A surplus at or below twice the gain floor certifies absence (no route,
    unflagged).  Otherwise the equal-gain split at the sliver's edge
    (``_gap_witness``) is validated through the payoff map and named
    ``exact:<case label>``; when it fails, both players gain only inside the
    ridge sliver, the flagged ``ridge-knife-edge``.
    """
    baseline = player_payoffs(g)
    gain = min_gain(g)
    if max_collective_payoff(g) - (baseline[0] + baseline[1]) <= 2.0 * gain:
        return MutualBenefitVerdict(Mechanism.JOINT, False, None, None, False)
    found = _gap_witness(g, baseline)
    if found is not None:
        witness, label = found
        d1, d2 = payoff_deltas(g, witness, baseline)
        if d1 > gain and d2 > gain:
            return MutualBenefitVerdict(
                Mechanism.JOINT, True, witness, f"exact:{label}", thin_margin(g, min(d1, d2))
            )
    return MutualBenefitVerdict(Mechanism.JOINT, False, None, "ridge-knife-edge", True)
