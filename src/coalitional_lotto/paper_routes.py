"""The paper's printed contest routes, kept as a check on the exact verdict.

The paper characterizes mutually beneficial contest transfers route by
route.  For a game oriented so that player 1 has the weaker
budget-to-valuation ratio, a positive valuation transfer is beneficial
either without changing the structure of the adversary's best response
(strategically consistent, ``SC:C2`` and ``SC:C3``) or by pushing the game
into a different case (strategically inconsistent).  The inconsistent
routes are enumerated per budget region R1..R5; each route reduces to
threshold gates (alpha/beta breakpoints) and open intervals where one or
two quadratics in the transfer amount are negative.

``mutual.contest_mutual_exists`` decides contest transfers exactly, piece by
piece, and never calls this module.  ``route_verdict`` opens the printed
windows and validates a point of each through the payoff map;
``scripts/route_census.py`` and the route tests hold it against the exact
verdict.  Five printed coefficients are misprints; only the corrected
reading is implemented, and ``calibration/typo_resolution.md`` records the
grid-oracle calibration that chose it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import batch
from .adversary import CASE_RTOL, classify_case, player_payoffs
from .core import GameInstance, Mechanism, Transfer, swap_indices
from .mutual import (
    MutualBenefitVerdict,
    Region,
    classify_region,
    is_mutually_beneficial,
    ridge_transfer,
)
from .search import NEAR_RTOL, min_gain

__all__ = [
    "QuadraticWindow",
    "Thresholds",
    "quadratic_window",
    "thresholds",
    "route_verdict",
]


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
        alpha1=ridge_transfer(g),
        alpha2=(f - x1 * x2 * s0) / (x1 * x2 + 1.0),
        alpha3=(x1 * x2 * f - s0) / (x1 * x2 + 1.0),
        alpha4=(x1 * x2 * f - (1.0 - x2) ** 2 * s0) / ((1.0 - x2) ** 2 + x1 * x2),
        alpha5=((1.0 - x1) ** 2 * f - x1 * x2 * s0) / ((1.0 - x1) ** 2 + x1 * x2),
        beta1=(2.0 - x2) / x2 * s0,
        beta2=math.sqrt(x1 * f * s0 / x2**3) - (1.0 - x2) ** 2 / x2**2 * s0,
    )




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




# ---------------------------------------------------------------------------
# The printed conditions, for oriented games.
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
# Witness validation and the route verdict.
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


def route_verdict(g: GameInstance, sc: bool = True, si: bool = True) -> MutualBenefitVerdict:
    """The printed routes' contest verdict, labelled by the deciding route.

    With both route families (``sc`` consistent, ``si`` inconsistent),
    positive transfers are characterized on the oriented game and the
    mirrored direction on the index-swapped game, whose witnesses carry a
    negated transfer amount and a ``swap:`` route.  With one family only,
    ``g`` must already be oriented (``ValueError`` otherwise) and only
    positive transfers are tried.  A fired condition whose points all fail
    validation, a margin below ``NEAR_RTOL`` on any decisive comparison, or
    an absent verdict whose ridge-crossing transfer alone benefits both
    players sets ``near_boundary``.
    """
    m = _Margins()
    if not (sc and si):
        _require_oriented(g)
        exists, nu, route = _oriented_contest_verdict(g, m, sc=sc, si=si)
        witness = Transfer(0.0, nu) if nu is not None else None
        return MutualBenefitVerdict(Mechanism.CONTEST, exists, witness, route, m.near())
    r1 = g.x1 / g.phi1
    r2 = g.x2 / g.phi2
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
