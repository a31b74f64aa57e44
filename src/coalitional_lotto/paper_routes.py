"""The paper's printed contest routes, kept as a check on the exact verdict.

The paper characterizes mutually beneficial contest transfers route by
route.  For a game oriented so that player 1 has the weaker
budget-to-valuation ratio, a positive valuation transfer is beneficial
either without changing the structure of the adversary's best response
(strategically consistent, ``SC:C2`` and ``SC:C3``) or by pushing the game
into a different case (strategically inconsistent).  The inconsistent
routes are enumerated per budget region R1..R5; each route reduces to
threshold gates (alpha/beta breakpoints) and open intervals where one or
two quadratics in the transfer amount are negative.  Routes 5.4, 5.5,
5.9, 5.10 and 5.12 are left out (``_si_windows`` says why); route 5.3 stays
because it shares its form with 5.7.

``mutual.contest_mutual_exists`` decides contest transfers exactly, piece by
piece, and never calls this module.  ``route_verdict`` opens the printed
windows and tries a point of each through the payoff map;
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
from .collective import ridge_transfer
from .core import GameInstance, Mechanism, Transfer, swap_indices
from .mutual import (
    MutualBenefitVerdict,
    Region,
    classify_region,
    is_mutually_beneficial,
    payoff_deltas,
)
from .search import line_ends, min_gain, thin_margin

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
        alpha1=ridge_transfer(g, Mechanism.CONTEST),
        alpha2=(f - x1 * x2 * s0) / (x1 * x2 + 1.0),
        alpha3=(x1 * x2 * f - s0) / (x1 * x2 + 1.0),
        alpha4=(x1 * x2 * f - (1.0 - x2) ** 2 * s0) / ((1.0 - x2) ** 2 + x1 * x2),
        alpha5=((1.0 - x1) ** 2 * f - x1 * x2 * s0) / ((1.0 - x1) ** 2 + x1 * x2),
        beta1=(2.0 - x2) / x2 * s0,
        beta2=math.sqrt(x1 * f * s0 / x2**3) - (1.0 - x2) ** 2 / x2**2 * s0,
    )


# ---------------------------------------------------------------------------
# The printed conditions, for oriented games.
#
# All helpers below assume the oriented view (player 1 = weaker ratio) and
# consider positive transfers only.  Windows are intervals of nu where every
# gate holds; the final verdict validates a point from the window through the
# payoff map.
# ---------------------------------------------------------------------------


def _sc_routes(g: GameInstance, case_index: int):
    """Strategically consistent routes: derivative conditions at nu = 0.

    Returns a list of (route, window) pairs; consistent transfers have no
    printed window, so the window is None and validation takes small steps.
    """
    f, s0, x1, x2 = g.phi1, g.phi2, g.x1, g.x2
    if not s0 < f:  # both routes need phi1 > phi2
        return []
    if case_index == 2:
        # (f - s0) * sqrt(x1*x2 / (f*s0)), with no product of the valuations:
        # f * s0 underflows to 0 on subnormal valuations.
        rhs = (f - s0) / math.sqrt(f) / math.sqrt(s0) * math.sqrt(x1 * x2)
        if 2.0 - 4.0 * x2 < rhs:
            return [("SC:C2", None)]
    elif case_index == 3 and 4.0 * f * s0 * x1 < x2 * (f - s0) ** 2:
        return [("SC:C3", None)]
    return []


def _window(lows, highs) -> tuple[float, float] | None:
    lo = max(lows)
    hi = min(highs)
    return (lo, hi) if lo < hi else None


def _ratio_gate(g: GameInstance, lo: float, hi: float, window):
    """``window`` when the printed double inequality ``lo < phi2/phi1 < hi`` holds."""
    return window if lo < g.phi2 / g.phi1 < hi else None


def _p2a(g: GameInstance) -> float:
    """The root ``sqrt(x1*phi1*phi2/x2)`` of player 1's pre-transfer case-2 payoff.

    The printed form repeats phi2 under the root where phi1*phi2 belongs
    (routes 3.3, 4.4, 4.5 and 5.8).
    """
    return math.sqrt(g.x1 * g.phi1 * g.phi2 / g.x2)


def _si_windows(g: GameInstance, region: Region, case_index: int):
    """All strategically inconsistent routes applicable to an oriented game.

    Returns (route, (lo, hi)) candidate windows in printed order, clipped to
    positive transfers short of the contest line's end (``search.line_ends``).
    Conditions follow the printed characterization with its misprints
    corrected: route 2.1's constant ends in ``- phi1*phi2``, not
    ``- 4*phi1*phi2``; route 5.11's constant squares
    ``x2*phi2 + sqrt(x1*x2*phi1*phi2)``; and ``_p2a`` has phi1*phi2 under its
    root.
    """
    f, s0, x1, x2 = g.phi1, g.phi2, g.x1, g.x2
    th = thresholds(g)
    a1, a2, a4, a5 = th.alpha1, th.alpha2, th.alpha4, th.alpha5
    b1t, b2t = th.beta1, th.beta2
    routes = []
    if region is Region.R1 and case_index == 1:
        w11 = _ratio_gate(
            g, (2.0 * x1 * x2 - x1 - x2) / (2.0 * x1 * x1), (2.0 * x2 - 1.0) / (2.0 * x1),
            (max(a1, s0 / (2.0 * x2 - 1.0)), f / (2.0 * x1)),
        )
        routes = [("1.1:C1_1le2->C1_1gt2", w11)]

    elif region is Region.R2 and case_index == 1:
        q1 = quadratic_window(1.0 + (2.0 * x1 - 1.0) ** 2 / (x1 * x2), s0 - f, -f * s0)
        q2 = quadratic_window(1.0, s0 - f, 4.0 * (x1 / x2) * s0 * s0 - f * s0)
        w21 = None
        if not q1.empty and not q2.empty:
            w21 = _window([q1.z_minus, q2.z_minus, a1], [q1.z_plus, q2.z_plus, a2])
        w22 = _ratio_gate(
            g,
            (-x1 * x2 + 2.0 * x1 - 1.0) / (2.0 * x1 * x1 * x2), x2 / (2.0 * x1 * (2.0 - x2)),
            (max(a2, s0 * (2.0 - x2) / x2), f / (2.0 * x1)),
        )
        routes = [("2.1:C1_1le2->C2_1gt2", w21), ("2.2:C1_1le2->C1_1gt2", w22)]

    elif region is Region.R3 and case_index == 1:
        w32 = _ratio_gate(
            g, (x1 + x2 - 2.0) / 2.0, (2.0 - x1) * (2.0 * x2 - 1.0) / 2.0,
            (max(a1, s0 / (2.0 * x2 - 1.0)), f * (2.0 - x1) / 2.0),
        )
        routes = [
            ("3.1:C1_1le2->C2_1le2", _form_c1_to_c2_native(g, th, a1)),
            ("3.2:C1_1le2->C1_1gt2", w32),
        ]

    elif region is Region.R3 and case_index == 2:
        lo = max(a1, math.sqrt(x1 * x2 * f * s0) / (2.0 * x2 - 1.0))
        routes = [("3.3:C2_1le2->C1_1gt2", (lo, f - 0.5 * _p2a(g)))]

    elif region is Region.R4 and case_index == 1:
        w43 = _ratio_gate(
            g, (x1 * x2 - 2.0 * x2 + 1.0) / (2.0 * x2), (2.0 - x1) * x2 / (2.0 * (2.0 - x2)),
            (max(a2, s0 * (2.0 - x2) / x2), f * (2.0 - x1) / 2.0),
        )
        routes = [
            ("4.1:C1_1le2->C2_1le2", _form_c1_to_c2_native(g, th, a1)),
            ("4.2:C1_1le2->C2_1gt2", _form_c1_to_c2_swapped(g, th)),
            ("4.3:C1_1le2->C1_1gt2", w43),
        ]

    elif region is Region.R4 and case_index == 2:
        routes = [
            ("4.4:C2_1le2->C2_1gt2", _form_c2_to_c2_swapped(g, th, a1)),
            ("4.5:C2_1le2->C1_1gt2", (max(a2, b2t), f - 0.5 * _p2a(g))),
        ]

    elif region is Region.R5 and case_index == 1:
        q9 = quadratic_window(1.0 + x1 / x2, s0 - f, -f * s0)
        q10 = quadratic_window(
            1.0 + x2 / x1,
            (x1 + 2.0 * x2 - 4.0) / x1 * s0 - f,
            (2.0 - x2) ** 2 * s0 * s0 / (x1 * x2) - f * s0,
        )
        # Routes 5.4 (C1 -> swapped C2) and 5.5 (C1 -> swapped C1) are left
        # out: they decided no verdict in a census of 1M games.
        routes = [
            ("5.1:C1_1le2->C2_1le2", _form_c1_to_c2_native(g, th, a4)),
            *_form_into_c3(th, q9, q10, b1t, "5.2:C1_1le2->C3_1le2", "5.3:C1_1le2->C3_1gt2"),
        ]

    elif region is Region.R5 and case_index == 2:
        root = math.sqrt(f * s0 / (x1 * x2))
        q11 = quadratic_window(
            1.0 + x2 / x1,
            2.0 * root + (x2 / x1) * (s0 - f) - 2.0 * f,
            (root - f) ** 2 - (x2 / x1) * f * s0,
        )
        q12 = quadratic_window(
            1.0 + x1 / x2, -2.0 * b2t + (x1 / x2) * (s0 - f), b2t * b2t - (x1 / x2) * f * s0
        )
        # Route 5.9 (C2 -> swapped C1) is left out: under the corrected
        # reading, wherever its window opens one of routes 5.6-5.8 validates
        # first, so it never decides a verdict.
        routes = [
            *_form_into_c3(th, q11, q12, b2t, "5.6:C2_1le2->C3_1le2", "5.7:C2_1le2->C3_1gt2"),
            ("5.8:C2_1le2->C2_1gt2", _form_c2_to_c2_swapped(g, th, a5)),
        ]

    elif region is Region.R5 and case_index == 3:
        # C3 -> C3 across the ridge (route 5.10) admits no beneficial transfer.
        # Route 5.12 (C3 -> swapped C1) is left out: under the corrected
        # reading, route 5.11 validates wherever its window opens.
        inner = (x1 - 1.0) ** 2 * f / x1 + math.sqrt(f * s0 * x1 * x2)
        q13 = quadratic_window(
            1.0 + (x1 / x2) * (2.0 - 1.0 / x1) ** 2,
            (4.0 * x1 - 2.0) / x2 * inner + s0 - f,
            (x1 / x2) * inner * inner - f * s0,
        )
        q14 = quadratic_window(
            1.0, s0 - f, (x1 / x2) * (x2 * s0 + math.sqrt(x1 * x2 * f * s0)) ** 2 - f * s0
        )
        w511 = None
        if not q13.empty and not q14.empty:
            w511 = _window([q13.z_minus, q14.z_minus, a5], [q13.z_plus, q14.z_plus, a2])
        routes = [("5.11:C3_1le2->C2_1gt2", w511)]

    out = []
    for route, window in routes:
        if window is not None:
            lo = max(window[0], 0.0)
            hi = min(window[1], line_ends(g, Mechanism.CONTEST)[1])
            if lo < hi:
                out.append((route, (lo, hi)))
    return out


def _form_c1_to_c2_native(g: GameInstance, th: Thresholds, upper_gate: float):
    """C1 -> native C2 (quadratic 3, plus quadratic 4 when x2 < 1/2)."""
    f, s0, x1, x2 = g.phi1, g.phi2, g.x1, g.x2
    q3 = quadratic_window(1.0, s0 - f, x1 * x2 * f * f - f * s0)
    if q3.empty:
        return None
    if x2 >= 0.5:
        return _window([q3.z_minus, th.alpha3], [q3.z_plus, upper_gate])
    q4 = quadratic_window(
        (1.0 - 2.0 * x2) ** 2 + x1 * x2,
        2.0 * (1.0 - 2.0 * x2) * s0 + x1 * x2 * (s0 - f),
        s0 * s0 - x1 * x2 * f * s0,
    )
    if q4.empty:
        return None
    return _window([q3.z_minus, q4.z_minus, th.alpha3], [q3.z_plus, q4.z_plus, upper_gate])


def _form_into_c3(th: Thresholds, q_out, q_in, beta: float, below: str, above: str):
    """Into case 3 on either side of the ridge: routes ``below`` and ``above``.

    The outer quadratic with the beta gate as a lower bound, then both
    quadratics with the beta gate as an upper bound.
    """
    if q_out.empty:
        return []
    a1, a4, a5 = th.alpha1, th.alpha4, th.alpha5
    routes = [
        (below, _window([q_out.z_minus, beta, a4], [q_out.z_plus, a1])),
        (above, _window([q_out.z_minus, beta, a1], [q_out.z_plus, a5])),
    ]
    if not q_in.empty:
        lows, highs = [q_out.z_minus, q_in.z_minus], [q_out.z_plus, q_in.z_plus, beta]
        routes += [
            (below, _window(lows + [a4], highs + [a1])),
            (above, _window(lows + [a1], highs + [a5])),
        ]
    return routes


def _form_c1_to_c2_swapped(g: GameInstance, th: Thresholds):
    """C1 -> swapped C2 (quadratics 5 and 6)."""
    f, s0, x1, x2 = g.phi1, g.phi2, g.x1, g.x2
    q5 = quadratic_window(
        (1.0 - 2.0 * x1) ** 2 + x1 * x2,
        x1 * x2 * (s0 - f) - 2.0 * (x1 - 1.0) ** 2 * (1.0 - 2.0 * x1) * f,
        (x1 - 1.0) ** 4 * f * f - x1 * x2 * f * s0,
    )
    q6 = quadratic_window(1.0, s0 - f, 4.0 * (x1 / x2) * s0 * s0 - f * s0)
    if q5.empty or q6.empty:
        return None
    return _window([q5.z_minus, q6.z_minus, th.alpha1], [q5.z_plus, q6.z_plus, th.alpha2])


def _form_c2_to_c2_swapped(g: GameInstance, th: Thresholds, lower_gate: float):
    """C2 -> swapped C2 (quadratics 7 and 8); lower gate differs by region."""
    f, s0, x1, x2 = g.phi1, g.phi2, g.x1, g.x2
    inner = x1 * _p2a(g) - (2.0 * x1 - 1.0) * f
    q7 = quadratic_window(
        (2.0 * x1 - 1.0) ** 2 + x1 * x2,
        2.0 * (2.0 * x1 - 1.0) * inner + x1 * x2 * (s0 - f),
        inner * inner - x1 * x2 * f * s0,
    )
    q8 = quadratic_window(
        1.0,
        s0 - f,
        (x1 / x2) * ((2.0 - 1.0 / x2) * s0 + math.sqrt(x1 * f * s0 / x2)) ** 2 - f * s0,
    )
    if q7.empty or q8.empty:
        return None
    return _window([q7.z_minus, q8.z_minus, lower_gate], [q7.z_plus, q8.z_plus, th.alpha2])


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
    g: GameInstance, h: GameInstance, scale: int
) -> tuple[float | None, str | None, bool]:
    """``(nu, route, opened)`` for positive transfers in an oriented game ``g``.

    The windows are opened on ``h``, which is ``g`` with both valuations
    multiplied by ``2**-scale``, and moved back to ``g`` by ``2**scale``;
    every point is validated on ``g``.  ``nu`` and ``route`` are the first
    validated route's amount and name, or None; ``opened`` says whether any
    route was handed to validation.
    """
    label = classify_case(h)
    if label.index == 4:
        return None, None, False
    baseline = player_payoffs(g)
    routes = _sc_routes(h, label.index) + _si_windows(h, classify_region(h), label.index)
    for route, window in routes:
        if window is None:
            nu = _validate_small_step(g, baseline)
        else:
            lo, hi = (math.ldexp(end, scale) for end in window)
            nu = _validate_window(g, lo, hi, baseline)
        if nu is not None:
            return nu, route, True
    return None, None, bool(routes)


def route_verdict(g: GameInstance) -> MutualBenefitVerdict:
    """The printed routes' contest verdict, labelled by the deciding route.

    Positive transfers are characterized on the oriented game and the
    mirrored direction on the index-swapped game, whose witnesses carry a
    negated transfer amount and a ``swap:`` route; consistent routes are
    tried before inconsistent ones.  When the larger valuation is below 1,
    the windows are opened on both valuations scaled up by the power of two
    that brings it to ``[0.5, 1)``, which is exact: the printed forms
    multiply valuations together, and on subnormal valuations those
    products underflow to 0.  A positive verdict is flagged when its
    witness's smaller payoff delta on ``g`` is thin (``search.thin_margin``),
    as the exact verdicts are; an absent one when some printed window opened
    and no point of it validated.
    """
    top = max(g.phi1, g.phi2)
    scale = math.frexp(top)[1] if top < 1.0 else 0
    h = GameInstance(math.ldexp(g.phi1, -scale), math.ldexp(g.phi2, -scale), g.x1, g.x2)
    r1 = h.x1 / h.phi1
    r2 = h.x2 / h.phi2
    attempts = []
    if r1 <= r2 * (1.0 + CASE_RTOL):
        attempts.append((g, h, False))
    if r2 <= r1 * (1.0 + CASE_RTOL):
        attempts.append((swap_indices(g), swap_indices(h), True))
    opened = False
    for oriented, scaled, swapped in attempts:
        nu, route, fired = _oriented_contest_verdict(oriented, scaled, scale)
        if nu is not None:
            witness = Transfer(0.0, -nu) if swapped else Transfer(0.0, nu)
            tag = f"swap:{route}" if swapped else route
            d1, d2 = payoff_deltas(g, witness, player_payoffs(g))
            return MutualBenefitVerdict(
                Mechanism.CONTEST, True, witness, tag, thin_margin(g, min(d1, d2))
            )
        opened |= fired
    return MutualBenefitVerdict(Mechanism.CONTEST, False, None, None, opened)
