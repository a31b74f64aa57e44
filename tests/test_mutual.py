import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coalitional_lotto import mutual_arrays
from coalitional_lotto.adversary import player_payoffs
from coalitional_lotto.analysis import analyze_game
from coalitional_lotto.batch import GameArrays
from coalitional_lotto.collective import collective_report, max_collective_payoff
from coalitional_lotto.core import GameInstance, Mechanism, Transfer, swap_indices
from coalitional_lotto.mutual import (
    REGIONS,
    Mechanism,
    Region,
    budget_mutual_exists,
    classify_region,
    contest_mutual_exists,
    is_mutually_beneficial,
    joint_mutual_exists,
    payoff_deltas,
    region_index,
)
from coalitional_lotto.oracle import GridSpec, grid_mutual_search, grid_mutual_searches
from coalitional_lotto.paper_routes import quadratic_window, route_verdict, thresholds
from coalitional_lotto.rng import SplitMix64
from coalitional_lotto.search import RIDGE_RTOL, contest_ends, min_gain, ridge_gap

from conftest import random_games

# Values over four decades, uniform in the exponent.
decades = st.floats(-2.0, 2.0).map(lambda e: 10.0**e)
# Valuations over eight decades and budgets over six.
wide_valuations = st.floats(-4.0, 4.0).map(lambda e: 10.0**e)
wide_budgets = st.floats(-3.0, 3.0).map(lambda e: 10.0**e)
# The whole domain the census covers: valuations over 24 decades, budgets
# over 18.
domain_valuations = st.floats(-12.0, 12.0).map(lambda e: 10.0**e)
domain_budgets = st.floats(-9.0, 9.0).map(lambda e: 10.0**e)


def _mirror(route: str) -> str:
    return route.replace("1le2", "?").replace("1gt2", "1le2").replace("?", "1gt2")


def _assert_exact_contest_mirrors(g: GameInstance):
    """The exact contest verdict finds a witness, and the swapped game mirrors it."""
    v = contest_mutual_exists(g)
    assert v.exists and v.route.startswith("exact:"), (g, v)
    assert is_mutually_beneficial(g, v.witness)
    w = contest_mutual_exists(swap_indices(g))
    assert (w.exists, w.route, w.near_boundary) == (True, _mirror(v.route), v.near_boundary)
    assert w.witness.nu == -v.witness.nu
    return v


def stratified_games(per_region: int, seed: int) -> list[GameInstance]:
    """Games with budgets in each region R1..R5; every fourth on the ridge."""
    rng = SplitMix64(seed)
    ranges = {
        "R1": ((1.0, 4.0), (1.0, 4.0)),
        "R2": ((1.0, 4.0), (0.02, 1.0)),
        "R3": ((0.02, 1.0), (1.0, 4.0)),
        "R4": ((0.02, 1.0), (0.02, 1.0)),
        "R5": ((0.02, 1.0), (0.02, 1.0)),
    }
    games = []
    for region, (r1, r2) in ranges.items():
        count = 0
        while count < per_region:
            x1, x2 = rng.uniform(*r1), rng.uniform(*r2)
            phi1 = 10.0 ** rng.uniform(-1.0, 1.0)
            phi2 = 10.0 ** rng.uniform(-1.0, 1.0)
            if count % 4 == 3:
                phi2 = phi1 * x2 / x1
            g = GameInstance(phi1, phi2, x1, x2)
            if classify_region(g).value == region:
                games.append(g)
                count += 1
    return games


def _log_uniform(rng: SplitMix64, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def log_uniform_games(count: int, seed: int) -> list[GameInstance]:
    """Valuations over 1e-4..1e4, budgets over 1e-3..1e3; every tenth on the ridge."""
    rng = SplitMix64(seed)
    games = []
    for i in range(count):
        phi1, phi2 = _log_uniform(rng, 1e-4, 1e4), _log_uniform(rng, 1e-4, 1e4)
        x1, x2 = _log_uniform(rng, 1e-3, 1e3), _log_uniform(rng, 1e-3, 1e3)
        if i % 10 == 9:
            phi2 = phi1 * x2 / x1
        games.append(GameInstance(phi1, phi2, x1, x2))
    return games


def near_ridge_games(count: int, seed: int) -> list[GameInstance]:
    """Games whose ratio gap is log-uniform over 1e-11..1e-3, on either side."""
    rng = SplitMix64(seed)
    games = []
    for _ in range(count):
        phi1, x1, x2 = (_log_uniform(rng, 1e-2, 1e2) for _ in range(3))
        gap = _log_uniform(rng, 1e-11, 1e-3)
        r2 = x1 / phi1 * (1.0 / (1.0 - gap) if rng.uniform(0.0, 1.0) < 0.5 else 1.0 - gap)
        games.append(GameInstance(phi1, x2 / r2, x1, x2))
    return games


class TestRegion:
    @pytest.mark.parametrize(
        "params,region",
        [
            ((12, 10, 0.4, 1.6), Region.R3),
            ((12, 10, 2, 2), Region.R1),
            ((12, 10, 0.2, 0.3), Region.R5),
            ((12, 10, 1.5, 0.7), Region.R2),
            ((12, 10, 0.7, 0.6), Region.R4),
            ((12, 10, 1.0, 1.0), Region.R1),
        ],
    )
    def test_examples(self, params, region):
        assert classify_region(GameInstance(*params)) is region

    def test_partition(self):
        edges = [GameInstance(1.0, 1.0, x1, x2) for x1 in (0.5, 1.0, 2.0) for x2 in (0.5, 1.0)]
        games = random_games(300, seed=17) + edges + [GameInstance(1.0, 1.0, 0.25, 0.75)]
        arrays = GameArrays.of(games)
        by_index = [REGIONS[i] for i in region_index(arrays.x1, arrays.x2).tolist()]
        assert by_index == [classify_region(g) for g in games]
        for g in games:
            r = classify_region(g)
            if g.x1 + g.x2 < 1:
                assert r is Region.R5
            elif g.x1 >= 1 and g.x2 >= 1:
                assert r is Region.R1
            elif g.x1 >= 1:
                assert r is Region.R2
            elif g.x2 >= 1:
                assert r is Region.R3
            else:
                assert r is Region.R4


class TestArrayVerdicts:
    """The array verdicts of the sweep path equal the one-game verdicts."""

    @staticmethod
    def corpus() -> list[GameInstance]:
        rng = SplitMix64(41)
        extreme = [
            GameInstance(
                _log_uniform(rng, 1e-12, 1e12),
                _log_uniform(rng, 1e-12, 1e12),
                _log_uniform(rng, 1e-9, 1e9),
                _log_uniform(rng, 1e-9, 1e9),
            )
            for _ in range(300)
        ]
        games = (
            log_uniform_games(600, seed=43)
            + stratified_games(60, seed=44)
            + near_ridge_games(300, seed=45)
            + extreme
        )
        return games + [swap_indices(g) for g in games]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "scalar,arrays",
        [
            (budget_mutual_exists, mutual_arrays.budget_exists),
            (contest_mutual_exists, mutual_arrays.contest_exists),
            (joint_mutual_exists, mutual_arrays.joint_exists),
        ],
    )
    def test_matches_scalar_game_by_game(self, scalar, arrays):
        games = self.corpus()
        expected = [scalar(g).exists for g in games]
        assert 0 < sum(expected) < len(games)
        assert arrays(GameArrays.of(games)).tolist() == expected
        # Any subset, in any order, gives the same verdicts.
        rows = [7, 3, 3, 0]
        picked = arrays(GameArrays.of([games[k] for k in rows]))
        assert picked.tolist() == [expected[k] for k in rows]
        assert arrays(GameArrays.of([])).shape == (0,)


class TestQuadraticWindow:
    def test_simple_window(self):
        w = quadratic_window(1, 0, -1)
        assert w.discriminant == 4
        assert (w.z_minus, w.z_plus) == (-1, 1)

    def test_no_real_roots(self):
        w = quadratic_window(1, 0, 1)
        assert w.discriminant == -4
        assert w.empty

    def test_touching_root_never_satisfies_strict(self):
        w = quadratic_window(1, -2, 1)
        assert w.discriminant == 0
        assert w.empty

    def test_rejects_nonpositive_leading(self):
        with pytest.raises(ValueError):
            quadratic_window(0, 1, 1)
        with pytest.raises(ValueError):
            quadratic_window(-1, 1, 1)

    @given(
        a=st.floats(1e-3, 1e3),
        b=st.floats(-1e3, 1e3),
        c=st.floats(-1e3, 1e3),
        t=st.floats(-2e3, 2e3),
    )
    @settings(max_examples=400)
    def test_membership_matches_sign(self, a, b, c, t):
        w = quadratic_window(a, b, c)
        value = a * t * t + b * t + c
        inside = (not w.empty) and w.z_minus < t < w.z_plus
        if inside:
            assert value < 1e-6 * max(1.0, abs(c), a * t * t)
        elif abs(value) > 1e-6 * max(1.0, abs(c), a * t * t, abs(b * t)):
            assert not (value < 0) or inside


class TestThresholds:
    def test_formulas(self, diamond):
        th = thresholds(diamond)
        f, s, x1, x2 = 12, 10, 0.4, 1.6
        assert th.alpha1 == pytest.approx((x2 * f - x1 * s) / (x1 + x2))
        assert th.alpha2 == pytest.approx((f - x1 * x2 * s) / (x1 * x2 + 1))
        assert th.alpha3 == pytest.approx((x1 * x2 * f - s) / (x1 * x2 + 1))
        assert th.alpha4 == pytest.approx(
            (x1 * x2 * f - (1 - x2) ** 2 * s) / ((1 - x2) ** 2 + x1 * x2)
        )
        assert th.alpha5 == pytest.approx(
            ((1 - x1) ** 2 * f - x1 * x2 * s) / ((1 - x1) ** 2 + x1 * x2)
        )
        assert th.beta1 == pytest.approx((2 - x2) / x2 * s)
        assert th.beta2 == pytest.approx(math.sqrt(x1 * f * s / x2**3) - (1 - x2) ** 2 / x2**2 * s)

    def test_alpha1_crosses_ridge(self):
        for g in random_games(50, seed=3):
            if g.x1 / g.phi1 > g.x2 / g.phi2:
                g = swap_indices(g)
            nu = thresholds(g).alpha1
            assert g.x1 / (g.phi1 - nu) == pytest.approx(g.x2 / (g.phi2 + nu), rel=1e-9)


class TestStrategicallyConsistent:
    def test_diamond_fires_via_case2(self, diamond):
        # phi1 > phi2 and (2 - 4*x2)/(phi1 - phi2) = -2.2 < sqrt(x1*x2/(phi1*phi2))
        assert (2 - 4 * 1.6) / 2 == pytest.approx(-2.2)
        v = route_verdict(diamond, si=False)
        assert v.exists and v.route == "SC:C2"
        assert v.witness.nu > 0
        assert is_mutually_beneficial(diamond, v.witness)
        _assert_exact_contest_mirrors(diamond)

    def test_case4_never_fires(self):
        v = route_verdict(GameInstance(10, 10, 2, 2), si=False)
        assert not v.exists

    def test_smaller_phi1_blocks_case2_route(self):
        # oriented case-2 game with phi1 < phi2: the consistent route needs
        # phi1 > phi2, so it must not fire
        g = GameInstance(10, 12, 0.3, 0.9)
        from coalitional_lotto.adversary import classify_case

        assert str(classify_case(g)) == "C2_1le2"
        assert not route_verdict(g, si=False).exists

    def test_requires_orientation(self, diamond):
        with pytest.raises(ValueError):
            route_verdict(swap_indices(diamond), si=False)


class TestStrategicallyInconsistent:
    def test_diamond_route_3_3(self, diamond):
        v = route_verdict(diamond, sc=False)
        assert v.exists
        assert v.route.startswith("3.3:")
        assert is_mutually_beneficial(diamond, v.witness)
        _assert_exact_contest_mirrors(diamond)

    def test_c3_in_r5_limited_routes(self):
        # transfers from case 3 can only exit through route 5.11 (5.12, which
        # 5.11 shadows, is not implemented); the case-3-to-case-3 crossing
        # (5.10) admits no mutually beneficial transfer
        for g in random_games(400, seed=41):
            if g.x1 / g.phi1 > g.x2 / g.phi2:
                g = swap_indices(g)
            from coalitional_lotto.adversary import classify_case

            if classify_case(g).index != 3:
                continue
            v = route_verdict(g, sc=False)
            if v.exists:
                assert v.route.split(":")[0] == "5.11"
                _assert_exact_contest_mirrors(g)


class TestContestMutual:
    def test_diamond_exists(self, diamond):
        v = contest_mutual_exists(diamond)
        assert v.exists
        assert v.witness.nu > 0
        assert is_mutually_beneficial(diamond, v.witness)

    def test_ridge_game_no_transfer(self):
        assert not contest_mutual_exists(GameInstance(10, 10, 2, 2)).exists

    def test_mirrored_direction_negative_witness(self, diamond):
        v = route_verdict(swap_indices(diamond))
        assert v.exists
        assert v.witness.nu < 0
        assert v.route.startswith("swap:")
        assert is_mutually_beneficial(swap_indices(diamond), v.witness)
        assert _assert_exact_contest_mirrors(swap_indices(diamond)).witness.nu < 0

    def test_agrees_with_oracle(self):
        mismatches = 0
        games = random_games(150, seed=71)
        for g, o in zip(games, grid_mutual_searches(games, Mechanism.CONTEST)):
            a = contest_mutual_exists(g)
            if a.exists != o.exists and not (a.near_boundary or o.near_boundary):
                mismatches += 1
        assert mismatches == 0

    def test_thin_window_missed_by_default_oracle(self):
        # Valuations and budgets three decades apart: the route-3.3 window is
        # thinner than a 4001-point grid step, so the default oracle misses
        # it and neither side flags the game.  Both gains are about 6.5e-5 of
        # the total valuation; a 200,001-point grid sees the transfer.
        g = GameInstance(
            0.01675391639625724, 21.49790933367522, 0.018025230568032555, 34.03843382378529
        )
        v = route_verdict(g)
        assert (v.exists, v.route, v.near_boundary) == (True, "3.3:C2_1le2->C1_1gt2", False)
        assert is_mutually_beneficial(g, v.witness)
        # The exact verdict sees the same thin gains and flags them.
        assert _assert_exact_contest_mirrors(g).near_boundary
        o = grid_mutual_search(g, Mechanism.CONTEST)
        assert (o.exists, o.near_boundary) == (False, False)
        assert grid_mutual_search(g, Mechanism.CONTEST, GridSpec(200001)).exists


def _assert_contest_invariant(g: GameInstance, c: float) -> None:
    """Scaling valuations by ``c`` keeps the verdict; swapping players mirrors it."""
    v = contest_mutual_exists(g)
    s = contest_mutual_exists(GameInstance(c * g.phi1, c * g.phi2, g.x1, g.x2))
    w = contest_mutual_exists(swap_indices(g))
    assert s.exists == v.exists, (g, c)
    mirrored = _mirror(v.route) if v.route else None
    assert (w.exists, w.route, w.near_boundary) == (v.exists, mirrored, v.near_boundary), g
    if v.exists:
        assert w.witness.nu == -v.witness.nu
        assert abs(s.witness.nu - c * v.witness.nu) <= 1e-9 * c * g.total_valuation


class TestExactContest:
    def test_line_ends_are_inset_by_their_own_size(self):
        # One valuation twelve decades below the other: an inset by the
        # line's width would cut off the small side; each end keeps all but
        # a 1e-11 share of its own valuation.
        g = GameInstance(1e6, 1e-6, 1.0, 1.0)
        lo, hi = contest_ends(g)
        assert lo == pytest.approx(-1e-6 * (1 - 1e-11), rel=1e-15)
        assert hi == pytest.approx(1e6 * (1 - 1e-11), rel=1e-15)
        for nu in (lo, hi):
            player_payoffs(g, Transfer(0.0, nu))

    def test_ridge_knife_edge_exemplar(self):
        # The printed route 1.1 validates a transfer whose ratio gap is about
        # 4.8e-8: the exact verdict finds benefits only inside the sliver.
        g = GameInstance(12.0, 10.0, 1.3953846153846154, 2.591371237458194)
        r = route_verdict(g)
        assert (r.exists, r.route) == (True, "1.1:C1_1le2->C1_1gt2")
        assert ridge_gap(g, Mechanism.CONTEST, r.witness.nu) <= 2 * RIDGE_RTOL
        for h in (g, swap_indices(g)):
            v = contest_mutual_exists(h)
            assert (v.exists, v.witness, v.route, v.near_boundary) == (
                False, None, "ridge-knife-edge", True
            )

    def test_fitted_forms_witness(self):
        # Valuations and budgets nine decades apart: coefficients fitted from
        # payoff calls lose this route-3.3 witness; the closed forms keep it.
        g = GameInstance(
            2903.2719709720322, 2.627709842889962e-06, 165198677.59828785, 0.1456246129073492
        )
        assert route_verdict(g).route == "swap:3.3:C2_1le2->C1_1gt2"
        v = _assert_exact_contest_mirrors(g)
        assert v.witness.nu < 0 and v.near_boundary

    def test_scale_and_swap_invariance_on_seeded_corpus(self):
        rng = SplitMix64(2027)
        games = (
            random_games(1500, seed=64)
            + log_uniform_games(1500, seed=65)
            + near_ridge_games(1500, seed=66)
        )
        for g in games:
            _assert_contest_invariant(g, 10.0 ** rng.uniform(-9.0, 9.0))

    @given(
        phi1=domain_valuations, phi2=domain_valuations, x1=domain_budgets, x2=domain_budgets,
        log_gap=st.one_of(st.none(), st.floats(-11.0, -3.0)),
        c=st.floats(-9.0, 9.0).map(lambda e: 10.0**e),
    )
    @settings(max_examples=300, deadline=None)
    def test_scale_and_swap_invariance(self, phi1, phi2, x1, x2, log_gap, c):
        if log_gap is not None:
            phi2 = phi1 * x2 / x1 * (1.0 + 10.0**log_gap)
        _assert_contest_invariant(GameInstance(phi1, phi2, x1, x2), c)


class TestWholeDomain:
    """No verdict raises anywhere in the valid domain, and the arrays agree."""

    @pytest.mark.parametrize(
        "params",
        [
            # x1 + x2 below 1e-11: the inset budget interval is empty.
            (1.0, 2.0, 1e-12, 2e-12),
            # phi1 * phi2 underflows, and with it the case-2 point candidate.
            (1e-300, 1e-300, 1e-300, 1.0),
        ],
    )
    def test_former_crashes(self, params):
        g = GameInstance(*params)
        report = analyze_game(g)
        assert report.mutual_budget == budget_mutual_exists(g)
        assert (report.mutual_budget.exists, report.mutual_budget.route) == (False, None)
        assert not report.mutual_budget.near_boundary
        arrays = GameArrays.of([g, swap_indices(g)])
        for scalar, vector in (
            (budget_mutual_exists, mutual_arrays.budget_exists),
            (contest_mutual_exists, mutual_arrays.contest_exists),
        ):
            assert vector(arrays).tolist() == [scalar(g).exists, scalar(swap_indices(g)).exists]

    @pytest.mark.parametrize(
        "params",
        [
            (1e-310, 1e-310, 1.0, 1.0),
            # Too small to give up 1e-11 of itself: the end keeps one ulp.
            (5e-324, 1.0, 1.0, 1.0),
            (1e-320, 1.0, 0.5, 0.3),
            (3e-312, 2.0, 0.3, 0.2),
            # The product of the valuations underflows to 0 in the printed
            # consistent route's condition.
            (2.05272652456964e-310, 7.46e-321, 44.24091717614708, 0.0018444936571679431),
            # Both roots of the adversary's case-3 split underflow to 0 along
            # the budget line.
            (4.2943697e-317, 3e-323, 0.013283383747396509, 0.004621616558832586),
            # sqrt(phi1 / phi2) underflows: the ridge sits at the line's end.
            (5e-324, 46.805403100099284, 0.3684590261085013, 2.843483531785971),
        ],
    )
    def test_subnormal_valuations(self, params):
        games = [GameInstance(*params), swap_indices(GameInstance(*params))]
        for g in games:
            analyze_game(g)
            # The printed routes answer too.  Their swapped witness is
            # validated on the mirror game, whose payoffs differ from this
            # game's in the last bits of a subnormal; such a witness is flagged.
            routes = route_verdict(g)
            if routes.exists and not routes.near_boundary:
                assert is_mutually_beneficial(g, routes.witness)
        for scalar, vector in (
            (budget_mutual_exists, mutual_arrays.budget_exists),
            (contest_mutual_exists, mutual_arrays.contest_exists),
            (joint_mutual_exists, mutual_arrays.joint_exists),
        ):
            verdicts = [scalar(g) for g in games]
            assert vector(GameArrays.of(games)).tolist() == [v.exists for v in verdicts]
            for g, v in zip(games, verdicts):
                if v.exists:
                    assert is_mutually_beneficial(g, v.witness)

    @pytest.mark.filterwarnings("error")
    @given(
        phi1=domain_valuations, phi2=domain_valuations, x1=domain_budgets, x2=domain_budgets,
        log_gap=st.one_of(st.none(), st.floats(-11.0, -3.0)),
    )
    @settings(max_examples=300, deadline=None)
    def test_verdicts_raise_nothing_and_arrays_agree(self, phi1, phi2, x1, x2, log_gap):
        if log_gap is not None:
            phi2 = phi1 * x2 / x1 * (1.0 + 10.0**log_gap)
        g = GameInstance(phi1, phi2, x1, x2)
        report = analyze_game(g)
        arrays = GameArrays.of([g])
        for scalar, vector in (
            (budget_mutual_exists, mutual_arrays.budget_exists),
            (contest_mutual_exists, mutual_arrays.contest_exists),
            (joint_mutual_exists, mutual_arrays.joint_exists),
        ):
            v = scalar(g)
            assert vector(arrays).tolist() == [v.exists]
            if v.exists:
                assert is_mutually_beneficial(g, v.witness)
        assert report.mutual_contest == contest_mutual_exists(g)


# One oriented game per decisive route family.
ROUTE_EXEMPLARS = [
    ((2.7, 1.16, 1.41, 1.58), "1.1:C1_1le2->C1_1gt2"),
    ((17.5, 1.07, 1.15, 0.646), "2.1:C1_1le2->C2_1gt2"),
    ((0.969, 0.318, 1.14, 0.882), "2.2:C1_1le2->C1_1gt2"),
    ((15.8, 1.7, 0.0346, 5.44), "3.1:C1_1le2->C2_1le2"),
    ((10.6, 3.9, 0.97, 1.01), "3.2:C1_1le2->C1_1gt2"),
    ((2.26, 2.81, 0.23, 1.01), "3.3:C2_1le2->C1_1gt2"),
    ((2.64, 0.337, 0.451, 0.69), "4.1:C1_1le2->C2_1le2"),
    ((13.5, 1.37, 0.912, 0.713), "4.2:C1_1le2->C2_1gt2"),
    ((7.1, 4.03, 0.646, 0.982), "4.3:C1_1le2->C1_1gt2"),
    ((3.87, 5.25, 0.233, 0.849), "4.4:C2_1le2->C2_1gt2"),
    ((16.5, 16.7, 0.353, 0.994), "4.5:C2_1le2->C1_1gt2"),
    ((19.9, 0.252, 0.178, 0.198), "5.1:C1_1le2->C2_1le2"),
    ((16.4, 1.51, 0.308, 0.252), "5.6:C2_1le2->C3_1le2"),
    ((0.454, 0.038, 0.841, 0.086), "5.7:C2_1le2->C3_1gt2"),
    ((16.4, 16.8, 0.2, 0.771), "5.8:C2_1le2->C2_1gt2"),
    ((3.85, 19.7, 0.0727, 0.855), "5.11:C3_1le2->C2_1gt2"),
    ((10.2, 7.78, 0.428, 0.706), "SC:C2"),
    ((0.442, 0.0353, 0.17, 0.122), "SC:C3"),
]


class TestRouteExemplars:
    @pytest.mark.parametrize(
        "params,route", ROUTE_EXEMPLARS, ids=[r.split(":")[0] for _, r in ROUTE_EXEMPLARS]
    )
    def test_route_decides_and_mirrors(self, params, route):
        g = GameInstance(*params)
        v = route_verdict(g)
        assert v.exists
        assert v.route == route
        assert is_mutually_beneficial(g, v.witness)
        w = route_verdict(swap_indices(g))
        assert w.exists
        assert w.route == f"swap:{route}"
        assert w.witness.nu == -v.witness.nu
        _assert_exact_contest_mirrors(g)


class TestRouteCensus:
    SCRIPT = Path(__file__).parent.parent / "scripts" / "route_census.py"

    def test_runs_from_a_checkout(self, tmp_path):
        # The script puts its checkout's src/ on the import path itself.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        done = subprocess.run(
            [sys.executable, str(self.SCRIPT), "--count", "24", "--block", "12"],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        blocks = [line.split() for line in lines[2:4]]
        assert [b[:2] for b in blocks] == [["0", "0"], ["1", "12"]]
        assert all(len(digest) == 64 for b in blocks for digest in b[2:])
        assert lines[4].split() == ["route", "opened", "midpoint", "decided"]
        assert lines[-1] == "array mismatches over 24 games: budget 0 joint 0 contest 0 case 0"


class TestBudgetMutual:
    def test_diamond_exists_donating_toward_player1(self, diamond):
        v = budget_mutual_exists(diamond)
        assert v.exists
        assert v.witness.tau < 0
        assert is_mutually_beneficial(diamond, v.witness)

    def test_ridge_game_no_transfer(self):
        assert not budget_mutual_exists(GameInstance(10, 10, 2, 2)).exists

    def test_contest_only_region(self):
        # contest transfers but no budget transfers (both budgets >= 1)
        g = GameInstance(12, 10, 1.2, 2.0)
        assert contest_mutual_exists(g).exists
        assert not budget_mutual_exists(g).exists

    @pytest.mark.parametrize(
        "params",
        [
            # The best benefit lies beside the ridge: the verdict's witness is
            # at the edge of the ridge sliver; the oracle refines onto the
            # ridge point and its fallback moves off it.
            (48.88733723364115, 0.044168801810295144, 72.18745201076266, 0.05870941428526402),
            # The same, but the oracle's refinement does not land on the ridge.
            (0.06556647764031946, 8.917807076820045, 0.09600343357462351, 13.416855614120065),
            (0.028627368975401614, 74.14857519575018, 0.006706543572010456, 47.77922864571314),
        ],
    )
    def test_off_ridge_fallback_finds_robust_witness(self, params):
        g = GameInstance(*params)
        for v in (budget_mutual_exists(g), grid_mutual_search(g, Mechanism.BUDGET)):
            assert v.exists
            assert ridge_gap(g, Mechanism.BUDGET, v.witness.tau) > RIDGE_RTOL
            assert is_mutually_beneficial(g, v.witness)

    @pytest.mark.parametrize(
        "params,route",
        [
            # Case 1 on the player-2-weak side up to the ridge sliver.
            ((1.0, 1.0, 2.0, 0.4), "exact:C1_1gt2"),
            # The running example: case 1 with player 1 weak.
            ((12.0, 10.0, 0.4, 1.6), "exact:C1_1le2"),
            # Interior maxima of case-2 and case-3 pieces.
            ((1.0, 1.0, 0.8, 0.1), "exact:C2_1gt2"),
            ((1.0, 2.0, 0.4, 0.05), "exact:C3_1gt2"),
        ],
    )
    def test_route_exemplars(self, params, route):
        g = GameInstance(*params)
        v = budget_mutual_exists(g)
        assert (v.exists, v.route, v.near_boundary) == (True, route, False)
        assert is_mutually_beneficial(g, v.witness)
        w = budget_mutual_exists(swap_indices(g))
        assert (w.exists, w.route) == (True, _mirror(route))
        assert is_mutually_beneficial(swap_indices(g), w.witness)

    def test_ridge_knife_edge_exemplar(self):
        # The ratios differ by about 1.9e-6: transfers toward the ridge benefit
        # both players, but only inside the ridge sliver.
        g = GameInstance(
            2.112853218100396, 0.020730816272816647, 3.0638782857109907, 0.030061992959509894
        )
        for h in (g, swap_indices(g)):
            v = budget_mutual_exists(h)
            assert (v.exists, v.route, v.near_boundary) == (False, "ridge-knife-edge", True)

    def test_agrees_with_oracle_on_stratified_corpus(self):
        games = stratified_games(per_region=24, seed=2024)
        decided = []
        for g, o in zip(games, grid_mutual_searches(games, Mechanism.BUDGET)):
            v = budget_mutual_exists(g)
            if v.exists:
                assert is_mutually_beneficial(g, v.witness)
            if not (v.near_boundary or o.near_boundary):
                assert v.exists == o.exists, g
                decided.append(v.exists)
        # Both answers occur, and flags excuse only a few games.
        assert any(decided) and not all(decided)
        assert len(decided) >= 0.9 * len(games)

    @given(phi1=decades, phi2=decades, x1=decades, x2=decades, on_ridge=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_swap_mirrors_verdict(self, phi1, phi2, x1, x2, on_ridge):
        g = GameInstance(phi1, phi1 * x2 / x1 if on_ridge else phi2, x1, x2)
        v = budget_mutual_exists(g)
        w = budget_mutual_exists(swap_indices(g))
        assert (w.exists, w.near_boundary) == (v.exists, v.near_boundary)
        if v.exists:
            assert is_mutually_beneficial(swap_indices(g), Transfer(-v.witness.tau, 0.0))

    @given(
        phi1=decades, phi2=decades, x1=decades, x2=decades, on_ridge=st.booleans(),
        c=st.floats(-4.0, 4.0).map(lambda e: 10.0**e),
    )
    @settings(max_examples=300, deadline=None)
    def test_valuation_scale_invariance(self, phi1, phi2, x1, x2, on_ridge, c):
        g = GameInstance(phi1, phi1 * x2 / x1 if on_ridge else phi2, x1, x2)
        v = budget_mutual_exists(g)
        s = budget_mutual_exists(GameInstance(c * g.phi1, c * g.phi2, x1, x2))
        assert (s.exists, s.near_boundary) == (v.exists, v.near_boundary)


# One game per joint route in cases 1-3; the mirrored game gives the
# mirrored route.  Case 4 has its own exemplar.
JOINT_EXEMPLARS = [
    ((1.0, 1.0, 0.05, 3.0), "exact:C1_1le2"),
    ((12.0, 10.0, 0.4, 1.6), "exact:C2_1le2"),
    ((1.0, 1.0, 0.05, 0.1), "exact:C3_1le2"),
]


def _post_gap(g: GameInstance, t: Transfer) -> float:
    """Signed relative ratio gap after a joint transfer, positive when player 1 is weak."""
    r1 = (g.x1 - t.tau) / (g.phi1 - t.nu)
    r2 = (g.x2 + t.tau) / (g.phi2 + t.nu)
    return (r2 - r1) / max(r1, r2)


def _assert_joint_invariant(g: GameInstance, c: float) -> None:
    """Scaling valuations by ``c`` keeps the verdict; swapping players mirrors it."""
    v = joint_mutual_exists(g)
    s = joint_mutual_exists(GameInstance(c * g.phi1, c * g.phi2, g.x1, g.x2))
    w = joint_mutual_exists(swap_indices(g))
    assert s.exists == v.exists, (g, c)
    mirrored = _mirror(v.route) if v.route else None
    assert (w.exists, w.route, w.near_boundary) == (v.exists, mirrored, v.near_boundary), g
    if v.exists:
        assert (w.witness.tau, w.witness.nu) == (-v.witness.tau, -v.witness.nu)
        assert abs(s.witness.tau - v.witness.tau) <= 1e-9 * g.total_budget
        assert abs(s.witness.nu - c * v.witness.nu) <= 1e-9 * c * g.total_valuation


class TestJointMutual:
    def test_diamond_exists(self, diamond):
        v = joint_mutual_exists(diamond)
        assert v.exists
        assert is_mutually_beneficial(diamond, v.witness)

    def test_ridge_game_fails_both_stages(self):
        assert not joint_mutual_exists(GameInstance(10, 10, 2, 2)).exists
        assert not joint_mutual_exists(GameInstance(6, 3, 1.0, 0.5)).exists

    def test_gradient_witness_with_thin_margin_is_flagged(self):
        # The 401x401 joint oracle misses this near-ridge witness.
        g = GameInstance(12, 10, 2.509918594953648, 2.0563158382088176)
        v = joint_mutual_exists(g)
        assert v.exists
        assert v.route == "exact:C1_1gt2"
        assert v.near_boundary
        assert is_mutually_beneficial(g, v.witness)

    @pytest.mark.parametrize("params,route", JOINT_EXEMPLARS, ids=[r for _, r in JOINT_EXEMPLARS])
    def test_route_exemplars(self, params, route):
        g = GameInstance(*params)
        v = joint_mutual_exists(g)
        assert (v.exists, v.route, v.near_boundary) == (True, route, False)
        assert is_mutually_beneficial(g, v.witness)
        # The witness is the best split at the sliver's edge, on the game's
        # own side of the ridge: both players gain the same.
        d1, d2 = payoff_deltas(g, v.witness, player_payoffs(g))
        assert abs(d1 - d2) <= 1e-12 * g.total_valuation
        assert _post_gap(g, v.witness) == pytest.approx(2 * RIDGE_RTOL, rel=1e-6)
        w = joint_mutual_exists(swap_indices(g))
        assert (w.exists, w.route) == (True, _mirror(route))
        assert (w.witness.tau, w.witness.nu) == (-v.witness.tau, -v.witness.nu)

    def test_case4_exemplar_at_extreme_valuations(self):
        # Valuations 18 decades apart: float cancellation puts the witness's
        # ratio gap within CASE_RTOL, so the case-4 piece decides, flagged.
        g = GameInstance(
            19264334928.843155, 1.0772671702230896e-08, 3198.571402082377, 0.002672133356451558
        )
        v = joint_mutual_exists(g)
        assert (v.exists, v.route, v.near_boundary) == (True, "exact:C4", True)
        assert is_mutually_beneficial(g, v.witness)
        w = joint_mutual_exists(swap_indices(g))
        assert (w.exists, w.route, w.near_boundary) == (True, "exact:C4", True)
        assert (w.witness.tau, w.witness.nu) == (-v.witness.tau, -v.witness.nu)

    def test_ridge_knife_edge_exemplar(self):
        # The ratios differ by about 1.6e-6 and the collective surplus is
        # 5.7e-8 of the total valuation: both players gain only inside the
        # ridge sliver.
        g = GameInstance(
            1.7111011822624111, 2.4026275201501863, 3.372755902428714, 4.735832661627739
        )
        for h in (g, swap_indices(g)):
            v = joint_mutual_exists(h)
            assert (v.exists, v.witness, v.route, v.near_boundary) == (
                False, None, "ridge-knife-edge", True
            )

    def test_ridge_games_are_certified_absent(self):
        games = stratified_games(per_region=8, seed=31)[3::4]
        games += log_uniform_games(300, seed=5)[9::10]
        for g in games:
            v = joint_mutual_exists(g)
            assert (v.exists, v.route, v.near_boundary) == (False, None, False), g

    def test_agrees_with_oracle_on_stratified_corpus(self):
        games = stratified_games(per_region=24, seed=2024)
        decided = []
        for g in games:
            v = joint_mutual_exists(g)
            o = grid_mutual_search(g, Mechanism.JOINT)
            if v.exists:
                assert is_mutually_beneficial(g, v.witness)
            if v.exists != o.exists:
                assert v.near_boundary or o.near_boundary, g
            else:
                decided.append(v.exists)
        assert any(decided) and not all(decided)
        assert len(decided) >= 0.9 * len(games)

    def test_scale_and_swap_invariance_on_seeded_corpus(self):
        rng = SplitMix64(2026)
        games = (
            random_games(7000, seed=61)
            + log_uniform_games(7000, seed=62)
            + near_ridge_games(7000, seed=63)
        )
        for g in games:
            _assert_joint_invariant(g, 10.0 ** rng.uniform(-9.0, 9.0))

    @given(
        phi1=wide_valuations, phi2=wide_valuations, x1=wide_budgets, x2=wide_budgets,
        log_gap=st.one_of(st.none(), st.floats(-11.0, -3.0)),
        c=st.floats(-9.0, 9.0).map(lambda e: 10.0**e),
    )
    @settings(max_examples=500, deadline=None)
    def test_scale_and_swap_invariance(self, phi1, phi2, x1, x2, log_gap, c):
        if log_gap is not None:
            phi2 = phi1 * x2 / x1 * (1.0 + 10.0**log_gap)
        _assert_joint_invariant(GameInstance(phi1, phi2, x1, x2), c)

    def test_generic_games_almost_always_exist(self):
        hits = sum(joint_mutual_exists(g).exists for g in random_games(200, seed=13))
        assert hits == 200

    def test_supersedes_single_mechanisms(self):
        for g in random_games(150, seed=29):
            c = contest_mutual_exists(g)
            b = budget_mutual_exists(g)
            j = joint_mutual_exists(g)
            if (c.exists or b.exists) and not (c.near_boundary or b.near_boundary):
                assert j.exists


def _assert_collective_bound(g: GameInstance) -> bool:
    """Witnesses share at most the collective surplus; returns whether it certifies absence."""
    baseline = player_payoffs(g)
    surplus = max_collective_payoff(g) - (baseline[0] + baseline[1])
    verdicts = [budget_mutual_exists(g), contest_mutual_exists(g), joint_mutual_exists(g)]
    for v in verdicts:
        if v.exists:
            d1, d2 = payoff_deltas(g, v.witness, baseline)
            assert d1 + d2 <= surplus + 1e-14 * g.total_valuation, (g, v)
    # A witness benefits both players, so the collective sum improves too.
    if any(v.exists for v in verdicts):
        assert collective_report(g).improvable, g
    certified = surplus <= 2 * min_gain(g)
    if certified:
        assert not any(v.exists for v in verdicts), g
    return certified


class TestCollectiveBound:
    def test_seeded_log_uniform_games(self):
        games = log_uniform_games(1500, seed=73)
        certified = sum(_assert_collective_bound(g) for g in games)
        # Every ridge game is certified; off the ridge almost none is.
        assert len(games[9::10]) <= certified < len(games) // 5

    @given(
        phi1=wide_valuations, phi2=wide_valuations, x1=wide_budgets, x2=wide_budgets,
        log_gap=st.one_of(st.none(), st.floats(-11.0, -3.0)),
    )
    @settings(max_examples=300, deadline=None)
    def test_hypothesis_games(self, phi1, phi2, x1, x2, log_gap):
        if log_gap is not None:
            phi2 = phi1 * x2 / x1 * (1.0 + 10.0**log_gap)
        _assert_collective_bound(GameInstance(phi1, phi2, x1, x2))


class TestWitnessValidity:
    def test_every_witness_revalidates(self):
        for g in random_games(120, seed=83):
            for verdict in (
                contest_mutual_exists(g),
                budget_mutual_exists(g),
                joint_mutual_exists(g),
            ):
                if verdict.exists:
                    assert verdict.witness is not None
                    assert is_mutually_beneficial(g, verdict.witness)
