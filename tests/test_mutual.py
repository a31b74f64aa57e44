import dataclasses
import importlib.util
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coalitional_lotto import batch, mutual, mutual_arrays, paper_routes
from coalitional_lotto.adversary import CaseLabel, classify_case, player_payoffs, respond
from coalitional_lotto.analysis import analyze_game
from coalitional_lotto.batch import GameArrays
from coalitional_lotto.cli import EXIT_DISAGREEMENT, EXIT_USAGE
from coalitional_lotto.collective import collective_report, max_collective_payoff
from coalitional_lotto.core import (
    GameInstance,
    Mechanism,
    Transfer,
    root_product,
    swap_indices,
    transfer_feasible,
)
from coalitional_lotto.mutual import (
    REGIONS,
    Mechanism,
    MutualBenefitVerdict,
    Region,
    budget_mutual_exists,
    capped_rules_out,
    case_edges,
    classify_region,
    contest_mutual_exists,
    edge_quadratics,
    gap_crossing,
    gap_quadratic,
    gap_witness,
    is_mutually_beneficial,
    joint_mutual_exists,
    line_breaks,
    line_pieces,
    line_sides,
    mutual_verdicts,
    payoff_deltas,
    positive_roots,
    region_index,
    side_breaks,
    surplus_rules_out,
    valuation_room,
)
from coalitional_lotto.oracle import GridSpec, grid_mutual_search, grid_mutual_searches
from coalitional_lotto.paper_routes import (
    _sc_routes,
    _si_windows,
    quadratic_window,
    route_verdict,
    thresholds,
)
from coalitional_lotto.rng import SplitMix64
from coalitional_lotto.search import (
    RIDGE_RTOL,
    along,
    line_ends,
    min_gain,
    ridge_gap,
    sliver,
    thin_margin,
)
from coalitional_lotto.sweep import sample_games

# Values over four decades, uniform in the exponent.
decades = st.floats(-2.0, 2.0).map(lambda e: 10.0**e)
# Valuations over eight decades and budgets over six.
wide_valuations = st.floats(-4.0, 4.0).map(lambda e: 10.0**e)
wide_budgets = st.floats(-3.0, 3.0).map(lambda e: 10.0**e)
# The whole domain the census covers: valuations over 24 decades, budgets
# over 18.
domain_valuations = st.floats(-12.0, 12.0).map(lambda e: 10.0**e)
domain_budgets = st.floats(-9.0, 9.0).map(lambda e: 10.0**e)


def _family(valuations, budgets):
    return st.builds(GameInstance, valuations, valuations, budgets, budgets)


def _exp10(lo: float, hi: float):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


# The census's box, log and wide families, and the same with both budgets at
# least 1 (region R1).
census_families = st.one_of(
    _family(st.floats(0.05, 3.0), st.floats(0.05, 3.0)),
    _family(_exp10(-3.0, 3.0), _exp10(-3.0, 2.0)),
    _family(_exp10(-6.0, 6.0), _exp10(-4.0, 4.0)),
)
r1_families = st.one_of(
    _family(st.floats(0.05, 3.0), st.floats(1.0, 3.0)),
    _family(_exp10(-3.0, 3.0), _exp10(0.0, 2.0)),
    _family(_exp10(-6.0, 6.0), _exp10(0.0, 4.0)),
)


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
        games = sample_games(300, seed=17) + edges + [GameInstance(1.0, 1.0, 0.25, 0.75)]
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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "scalar,mechanism",
        [(budget_mutual_exists, Mechanism.BUDGET), (contest_mutual_exists, Mechanism.CONTEST)],
    )
    def test_line_flags_match_scalar_game_by_game(self, scalar, mechanism, float_range_games):
        corpus = self.corpus()
        for games in (float_range_games, corpus):
            verdicts = [scalar(g) for g in games]
            exists, near = mutual_arrays.line_flags(GameArrays.of(games), mechanism)
            assert exists.tolist() == [v.exists for v in verdicts]
            assert near.tolist() == [v.near_boundary for v in verdicts]
            # The knife-edges are the games flagged without a benefit.
            knife = [v.route == "ridge-knife-edge" for v in verdicts]
            assert (near & ~exists).tolist() == knife
        # The corpus holds knife-edges and thin positives.
        assert any(knife) and (near & exists).any()
        # Any subset, in any order, gives the same flags.
        rows = [7, 3, 3, 0]
        picked = mutual_arrays.line_flags(GameArrays.of([corpus[k] for k in rows]), mechanism)
        assert [f.tolist() for f in picked] == [exists[rows].tolist(), near[rows].tolist()]
        empty = mutual_arrays.line_flags(GameArrays.of([]), mechanism)
        assert [f.shape for f in empty] == [(0,), (0,)]

    def test_budget_or_contest_implies_joint(self):
        # Every budget or contest transfer is a joint transfer too: a budget
        # or contest witness implies a joint one, over arrays and game by
        # game.
        games = self.corpus()
        arrays = GameArrays.of(games)
        single = mutual_arrays.budget_exists(arrays) | mutual_arrays.contest_exists(arrays)
        joint = mutual_arrays.joint_exists(arrays)
        assert 0 < single.sum() < joint.sum()
        assert not (single & ~joint).any()
        for g in games:
            if budget_mutual_exists(g).exists or contest_mutual_exists(g).exists:
                assert joint_mutual_exists(g).exists, g


def _flat(values) -> list:
    """The leaves of nested tuples and lists, in order."""
    out = []
    for v in values:
        out += _flat(v) if isinstance(v, (tuple, list)) else [v]
    return out


def _game_rules(g, baseline):
    """The values of each rule shared by the one-game and the array verdicts.

    ``g`` is a game and ``baseline`` its payoffs, or a ``GameArrays`` and
    theirs; the rules take both alike.
    """
    big_x, big_phi = g.total_budget, g.total_valuation
    lead = baseline[0] - baseline[1]
    quads = [
        *edge_quadratics(big_x, g.phi1 / g.phi2),
        (g.phi1 - g.phi2, g.x1, -g.x2),
        (g.x1 - 1.0, g.phi1 - g.phi2, g.x2 - 1.0),
        gap_quadratic(big_phi, big_x, 2.0 * RIDGE_RTOL, lead),
    ]
    return {
        "positive_roots": [positive_roots(*quad) for quad in quads],
        "case_edges": [case_edges(big_x, g.phi1 / g.phi2), case_edges(big_x, g.x2 / g.x1)],
        "side_breaks": [
            side_breaks(mechanism, *side)
            for mechanism in (Mechanism.BUDGET, Mechanism.CONTEST)
            for side in line_sides(g, mechanism)
        ],
        "line_breaks": [
            line_breaks(g, mechanism, line_sides(g, mechanism), *line_ends(g, mechanism))
            for mechanism in (Mechanism.BUDGET, Mechanism.CONTEST)
        ],
        "sliver": [sliver(g, mechanism) for mechanism in (Mechanism.BUDGET, Mechanism.CONTEST)],
        "gap_crossing": [
            gap_crossing(case, big_phi, big_x, 2.0 * RIDGE_RTOL, lead) for case in (1, 2, 3, 4)
        ],
        "gap_witness": gap_witness(g, baseline),
        "rules_out": [
            surplus_rules_out(g, baseline, max_collective_payoff(g)),
            capped_rules_out(g, baseline),
        ],
        # The contest line's ends as a stretch, and each end and the zero
        # transfer as a point.
        "valuation_room": [
            valuation_room(g, baseline)(a, b)
            for lo, hi in [line_ends(g, Mechanism.CONTEST)]
            for a, b in ((lo, hi), (lo, lo), (hi, hi), (0.0, 0.0))
        ],
        # The second product underflows, to a subnormal or to 0.
        "root_product": [root_product(g.x1, g.x2), root_product(1e-300 * g.x1, 1e-20 * g.x2)],
    }


class TestSharedRules:
    """Each shared rule gives a game's floats the bits of its row over arrays."""

    @staticmethod
    def assert_same_bits(floats, row, what):
        floats = np.array(floats, dtype=float)
        nan = np.isnan(floats)
        assert (nan == np.isnan(row)).all(), what
        assert (floats[~nan].view(np.int64) == row[~nan].view(np.int64)).all(), what

    def test_floats_match_array_rows(self):
        games = TestArrayVerdicts.corpus()
        arrays = GameArrays.of(games)
        baseline = batch.payoffs_at_transfers(arrays, 0.0, 0.0)
        # Masked lanes hold NaN or inf, as in the array verdicts.
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            rules = _game_rules(arrays, baseline)
        rows = {
            name: np.column_stack(
                [np.broadcast_to(v, len(games)) for v in _flat(values)]
            ).astype(float)
            for name, values in rules.items()
        }
        witnesses = 0
        for i, g in enumerate(games):
            found = _game_rules(g, player_payoffs(g))
            for name, values in found.items():
                self.assert_same_bits(_flat(values), rows[name][i], (name, g))
            witnesses += found["gap_witness"][2] > 0
        # Every shape of result turns up: absent and present roots, edges
        # and witnesses.
        for name in ("positive_roots", "case_edges", "side_breaks", "line_breaks"):
            assert np.isnan(rows[name]).any() and not np.isnan(rows[name]).all(), name
        assert 0 < witnesses < len(games)

    def test_sliver_ends_sit_at_twice_the_ridge_tolerance(self):
        # Each end of the sliver on the line sits at ratio gap 2 * RIDGE_RTOL
        # (``ridge_gap``, the independent definition): to within 1e-6 of it,
        # or, where one float step of the transfer moves the gap by more
        # than that, to within two such steps.  There the end lies next to a
        # line end, where the donor keeps a sliver of its share.
        games = TestArrayVerdicts.corpus()
        arrays = GameArrays.of(games)
        target = 2.0 * RIDGE_RTOL
        for mechanism in (Mechanism.BUDGET, Mechanism.CONTEST):
            lo, hi = sliver(arrays, mechanism)
            first, last = line_ends(arrays, mechanism)
            for end in (lo, hi):
                on_line = (first <= end) & (end <= last)
                rows = arrays.take(on_line)
                end = end[on_line]
                gap = ridge_gap(rows, mechanism, end)
                below, above = (
                    ridge_gap(rows, mechanism, np.nextafter(end, to)) for to in (-np.inf, np.inf)
                )
                step = np.maximum(np.abs(below - gap), np.abs(above - gap))
                err = np.abs(gap - target)
                assert ((err <= 1e-6 * target) | (err <= 2.0 * step)).all(), mechanism
                assert (err <= 1e-6 * target).mean() > 0.9
            # The swapped game gives the negated ends, swapped.
            for g, a, b in zip(games, lo.tolist(), hi.tolist()):
                assert sliver(swap_indices(g), mechanism) == (-b, -a)


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
        for g in sample_games(50, seed=3):
            if g.x1 / g.phi1 > g.x2 / g.phi2:
                g = swap_indices(g)
            nu = thresholds(g).alpha1
            assert g.x1 / (g.phi1 - nu) == pytest.approx(g.x2 / (g.phi2 + nu), rel=1e-9)


class TestStrategicallyConsistent:
    def test_diamond_fires_via_case2(self, diamond):
        # phi1 > phi2 and (2 - 4*x2)/(phi1 - phi2) = -2.2 < sqrt(x1*x2/(phi1*phi2));
        # consistent routes are tried before the inconsistent route 3.3.
        assert (2 - 4 * 1.6) / 2 == pytest.approx(-2.2)
        v = route_verdict(diamond)
        assert v.exists and v.route == "SC:C2"
        assert v.witness.nu > 0
        assert is_mutually_beneficial(diamond, v.witness)
        _assert_exact_contest_mirrors(diamond)

    def test_case4_never_fires(self):
        v = route_verdict(GameInstance(10, 10, 2, 2))
        assert not v.exists

    def test_smaller_phi1_blocks_case2_route(self):
        # oriented case-2 game with phi1 < phi2: the consistent route needs
        # phi1 > phi2, so it must not fire
        g = GameInstance(10, 12, 0.3, 0.9)
        assert str(classify_case(g)) == "C2_1le2"
        assert _sc_routes(g, 2) == []


class TestStrategicallyInconsistent:
    def test_diamond_route_3_3(self, diamond):
        windows = _si_windows(diamond, classify_region(diamond), classify_case(diamond).index)
        route, (lo, hi) = windows[0]
        assert route.startswith("3.3:")
        assert is_mutually_beneficial(diamond, Transfer(0.0, lo + 0.5 * (hi - lo)))
        _assert_exact_contest_mirrors(diamond)

    def test_c3_in_r5_limited_routes(self):
        # transfers from case 3 can only exit through route 5.11 (5.12, which
        # 5.11 shadows, is not implemented); the case-3-to-case-3 crossing
        # (5.10) admits no mutually beneficial transfer
        seen = 0
        for g in sample_games(400, seed=41):
            if g.x1 / g.phi1 > g.x2 / g.phi2:
                g = swap_indices(g)
            if classify_case(g).index != 3:
                continue
            seen += 1
            region = classify_region(g)
            assert region is Region.R5
            for route, (lo, hi) in _si_windows(g, region, 3):
                assert route.split(":")[0] == "5.11"
                if is_mutually_beneficial(g, Transfer(0.0, lo + 0.5 * (hi - lo))):
                    _assert_exact_contest_mirrors(g)
        assert seen > 0


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
        games = sample_games(150, seed=71)
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
        assert (v.exists, v.route) == (True, "3.3:C2_1le2->C1_1gt2")
        assert is_mutually_beneficial(g, v.witness)
        # The route and exact verdicts see the same thin gains and flag them.
        assert v.near_boundary
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
        # One share twelve decades below the other: an inset by the line's
        # width would cut off the small side; each end keeps all but a
        # 1e-11 share of its donor's own budget or valuation.
        for mechanism, g in (
            (Mechanism.BUDGET, GameInstance(1.0, 1.0, 1e6, 1e-6)),
            (Mechanism.CONTEST, GameInstance(1e6, 1e-6, 1.0, 1.0)),
        ):
            lo, hi = line_ends(g, mechanism)
            assert lo == pytest.approx(-1e-6 * (1 - 1e-11), rel=1e-15)
            assert hi == pytest.approx(1e6 * (1 - 1e-11), rel=1e-15)
            for v in (lo, hi):
                player_payoffs(g, along(mechanism, v))
            arrays = GameArrays.of([g, swap_indices(g)])
            assert [e.tolist() for e in line_ends(arrays, mechanism)] == [[lo, -hi], [hi, -lo]]

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
            sample_games(1500, seed=64)
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
            # x1 + x2 below 1e-11, where an inset by the line's width left
            # no budget line; the collective surplus rules out a gain.
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
            report = analyze_game(g)
            # The printed routes answer too, as the exact verdict does: their
            # windows open on valuations scaled up by a power of two.  A
            # swapped witness, validated on the mirror game, benefits this
            # game: payoffs mirror exactly.
            routes = route_verdict(g)
            assert routes.exists == report.mutual_contest.exists, g
            if routes.exists:
                assert is_mutually_beneficial(g, routes.witness)
        g, m = games
        assert player_payoffs(m) == player_payoffs(g)[::-1]
        labels = [str(classify_case(h)) for h in games]
        # The ratios overflow in the array rule too, and their gap is NaN.
        index, swapped = batch.case_of(*GameArrays.of(games))
        assert [str(CaseLabel.of(*case)) for case in zip(index, swapped)] == labels
        if g.x1 / g.phi1 == g.x2 / g.phi2 == math.inf:
            # Both ratios overflow; the orientation still follows the weaker
            # one, so the mirror gets the mirrored label, contest verdict and
            # joint verdict.
            assert labels[1] == _mirror(labels[0])
            for verdict in (contest_mutual_exists, joint_mutual_exists):
                v, w = verdict(g), verdict(m)
                assert (w.exists, w.route, w.near_boundary) == (
                    v.exists, v.route and _mirror(v.route), v.near_boundary
                )
                assert w.witness == (v.witness and Transfer(-v.witness.tau, -v.witness.nu))
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

    @pytest.mark.parametrize(
        "params,route", ROUTE_EXEMPLARS, ids=[r.split(":")[0] for _, r in ROUTE_EXEMPLARS]
    )
    def test_flag_is_the_witness_margin(self, params, route):
        # A positive route verdict is flagged as the exact verdicts are: by
        # the smaller payoff delta of its witness.
        for g in (GameInstance(*params), swap_indices(GameInstance(*params))):
            v = route_verdict(g)
            d1, d2 = payoff_deltas(g, v.witness, player_payoffs(g))
            assert v.near_boundary == thin_margin(g, min(d1, d2))


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
        # Each block's digests of the full-precision verdicts and reports.
        assert [line.split() for line in lines[2:4]] == [
            [
                "0", "0",
                "e52ea6d5539c668f769da70aabd898cd5a10a15f1081608da355ca4bd269fe11",
                "89469402d80eaa91eac07c1d5713fabc88d39dba42cc84576b141032b901f007",
            ],
            [
                "1", "12",
                "7941a718f6f44dee6ab95ca48091958d88d89b18db9784eed029e6a3d6e07cde",
                "c429ad4dcc6112b249df0ba8018589a2bb70d0ef41cc3f8f839034106c0ae5a1",
            ],
        ]
        assert lines[4].split() == ["route", "opened", "midpoint", "decided"]
        # Per family, the budget verdicts the capped-player rule decided.
        assert lines[-13:-7] == [
            f"budget verdicts decided by the capped rule, {name}: {capped} of 4"
            for name, capped in (
                ("box", 3), ("log", 2), ("r5", 1), ("ridge", 3), ("wide", 3), ("extreme", 4)
            )
        ]
        # Per family, the contest pieces the valuation-room rule dropped.
        assert lines[-7:-1] == [
            f"contest pieces dropped by the valuation room, {name}: {dropped} of {pieces}"
            for name, dropped, pieces in (
                ("box", 13, 29), ("log", 12, 33), ("r5", 14, 40),
                ("ridge", 3, 25), ("wide", 19, 33), ("extreme", 9, 33),
            )
        ]
        assert lines[-1] == (
            "array mismatches over 24 games: budget 0 joint 0 contest 0 case 0 "
            "budget-near 0 contest-near 0"
        )

    def load(self):
        spec = importlib.util.spec_from_file_location("route_census", self.SCRIPT)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        return script

    @pytest.mark.parametrize("argv", [["--count", "0"], ["--block", "-1"], ["--count", "many"]])
    def test_usage_error_exits_1(self, capsys, argv):
        # Apart from exit 2, which means a disagreement.
        with pytest.raises(SystemExit) as exc:
            self.load().main(argv)
        assert exc.value.code == EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    def census_with(self, monkeypatch, capsys, name, replacement) -> tuple[int, str]:
        """The census's exit code and last line with ``mutual_arrays.<name>`` replaced."""
        script = self.load()
        # The census wraps the route helpers to count them; undo that after.
        for helper in ("_sc_routes", "_si_windows"):
            monkeypatch.setattr(paper_routes, helper, getattr(paper_routes, helper))
        monkeypatch.setattr(mutual_arrays, name, replacement)
        code = script.main(["--count", "6", "--block", "6"])
        return code, capsys.readouterr().out.splitlines()[-1]

    def test_array_disagreement_exits_2(self, monkeypatch, capsys):
        budget_exists = mutual_arrays.budget_exists
        code, last = self.census_with(
            monkeypatch, capsys, "budget_exists", lambda games: ~budget_exists(games)
        )
        assert code == EXIT_DISAGREEMENT
        assert last == (
            "array mismatches over 6 games: budget 6 joint 0 contest 0 case 0 "
            "budget-near 0 contest-near 0"
        )

    def test_near_flag_disagreement_exits_2(self, monkeypatch, capsys):
        line_flags = mutual_arrays.line_flags

        def flipped(games, mechanism):
            exists, near = line_flags(games, mechanism)
            return exists, ~near

        code, last = self.census_with(monkeypatch, capsys, "line_flags", flipped)
        assert code == EXIT_DISAGREEMENT
        assert last == (
            "array mismatches over 6 games: budget 0 joint 0 contest 0 case 0 "
            "budget-near 6 contest-near 6"
        )


class TestCappedBudgetRule:
    """A player whose baseline payoff is its whole valuation gains from no budget transfer."""

    @staticmethod
    def capped(g: GameInstance) -> list[bool]:
        return [u >= phi for u, phi in zip(player_payoffs(g), (g.phi1, g.phi2))]

    @given(g=census_families)
    @settings(max_examples=300, deadline=None)
    def test_capped_player_stays_at_its_valuation_along_the_line(self, g):
        capped = self.capped(g)
        assume(any(capped))
        taus = np.linspace(*line_ends(g, Mechanism.BUDGET), 2001)
        payoffs = batch.payoffs_at_transfers(g, taus, 0.0)
        for u, phi, cap in zip(payoffs, (g.phi1, g.phi2), capped):
            if cap:
                assert (u <= phi).all(), g

    @given(g=r1_families)
    @settings(max_examples=300, deadline=None)
    def test_r1_off_the_case_4_band_caps_the_strong_player(self, g):
        label = classify_case(g)
        assume(label.index != 4)
        assert label.index == 1
        # Player 1 is strong when player 2 has the weaker ratio.
        assert self.capped(g)[1 - label.swapped], g

    @given(games=st.lists(census_families, min_size=1, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_one_game_and_array_verdicts_agree(self, games):
        assume(any(any(self.capped(g)) for g in games))
        verdicts = [budget_mutual_exists(g) for g in games]
        assert mutual_arrays.budget_exists(GameArrays.of(games)).tolist() == [
            v.exists for v in verdicts
        ]
        for g, v in zip(games, verdicts):
            if any(self.capped(g)):
                assert (v.exists, v.witness, v.route, v.near_boundary) == (
                    False, None, None, False
                )


class TestValuationRoom:
    """No payoff exceeds its post-transfer valuation, so a contest stretch
    without valuation room for both players holds no mutual gain."""

    @given(g=census_families)
    @settings(max_examples=300, deadline=None)
    def test_no_gain_where_the_room_test_fails(self, g):
        baseline = player_payoffs(g)
        nus = np.linspace(*line_ends(g, Mechanism.CONTEST), 2001)
        u1, u2 = batch.payoffs_at_transfers(g, 0.0, nus)
        assert (u1 <= g.phi1 - nus).all() and (u2 <= g.phi2 + nus).all(), g
        score = np.minimum(u1 - baseline[0], u2 - baseline[1])
        gain = min_gain(g)
        room = valuation_room(g, baseline)
        assert (score[~room(nus, nus)] <= gain).all(), g
        # A piece that fails at its ends holds no scanned point with a gain.
        for a, b, _ in line_pieces(g, Mechanism.CONTEST)[1]:
            if not room(a, b):
                assert (score[(a <= nus) & (nus <= b)] <= gain).all(), (g, a, b)

    @given(games=st.lists(census_families, min_size=1, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_one_game_and_array_verdicts_agree(self, games):
        assume(any(any(TestCappedBudgetRule.capped(g)) for g in games))
        expected = [contest_mutual_exists(g).exists for g in games]
        assert mutual_arrays.contest_exists(GameArrays.of(games)).tolist() == expected


class TestMutualVerdicts:
    """``mutual_verdicts`` on one baseline gives the three single verdicts bit for bit."""

    @staticmethod
    def assert_same(g):
        single = (budget_mutual_exists(g), contest_mutual_exists(g), joint_mutual_exists(g))
        optimum = max_collective_payoff(g)
        shared = mutual_verdicts(g, player_payoffs(g), optimum)
        # ``analyze_game`` passes the baseline of ``respond``.
        assert respond(g)[2] == player_payoffs(g), g
        # ``repr`` tells -0.0 from 0.0 in the witnesses.
        assert [repr(v) for v in shared] == [repr(v) for v in single], g
        return shared

    @given(g=census_families)
    @settings(max_examples=200, deadline=None)
    def test_box_log_and_wide_games(self, g):
        self.assert_same(g)

    def test_r5_and_ridge_games(self):
        # Every fourth stratified game is on the ridge, where the surplus
        # test decides all three verdicts.
        games = stratified_games(12, seed=17) + near_ridge_games(40, seed=18)
        found = Counter()
        for g in games + [swap_indices(g) for g in games]:
            for v in self.assert_same(g):
                found[v.mechanism, v.route is not None] += 1
        assert all(found[m, True] and found[m, False] for m in Mechanism), found


class TestAbsentVerdicts:
    """Verdicts ruled out before any line is built are prebuilt frozen values."""

    def test_prebuilt_verdicts_equal_fresh_ones(self):
        ridge = GameInstance(10.0, 10.0, 2.0, 2.0)
        capped = GameInstance(12.0, 10.0, 1.3953846153846154, 2.591371237458194)
        found = [
            *mutual_verdicts(ridge, player_payoffs(ridge), max_collective_payoff(ridge)),
            budget_mutual_exists(ridge),
            contest_mutual_exists(ridge),
            joint_mutual_exists(ridge),
            budget_mutual_exists(capped),
        ]
        fresh = [
            MutualBenefitVerdict(m, False, None, None, False)
            for m in (*Mechanism, *Mechanism, Mechanism.BUDGET)
        ]
        assert found == fresh
        assert [repr(v) for v in found] == [repr(v) for v in fresh]
        assert [v.as_dict() for v in found] == [v.as_dict() for v in fresh]
        with pytest.raises(dataclasses.FrozenInstanceError):
            found[0].exists = True


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
            # at the edge of the ridge sliver; the oracle refines into the
            # sliver and its fallback moves out of it.
            (48.88733723364115, 0.044168801810295144, 72.18745201076266, 0.05870941428526402),
            # The same, but the oracle's refinement does not land in the sliver.
            (0.06556647764031946, 8.917807076820045, 0.09600343357462351, 13.416855614120065),
            (0.028627368975401614, 74.14857519575018, 0.006706543572010456, 47.77922864571314),
            # The oracle refines to ratio gap 1.3e-6, inside the sliver but
            # off the ridge; its witness is the best scan point outside.
            (2.239345554556534, 1.4574673689141384, 0.16102934432392774, 1.9974738449164926),
        ],
    )
    def test_off_ridge_fallback_finds_robust_witness(self, params):
        g = GameInstance(*params)
        lo, hi = sliver(g, Mechanism.BUDGET)
        for v in (budget_mutual_exists(g), grid_mutual_search(g, Mechanism.BUDGET)):
            assert v.exists
            # Outside the sliver, at ratio gap 2 * RIDGE_RTOL or more: the
            # verdict's witness is the sliver's end, where the gap reads
            # 2 * RIDGE_RTOL up to rounding.
            assert not lo < v.witness.tau < hi
            assert ridge_gap(g, Mechanism.BUDGET, v.witness.tau) > 2 * RIDGE_RTOL * (1 - 1e-9)
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
        assert w.witness.tau == -v.witness.tau

    def test_witness_near_the_small_budgets_end(self):
        # Budgets seven decades apart: the line from -x2 to x1, inset by a
        # share of its width, started past the zero transfer and hid this
        # witness from the verdict and the oracle alike.
        g = GameInstance(
            10981.702012174444, 0.004496608858811195, 12171.908003499348, 0.0036145060277491393
        )
        games = [g, swap_indices(g)]
        verdicts = [budget_mutual_exists(h) for h in games]
        assert [(v.exists, v.route, v.near_boundary) for v in verdicts] == [
            (True, "exact:C2_1gt2", True),
            (True, "exact:C2_1le2", True),
        ]
        assert verdicts[1].witness.tau == -verdicts[0].witness.tau
        for h, v in zip(games, verdicts):
            assert is_mutually_beneficial(h, v.witness)
            assert grid_mutual_search(h, Mechanism.BUDGET).exists
        assert mutual_arrays.budget_exists(GameArrays.of(games)).tolist() == [True, True]

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
        mirrored = _mirror(v.route) if v.route else None
        assert (w.exists, w.route, w.near_boundary) == (v.exists, mirrored, v.near_boundary)
        if v.exists:
            # The swapped line is the same line, run from the other side.
            assert w.witness.tau == -v.witness.tau
            assert is_mutually_beneficial(swap_indices(g), w.witness)

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

    def test_crossing_that_empties_a_budget_is_not_confirmed(self):
        # The case-2 crossing of this game moves all of x1 to player 2, which
        # ``core.transfer_params`` rejects; the case-1 crossing after it is
        # feasible, confirmed and validated.
        g = GameInstance(
            44930.184378130485, 4.66455716573291e20, 8.350422637185131e28, 1.6907821641800072e-19
        )
        gap = 2.0 * RIDGE_RTOL
        lead = player_payoffs(g)[0] - player_payoffs(g)[1]
        p = gap_crossing(2, g.total_valuation, g.total_budget, gap, lead)
        xw = (1.0 - gap) * g.total_budget * p / (g.total_valuation - gap * p)
        assert not transfer_feasible(g, g.x1 - xw, g.phi1 - p)
        games = [g, swap_indices(g)]
        verdicts = [analyze_game(h).mutual_joint for h in games]
        assert [v.route for v in verdicts] == ["exact:C1_1gt2", "exact:C1_1le2"]
        assert verdicts[1].witness.tau == -verdicts[0].witness.tau
        assert verdicts[1].witness.nu == -verdicts[0].witness.nu
        for h, v in zip(games, verdicts):
            assert is_mutually_beneficial(h, v.witness)
        assert mutual_arrays.joint_exists(GameArrays.of(games)).tolist() == [True, True]

    @pytest.mark.parametrize("decades,count", [(30.0, 20000), (300.0, 2000)])
    def test_whole_float_range_raises_nothing_and_arrays_agree(self, decades, count):
        # Log-uniform games over 1e-30..1e30, where unchecked crossings
        # raised InfeasibleTransferError, and over 1e-300..1e300, where their
        # post-transfer budgets overflowed into ``case_of``.
        params = 10.0 ** np.random.default_rng(5).uniform(-decades, decades, (count, 4))
        games = [GameInstance(*row) for row in params.tolist()]
        verdicts = [joint_mutual_exists(g) for g in games]
        assert mutual_arrays.joint_exists(GameArrays.of(games)).tolist() == [
            v.exists for v in verdicts
        ]
        for g, v in zip(games, verdicts):
            if v.exists:
                assert is_mutually_beneficial(g, v.witness), g

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
            sample_games(7000, seed=61)
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
        hits = sum(joint_mutual_exists(g).exists for g in sample_games(200, seed=13))
        assert hits == 200

    def test_supersedes_single_mechanisms(self):
        for g in sample_games(150, seed=29):
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
        for g in sample_games(120, seed=83):
            for verdict in (
                contest_mutual_exists(g),
                budget_mutual_exists(g),
                joint_mutual_exists(g),
            ):
                if verdict.exists:
                    assert verdict.witness is not None
                    assert is_mutually_beneficial(g, verdict.witness)


class TestAnalyzeGolden:
    """The one-game verdicts of ``tests/data/analyze_golden.jsonl``, bit for bit."""

    def test_verdicts_match_fixture(self, analyze_golden):
        for rec in analyze_golden:
            g = GameInstance(*rec["game"])
            report = analyze_game(g)
            for name, verdict in (
                ("budget", report.mutual_budget),
                ("contest", report.mutual_contest),
                ("joint", report.mutual_joint),
            ):
                assert repr(verdict) == rec[name], (g, name)

    def test_fixture_script_gives_the_pinned_games(self, analyze_golden):
        path = Path(__file__).parent.parent / "scripts" / "make_golden_fixtures.py"
        spec = importlib.util.spec_from_file_location("make_golden_fixtures", path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        games = script.analyze_games()
        assert [[g.phi1, g.phi2, g.x1, g.x2] for g in games] == [r["game"] for r in analyze_golden]
        regions = [classify_region(g).value for g in games]
        assert [regions.count(r.value) for r in REGIONS] == [20] * 5


def _count_line_work(monkeypatch) -> Counter:
    """Count the line engine's payoff calls and candidate computations.

    ``payoffs_at`` counts every payoff the budget and contest verdicts score,
    the baseline included; ``budget_candidate_forms`` and
    ``contest_candidate_forms`` count one per ``(case, orientation)`` whose
    candidates a budget or contest line computes, keyed by their arguments.
    """
    counts = Counter()

    def counted(name):
        fn = getattr(mutual, name)

        def wrapper(*args):
            counts[name] += 1
            counts[(name, *args)] += 1
            return fn(*args)

        monkeypatch.setattr(mutual, name, wrapper)

    for name in ("payoffs_at", "budget_candidate_forms", "contest_candidate_forms"):
        counted(name)
    return counts


class TestLineWork:
    """The work the budget and contest lines do, counted call by call."""

    @pytest.mark.parametrize(
        "phi1,x1,x2", [(10.0, 2.0, 2.0), (0.37, 0.08, 1.7), (12.0, 0.4, 0.1), (3.3, 0.35, 0.45)]
    )
    def test_ridge_games_stop_at_the_surplus_test(self, monkeypatch, phi1, x1, x2):
        # Total budget X >= 1 in the first two games, X < 1 in the others.
        g = GameInstance(phi1, phi1 * x2 / x1, x1, x2)
        for h in (g, swap_indices(g)):
            for verdict in (budget_mutual_exists, contest_mutual_exists):
                counts = _count_line_work(monkeypatch)
                v = verdict(h)
                assert (v.exists, v.witness, v.route, v.near_boundary) == (
                    False, None, None, False
                )
                assert counts["payoffs_at"] == 1
                assert counts["budget_candidate_forms"] == counts["contest_candidate_forms"] == 0
                monkeypatch.undo()

    LINES = (
        (budget_mutual_exists, "budget_candidate_forms"),
        (contest_mutual_exists, "contest_candidate_forms"),
    )

    @pytest.mark.parametrize(
        "params,lines",
        [
            ((12.0, 10.0, 0.4, 1.6), LINES),
            # Benefits only inside the sliver, for contest and then budget
            # transfers: the sliver is searched too.  The first game's budget
            # line is ruled out (``test_capped_budget_line_scores_only_the_baseline``).
            ((12.0, 10.0, 1.3953846153846154, 2.591371237458194), LINES[1:]),
            (
                (2.112853218100396, 0.020730816272816647, 3.0638782857109907, 0.030061992959509894),
                LINES,
            ),
        ],
        ids=["params0", "params1", "params2"],
    )
    def test_candidates_once_per_case(self, monkeypatch, params, lines):
        # DIAMOND's lines cross the ridge sliver.  No candidate computation
        # repeats its arguments, also where the sliver's pieces share their
        # neighbours' cases.
        g = GameInstance(*params)
        for h in (g, swap_indices(g)):
            for verdict, name in lines:
                counts = _count_line_work(monkeypatch)
                v = verdict(h)
                calls = {k: n for k, n in counts.items() if isinstance(k, tuple) and k[0] == name}
                assert calls and set(calls.values()) == {1}, (h, v)
                if v.route == "ridge-knife-edge":
                    # Both sides of the ridge: both orientations.
                    assert len({key[1:3] for key in calls}) >= 2
                monkeypatch.undo()

    def test_capped_budget_line_scores_only_the_baseline(self, monkeypatch):
        # Case 1 leaves player 2 unopposed, so it wins its whole valuation and
        # no budget transfer can raise its payoff: the budget verdict scores
        # the baseline and computes no candidate.  Its contest line benefits
        # only inside the sliver, which it still searches, on player 1's
        # giving side alone.
        g = GameInstance(12.0, 10.0, 1.3953846153846154, 2.591371237458194)
        assert classify_case(g) == CaseLabel.of(1, False)
        assert player_payoffs(g)[1] == g.phi2
        for h in (g, swap_indices(g)):
            counts = _count_line_work(monkeypatch)
            v = budget_mutual_exists(h)
            assert (v.exists, v.witness, v.route, v.near_boundary) == (False, None, None, False)
            assert counts["payoffs_at"] == 1
            assert counts["budget_candidate_forms"] == counts["contest_candidate_forms"] == 0
            monkeypatch.undo()
            # The capped player has no valuation room to give: no contest
            # point on its giving side is scored, the baseline aside.
            counts = _count_line_work(monkeypatch)
            v = contest_mutual_exists(h)
            assert (v.exists, v.route, v.near_boundary) == (False, "ridge-knife-edge", True)
            giving = -1.0 if h is g else 1.0
            nus = [key[3] for key in counts if isinstance(key, tuple) and key[0] == "payoffs_at"]
            assert len(nus) > 1 and all(giving * nu <= 0.0 for nu in nus), nus
            monkeypatch.undo()

    def test_work_budget_on_pinned_corpus(self, monkeypatch, analyze_golden):
        # The totals repeat exactly: a change that adds work to the lines
        # must update them on purpose.
        games = [GameInstance(*rec["game"]) for rec in analyze_golden]
        totals = {}
        for verdict, name in (
            (budget_mutual_exists, "budget_candidate_forms"),
            (contest_mutual_exists, "contest_candidate_forms"),
        ):
            counts = _count_line_work(monkeypatch)
            for g in games:
                verdict(g)
            totals[verdict.__name__] = (counts["payoffs_at"], counts[name])
            monkeypatch.undo()
        assert totals == {
            "budget_mutual_exists": (353, 90),
            "contest_mutual_exists": (405, 203),
        }

    def test_contest_points_share_the_line_constants(self, monkeypatch, analyze_golden):
        # A contest line builds its room test and its gain floor once; no
        # piece or scored point makes its own ``valuation_room`` or
        # ``min_gain`` call, however many points the line scores.
        counts = _count_line_work(monkeypatch)
        for name in ("valuation_room", "min_gain"):
            fn = getattr(mutual, name)
            monkeypatch.setattr(
                mutual, name, lambda *args, fn=fn, name=name: counts.update([name]) or fn(*args)
            )
        lines = points = 0
        for rec in analyze_golden:
            g = GameInstance(*rec["game"])
            counts.clear()
            contest_mutual_exists(g)
            # The surplus test's gain floor, then the line's and its room test's.
            built = counts["valuation_room"]
            assert built in (0, 1)
            assert counts["min_gain"] == 1 + 2 * built, g
            lines += built
            points += built * counts["payoffs_at"]
        assert 0 < lines and points > 3 * lines

    def test_array_lanes_on_pinned_corpus(self, monkeypatch, analyze_golden):
        # The array lines build no line for a game the surplus test rules out,
        # nor a budget line where a player wins its whole valuation, and
        # classify and solve only the pieces off the ridge sliver (on a
        # contest line, only those with valuation room), each case's
        # quadratics on that case's pieces; the budget line's
        # quadratics include its four case edges per game.  The totals
        # repeat exactly: a change that pads the lanes must update them on
        # purpose.
        games = GameArrays.of([GameInstance(*rec["game"]) for rec in analyze_golden])
        lanes = Counter()

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args):
                lanes[name] += np.broadcast(*args).size
                return fn(*args)

            monkeypatch.setattr(module, name, wrapper)

        counted(batch, "case_of")
        # The shared root rule, where the break rules and the candidates call it.
        counted(mutual, "positive_roots")
        counted(mutual_arrays, "positive_roots")
        totals = {}
        for verdict in (mutual_arrays.budget_exists, mutual_arrays.contest_exists):
            lanes.clear()
            verdict(games)
            totals[verdict.__name__] = (lanes["case_of"], lanes["positive_roots"])
        assert totals == {"budget_exists": (93, 242), "contest_exists": (186, 327)}
