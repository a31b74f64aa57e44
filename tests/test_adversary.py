import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coalitional_lotto import batch
from coalitional_lotto.adversary import (
    CaseLabel,
    Orientation,
    adversary_value,
    best_response,
    classify_case,
    player_payoffs,
)
from coalitional_lotto.batch import GameArrays
from coalitional_lotto.core import (
    GameInstance,
    Transfer,
    one_v_one_payoff,
    post_transfer,
    swap_indices,
)
from coalitional_lotto.collective import max_collective_payoff, optimal_budget_transfer
from coalitional_lotto.oracle import grid_best_response
from coalitional_lotto.sweep import VERIFY_VALUE_TOL

from conftest import random_games

positive = st.floats(0.05, 5.0, allow_nan=False, allow_infinity=False)


def games():
    return given(phi1=positive, phi2=positive, x1=positive, x2=positive)


class TestClassify:
    def test_diamond_is_case2(self, diamond):
        label = classify_case(diamond)
        assert label.index == 2
        assert label.orientation is Orientation.ONE_LE_TWO
        assert str(label) == "C2_1le2"
        # the defining expression sits strictly inside (0, x2]
        assert 0 < 1 - math.sqrt(0.4 * 1.6 * 1.2) <= 1.6

    def test_equal_ratio_rich_is_case4(self):
        assert str(classify_case(GameInstance(10, 10, 2, 2))) == "C4"

    def test_equal_ratio_poor_is_case3(self):
        assert str(classify_case(GameInstance(10, 10, 0.3, 0.3))) == "C3_1le2"

    def test_dominant_valuation_is_case1(self):
        label = classify_case(GameInstance(10, 1, 0.5, 0.5))
        assert str(label) == "C1_1le2"

    def test_case3_example(self):
        assert str(classify_case(GameInstance(12, 10, 0.2, 0.3))) == "C3_1le2"

    def test_swapped_orientation(self, diamond):
        assert str(classify_case(swap_indices(diamond))) == "C2_1gt2"

    def test_case2_lower_boundary_classifies_case1(self):
        # here sqrt(x1*x2*phi1/phi2) == 1 exactly
        assert classify_case(GameInstance(1, 1, 0.5, 2.0)).index == 1

    def test_one_infinite_ratio_is_no_tie(self):
        # x1 / phi1 overflows to inf, and inf passes the relative tie test
        # against any finite ratio; player 2 is the weaker, in case 1.
        g = GameInstance(5e-324, 1.0, 1.0, 1.0)
        games = [g, swap_indices(g)]
        labels = [str(classify_case(h)) for h in games]
        assert labels == ["C1_1gt2", "C1_1le2"]
        index, swapped = batch.case_of(*GameArrays.of(games))
        assert [str(CaseLabel.of(*case)) for case in zip(index, swapped)] == labels
        for h in games:
            xa, grid = best_response(h), grid_best_response(h)
            value = adversary_value(h, xa.xa1, xa.xa2)
            assert abs(value - adversary_value(h, grid.xa1, grid.xa2)) <= VERIFY_VALUE_TOL

    def test_two_underflowing_ratios_are_decided_on_scaled_parameters(self):
        # Both ratios x_i / phi_i underflow to 0 here; they are no tie.  On
        # the budgets times RATIO_SCALE over the valuations divided by it,
        # player 2 is the weaker, in case 3, and the mirror gets the mirror.
        g = GameInstance(
            5.898856659919297e248, 1.0835451002296022e117, 1.2922213985991233e-109, 4.4619297314e-313
        )
        m = swap_indices(g)
        assert g.x1 / g.phi1 == 0.0 == g.x2 / g.phi2
        labels = [str(classify_case(h)) for h in (g, m)]
        assert labels == ["C3_1gt2", "C3_1le2"]
        assert player_payoffs(m) == player_payoffs(g)[::-1]
        xa, xm = best_response(g), best_response(m)
        assert (xm.xa1, xm.xa2) == (xa.xa2, xa.xa1)
        index, swapped = batch.case_of(*GameArrays.of([g, m]))
        assert [str(CaseLabel.of(*case)) for case in zip(index, swapped)] == labels
        # Equal scaled ratios stay a tie, in the native orientation.
        tie = GameInstance(1e300, 2e300, 1e-30, 2e-30)
        assert tie.x1 / tie.phi1 == 0.0 == tie.x2 / tie.phi2
        assert [str(classify_case(h)) for h in (tie, swap_indices(tie))] == ["C3_1le2"] * 2

    def test_payoffs_mirror_over_the_whole_float_range(self):
        # 53 of these games have both ratios underflowing to 0.
        params = 10.0 ** np.random.default_rng(11).uniform(-323.0, 308.0, (4000, 4))
        games = [GameInstance(*row) for row in params.tolist()]
        under = [g for g in games if g.x1 / g.phi1 == 0.0 == g.x2 / g.phi2]
        assert len(under) == 53
        mismatched = [g for g in games if player_payoffs(swap_indices(g)) != player_payoffs(g)[::-1]]
        assert mismatched == []

    @games()
    @settings(max_examples=400)
    def test_total(self, phi1, phi2, x1, x2):
        label = classify_case(GameInstance(phi1, phi2, x1, x2))
        assert label.index in (1, 2, 3, 4)
        assert (label.orientation is None) == (label.index == 4)


class TestBestResponse:
    def test_case1_all_in(self):
        xa = best_response(GameInstance(10, 1, 0.5, 0.5))
        assert xa.xa1 == 1.0 and xa.xa2 == 0.0

    def test_case2_closed_form(self, diamond):
        assert best_response(diamond).xa1 == pytest.approx(math.sqrt(0.768), rel=1e-15)

    def test_case3_closed_form(self):
        xa = best_response(GameInstance(12, 10, 0.2, 0.3))
        expect = math.sqrt(2.4) / (math.sqrt(2.4) + math.sqrt(3.0))
        assert xa.xa1 == pytest.approx(expect, rel=1e-15)
        assert xa.xa1 == pytest.approx(0.47214, abs=1e-5)

    def test_case4_proportional(self):
        xa = best_response(GameInstance(10, 10, 2, 2))
        assert xa.xa1 == pytest.approx(0.5)

    @games()
    @settings(max_examples=300)
    def test_split_uses_full_budget(self, phi1, phi2, x1, x2):
        xa = best_response(GameInstance(phi1, phi2, x1, x2))
        assert xa.xa1 + xa.xa2 == pytest.approx(1.0, abs=1e-12)
        assert -1e-12 <= xa.xa1 <= 1 + 1e-12

    def test_optimality_against_grid(self):
        # closed-form split beats every point of a dense grid on the
        # adversary objective
        for g in random_games(60, seed=101):
            xa = best_response(g)
            star = adversary_value(g, xa.xa1, xa.xa2)
            for k in range(0, 101):
                a = k / 100.0
                assert star >= adversary_value(g, a, 1 - a) - 1e-9


class TestPlayerPayoffs:
    def test_diamond_baseline(self, diamond):
        u1, u2 = player_payoffs(diamond)
        assert u1 == pytest.approx(0.5 * math.sqrt(30), rel=1e-12)
        assert u2 == pytest.approx(10 * (1 - 1 / 3.2) + 0.5 * math.sqrt(30), rel=1e-12)

    def test_case1_partner_keeps_everything(self):
        u1, u2 = player_payoffs(GameInstance(10, 1, 0.5, 0.5))
        assert u2 == pytest.approx(1.0, rel=1e-15)
        assert u1 == pytest.approx(10 * 0.25, rel=1e-15)

    def test_case4_canonical_split_payoffs(self):
        # Proportional tie-break: adversary puts 0.5 on each front, so each
        # player keeps phi*(1 - 0.5/(2*2)).  The collective then matches the
        # closed-form optimum, as it must on the ridge.
        g = GameInstance(10, 10, 2, 2)
        u1, u2 = player_payoffs(g)
        assert u1 == u2 == pytest.approx(8.75, rel=1e-15)
        assert u1 + u2 == pytest.approx(max_collective_payoff(g), rel=1e-15)

    def test_orientation_symmetry(self):
        for g in random_games(120, seed=7):
            t = Transfer(0.2 * g.x1 - 0.1 * g.x2, 0.15 * g.phi1 - 0.1 * g.phi2)
            u1, u2 = player_payoffs(g, t)
            s1, s2 = player_payoffs(swap_indices(g), Transfer(-t.tau, -t.nu))
            assert s1 == pytest.approx(u2, abs=1e-10 * g.total_valuation)
            assert s2 == pytest.approx(u1, abs=1e-10 * g.total_valuation)

    def test_case4_collective_invariant_across_splits(self):
        # any full-budget split with xa_i <= x_i yields the same collective
        g = GameInstance(10, 10, 2, 2)
        values = []
        for xa1 in (0.0, 0.25, 0.5, 0.75, 1.0):
            u1 = one_v_one_payoff(g.phi1, g.x1, xa1).u_player
            u2 = one_v_one_payoff(g.phi2, g.x2, 1 - xa1).u_player
            values.append(u1 + u2)
        assert max(values) - min(values) < 1e-12 * g.total_valuation

    def test_collective_continuity_across_case_boundaries(self):
        # u1+u2 is continuous in nu even where the case label flips
        from coalitional_lotto.paper_routes import thresholds

        for g in random_games(40, seed=31):
            th = thresholds(g)
            for nu0 in (th.alpha1, th.alpha2, th.alpha3, th.alpha4, th.alpha5):
                if not (-g.phi2 * 0.99 < nu0 < g.phi1 * 0.99):
                    continue
                lo = player_payoffs(g, Transfer(0, nu0 - 1e-8))
                hi = player_payoffs(g, Transfer(0, nu0 + 1e-8))
                jump = abs(sum(lo) - sum(hi))
                assert jump < 1e-6 * g.total_valuation

    @given(
        phi1=positive, phi2=positive, x1=positive, x2=positive,
        ft=st.floats(0.001, 0.999), fn=st.floats(0.001, 0.999),
        on_ridge=st.booleans(), swap=st.booleans(),
    )
    @settings(max_examples=400)
    def test_kernel_matches_object_pipeline(self, phi1, phi2, x1, x2, ft, fn, on_ridge, swap):
        # The float kernel gives exactly what the public object functions
        # give step by step; optimal_budget_transfer lands on the ridge.
        g = GameInstance(phi1, phi2, x1, x2)
        if swap:
            g = swap_indices(g)
        if on_ridge:
            t = optimal_budget_transfer(g)
        else:
            t = Transfer(-g.x2 + ft * g.total_budget, -g.phi2 + fn * g.total_valuation)
        gb = post_transfer(g, t)
        xa = best_response(gb)
        u1 = one_v_one_payoff(gb.phi1, gb.x1, xa.xa1).u_player
        u2 = one_v_one_payoff(gb.phi2, gb.x2, xa.xa2).u_player
        assert player_payoffs(g, t) == (u1, u2)
