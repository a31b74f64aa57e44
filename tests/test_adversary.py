import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coalitional_lotto import batch
from coalitional_lotto.adversary import (
    CASE_RTOL,
    CaseLabel,
    Orientation,
    adversary_value,
    best_response,
    case_of,
    classify_case,
    exact_ratios,
    player_payoffs,
)
from coalitional_lotto.batch import GameArrays
from coalitional_lotto.core import (
    GameInstance,
    Transfer,
    one_v_one_payoff,
    post_transfer,
    root_product,
    swap_indices,
)
from coalitional_lotto.collective import max_collective_payoff, optimal_budget_transfer
from coalitional_lotto.oracle import grid_best_response
from coalitional_lotto.sweep import VERIFY_VALUE_TOL, sample_games

positive = st.floats(0.05, 5.0, allow_nan=False, allow_infinity=False)
# Positive floats over the whole range, subnormals included, with extra
# weight on each end, where both ratios of a game can underflow or overflow.
whole_range = st.builds(
    math.ldexp,
    st.floats(1.0, 2.0, exclude_max=True),
    st.one_of(st.integers(-1074, 1023), st.integers(-1074, -1000), st.integers(1000, 1023)),
)


def games():
    return given(phi1=positive, phi2=positive, x1=positive, x2=positive)


def _tie(r1, r2, rtol):
    return abs(r1 - r2) <= rtol * max(r1, r2)


def _mirror(case):
    """The ``case_of`` result of a game's mirror, unless the game is a case-3 ratio tie."""
    index, swapped = case
    return (4, False) if index == 4 else (index, not swapped)


def _scalar_cases(games):
    return [case_of(g.phi1, g.phi2, g.x1, g.x2) for g in games]


def _vector_cases(games):
    index, swapped = batch.case_of(*GameArrays.of(games))
    return list(zip(index.tolist(), swapped.tolist()))


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
        # ``exact_ratios`` player 2 is the weaker, in case 3, and the mirror
        # gets the mirror.
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

    @pytest.mark.parametrize(
        "g",
        [
            # Both ratios x_i / phi_i are 1e-320, deep among the subnormals,
            # while the exact ratios differ by 1e-4.
            GameInstance(1e10, 1e10, 1e-310, 1.0001e-310),
            # Both are 2.6e-315, where ``CASE_RTOL`` times the ratio is still
            # the smallest subnormal, not 0; the exact ratios differ by just
            # over ``CASE_RTOL`` of the larger.
            GameInstance(1e10, 1e10, 2.6e-305, 2.6000000026000003e-305),
        ],
    )
    def test_equal_subnormal_ratios_are_decided_on_exact_ratios(self, g):
        # Equal subnormal quotients have lost the precision that tells the
        # ratios apart: on ``exact_ratios`` player 1 is the weaker, in case
        # 3, and the mirror gets the mirror, in both engines.
        m = swap_indices(g)
        assert 0.0 < g.x1 / g.phi1 == g.x2 / g.phi2 < sys.float_info.min
        labels = [str(classify_case(h)) for h in (g, m)]
        assert labels == ["C3_1le2", "C3_1gt2"]
        index, swapped = batch.case_of(*GameArrays.of([g, m]))
        assert [str(CaseLabel.of(*case)) for case in zip(index, swapped)] == labels
        assert player_payoffs(m) == player_payoffs(g)[::-1]

    def test_two_overflowing_ratios_are_decided_on_exact_ratios(self, float_range_games):
        # Both ratios x_i / phi_i overflow to inf here, and would still on
        # valuations scaled up by 2**1000.  Player 1's valuation is the
        # smaller, so its exact ratio is the larger: player 2 is the weaker.
        g = GameInstance(5e-324, 1e-323, 1e308, 1e308)
        m = swap_indices(g)
        assert g.x1 / g.phi1 == math.inf == g.x2 / g.phi2
        labels = [str(classify_case(h)) for h in (g, m)]
        assert labels == ["C1_1gt2", "C1_1le2"]
        index, swapped = batch.case_of(*GameArrays.of([g, m]))
        assert [str(CaseLabel.of(*case)) for case in zip(index, swapped)] == labels
        # Every game of the float range and its mirror get mirrored labels,
        # in both engines; 66 of the 4,000 and the named game have both
        # ratios overflowing to inf.
        games = float_range_games + [g]
        over = [h for h in games if h.x1 / h.phi1 == math.inf == h.x2 / h.phi2]
        assert len(over) == 67
        mirrors = [swap_indices(h) for h in games]
        for engine in (_scalar_cases, _vector_cases):
            labels, mirrored = engine(games), engine(mirrors)
            assert [_mirror(case) for case in labels] == mirrored

    def test_payoffs_mirror_over_the_whole_float_range(self, float_range_games):
        # 53 of these games have both ratios underflowing to 0.
        games = float_range_games
        under = [g for g in games if g.x1 / g.phi1 == 0.0 == g.x2 / g.phi2]
        assert len(under) == 53
        mismatched = [g for g in games if player_payoffs(swap_indices(g)) != player_payoffs(g)[::-1]]
        assert mismatched == []

    @given(
        phi1=whole_range, phi2=whole_range, x1=whole_range, x2=whole_range,
        near=st.sampled_from([None, 0.0, 1e-12, -4e-10, 6e-10, 2e-9, -3e-9]),
    )
    @settings(max_examples=600)
    def test_exact_ratios_decide_as_exact_fractions(self, phi1, phi2, x1, x2, near):
        # Parameters over the whole float range; ``near`` puts x2 at that
        # relative offset from a ratio tie, or leaves it free (None).
        if near is not None:
            tied = Fraction(x1) / Fraction(phi1) * Fraction(phi2) * (1 + Fraction(near))
            assume(Fraction(5e-324) <= tied < Fraction(1.7e308))
            x2 = float(tied)
        exact = Fraction(x1) / Fraction(phi1), Fraction(x2) / Fraction(phi2)
        for r1, r2 in (exact_ratios(phi1, phi2, x1, x2), exact_ratios(*np.array([[phi1, phi2, x1, x2]]).T)):
            assert 0.5 <= max(r1, r2) < 2.0
            tie = _tie(r1, r2, CASE_RTOL)
            assert tie == _tie(*exact, Fraction(CASE_RTOL))
            # Off a tie, the order; a tie carries none.
            assert tie or (r1 < r2) == (exact[0] < exact[1])

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

    def test_case3_strong_share_below_an_ulp_of_1_keeps_its_closed_form(self, float_range_games):
        # The weak side's case-3 share rounds to 1.0 here, and the rest,
        # 1.0 - 1.0, would leave player 2 unopposed with its whole valuation;
        # its own closed form, 5.3e-43, outguns its budget of 2.7e-197.
        g = GameInstance(
            1.6125467650588606e-172, 1.226833813294227e-242, 7.497722291364901e-183, 2.730579090009633e-197
        )
        m = swap_indices(g)
        assert str(classify_case(g)) == "C3_1le2"
        assert (best_response(g).xa1, best_response(g).xa2) == (1.0, 5.263800418717343e-43)
        assert (best_response(m).xa1, best_response(m).xa2) == (5.263800418717343e-43, 1.0)
        assert player_payoffs(g) == (0.0, 0.0) == player_payoffs(m)
        # The same on the equal-ratio ridge, total budget below 1, in the
        # normal range: the strong front's share is 2e-20, not 0.
        ridge = GameInstance(1.0, 2e-20, 0.5, 1e-20)
        assert str(classify_case(ridge)) == "C3_1le2"
        assert best_response(ridge).xa2 == 2e-20
        assert player_payoffs(ridge) == (0.25, 5e-21)
        # Over the float range a case-3 share is 0 only where its own closed
        # form underflows.  The payoff sums exceed the collective maximum on
        # 3 games (116 with the rest taken as the strong share), all in case
        # 2, whose weak share ``sqrt(x_w * x_s * phi_w / phi_s)`` underflows.
        lost, over = [], []
        for h in float_range_games:
            index, _ = case_of(h.phi1, h.phi2, h.x1, h.x2)
            xa = best_response(h)
            a, b = root_product(h.x1, h.phi1), root_product(h.x2, h.phi2)
            if index == 3 and min(xa.xa1, xa.xa2) == 0.0 < min(a, b) / (a + b):
                lost.append(h)
            top = max_collective_payoff(h)
            if sum(player_payoffs(h)) - top > 1e-9 * top:
                over.append(index)
        assert lost == []
        assert over == [2, 2, 2]

    @games()
    @settings(max_examples=300)
    def test_split_uses_full_budget(self, phi1, phi2, x1, x2):
        xa = best_response(GameInstance(phi1, phi2, x1, x2))
        assert xa.xa1 + xa.xa2 == pytest.approx(1.0, abs=1e-12)
        assert -1e-12 <= xa.xa1 <= 1 + 1e-12

    def test_optimality_against_grid(self):
        # closed-form split beats every point of a dense grid on the
        # adversary objective
        for g in sample_games(60, seed=101):
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
        for g in sample_games(120, seed=7):
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

        for g in sample_games(40, seed=31):
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
