import decimal
import math
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coalitional_lotto import batch, families
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


def _exact_case3_payoffs(g):
    """Both players' payoffs under the exact case-3 split, in 80-digit decimal.

    The adversary's shares are ``sqrt(x_i * phi_i)`` over their sum, on
    either side of the ridge; each payoff is ``u_player``'s closed form.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 80
        phis, budgets = [Decimal(g.phi1), Decimal(g.phi2)], [Decimal(g.x1), Decimal(g.x2)]
        roots = [(x * phi).sqrt() for x, phi in zip(budgets, phis)]
        payoffs = []
        for phi, x, root in zip(phis, budgets, roots):
            xa = root / (roots[0] + roots[1])
            payoffs.append(phi * x / (2 * xa) if x <= xa else phi * (1 - xa / (2 * x)))
        return payoffs


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
        # form underflows, and no payoff sum exceeds the collective maximum
        # (116 would with the rest taken as the strong share).
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
        assert over == []

    def test_case2_share_of_an_underflowing_product(self, float_range_games):
        # Left to right, ``x1 * x2 * phi1`` underflows to 0 here, though the
        # share ``sqrt(x1 * x2 * phi1 / phi2)`` is 7.93347341194586e-111.
        g = GameInstance(
            2.412798439968407e-177, 1.0671465055341108e-270, 6.33302974e-316, 43.95600526890296
        )
        assert str(classify_case(g)) == "C2_1le2"
        assert best_response(g).xa1 == pytest.approx(7.93347341194586e-111, rel=1e-12, abs=0.0)
        # Off the ridge, 776 of these games have a product below the
        # smallest normal float, 59 of them in case 1.  Both engines give
        # each the label of its exact share, and a case-2 share lies within
        # 1e-12 of it; the engines' payoffs agree over the float range
        # (``test_batch``).
        rtol, tol = Fraction(CASE_RTOL), Fraction(1e-12)
        under, labels = [], []
        for h in float_range_games:
            r1, r2 = exact_ratios(h.phi1, h.phi2, h.x1, h.x2)
            swapped = r1 > r2
            w = swap_indices(h) if swapped else h
            pw, ps, bw, bs = w.phi1, w.phi2, w.x1, w.x2
            if _tie(r1, r2, CASE_RTOL) or bw * bs * pw >= sys.float_info.min:
                continue
            # The square of the exact share, and the case that it gives.
            s2 = Fraction(bw) * Fraction(bs) * Fraction(pw) / Fraction(ps)
            edge = 1 - Fraction(bs) * (1 + rtol)
            index = 1 if s2 >= (1 - rtol) ** 2 else 2 if edge <= 0 or s2 >= edge**2 else 3
            under.append(h)
            labels.append((index, swapped))
            if index == 2:
                xa = best_response(h)
                share = Fraction(xa.xa2 if swapped else xa.xa1)
                assert (1 - tol) ** 2 * s2 <= share**2 <= (1 + tol) ** 2 * s2, h
        assert len(under) == 776 and sum(index == 1 for index, _ in labels) == 59
        assert _scalar_cases(under) == labels == _vector_cases(under)

    def test_case2_share_of_an_underflowing_quotient(self, float_range_games):
        # The product ``x1 * x2 * phi2`` is normal here, but its quotient by
        # ``phi1`` falls below the smallest normal float: taken as it is, the
        # share rounds to 0 and player 2 wins its whole valuation.
        g = GameInstance(
            1.086828028176588e171, 4.056141666658792e-41, 1.0361166638385802e34, 3.004323463969224e-284
        )
        assert str(classify_case(g)) == "C2_1gt2"
        xa = best_response(g)
        assert xa.xa1 == 1.0
        assert xa.xa2 == pytest.approx(3.4084255848705947e-231, rel=1e-12, abs=0.0)
        assert player_payoffs(g)[1] < 1e-93
        # Every case-2 share of the float range lies within 1e-12 of the
        # exact share, whatever its size, on floats and on arrays.
        tol = Fraction(1e-12)
        case2, off = [], []
        for h in float_range_games:
            index, swapped = case_of(h.phi1, h.phi2, h.x1, h.x2)
            if index != 2:
                continue
            w = swap_indices(h) if swapped else h
            s2 = Fraction(w.x1) * Fraction(w.x2) * Fraction(w.phi1) / Fraction(w.phi2)
            xa = best_response(h)
            share = Fraction(xa.xa2 if swapped else xa.xa1)
            case2.append(h)
            if not (1 - tol) ** 2 * s2 <= share**2 <= (1 + tol) ** 2 * s2:
                off.append(h)
        assert len(case2) == 708
        assert off == []
        u1, u2 = batch.payoffs_at_transfers(GameArrays.of(case2), 0.0, 0.0)
        assert list(zip(u1.tolist(), u2.tolist())) == [player_payoffs(h) for h in case2]

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
    def test_case3_payoff_of_a_share_near_1(self):
        # Player 2's case-3 share is 1 - 3.1e-6 here, and player 1's share
        # taken as its rest would keep only ten digits of its own.
        g = GameInstance(
            4.433431987109127e-08, 28107538.683739323, 7.050756989877856e-12, 0.0001293089981267458
        )
        assert str(classify_case(g)) == "C3_1gt2"
        u1, _ = player_payoffs(g)
        assert u1 == pytest.approx(1.6853250840513044e-08, rel=1e-12, abs=0.0)
        xa = best_response(g)
        assert xa.xa1 + xa.xa2 == 1.0

    def test_case3_payoffs_over_twenty_four_decades_match_the_exact_split(self):
        # Every case-3 payoff lies within 1e-12 of its valuation of the
        # exact payoff, on floats and on arrays.
        games = families.games(families.decades(np.random.default_rng(11), -12, 12, 4000))
        case3 = [g for g in games if case_of(g.phi1, g.phi2, g.x1, g.x2)[0] == 3]
        assert len(case3) == 763
        tol = Decimal(1e-12)
        off = []
        for g in case3:
            exact = _exact_case3_payoffs(g)
            for u, want, phi in zip(player_payoffs(g), exact, (g.phi1, g.phi2)):
                if abs(Decimal(u) - want) > tol * Decimal(phi):
                    off.append(g)
        assert off == []
        u1, u2 = batch.payoffs_at_transfers(GameArrays.of(case3), 0.0, 0.0)
        assert list(zip(u1.tolist(), u2.tolist())) == [player_payoffs(g) for g in case3]

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
