from fractions import Fraction

import pytest

from coalitional_lotto.adversary import classify_case
from coalitional_lotto.batch import GameArrays
from coalitional_lotto.collective import (
    collective_payoff,
    collective_report,
    collectively_beneficial_exists,
    max_collective_payoff,
    optimal_budget_transfer,
    optimal_contest_transfer,
    ridge_transfer,
)
from coalitional_lotto.core import GameInstance, Transfer, post_transfer, swap_indices
from coalitional_lotto.mutual import Mechanism, joint_mutual_exists
from coalitional_lotto.oracle import grid_max_collectives

from conftest import random_games


class TestOptimalTransfers:
    def test_diamond_contest(self, diamond):
        t = optimal_contest_transfer(diamond)
        assert t.nu == pytest.approx(7.6, abs=1e-12)
        assert t.tau == 0.0

    def test_diamond_budget(self, diamond):
        t = optimal_budget_transfer(diamond)
        assert t.tau == pytest.approx(-15.2 / 22.0, abs=1e-12)
        assert t.nu == 0.0

    def test_swap_symmetry(self, diamond):
        g = swap_indices(diamond)
        assert optimal_contest_transfer(g).nu == pytest.approx(-7.6, abs=1e-12)
        assert optimal_budget_transfer(g).tau == pytest.approx(15.2 / 22.0, abs=1e-12)

    def test_equal_ratio_games_need_nothing(self):
        g = GameInstance(10, 10, 2, 2)
        assert optimal_contest_transfer(g).nu == pytest.approx(0.0, abs=1e-15)
        assert optimal_budget_transfer(g).tau == pytest.approx(0.0, abs=1e-15)

    def test_ratio_equalization(self):
        for g in random_games(200, seed=47):
            for t in (optimal_contest_transfer(g), optimal_budget_transfer(g)):
                gb = post_transfer(g, t)
                assert gb.x1 / gb.phi1 == pytest.approx(gb.x2 / gb.phi2, rel=1e-10)

    def test_direction_for_oriented_games(self):
        # the equalizing contest transfer flows from the budget-weak player
        for g in random_games(200, seed=53):
            if g.x1 / g.phi1 <= g.x2 / g.phi2:
                assert optimal_contest_transfer(g).nu >= 0


class TestRidgeTransfer:
    def test_equals_the_closed_forms_bit_for_bit(self):
        games = random_games(200, seed=21)
        arrays = GameArrays.of(games)
        budget = ridge_transfer(arrays, Mechanism.BUDGET).tolist()
        contest = ridge_transfer(arrays, Mechanism.CONTEST).tolist()
        for g, tau, nu in zip(games, budget, contest):
            assert tau == (g.x1 * g.phi2 - g.x2 * g.phi1) / (g.phi1 + g.phi2)
            assert nu == (g.x2 * g.phi1 - g.x1 * g.phi2) / (g.x1 + g.x2)
            assert (optimal_budget_transfer(g).tau, optimal_contest_transfer(g).nu) == (tau, nu)

    @pytest.mark.parametrize(
        "params",
        [
            (1e300, 1e300, 1e300, 1e300),
            (3e300, 1e300, 2e300, 5e300),
            (1e308, 1.5e308, 0.5, 0.25),
            (0.5, 0.25, 1e308, 1.5e308),
            (1e-300, 2e-300, 1e300, 3e300),
        ],
    )
    def test_overflow_is_recomputed_on_scaled_parameters(self, params):
        g = GameInstance(*params)
        arrays = GameArrays.of([g, swap_indices(g)])
        phi1, phi2, x1, x2 = map(Fraction, params)
        exact = {
            Mechanism.BUDGET: (x1 * phi2 - x2 * phi1) / (phi1 + phi2),
            Mechanism.CONTEST: (x2 * phi1 - x1 * phi2) / (x1 + x2),
        }
        for mechanism, value in exact.items():
            v = ridge_transfer(g, mechanism)
            assert v == pytest.approx(float(value), rel=1e-15, abs=0.0)
            assert ridge_transfer(arrays, mechanism).tolist() == [v, -v]


class TestMaxCollective:
    def test_diamond_value(self, diamond):
        assert max_collective_payoff(diamond) == pytest.approx(16.5, abs=1e-12)

    def test_poor_players_value(self):
        assert max_collective_payoff(GameInstance(12, 10, 0.2, 0.3)) == pytest.approx(
            5.5, abs=1e-12
        )

    def test_budgets_spanning_the_float_range(self):
        # Twice the total budget overflows here; the maximum cannot exceed
        # phi1 + phi2 = 2, and over arrays it is the same float.
        g = GameInstance(1.0, 1.0, 5e-324, 1e308)
        assert max_collective_payoff(g) == 2.0
        report = collective_report(g)
        assert (report.optimum, report.improvable) == (2.0, True)
        games = GameArrays.of([g, swap_indices(g)])
        assert max_collective_payoff(games).tolist() == [2.0, 2.0]

    def test_attained_by_both_mechanisms(self, diamond):
        for t in (optimal_contest_transfer(diamond), optimal_budget_transfer(diamond)):
            assert collective_payoff(diamond, t) == pytest.approx(16.5, abs=1e-9)

    def test_matches_grid_oracle(self, golden_oracle):
        for name, rec in golden_oracle.items():
            g = GameInstance(**rec["game"])
            closed = max_collective_payoff(g)
            for mech in ("budget", "contest", "joint"):
                assert closed == pytest.approx(rec["max_collective"][mech], rel=1e-6), (
                    name,
                    mech,
                )


class TestCollectivePayoff:
    def test_diamond_baseline(self, diamond):
        # case-2 closed form: 0.5*sqrt(30) + 10*(1 - 1/3.2) + 0.5*sqrt(30)
        assert collective_payoff(diamond) == pytest.approx(12.352225575051661, rel=1e-12)

    def test_diamond_optimal_contest(self, diamond):
        assert collective_payoff(diamond, Transfer(0, 7.6)) == pytest.approx(16.5, abs=1e-9)

    def test_diamond_rounded_figure_budget(self, diamond):
        # -0.69 is the two-decimal rounding of the exact optimum -0.6909...,
        # so the value lands close to (but slightly below) the true maximum
        assert collective_payoff(diamond, Transfer(-0.69, 0)) == pytest.approx(16.5, abs=0.01)


class TestBeneficialExists:
    def test_diamond(self, diamond):
        assert collectively_beneficial_exists(diamond)

    def test_ridge(self):
        assert not collectively_beneficial_exists(GameInstance(10, 10, 2, 2))

    def test_case3_game(self):
        assert collectively_beneficial_exists(GameInstance(12, 10, 0.2, 0.3))

    def test_thin_surplus_with_joint_witness(self):
        # The surplus is 3.3e-12 of the total valuation, above the gain
        # floor, and a joint transfer benefits both players.
        g = GameInstance(
            2.990980420572866, 34.027611914566464, 0.05491626793568999, 0.6247825337799817
        )
        assert joint_mutual_exists(g).route == "exact:C3_1le2"
        assert collectively_beneficial_exists(g) and collective_report(g).improvable

    def test_report_fields(self, diamond):
        rep = collective_report(diamond)
        assert rep.improvable
        assert rep.optimum == pytest.approx(16.5)
        assert rep.baseline == pytest.approx(12.352225575051661, rel=1e-12)
        assert rep.optimum >= rep.baseline


class TestEquivalenceProperty:
    def test_triple_equality_sampled(self):
        # budget-only, contest-only, and joint maxima all match the closed form
        games = random_games(25, seed=61)
        for mech in Mechanism:
            for g, grid in zip(games, grid_max_collectives(games, mech)):
                closed = max_collective_payoff(g)
                assert grid == pytest.approx(closed, rel=1e-6), (g.as_dict(), mech)

    def test_concave_along_contest_axis_in_case2(self):
        import numpy as np

        from coalitional_lotto import batch

        count = 0
        for g in random_games(300, seed=67):
            if g.x1 / g.phi1 > g.x2 / g.phi2:
                g = swap_indices(g)
            if classify_case(g).index != 2:
                continue
            count += 1
            from coalitional_lotto.paper_routes import thresholds

            hi = min(thresholds(g).alpha1, g.phi1 * 0.98)
            if hi <= 0:
                continue
            nus = np.linspace(0, hi, 41)
            total = batch.collective_at_transfers(g, 0.0, nus)
            second = total[2:] - 2 * total[1:-1] + total[:-2]
            assert np.all(second <= 1e-9 * g.total_valuation)
        assert count >= 10

    def test_case2_initial_derivative_positive(self):
        # the collective payoff strictly improves with a small transfer from
        # every case-2 game (checked numerically across the sample)
        h = 1e-7
        for g in random_games(400, seed=73):
            if g.x1 / g.phi1 > g.x2 / g.phi2:
                g = swap_indices(g)
            if classify_case(g).index != 2:
                continue
            up = collective_payoff(g, Transfer(0, h))
            down = collective_payoff(g, Transfer(0, -h))
            assert (up - down) / (2 * h) > 0
