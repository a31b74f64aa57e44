import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coalitional_lotto import core
from coalitional_lotto.adversary import player_payoffs
from coalitional_lotto.core import (
    GameInstance,
    GameValidationError,
    InfeasibleTransferError,
    Mechanism,
    Transfer,
    one_v_one_payoff,
    post_transfer,
    swap_indices,
    transfer_feasible,
    transfer_params,
)
from coalitional_lotto.search import along, line_ends

positive = st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False)
budgets = st.floats(0.0, 1e3, allow_nan=False, allow_infinity=False)


class TestOneVOne:
    def test_symmetric_budgets_split_evenly(self):
        assert one_v_one_payoff(10, 1, 1).u_player == pytest.approx(5.0)

    def test_outgunned_branch(self):
        # phi * x_player / (2 * x_adv) with the player at 0.4 of the budget
        assert one_v_one_payoff(12, 0.4, 1).u_player == pytest.approx(2.4, abs=1e-15)

    def test_unopposed_player_wins_everything(self):
        pair = one_v_one_payoff(7, 0.3, 0)
        assert pair.u_player == 7
        assert pair.u_adversary == 0

    def test_zero_budget_player_wins_nothing(self):
        assert one_v_one_payoff(5, 0, 2).u_player == 0

    def test_both_zero_ties_go_to_player(self):
        assert one_v_one_payoff(5, 0, 0).u_player == 5

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_phi(self, bad):
        with pytest.raises(GameValidationError):
            one_v_one_payoff(bad, 1, 1)

    @pytest.mark.parametrize("bad", [-0.1, math.nan, math.inf])
    def test_rejects_bad_budgets(self, bad):
        with pytest.raises(GameValidationError):
            one_v_one_payoff(1, bad, 1)
        with pytest.raises(GameValidationError):
            one_v_one_payoff(1, 1, bad)

    @given(phi=positive, xp=budgets, xa=budgets)
    @settings(max_examples=300)
    def test_conservation(self, phi, xp, xa):
        pair = one_v_one_payoff(phi, xp, xa)
        assert pair.u_player + pair.u_adversary == pytest.approx(phi, rel=1e-12)
        assert 0.0 <= pair.u_player <= phi

    @given(phi=positive, xa=st.floats(1e-3, 1e3), lo=budgets, hi=budgets)
    @settings(max_examples=200)
    def test_monotone_in_player_budget(self, phi, xa, lo, hi):
        lo, hi = min(lo, hi), max(lo, hi)
        assert (
            one_v_one_payoff(phi, lo, xa).u_player
            <= one_v_one_payoff(phi, hi, xa).u_player + 1e-12 * phi
        )

    @given(phi=positive, xp=st.floats(1e-3, 1e3), lo=budgets, hi=budgets)
    @settings(max_examples=200)
    def test_antitone_in_adversary_budget(self, phi, xp, lo, hi):
        lo, hi = min(lo, hi), max(lo, hi)
        assert (
            one_v_one_payoff(phi, xp, hi).u_player
            <= one_v_one_payoff(phi, xp, lo).u_player + 1e-12 * phi
        )

    @given(phi=positive, x=st.floats(1e-3, 1e3))
    @settings(max_examples=200)
    def test_branches_agree_at_equal_budgets(self, phi, x):
        assert one_v_one_payoff(phi, x, x).u_player == pytest.approx(phi / 2, rel=1e-12)


class TestGameInstance:
    def test_valid_roundtrip(self):
        g = GameInstance(12, 10, 0.4, 1.6)
        assert GameInstance.from_dict(g.as_dict()) == g

    @pytest.mark.parametrize("field", ["phi1", "phi2", "x1", "x2"])
    @pytest.mark.parametrize("bad", [0.0, -2.0, math.nan, math.inf])
    def test_rejects_nonpositive(self, field, bad):
        params = {"phi1": 1.0, "phi2": 1.0, "x1": 1.0, "x2": 1.0, field: bad}
        with pytest.raises(GameValidationError):
            GameInstance(**params)

    def test_missing_field(self):
        with pytest.raises(GameValidationError):
            GameInstance.from_dict({"phi1": 1, "phi2": 1, "x1": 1})


class TestTransfer:
    @pytest.mark.parametrize("field", ["tau", "nu"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, field, bad):
        with pytest.raises(GameValidationError, match=f"{field} must be finite, got {bad!r}"):
            Transfer(**{field: bad})


class TestPostTransfer:
    def test_identity(self, diamond):
        assert post_transfer(diamond, Transfer(0, 0)) == diamond

    def test_contest_transfer_from_figure(self, diamond):
        gb = post_transfer(diamond, Transfer(0, 7.6))
        assert (gb.phi1, gb.phi2, gb.x1, gb.x2) == pytest.approx((4.4, 17.6, 0.4, 1.6))

    def test_budget_transfer_from_figure(self, diamond):
        gb = post_transfer(diamond, Transfer(-0.69, 0))
        assert (gb.phi1, gb.phi2, gb.x1, gb.x2) == pytest.approx((12, 10, 1.09, 0.91))

    @given(
        phi1=positive, phi2=positive, x1=positive, x2=positive,
        ft=st.floats(0.01, 0.99), fn=st.floats(0.01, 0.99),
    )
    @settings(max_examples=200)
    def test_preserves_totals(self, phi1, phi2, x1, x2, ft, fn):
        g = GameInstance(phi1, phi2, x1, x2)
        t = Transfer(x1 * ft - x2 * (1 - ft) * 0.5, phi1 * fn - phi2 * (1 - fn) * 0.5)
        try:
            gb = post_transfer(g, t)
        except InfeasibleTransferError:
            return
        assert gb.phi1 + gb.phi2 == pytest.approx(g.phi1 + g.phi2, rel=1e-15)
        assert gb.x1 + gb.x2 == pytest.approx(g.x1 + g.x2, rel=1e-15)

    @pytest.mark.parametrize(
        "t",
        [Transfer(0.4, 0), Transfer(-1.6, 0), Transfer(0, 12), Transfer(0, -10), Transfer(1, 0)],
    )
    def test_rejects_infeasible(self, diamond, t):
        with pytest.raises(InfeasibleTransferError):
            post_transfer(diamond, t)
        with pytest.raises(InfeasibleTransferError):
            player_payoffs(diamond, t)

    def test_own_size_ends_take_the_fast_path(self, monkeypatch):
        # Each line end leaves its donor 1e-11 of its own share, below
        # ``EPS_FEAS`` on budgets and valuations below 0.1; ``transfer_params``
        # accepts such an end by the rule of ``transfer_feasible`` itself,
        # without calling it, and rejects what that rule rejects: 1.5 times
        # an end, and a budget left with 0.8 times ``EPS_FEAS * x1``, or none.
        games = [GameInstance(12.0, 10.0, 0.05, 0.02), GameInstance(0.03, 0.001, 3.0, 1e-7)]
        ends = [
            (g, *along(mechanism, end).as_dict().values())
            for g in games
            for mechanism in (Mechanism.BUDGET, Mechanism.CONTEST)
            for end in line_ends(g, mechanism)
        ]
        beyond = [(g, 1.5 * tau, 1.5 * nu) for g, tau, nu in ends]
        beyond += [(games[0], 0.05 - 4e-14, 0.0), (games[0], 0.05, 0.0)]
        assert all(transfer_feasible(*point) for point in ends)
        assert not any(transfer_feasible(*point) for point in beyond)
        calls = []
        monkeypatch.setattr(core, "transfer_feasible", lambda *args: calls.append(args))
        for g, tau, nu in ends:
            assert transfer_params(g, tau, nu) == (g.phi1 - nu, g.phi2 + nu, g.x1 - tau, g.x2 + tau)
        for point in beyond:
            with pytest.raises(InfeasibleTransferError):
                transfer_params(*point)
        assert calls == []


class TestSwap:
    def test_examples(self, diamond):
        assert swap_indices(diamond) == GameInstance(10, 12, 1.6, 0.4)
        sym = GameInstance(5, 5, 1, 1)
        assert swap_indices(sym) == sym

    @given(phi1=positive, phi2=positive, x1=positive, x2=positive)
    @settings(max_examples=200)
    def test_involution(self, phi1, phi2, x1, x2):
        g = GameInstance(phi1, phi2, x1, x2)
        assert swap_indices(swap_indices(g)) == g
