"""The vectorized payoff path must agree with the scalar path exactly."""

import numpy as np
import pytest

from coalitional_lotto import batch
from coalitional_lotto.adversary import CASE_RTOL, case_of, player_payoffs
from coalitional_lotto.core import (
    GameInstance,
    InfeasibleTransferError,
    Transfer,
    post_transfer_params,
    swap_indices,
)

from conftest import random_games


def test_matches_scalar_on_random_transfers():
    rng = np.random.default_rng(5)
    games = random_games(50, seed=23)
    taus = np.array([rng.uniform(-0.9 * g.x2, 0.9 * g.x1, size=40) for g in games])
    nus = np.array([rng.uniform(-0.9 * g.phi2, 0.9 * g.phi1, size=40) for g in games])
    # One game at a time, then every game in one call: a column of games
    # against a row of transfers per game.
    arrays = batch.GameArrays.of(games)
    column = batch.GameArrays(*(field[:, None] for field in arrays))
    all1, all2 = batch.payoffs_at_transfers(column, taus, nus)
    assert all1.shape == (50, 40)
    for k, g in enumerate(games):
        u1, u2 = batch.payoffs_at_transfers(g, taus[k], nus[k])
        for i in range(taus.shape[1]):
            s1, s2 = player_payoffs(g, Transfer(taus[k, i], nus[k, i]))
            assert u1[i] == s1 and all1[k, i] == s1
            assert u2[i] == s2 and all2[k, i] == s2
    # A game array row by row against one transfer per game.
    r1, r2 = batch.payoffs_at_transfers(arrays, taus[:, 7], nus[:, 7])
    for k, g in enumerate(games):
        assert (r1[k], r2[k]) == player_payoffs(g, Transfer(taus[k, 7], nus[k, 7]))
    # Games on either side of each comparison in ``case_of``, untransferred.
    edges = _case_edge_games()
    e1, e2 = batch.payoffs_at_transfers(batch.GameArrays.of(edges), 0.0, 0.0)
    for k, g in enumerate(edges):
        assert (e1[k], e2[k]) == player_payoffs(g)
        assert batch.payoffs_at_transfers(g, 0.0, 0.0) == player_payoffs(g)
    assert {case_of(g.phi1, g.phi2, g.x1, g.x2)[0] for g in edges} == {1, 2, 3, 4}


def _case_edge_games() -> list[GameInstance]:
    """Games at and around each edge of ``case_of``, in both orientations.

    ``k`` scales the tolerance by ``1 -+ 1e-3``, so the three values of each
    kind fall inside, on and outside the edge.  With unit valuations the
    adversary's weak-front share is ``s = sqrt(x_w * x_s)``.
    """
    games = [GameInstance(1.0, 1.0, 0.5, 2.0)]  # s == 1 exactly
    for k in (1.0 - 1e-3, 1.0, 1.0 + 1e-3):
        tol = k * CASE_RTOL
        for x1, x2 in ((0.7, 0.9), (0.2, 0.3)):
            # Ratio gap ``tol``, with combined budget above and below 1.
            games.append(GameInstance(1.0, x2 / (x1 * (1.0 + tol)), x1, x2))
        s = 1.0 - tol  # s within the tolerance of 1: case 1 or case 2
        games.append(GameInstance(1.0, 1.0, s * s / 2.0, 2.0))
        x_s = 0.6  # 1 - s == x_s * (1 + tol): case 2 or case 3
        s = 1.0 - x_s * (1.0 + tol)
        games.append(GameInstance(1.0, 1.0, s * s / x_s, x_s))
    return games + [swap_indices(g) for g in games]


def test_game_arrays_take_and_total_valuation():
    games = random_games(4, seed=2)
    arrays = batch.GameArrays.of(games).take(np.array([3, 0, 3]))
    assert arrays.phi1.tolist() == [games[3].phi1, games[0].phi1, games[3].phi1]
    assert arrays.total_valuation.tolist() == [games[k].total_valuation for k in (3, 0, 3)]
    assert batch.GameArrays.of([]).phi1.shape == (0,)


def _scalar_feasible(g, tau, nu) -> bool:
    try:
        post_transfer_params(g, Transfer(tau, nu))
    except InfeasibleTransferError:
        return False
    return True


def test_require_feasible_follows_the_scalar_rule():
    rng = np.random.default_rng(8)
    cases = []
    for g in random_games(20, seed=4):
        taus = rng.uniform(-1.2 * g.x2, 1.2 * g.x1, 30)
        nus = rng.uniform(-1.2 * g.phi2, 1.2 * g.phi1, 30)
        cases += [(g, tau, nu) for tau, nu in zip(taus, nus)]
    # A valuation below EPS_FEAS, where the rule's relative floor decides.
    tiny = GameInstance(1.0, 1e-13, 1.0, 1.0)
    cases += [(tiny, 0.0, nu) for nu in (0.0, -0.5e-13, -0.99e-13, -1e-13, -2e-13)]
    assert 0 < sum(_scalar_feasible(*case) for case in cases) < len(cases)
    for g, tau, nu in cases:
        # The infeasible transfer sits behind a feasible one.
        arrays = batch.GameArrays.of([g, g])
        taus, nus = np.array([0.0, tau]), np.array([0.0, nu])
        if _scalar_feasible(g, tau, nu):
            batch.require_feasible(arrays, taus, nus)
        else:
            with pytest.raises(InfeasibleTransferError):
                batch.require_feasible(arrays, taus, nus)


def test_broadcasting_grid():
    g = random_games(1, seed=3)[0]
    taus = np.linspace(-0.5 * g.x2, 0.5 * g.x1, 7)[:, None]
    nus = np.linspace(-0.5 * g.phi2, 0.5 * g.phi1, 9)[None, :]
    u1, u2 = batch.payoffs_at_transfers(g, taus, nus)
    assert u1.shape == (7, 9)
    s1, s2 = player_payoffs(g, Transfer(float(taus[3, 0]), float(nus[0, 4])))
    assert u1[3, 4] == s1
    assert u2[3, 4] == s2


def test_one_v_one_vec_zero_budget_conventions():
    phi = np.array([5.0, 5.0, 5.0])
    xp = np.array([0.0, 0.3, 0.0])
    xa = np.array([2.0, 0.0, 0.0])
    u = batch.one_v_one_vec(phi, xp, xa)
    assert u.tolist() == [0.0, 5.0, 5.0]


def test_collective_matches_sum():
    g = random_games(1, seed=11)[0]
    nus = np.linspace(-0.9 * g.phi2, 0.9 * g.phi1, 33)
    u1, u2 = batch.payoffs_at_transfers(g, 0.0, nus)
    total = batch.collective_at_transfers(g, 0.0, nus)
    assert np.allclose(total, u1 + u2, rtol=0, atol=0)
