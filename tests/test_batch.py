"""The vectorized payoff path must agree with the scalar path exactly."""

import numpy as np
import pytest

from coalitional_lotto import batch
from coalitional_lotto.adversary import (
    CASE_RTOL,
    best_response,
    case_of,
    classify_case,
    player_payoffs,
)
from coalitional_lotto.core import (
    GameInstance,
    InfeasibleTransferError,
    Transfer,
    post_transfer,
    post_transfer_params,
    swap_indices,
    u_player,
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
    edges = [g for side_games in _case_edge_games().values() for g in side_games]
    e1, e2 = batch.payoffs_at_transfers(batch.GameArrays.of(edges), 0.0, 0.0)
    for k, g in enumerate(edges):
        assert (e1[k], e2[k]) == player_payoffs(g)
        assert batch.payoffs_at_transfers(g, 0.0, 0.0) == player_payoffs(g)
    assert {case_of(g.phi1, g.phi2, g.x1, g.x2)[0] for g in edges} == {1, 2, 3, 4}


def _case_edge_games() -> dict[str, list[GameInstance]]:
    """Games inside, on and outside each edge of ``case_of``, by edge.

    ``k`` scales the tolerance by ``1 -+ 1e-3``, so the three games of each
    edge fall inside, on and outside it; the mirrored games follow.  With
    unit valuations the adversary's weak-front share is ``s = sqrt(x_w *
    x_s)``.
    """
    edges = {"s == 1": [GameInstance(1.0, 1.0, 0.5, 2.0)]}
    for k in (1.0 - 1e-3, 1.0, 1.0 + 1e-3):
        tol = k * CASE_RTOL
        for edge, x1, x2 in (("ridge, X >= 1", 0.7, 0.9), ("ridge, X < 1", 0.2, 0.3)):
            # Ratio gap ``tol``, with combined budget above and below 1.
            edges.setdefault(edge, []).append(GameInstance(1.0, x2 / (x1 * (1.0 + tol)), x1, x2))
        s = 1.0 - tol  # s within the tolerance of 1: case 1 or case 2
        edges["s == 1"].append(GameInstance(1.0, 1.0, s * s / 2.0, 2.0))
        x_s = 0.6  # 1 - s == x_s * (1 + tol): case 2 or case 3
        s = 1.0 - x_s * (1.0 + tol)
        edges.setdefault("case 2/3", []).append(GameInstance(1.0, 1.0, s * s / x_s, x_s))
    return {edge: games + [swap_indices(g) for g in games] for edge, games in edges.items()}


def _scalar_cases(games):
    return [case_of(g.phi1, g.phi2, g.x1, g.x2) for g in games]


def _vector_cases(games):
    index, swapped = batch.case_of(*batch.GameArrays.of(games))
    return list(zip(index.tolist(), swapped.tolist()))


def test_case_of_matches_scalar_at_every_edge():
    sides = {}
    for edge, games in _case_edge_games().items():
        assert _vector_cases(games) == _scalar_cases(games), edge
        # Each game one at a time, on floats.
        for g in games:
            index, swapped = batch.case_of(g.phi1, g.phi2, g.x1, g.x2)
            assert (int(index), bool(swapped)) == case_of(g.phi1, g.phi2, g.x1, g.x2)
        sides[edge] = set(_scalar_cases(games))
    # Inside and outside differ on every edge, so both sides are compared.
    assert sides["ridge, X >= 1"] == {(4, False), (2, False), (2, True)}
    assert sides["ridge, X < 1"] == {(3, False), (3, True)}
    assert sides["s == 1"] == {(1, False), (2, False), (1, True), (2, True)}
    assert sides["case 2/3"] == {(2, False), (3, False), (2, True), (3, True)}


def test_case_of_matches_scalar_on_log_uniform_games():
    rng = np.random.default_rng(31)
    params = 10.0 ** rng.uniform(-6.0, 6.0, size=(4000, 4))
    # Every fifth game on the ridge, every seventh with x1 + x2 < 1.
    params[::5, 1] = params[::5, 0] * params[::5, 3] / params[::5, 2]
    params[::7, 2:] = rng.uniform(0.01, 0.49, size=(len(params[::7]), 2))
    games = [GameInstance(*row) for row in params]
    games += [swap_indices(g) for g in games]
    labels = _scalar_cases(games)
    assert _vector_cases(games) == labels
    assert {index for index, _ in labels} == {1, 2, 3, 4}


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


def test_collective_matches_sum():
    g = random_games(1, seed=11)[0]
    nus = np.linspace(-0.9 * g.phi2, 0.9 * g.phi1, 33)
    u1, u2 = batch.payoffs_at_transfers(g, 0.0, nus)
    total = batch.collective_at_transfers(g, 0.0, nus)
    assert np.allclose(total, u1 + u2, rtol=0, atol=0)


def _wide_games(count: int, seed: int) -> list[GameInstance]:
    """Games with every parameter log-uniform over 1e-12..1e12.

    Every fifth game lies on the equal-ratio ridge and every seventh has a
    total budget below 1, so both ridge cases come up.
    """
    rng = np.random.default_rng(seed)
    params = 10.0 ** rng.uniform(-12.0, 12.0, size=(count, 4))
    params[::7, 2:] = rng.uniform(0.01, 0.49, size=(len(params[::7]), 2))
    params[::5, 1] = params[::5, 0] * params[::5, 3] / params[::5, 2]
    return [GameInstance(*row) for row in params]


def _transfers(games, seed: int):
    """One transfer per game, up to 0.999 of each donor's share; every third
    game keeps the zero transfer, so ridge games stay on the ridge."""
    rng = np.random.default_rng(seed)
    frac = rng.uniform(-0.999, 0.999, size=(len(games), 2))
    frac[::3] = 0.0
    arrays = batch.GameArrays.of(games)
    taus = np.where(frac[:, 0] > 0, frac[:, 0] * arrays.x1, frac[:, 0] * arrays.x2)
    nus = np.where(frac[:, 1] > 0, frac[:, 1] * arrays.phi1, frac[:, 1] * arrays.phi2)
    return taus, nus


# Both products of the case-3 split underflow to 0: the roots are taken
# factor by factor.
UNDERFLOW_GAME = GameInstance(1e-170, 1e-170, 1e-160, 2e-160)

# A game of each case and ridge, each path of the kernel's split.
PATH_GAMES = [
    GameInstance(1.0, 1.0, 0.8, 2.0),  # case 1
    GameInstance(1.0, 1.0, 0.8, 0.1),  # case 2, player 2 weak
    GameInstance(1.0, 2.0, 0.4, 0.05),  # case 3, player 2 weak
    GameInstance(1.0, 1.0, 0.7, 0.7),  # ridge, total budget >= 1: case 4
    GameInstance(1.0, 1.0, 0.2, 0.2),  # ridge, total budget < 1: case 3
    UNDERFLOW_GAME,
]


def test_kernel_matches_scalar_over_twenty_four_decades():
    games = _wide_games(3000, seed=41)
    taus, nus = _transfers(games, seed=42)
    u1, u2 = batch.payoffs_at_transfers(batch.GameArrays.of(games), taus, nus)
    labels = set()
    for k, g in enumerate(games):
        t = Transfer(float(taus[k]), float(nus[k]))
        assert (u1[k], u2[k]) == player_payoffs(g, t), k
        labels.add(str(classify_case(post_transfer(g, t))))
    assert len(labels) == 7


def test_subnormal_products_take_the_roots_factor_by_factor():
    g = UNDERFLOW_GAME
    assert str(classify_case(g)) == "C3_1le2"
    root_w = np.sqrt(1e-160) * np.sqrt(1e-170)
    assert best_response(g).xa1 == root_w / (root_w + np.sqrt(2e-160) * np.sqrt(1e-170))
    games = [g, swap_indices(g)] + random_games(3, seed=6)
    u1, u2 = batch.payoffs_at_transfers(batch.GameArrays.of(games), 0.0, 0.0)
    assert [(a, b) for a, b in zip(u1, u2)] == [player_payoffs(h) for h in games]


def test_case1_leaves_the_strong_front_unopposed():
    # Case 1 in both orientations, before and after transfers that keep it.
    games = [GameInstance(1.0, 1.0, 0.8, 2.0), GameInstance(2.0, 1.0, 1.0, 3.0)]
    games += [swap_indices(g) for g in games]
    taus = np.array([0.05, 0.0, -0.05, 0.0])
    nus = np.array([0.0, 0.1, 0.0, -0.1])
    u1, u2 = batch.payoffs_at_transfers(batch.GameArrays.of(games), taus, nus)
    for k, g in enumerate(games):
        after = post_transfer(g, Transfer(taus[k], nus[k]))
        label = classify_case(after)
        assert label.index == 1
        xa = best_response(after)
        assert (xa.xa1, xa.xa2) == ((0.0, 1.0) if label.swapped else (1.0, 0.0))
        # The adversary leaves the strong front alone: its player keeps phi.
        strong = u1[k] if label.swapped else u2[k]
        assert strong == (after.phi1 if label.swapped else after.phi2)
        assert (u1[k], u2[k]) == player_payoffs(g, Transfer(taus[k], nus[k]))


@pytest.mark.parametrize("wrap", [float, np.float64, np.array], ids=["float", "float64", "0-d"])
def test_zero_dimensional_inputs(wrap):
    for g in PATH_GAMES:
        one = batch.GameArrays.of([g]).take(0)
        for tau, nu in ((0.0, 0.0), (0.1 * g.x1, 0.0), (0.0, -0.1 * g.phi2)):
            want = player_payoffs(g, Transfer(tau, nu))
            for game in (g, one):
                u1, u2 = batch.payoffs_at_transfers(game, wrap(tau), wrap(nu))
                assert np.shape(u1) == np.shape(u2) == ()
                assert (u1, u2) == want
    for x_player, x_adv in ((0.3, 0.0), (0.0, 0.0), (0.0, 0.4), (0.3, 0.4), (0.5, 0.4)):
        u = batch.one_v_one_vec(wrap(5.0), wrap(x_player), wrap(x_adv))
        assert np.shape(u) == () and u == u_player(5.0, x_player, x_adv)


def test_broadcasting_grid():
    games = random_games(12, seed=19) + PATH_GAMES[:5]
    arrays = batch.GameArrays.of(games)
    column = batch.GameArrays(*(field[:, None] for field in arrays))
    # Inside every game's budgets and valuations (all at least 0.05).
    taus = np.linspace(-0.04, 0.04, 9)
    nus = np.linspace(-0.04, 0.04, 7)

    def check(u1, u2, g, tau, nu):
        assert (u1, u2) == player_payoffs(g, Transfer(float(tau), float(nu)))

    # A column of games against a row of transfers.
    u1, u2 = batch.payoffs_at_transfers(column, taus[None, :], nus[3])
    assert u1.shape == (len(games), len(taus))
    for (k, i), _ in np.ndenumerate(u1):
        check(u1[k, i], u2[k, i], games[k], taus[i], nus[3])
    # A row of games against one transfer.
    u1, u2 = batch.payoffs_at_transfers(arrays, taus[2], nus[5])
    for k, g in enumerate(games):
        check(u1[k], u2[k], g, taus[2], nus[5])
    # One game over the grid of budget and contest transfers.
    for g in games:
        u1, u2 = batch.payoffs_at_transfers(g, taus[:, None], nus[None, :])
        assert u1.shape == (len(taus), len(nus))
        for (i, j), _ in np.ndenumerate(u1):
            check(u1[i, j], u2[i, j], g, taus[i], nus[j])


def test_one_v_one_vec_zero_budget_conventions():
    xp = np.array([0.0, 0.3, 0.0])
    xa = np.array([2.0, 0.0, 0.0])
    assert batch.one_v_one_vec(np.full(3, 5.0), xp, xa).tolist() == [0.0, 5.0, 5.0]
    # Zero and equal budgets on either side, and budgets over many decades.
    phi = np.array([1e-12, 0.7, 5.0, 1e12])[:, None, None]
    x_player = np.array([0.0, 1e-300, 0.25, 0.5, 1.0, 2.0, 1e12])[None, :, None]
    x_adv = np.array([0.0, 1e-300, 0.25, 0.5, 1.0])[None, None, :]
    u = batch.one_v_one_vec(phi, x_player, x_adv)
    assert u.shape == (4, 7, 5)
    for (i, j, k), value in np.ndenumerate(u):
        want = u_player(float(phi[i, 0, 0]), float(x_player[0, j, 0]), float(x_adv[0, 0, k]))
        assert value == want, (i, j, k)
