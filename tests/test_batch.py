"""The vectorized payoff path must agree with the scalar path exactly."""

import numpy as np
import pytest

from coalitional_lotto import adversary, batch, families
from coalitional_lotto.adversary import (
    CASE_RTOL,
    best_response,
    case_of,
    classify_case,
    player_payoffs,
)
from coalitional_lotto.collective import max_collective_payoff
from coalitional_lotto.core import (
    GameInstance,
    InfeasibleTransferError,
    Transfer,
    post_transfer,
    post_transfer_params,
    root_product,
    swap_indices,
    u_player,
)
from coalitional_lotto.mutual import Mechanism
from coalitional_lotto.search import line_ends
from coalitional_lotto.sweep import Predicate, SweepSpec, run_sweep, sample_games


def test_matches_scalar_on_random_transfers():
    rng = np.random.default_rng(5)
    games = sample_games(50, seed=23)
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
    # Both ratios underflow to 0 or both overflow to inf, off and on a tie.
    edges["ratios 0 or inf"] = [
        UNDERFLOW_RATIOS_GAME,
        OVERFLOW_RATIOS_GAME,
        GameInstance(1e300, 2e300, 1e-30, 2e-30),
        GameInstance(5e-324, 1e-323, 1e300, 2e300),
    ]
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
    assert sides["ratios 0 or inf"] == {(1, False), (1, True), (3, False), (3, True), (4, False)}


def test_case_of_matches_scalar_on_log_uniform_games():
    rng = np.random.default_rng(31)
    params = families.decades(rng, -6.0, 6.0, 4000)
    # Every fifth game on the ridge, every seventh with x1 + x2 < 1.
    params[::5, 1] = params[::5, 0] * params[::5, 3] / params[::5, 2]
    params[::7, 2:] = rng.uniform(0.01, 0.49, size=(len(params[::7]), 2))
    games = families.games(params)
    games += [swap_indices(g) for g in games]
    labels = _scalar_cases(games)
    assert _vector_cases(games) == labels
    assert {index for index, _ in labels} == {1, 2, 3, 4}


def test_case_of_and_payoffs_match_scalar_over_the_whole_float_range(float_range_games):
    # Every parameter over the float range: 53 of these games have both
    # ratios underflowing to 0, and the named one is among them; their
    # mirrors follow.
    games = float_range_games + [UNDERFLOW_RATIOS_GAME]
    games += [swap_indices(g) for g in games]
    under = [g for g in games if g.x1 / g.phi1 == 0.0 == g.x2 / g.phi2]
    assert len(under) == 2 * 54
    assert _vector_cases(games) == _scalar_cases(games)
    assert _vector_cases(under) == _scalar_cases(under)
    assert {swapped for _, swapped in _scalar_cases(under)} == {False, True}
    u1, u2 = batch.payoffs_at_transfers(batch.GameArrays.of(games), 0.0, 0.0)
    assert list(zip(u1.tolist(), u2.tolist())) == [player_payoffs(g) for g in games]


def test_game_arrays_take_and_total_valuation():
    games = sample_games(4, seed=2)
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
    for g in sample_games(20, seed=4):
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


def test_require_feasible_raises_on_the_first_infeasible_element():
    g = GameInstance(1.0, 2.0, 0.5, 0.25)
    arrays = batch.GameArrays.of([g, g, g])
    # The second and third transfers each empty a budget; the second is named.
    taus = np.array([0.0, 0.5, -0.25])
    with pytest.raises(InfeasibleTransferError, match="tau=0.5,"):
        batch.require_feasible(arrays, taus, 0.0)
    with pytest.raises(InfeasibleTransferError, match="tau=-0.25,"):
        batch.require_feasible(arrays, taus[::-1], 0.0)
    with pytest.raises(InfeasibleTransferError, match="nu=1.0\\)"):
        batch.require_feasible(g, 0.0, 1.0)


def test_require_feasible_makes_no_fallback_call_on_the_figure_plane(monkeypatch):
    # Every line end leaves its donor 1e-11 of its share, less than
    # ``EPS_FEAS`` on the plane's budgets below 0.1; each element is still
    # decided by ``transfer_feasible`` alone, without ``post_transfer_params``.
    calls = []

    def counted(g, t):
        calls.append((g, t))
        return post_transfer_params(g, t)

    monkeypatch.setattr(batch, "post_transfer_params", counted)
    axes = (("x1", 0.02, 3.0), ("x2", 0.02, 3.0))
    for predicate in (Predicate.MUTUAL_BUDGET, Predicate.MUTUAL_CONTEST, Predicate.MUTUAL_JOINT):
        plane = run_sweep(SweepSpec({"phi1": 12.0, "phi2": 10.0}, axes, 30, predicate))
        assert any(plane.values)
    assert calls == []


def test_collective_matches_sum(float_range_games):
    # Box games and each kernel path (ridge and case 3 among them) along
    # both lines, games over twenty-four decades, and the whole float range.
    calls = []
    for g in sample_games(10, seed=11) + PATH_GAMES:
        for mechanism in (Mechanism.BUDGET, Mechanism.CONTEST):
            vs = np.linspace(*line_ends(g, mechanism), 401)
            calls.append((g, vs, 0.0) if mechanism is Mechanism.BUDGET else (g, 0.0, vs))
    wide = _wide_games(3000, seed=41)
    calls.append((batch.GameArrays.of(wide), *_transfers(wide, seed=42)))
    calls.append((batch.GameArrays.of(float_range_games), 0.0, 0.0))
    for g, taus, nus in calls:
        u1, u2 = batch.payoffs_at_transfers(g, taus, nus)
        total = batch.collective_at_transfers(g, taus, nus)
        assert total.tobytes() == (u1 + u2).tobytes()
    cases = {classify_case(g).index for g in PATH_GAMES}
    assert cases == {1, 2, 3, 4}


def _wide_games(count: int, seed: int) -> list[GameInstance]:
    """Games with every parameter log-uniform over 1e-12..1e12.

    Every fifth game lies on the equal-ratio ridge and every seventh has a
    total budget below 1, so both ridge cases come up.
    """
    rng = np.random.default_rng(seed)
    params = families.decades(rng, -12.0, 12.0, count)
    params[::7, 2:] = rng.uniform(0.01, 0.49, size=(len(params[::7]), 2))
    params[::5, 1] = params[::5, 0] * params[::5, 3] / params[::5, 2]
    return families.games(params)


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

# Both ratios x_i / phi_i underflow to 0: the case rule decides on
# ``adversary.exact_ratios``, which makes player 2 the weaker.
UNDERFLOW_RATIOS_GAME = GameInstance(
    5.898856659919297e248, 1.0835451002296022e117, 1.2922213985991233e-109, 4.4619297314e-313
)

# Both ratios overflow to inf, as they would on valuations scaled up by
# 2**1000: on ``exact_ratios`` player 2 is the weaker, and in the mirror
# player 1.
OVERFLOW_RATIOS_GAME = GameInstance(5e-324, 1e-323, 1e308, 1e308)

# The weak side's case-3 share rounds to 1.0, so the strong side takes its
# own closed form, off the ridge and on it.
LOST_SHARE_GAMES = [
    GameInstance(
        1.6125467650588606e-172, 1.226833813294227e-242, 7.497722291364901e-183, 2.730579090009633e-197
    ),
    GameInstance(1.0, 2e-20, 0.5, 1e-20),
]

# A game of each case and ridge, each path of the kernel's split.
PATH_GAMES = [
    GameInstance(1.0, 1.0, 0.8, 2.0),  # case 1
    GameInstance(1.0, 1.0, 0.8, 0.1),  # case 2, player 2 weak
    GameInstance(1.0, 2.0, 0.4, 0.05),  # case 3, player 2 weak
    GameInstance(1.0, 1.0, 0.7, 0.7),  # ridge, total budget >= 1: case 4
    GameInstance(1.0, 1.0, 0.2, 0.2),  # ridge, total budget < 1: case 3
    UNDERFLOW_GAME,
    UNDERFLOW_RATIOS_GAME,
    *LOST_SHARE_GAMES,
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
    games = [g, swap_indices(g)] + sample_games(3, seed=6)
    u1, u2 = batch.payoffs_at_transfers(batch.GameArrays.of(games), 0.0, 0.0)
    assert [(a, b) for a, b in zip(u1, u2)] == [player_payoffs(h) for h in games]


def test_one_underflowing_product_takes_its_roots_factor_by_factor():
    # Only the strong front's product underflows (to 0): its share is the
    # product of the factors' roots, not 0, so player 2 does not win its
    # whole valuation, and the payoffs stay within the collective maximum.
    g = GameInstance(
        1.731858917690901e-65, 1.731851193718024e-76, 2.1074172117856863e-12, 7.120337245812922e-256
    )
    assert str(classify_case(g)) == "C3_1gt2"
    assert 7.120337245812922e-256 * 1.731851193718024e-76 == 0.0
    xa = best_response(g)
    assert xa.xa2 > 0.0
    u1, u2 = player_payoffs(g)
    assert u1 + u2 <= max_collective_payoff(g)
    games = [g, swap_indices(g)]
    b1, b2 = batch.payoffs_at_transfers(batch.GameArrays.of(games), 0.0, 0.0)
    assert [(a, b) for a, b in zip(b1, b2)] == [player_payoffs(h) for h in games]
    assert (b1[0], b2[0]) == (u1, u2) == (b2[1], b1[1])


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
    games = sample_games(12, seed=19) + PATH_GAMES[:5]
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


def _count_roots(monkeypatch) -> list:
    """Record every ``root_product`` the one split takes."""
    calls = []

    def counted(a, b):
        calls.append(np.shape(a))
        return root_product(a, b)

    monkeypatch.setattr(adversary, "root_product", counted)
    return calls


def _line_payoffs(g, mechanism):
    """The kernel's payoffs on a 4001-point line, with its transfers."""
    vs = np.linspace(*line_ends(g, mechanism), 4001)
    scan = (vs, 0.0) if mechanism is Mechanism.BUDGET else (0.0, vs)
    return batch.payoffs_at_transfers(g, *scan), np.broadcast_arrays(*scan)


def test_lines_of_cases_1_and_2_take_no_root(monkeypatch):
    # The counter sees the roots of a line with case-3 lanes.
    roots = _count_roots(monkeypatch)
    _line_payoffs(GameInstance(12.0, 10.0, 0.2, 0.3), Mechanism.BUDGET)
    assert roots == [(4001,)] * 2
    roots.clear()
    # Both lines of this game hold case-1 and case-2 lanes, in both
    # orientations; the budget line crosses the ridge at a total budget
    # above 1 (case 4).  No lane takes case 3, so no root is taken.
    g = GameInstance(1.0, 1.0, 0.8, 2.0)
    for mechanism in (Mechanism.BUDGET, Mechanism.CONTEST):
        (u1, u2), (taus, nus) = _line_payoffs(g, mechanism)
        index, swapped = batch.case_of(g.phi1 - nus, g.phi2 + nus, g.x1 - taus, g.x2 + taus)
        assert {1, 2} <= set(index.tolist()) <= {1, 2, 4}
        assert swapped.any() and not swapped.all()
        for k, (tau, nu) in enumerate(zip(taus.tolist(), nus.tolist())):
            assert (u1[k], u2[k]) == player_payoffs(g, Transfer(tau, nu)), (mechanism, k)
    assert roots == []


@pytest.mark.parametrize(
    "odd",
    [GameInstance(1.0, 1.0, 0.2, 0.2), GameInstance(1.0, 1.0, 0.5, 0.5 - 1e-11), *LOST_SHARE_GAMES],
    ids=["ridge-poor", "ridge-poor-case2-test", "lost-share", "ridge-poor-lost-share"],
)
def test_one_case3_lane_takes_the_roots(monkeypatch, odd):
    # The only case-3 lane of the call is an equal-ratio lane with total
    # budget below 1, or a lane whose weak share rounds to 1, or both;
    # every other lane is of case 1, 2 or 4.  The second ridge lane passes
    # the off-ridge case-2 test, which does not count on the ridge.
    roots = _count_roots(monkeypatch)
    settled = [
        GameInstance(1.0, 1.0, 0.8, 2.0),
        GameInstance(1.0, 1.0, 0.8, 0.1),
        GameInstance(1.0, 1.0, 0.7, 0.7),
    ]
    games = settled + [odd] + [swap_indices(g) for g in settled + [odd]]
    assert [classify_case(g).index == 3 for g in games] == [False] * 3 + [True] + [False] * 3 + [True]
    u1, u2 = batch.payoffs_at_transfers(batch.GameArrays.of(games), 0.0, 0.0)
    assert roots == [(len(games),)] * 2
    assert [(a, b) for a, b in zip(u1, u2)] == [player_payoffs(g) for g in games]
    # The strong front stays opposed.
    for k in (3, 7):
        xa = best_response(games[k])
        assert 0.0 < min(xa.xa1, xa.xa2)


def test_one_v_one_vec_writes_no_input_and_keeps_its_types():
    phi = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    # Every fast-path lane, then the same with a lane of two zero budgets.
    for x_player, x_adv in (
        (np.array([0.5, 2.0, 1.0, 0.0, 1e-300]), np.array([1.0, 1.0, 1.0, 0.3, 2.0])),
        (np.array([0.5, 2.0, 1.0, 0.0, 0.0]), np.array([1.0, 1.0, 1.0, 0.3, 0.0])),
    ):
        before = [a.copy() for a in (phi, x_player, x_adv)]
        u = batch.one_v_one_vec(phi, x_player, x_adv)
        for a, b in zip((phi, x_player, x_adv), before):
            assert np.array_equal(a, b)
        assert type(u) is np.ndarray
        assert u.tolist() == [u_player(*args) for args in zip(phi.tolist(), x_player.tolist(), x_adv.tolist())]
    # A ``phi`` that broadcasts wider than the budgets.
    u = batch.one_v_one_vec(phi[:, None], x_player[:2], x_adv[:2])
    assert u.shape == (5, 2)
    assert u.tolist() == [[u_player(p, 0.5, 1.0), u_player(p, 2.0, 1.0)] for p in phi.tolist()]
    u = batch.one_v_one_vec(phi, 0.3, 0.4)
    assert type(u) is np.ndarray and u.tolist() == [u_player(p, 0.3, 0.4) for p in phi.tolist()]
    # 0-d budgets give numpy scalars, zero budgets included.
    for wrap in (float, np.float64, np.array):
        for x_player, x_adv in ((0.0, 0.0), (0.3, 0.4), (0.5, 0.4)):
            u = batch.one_v_one_vec(wrap(5.0), wrap(x_player), wrap(x_adv))
            assert type(u) is np.float64 and u == u_player(5.0, x_player, x_adv)
    # Each lane is decided on its own: a NaN budget gives NaN, as in
    # ``u_player``, whether or not another lane has two zero budgets.
    for x_adv in (np.array([np.nan, 1.0]), np.array([np.nan, 0.0])):
        u = batch.one_v_one_vec(3.0, np.array([0.5, 0.0]), x_adv)
        assert np.isnan(u[0]) and np.isnan(u_player(3.0, 0.5, np.nan))

