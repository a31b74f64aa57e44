"""The vectorized payoff path must agree with the scalar path exactly."""

import numpy as np

from coalitional_lotto import batch
from coalitional_lotto.adversary import player_payoffs
from coalitional_lotto.core import Transfer

from conftest import random_games


def test_matches_scalar_on_random_transfers():
    rng = np.random.default_rng(5)
    for g in random_games(50, seed=23):
        taus = rng.uniform(-0.9 * g.x2, 0.9 * g.x1, size=40)
        nus = rng.uniform(-0.9 * g.phi2, 0.9 * g.phi1, size=40)
        u1, u2 = batch.payoffs_at_transfers(g, taus, nus)
        for i in range(len(taus)):
            s1, s2 = player_payoffs(g, Transfer(taus[i], nus[i]))
            assert u1[i] == s1
            assert u2[i] == s2


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
