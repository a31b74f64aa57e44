import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from coalitional_lotto import oracle, sweep
from coalitional_lotto.adversary import adversary_value, best_response
from coalitional_lotto.batch import GameArrays
from coalitional_lotto.core import (
    GameInstance,
    InfeasibleTransferError,
    Transfer,
    post_transfer_params,
)
from coalitional_lotto.mutual import Mechanism, is_mutually_beneficial
from coalitional_lotto.oracle import (
    DEFAULT_GRID_1D,
    GridSpec,
    LineOracle,
    grid_best_response,
    grid_best_responses,
    grid_line_oracle,
    grid_max_collective,
    grid_max_collectives,
    grid_mutual_search,
    grid_mutual_searches,
    grid_oracles,
)
from coalitional_lotto.rng import SplitMix64
from coalitional_lotto.search import (
    RIDGE_RTOL,
    golden_max,
    line_ends,
    refine_transfers,
    ridge_gap,
)
from coalitional_lotto.sweep import run_verify

from conftest import DATA_DIR, random_games

SCRIPT = Path(__file__).parent.parent / "scripts" / "make_golden_fixtures.py"

# The budget search of this game refines onto the ridge and has to search the
# side intervals next to the ridge sliver (``search.off_ridge_best``).
OFF_RIDGE_GAME = GameInstance(
    39.17790139866747, 0.7725122295917143, 6.406092369515996, 0.12631544973346337
)


def batching_corpus(seed: int = 31) -> list[GameInstance]:
    """Uniform-box, log-uniform and near-ridge games, then ``OFF_RIDGE_GAME``."""
    rng = SplitMix64(seed)
    games = list(random_games(6, seed=seed))
    for _ in range(6):
        games.append(
            GameInstance(*(math.exp(rng.uniform(math.log(1e-2), math.log(1e2))) for _ in range(4)))
        )
    # Relative ratio gaps on and around the 1e-6 ridge tolerance.
    for gap in (0.0, 1e-6, -2.5e-6, 1e-5, -1e-3, 3e-6):
        phi1, x1, x2 = (rng.uniform(0.05, 3.0) for _ in range(3))
        games.append(GameInstance(phi1, phi1 * x2 / x1 * (1.0 + gap), x1, x2))
    games.append(OFF_RIDGE_GAME)
    return games


def textbook_golden_max(f, a: float, b: float, iters: int) -> tuple[float, float]:
    """Scalar golden-section maximum of ``f`` on ``[a, b]``: (argmax, max)."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc = f(c)
    fd = f(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return (c, fc) if fc >= fd else (d, fd)


class TestGridSpec:
    def test_defaults(self):
        assert DEFAULT_GRID_1D.resolution == 4001

    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(2)


class TestGridBestResponse:
    def test_case1_all_in(self):
        xa = grid_best_response(GameInstance(10, 1, 0.5, 0.5))
        assert abs(xa.xa1 - 1.0) < 1e-6

    def test_diamond(self, diamond):
        xa = grid_best_response(diamond)
        assert xa.xa1 == pytest.approx(math.sqrt(0.768), abs=1e-6)

    def test_case4_objective_matches(self):
        g = GameInstance(10, 10, 2, 2)
        grid = grid_best_response(g)
        closed = best_response(g)
        v_grid = adversary_value(g, grid.xa1, grid.xa2)
        v_closed = adversary_value(g, closed.xa1, closed.xa2)
        assert abs(v_grid - v_closed) < 1e-9

    def test_matches_closed_form_sampled(self):
        for g in random_games(40, seed=19):
            closed = best_response(g)
            grid = grid_best_response(g)
            alloc_err = abs(closed.xa1 - grid.xa1)
            value_err = abs(
                adversary_value(g, closed.xa1, closed.xa2)
                - adversary_value(g, grid.xa1, grid.xa2)
            )
            assert alloc_err < 1e-6 or value_err < 1e-9


class TestGridMutualSearch:
    def test_diamond_contest(self, diamond):
        v = grid_mutual_search(diamond, Mechanism.CONTEST)
        assert v.exists and v.witness.nu > 0

    def test_diamond_budget_direction(self, diamond):
        v = grid_mutual_search(diamond, Mechanism.BUDGET)
        assert v.exists and v.witness.nu == 0 and v.witness.tau < 0

    def test_ridge_joint_absent(self):
        assert not grid_mutual_search(GameInstance(10, 10, 2, 2), Mechanism.JOINT).exists

    def test_off_ridge_fallback_searches_next_to_the_sliver(self):
        # The game's own ratio gap is about 2.5e-6, just outside the 2e-6
        # ridge sliver; the only benefit lies between the sliver and the game.
        g = OFF_RIDGE_GAME
        v = grid_mutual_search(g, Mechanism.BUDGET)
        assert v.exists
        assert ridge_gap(g, Mechanism.BUDGET, v.witness.tau) > 2 * RIDGE_RTOL
        assert is_mutually_beneficial(g, v.witness)

    def test_local_maxima_follow_the_padded_rule(self):
        def padded(score, top):
            # Each point against copies of its neighbours, -inf past the ends.
            left = np.concatenate([[-np.inf], score[:-1]])
            right = np.concatenate([score[1:], [-np.inf]])
            idx = np.flatnonzero((score >= left) & (score >= right))
            if idx.size == 0:
                return [int(np.argmax(score))]
            return [int(i) for i in idx[np.argsort(score[idx])[::-1]][:top]]

        rng = np.random.default_rng(8)
        scores = [
            np.array([1.0, 1.0, 1.0, 1.0]),  # one plateau: every point
            np.array([3.0, 1.0, 2.0, 2.0, 0.5, 4.0]),  # both ends and an inner plateau
            np.array([0.0, 1.0, 2.0, 3.0]),  # rising to the last point
            np.array([-1.0, np.nan, -1.0, -2.0, np.nan]),  # NaN points and neighbours
            np.array([np.nan, np.nan, np.nan]),  # no maximum: the argmax
            np.array([np.nan]),
            np.array([5.0]),
        ]
        scores += [rng.normal(size=n) for n in (2, 3, 50, 4001)]
        scores += [np.round(rng.normal(size=200), 1) for _ in range(5)]  # many ties
        for score in scores:
            for top in (1, 5, 1000):
                assert oracle._local_maxima(score, top) == padded(score, top), (score, top)


class TestSequenceForms:
    """Each sequence form gives every game its one-game result bit for bit."""

    # A coarse joint grid keeps the one-game calls cheap.
    JOINT = GridSpec(41)

    def check(self, form, one):
        games = batching_corpus()
        singles = [repr(one(g)) for g in games]
        assert [repr(r) for r in form(games)] == singles
        assert [repr(r) for r in form(games[::-1])] == singles[::-1]
        # Mixed into another sample, at another position.
        others = random_games(3, seed=5)
        mixed = form(others[:2] + games[3:9] + others[2:])
        assert [repr(r) for r in mixed[2:-1]] == singles[3:9]

    def test_best_responses(self):
        self.check(grid_best_responses, grid_best_response)

    @pytest.mark.parametrize("mech", [Mechanism.BUDGET, Mechanism.CONTEST, Mechanism.JOINT])
    def test_mutual_searches(self, mech):
        spec = self.JOINT if mech is Mechanism.JOINT else None
        self.check(
            lambda games: grid_mutual_searches(games, mech, spec),
            lambda g: grid_mutual_search(g, mech, spec),
        )

    @pytest.mark.parametrize("mech", [Mechanism.BUDGET, Mechanism.CONTEST, Mechanism.JOINT])
    def test_max_collectives(self, mech):
        spec = self.JOINT if mech is Mechanism.JOINT else None
        self.check(
            lambda games: grid_max_collectives(games, mech, spec),
            lambda g: grid_max_collective(g, mech, spec),
        )

    def test_line_oracle_serves_both_uses_of_a_line(self):
        games = batching_corpus()
        lines = grid_line_oracle(games, Mechanism.CONTEST, (Mechanism.BUDGET, Mechanism.CONTEST))
        assert repr(lines.verdicts) == repr(grid_mutual_searches(games, Mechanism.CONTEST))
        for mech in (Mechanism.BUDGET, Mechanism.CONTEST):
            assert repr(lines.maxima[mech]) == repr(grid_max_collectives(games, mech))

    def test_one_pass_gives_each_oracle_its_own_result(self, monkeypatch):
        lines = (Mechanism.CONTEST, (Mechanism.BUDGET, Mechanism.CONTEST))

        def both(games):
            return repr(grid_oracles(games, *lines))

        def alone(games):
            return repr((grid_line_oracle(games, *lines), grid_best_responses(games)))

        games = batching_corpus()
        others = random_games(3, seed=5)
        for sample in (games, games[::-1], others[:2] + games[3:9] + others[2:], []):
            assert both(sample) == alone(sample)
        # What run_verify gets from its one pass.
        got = []

        def record(*args):
            got.append(grid_oracles(*args))
            return got[-1]

        monkeypatch.setattr(sweep, "grid_oracles", record)
        run_verify(5, 7)
        assert len(got) == 1
        assert repr(got[0]) == alone(sweep.sample_games(5, 7))

    def test_off_ridge_game_takes_the_side_search(self):
        # The witness lies beyond the sliver, nearer the ridge than one scan
        # step: only the side refinement can find it.
        v = grid_mutual_searches(batching_corpus(), Mechanism.BUDGET)[-1]
        scan = np.linspace(*line_ends(OFF_RIDGE_GAME, Mechanism.BUDGET), 4001)
        assert v.exists and v.witness.tau not in scan
        assert ridge_gap(OFF_RIDGE_GAME, Mechanism.BUDGET, v.witness.tau) > 2 * RIDGE_RTOL

    def test_empty_sequences(self):
        assert grid_best_responses([]) == []
        for mech in Mechanism:
            assert grid_mutual_searches([], mech) == []
            assert grid_max_collectives([], mech) == []
        lines = grid_line_oracle([], Mechanism.CONTEST, (Mechanism.BUDGET, Mechanism.CONTEST))
        assert lines == LineOracle([], {Mechanism.BUDGET: [], Mechanism.CONTEST: []})

    def test_verify_still_rejects_an_empty_sample(self):
        with pytest.raises(ValueError, match="count must be >= 1"):
            run_verify(0, 7)


class TestLockstepGolden:
    def test_matches_textbook_search_bit_for_bit(self):
        rng = np.random.default_rng(3)
        n = 40
        a = rng.uniform(-2.0, 1.0, n)
        b = a + rng.uniform(1e-9, 3.0, n)
        t = rng.uniform(-2.0, 4.0, n)
        s = rng.uniform(-2.0, 4.0, n)
        iters = rng.choice([0, 1, 2, 3, 7, 60, 61, 80], n)

        def row(i):
            # Not unimodal: each row may keep either side of its bracket.
            return lambda x: 0.5 * x - abs((x - t[i]) * (x - s[i]))

        # All rows (an even last step), then those below 80 steps (an odd
        # last step, taken alone).
        for rows in (np.arange(n), np.flatnonzero(iters < 80)):
            ts, ss = t[rows], s[rows]
            x, fx = golden_max(
                lambda v: 0.5 * v - np.abs((v - ts) * (v - ss)), a[rows], b[rows], iters[rows]
            )
            for j, i in enumerate(rows):
                want = textbook_golden_max(row(i), float(a[i]), float(b[i]), int(iters[i]))
                assert (x[j], fx[j]) == want, i

    def test_one_call_per_step(self):
        # Two steps per call: each call after the first also evaluates both
        # points the next step can place; a last odd step takes one point.
        calls = []

        def f(v):
            calls.append(np.shape(v))
            return -v * v

        golden_max(f, np.zeros(3), np.ones(3), np.array([5, 2, 0]))
        assert calls == [(2, 3), (3, 3), (3, 3), (3,)]

    def test_every_point_lies_in_its_bracket(self):
        rng = np.random.default_rng(8)
        n = 30
        a = rng.uniform(-3.0, 3.0, n)
        b = a + 10.0 ** rng.uniform(-12.0, 1.0, n)
        t = rng.uniform(-3.0, 4.0, n)
        iters = rng.choice([0, 1, 4, 61], n)
        seen = []

        def f(v):
            seen.append(np.array(v))
            return -np.abs(v - t)

        golden_max(f, a, b, iters)
        for v in seen:
            assert ((a <= v) & (v <= b)).all()


class TestBracketFeasibility:
    def test_infeasible_bracket_end_raises_like_the_scalar_rule(self):
        g = GameInstance(1.0, 2.0, 0.5, 0.5)
        with pytest.raises(InfeasibleTransferError):
            post_transfer_params(g, Transfer(0.0, 1.5))
        with pytest.raises(InfeasibleTransferError):
            refine_transfers(GameArrays.of([g, g]), False, [0.0, 0.0], [0.5, 1.5], 10)

    def test_relative_floor_passes(self):
        # phi2 lies below EPS_FEAS: the scalar rule's relative floor admits
        # transfers that keep it above half its value.
        g = GameInstance(1.0, 1e-13, 1.0, 1.0)
        post_transfer_params(g, Transfer(0.0, -0.5e-13))
        v, _ = refine_transfers(GameArrays.of([g]), False, [-0.5e-13], [0.5], 5)
        assert -0.5e-13 <= v[0] <= 0.5


class TestGridMaxCollective:
    @pytest.mark.parametrize("mech", [Mechanism.CONTEST, Mechanism.BUDGET])
    def test_diamond(self, diamond, mech):
        assert grid_max_collective(diamond, mech) == pytest.approx(16.5, abs=1e-6)

    def test_poor_players_joint(self):
        g = GameInstance(12, 10, 0.2, 0.3)
        assert grid_max_collective(g, Mechanism.JOINT) == pytest.approx(5.5, abs=1e-6)


class TestFixtures:
    def test_fixtures_present_and_consistent(self, golden_oracle):
        assert "diamond" in golden_oracle
        rec = golden_oracle["diamond"]
        assert rec["mutual_exists"]["contest"]["exists"] is True
        assert rec["mutual_exists"]["budget"]["witness"]["tau"] < 0

    def test_analytic_reproduces_fixtures(self, golden_oracle):
        from coalitional_lotto.mutual import (
            budget_mutual_exists,
            contest_mutual_exists,
            joint_mutual_exists,
        )

        checks = {
            "budget": budget_mutual_exists,
            "contest": contest_mutual_exists,
            "joint": joint_mutual_exists,
        }
        for name, rec in golden_oracle.items():
            g = GameInstance(**rec["game"])
            xa = best_response(g)
            if abs(xa.xa1 - rec["best_response_xa1"]) > 1e-6:
                # indifference plateau: any split is optimal, so compare the
                # adversary objective instead of the argmax
                v_closed = adversary_value(g, xa.xa1, xa.xa2)
                v_grid = adversary_value(g, rec["best_response_xa1"], 1 - rec["best_response_xa1"])
                assert abs(v_closed - v_grid) < 1e-9, name
            for mech, fn in checks.items():
                assert fn(g).exists == rec["mutual_exists"][mech]["exists"], (name, mech)

    def test_refinement_convergence_on_golden_set(self, golden_oracle):
        # doubling the grid resolution moves each reported optimum by < 1e-7
        # relative
        for name, rec in golden_oracle.items():
            for mech in ("budget", "contest", "joint"):
                base = rec["max_collective"][mech]
                double = rec["max_collective_double_res"][mech]
                assert abs(double - base) <= 1e-7 * abs(base), (name, mech)

    def test_fixture_script_runs_from_a_checkout(self, tmp_path):
        # The script puts its checkout's src/ on the import path itself.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        done = subprocess.run(
            [sys.executable, str(SCRIPT), "--help"],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr

    def test_fixture_script_reproduces_committed_file(self):
        # Rebuilding every record with the fixture script gives the committed
        # file byte for byte, which pins the oracle bit for bit.
        spec = importlib.util.spec_from_file_location("make_golden_fixtures", SCRIPT)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        fixtures = script.oracle_records(script.GOLDEN_GAMES)
        text = json.dumps(fixtures, indent=2, sort_keys=True) + "\n"
        assert text == (DATA_DIR / "golden_oracle.json").read_text()
