import importlib.util
import json
import math
from pathlib import Path

import pytest

from coalitional_lotto.adversary import adversary_value, best_response
from coalitional_lotto.core import GameInstance
from coalitional_lotto.mutual import Mechanism, is_mutually_beneficial
from coalitional_lotto.oracle import (
    DEFAULT_GRID_1D,
    GridSpec,
    grid_best_response,
    grid_max_collective,
    grid_mutual_search,
)
from coalitional_lotto.search import RIDGE_RTOL, ridge_gap

from conftest import DATA_DIR, random_games


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
        g = GameInstance(
            39.17790139866747, 0.7725122295917143, 6.406092369515996, 0.12631544973346337
        )
        v = grid_mutual_search(g, Mechanism.BUDGET)
        assert v.exists
        assert ridge_gap(g, Mechanism.BUDGET, v.witness.tau) > 2 * RIDGE_RTOL
        assert is_mutually_beneficial(g, v.witness)


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

    def test_fixture_script_reproduces_committed_file(self):
        # Rebuilding every record with the fixture script gives the committed
        # file byte for byte, which pins the oracle bit for bit.
        path = Path(__file__).parent.parent / "scripts" / "make_golden_fixtures.py"
        spec = importlib.util.spec_from_file_location("make_golden_fixtures", path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        fixtures = {name: script.oracle_record(p) for name, p in script.GOLDEN_GAMES.items()}
        text = json.dumps(fixtures, indent=2, sort_keys=True) + "\n"
        assert text == (DATA_DIR / "golden_oracle.json").read_text()
