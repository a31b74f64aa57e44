import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from coalitional_lotto import batch, families, mutual_arrays, oracle, search, sweep
from coalitional_lotto.adversary import adversary_value, best_response
from coalitional_lotto.batch import GameArrays
from coalitional_lotto.core import (
    GameInstance,
    InfeasibleTransferError,
    Transfer,
    post_transfer_params,
)
from coalitional_lotto.mutual import Mechanism, MutualBenefitVerdict, is_mutually_beneficial
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
    RidgeScan,
    line_ends,
    min_gain,
    refine_transfers,
    ridge_gap,
    sliver,
    thin_margin,
    zoom_max,
    zoom_rounds,
)
from coalitional_lotto.sweep import run_verify, sample_games

from conftest import DATA_DIR

SCRIPT = Path(__file__).parent.parent / "scripts" / "make_golden_fixtures.py"
WORKLOADS = Path(__file__).parent.parent / "perfbench" / "workloads.py"

# The budget search of this game refines onto the ridge and has to search the
# side intervals next to the ridge sliver (``search.off_ridge_best``).
OFF_RIDGE_GAME = GameInstance(
    39.17790139866747, 0.7725122295917143, 6.406092369515996, 0.12631544973346337
)


def batching_corpus() -> list[GameInstance]:
    """Box, log-uniform and near-ridge games, then ``OFF_RIDGE_GAME``.

    The box games are ``sample_games(6, 31)``; the rest come from a second
    ``SplitMix64(31)``.
    """
    rng = SplitMix64(31)
    games = sample_games(6, seed=31)
    games += [families.log_box(rng, ((1e-2, 1e2), (1e-2, 1e2))) for _ in range(6)]
    # Relative ratio gaps on and around the 1e-6 ridge tolerance.
    games += [families.at_gap(rng, gap) for gap in (0.0, 1e-6, -2.5e-6, 1e-5, -1e-3, 3e-6)]
    return games + [OFF_RIDGE_GAME]


def plain_zoom_max(f, a: float, b: float, rounds: int) -> tuple[float, float]:
    """One bracket's zoom, a point at a time: (argmax, max)."""
    arg, best = a, -math.inf
    for _ in range(rounds):
        cuts = [a] + [a + (b - a) * (j / 8) for j in range(1, 8)] + [b]
        k, top = 1, -math.inf
        for j in range(1, 8):
            value = f(cuts[j])
            if value > top:
                k, top = j, value
            if value > best:
                arg, best = cuts[j], value
        a, b = cuts[k - 1], cuts[k + 1]
    return arg, best


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
        for g in sample_games(40, seed=19):
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

    def test_witnesses_lie_outside_the_sliver(self):
        # The near-ridge games of the batching corpus, then seeded games
        # whose own ratio gap is 2.05e-6 to 5e-6, just outside the sliver,
        # on both sides: every witness keeps outside it and benefits both.
        games = batching_corpus()[12:]
        rng = SplitMix64(29)
        for i in range(100):
            gap = rng.uniform(2.05e-6, 5e-6) * (1 if i % 2 else -1)
            games.append(families.at_gap(rng, gap))
        witnesses = 0
        for mech in (Mechanism.BUDGET, Mechanism.CONTEST):
            for g, v in zip(games, grid_mutual_searches(games, mech)):
                if v.witness is None:
                    continue
                witnesses += 1
                amount = v.witness.tau if mech is Mechanism.BUDGET else v.witness.nu
                assert ridge_gap(g, mech, amount) > 2 * RIDGE_RTOL, (g, mech)
                assert is_mutually_beneficial(g, v.witness), (g, mech)
        assert witnesses >= 10

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
            np.array([np.nan, 1.0, 2.0, 1.0]),  # NaN at the first point
            np.array([1.0, 2.0, 1.0, np.nan]),  # NaN at the last point
            np.array([np.nan, 3.0, np.nan, 2.0, 2.0, np.nan]),  # NaN at both ends and inside
            np.array([np.nan, 1.0, np.nan]),
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
        others = sample_games(3, seed=5)
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
        others = sample_games(3, seed=5)
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

    def test_verify_command_calls_the_objective_once_per_round(self, monkeypatch):
        calls = []

        def counted(f, *args):
            def wrapped(v):
                calls.append(np.shape(v))
                return f(v)

            return zoom_max(wrapped, *args)

        monkeypatch.setattr(oracle, "zoom_max", counted)
        monkeypatch.setattr(search, "zoom_max", counted)
        run_verify(25, 7)
        assert len(calls) == zoom_rounds(DEFAULT_GRID_1D.resolution) == 21
        assert {shape[0] for shape in calls} == {7}

    def test_verify_command_scores_its_analytic_flags_once(self, monkeypatch):
        # ``line_flags`` scores the pieces on and off the ridge sliver in one
        # call, for every game of the command.
        calls = []

        def counted(lines, *args):
            calls.append(len(lines.left))
            return scores(lines, *args)

        scores = mutual_arrays._scores
        monkeypatch.setattr(mutual_arrays, "_scores", counted)
        run_verify(25, 7)
        assert len(calls) == 1 and calls[0] > 0

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


class TestZoomMax:
    @staticmethod
    def brackets(seed: int, n: int):
        """Brackets with widths log-uniform from 1e-12 to 3."""
        rng = np.random.default_rng(seed)
        a = rng.uniform(-2.0, 1.0, n)
        return rng, a, a + 10.0 ** rng.uniform(-12.0, math.log10(3.0), n)

    def test_matches_plain_zoom_bit_for_bit(self):
        rng, a, b = self.brackets(3, 40)
        # Two roots per row inside or near its bracket, so rows are not
        # unimodal and each may keep either side.
        t = a + (b - a) * rng.uniform(-0.2, 1.2, 40)
        s = a + (b - a) * rng.uniform(-0.2, 1.2, 40)

        def row(i):
            return lambda x: 0.5 * (b[i] - a[i]) * x - abs((x - t[i]) * (x - s[i]))

        for rounds in (0, 1, 2, 21, 23):
            x, fx = zoom_max(lambda v: 0.5 * (b - a) * v - np.abs((v - t) * (v - s)), a, b, rounds)
            for i in range(40):
                want = plain_zoom_max(row(i), float(a[i]), float(b[i]), rounds)
                assert (x[i], fx[i]) == want, (i, rounds)

    def test_one_call_of_seven_points_per_round(self):
        for rounds in (0, 1, 21):
            calls = []

            def f(v):
                calls.append(np.shape(v))
                return -v * v

            zoom_max(f, np.zeros(3), np.ones(3), rounds)
            assert calls == [(7, 3)] * rounds

    def test_rounds_follow_the_resolution(self):
        assert [zoom_rounds(n) for n in (4001, 8001, 401, 801, 3)] == [21, 21, 23, 22, 26]
        for n in (3, 401, 4001, 8001):
            r = zoom_rounds(n)
            assert 4**r >= 2**52 * 2 / (n - 1) > 4 ** (r - 1)

    def test_every_point_lies_in_its_bracket(self):
        rng, a, b = self.brackets(8, 30)
        t = a + (b - a) * rng.uniform(-0.5, 1.5, 30)
        # Brackets a few floats wide, where the eighths round onto each other.
        a = np.append(a, [1.0, -1e-300, 0.0])
        b = np.append(b, [np.nextafter(1.0, 2.0), np.nextafter(-1e-300, 0.0), 5e-324])
        t = np.append(t, [2.0, 0.0, 1.0])
        seen = []

        def f(v):
            seen.append(np.array(v))
            return -np.abs(v - t)

        x, _ = zoom_max(f, a, b, 21)
        lo, hi = a, b
        for v in seen:
            assert ((lo <= v) & (v <= hi)).all()
            # The next bracket: the best point's neighbours, or the ends.
            k = np.argmax(-np.abs(v - t), axis=0)
            cuts = np.vstack((lo, v, hi))
            lo, hi = cuts[k, np.arange(len(a))], cuts[k + 2, np.arange(len(a))]
        assert ((a <= x) & (x <= b)).all()

    def test_nan_is_never_a_maximum(self):
        # Row 0 is NaN everywhere; row 1 is NaN left of 0.6 and falls from
        # there; row 2 is NaN at every other point of a rising line.
        def row(i):
            def f(x):
                if i == 0 or (i == 1 and x < 0.6):
                    return math.nan
                if i == 2 and round(x * 8) % 2 == 0:
                    return math.nan
                return -x if i == 1 else x

            return f

        def f(v):
            return np.stack([np.vectorize(row(i))(v[..., i]) for i in range(3)], axis=-1)

        for rounds in (3, 1):
            x, fx = zoom_max(f, np.zeros(3), np.ones(3), rounds)
            for i in range(3):
                assert (x[i], fx[i]) == plain_zoom_max(row(i), 0.0, 1.0, rounds)
        # After one round: no value, then the best points that are not NaN.
        assert (x[0], fx[0]) == (0.0, -np.inf)
        assert (x[1], fx[1]) == (0.625, -0.625)
        assert (x[2], fx[2]) == (0.875, 0.875)

    def test_finishers_keep_the_scan_point_when_every_point_is_nan(self):
        games = batching_corpus()[:4]
        spec = DEFAULT_GRID_1D

        def nan(v):
            return np.full(np.shape(v), np.nan)

        scan = oracle._best_response_scan(games, spec)
        responses = oracle._refine(spec, scan._replace(objective=nan))[0]
        xs = np.linspace(0.0, 1.0, spec.resolution)
        for g, response in zip(games, responses):
            values = oracle._adv_value_vec(g, xs, 1.0 - xs)
            assert response.xa1 == xs[np.argmax(values)]
        scan = oracle._line_scan(games, None, (Mechanism.CONTEST,), spec)
        maxima = oracle._refine(spec, scan._replace(objective=nan))[0].maxima[Mechanism.CONTEST]
        for g, best in zip(games, maxima):
            vs = np.linspace(*line_ends(g, Mechanism.CONTEST), spec.resolution)
            assert best == batch.collective_at_transfers(g, 0.0, vs).max()

    def test_ties_go_to_the_first_point(self):
        # A constant row: the first point of the first round.  A plateau
        # from 0.3: its first point of the first round that reaches it.
        def f(v):
            return np.stack([np.full(v.shape[:-1], 2.0), np.minimum(v[..., 1], 0.3)], axis=-1)

        x, fx = zoom_max(f, np.zeros(2), np.ones(2), 21)
        assert (x[0], fx[0]) == (0.125, 2.0)
        assert (x[1], fx[1]) == (0.375, 0.3)


def _masked_best(g, mechanism, vs, score):
    """The best beneficial scan point outside the sliver, by boolean masks."""
    lo, hi = sliver(g, mechanism)
    beneficial = np.flatnonzero(score > min_gain(g))
    v = vs[beneficial]
    off = beneficial[~((lo < v) & (v < hi))]
    if not off.size:
        return None
    k = off[np.argmax(score[off])]
    return float(vs[k]), float(score[k])


class TestScanGrid:
    """Each scan's grid is ``np.linspace``'s, bit for bit."""

    @staticmethod
    def verify_games(monkeypatch) -> list[GameInstance]:
        """The games of perfbench's verify commands at seeds 1 to 5."""
        spec = importlib.util.spec_from_file_location("workloads", WORKLOADS)
        workloads = importlib.util.module_from_spec(spec)
        # Its dataclasses look their module up while it loads.
        monkeypatch.setitem(sys.modules, spec.name, workloads)
        spec.loader.exec_module(workloads)
        games = []
        for seed in range(1, 6):
            verify = workloads.Verify(seed, Path("."))
            for command in verify.corpus():
                games += sample_games(verify.count, command)
        return games

    def test_line_grids_match_linspace(self, monkeypatch):
        games = self.verify_games(monkeypatch)
        assert len(games) == 750
        ramp = np.arange(4001.0)
        for g in games:
            for mechanism in (Mechanism.BUDGET, Mechanism.CONTEST):
                lo, hi = line_ends(g, mechanism)
                grid = oracle._grid(lo, hi, ramp)
                assert grid.tobytes() == np.linspace(lo, hi, 4001).tobytes(), (g, mechanism)

    def test_best_response_and_joint_grids_match_linspace(self):
        for n in (4001, 401, 3):
            want = np.linspace(0.0, 1.0, n)
            assert oracle._grid(0.0, 1.0, np.arange(float(n))).tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "lo,hi",
        [(0.0, 5e-324), (-1e-321, 1e-321), (2.0, 2.0), (0.0, 1e-310), (-3e-308, 1e-310)],
    )
    def test_zero_and_subnormal_steps_match_linspace(self, lo, hi):
        # The first three spans are below 4000 times the smallest float, so
        # the step rounds to 0 and numpy takes its other branch.
        ramp = np.arange(4001.0)
        assert (((hi - lo) / 4000) == 0.0) == (hi - lo < 1e-320)
        assert oracle._grid(lo, hi, ramp).tobytes() == np.linspace(lo, hi, 4001).tobytes()


def _ridge_best(g, mechanism, vs, score):
    """``RidgeScan.of(...).best``, the same with and without the scan's first maximum."""
    runs = RidgeScan.of(g, mechanism, vs, score)
    first = RidgeScan.of(g, mechanism, vs, score, first=int(np.argmax(score)))
    assert first == runs, (first, runs)
    return runs.best


class TestRidgeScan:
    """``RidgeScan.of`` finds the best point off the sliver as boolean masks do,
    whether it takes the scan's first maximum or searches run by run."""

    @staticmethod
    def around_sliver(g, mechanism):
        """101 points from one sliver width below the sliver to one above."""
        lo, hi = sliver(g, mechanism)
        return np.linspace(lo - (hi - lo), hi + (hi - lo), 101)

    def scores(self, vs, g, mechanism):
        """Scores with ties, with NaN, beneficial only inside the sliver, and none."""
        lo, hi = sliver(g, mechanism)
        inside = (lo < vs) & (vs < hi)
        gain = min_gain(g)
        rng = np.random.default_rng(4)
        noisy = rng.choice([-1.0, 0.5, 2.0, 2.0, np.nan], len(vs)) * gain
        yield noisy
        yield np.where(inside, 3.0 * gain, noisy)
        yield np.where(inside, 3.0 * gain, -gain)
        yield np.full(len(vs), 2.0 * gain)
        yield np.full(len(vs), np.nan)
        yield np.where(rng.random(len(vs)) < 0.5, np.nan, 2.0 * gain)
        # Ties across the sliver, the first inside it, and the first outside it.
        yield np.where(inside | (vs > hi), 2.0 * gain, gain)
        yield np.where(inside | (vs < lo), 2.0 * gain, -gain)

    @pytest.mark.parametrize("mechanism", [Mechanism.BUDGET, Mechanism.CONTEST])
    def test_matches_masks(self, mechanism):
        checked = 0
        for g in batching_corpus():
            vs = self.around_sliver(g, mechanism)
            lo, hi = sliver(g, mechanism)
            if not lo < hi:
                continue
            for score in self.scores(vs, g, mechanism):
                assert _ridge_best(g, mechanism, vs, score) == _masked_best(
                    g, mechanism, vs, score
                )
                checked += 1
        assert checked >= 60

    @pytest.mark.parametrize("ends", [(math.nan, 1.0), (0.0, math.nan), (0.5, -0.5)])
    def test_sliver_without_a_float_leaves_the_whole_scan(self, monkeypatch, ends):
        monkeypatch.setattr(search, "sliver", lambda g, mechanism: ends)
        g = OFF_RIDGE_GAME
        vs = np.linspace(-1.0, 1.0, 11)
        score = np.arange(11.0)
        assert _ridge_best(g, Mechanism.BUDGET, vs, score) == (1.0, 10.0)
        score[[2, 9]] = np.nan
        assert _ridge_best(g, Mechanism.BUDGET, vs, score) == (1.0, 10.0)
        assert _ridge_best(g, Mechanism.BUDGET, vs, np.full(11, np.nan)) is None
        assert _ridge_best(g, Mechanism.BUDGET, vs, -score) is None

    def test_line_scan_matches_masks(self):
        for g in batching_corpus():
            for mechanism in (Mechanism.BUDGET, Mechanism.CONTEST):
                vs = np.linspace(*line_ends(g, mechanism), 4001)
                taus, nus = (vs, 0.0) if mechanism is Mechanism.BUDGET else (0.0, vs)
                base1, base2 = batch.payoffs_at_transfers(g, 0.0, 0.0)
                u1, u2 = batch.payoffs_at_transfers(g, taus, nus)
                score = np.minimum(u1 - base1, u2 - base2)
                want = _masked_best(g, mechanism, vs, score)
                assert _ridge_best(g, mechanism, vs, score) == want


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


def one_call_joint_search(g: GameInstance, baseline, spec: GridSpec) -> MutualBenefitVerdict:
    """The joint mutual search scored in one kernel call over the whole grid."""
    ramp = np.arange(spec.resolution, dtype=float)
    taus = oracle._grid(*line_ends(g, Mechanism.BUDGET), ramp)[:, None]
    nus = oracle._grid(*line_ends(g, Mechanism.CONTEST), ramp)[None, :]
    u1, u2 = batch.payoffs_at_transfers(g, taus, nus)
    score = np.minimum(u1 - baseline[0], u2 - baseline[1])
    i, j = divmod(int(np.argmax(score)), spec.resolution)
    best = float(score[i, j])
    near = thin_margin(g, best)
    if best > min_gain(g):
        witness = Transfer(float(taus[i, 0]), float(nus[0, j]))
        return MutualBenefitVerdict(Mechanism.JOINT, True, witness, "oracle-grid", near)
    return MutualBenefitVerdict(Mechanism.JOINT, False, None, None, near)


def one_call_joint_collectives(games: list[GameInstance], spec: GridSpec) -> list[float]:
    """The joint collective maxima, each grid scored in one kernel call."""
    brackets = []
    ramp = np.arange(spec.resolution, dtype=float)
    for g in games:
        taus = oracle._grid(*line_ends(g, Mechanism.BUDGET), ramp)
        nus = oracle._grid(*line_ends(g, Mechanism.CONTEST), ramp)
        total = batch.collective_at_transfers(g, taus[:, None], nus[None, :])
        i, j = divmod(int(np.argmax(total)), spec.resolution)
        brackets.append((*oracle._bracket(taus, i), *oracle._bracket(nus, j), nus[j], total[i, j]))
    tau_lo, tau_hi, nu_lo, nu_hi, nu, best = np.array(brackets, dtype=float).reshape(-1, 6).T
    arrays = GameArrays.of(games)
    rounds = zoom_rounds(spec.resolution)
    for _ in range(2):
        tau = refine_transfers(arrays, True, tau_lo, tau_hi, rounds, fixed=nu)[0]
        nu, val = refine_transfers(arrays, False, nu_lo, nu_hi, rounds, fixed=tau)
        best = np.where(val > best, val, best)
    return best.tolist()


def joint_games() -> list[GameInstance]:
    """Three box games, three over 24 decades and three over the float range."""
    return (
        sample_games(3, 7)
        + families.games(families.decades(np.random.default_rng(11), -12, 12, 3))
        + families.games(families.float_range(np.random.default_rng(11), 3))
    )


class TestJointScan:
    """Both joint oracles scan each grid once, in blocks of whole rows
    (``oracle._joint_maxima``), and equal a one-call scan bit for bit."""

    @staticmethod
    def assert_one_call_results(games, spec):
        baseline = batch.payoffs_at_transfers(GameArrays.of(games), 0.0, 0.0)
        want = [
            one_call_joint_search(g, (u1, u2), spec)
            for g, u1, u2 in zip(games, baseline[0].tolist(), baseline[1].tolist())
        ]
        # repr spells each float exactly, NaN and -0.0 included.
        assert repr(grid_mutual_searches(games, Mechanism.JOINT, spec)) == repr(want)
        got = grid_max_collectives(games, Mechanism.JOINT, spec)
        assert repr(got) == repr(one_call_joint_collectives(games, spec))

    @pytest.mark.parametrize("resolution", [41, 201, 401, 801])
    def test_blocks_equal_one_call_scans(self, resolution):
        self.assert_one_call_results(joint_games(), GridSpec(resolution))

    def test_one_row_blocks_equal_one_call_scans(self, monkeypatch):
        monkeypatch.setattr(oracle, "SCAN_BLOCK", 1)
        self.assert_one_call_results(joint_games(), GridSpec(41))

    @pytest.mark.parametrize(
        "cells",
        [
            # A tie across blocks goes to the first.
            {(1, 3): 7.0, (3, 0): 7.0},
            {(0, 4): 0.0, (1, 0): -0.0, (2, 2): 0.0},
            # The first NaN wins, wherever the largest value lies.
            {(0, 2): 9.0, (2, 1): math.nan, (4, 4): 10.0},
            {(3, 4): math.nan, (4, 0): math.nan, (4, 2): 5.0},
            {(0, 0): math.nan, (0, 1): 3.0, (1, 1): 3.0},
            {(4, 4): 1.0},
            {},
        ],
    )
    @pytest.mark.parametrize("mutual", [False, True])
    def test_blocks_keep_argmax_rule(self, monkeypatch, cells, mutual):
        n = 5
        table = np.full((n, n), -math.inf if cells else 2.5)
        for at, value in cells.items():
            table[at] = value
        g = sample_games(1, 3)[0]
        taus = oracle._grid(*line_ends(g, Mechanism.BUDGET), np.arange(float(n)))
        row_of = {tau: i for i, tau in enumerate(taus.tolist())}

        # The kernel scores each row of the grid from ``table``: the weak
        # front's payoff is the table, the strong front's adds nothing to
        # the sum and never is the smaller delta.
        def front_payoffs(game, block_taus, nus):
            assert block_taus.shape == (1, 1) and nus.shape == (n,)
            uw = table[row_of[float(block_taus[0, 0])]][None, :].copy()
            us = np.full((1, n), math.inf if mutual else 0.0)
            return np.zeros((1, n), dtype=bool), uw, us

        monkeypatch.setattr(oracle, "SCAN_BLOCK", 1)
        monkeypatch.setattr(batch, "_front_payoffs", front_payoffs)
        baseline = ([0.0], [0.0]) if mutual else None
        [(got_taus, _, i, j, best)] = oracle._joint_maxima([g], GridSpec(n), baseline)
        whole = table if mutual else table + 0.0
        k = int(np.argmax(whole))
        assert got_taus.tobytes() == taus.tobytes()
        assert (i, j) == divmod(k, n)
        assert np.float64(best).tobytes() == whole.flat[k].tobytes()

    @pytest.mark.parametrize("oracle_call", [grid_mutual_searches, grid_max_collectives])
    def test_41_blocks_per_game_and_no_whole_grid_call(self, monkeypatch, oracle_call):
        kernel = batch._front_payoffs
        shapes = []

        def counted(g, taus, nus):
            shapes.append(np.broadcast(taus, nus).shape)
            return kernel(g, taus, nus)

        monkeypatch.setattr(batch, "_front_payoffs", counted)
        games = sample_games(3, 7)
        oracle_call(games, Mechanism.JOINT)
        blocks = [shape for shape in shapes if shape[-1:] == (401,)]
        assert blocks == ([(10, 401)] * 40 + [(1, 401)]) * len(games)
        assert max(math.prod(shape) for shape in shapes) <= oracle.SCAN_BLOCK


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

    @staticmethod
    def fixture_script():
        spec = importlib.util.spec_from_file_location("make_golden_fixtures", SCRIPT)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        return script

    def test_fixture_script_reproduces_committed_file(self):
        # Rebuilding every record with the fixture script gives the committed
        # file byte for byte, which pins the oracle bit for bit.
        script = self.fixture_script()
        fixtures = script.oracle_records(script.GOLDEN_GAMES)
        text = json.dumps(fixtures, indent=2, sort_keys=True) + "\n"
        assert text == (DATA_DIR / "golden_oracle.json").read_text()

    def test_fixture_script_reproduces_committed_verify_csv(self, tmp_path):
        # The script writes verify's pinned CSV through the CLI, as
        # ``TestVerify.test_reproduces_committed_csv`` runs it.
        out = tmp_path / "verify.csv"
        assert self.fixture_script().write_verify_csv(out) == 0
        assert out.read_bytes() == (DATA_DIR / "verify_seed7_count100.csv").read_bytes()
