import enum
import json

import numpy as np
import pytest

from coalitional_lotto import adversary, analysis, families, mutual_arrays
from coalitional_lotto.adversary import best_response, classify_case, player_payoffs
from coalitional_lotto.analysis import analyze_game, format_float, to_json
from coalitional_lotto.batch import GameArrays
from coalitional_lotto.collective import collective_report
from coalitional_lotto.core import GameInstance, swap_indices


class TestAnalyzeGame:
    def test_diamond_report(self, diamond):
        rep = analyze_game(diamond)
        assert rep.case == "C2_1le2"
        assert rep.region == "R3"
        assert rep.xa[0] == pytest.approx(0.876356, abs=1e-6)
        assert rep.mutual_budget.exists
        assert rep.mutual_contest.exists
        assert rep.mutual_joint.exists
        assert rep.collective.optimum == pytest.approx(16.5)
        assert rep.collective.improvable
        assert not rep.case4_tiebreak_dependent

    def test_ridge_report(self):
        rep = analyze_game(GameInstance(10, 10, 2, 2))
        assert rep.case == "C4"
        assert not rep.mutual_budget.exists
        assert not rep.mutual_contest.exists
        assert not rep.mutual_joint.exists
        assert not rep.collective.improvable
        assert rep.case4_tiebreak_dependent

    def test_games_at_the_top_of_the_float_range(self):
        # x_i * phi_j overflows here: the optimal transfers are recomputed
        # on scaled parameters instead of coming out NaN.
        g = GameInstance(1e300, 1e300, 1e300, 1e300)
        data = json.loads(to_json(analyze_game(g).as_dict()))
        assert data["collective"]["optimal_budget"] == {"tau": 0, "nu": 0}
        assert data["collective"]["optimal_contest"] == {"tau": 0, "nu": 0}
        for g in families.games(families.decades(np.random.default_rng(3), -300.0, 308.0, 300)):
            json.loads(to_json(analyze_game(g).as_dict()))

    def test_games_at_the_bottom_of_the_float_range(self):
        # The budgets' product underflows to 0 here, and the contest line's
        # ``k = sqrt(x1 * x2)`` is taken from the roots of the budgets.
        analyze_game(GameInstance(1.0, 1.0, 5e-324, 0.3))
        games = families.games(families.decades(np.random.default_rng(11), -323.0, 3.0, 4000))
        reports = [analyze_game(g) for g in games]
        arrays = GameArrays.of(games)
        for exists, verdicts in (
            (mutual_arrays.budget_exists, [r.mutual_budget for r in reports]),
            (mutual_arrays.contest_exists, [r.mutual_contest for r in reports]),
            (mutual_arrays.joint_exists, [r.mutual_joint for r in reports]),
        ):
            assert exists(arrays).tolist() == [v.exists for v in verdicts]

    def test_report_dict_parses_as_json(self, diamond):
        data = json.loads(to_json(analyze_game(diamond).as_dict()))
        assert data["case"] == "C2_1le2"
        assert data["collective"]["optimal_contest"]["nu"] == pytest.approx(7.6)
        assert data["mutual"]["contest"]["exists"] is True
        assert data["collective_baseline"] == pytest.approx(data["u1"] + data["u2"])

    def test_deterministic_serialization(self, diamond):
        a = to_json(analyze_game(diamond).as_dict())
        b = to_json(analyze_game(diamond).as_dict())
        assert a == b


class TestSharedBaseline:
    """``analyze_game`` classifies a game once and shares its baseline and optimum."""

    @staticmethod
    def assert_same(g):
        rep = analyze_game(g)
        xa = best_response(g)
        # ``repr`` tells -0.0 from 0.0 and NaN from NaN.
        assert repr((rep.case, rep.xa, rep.u1, rep.u2, rep.collective)) == repr(
            (str(classify_case(g)), (xa.xa1, xa.xa2), *player_payoffs(g), collective_report(g))
        ), g

    def test_golden_games_and_their_mirrors(self, analyze_golden):
        games = [GameInstance(*rec["game"]) for rec in analyze_golden]
        for g in games + [swap_indices(g) for g in games]:
            self.assert_same(g)

    def test_games_over_the_whole_float_range(self):
        for g in families.games(families.float_range(np.random.default_rng(23), 1000)):
            self.assert_same(g)

    def test_one_case_of_call_outside_the_verdicts(self, monkeypatch, analyze_golden):
        # Every call of the one case rule outside the three verdicts (the
        # line engines, the joint witness and its validation) is counted:
        # ``case_of``, ``respond`` and the payoffs all go through it.
        calls = []
        inside = []
        case_rule, verdicts = adversary.case_rule, analysis.mutual_verdicts

        def counted_case_rule(*args):
            if not inside:
                calls.append(args)
            return case_rule(*args)

        def marked_verdicts(*args):
            inside.append(True)
            try:
                return verdicts(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(adversary, "case_rule", counted_case_rule)
        monkeypatch.setattr(analysis, "mutual_verdicts", marked_verdicts)
        for rec in analyze_golden:
            g = GameInstance(*rec["game"])
            calls.clear()
            analyze_game(g)
            assert calls == [(g.phi1, g.phi2, g.x1, g.x2)], g


class TestJsonWriter:
    def test_twelve_significant_digits(self):
        assert format_float(0.1 + 0.2) == "0.3"
        assert format_float(1 / 3) == "0.333333333333"
        assert format_float(-0.0) == "0"
        assert format_float(16.5) == "16.5"

    def test_structures(self):
        s = to_json({"a": [1, 2.5, None, True], "b": {"c": "x\"y"}})
        assert json.loads(s) == {"a": [1, 2.5, None, True], "b": {"c": 'x"y'}}

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            to_json({"bad": object()})

    def test_cached_spellings_keep_equal_keys_of_other_types_apart(self):
        # A ``str`` enum equals its value but is spelled by its name, and
        # equal numbers are spelled apart; each is written as at first use,
        # whatever was written before it.
        class Kind(str, enum.Enum):
            A = "a"

        texts = [to_json(obj) for obj in ({"a": "a"}, {Kind.A: Kind.A}, {1: 1}, {1.0: 1.0})]
        assert texts == [
            '{\n  "a": "a"\n}',
            '{\n  "Kind.A": "a"\n}',
            '{\n  "1": 1\n}',
            '{\n  "1.0": 1\n}',
        ]
        assert [to_json(obj) for obj in ({Kind.A: 1}, {"a": 1})] == [
            '{\n  "Kind.A": 1\n}',
            '{\n  "a": 1\n}',
        ]


class TestOutputGolden:
    """Exact bytes of the float and JSON writers, special values included."""

    @pytest.mark.parametrize(
        "x,text",
        [
            (float("nan"), "NaN"),
            (-float("nan"), "NaN"),
            (float("inf"), '"Infinity"'),
            (float("-inf"), '"-Infinity"'),
            (0.0, "0"),
            (-0.0, "0"),
            (5e-324, "4.94065645841e-324"),
            (1e-13, "1e-13"),
            (-1e-13, "-1e-13"),
            (0.1 + 0.2, "0.3"),
            (1e16, "1e+16"),
            (123456789012.5, "123456789012"),
        ],
    )
    def test_format_float(self, x, text):
        assert format_float(x) == text
        assert format_float(np.float64(x)) == text

    @pytest.mark.parametrize(
        "obj,text",
        [
            ({}, "{}"),
            ([], "[]"),
            ((), "[]"),
            (None, "null"),
            (True, "true"),
            (False, "false"),
            (0, "0"),
            (-7, "-7"),
            (np.float64(0.1 + 0.2), "0.3"),
            (np.float64(-0.0), "0"),
            (np.float64("nan"), "NaN"),
            ('say "hi"', '"say \\"hi\\""'),
            ("back\\slash", '"back\\\\slash"'),
            ((1, 2.5), "[\n  1,\n  2.5\n]"),
        ],
    )
    def test_to_json_scalars_and_flat(self, obj, text):
        assert to_json(obj) == text

    def test_to_json_nested(self):
        obj = {"a": [1, {"b": None, "c": (True, -0.0)}], "d": {}, "e": [], "f": "x"}
        assert to_json(obj) == (
            "{\n"
            '  "a": [\n'
            "    1,\n"
            "    {\n"
            '      "b": null,\n'
            '      "c": [\n'
            "        true,\n"
            "        0\n"
            "      ]\n"
            "    }\n"
            "  ],\n"
            '  "d": {},\n'
            '  "e": [],\n'
            '  "f": "x"\n'
            "}"
        )
        assert to_json([1], indent=2) == "[\n    1\n  ]"

    def test_to_json_special_floats_and_kinds_in_structures(self):
        class Kind(str, enum.Enum):
            BUDGET = 'bud"get'

        obj = {
            "floats": [float("nan"), float("inf"), float("-inf"), -0.0, np.float64(-0.0)],
            "numpy": {"x": np.float64(1.0 / 3.0), "inf": np.float64("inf")},
            "kind": Kind.BUDGET,
            "empty": [{}, [], ()],
            "pair": (0.5, {"deep": [[{}]]}),
        }
        assert to_json(obj) == (
            "{\n"
            '  "floats": [\n'
            "    NaN,\n"
            '    "Infinity",\n'
            '    "-Infinity",\n'
            "    0,\n"
            "    0\n"
            "  ],\n"
            '  "numpy": {\n'
            '    "x": 0.333333333333,\n'
            '    "inf": "Infinity"\n'
            "  },\n"
            '  "kind": "bud\\"get",\n'
            '  "empty": [\n'
            "    {},\n"
            "    [],\n"
            "    []\n"
            "  ],\n"
            '  "pair": [\n'
            "    0.5,\n"
            "    {\n"
            '      "deep": [\n'
            "        [\n"
            "          {}\n"
            "        ]\n"
            "      ]\n"
            "    }\n"
            "  ]\n"
            "}"
        )
        assert to_json(Kind.BUDGET) == '"bud\\"get"'
        assert to_json({"a": {}}, indent=4) == '{\n      "a": {}\n    }'

    def test_to_json_subclasses(self):
        class Text(str):
            pass

        class Count(int):
            pass

        text = to_json([Text('q"'), Count(3), np.float64(16.5)])
        assert text == '[\n  "q\\"",\n  3,\n  16.5\n]'
        with pytest.raises(TypeError):
            to_json(np.bool_(True))
