"""Per-game analysis report and deterministic JSON serialization."""

from __future__ import annotations

from dataclasses import dataclass

from .adversary import best_response, classify_case, player_payoffs
from .collective import CollectiveReport, collective_report
from .core import GameInstance
from .mutual import (
    MutualBenefitVerdict,
    budget_mutual_exists,
    classify_region,
    contest_mutual_exists,
    joint_mutual_exists,
)

__all__ = ["AnalysisReport", "analyze_game", "to_json"]


@dataclass(frozen=True)
class AnalysisReport:
    """Everything the CLI reports for one game."""

    game: GameInstance
    case: str
    region: str
    xa: tuple[float, float]
    u1: float
    u2: float
    mutual_budget: MutualBenefitVerdict
    mutual_contest: MutualBenefitVerdict
    mutual_joint: MutualBenefitVerdict
    collective: CollectiveReport
    case4_tiebreak_dependent: bool

    def as_dict(self) -> dict:
        return {
            "game": self.game.as_dict(),
            "case": self.case,
            "region": self.region,
            "xa": list(self.xa),
            "u1": self.u1,
            "u2": self.u2,
            "collective_baseline": self.u1 + self.u2,
            "mutual": {
                "budget": self.mutual_budget.as_dict(),
                "contest": self.mutual_contest.as_dict(),
                "joint": self.mutual_joint.as_dict(),
            },
            "collective": self.collective.as_dict(),
            "case4_tiebreak_dependent": self.case4_tiebreak_dependent,
        }


def analyze_game(g: GameInstance) -> AnalysisReport:
    """Classify a game and evaluate every transfer-benefit question."""
    label = classify_case(g)
    xa = best_response(g)
    u1, u2 = player_payoffs(g)
    # Case-4 games: the adversary is indifferent among splits, so individual
    # payoffs (and with them the mutual verdicts) depend on the canonical
    # proportional tie-break; reports carry a flag.
    return AnalysisReport(
        game=g,
        case=str(label),
        region=classify_region(g).value,
        xa=(xa.xa1, xa.xa2),
        u1=u1,
        u2=u2,
        mutual_budget=budget_mutual_exists(g),
        mutual_contest=contest_mutual_exists(g),
        mutual_joint=joint_mutual_exists(g),
        collective=collective_report(g),
        case4_tiebreak_dependent=label.index == 4,
    )


# The ``.12g`` spellings that JSON and the CSV files spell otherwise.  "-0"
# is normalized so identical analyses serialize identically.
_SPECIAL_FLOATS = {"nan": "NaN", "inf": '"Infinity"', "-inf": '"-Infinity"', "-0": "0"}


def format_float(x: float) -> str:
    """Floats rounded to 12 significant digits at serialization time."""
    s = f"{x:.12g}"
    return _SPECIAL_FLOATS.get(s, s)


def _json_str(s: str) -> str:
    escaped = s.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def _json_dict(d: dict, indent: int) -> str:
    if not d:
        return "{}"
    inner = " " * (indent + 2)
    items = [f'{inner}"{k}": {to_json(v, indent + 2)}' for k, v in d.items()]
    return "{\n" + ",\n".join(items) + "\n" + " " * indent + "}"


def _json_list(seq, indent: int) -> str:
    if not seq:
        return "[]"
    inner = " " * (indent + 2)
    items = [f"{inner}{to_json(v, indent + 2)}" for v in seq]
    return "[\n" + ",\n".join(items) + "\n" + " " * indent + "]"


# Writers by exact type: a scalar's takes the value, a container's the value
# and its indent.  Any other type takes the writer of the first type here,
# scalars first, that it is an instance of, so ``numpy.float64`` is written
# as a float and a ``str`` enum as a string.
_JSON_SCALARS = {
    type(None): lambda obj: "null",
    bool: lambda obj: "true" if obj else "false",
    str: _json_str,
    int: str,
    float: format_float,
}
_JSON_CONTAINERS = {dict: _json_dict, list: _json_list, tuple: _json_list}


def to_json(obj, indent: int = 0) -> str:
    """Deterministic JSON: insertion-ordered keys, 12-significant-digit floats.

    The standard encoder prints shortest-roundtrip floats, which leaks
    platform-independent but noisy digits into reports; this writer keeps
    output byte-stable under refactoring of internal arithmetic order only
    when values agree to 12 digits, which is the published precision.
    """
    kind = type(obj)
    write = _JSON_SCALARS.get(kind)
    if write is not None:
        return write(obj)
    nest = _JSON_CONTAINERS.get(kind)
    if nest is not None:
        return nest(obj, indent)
    for base, write in _JSON_SCALARS.items():
        if isinstance(obj, base):
            return write(obj)
    for base, nest in _JSON_CONTAINERS.items():
        if isinstance(obj, base):
            return nest(obj, indent)
    raise TypeError(f"cannot serialize {type(obj)!r}")
