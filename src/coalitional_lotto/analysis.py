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


def format_float(x: float) -> str:
    """Floats rounded to 12 significant digits at serialization time."""
    if x != x:
        return "NaN"
    if x in (float("inf"), float("-inf")):
        return '"Infinity"' if x > 0 else '"-Infinity"'
    s = f"{x:.12g}"
    # Normalize "-0" so identical analyses serialize identically.
    return "0" if s == "-0" else s


def to_json(obj, indent: int = 0) -> str:
    """Deterministic JSON: insertion-ordered keys, 12-significant-digit floats.

    The standard encoder prints shortest-roundtrip floats, which leaks
    platform-independent but noisy digits into reports; this writer keeps
    output byte-stable under refactoring of internal arithmetic order only
    when values agree to 12 digits, which is the published precision.
    """
    pad = " " * indent
    inner = " " * (indent + 2)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        escaped = obj.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{inner}"{k}": {to_json(v, indent + 2)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{inner}{to_json(v, indent + 2)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(obj)!r}")
