"""Per-game analysis report and deterministic JSON serialization."""

from __future__ import annotations

from dataclasses import dataclass

from .adversary import respond
from .collective import CollectiveReport, max_collective_payoff
from .core import GameInstance
from .mutual import MutualBenefitVerdict, classify_region, mutual_verdicts

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
    """Classify a game and evaluate every transfer-benefit question.

    The game is classified once (``adversary.respond``), for its case, the
    adversary's split and the baseline payoffs; the collective optimum is
    computed once, for the verdicts' surplus test and the collective report.
    """
    label, xa, baseline = respond(g)
    optimum = max_collective_payoff(g)
    budget, contest, joint = mutual_verdicts(g, baseline, optimum)
    u1, u2 = baseline
    # Case-4 games: the adversary is indifferent among splits, so individual
    # payoffs (and with them the mutual verdicts) depend on the canonical
    # proportional tie-break; reports carry a flag.
    return AnalysisReport(
        game=g,
        case=str(label),
        region=classify_region(g).value,
        xa=xa,
        u1=u1,
        u2=u2,
        mutual_budget=budget,
        mutual_contest=contest,
        mutual_joint=joint,
        collective=CollectiveReport.of(g, u1 + u2, optimum),
        case4_tiebreak_dependent=label.index == 4,
    )


# The ``.12g`` spellings that JSON and the CSV files spell otherwise.  "-0"
# is normalized so identical analyses serialize identically.
_SPECIAL_FLOATS = {"nan": "NaN", "inf": '"Infinity"', "-inf": '"-Infinity"', "-0": "0"}


def format_float(x: float) -> str:
    """Floats rounded to 12 significant digits at serialization time."""
    s = f"{x:.12g}"
    return _SPECIAL_FLOATS.get(s, s)


# Spellings made once and kept, each table up to ``_CACHE_MAX`` entries:
# reports repeat a few dozen keys and strings.  Only ``str`` itself is kept,
# since keys and values of other types may be equal and spelled apart
# (``1``, ``1.0``, ``True``, or a ``str`` enum and its value).
_CACHE_MAX = 1024
_STRINGS: dict[str, str] = {}
# The head ``,\n<pad>"<key>": `` of a dict entry, by indent and key.
_HEADS: dict[int, dict[str, str]] = {}


def _json_str(s: str) -> str:
    text = _STRINGS.get(s) if type(s) is str else None
    if text is None:
        escaped = s.replace("\\", "\\\\").replace('"', '\\"')
        text = f'"{escaped}"'
        if type(s) is str and len(_STRINGS) < _CACHE_MAX:
            _STRINGS[s] = text
    return text


# Writers of the JSON scalars by exact type.  A value of any other type is
# written as the first JSON kind in ``_JSON_KINDS``, scalars first, that it
# is an instance of, so ``numpy.float64`` is written as a float and a
# ``str`` enum as a string.
_JSON_SCALARS = {
    type(None): lambda obj: "null",
    bool: lambda obj: "true" if obj else "false",
    str: _json_str,
    int: str,
    float: format_float,
}
_JSON_KINDS = (*_JSON_SCALARS, dict, list, tuple)


def _write_json(out: list, obj, indent: int) -> None:
    """Append the JSON of ``obj`` to ``out``.

    A container writes the scalars it holds in its own loop, a dict's
    floats without a call, and recurses only into the containers it holds.
    """
    kind = type(obj)
    write = _JSON_SCALARS.get(kind)
    if write is None and kind is not dict and kind is not list and kind is not tuple:
        kind = next((base for base in _JSON_KINDS if isinstance(obj, base)), None)
        if kind is None:
            raise TypeError(f"cannot serialize {type(obj)!r}")
        write = _JSON_SCALARS.get(kind)
    if write is not None:
        out.append(write(obj))
    elif kind is dict:
        _write_dict(out, obj, indent)
    elif not obj:
        out.append("[]")
    else:
        pad = "\n" + " " * (indent + 2)
        sep = "[" + pad
        for value in obj:
            leaf = type(value)
            if leaf in _JSON_SCALARS:
                out.append(sep + _JSON_SCALARS[leaf](value))
            else:
                out.append(sep)
                _write_json(out, value, indent + 2)
            sep = "," + pad
        out.append("\n" + " " * indent + "]")


def _write_dict(out: list, obj: dict, indent: int) -> None:
    """Append the JSON of a dict to ``out``: each entry after its cached head.

    Every entry's head starts with a comma; the first one's is dropped
    once, at the end.
    """
    if not obj:
        out.append("{}")
        return
    heads = _HEADS.get(indent)
    if heads is None:
        heads = _HEADS[indent] = {}
    first = len(out)
    for key, value in obj.items():
        head = heads.get(key) if type(key) is str else None
        if head is None:
            head = f',\n{" " * (indent + 2)}"{key}": '
            if type(key) is str and len(heads) < _CACHE_MAX:
                heads[key] = head
        leaf = type(value)
        if leaf is float:
            text = f"{value:.12g}"
            out.append(head + _SPECIAL_FLOATS.get(text, text))
        elif leaf in _JSON_SCALARS:
            out.append(head + _JSON_SCALARS[leaf](value))
        elif leaf is dict:
            out.append(head)
            _write_dict(out, value, indent + 2)
        else:
            out.append(head)
            _write_json(out, value, indent + 2)
    out[first] = "{" + out[first][1:]
    out.append("\n" + " " * indent + "}")


def to_json(obj, indent: int = 0) -> str:
    """Deterministic JSON: insertion-ordered keys, 12-significant-digit floats.

    The standard encoder prints shortest-roundtrip floats, which leaks
    platform-independent but noisy digits into reports; this writer keeps
    output byte-stable under refactoring of internal arithmetic order only
    when values agree to 12 digits, which is the published precision.  The
    whole document is appended to one list and joined once.
    """
    out: list[str] = []
    _write_json(out, obj, indent)
    return "".join(out)
