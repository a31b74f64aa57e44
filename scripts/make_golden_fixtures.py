#!/usr/bin/env python3
"""Regenerate the committed fixtures: grid-oracle outputs and one-game verdicts.

``golden_oracle.json`` pins oracle outputs (best responses, collective
maxima, mutual existence verdicts) for the golden game set, so the analytic
modules are tested against frozen, independently computed values rather
than against themselves.

``analyze_golden.jsonl``, written beside it, pins the one-game verdicts of
``analyze_game``: for each of 100 seeded games (20 per region R1..R5, of
which 2 lie on the equal-ratio ridge and 3 within 1e-4 of it), the
full-precision ``repr`` of the budget, contest and joint verdicts, so a
change of any witness bit, route or flag shows.

``verify_seed7_count100.csv``, written beside them, is the output of
``coalitional-lotto verify --count 100 --seed 7``, run through ``cli.main``,
which pins the verify command, oracle included, byte for byte.

Usage: python3 scripts/make_golden_fixtures.py [--out tests/data/golden_oracle.json]

It imports the package from the ``src/`` directory of the checkout that
holds it, so it runs from a source checkout without installing.
"""

import argparse
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from coalitional_lotto import cli  # noqa: E402
from coalitional_lotto.analysis import analyze_game  # noqa: E402
from coalitional_lotto.core import GameInstance  # noqa: E402
from coalitional_lotto.families import log_uniform  # noqa: E402
from coalitional_lotto.mutual import Mechanism, classify_region  # noqa: E402
from coalitional_lotto.oracle import (  # noqa: E402
    DEFAULT_GRID_1D,
    DEFAULT_GRID_2D,
    GridSpec,
    grid_best_responses,
    grid_max_collectives,
    grid_mutual_searches,
)

GOLDEN_GAMES = {
    "diamond": (12.0, 10.0, 0.4, 1.6),
    "ridge": (10.0, 10.0, 2.0, 2.0),
    "deep_pockets": (12.0, 10.0, 0.2, 0.3),
    "lopsided": (10.0, 1.0, 0.5, 0.5),
    "nu_only": (12.0, 10.0, 1.2, 2.0),
    "tau_only": (12.0, 10.0, 1.25, 0.75),
    "joint_only": (12.0, 10.0, 0.95, 0.95),
}


def oracle_records(golden: dict) -> dict:
    """The fixture record of each named game, every oracle run over all games."""
    games = [GameInstance(*params) for params in golden.values()]
    default = {mech: DEFAULT_GRID_1D for mech in Mechanism}
    default[Mechanism.JOINT] = DEFAULT_GRID_2D
    doubled = {mech: GridSpec(2 * spec.resolution - 1) for mech, spec in default.items()}
    records = [
        {
            "game": g.as_dict(),
            "best_response_xa1": response.xa1,
            "max_collective": {},
            "max_collective_double_res": {},
            "mutual_exists": {},
        }
        for g, response in zip(games, grid_best_responses(games))
    ]
    for mech in Mechanism:
        maxima = grid_max_collectives(games, mech)
        maxima_double = grid_max_collectives(games, mech, doubled[mech])
        verdicts = grid_mutual_searches(games, mech)
        for rec, best, best_double, verdict in zip(records, maxima, maxima_double, verdicts):
            rec["max_collective"][mech.value] = best
            rec["max_collective_double_res"][mech.value] = best_double
            rec["mutual_exists"][mech.value] = {
                "exists": verdict.exists,
                "witness": verdict.witness.as_dict() if verdict.witness else None,
                "near_boundary": verdict.near_boundary,
            }
    return dict(zip(golden, records))


# Budget ranges of each region, redrawn until the pair lands in the region.
REGION_BUDGETS = {
    "R1": ((1.0, 20.0), (1.0, 20.0)),
    "R2": ((1.0, 20.0), (0.02, 1.0)),
    "R3": ((0.02, 1.0), (1.0, 20.0)),
    "R4": ((0.02, 1.0), (0.02, 1.0)),
    "R5": ((0.02, 1.0), (0.02, 1.0)),
}


def analyze_games(per_region: int = 20, seed: int = 14) -> list[GameInstance]:
    """Seeded games, ``per_region`` in each region; valuations over 1e-2..1e2.

    In each region the first two games lie on the equal-ratio ridge and the
    next three off it by a ratio gap log-uniform over 1e-10..1e-4, on
    either side.
    """
    rng = random.Random(f"analyze-golden:{seed}")
    games = []
    for region, ranges in REGION_BUDGETS.items():
        count = 0
        while count < per_region:
            x1, x2 = (log_uniform(rng, *r) for r in ranges)
            phi1, phi2 = log_uniform(rng, 1e-2, 1e2), log_uniform(rng, 1e-2, 1e2)
            if count < 2:
                phi2 = phi1 * x2 / x1
            elif count < 5:
                gap = log_uniform(rng, 1e-10, 1e-4)
                phi2 = phi1 * x2 / x1 * (1.0 + rng.choice((-gap, gap)))
            g = GameInstance(phi1, phi2, x1, x2)
            if classify_region(g).value == region:
                games.append(g)
                count += 1
    return games


def analyze_records(games: list[GameInstance]) -> list[dict]:
    """Each game's parameters and the ``repr`` of its three verdicts."""
    records = []
    for g in games:
        report = analyze_game(g)
        records.append(
            {
                "game": [g.phi1, g.phi2, g.x1, g.x2],
                "budget": repr(report.mutual_budget),
                "contest": repr(report.mutual_contest),
                "joint": repr(report.mutual_joint),
            }
        )
    return records


VERIFY_ARGS = ["verify", "--count", "100", "--seed", "7"]


def write_verify_csv(out: Path) -> int:
    """Write the pinned verify command's CSV to ``out``; its exit code."""
    return cli.main(VERIFY_ARGS + ["--out", str(out)])


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default="tests/data/golden_oracle.json")
    args = parser.parse_args()
    fixtures = oracle_records(GOLDEN_GAMES)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(fixtures, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out} ({len(fixtures)} games)")
    records = analyze_records(analyze_games())
    out = out.parent / "analyze_golden.jsonl"
    out.write_text("".join(json.dumps(r) + "\n" for r in records))
    print(f"wrote {out} ({len(records)} games)")
    out = out.parent / "verify_seed7_count100.csv"
    code = write_verify_csv(out)
    print(f"wrote {out} (verify exit code {code})")


if __name__ == "__main__":
    main()
