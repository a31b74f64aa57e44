#!/usr/bin/env python3
"""Regenerate the committed grid-oracle fixtures for the golden game set.

The fixtures pin oracle outputs (best responses, collective maxima, mutual
existence verdicts) so the analytic modules are tested against frozen,
independently computed values rather than against themselves.

Usage: python3 scripts/make_golden_fixtures.py [--out tests/data/golden_oracle.json]

It imports the package from the ``src/`` directory of the checkout that
holds it, so it runs from a source checkout without installing.
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from coalitional_lotto.core import GameInstance  # noqa: E402
from coalitional_lotto.mutual import Mechanism  # noqa: E402
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


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default="tests/data/golden_oracle.json")
    args = parser.parse_args()
    fixtures = oracle_records(GOLDEN_GAMES)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(fixtures, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out} ({len(fixtures)} games)")


if __name__ == "__main__":
    main()
