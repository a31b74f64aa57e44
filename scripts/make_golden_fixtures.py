#!/usr/bin/env python3
"""Regenerate the committed grid-oracle fixtures for the golden game set.

The fixtures pin oracle outputs (best responses, collective maxima, mutual
existence verdicts) so the analytic modules are tested against frozen,
independently computed values rather than against themselves.

Usage: python3 scripts/make_golden_fixtures.py [--out tests/data/golden_oracle.json]
"""

import argparse
import json
from pathlib import Path

from coalitional_lotto.core import GameInstance
from coalitional_lotto.mutual import Mechanism
from coalitional_lotto.oracle import (
    DEFAULT_GRID_1D,
    DEFAULT_GRID_2D,
    GridSpec,
    grid_best_response,
    grid_max_collective,
    grid_mutual_search,
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


def oracle_record(params) -> dict:
    g = GameInstance(*params)
    double_1d = GridSpec(2 * DEFAULT_GRID_1D.resolution - 1)
    rec = {
        "game": g.as_dict(),
        "best_response_xa1": grid_best_response(g).xa1,
        "max_collective": {},
        "max_collective_double_res": {},
        "mutual_exists": {},
    }
    for mech in Mechanism:
        rec["max_collective"][mech.value] = grid_max_collective(g, mech)
        if mech is not Mechanism.JOINT:
            rec["max_collective_double_res"][mech.value] = grid_max_collective(
                g, mech, double_1d
            )
        else:
            rec["max_collective_double_res"][mech.value] = grid_max_collective(
                g, mech, GridSpec(2 * DEFAULT_GRID_2D.resolution - 1)
            )
        verdict = grid_mutual_search(g, mech)
        rec["mutual_exists"][mech.value] = {
            "exists": verdict.exists,
            "witness": verdict.witness.as_dict() if verdict.witness else None,
            "near_boundary": verdict.near_boundary,
        }
    return rec


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default="tests/data/golden_oracle.json")
    args = parser.parse_args()
    fixtures = {name: oracle_record(params) for name, params in GOLDEN_GAMES.items()}
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(fixtures, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out} ({len(fixtures)} games)")


if __name__ == "__main__":
    main()
