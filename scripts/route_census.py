#!/usr/bin/env python3
"""Seeded census of the mutual-benefit verdicts, block by block.

Draws games in turn from six families and runs ``analyze_game`` on each:

* ``box``     -- uniform over [0.05, 3]^4, the ``verify`` sampling box;
* ``log``     -- valuations log-uniform over 1e-3..1e3, budgets over 1e-3..1e2;
* ``r5``      -- region R5 (``x1 + x2 < 1``), valuations over 1e-3..1e3;
* ``ridge``   -- box games with ``phi2`` set off the equal-ratio ridge by a
  factor ``1 +- g``, ``g`` log-uniform over 1e-9..1e-3;
* ``wide``    -- valuations over 1e-6..1e6, budgets over 1e-4..1e4;
* ``extreme`` -- valuations over 1e-12..1e12, budgets over 1e-9..1e9.

For each contest route it prints how often its window opens (the route is
handed to validation), how often the window's midpoint validates, and how
often the route decides the verdict.  For each block it prints the sha256
of the full-precision JSON of the three verdicts, and of the whole
``analyze_game`` report, so two checkouts can be compared block by block
with ``diff``.

Usage: python3 scripts/route_census.py [--count 60000] [--block 10000] [--seed 1]

It imports the package from the ``src/`` directory of the checkout that
holds it, so it runs from a source checkout without installing.
"""

import argparse
import hashlib
import json
import math
import random
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from coalitional_lotto import mutual  # noqa: E402
from coalitional_lotto.analysis import analyze_game  # noqa: E402
from coalitional_lotto.core import GameInstance, Transfer  # noqa: E402


def _log(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _box(rng):
    return [rng.uniform(0.05, 3.0) for _ in range(4)]


def _wide(lo_phi, hi_phi, lo_x, hi_x):
    def draw(rng):
        phi = [_log(rng, lo_phi, hi_phi) for _ in range(2)]
        return phi + [_log(rng, lo_x, hi_x) for _ in range(2)]

    return draw


def _r5(rng):
    x1 = _log(rng, 1e-4, 1.0)
    x2 = (1.0 - x1) * rng.uniform(1e-4, 1.0)
    return [_log(rng, 1e-3, 1e3), _log(rng, 1e-3, 1e3), x1, x2]


def _ridge(rng):
    phi1, _, x1, x2 = _box(rng)
    gap = _log(rng, 1e-9, 1e-3) * rng.choice((-1.0, 1.0))
    return [phi1, phi1 * x2 / x1 * (1.0 + gap), x1, x2]


FAMILIES = {
    "box": _box,
    "log": _wide(1e-3, 1e3, 1e-3, 1e2),
    "r5": _r5,
    "ridge": _ridge,
    "wide": _wide(1e-6, 1e6, 1e-4, 1e4),
    "extreme": _wide(1e-12, 1e12, 1e-9, 1e9),
}


class RouteCounts:
    """Counts the contest windows that ``mutual`` hands to validation."""

    def __init__(self) -> None:
        self.opened = Counter()
        self.midpoint = Counter()
        self.decided = Counter()

    def install(self) -> None:
        sc_routes, si_windows = mutual._sc_routes, mutual._si_windows

        def counted_sc(g, case_index, m):
            routes = sc_routes(g, case_index, m)
            self.opened.update(route for route, _ in routes)
            return routes

        def counted_si(g, region, case_index, m):
            windows = si_windows(g, region, case_index, m)
            for route, (lo, hi) in windows:
                self.opened[route] += 1
                nu = lo + 0.5 * (hi - lo)
                self.midpoint[route] += mutual.is_mutually_beneficial(g, Transfer(0.0, nu))
            return windows

        mutual._sc_routes, mutual._si_windows = counted_sc, counted_si

    def report(self) -> list[str]:
        def key(route):
            head = route.split(":")[0]
            return (0, ()) if head == "SC" else (1, tuple(int(p) for p in head.split(".")))

        lines = [f"{'route':<24} {'opened':>9} {'midpoint':>9} {'decided':>9}"]
        for route in sorted(self.opened, key=key):
            mid = "-" if route.startswith("SC:") else self.midpoint[route]
            lines.append(
                f"{route:<24} {self.opened[route]:>9} {mid:>9} {self.decided[route]:>9}"
            )
        return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=60000, help="games in the census")
    parser.add_argument("--block", type=int, default=10000, help="games per digest")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.count < 1 or args.block < 1:
        parser.error("--count and --block must be >= 1")

    rng = random.Random(args.seed)
    draws = list(FAMILIES.values())
    counts = RouteCounts()
    counts.install()
    families = ",".join(FAMILIES)
    print(f"# seed={args.seed} count={args.count} block={args.block} families={families}")
    print("block first verdicts_sha256 analyze_sha256")
    for first in range(0, args.count, args.block):
        verdicts, reports = hashlib.sha256(), hashlib.sha256()
        for i in range(first, min(first + args.block, args.count)):
            report = analyze_game(GameInstance(*draws[i % len(draws)](rng))).as_dict()
            route = report["mutual"]["contest"]["route"]
            if route is not None:
                counts.decided[route.removeprefix("swap:")] += 1
            verdicts.update(json.dumps(report["mutual"]).encode() + b"\n")
            reports.update(json.dumps(report).encode() + b"\n")
        print(f"{first // args.block} {first} {verdicts.hexdigest()} {reports.hexdigest()}")
    for line in counts.report():
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
