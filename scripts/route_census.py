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

Each game also goes through the paper's printed contest routes
(``paper_routes.route_verdict``).  For each route it prints how often its
window opens (the route is handed to validation), how often the window's
midpoint validates, and how often the route decides the route verdict.
Per family it counts the games where the route verdict and the exact
contest verdict of ``analyze_game`` disagree on ``exists``, and lists each
such game with both verdicts and a dense scan of its contest line
(``dense_scan``): ``settled`` when the scan's best transfer off the ridge
sliver agrees with the exact verdict.  Per family it also counts the budget
verdicts that the capped-player rule decides (``mutual.capped_rules_out``
on a game the surplus test leaves): a player already wins its whole
valuation, so the budget line is never built.  On the same games it
counts the contest line's pieces and those that the valuation-room rule
drops (``mutual.valuation_room`` of a piece's ends): there a player's
post-transfer valuation leaves it no room to gain, so they are never
classified or scored.  For each block it prints
the sha256 of the full-precision JSON of the three verdicts, and of the
whole ``analyze_game`` report, so two checkouts can be compared block by
block with ``diff``.  Each block's games also go through the array forms that
sweeps use (``mutual_arrays.budget_exists``, ``mutual_arrays.joint_exists``,
``mutual_arrays.contest_exists`` and ``batch.case_of``) and the budget and
contest ``near_boundary`` flags of ``mutual_arrays.line_flags``, which
``verify`` uses; the last line counts the games where each disagrees with
``analyze_game``.  The script
exits 2, the CLI's disagreement code, when an array verdict disagrees or a
route/exact disagreement stays ``UNSETTLED``, 1 on a usage error, as the CLI
does, and 0 otherwise.

Usage: python3 scripts/route_census.py [--count 60000] [--block 10000] [--seed 1]

It imports the package from the ``src/`` directory of the checkout that
holds it, so it runs from a source checkout without installing.
"""

import hashlib
import json
import math
import random
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from coalitional_lotto import batch, collective, mutual, mutual_arrays, paper_routes  # noqa: E402
from coalitional_lotto.adversary import CaseLabel  # noqa: E402
from coalitional_lotto.analysis import analyze_game  # noqa: E402
from coalitional_lotto.cli import EXIT_DISAGREEMENT, EXIT_OK, _Parser  # noqa: E402
from coalitional_lotto.core import GameInstance, Mechanism, Transfer  # noqa: E402
from coalitional_lotto.search import RIDGE_RTOL, line_ends, min_gain, ridge_gap  # noqa: E402


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
    """Counts the contest windows that ``paper_routes`` hands to validation."""

    def __init__(self) -> None:
        self.opened = Counter()
        self.midpoint = Counter()
        self.decided = Counter()

    def install(self) -> None:
        sc_routes, si_windows = paper_routes._sc_routes, paper_routes._si_windows

        def counted_sc(g, case_index):
            routes = sc_routes(g, case_index)
            self.opened.update(route for route, _ in routes)
            return routes

        def counted_si(g, region, case_index):
            windows = si_windows(g, region, case_index)
            for route, (lo, hi) in windows:
                self.opened[route] += 1
                nu = lo + 0.5 * (hi - lo)
                self.midpoint[route] += mutual.is_mutually_beneficial(g, Transfer(0.0, nu))
            return windows

        paper_routes._sc_routes, paper_routes._si_windows = counted_sc, counted_si

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


def dense_scan(g: GameInstance, around) -> float:
    """Best smaller payoff delta off the ridge sliver, over ``Phi``, on a dense scan.

    The contest line's 200,001 evenly spaced points, plus points at
    geometric offsets from 1e-15 to 0.1 of ``Phi`` on either side of each
    transfer in ``around``.
    """
    lo, hi = line_ends(g, Mechanism.CONTEST)
    offsets = np.geomspace(1e-15, 0.1, 2000) * g.total_valuation
    nus = np.concatenate(
        [np.linspace(lo, hi, 200001)] + [a + s * offsets for a in around for s in (-1.0, 1.0)]
    )
    nus = nus[(lo <= nus) & (nus <= hi)]
    base1, base2 = batch.payoffs_at_transfers(g, 0.0, 0.0)
    u1, u2 = batch.payoffs_at_transfers(g, 0.0, nus)
    score = np.minimum(u1 - base1, u2 - base2)
    off = ridge_gap(g, Mechanism.CONTEST, nus) > 2.0 * RIDGE_RTOL
    return float(np.max(score[off], initial=-np.inf)) / g.total_valuation


def disagreement(family: str, g: GameInstance, exact, routes) -> tuple[str, bool]:
    """One listed game where the route and exact verdicts disagree, and whether
    the dense scan settles it in the exact verdict's favour."""
    around = [0.0, collective.ridge_transfer(g, Mechanism.CONTEST)]
    around += [v.witness.nu for v in (exact, routes) if v.exists]
    best = dense_scan(g, around)
    settled = (best > min_gain(g) / g.total_valuation) == exact.exists
    params = " ".join(repr(p) for p in (g.phi1, g.phi2, g.x1, g.x2))
    line = (
        f"disagree {family} {params} route={routes.route} exact={exact.route} "
        f"scan_best_off_sliver={best:.3e} {'settled' if settled else 'UNSETTLED'}"
    )
    return line, settled


# The array values that ``array_mismatches`` compares, in the order of its rows.
ARRAY_VALUES = ("budget", "joint", "contest", "case", "budget-near", "contest-near")


def array_mismatches(games, scalar) -> Counter:
    """Games where the array values differ from those in ``scalar``, by name.

    Each row of ``scalar`` holds one game's ``ARRAY_VALUES``: the budget,
    joint and contest ``exists``, the case label, and the budget and contest
    ``near_boundary``.
    """
    arrays = batch.GameArrays.of(games)
    index, swapped = batch.case_of(*arrays)
    found = zip(
        mutual_arrays.budget_exists(arrays).tolist(),
        mutual_arrays.joint_exists(arrays).tolist(),
        mutual_arrays.contest_exists(arrays).tolist(),
        (str(CaseLabel.of(i, s)) for i, s in zip(index.tolist(), swapped.tolist())),
        mutual_arrays.line_flags(arrays, Mechanism.BUDGET)[1].tolist(),
        mutual_arrays.line_flags(arrays, Mechanism.CONTEST)[1].tolist(),
    )
    out = Counter()
    for row, expected in zip(found, scalar):
        for name, a, b in zip(ARRAY_VALUES, row, expected):
            out[name] += a != b
    return out


def main(argv=None) -> int:
    parser = _Parser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=60000, help="games in the census")
    parser.add_argument("--block", type=int, default=10000, help="games per digest")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.count < 1 or args.block < 1:
        parser.error("--count and --block must be >= 1")

    rng = random.Random(args.seed)
    names = list(FAMILIES)
    counts = RouteCounts()
    counts.install()
    print(f"# seed={args.seed} count={args.count} block={args.block} families={','.join(names)}")
    print("block first verdicts_sha256 analyze_sha256")
    mismatches = Counter()
    disagreements = Counter()
    capped = Counter()
    dropped = Counter()
    pieces = Counter()
    drawn = Counter()
    listed = []
    unsettled = 0
    for first in range(0, args.count, args.block):
        verdicts, reports = hashlib.sha256(), hashlib.sha256()
        games, scalar = [], []
        for i in range(first, min(first + args.block, args.count)):
            family = names[i % len(names)]
            g = GameInstance(*FAMILIES[family](rng))
            games.append(g)
            report = analyze_game(g)
            baseline = (report.u1, report.u2)
            drawn[family] += 1
            if not mutual.surplus_rules_out(g, baseline, report.collective.optimum):
                capped[family] += mutual.capped_rules_out(g, baseline)
                line = mutual.line_pieces(g, Mechanism.CONTEST)[1]
                pieces[family] += len(line)
                room = mutual.valuation_room(g, baseline)
                dropped[family] += sum(not room(a, b) for a, b, _ in line)
            routes = paper_routes.route_verdict(g)
            if routes.route is not None and routes.exists:
                counts.decided[routes.route.removeprefix("swap:")] += 1
            if routes.exists != report.mutual_contest.exists:
                disagreements[family] += 1
                line, settled = disagreement(family, g, report.mutual_contest, routes)
                listed.append(line)
                unsettled += not settled
            report = report.as_dict()
            verdicts.update(json.dumps(report["mutual"]).encode() + b"\n")
            reports.update(json.dumps(report).encode() + b"\n")
            verdict = report["mutual"]
            scalar.append(
                (
                    verdict["budget"]["exists"],
                    verdict["joint"]["exists"],
                    verdict["contest"]["exists"],
                    report["case"],
                    verdict["budget"]["near_boundary"],
                    verdict["contest"]["near_boundary"],
                )
            )
        print(f"{first // args.block} {first} {verdicts.hexdigest()} {reports.hexdigest()}")
        mismatches.update(array_mismatches(games, scalar))
    for line in counts.report():
        print(line)
    for line in listed:
        print(line)
    per_family = " ".join(f"{name} {disagreements[name]}" for name in names)
    print(
        f"route/exact contest disagreements over {args.count} games: {per_family}; "
        f"unsettled {unsettled}"
    )
    for name in names:
        decided = f"{capped[name]} of {drawn[name]}"
        print(f"budget verdicts decided by the capped rule, {name}: {decided}")
    for name in names:
        room = f"{dropped[name]} of {pieces[name]}"
        print(f"contest pieces dropped by the valuation room, {name}: {room}")
    counts = " ".join(f"{name} {mismatches[name]}" for name in ARRAY_VALUES)
    print(f"array mismatches over {args.count} games: {counts}")
    return EXIT_DISAGREEMENT if unsettled or sum(mismatches.values()) else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
