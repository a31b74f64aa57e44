#!/usr/bin/env python3
"""Interleaved A/B pairs of one perfbench workload: a git revision against the working tree.

Each pair runs ``perfbench/run.py --workload W --seed S --seconds T`` once
in each checkout, one after the other: first in a copy of ``--base``
unpacked with ``git archive`` into a temporary directory, then in the
working tree that holds this script, or the other way round.  The side
that runs first alternates from pair to pair, so a slow phase of the
machine does not always land on one side.

Prints each pair, both medians, the base's interquartile range and how
many pairs the working tree won, where winning means a lower value of the
metric; every end-to-end metric of ``BENCHMARK.json`` is better lower.  A
gain is clear when the working tree wins at least nine in ten pairs and
its median is lower by more than the base's interquartile range.
``--metric all`` reads every end-to-end metric of the working tree's
``BENCHMARK.json`` from each run and prints one summary per metric, so
one set of pairs checks a claimed gain and every other metric's bound.
The temporary copy is deleted on exit.  Nothing under ``perfbench/`` is
changed.

Usage, from anywhere in a checkout:

    python3 scripts/bench_pairs.py --base HEAD --workload verify --seed 3 --seconds 8 --pairs 10
    python3 scripts/bench_pairs.py --base HEAD --workload figure-sweep --seed 3 --seconds 6 --metric all

Exits 1 when a run fails or reports ``correct`` false.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def quartiles(values: list[float]) -> tuple[float, float]:
    """The lower and upper quartiles, interpolated between order statistics."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(base: list[float], change: list[float]) -> dict:
    """The medians, the base's interquartile range and the wins of ``change``.

    ``base[i]`` and ``change[i]`` are pair ``i``.  The change wins a pair
    where its value is lower.  ``clear`` holds when it wins at least nine
    in ten pairs and its median is lower by more than the base's
    interquartile range.
    """
    if len(base) != len(change) or len(base) < 2:
        raise ValueError("need two or more pairs, one value per side each")
    wins = sum(c < b for b, c in zip(base, change))
    base_median, change_median = statistics.median(base), statistics.median(change)
    q1, q3 = quartiles(base)
    gain = base_median - change_median
    return {
        "pairs": len(base),
        "wins": wins,
        "base_median": base_median,
        "change_median": change_median,
        "relative": change_median / base_median - 1.0,
        "base_iqr": q3 - q1,
        "clear": wins >= math.ceil(0.9 * len(base)) and gain > q3 - q1,
    }


def summarize_all(base: list[dict], change: list[dict], metrics: list[str]) -> dict:
    """``summarize`` of each metric in ``metrics``, from one dict of values per run."""
    return {m: summarize([b[m] for b in base], [c[m] for c in change]) for m in metrics}


def summary_line(metric: str, s: dict) -> str:
    """One line of ``summarize``'s figures for ``metric``."""
    return (
        f"{metric}: base median {s['base_median']:.6g} (IQR {s['base_iqr']:.3g}), "
        f"change median {s['change_median']:.6g} ({s['relative']:+.1%}); "
        f"change wins {s['wins']} of {s['pairs']}; clear gain: {'yes' if s['clear'] else 'no'}"
    )


def end_to_end_metrics() -> list[str]:
    """The names of the end-to-end metrics ``BENCHMARK.json`` declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec["end_to_end"]]


def unpack(revision: str, into: Path) -> None:
    """Write the committed files of ``revision`` under ``into``."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", revision],
        capture_output=True,
        check=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in ``checkout``: the value of each end-to-end metric."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=checkout,
        capture_output=True,
        text=True,
    )
    if done.returncode != 0:
        raise RuntimeError(f"run in {checkout} exited {done.returncode}: {done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"run in {checkout} reported {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    names = end_to_end_metrics()
    parser.add_argument(
        "--metric", default="wall_s", choices=names + ["all"], help="'all' for every one"
    )
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be >= 2")
    metrics = names if args.metric == "all" else [args.metric]

    base, change = [], []
    tmp = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        unpack(args.base, tmp)
        for i in range(args.pairs):
            sides = {"base": tmp, "change": ROOT}
            order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
            got = {
                side: run(sides[side], args.workload, args.seed, args.seconds) for side in order
            }
            base.append(got["base"])
            change.append(got["change"])
            for m in metrics:
                b, c = got["base"][m], got["change"][m]
                print(
                    f"pair {i + 1}: {m} base {b:.6g} change {c:.6g} "
                    f"({c / b - 1.0:+.1%}, {order[0]} first)",
                    flush=True,
                )
    except (RuntimeError, subprocess.CalledProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for m, s in summarize_all(base, change, metrics).items():
        print(summary_line(m, s))
    return 0


if __name__ == "__main__":
    sys.exit(main())
