"""Benchmark of the coalitional_lotto package, end to end and layer by layer.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload figure-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

The seed makes a corpus of operations (``workloads.py``).  One caller runs
the whole corpus again and again, one operation at a time, for
``--seconds`` seconds (a closed loop).

``--trace 0`` reports the end-to-end metrics, with tracing off:

* ``setup_s``: import plus first-call warm-up, in fresh interpreters
  started between passes (median of ``SETUP_PROBES``);
* ``wall_s``: one pass over the corpus, made up of chunks of a few
  operations.  Each chunk's time is divided by the mean of the two timings
  of the benchmark's reference loop (``reference_loop``) around it, and
  ``wall_s`` sums the chunks' medians over the passes, in seconds of a
  machine on which that loop takes ``REF_NOMINAL_S``.  ``setup_s`` is
  scaled the same way.  On the shared 2-vCPU virtual machine of the
  baseline, speed moved by up to 2x in phases of a second or more, which
  the adjacent loop timings share with what they bracket.  Operations,
  loop and set-up probes are timed on the process's CPU clock, so time in
  which the CPU ran other processes, or the host took it away, drops out.
  The unscaled sum of each operation's fastest repeat is printed as
  ``wall_raw_s``, the unscaled set-up time as ``setup_raw_s``;
* ``peak_rss_mb``: the process's peak resident memory, read before the
  checks.

``--trace 1`` alternates untraced and traced passes for ``--seconds``
seconds and reports per-layer counts (from one pass; they must repeat
exactly) and self times (fastest pass), plus ``trace_overhead_frac``.

Human-readable lines come first.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``,
which holds the metrics ``BENCHMARK.json`` names for the mode.  A fuller
report, with the run environment and output digests, goes to
``perfbench/out/``.  The package is imported from ``src/`` of the checkout
and nowhere else; without it, the benchmark exits with code 2.
"""

from __future__ import annotations

import os

# Pin numpy/BLAS to one thread before anything imports numpy: the benchmark
# is one closed-loop caller on a small machine.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, process_time  # noqa: E402

import numpy as np  # noqa: E402

from tracing import FLAGS, LAYERS, ROOT as ROOT_SPAN, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
OUT = HERE / "out"
WORKLOAD_NAMES = ("figure-sweep", "verify", "analyze-stratified")

SETUP_PROBES = 7
MAX_SECONDS = 60

SETUP_PROBE = """
import sys, time
t0 = time.process_time()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import pathlib, workloads
workloads.WORKLOADS[sys.argv[3]](0, pathlib.Path(sys.argv[4])).warm_up()
print(repr(time.process_time() - t0))
"""

# wall_s and setup_s are scaled to a machine on which the benchmark's
# reference loop takes REF_NOMINAL_S.  The loop is timed before and after
# every chunk of ``wl.chunk`` operations and every set-up probe, so a timing
# and its yardstick run within milliseconds of each other and share the
# machine's speed of the moment.
REF_NOMINAL_S = 3e-3
_REF_X = np.linspace(0.01, 3.0, 2001)


@dataclass(frozen=True)
class _RefGame:
    phi1: float
    phi2: float
    x1: float
    x2: float


@dataclass(frozen=True)
class _RefPair:
    u_player: float
    u_adversary: float


_REF_GAMES = [_RefGame(12.0, 10.0, 0.5 + 0.01 * i, 1.5 - 0.005 * i) for i in range(200)]


def _ref_contest(phi: float, x: float, xa: float) -> _RefPair:
    if x >= xa:
        return _RefPair(phi * (1.0 - xa / (2.0 * x)), phi * xa / (2.0 * x))
    return _RefPair(phi * x / (2.0 * xa), phi * (1.0 - x / (2.0 * xa)))


def _ref_payoffs(g: _RefGame, tau: float) -> tuple[float, float]:
    gb = _RefGame(g.phi1, g.phi2, g.x1 - tau, g.x2 + tau)
    if gb.x1 / gb.phi1 < gb.x2 / gb.phi2:
        s = math.sqrt(gb.x1 * gb.x2 * gb.phi1 / gb.phi2)
    else:
        s = math.sqrt(gb.x1 * gb.x2 * gb.phi2 / gb.phi1)
    xa1 = min(s, 1.0)
    return _ref_contest(gb.phi1, gb.x1, xa1).u_player, _ref_contest(gb.phi2, gb.x2, 1.0 - xa1).u_player


def reference_loop() -> float:
    """Seconds for a fixed mix like the package's own: frozen dataclasses,
    small functions and scalar float code, then small numpy calls.  The
    benchmark's yardstick for machine speed; it slows down about as much as
    the package does when the machine is busy.  CPU seconds, like the
    operations it is set against."""
    t0 = process_time()
    acc = 0.0
    for _ in range(3):
        for game in _REF_GAMES:
            u1, u2 = _ref_payoffs(game, 0.01)
            acc += u1 - u2
    x = _REF_X
    for _ in range(20):
        s = np.sqrt(x * (3.0 - x) * 1.2)
        y = np.where(s >= 1.0, 1.0, np.where(1.0 - s <= x, s, x / (x + 1.0)))
        acc += float(np.minimum(y - 0.5, s).max())
    return process_time() - t0


# Traced metrics that are neither times nor plain counts.
TRACE_UNITS = {
    "batch.payoffs_at_transfers.us_per_point": "us/point",
    "adversary.player_payoffs.calls_per_op": "count/game",
}


def _is_time(key: str) -> bool:
    return key.endswith("_s") or key == "batch.payoffs_at_transfers.us_per_point"


def _unit(key: str) -> str:
    if key.endswith("_per_s"):
        return "1/s"
    if key.endswith("_s"):
        return "s"
    if key.endswith("_ms"):
        return "ms"
    if key.endswith("_mb"):
        return "MB"
    if key.endswith("_frac"):
        return "frac"
    return TRACE_UNITS.get(key, "count")


def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


# -- environment ------------------------------------------------------------


def _git(*args: str) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, env=env, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no") if sha else None
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


# -- measurement ------------------------------------------------------------


def setup_probe(workload: str, tmp: Path) -> float:
    """Import plus first-call warm-up, in a fresh interpreter; unscaled."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(SRC), str(HERE), workload, str(tmp)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` over the mean of the reference-loop timings around it,
    in seconds of the nominal machine."""
    return REF_NOMINAL_S * 2.0 * seconds / (before + after)


def scaled_setup_probe(workload: str, tmp: Path) -> tuple[float, float]:
    """A set-up probe between two reference-loop timings: (scaled, raw)."""
    before = reference_loop()
    raw = setup_probe(workload, tmp)
    return scaled(raw, before, reference_loop()), raw


def judge(wl, corpus: list, first: list, passes: int, mismatched: int) -> dict:
    """Counts of one pass over the corpus, from the checks of the first pass.

    Every later pass must reproduce the first pass's outputs byte for byte;
    a mismatch makes the run incorrect.  The counts do not scale with the
    number of passes, which depends on the machine's speed, so a seed gives
    the same ``attempted`` and ``failed`` on every run.
    """
    from workloads import OK, WRONG

    statuses = wl.check(corpus, first)
    per_pass = sum(games for _, games in statuses)
    failed = sum(games for status, games in statuses if status != OK)
    wrong = sum(games for status, games in statuses if status == WRONG)
    return {
        "correct": wrong == 0 and mismatched == 0,
        "attempted": per_pass,
        "failed": failed,
        "wrong": wrong,
        "passes": passes,
        "nondeterministic": mismatched,
        "digests": wl.digests(corpus, first),
    }


def run_untraced(wl, seconds: float, tmp: Path) -> dict:
    corpus = wl.corpus()
    chunks = [range(i, min(i + wl.chunk, len(corpus))) for i in range(0, len(corpus), wl.chunk)]
    wl.warm_up()
    t0 = perf_counter()
    t_end = t0 + seconds
    # Set-up probes are spread over the run, between passes, so that their
    # median spans the machine's slow and fast phases.
    probe_at = [t0 + k * seconds / SETUP_PROBES for k in range(SETUP_PROBES)]
    setup, ref_s, first = [], [], []
    times = [[] for _ in corpus]
    # Per chunk, per pass: the chunk's time scaled by the loop timings
    # around it.
    chunk_scaled = [[] for _ in chunks]
    mismatched = 0
    while not first or perf_counter() < t_end:
        while probe_at and perf_counter() >= probe_at[0]:
            probe_at.pop(0)
            setup.append(scaled_setup_probe(wl.name, tmp))
        before = reference_loop()
        for c, chunk in enumerate(chunks):
            chunk_s = 0.0
            for i in chunk:
                op = wl.run(corpus[i])
                times[i].append(op.seconds)
                chunk_s += op.seconds
                if len(first) < len(corpus):
                    first.append(op)
                else:
                    mismatched += op.digest != first[i].digest
            after = reference_loop()
            chunk_scaled[c].append(scaled(chunk_s, before, after))
            ref_s.append(after)
            before = after
    setup += [scaled_setup_probe(wl.name, tmp) for _ in probe_at]
    # Before the checks, whose grid oracle allocates more than the workload.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    passes = len(times[0])
    result = judge(wl, corpus, first, passes, mismatched)

    best = [min(t) for t in times]
    pass_s = [sum(t[k] for t in times) for k in range(passes)]
    metrics = {
        "setup_s": (statistics.median(s for s, _ in setup), len(setup)),
        "wall_s": (sum(statistics.median(c) for c in chunk_scaled), passes),
        "peak_rss_mb": (peak_rss_mb, 1),
        "wall_raw_s": (sum(best), passes),
        "setup_raw_s": (statistics.median(raw for _, raw in setup), len(setup)),
        "reference_s": (statistics.median(ref_s), len(ref_s)),
        "pass_median_s": (statistics.median(pass_s), passes),
    }
    # Figures of one workload only.  BENCHMARK.json cannot name them,
    # because every workload must report every end-to-end metric there.
    if wl.name == "figure-sweep":
        for predicate, t in zip(corpus, best):
            metrics[f"sweep.{predicate}_s"] = (t, passes)
    elif wl.name == "verify":
        metrics["verify_games_per_s"] = (wl.count * len(corpus) / sum(best), passes)
    else:
        latency_ms = [1e3 * t for t in best]
        metrics["analyze_p50_ms"] = (statistics.median(latency_ms), len(latency_ms))
        metrics["analyze_p99_ms"] = (_quantile(latency_ms, 0.99), len(latency_ms))
    metrics["fail_frac"] = (result["failed"] / result["attempted"], result["attempted"])
    result["metrics"] = metrics
    return result


def _layer_table(tracer: Tracer, games: int) -> dict:
    table = {}
    for name in (ROOT_SPAN,) + LAYERS:
        s = tracer.stats[name]
        table[f"{name}.calls"] = s.calls
        table[f"{name}.self_s"] = s.self_s
        table[f"{name}.total_s"] = s.total_s
        if name in FLAGS:
            table[f"{name}.{FLAGS[name][0]}"] = s.flagged / s.calls if s.calls else 0.0
    bt_name, pp_name = "batch.payoffs_at_transfers", "adversary.player_payoffs"
    bt = tracer.stats[bt_name]
    table[f"{bt_name}.points"] = bt.points
    table[f"{bt_name}.us_per_point"] = 1e6 * bt.self_s / bt.points if bt.points else 0.0
    table[f"{pp_name}.calls_per_op"] = tracer.stats[pp_name].calls / games
    return table


def run_traced(wl, seconds: float) -> dict:
    corpus = wl.corpus()
    games = sum(wl.games(x) for x in corpus)

    def one_pass() -> list:
        return [wl.run(x) for x in corpus]

    wl.warm_up()
    first = None
    plain_s, traced_s, tables = [], [], []
    mismatched = 0
    t_end = perf_counter() + seconds
    while not tables or perf_counter() < t_end:
        t0 = perf_counter()
        ops = one_pass()
        plain_s.append(perf_counter() - t0)
        tracer = Tracer()
        with tracer:
            t0 = perf_counter()
            traced_ops = tracer.root(one_pass)
            traced_s.append(perf_counter() - t0)
        tables.append(_layer_table(tracer, games))
        first = first or ops
        mismatched += sum(a.digest != b.digest for a, b in zip(first + first, ops + traced_ops))
    result = judge(wl, corpus, first, 2 * len(tables), mismatched)

    # Counts come from one pass and must repeat exactly; times are the
    # fastest pass, as in the untraced run.
    counts = [{k: v for k, v in t.items() if not _is_time(k)} for t in tables]
    result["counts_repeat"] = all(c == counts[0] for c in counts)
    result["correct"] = result["correct"] and result["counts_repeat"]
    metrics = {}
    for key in tables[0]:
        value = min(t[key] for t in tables) if _is_time(key) else tables[0][key]
        metrics[key] = (value, len(tables))
    metrics["trace_overhead_frac"] = (min(traced_s) / min(plain_s) - 1.0, len(tables))
    result["metrics"] = metrics
    return result


# -- entry points -----------------------------------------------------------


def run_one(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> int:
    sys.path.insert(0, str(SRC))
    import coalitional_lotto

    if Path(coalitional_lotto.__file__).resolve().parent != SRC / "coalitional_lotto":
        where = coalitional_lotto.__file__
        print(f"error: coalitional_lotto imported from {where}", file=sys.stderr)
        return 2
    import workloads

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        wl = workloads.WORKLOADS[workload](seed, Path(tmp))
        result = run_traced(wl, seconds) if trace else run_untraced(wl, seconds, Path(tmp))
    metrics = {k: (v, _unit(k), n) for k, (v, n) in result["metrics"].items()}

    print(f"workload {workload} seed {seed} trace {int(trace)}")
    for name, (value, unit, n) in metrics.items():
        print(f"  {name} = {value:.6g} {unit} (n={n})")
    for name, digest in result["digests"].items():
        print(f"  sha256 {digest} {name}")
    print(
        f"  attempted={result['attempted']} failed={result['failed']} wrong={result['wrong']} "
        f"passes={result['passes']} nondeterministic={result['nondeterministic']} "
        f"correct={result['correct']}"
    )

    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        **{k: v for k, v in result.items() if k != "metrics"},
        "environment": environment(),
        "metrics": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in metrics.items()},
    }
    path = OUT / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    named = spec["per_layer" if trace else "end_to_end"]
    chosen = {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in named}
    summary = {k: result[k] for k in ("correct", "attempted", "failed")}
    print(json.dumps({**summary, "metrics": chosen}))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own interpreter, one after another."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True,
            text=True,
            timeout=900,
        )
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        *lines, last = done.stdout.strip().splitlines()
        print("\n".join(lines))
        result = json.loads(last)
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(summary))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= MAX_SECONDS:
        parser.error(f"--seconds must be in (0, {MAX_SECONDS}]")
    if not (SRC / "coalitional_lotto" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"error: no package source under {SRC} or no {SPEC.name}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace), spec)


if __name__ == "__main__":
    sys.exit(main())
