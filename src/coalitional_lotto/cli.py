"""Command-line front door.

Subcommands:

* ``analyze`` -- one game, full JSON report to stdout;
* ``sweep``   -- grid over two parameters, predicate per point, CSV;
* ``curve``   -- payoffs along one transfer mechanism, CSV;
* ``verify``  -- seeded random games, analytic vs oracle comparison, CSV.

Exit codes: 0 success, 1 usage or validation error, 2 verification
disagreement.

``main`` tunes glibc's allocator once per process (``_keep_freed_heap``).
Under the default thresholds, an array call above about 6,000 lanes frees
enough memory at the top of the heap that glibc hands it back to the
system, and the next call faults it in again: each 30x30 criterion-8
``mutual-contest`` plane took about 190 minor faults, and one 300x300
plane about 55,000, a third of its CPU time.  Raising the mmap threshold
keeps those arrays on the heap, and raising the trim threshold keeps their
freed memory there for the next call.  Only the process owner should tune
the allocator, so the library (``analyze_game``, the oracles, the sweeps)
leaves it as it finds it.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .analysis import analyze_game, format_float, to_json
from .core import GameInstance, GameValidationError
from .families import BOX
from .mutual import Mechanism
from .sweep import (
    Predicate,
    SweepSpec,
    run_curve,
    run_sweep,
    run_verify,
    write_csv,
    write_plane,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DISAGREEMENT = 2


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with ``EXIT_USAGE``, not argparse's 2 (``EXIT_DISAGREEMENT``)."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _seed(text: str) -> int:
    """A ``--seed``: an integer in ``[0, 2**64)``, the states of ``SplitMix64``.

    The generator keeps a seed modulo ``2**64``, so a seed outside that
    range would draw another seed's games under its own header.
    """
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if not 0 <= seed < 2**64:
        raise argparse.ArgumentTypeError(f"{text} is not in [0, 2**64)")
    return seed


def _add_game_args(p: argparse.ArgumentParser, required: bool) -> None:
    for name in ("phi1", "phi2", "x1", "x2"):
        p.add_argument(f"--{name}", type=float, required=required)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    Parsing keeps no state in the parser: each ``parse_args`` call fills a
    fresh namespace, so one parser serves every ``main`` call.
    """
    parser = _Parser(
        prog="coalitional-lotto",
        description="Alliance transfer analysis for two-front General Lotto games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full report for one game (JSON to stdout)")
    _add_game_args(p, required=True)

    p = sub.add_parser("sweep", help="predicate over a 2-D parameter grid (CSV)")
    _add_game_args(p, required=False)
    p.add_argument(
        "--axis",
        action="append",
        required=True,
        metavar="NAME=LO:HI",
        help="swept parameter and range; give exactly twice",
    )
    p.add_argument("--steps", type=int, default=300, help="grid points per axis")
    p.add_argument(
        "--predicate",
        choices=[pr.value for pr in Predicate],
        required=True,
    )
    p.add_argument("--out", default="-", help="output CSV path ('-' = stdout)")

    p = sub.add_parser("curve", help="payoffs along one mechanism (CSV)")
    _add_game_args(p, required=True)
    p.add_argument("--mechanism", choices=["budget", "contest"], required=True)
    p.add_argument("--steps", type=int, default=500)
    p.add_argument("--out", default="-")

    p = sub.add_parser("verify", help="analytic vs grid-oracle calibration (CSV)")
    p.add_argument("--count", type=int, required=True, help="number of sampled games")
    p.add_argument("--seed", type=_seed, default=0, help="integer in [0, 2**64)")
    p.add_argument("--out", default="-")

    return parser


@functools.cache
def _keep_freed_heap() -> bool:
    """Keep freed arrays on the heap for the process's next call; once per process.

    Serves blocks up to 32 MiB from the heap rather than from ``mmap``, and
    returns the heap's free top to the system only above 64 MiB.  Both are
    needed: with the trim threshold alone, arrays above 128 KiB stay on
    ``mmap`` and are unmapped when freed.  Returns whether libc took both
    settings; where it is not glibc, or has no ``mallopt``, nothing changes.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mmap = mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD in glibc's malloc.h
    trim = mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
    return bool(mmap and trim)


def _game(args: argparse.Namespace) -> GameInstance:
    return GameInstance(args.phi1, args.phi2, args.x1, args.x2)


def _write_out(path: str, write, comments: list[str], header: list[str], table) -> None:
    """Write a commented CSV to ``path``, or to stdout when it is '-'.

    ``write`` is ``write_csv`` for rows or ``write_plane`` for a sweep plane.
    """
    if path == "-":
        write(sys.stdout, comments, header, table)
        return
    with open(path, "w", encoding="utf-8") as stream:
        write(stream, comments, header, table)


def _parse_axis(text: str) -> tuple[str, float, float]:
    try:
        name, rng = text.split("=", 1)
        lo, hi = rng.split(":", 1)
        return name.strip(), float(lo), float(hi)
    except ValueError as exc:
        raise GameValidationError(f"bad --axis {text!r}; expected NAME=LO:HI") from exc


def _params_text(params) -> str:
    """``name=value`` pairs, space-separated, values to 12 significant digits."""
    return " ".join(f"{k}={format_float(v)}" for k, v in params)


def _cmd_analyze(args) -> int:
    report = analyze_game(_game(args))
    print(to_json(report.as_dict()))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    if len(args.axis) != 2:
        raise GameValidationError("give --axis exactly twice")
    axes = tuple(_parse_axis(a) for a in args.axis)
    fixed = {}
    for name in ("phi1", "phi2", "x1", "x2"):
        value = getattr(args, name)
        if value is not None:
            fixed[name] = value
    spec = SweepSpec(fixed=fixed, axes=axes, steps=args.steps, predicate=Predicate(args.predicate))
    plane = run_sweep(spec)
    fixed_desc = _params_text(sorted(fixed.items()))
    _write_out(
        args.out,
        write_plane,
        [
            f"predicate={args.predicate} fixed: {fixed_desc}",
            "units: budgets in adversary-budget units, valuations in contest-value units",
        ],
        [axes[0][0], axes[1][0], args.predicate],
        plane,
    )
    return EXIT_OK


def _cmd_curve(args) -> int:
    g = _game(args)
    mech = Mechanism(args.mechanism)
    rows = run_curve(g, mech, args.steps)
    unit = "budget (tau)" if mech is Mechanism.BUDGET else "valuation (nu)"
    _write_out(
        args.out,
        write_csv,
        [
            f"game: {_params_text(g.as_dict().items())}",
            f"mechanism={mech.value}; transfer units: {unit}; payoffs in valuation units",
        ],
        ["transfer", "u1", "u2", "collective"],
        rows,
    )
    return EXIT_OK


def _cmd_verify(args) -> int:
    rows, ok = run_verify(args.count, args.seed)
    header = list(rows[0].keys())
    _write_out(
        args.out,
        write_csv,
        [
            f"count={args.count} seed={args.seed} box=[{BOX[0]},{BOX[1]}]^4",
            "analytic vs grid-oracle: contest existence, best response, collective maxima",
        ],
        header,
        [[row[k] for k in header] for row in rows],
    )
    return EXIT_OK if ok else EXIT_DISAGREEMENT


def main(argv: list[str] | None = None) -> int:
    _keep_freed_heap()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "curve":
            return _cmd_curve(args)
        if args.command == "verify":
            return _cmd_verify(args)
    except (GameValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
