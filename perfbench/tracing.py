"""Outside-in layer tracing for the coalitional_lotto package.

The package itself carries no instrumentation.  ``Tracer.install`` replaces a
layer's public function, in every package module that binds it, with a
wrapper that opens a span around the call; ``Tracer.uninstall`` puts the
originals back.  Spans are aggregated per layer as they close (calls, total
time, self time), so tracing cost stays a few microseconds per call and
memory stays flat.

Self time is a span's duration minus the time covered by its child spans.
A call of a layer made while a span of the same layer is open (recursion,
as in ``analysis.to_json``) opens no span of its own and is counted in the
outer one.
"""

from __future__ import annotations

import importlib
import math
import sys
from time import perf_counter

import numpy as np

PACKAGE = "coalitional_lotto"

# Layers in the order they are reported: "<module>.<function>" of the
# defining module.
LAYERS = (
    "cli.main",
    "sweep.run_sweep",
    "sweep.write_csv",
    "analysis.analyze_game",
    "analysis.to_json",
    "mutual.budget_mutual_exists",
    "mutual.contest_mutual_exists",
    "mutual.joint_mutual_exists",
    "collective.collective_report",
    "collective.max_collective_payoff",
    "oracle.grid_mutual_search",
    "oracle.grid_best_response",
    "oracle.grid_max_collective",
    "adversary.classify_case",
    "adversary.player_payoffs",
    "batch.payoffs_at_transfers",
)

ROOT = "root"

# Per-verdict flags: the metric each reports as a share of the layer's
# calls, and a test of the verdict and of the scalar (player_payoffs) and
# batch (payoffs_at_transfers) calls made inside its span.
FLAGS = {
    # More than the baseline scalar call: golden refinement ran.
    "mutual.budget_mutual_exists": ("refined_frac", lambda verdict, scalar, batch: scalar > 1),
    "mutual.contest_mutual_exists": ("exists_frac", lambda verdict, scalar, batch: verdict.exists),
    # A batch call inside the verdict is the 2-D grid fallback.
    "mutual.joint_mutual_exists": ("grid_fallback_frac", lambda verdict, scalar, batch: batch > 0),
}


class LayerStats:
    __slots__ = ("calls", "total_s", "self_s", "points", "flagged")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        # Batch evaluation points (payoffs_at_transfers only).
        self.points = 0
        # Verdicts whose FLAGS test held.
        self.flagged = 0


def _points(args, kwargs) -> int:
    """Broadcast size of the (taus, nus) arguments of payoffs_at_transfers."""
    taus = kwargs.get("taus", args[1] if len(args) > 1 else 0.0)
    nus = kwargs.get("nus", args[2] if len(args) > 2 else 0.0)
    return math.prod(np.broadcast_shapes(np.shape(taus), np.shape(nus)))


class Tracer:
    """Per-layer call counts and self/total times, gathered from outside."""

    def __init__(self) -> None:
        self.stats = {name: LayerStats() for name in (ROOT,) + LAYERS}
        # One entry per open span: time covered by its closed children.
        self._stack: list[list[float]] = []
        self._saved: list[tuple[object, str, object]] = []

    def root(self, fn, *args, **kwargs):
        """Run ``fn`` inside the root span (the benchmark's own pass)."""
        return self._wrap(ROOT, fn)(*args, **kwargs)

    def _wrap(self, name: str, fn):
        stats = self.stats[name]
        stack = self._stack
        # Open spans of this layer: 1 while one is open, so recursive calls
        # pass straight through.
        depth = [0]
        pp = self.stats["adversary.player_payoffs"]
        bt = self.stats["batch.payoffs_at_transfers"]
        flag = FLAGS[name][1] if name in FLAGS else None
        counts_points = name == "batch.payoffs_at_transfers"

        def wrapper(*args, **kwargs):
            if depth[0]:
                return fn(*args, **kwargs)
            if counts_points:
                stats.points += _points(args, kwargs)
            pp_before = pp.calls
            bt_before = bt.calls
            depth[0] = 1
            child = [0.0]
            stack.append(child)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                depth[0] = 0
                stats.calls += 1
                stats.total_s += dt
                stats.self_s += dt - child[0]
                if stack:
                    stack[-1][0] += dt
            if flag is not None:
                stats.flagged += bool(flag(result, pp.calls - pp_before, bt.calls - bt_before))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Rebind every layer function in every loaded package module."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [
            m
            for key, m in sorted(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for name in LAYERS:
            mod_name, func_name = name.split(".")
            original = getattr(importlib.import_module(f"{PACKAGE}.{mod_name}"), func_name)
            wrapper = self._wrap(name, original)
            for module in modules:
                if getattr(module, func_name, None) is original:
                    self._saved.append((module, func_name, original))
                    setattr(module, func_name, wrapper)

    def uninstall(self) -> None:
        for module, func_name, original in reversed(self._saved):
            setattr(module, func_name, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
