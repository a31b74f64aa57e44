"""Smoke tests of the benchmark itself, on tiny corpora.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

# Instance attributes that shrink each workload to a smoke-size corpus.
TINY = {
    "figure-sweep": {"steps": 4, "oracle_nodes": 2},
    "verify": {"commands": 2, "count": 2},
    "analyze-stratified": {"size": 10},
}


def tiny(name: str, seed: int, tmp: Path):
    wl = workloads.WORKLOADS[name](seed, tmp)
    for attr, value in TINY[name].items():
        setattr(wl, attr, value)
    return wl


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_counts_repeat_and_every_layer_metric_is_emitted(name, tmp_path):
    first = run.run_traced(tiny(name, 3, tmp_path), seconds=0.01)
    second = run.run_traced(tiny(name, 3, tmp_path), seconds=0.01)
    assert first["correct"] and first["counts_repeat"]
    for m in SPEC["per_layer"]:
        assert m["name"] in first["metrics"]
        assert run._unit(m["name"]) == m["unit"]
    counts = {
        k: v
        for k, (v, _) in first["metrics"].items()
        if not run._is_time(k) and k != "trace_overhead_frac"
    }
    assert counts == {k: second["metrics"][k][0] for k in counts}
    assert counts["adversary.player_payoffs.calls"] > 0


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_layer_self_times_fit_in_the_root_span(name, tmp_path):
    wl = tiny(name, 4, tmp_path)
    wl.warm_up()
    tracer = tracing.Tracer()
    with tracer:
        tracer.root(lambda: [wl.run(x) for x in wl.corpus()])
    root = tracer.stats[tracing.ROOT]
    layers = sum(tracer.stats[name].self_s for name in tracing.LAYERS)
    assert root.calls == 1
    assert 0.0 <= layers <= root.total_s
    assert layers + root.self_s == pytest.approx(root.total_s, rel=1e-6, abs=1e-9)
    assert all(tracer.stats[name].self_s >= 0.0 for name in tracing.LAYERS)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_untraced_run_emits_every_end_to_end_metric(name, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SETUP_PROBES", 2)
    result = run.run_untraced(tiny(name, 5, tmp_path), seconds=0.01, tmp=tmp_path)
    assert result["correct"] and result["attempted"] > 0
    for m in SPEC["end_to_end"]:
        value, n = result["metrics"][m["name"]]
        assert value > 0 and n >= 1
        assert run._unit(m["name"]) == m["unit"]
    assert result["digests"]


def test_tracer_restores_the_package():
    from coalitional_lotto import adversary, mutual

    before = mutual.player_payoffs
    with tracing.Tracer():
        assert mutual.player_payoffs.__wrapped__ is before
        assert adversary.player_payoffs is mutual.player_payoffs
    assert mutual.player_payoffs is before and adversary.player_payoffs is before


def test_same_seed_same_corpus(tmp_path):
    for name in run.WORKLOAD_NAMES:
        assert tiny(name, 9, tmp_path).corpus() == tiny(name, 9, tmp_path).corpus()
    games = tiny("analyze-stratified", 9, tmp_path).corpus()
    assert [workloads.region_of(g.x1, g.x2) for g in games[:5]] == list(workloads.REGIONS)
