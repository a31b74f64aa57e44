"""``scripts/bench_pairs.py``: the summary of interleaved A/B pairs, on fixed numbers."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).parent.parent / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Five pairs of verify ``wall_s`` readings, base then change.
BASE = [0.1370, 0.1373, 0.1348, 0.1364, 0.1343]
CHANGE = [0.1303, 0.1313, 0.1293, 0.1316, 0.1263]


def test_quartiles_interpolate_between_order_statistics(bench_pairs):
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 4.0)
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0]) == (1.75, 3.25)


def test_a_clear_gain(bench_pairs):
    s = bench_pairs.summarize(BASE, CHANGE)
    assert s["pairs"] == 5 and s["wins"] == 5
    assert (s["base_median"], s["change_median"]) == (0.1364, 0.1303)
    assert s["base_iqr"] == pytest.approx(0.1370 - 0.1348)
    assert s["relative"] == pytest.approx(0.1303 / 0.1364 - 1.0)
    assert s["clear"]


def test_the_other_way_round_is_no_gain(bench_pairs):
    s = bench_pairs.summarize(CHANGE, BASE)
    assert s["wins"] == 0 and not s["clear"]


def test_nine_wins_in_ten_and_a_median_gap_beyond_the_iqr(bench_pairs):
    base = [1.0, 1.1, 0.9, 1.0, 1.05, 0.95, 1.0, 1.02, 0.98, 1.0]
    nine = [0.8] * 9 + [1.2]
    assert bench_pairs.summarize(base, nine)["clear"]
    eight = [0.8] * 8 + [1.2, 1.2]
    s = bench_pairs.summarize(base, eight)
    assert s["wins"] == 8 and not s["clear"]
    # Every pair won, but by less than the base's spread.
    close = [b - 0.01 for b in base]
    s = bench_pairs.summarize(base, close)
    assert s["wins"] == 10 and s["base_iqr"] > 0.01 and not s["clear"]
    # A tie is no win.
    assert bench_pairs.summarize(base, base)["wins"] == 0


def test_pairs_must_match(bench_pairs):
    with pytest.raises(ValueError):
        bench_pairs.summarize(BASE, CHANGE[:-1])
    with pytest.raises(ValueError):
        bench_pairs.summarize([1.0], [0.9])


def test_every_end_to_end_metric_of_the_benchmark_is_better_lower(bench_pairs):
    spec = json.loads((SCRIPT.parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert all(m["better"] == "lower" for m in spec["end_to_end"])
    assert bench_pairs.end_to_end_metrics() == [m["name"] for m in spec["end_to_end"]]


def test_one_summary_per_metric_from_the_same_pairs(bench_pairs):
    # Five pairs of figure-sweep runs: wall_s gains clearly, setup_s and
    # peak_rss_mb are read from the same runs.
    setup_base, setup_change = [0.21, 0.20, 0.22, 0.21, 0.20], [0.22, 0.21, 0.22, 0.23, 0.21]
    rss_base, rss_change = [61.0, 61.2, 61.1, 61.0, 61.3], [61.4, 61.5, 61.3, 61.6, 61.4]
    base = [
        {"setup_s": s, "wall_s": w, "peak_rss_mb": r}
        for s, w, r in zip(setup_base, BASE, rss_base)
    ]
    change = [
        {"setup_s": s, "wall_s": w, "peak_rss_mb": r}
        for s, w, r in zip(setup_change, CHANGE, rss_change)
    ]
    metrics = ["setup_s", "wall_s", "peak_rss_mb"]
    got = bench_pairs.summarize_all(base, change, metrics)
    assert list(got) == metrics
    assert got["wall_s"] == bench_pairs.summarize(BASE, CHANGE)
    assert got["setup_s"] == bench_pairs.summarize(setup_base, setup_change)
    assert got["peak_rss_mb"]["wins"] == 0
    assert (got["peak_rss_mb"]["base_median"], got["peak_rss_mb"]["change_median"]) == (61.1, 61.4)
    assert bench_pairs.summary_line("wall_s", got["wall_s"]) == (
        "wall_s: base median 0.1364 (IQR 0.0022), change median 0.1303 (-4.5%); "
        "change wins 5 of 5; clear gain: yes"
    )
    assert bench_pairs.summary_line("setup_s", got["setup_s"]) == (
        "setup_s: base median 0.21 (IQR 0.01), change median 0.22 (+4.8%); "
        "change wins 0 of 5; clear gain: no"
    )


def test_an_unknown_metric_is_a_usage_error(bench_pairs):
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--base", "HEAD", "--workload", "verify", "--seed", "3",
                          "--seconds", "1", "--metric", "wall"])
    assert exc.value.code == 2


def test_too_few_pairs_is_a_usage_error(bench_pairs):
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--base", "HEAD", "--workload", "verify", "--seed", "3",
                          "--seconds", "1", "--pairs", "1"])
    assert exc.value.code == 2
