"""`tests/bench_pairs.py` summarizes alternating benchmark pairs: its statistics
on synthetic records, with no subprocess."""

import random
import statistics
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import bench_pairs  # noqa: E402

BETTER = {"latency_tail_ms": "lower", "cases_per_s": "higher", "gate_margin_digits": "higher"}


def record(tail, rate, gate=5.365, wall_tail=None):
    notes = {"wall_clock": {"latency_tail_ms": tail if wall_tail is None else wall_tail, "cases_per_s": rate}}
    metrics = {"latency_tail_ms": tail, "cases_per_s": rate, "gate_margin_digits": gate}
    return {"metrics": {k: {"value": v, "unit": ""} for k, v in metrics.items()}, "notes": notes}


def test_directions_come_from_the_benchmark():
    better = bench_pairs.directions()
    assert better["latency_tail_ms"] == "lower" and better["cases_per_s"] == "higher"
    assert set(better) >= {"setup_s", "latency_p50_ms", "gate_margin_digits", "peak_rss_mb"}


def test_abba_order():
    assert [bench_pairs.parent_first(k) for k in range(4)] == [True, False, True, False]


def test_consistent_gain():
    pairs = [{"parent": record(2.0 + 0.01 * k, 500.0), "change": record(1.8 + 0.01 * k, 550.0)}
             for k in range(10)]
    summary = bench_pairs.compare(pairs, BETTER)
    tail = summary["latency_tail_ms"]
    assert tail["reference"]["wins"] == 10 and tail["reference"]["losses"] == 0
    assert tail["reference"]["median"] == pytest.approx(statistics.median(
        (1.8 + 0.01 * k) / (2.0 + 0.01 * k) for k in range(10)))
    assert tail["reference"]["interval"][1] < 1.0 and tail["wall_clock"]["interval"][1] < 1.0
    assert tail["verdict"] == "gain"
    # higher is better: a larger rate is a gain too
    assert summary["cases_per_s"]["reference"]["median"] == pytest.approx(1.1)
    assert summary["cases_per_s"]["verdict"] == "gain"
    # an unchanged metric is neither won nor lost, and its interval is exactly 1
    gate = summary["gate_margin_digits"]
    assert (gate["reference"]["wins"], gate["reference"]["losses"]) == (0, 0)
    assert gate["reference"]["interval"] == [1.0, 1.0] and gate["verdict"] == "none"
    assert "wall_clock" not in gate


def test_loss_and_disagreeing_clocks():
    pairs = [{"parent": record(2.0, 500.0), "change": record(2.2, 450.0)} for _ in range(6)]
    assert bench_pairs.compare(pairs, BETTER)["latency_tail_ms"]["verdict"] == "loss"
    # faster at reference speed, slower on the wall clock: no claim either way
    pairs = [{"parent": record(2.0, 500.0, wall_tail=2.0), "change": record(1.8, 500.0, wall_tail=2.2)}
             for _ in range(6)]
    assert bench_pairs.compare(pairs, BETTER)["latency_tail_ms"]["verdict"] == "none"


def test_noise_gives_an_interval_around_one():
    rng = random.Random(7)
    pairs = [{"parent": record(2.0 * rng.uniform(0.95, 1.05), 500.0),
              "change": record(2.0 * rng.uniform(0.95, 1.05), 500.0)} for _ in range(10)]
    tail = bench_pairs.compare(pairs, BETTER)["latency_tail_ms"]
    lo, hi = tail["reference"]["interval"]
    assert lo < 1.0 < hi and lo <= tail["reference"]["median"] <= hi
    assert tail["verdict"] == "none"


def test_bootstrap_is_reproducible():
    ratios = [0.9, 1.1, 0.95, 1.02, 0.97, 1.04, 0.99]
    first = bench_pairs.bootstrap_interval(ratios, random.Random(bench_pairs.BOOTSTRAP_SEED))
    again = bench_pairs.bootstrap_interval(ratios, random.Random(bench_pairs.BOOTSTRAP_SEED))
    assert first == again and min(ratios) <= first[0] <= first[1] <= max(ratios)
