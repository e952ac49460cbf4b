"""`tests/bench_pairs.py` judges alternating benchmark pairs by the acceptance
rule: on synthetic runs, with no subprocess, and on the committed records."""

import json
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import bench_pairs  # noqa: E402

END_TO_END = bench_pairs.benchmark()["end_to_end"]
METRICS = [m for m in END_TO_END if m["name"] in ("latency_tail_ms", "cases_per_s", "gate_margin_digits")]


def runs(parent, change):
    """Raw runs as a record holds them, from per-pair (tail, rate) values of each tree."""
    out = []
    for pair, values in enumerate(zip(parent, change)):
        for tree, (tail, rate) in zip(("parent", "change"), values):
            metrics = {"latency_tail_ms": tail, "cases_per_s": rate, "gate_margin_digits": 5.365}
            out.append({"pair": pair, "tree": tree, "metrics": {k: {"value": v} for k, v in metrics.items()}})
    return out


def verdicts(parent, change):
    return {name: s["verdict"] for name, s in bench_pairs.compare(runs(parent, change), METRICS).items()}


def test_directions_come_from_the_benchmark():
    better = {metric["name"]: (metric["better"], metric["bound"]) for metric in END_TO_END}
    assert better["latency_tail_ms"] == ("lower", 0.25) and better["cases_per_s"] == ("higher", 0.25)
    assert set(better) >= {"setup_s", "latency_p50_ms", "gate_margin_digits", "peak_rss_mb"}
    assert better["peak_rss_mb"] == ("lower", 0.1)


def test_abba_order():
    assert [bench_pairs.parent_first(k) for k in range(4)] == [True, False, True, False]


def test_consistent_gain():
    parent = [(2.0 + 0.01 * k, 500.0 + k) for k in range(10)]
    change = [(1.8 + 0.01 * k, 550.0 + k) for k in range(10)]
    summary = bench_pairs.compare(runs(parent, change), METRICS)
    tail = summary["latency_tail_ms"]
    assert (tail["wins"], tail["losses"], tail["pairs"]) == (10, 0, 10)
    assert tail["parent"] == pytest.approx({"q1": 2.0225, "median": 2.045, "q3": 2.0675})
    assert tail["change"]["median"] == pytest.approx(1.845)
    assert tail["verdict"] == "gain" and tail["better"] == "lower" and tail["bound"] == 0.25
    # higher is better: a larger rate is a gain too
    assert summary["cases_per_s"]["verdict"] == "gain"
    # an unchanged metric is neither won nor lost
    gate = summary["gate_margin_digits"]
    assert (gate["wins"], gate["losses"], gate["verdict"]) == (0, 0, "within bound")


def test_nine_tenths_of_the_pairs():
    parent = [(2.0, 500.0)] * 10
    eight = [(1.8, 550.0)] * 8 + [(2.1, 490.0)] * 2
    assert verdicts(parent, eight)["latency_tail_ms"] == "within bound"
    assert verdicts(parent, eight)["cases_per_s"] == "within bound"
    nine = [(1.8, 550.0)] * 9 + [(2.1, 490.0)]
    assert verdicts(parent, nine) == {"latency_tail_ms": "gain", "cases_per_s": "gain",
                                      "gate_margin_digits": "within bound"}
    # ties count for neither side: 8 wins and 2 ties are 8 of 10
    ties = [(1.8, 550.0)] * 8 + [(2.0, 500.0)] * 2
    assert verdicts(parent, ties)["latency_tail_ms"] == "within bound"


def test_win_inside_the_parents_spread_is_no_gain():
    parent = [(2.0 + 0.1 * (k % 4), 500.0) for k in range(10)]
    change = [(p[0] - 0.05, 500.0) for p in parent]
    tail = bench_pairs.compare(runs(parent, change), METRICS)["latency_tail_ms"]
    assert tail["wins"] == 10 and tail["verdict"] == "within bound"


def test_six_of_six_is_no_gain():
    summary = bench_pairs.compare(runs([(2.0, 500.0)] * 6, [(1.5, 700.0)] * 6), METRICS)
    assert summary["latency_tail_ms"]["wins"] == 6
    assert {s["verdict"] for s in summary.values()} == {"within bound"}


def test_shift_past_the_bound_is_worse():
    assert verdicts([(2.0, 500.0)] * 10, [(2.6, 500.0)] * 10)["latency_tail_ms"] == "worse"
    assert verdicts([(2.0, 500.0)] * 10, [(2.4, 360.0)] * 10) == {
        "latency_tail_ms": "within bound", "cases_per_s": "worse", "gate_margin_digits": "within bound"}


def test_wide_spread_is_unresolved():
    parent = [(1.0 + 0.3 * (k % 2), 500.0) for k in range(10)]
    assert verdicts(parent, parent)["latency_tail_ms"] == "unresolved"
    # unless every change run reads better than every parent run
    assert verdicts(parent, [(0.95, 500.0)] * 10)["latency_tail_ms"] == "within bound"


def test_noise_reads_within_bound():
    rng = random.Random(7)
    noisy = [[(2.0 * rng.uniform(0.95, 1.05), 500.0 * rng.uniform(0.95, 1.05)) for _ in range(10)]
             for _ in range(2)]
    assert set(verdicts(*noisy).values()) == {"within bound"}


def comparisons(name):
    return json.loads((bench_pairs.ROOT / name).read_text())["comparisons"]


def test_committed_records():
    """The rule's verdicts on the raw runs of earlier records."""
    first = comparisons("BENCH_26.json")[0]
    assert (first["workload"], first["seed"]) == ("pencil", 101)
    summary = bench_pairs.compare(first["runs"], END_TO_END)
    gains = {"latency_p50_ms", "latency_tail_ms", "cases_per_s"}
    assert {n: s["verdict"] for n, s in summary.items()} == {
        m["name"]: "gain" if m["name"] in gains else "within bound" for m in END_TO_END}
    nulls = [c for c in comparisons("BENCH_27.json") if "null test" in c.get("parent_tree", "")]
    assert len(nulls) == 2
    for null in nulls:
        summary = bench_pairs.compare(null["runs"], END_TO_END)
        assert {s["verdict"] for s in summary.values()} == {"within bound"}
    (replay,) = [c for c in comparisons("BENCH_29.json") if c.get("replay") == "PR 25 on junction"]
    tail = bench_pairs.compare(replay["runs"], END_TO_END)["latency_tail_ms"]
    assert (tail["wins"], tail["pairs"], tail["verdict"]) == (6, 6, "within bound")


def tree(root, spec=b"{}\n"):
    (root / "perfbench" / "__pycache__").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_bytes(b"print(1)\n")
    (root / "BENCHMARK.json").write_bytes(spec)
    return root


def test_parent_must_run_the_same_benchmark(tmp_path):
    a, b = tree(tmp_path / "a"), tree(tmp_path / "b")
    (b / "perfbench" / "__pycache__" / "run.cpython.pyc").write_bytes(b"\0")
    assert bench_pairs.benchmark_bytes(a) == bench_pairs.benchmark_bytes(b)
    (b / "perfbench" / "run.py").write_bytes(b"print(2)\n")
    assert bench_pairs.benchmark_bytes(a) != bench_pairs.benchmark_bytes(b)
    assert bench_pairs.benchmark_bytes(a) != bench_pairs.benchmark_bytes(tree(tmp_path / "c", b"[]\n"))
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as refused:
        bench_pairs.main(["--parent", str(a), "--seed", "101", "--out", str(out)])
    assert refused.value.code == 2 and not out.exists()
