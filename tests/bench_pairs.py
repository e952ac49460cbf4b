"""Compare two trees on every benchmark workload by alternating paired runs.

Usage, from the root of the repository:

    python3 tests/bench_pairs.py --parent DIR --seed 101 --out BENCH.json

DIR is another checkout of the repository, for example the parent commit
unpacked with `git archive`; its `perfbench/` files and `BENCHMARK.json`
must have the same bytes as this tree's, so that both sides run the same
benchmark.  For each workload of `BENCHMARK.json`, each of PAIRS pairs runs

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0 --out FILE

once in DIR and once in this tree, S being the benchmark's `run_seconds`,
each with its own tree as the working directory and in the environment of
`bench_identity.tree_env` at one BLAS thread, as `run.py` sets itself, so
each run imports its own `src/`.  The order is ABBA: even pairs run DIR
first, odd pairs this tree first, so that a slow spell of the host falls
on both trees alike.

Each end-to-end metric of `BENCHMARK.json` is judged on the values `run.py`
reports, by the rule of the acceptance check (see `judge`): "gain",
"worse", "unresolved" or "within bound".  Each workload appends one entry,
with each metric's quartiles, wins, losses and verdict and with every
run's metrics, notes and environment record, to the "comparisons" list of
the --out file, which is created if missing.  The exit code is 1 if a run
fails or a metric reads "worse", else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_identity import tree_env

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10


def benchmark() -> dict:
    """This tree's `BENCHMARK.json`: its workloads, run length and end-to-end metrics."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def benchmark_bytes(tree: Path) -> dict[Path, bytes]:
    """The bytes of `BENCHMARK.json` and of every `perfbench/` file of tree, caches left out."""
    paths = [*(tree / "perfbench").rglob("*"), tree / "BENCHMARK.json"]
    return {p.relative_to(tree): p.read_bytes()
            for p in paths if p.is_file() and "__pycache__" not in p.parts}


def parent_first(pair: int) -> bool:
    """ABBA order: the parent runs first in even pairs."""
    return pair % 2 == 0


def judge(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """One metric's verdict on paired values, parent[k] and change[k] being pair k.

    "gain": at least PAIRS pairs, the change wins nine tenths of them (ties
    count for neither side) and its median beats the parent's by more than
    the parent's interquartile range.  "worse": its median is worse than the
    parent's by more than bound x |parent median|.  "unresolved": the
    parent's interquartile range is wider than that, and not every change
    run reads better than every parent run.  Otherwise "within bound".
    """
    sign = 1.0 if better == "higher" else -1.0
    p = statistics.quantiles(parent, n=4, method="inclusive")
    c = statistics.quantiles(change, n=4, method="inclusive")
    wins = sum(sign * (b - a) > 0 for a, b in zip(parent, change))
    losses = sum(sign * (b - a) < 0 for a, b in zip(parent, change))
    spread, margin, shift = p[2] - p[0], bound * abs(p[1]), sign * (c[1] - p[1])
    if len(parent) >= PAIRS and wins >= 0.9 * len(parent) and shift > spread:
        verdict = "gain"
    elif -shift > margin:
        verdict = "worse"
    elif spread > margin and not min(sign * v for v in change) > max(sign * v for v in parent):
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {"parent": dict(zip(("q1", "median", "q3"), p)), "change": dict(zip(("q1", "median", "q3"), c)),
            "wins": wins, "losses": losses, "pairs": len(parent), "verdict": verdict}


def compare(runs: list[dict], metrics: list[dict]) -> dict:
    """Per metric, its `judge` summary of runs as a record's "runs" list holds them.

    metrics are `BENCHMARK.json` "end_to_end" entries.  Each run has "pair",
    "tree" ("parent" or "change") and "metrics", as `perfbench/run.py --out`
    writes them, in the order of the pairs; every pair holds one run of each tree.
    """
    out = {}
    for metric in metrics:
        name = metric["name"]
        values = {side: [r["metrics"][name]["value"] for r in runs if r["tree"] == side]
                  for side in ("parent", "change")}
        out[name] = {"better": metric["better"], "bound": metric["bound"],
                     **judge(values["parent"], values["change"], metric["better"], metric["bound"])}
    return out


def _run(tree: Path, workload: str, seed: int, seconds: float, out: Path) -> tuple[int, dict]:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0", "--out", str(out)]
    proc = subprocess.run(argv, cwd=tree, env=tree_env(1), capture_output=True, text=True,
                          timeout=20 * seconds + 600)
    if not out.is_file():
        sys.exit(f"error: no record from {tree}: {proc.stderr.strip()[-2000:]}")
    record = json.loads(out.read_text())
    return proc.returncode, {key: record[key] for key in ("metrics", "notes", "environment")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout to compare against")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True, help="JSON file the comparisons are appended to")
    args = parser.parse_args(argv)
    if benchmark_bytes(args.parent) != benchmark_bytes(ROOT):
        parser.error(f"perfbench/ or BENCHMARK.json under {args.parent} differ from this tree's")
    spec = benchmark()
    metrics, seconds = spec["end_to_end"], spec["run_seconds"]
    trees = {"parent": args.parent.resolve(), "change": ROOT}
    failed = worse = False
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
            for pair in range(PAIRS):
                for side in ("parent", "change") if parent_first(pair) else ("change", "parent"):
                    out = Path(tmp, f"{pair}-{side}.json")
                    code, record = _run(trees[side], workload, args.seed, seconds, out)
                    failed |= code != 0
                    runs.append({"pair": pair, "tree": side, "exit": code, **record})
                    line = " ".join(f"{m['name']}={record['metrics'][m['name']]['value']:.6g}" for m in metrics)
                    print(f"{workload} pair {pair} {side:6s} exit {code} {line}", flush=True)
        summary = compare(runs, metrics)
        for name, s in summary.items():
            p, c = s["parent"], s["change"]
            print(f"{workload:8s} {name:20s} parent {p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}] "
                  f"change {c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}] "
                  f"wins {s['wins']}/{s['pairs']} losses {s['losses']}: {s['verdict']}", flush=True)
            worse |= s["verdict"] == "worse"
        record = json.loads(args.out.read_text()) if args.out.is_file() else {"comparisons": []}
        record["comparisons"].append({
            "workload": workload, "seed": args.seed, "seconds": seconds, "pairs": PAIRS,
            "order": "ABBA, parent first in even pairs", "summary": summary, "runs": runs,
        })
        args.out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return 1 if failed or worse else 0


if __name__ == "__main__":
    sys.exit(main())
