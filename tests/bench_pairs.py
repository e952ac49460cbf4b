"""Compare two trees on one benchmark workload by alternating paired runs.

Usage, from the root of the repository:

    python3 tests/bench_pairs.py --parent DIR --workload pencil --seed 101 \\
        --seconds 30 --pairs 10 --out BENCH.json

DIR is another checkout of the repository, for example the parent commit
unpacked with `git archive`.  Each pair runs

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0 --out FILE

once in DIR and once in this tree, each with its own tree as the working
directory, so each run imports its own `src/`.  The order is ABBA: even
pairs run DIR first, odd pairs this tree first, so that a slow spell of
the host falls on both trees alike.

For every end-to-end metric of `BENCHMARK.json`, each pair gives the ratio
change / parent, at reference speed (the metric as `run.py` reports it)
and in wall-clock time (its `notes.wall_clock`, for the metrics that have
one).  Per metric and clock the summary holds the median ratio, the number
of pairs the change won and lost by the metric's direction, and a 95%
percentile bootstrap interval of the median ratio, drawn with the stdlib
`random` from a fixed seed (Kalibera and Jones, "Rigorous benchmarking in
reasonable time", ISMM 2013).  A gain or a loss is claimed only when every
interval of the metric excludes 1 on the same side.  The comparison, with
each run's metrics, notes and environment record, the pairs' ratios and
the summaries, is appended to the "comparisons" list of the --out file,
which is created if missing.  The exit code is 1 if a run fails, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BOOTSTRAP_SEED = 20261019
BOOTSTRAP_DRAWS = 10000
LEVEL = 0.95


def directions() -> dict[str, str]:
    """{end-to-end metric: "lower" or "higher"}, as `BENCHMARK.json` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["better"] for metric in spec["end_to_end"]}


def parent_first(pair: int) -> bool:
    """ABBA order: the parent runs first in even pairs."""
    return pair % 2 == 0


def bootstrap_interval(ratios: list[float], rng: random.Random) -> tuple[float, float]:
    """Percentile bootstrap interval of the median of ratios at LEVEL."""
    medians = sorted(
        statistics.median(rng.choices(ratios, k=len(ratios))) for _ in range(BOOTSTRAP_DRAWS)
    )
    tail = (1.0 - LEVEL) / 2.0
    return medians[int(tail * BOOTSTRAP_DRAWS)], medians[int((1.0 - tail) * BOOTSTRAP_DRAWS) - 1]


def summarize(ratios: list[float], better: str, rng: random.Random) -> dict:
    """Median ratio, wins, losses and bootstrap interval of one metric on one clock."""
    wins = sum(r < 1.0 if better == "lower" else r > 1.0 for r in ratios)
    losses = sum(r > 1.0 if better == "lower" else r < 1.0 for r in ratios)
    lo, hi = bootstrap_interval(ratios, rng)
    return {"ratios": ratios, "median": statistics.median(ratios), "wins": wins,
            "losses": losses, "pairs": len(ratios), "interval": [lo, hi]}


def verdict(summaries: list[dict], better: str) -> str:
    """"gain" or "loss" when every interval excludes 1 on the same side, else "none"."""
    below = all(s["interval"][1] < 1.0 for s in summaries)
    above = all(s["interval"][0] > 1.0 for s in summaries)
    if not (below or above):
        return "none"
    return "gain" if below == (better == "lower") else "loss"


def compare(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per metric, the summaries of the change / parent ratios of every pair.

    Each pair is {"parent": record, "change": record}, a record being what
    `perfbench/run.py --out` writes (only "metrics" and "notes" are read).
    """
    rng = random.Random(BOOTSTRAP_SEED)
    out = {}
    for name, direction in better.items():
        clocks = {}
        reference = [p["change"]["metrics"][name]["value"] / p["parent"]["metrics"][name]["value"]
                     for p in pairs]
        clocks["reference"] = summarize(reference, direction, rng)
        walls = [(p["change"]["notes"].get("wall_clock", {}).get(name),
                  p["parent"]["notes"].get("wall_clock", {}).get(name)) for p in pairs]
        if all(c is not None and b is not None for c, b in walls):
            clocks["wall_clock"] = summarize([c / b for c, b in walls], direction, rng)
        out[name] = {"better": direction, **clocks, "verdict": verdict(list(clocks.values()), direction)}
    return out


def _run(tree: Path, args, out: Path) -> tuple[int, dict]:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH" and not k.startswith("INGHAM_")}
    argv = [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", "0", "--out", str(out)]
    proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True,
                          timeout=20 * args.seconds + 600)
    if not out.is_file():
        sys.exit(f"error: no record from {tree}: {proc.stderr.strip()[-2000:]}")
    record = json.loads(out.read_text())
    return proc.returncode, {key: record[key] for key in ("metrics", "notes", "environment")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout to compare against")
    parser.add_argument("--workload", required=True, choices=("pencil", "poisson", "junction"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True, help="JSON file the comparison is appended to")
    args = parser.parse_args(argv)
    if not (args.parent / "perfbench" / "run.py").is_file():
        parser.error(f"no perfbench/run.py under {args.parent}")
    better = directions()
    trees = {"parent": args.parent.resolve(), "change": ROOT}
    runs, pairs, failed = [], [], False
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        for pair in range(args.pairs):
            order = ("parent", "change") if parent_first(pair) else ("change", "parent")
            records = {}
            for side in order:
                code, records[side] = _run(trees[side], args, Path(tmp, f"{pair}-{side}.json"))
                failed |= code != 0
                runs.append({"pair": pair, "tree": side, "exit": code, **records[side]})
                line = " ".join(f"{n}={records[side]['metrics'][n]['value']:.6g}" for n in better)
                print(f"pair {pair} {side:6s} exit {code} {line}", flush=True)
            pairs.append(records)
    summary = compare(pairs, better)
    for name, s in summary.items():
        for clock in ("reference", "wall_clock"):
            if clock in s:
                c = s[clock]
                print(f"{name:20s} {clock:10s} median {c['median']:.4f} wins {c['wins']}/{c['pairs']} "
                      f"interval [{c['interval'][0]:.4f}, {c['interval'][1]:.4f}]")
        print(f"{name:20s} verdict {s['verdict']}")
    record = json.loads(args.out.read_text()) if args.out.is_file() else {"comparisons": []}
    record["comparisons"].append({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "pairs": args.pairs,
        "order": "ABBA, parent first in even pairs",
        "bootstrap": {"seed": BOOTSTRAP_SEED, "draws": BOOTSTRAP_DRAWS, "level": LEVEL},
        "summary": summary, "runs": runs,
    })
    args.out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
