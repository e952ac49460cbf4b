"""Check that two runs give the same CLI output on every benchmark case.

Usage, from the root of the repository:

    python3 tests/bench_identity.py --parent DIR [--seeds 101,102,103]
    python3 tests/bench_identity.py --threads A,B [--seeds 101,102,103]

With --parent, DIR is another checkout of the repository, for example the
parent commit unpacked with `git archive`, and both trees run with one
BLAS thread.  With --threads, this tree runs twice, with A and with B
OpenBLAS (and OpenMP, MKL) threads.  Every case that
`perfbench/workloads.py` of this tree generates for the three workloads
and the given seeds is written as a config once.  Then one subprocess per
run imports its tree's `src/` alone and runs each case through its
`ingham.cli.main`, with the argv the benchmark uses and with
`-W error::RuntimeWarning`, as the test suite runs.  A case differs when
its exit code or the bytes it writes to stdout differ; a call that raises,
a numpy warning included, is recorded by its exception type and message.
The tool prints one line per differing case and a summary, and exits 1 if
any case differs, else 0.  A differing case that keeps its exit code also
shows how far it moved (`largest_change`): the largest relative change over
the paired numbers of its two JSON outputs, or "structure differs" where
anything else differs.  The summary gives the largest change over all cases
and the count of cases that moved in exit code or structure.

The worker (`start_worker`) and the environment it runs in (`tree_env`)
serve `tests/bench_accuracy.py` too, and `tree_env` serves
`tests/bench_pairs.py`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# runs in a fresh interpreter: argv is the tree's src/, the case list and the result file
_WORKER = r"""
import contextlib, io, json, sys
from pathlib import Path
src, cases_path, out_path = sys.argv[1:]
sys.path.insert(0, src)
import ingham.cli
if Path(ingham.cli.__file__).resolve().parent != Path(src, "ingham").resolve():
    sys.exit(f"imported ingham from {ingham.cli.__file__}, not from {src}")
results = {}
for case_id, argv in json.loads(Path(cases_path).read_text()):
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = ingham.cli.main(argv)
        text = buf.getvalue()
    except (Exception, SystemExit) as exc:
        code, text = None, f"{type(exc).__name__}: {exc}"
    results[case_id] = [code, text]
Path(out_path).write_text(json.dumps(results))
"""


def _change(a, b) -> float | None:
    """The largest relative change |x - y| / max(|x|, |y|) over the numbers paired by position
    in a and b, 0.0 if none; None where anything else differs: a key, a length, a string, a
    bool or a non-finite number."""
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return None
        pairs = [(a[k], b[k]) for k in a]
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return None
        pairs = list(zip(a, b))
    elif all(isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x) for x in (a, b)):
        return abs(a - b) / max(abs(a), abs(b)) if a != b else 0.0
    else:
        return 0.0 if a == b and type(a) is type(b) else None
    largest = 0.0
    for x, y in pairs:
        moved = _change(x, y)
        if moved is None:
            return None
        largest = max(largest, moved)
    return largest


def largest_change(before: str, after: str) -> float | None:
    """`_change` of two JSON texts; None where either is not JSON."""
    try:
        return _change(json.loads(before), json.loads(after))
    except ValueError:
        return None


def _cases(seeds, workdir: Path) -> list[tuple[str, list[str]]]:
    """(case id, CLI argv) of every case of every workload and seed, configs written to workdir."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS, generate

    cases = []
    for seed in seeds:
        for workload in WORKLOADS:
            for i, case in enumerate(generate(workload, seed)):
                path = workdir / f"{seed}-{workload}-{i:04d}.json"
                path.write_bytes(case.config_bytes())
                argv = [case.command, "--input", str(path), "--seed", str(case.cli_seed)]
                cases.append((f"{seed}/{workload}/{i} {case.case_id}", argv))
    return cases


def tree_env(threads: int) -> dict[str, str]:
    """The environment a tree runs in: no PYTHONPATH and no INGHAM_* variable, so that it
    imports its own `src/` with no setting of the caller's, and `threads` BLAS threads."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH" and not k.startswith("INGHAM_")}
    env.update({var: str(threads) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
    return env


def start_worker(tree: Path, threads: int, cases_path: Path, out_path: Path) -> subprocess.Popen:
    """Run the (case id, argv) list at cases_path through tree's `ingham.cli.main` in a fresh
    interpreter; out_path receives {case id: [exit code or None, stdout or the exception]}."""
    # as in the test suite, a numpy warning is an error, so a case that starts to warn differs
    argv = [sys.executable, "-W", "error::RuntimeWarning", "-c", _WORKER,
            str(tree / "src"), str(cases_path), str(out_path)]
    return subprocess.Popen(argv, env=tree_env(threads), cwd=tree)


def _thread_pair(text: str) -> tuple[int, int]:
    counts = tuple(int(n) for n in text.split(","))
    if len(counts) != 2 or min(counts) < 1:
        raise ValueError(text)
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--parent", type=Path, help="checkout to compare against, both at one BLAS thread")
    mode.add_argument("--threads", type=_thread_pair, metavar="A,B",
                      help="compare this tree under A and under B BLAS threads")
    parser.add_argument("--seeds", default="101,102,103", help="comma-separated workload seeds")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    if args.parent and not (args.parent / "src" / "ingham" / "__init__.py").is_file():
        parser.error(f"no ingham source tree under {args.parent}")
    # (tree, BLAS threads) of the run before and of the run after
    runs = [(args.parent.resolve(), 1), (ROOT, 1)] if args.parent else [(ROOT, n) for n in args.threads]
    with tempfile.TemporaryDirectory(prefix="bench-identity-") as tmp:
        workdir = Path(tmp)
        cases = _cases(seeds, workdir)
        (workdir / "cases.json").write_text(json.dumps(cases))
        procs = [start_worker(tree, threads, workdir / "cases.json", workdir / f"run{k}.json")
                 for k, (tree, threads) in enumerate(runs)]
        if any([proc.wait() != 0 for proc in procs]):
            print("error: a worker failed", file=sys.stderr)
            return 2
        before, after = (json.loads((workdir / f"run{k}.json").read_text()) for k in range(2))
    differ = [case_id for case_id, _ in cases if before[case_id] != after[case_id]]
    largest, other = 0.0, 0
    for case_id in differ:
        (code, text), (code_after, text_after) = before[case_id], after[case_id]
        moved = largest_change(text, text_after) if code == code_after else None
        if moved is not None:
            largest, note = max(largest, moved), f", moved {moved:.2g}"
        else:
            other, note = other + 1, ", structure differs" if code == code_after else ""
        print(f"DIFFERS {case_id}: exit {code} -> {code_after}{note}")
    print(f"{len(differ)} of {len(cases)} cases differ (seeds {args.seeds}); largest relative change"
          f" {largest:.2g}, {other} with another exit code or structure")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
