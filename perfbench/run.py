"""Benchmark for the ingham CLI: seeded workloads, oracle checks, layer spans.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload pencil --seed 1 --seconds 30 --trace 0

Workloads (README.md says why each was chosen):
  pencil    frame, haraux and scan (continuum) configs; pencil dims 10-100
  poisson   summation identity, alternating direct and inverse kernels
  junction  string and beam observability with the CLI round trip

The load is a closed loop from one client: each case is one in-process
call of `ingham.cli.main`, and the next starts when it returns.  A run
repeats passes over the seeded case list, at least three times, and then
as long as the next pass should end within `--seconds`.  Fixed reference
work runs between the cases, and times are reported at reference speed
(README.md says why).  Outputs are checked against independent oracles
after the timed loop.

`--trace 0` prints the end-to-end metrics.  `--trace 1` runs each case of
one pass untraced and traced, and prints per-layer self time and work
counts plus the tracing overhead.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  The exit code is
non-zero when a check fails or the source tree is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# One BLAS thread: the load is one client and the pencils are small, so
# extra threads add scheduling noise but no throughput.  Must be set before
# numpy is first imported.
BLAS_THREADS = 1
BLAS_ENV = {var: str(BLAS_THREADS) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

# Other tenants of a shared host slow every call by up to 1.5x, and the
# slowdown changes from one second to the next; at any moment it is nearly
# the same for the program and for the fixed reference work below.  So each
# timed call sits between two runs of the reference work, and a call's time
# is reported at reference speed: wall time over the mean of its two
# reference times, times REF_SECONDS.  The two runs next to a call predict
# its slowdown better than the runs of any wider window.
REF_SECONDS = 0.0070  # median time of _reference() on an idle Xeon (family 6, model 207)
MIN_PASSES = 3
SETUP_REPEATS = 5
TAIL_BEYOND = 10
# floor of err_to_gate when taking its logarithm
MIN_ERR = 1e-16

END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("cases_per_s", "1/s"),
    ("gate_margin_digits", "digits"),
    ("peak_rss_mb", "MB"),
)


class Result(NamedTuple):
    index: int
    case: object
    code: int | None
    text: str
    seconds: float
    end: float = 0.0  # perf_counter() when the call returned
    ref: float = 0.0  # mean time of the reference work before and after
    scaled: float = 0.0  # seconds at reference speed


_REF_BUFFERS = []


def _reference() -> float:
    """Fixed work in the program's own mix: a scalar Python loop, small numpy
    updates on column pairs, and a complex exponential over a 2 MB array
    (the shape of `eval_sum` on a long grid).  The arrays are allocated
    once, so the work never depends on the state of the allocator."""
    import numpy as np  # imported here: BLAS_ENV must be set first

    if not _REF_BUFFERS:
        t = np.linspace(-500.0, 500.0, 16384)
        _REF_BUFFERS.extend([np.multiply.outer(t, np.linspace(-3.0, 3.0, 8)),
                             np.empty((16384, 8), dtype=complex), np.eye(24, dtype=complex)])
    phases, z, a = _REF_BUFFERS
    s = 0.0
    for i in range(5000):
        s += math.sin(i * 1e-3) * math.hypot(1.0, i)
    rot = np.array([[0.6, 0.8], [-0.8, 0.6]], dtype=complex)
    for p in range(60):
        cols = [p % 23, 23]
        a[:, cols] = a[:, cols] @ rot
    np.multiply(phases, 1j, out=z)
    np.exp(z, out=z)
    return s + float(np.abs(z.sum())) + float(a.real.sum())


def _time_reference() -> float:
    """Time of the reference work's second of two runs, so that what the
    program left in the caches does not count."""
    _reference()
    start = time.perf_counter()
    _reference()
    return time.perf_counter() - start


def _scaled(seconds: float, ref: float) -> float:
    """A wall time at reference speed."""
    return seconds * REF_SECONDS / ref


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("pencil", "poisson", "junction"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result record to this JSON file")
    return parser.parse_args(argv)


def _load_library():
    """Import ingham from this checkout's source tree, never from elsewhere."""
    if not (SRC / "ingham" / "__init__.py").is_file():
        raise SystemExit(f"error: no ingham source tree under {SRC}")
    sys.path.insert(0, str(SRC))
    import ingham
    import ingham.cli

    if Path(ingham.__file__).resolve().parent != SRC / "ingham":
        raise SystemExit(f"error: imported ingham from {ingham.__file__}, not from {SRC}")
    return ingham.cli.main


def _setup_times() -> list[tuple[float, float]]:
    """(wall, scaled) times of `import ingham` in fresh interpreters, after
    one discarded warm-up; the reference work runs before and after each."""
    code = "import time; t = time.perf_counter(); import ingham; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC), **BLAS_ENV)
    times = []
    for _ in range(SETUP_REPEATS + 1):
        before = _time_reference()
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=60, check=True)
        wall = float(out.stdout.strip())
        times.append((wall, _scaled(wall, 0.5 * (before + _time_reference()))))
    return times[1:]


def _blas_threads():
    import numpy as np

    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _environment(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_threads_env": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": args.seed,
        "workload": args.workload,
        "trace": args.trace,
    }


class Runner:
    """Executes cases through the in-process CLI entry point."""

    def __init__(self, cli_main, workdir: Path, cases):
        self.cli_main = cli_main
        self.cases = cases
        self.references = []
        self.paths = []
        for i, case in enumerate(cases):
            path = workdir / f"{i:04d}.json"
            path.write_bytes(case.config_bytes())
            self.paths.append(str(path))

    def call(self, index: int, recorder=None) -> Result:
        """Run one case; the result's code is None when the call raised."""
        case = self.cases[index]
        buf = io.StringIO()
        argv = [case.command, "--input", self.paths[index], "--seed", str(case.cli_seed)]
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = self.cli_main(argv)
        except Exception:  # a case that raises counts as failed, the run goes on
            code, buf = None, io.StringIO(traceback.format_exc())
        end = time.perf_counter()
        text = buf.getvalue()
        if recorder is not None:
            recorder.counts["cli.run.bytes_out"] += len(text.encode())
        return Result(index, case, code, text, end - start, end)

    def passes(self, seconds: float):
        """At least MIN_PASSES passes over all cases, then more while the next
        one should end within `seconds`; returns (results, wall) per pass.
        The reference work runs before the first case and after each case."""
        out = []
        refs = self.references = []  # (end, duration) of each reference run

        def reference():
            duration = _time_reference()
            refs.append((time.perf_counter(), duration))

        start = time.perf_counter()
        while len(out) < MIN_PASSES or time.perf_counter() - start + out[-1][1] <= seconds:
            t0 = time.perf_counter()
            reference()
            results = []
            for i in range(len(self.cases)):
                results.append(self.call(i))
                reference()
            before = len(refs) - len(results) - 1
            for k, res in enumerate(results):
                ref = 0.5 * (refs[before + k][1] + refs[before + k + 1][1])
                results[k] = res._replace(ref=ref, scaled=_scaled(res.seconds, ref))
            out.append((results, time.perf_counter() - t0))
        return out


def _check(results):
    """Oracle pass outside the timed region; returns (failures, error-to-gate
    ratio of each case that has one).

    Each case is checked once; every further run of it must print the same bytes.
    """
    from oracles import OracleFailure, check

    failures = []
    first = {}
    errs = []
    for res in results:
        case_id = res.case.case_id
        if res.code is None:
            failures.append((case_id, "raised: " + res.text.strip().splitlines()[-1]))
            continue
        if res.index in first:
            if res.text != first[res.index]:
                failures.append((case_id, "output differs from an earlier run of this config"))
            continue
        first[res.index] = res.text
        try:
            err = check(res.case, res.code, res.text)
        except (OracleFailure, KeyError, TypeError, ValueError) as exc:
            failures.append((case_id, f"{type(exc).__name__}: {exc}"))
            continue
        if err is not None:
            errs.append(err)
    return failures, errs


def _warm_up(warm_runner):
    for i in range(len(warm_runner.cases)):
        warm_runner.call(i)


def _measure(args, runner, warm_runner):
    # cold imports before and after the timed loop, so a slow spell of the
    # machine at either end moves the median less
    setup = _setup_times()
    _warm_up(warm_runner)
    passes = runner.passes(args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup += _setup_times()
    results = [res for pass_results, _ in passes for res in pass_results]
    failures, errs = _check(results)
    errs.sort()

    n = len(runner.cases)

    def per_case(field):
        """Each case's median over the passes, sorted."""
        return sorted(statistics.median(getattr(p[0][i], field) for p in passes) for i in range(n))

    scaled, wall = per_case("scaled"), per_case("seconds")
    beyond = min(TAIL_BEYOND, n - 1)
    err_tail = errs[max(len(errs) - 1 - TAIL_BEYOND, 0)] if errs else 0.0
    metrics = {
        "setup_s": statistics.median(s for _, s in setup),
        "latency_p50_ms": statistics.median(scaled) * 1e3,
        "latency_tail_ms": scaled[n - 1 - beyond] * 1e3,
        "cases_per_s": statistics.median(n / sum(res.scaled for res in p) for p, _ in passes),
        "gate_margin_digits": -math.log10(max(err_tail, MIN_ERR)),
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {
        "latency_tail_ms": f"p{100.0 * (n - beyond) / n:.1f} of {n} cases, {beyond} beyond, "
                           f"median of {len(passes)} passes",
        "err_to_gate": errs[-1] if errs else 0.0,
        "wall_clock": {
            "setup_s": statistics.median(w for w, _ in setup),
            "latency_p50_ms": statistics.median(wall) * 1e3,
            "latency_tail_ms": wall[n - 1 - beyond] * 1e3,
            "cases_per_s": statistics.median(n / sum(res.seconds for res in p) for p, _ in passes),
        },
        "pass_walls_s": [w for _, w in passes],
        "reference_s": statistics.median(res.ref for res in results),
        "failed_ratio": len(failures) / len(results),
    }
    return results, failures, {name: (metrics[name], unit) for name, unit in END_TO_END}, notes


def _trace(args, runner, warm_runner):
    """Each case runs once untraced and once traced, the order alternating by case."""
    from spans import EXPECTED, PER_LAYER, Recorder, traced

    _warm_up(warm_runner)
    recorder = Recorder()
    plain, spanned = [], []
    for i, case in enumerate(runner.cases):
        for with_spans in ((False, True) if i % 2 == 0 else (True, False)):
            if not with_spans:
                plain.append(runner.call(i))
                continue
            recorder.case = f"{i}:{case.case_id}"
            with traced(recorder) as bindings:
                spanned.append(runner.call(i, recorder))
    failures, _ = _check(plain + spanned)
    values = recorder.layer_metrics()
    values["trace.overhead_s"] = sum(res.seconds for res in spanned) - sum(res.seconds for res in plain)
    values["trace.cases"] = len(spanned)
    missing = [name for name in EXPECTED[args.workload] if values[f"{name}.calls"] == 0]
    if missing:
        raise SystemExit(f"error: spans never fired on {args.workload}: {', '.join(missing)}")
    notes = {"wrapped_bindings": bindings, "spans": len(recorder.spans),
             "untraced_s": sum(res.seconds for res in plain),
             "failed_ratio": len(failures) / (len(plain) + len(spanned))}
    metrics = {name: (values.get(name, 0), unit) for name, unit in PER_LAYER}
    return plain + spanned, failures, metrics, notes


def main(argv=None) -> int:
    args = _parse(argv)
    cli_main = _load_library()
    from workloads import generate, warmup

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        (workdir / "cases").mkdir()
        (workdir / "warm").mkdir()
        runner = Runner(cli_main, workdir / "cases", generate(args.workload, args.seed))
        warm_runner = Runner(cli_main, workdir / "warm", warmup(args.workload, args.seed))
        measure = _trace if args.trace else _measure
        results, failures, metrics, notes = measure(args, runner, warm_runner)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {
        "environment": _environment(args),
        "case_counts": dict(sorted(Counter(case.kind for case in runner.cases).items())),
        "notes": notes,
        "failures": failures[:20],
        "cases": [[res.case.case_id, res.code, res.end, res.seconds, res.scaled] for res in results],
        "references": runner.references,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    for case_id, reason in failures[:20]:
        print(f"FAILED {case_id}: {reason}")
    for name, (value, unit) in metrics.items():
        note = notes.get(name)
        print(f"{args.workload:9s} {name:44s} {value:14.6g} {unit}" + (f"  ({note})" if note else ""))
    for name, value in notes.get("wall_clock", {}).items():
        print(f"{args.workload:9s} {'wall ' + name:44s} {value:14.6g} {dict(END_TO_END)[name]}")
    for name in ("err_to_gate", "failed_ratio"):
        if name in notes:
            print(f"{args.workload:9s} {name:44s} {notes[name]:14.6g} ratio")
    print("record " + json.dumps({k: record[k] for k in ("environment", "case_counts", "notes")}))
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": record["metrics"],
    }))
    return 1 if failures else 0


def _terminate(signum, _frame):
    # unwinds through main(), which removes the configs and reaps any child
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    os.environ.update(BLAS_ENV)
    sys.exit(main())
