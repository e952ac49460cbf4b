"""The benchmark's traced run must fire every span it expects on each workload.

`perfbench/spans.py` wraps library functions by module and name (`TARGETS`)
and lists in `EXPECTED` the spans each workload must fire.  Each case here
runs the benchmark's own warm-up cases, one of each kind, under `traced()`:
a renamed target fails with the `AttributeError` that names it, and a code
path that no longer reaches a listed function with "spans never fired".
"""

import sys
from pathlib import Path

import pytest

from ingham.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import spans  # noqa: E402
from workloads import WORKLOADS, warmup  # noqa: E402


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_expected_spans_fire(workload, tmp_path, capsys):
    recorder = spans.Recorder()
    with spans.traced(recorder):
        for i, case in enumerate(warmup(workload, 101)):
            path = tmp_path / f"{i}.json"
            path.write_bytes(case.config_bytes())
            code = main([case.command, "--input", str(path), "--seed", str(case.cli_seed)])
            assert code == (2 if case.refusal else 0), (case.case_id, capsys.readouterr())
    calls = recorder.layer_metrics()
    missed = [name for name in spans.EXPECTED[workload] if not calls[f"{name}.calls"]]
    assert not missed, f"spans never fired on {workload}: {missed}"
