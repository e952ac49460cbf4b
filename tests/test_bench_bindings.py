"""The benchmark's traced run wraps library functions by module and name.

`perfbench/spans.py` lists them in `TARGETS`, and in `EXPECTED` the spans
each workload must fire.  A rename in the library, or a code path that no
longer reaches a listed function, would otherwise show only as a "spans
never fired" error of a traced benchmark run.
"""

import importlib
import importlib.util
import json
import math
from pathlib import Path

import pytest

from ingham.cli import main

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


spans = _load_spans()


def _targets():
    return [(module, attr) for module, attr, _, _ in spans.TARGETS]


@pytest.mark.parametrize("module, attr", _targets())
def test_target_resolves_to_callable(module, attr):
    target = getattr(importlib.import_module(f"ingham.{module}"), attr, None)
    assert callable(target), f"ingham.{module}.{attr} is not a callable"


A_IRR = math.sqrt(2.0) / 2.0
MODES = [{"n": 1, "plus": [0.3, 0.1], "minus": [0.2, -0.4]}, {"n": 2, "plus": [-0.5, 0.0], "minus": [0.1, 0.1]}]
SEQ = {"omegas": [-3.1, -0.4, 0.2, 2.6, 5.6], "gamma": 1.2, "gamma0": 0.8}

# small configs per benchmark workload, covering the commands its cases run
WORKLOAD_RUNS = {
    "junction": [
        ("string", {"a": A_IRR, "left": MODES, "right": MODES[:1], "delta": 0.2, "J": 8,
                    "epsilon": 0.05, "trials": 3}),
        ("beam", {"a": A_IRR, "gamma": 8.0, "left": MODES, "right": MODES[:1], "delta": 0.015,
                  "J": 30, "epsilon": 0.05, "trials": 3}),
    ],
    "pencil": [
        ("frame", dict(SEQ, delta=0.25, J=16)),
        ("haraux", dict(SEQ, delta=0.2, J=20, omega_prime=4.1, J_prime=25)),
        ("scan", {"task": "continuum", "base": dict(SEQ, R=4.0), "axes": [{"name": "J", "values": [32]}]}),
    ],
    "poisson": [
        ("poisson", {"kernel": {"variant": "direct", "gamma": 1.0}, "delta": 0.8,
                     "sum": {"omegas": [-2.0, 0.5, 3.0], "coeffs": [[1.0, 0.0], [0.0, -1.0], [0.5, 0.0]]}}),
    ],
}


@pytest.mark.parametrize("workload", sorted(WORKLOAD_RUNS))
def test_expected_spans_fire(workload, tmp_path):
    recorder = spans.Recorder()
    with spans.traced(recorder):
        for k, (command, config) in enumerate(WORKLOAD_RUNS[workload]):
            path = tmp_path / f"{k}.json"
            path.write_text(json.dumps(config))
            code = main([command, "--input", str(path), "--output", str(tmp_path / f"{k}.out")])
            assert code == 0, (command, (tmp_path / f"{k}.out").read_text())
    calls = recorder.layer_metrics()
    missed = [name for name in spans.EXPECTED[workload] if not calls[f"{name}.calls"]]
    assert not missed, f"spans never fired on {workload}: {missed}"
