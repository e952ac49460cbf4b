"""The benchmark's traced run wraps library functions by module and name.

`perfbench/spans.py` lists them in `TARGETS`; a rename in the library would
otherwise show only as a "spans never fired" error of a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(module, attr) for module, attr, _, _ in spans.TARGETS]


@pytest.mark.parametrize("module, attr", _targets())
def test_target_resolves_to_callable(module, attr):
    target = getattr(importlib.import_module(f"ingham.{module}"), attr, None)
    assert callable(target), f"ingham.{module}.{attr} is not a callable"
