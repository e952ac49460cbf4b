"""The oracles accept the library's output and reject a perturbed one.

Run with: python3 -m pytest perfbench
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ingham.cli import main  # noqa: E402
from oracles import OracleFailure, check  # noqa: E402
from workloads import generate  # noqa: E402


@pytest.mark.parametrize(
    "workload, kind, field, perturb",
    [
        ("pencil", "frame", "c_upper", lambda v: v * 1.001),
        ("pencil", "singular", "singular", lambda v: False),
        ("poisson", "inverse", "lhs", lambda v: v + 1e-6),
        ("junction", "string", "c_empirical", lambda v: v * 1e6),
    ],
)
def test_oracle_rejects_perturbed_output(workload, kind, field, perturb, tmp_path):
    case = next(c for c in generate(workload, 3) if c.kind == kind)
    path = tmp_path / "cfg.json"
    path.write_bytes(case.config_bytes())
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([case.command, "--input", str(path), "--seed", str(case.cli_seed)])
    err = check(case, code, buf.getvalue())
    assert err is None or err <= 1.0
    env = json.loads(buf.getvalue())
    env["report"][field] = perturb(env["report"][field])
    with pytest.raises(OracleFailure):
        check(case, code, json.dumps(env))
