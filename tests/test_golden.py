"""Golden CLI outputs: every refactor must reproduce them byte for byte.

Each case is a config `tests/golden/<name>.json` run as `ingham <command>
--input <config> <flags>` through the in-process `ingham.cli.main`; the
exact bytes written to `--output` must equal `tests/golden/<name>.out`.
The configs are those of `tests/test_cli.py` and the README examples.

The outputs pin the numerics of one numpy/LAPACK build. After a
deliberate change of the output, or on a platform whose libm or LAPACK
rounds differently, regenerate them with

    PYTHONPATH=src python3 tests/test_golden.py --write

and review the diff: a changed value is a changed result.
"""

import os
import sys
from pathlib import Path

import pytest

from ingham.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

# name -> (command, extra flags); the config is GOLDEN / f"{name}.json"
CASES = {
    "gaps_chain": ("gaps", ()),
    "gaps_chain_csv": ("gaps", ("--format", "csv")),
    "gaps_violation": ("gaps", ()),
    "kernel_direct": ("kernel", ()),
    "kernel_inverse_inadmissible": ("kernel", ()),
    "poisson_direct": ("poisson", ()),
    "poisson_inverse": ("poisson", ()),
    "poisson_band_violation": ("poisson", ()),
    "poisson_band_off": ("poisson", ()),
    "frame_chain": ("frame", ()),
    "frame_singular": ("frame", ()),
    "haraux_chain": ("haraux", ()),
    "haraux_collision": ("haraux", ()),
    "string": ("string", ()),
    "string_seed1": ("string", ("--seed", "1")),
    "string_horizon": ("string", ()),
    "beam": ("beam", ()),
    "scan_frame_delta": ("scan", ()),
    "scan_frame_delta_csv": ("scan", ("--format", "csv")),
    "scan_frame_two_axes": ("scan", ()),
    "scan_frame_single": ("scan", ()),
    "scan_continuum": ("scan", ()),
    "scan_gaps": ("scan", ()),
    "readme_frame": ("frame", ()),
    "readme_scan": ("scan", ()),
}


def run_case(name: str, out_path: Path) -> int:
    command, flags = CASES[name]
    cfg = GOLDEN / f"{name}.json"
    return main([command, "--input", str(cfg), "--output", str(out_path), *flags])


@pytest.fixture(autouse=True)
def _no_ingham_env(monkeypatch):
    for key in [k for k in os.environ if k.startswith("INGHAM_")]:
        monkeypatch.delenv(key)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path):
    out = tmp_path / "out"
    run_case(name, out)
    assert out.read_bytes() == (GOLDEN / f"{name}.out").read_bytes()


def test_every_golden_file_has_a_case():
    names = {p.name.rsplit(".", 1)[0] for p in GOLDEN.iterdir()}
    assert names == set(CASES)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python3 tests/test_golden.py --write")
    for case in sorted(CASES):
        code = run_case(case, GOLDEN / f"{case}.out")
        print(f"{case}: exit {code}")
