"""Golden CLI outputs: every refactor must reproduce them byte for byte.

Each case is a config `tests/golden/<name>.json` run as `ingham <command>
--input <config> <flags>` through the in-process `ingham.cli.main`; the
exact bytes written to `--output` must equal `tests/golden/<name>.out`,
and the exit code must equal the one recorded in `CASES`.  Each JSON
`.out` must also be what `json.dumps(..., sort_keys=True, indent=2)`
writes for its own parse, so the stdlib stays the oracle of the format
that `ingham.cli` writes by hand.  The configs are
those of `tests/test_cli.py` and the README examples, plus edge cases of
the report serializer: an unset field left out (`kernel_direct_R`), a set
one kept (`string_gamma`), validation details, integer-keyed maps that
sort as strings (`gaps_lead10`), CSV forms of nested reports, and the
structural envelope of a continuum scan at J = 0 (`scan_continuum_j0`),
a tail plan too long to allocate (`poisson_tail_too_long`), a kernel
margin outside [0, 1) (`kernel_inverse_margin`), and a direct kernel whose
beta overflows (`kernel_direct_overflow`).  Three pin the observability
round trip: it is reported at zero trials (`string_trials0`), in CSV
(`beam_csv`), and refused with fewer samples than exponents
(`string_rank_deficient`).  Three pin the inverse kernel's alpha: on
the branch x -> gamma (`kernel_inverse`), on the branch x -> 0
(`kernel_inverse_x0_branch`), and refused at R gamma <= pi
(`kernel_inverse_pinch`); one pins its refusal when R^2 or (R gamma)^2
overflows (`kernel_inverse_overflow`).  Three pin the scan rows of the haraux task
(`scan_haraux`, `scan_haraux_csv`) and the `;` join of the gaps task's
A2 leads in CSV (`scan_gaps_csv`).  Three pin the count rule's refusal of
a J or J' above 2^53 (`haraux_jprime_huge`, `frame_j_huge`,
`string_j_huge`), one a tail plan whose J no count holds
(`poisson_delta_tiny`), and one a Gram whose norm overflows
(`frame_gram_overflow`).  Two pin refusals by sample count: a coefficient
whose modulus overflows, which plans an infinite tail
(`poisson_coeff_huge`), and a J of 2^53, whose 2J+1 trace samples no
memory holds (`string_j_2p53`).  Four pin the refusal of a summation
identity side past the double range: the exact left-side sum of finite
terms (`poisson_overflow_sum`), one left-side term
(`poisson_overflow_term`), terms and the right side
(`poisson_overflow_both`), and terms whose partial sums overflowed
math.fsum (`poisson_overflow_fsum`).  Two pin refusals reached without
a numpy warning: non-finite samples of frequencies near the double range with
the band check off (`poisson_band_off_huge`), and an inverse kernel's
G(0) overflowing to -inf at a subnormal gamma (`kernel_inverse_gamma_tiny`).
Two pin the refusal of a t' whose product with the frequency span
overflows, for a frame with a pair (`frame_t_shift_huge`) and for a
junction (`string_t_shift_huge`); two pin that a large finite t' is a
phase on each coefficient, not a sample time: the golden string at
t' = 1e4 (`string_t_shift_1e4`) and a frame without pairs at t' = 1e12,
whose constants are those of t' = 0 (`frame_t_shift_1e12`).
One pins the round trip of a 1001-sample
trace (`string_j500`).

The outputs pin the numerics of one numpy/LAPACK build, under one or two
OpenBLAS threads: the round trip solves from the Gram through the pencils'
eigensolver and forms its products with the design by einsum, so no
field depends on how BLAS splits its work. After a
deliberate change of the output, or on a platform whose libm or LAPACK
rounds differently, regenerate them with

    PYTHONPATH=src python3 tests/test_golden.py --write

and review the diff: a changed value is a changed result.
"""

import json
import os
import sys
from pathlib import Path

import pytest

from ingham.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

# name -> (command, extra flags, exit code); the config is GOLDEN / f"{name}.json"
CASES = {
    "gaps_chain": ("gaps", (), 0),
    "gaps_chain_csv": ("gaps", ("--format", "csv"), 0),
    "gaps_violation": ("gaps", (), 2),
    "kernel_direct": ("kernel", (), 0),
    "kernel_inverse_inadmissible": ("kernel", (), 2),
    "poisson_direct": ("poisson", (), 0),
    "poisson_inverse": ("poisson", (), 0),
    "poisson_band_violation": ("poisson", (), 2),
    "poisson_band_off": ("poisson", (), 0),
    "frame_chain": ("frame", (), 0),
    "frame_singular": ("frame", (), 2),
    "haraux_chain": ("haraux", (), 0),
    "haraux_collision": ("haraux", (), 2),
    "string": ("string", (), 0),
    "string_seed1": ("string", ("--seed", "1"), 0),
    "string_horizon": ("string", (), 2),
    "beam": ("beam", (), 0),
    "scan_frame_delta": ("scan", (), 0),
    "scan_frame_delta_csv": ("scan", ("--format", "csv"), 0),
    "scan_frame_two_axes": ("scan", (), 0),
    "scan_frame_single": ("scan", (), 0),
    "scan_continuum": ("scan", (), 0),
    "scan_gaps": ("scan", (), 0),
    "readme_frame": ("frame", (), 0),
    "readme_scan": ("scan", (), 0),
    "kernel_direct_R": ("kernel", (), 0),
    "string_gamma": ("string", (), 0),
    "string_gamma_violation": ("string", (), 2),
    "gaps_lead10": ("gaps", (), 0),
    "gaps_lead10_csv": ("gaps", ("--format", "csv"), 0),
    "poisson_inverse_csv": ("poisson", ("--format", "csv"), 0),
    "haraux_chain_csv": ("haraux", ("--format", "csv"), 0),
    "scan_continuum_j0": ("scan", (), 1),
    "poisson_tail_too_long": ("poisson", (), 2),
    "kernel_inverse_margin": ("kernel", (), 1),
    "kernel_direct_overflow": ("kernel", (), 2),
    "string_trials0": ("string", (), 0),
    "beam_csv": ("beam", ("--format", "csv"), 0),
    "string_rank_deficient": ("string", (), 2),
    "kernel_inverse": ("kernel", (), 0),
    "kernel_inverse_x0_branch": ("kernel", (), 0),
    "kernel_inverse_pinch": ("kernel", (), 2),
    "scan_haraux": ("scan", (), 0),
    "scan_haraux_csv": ("scan", ("--format", "csv"), 0),
    "scan_gaps_csv": ("scan", ("--format", "csv"), 0),
    "kernel_inverse_overflow": ("kernel", (), 2),
    "haraux_jprime_huge": ("haraux", (), 1),
    "frame_j_huge": ("frame", (), 1),
    "string_j_huge": ("string", (), 1),
    "poisson_delta_tiny": ("poisson", (), 2),
    "frame_gram_overflow": ("frame", (), 1),
    "poisson_coeff_huge": ("poisson", (), 2),
    "string_j_2p53": ("string", (), 2),
    "string_j500": ("string", (), 0),
    "poisson_overflow_sum": ("poisson", (), 2),
    "poisson_overflow_term": ("poisson", (), 2),
    "poisson_overflow_both": ("poisson", (), 2),
    "poisson_overflow_fsum": ("poisson", (), 2),
    "poisson_band_off_huge": ("poisson", (), 2),
    "kernel_inverse_gamma_tiny": ("kernel", (), 2),
    "frame_t_shift_huge": ("frame", (), 2),
    "string_t_shift_huge": ("string", (), 2),
    "string_t_shift_1e4": ("string", (), 0),
    "frame_t_shift_1e12": ("frame", (), 0),
}


def run_case(name: str, out_path: Path) -> int:
    command, flags, _ = CASES[name]
    cfg = GOLDEN / f"{name}.json"
    return main([command, "--input", str(cfg), "--output", str(out_path), *flags])


@pytest.fixture(autouse=True)
def _no_ingham_env(monkeypatch):
    for key in [k for k in os.environ if k.startswith("INGHAM_")]:
        monkeypatch.delenv(key)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path):
    out = tmp_path / "out"
    assert run_case(name, out) == CASES[name][2]
    assert out.read_bytes() == (GOLDEN / f"{name}.out").read_bytes()


@pytest.mark.parametrize("name", sorted(n for n, (_, flags, _) in CASES.items() if "csv" not in flags))
def test_json_golden_is_the_stdlib_format(name):
    # the stdlib stays the oracle of the envelope's format: sorted keys, indent 2, one newline
    text = (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


def test_every_golden_file_has_a_case():
    names = {p.name.rsplit(".", 1)[0] for p in GOLDEN.iterdir()}
    assert names == set(CASES)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python3 tests/test_golden.py --write")
    for case in sorted(CASES):
        code = run_case(case, GOLDEN / f"{case}.out")
        expected = CASES[case][2]
        print(f"{case}: exit {code}" + ("" if code == expected else f", CASES says {expected}"))
