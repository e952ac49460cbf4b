"""`tests/bench_accuracy.py`: the newest committed accuracy record, `ACCURACY_<n>.json`
of the highest n, its J = 16 references recomputed from the Gram summed sample by sample,
and the accuracy rule that the tool judges with --parent, on synthetic records."""

import json
import sys
from pathlib import Path

import mpmath as mp
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import bench_accuracy  # noqa: E402

RECORD = json.loads(
    max(bench_accuracy.ROOT.glob("ACCURACY_*.json"), key=lambda path: int(path.stem.split("_")[1])).read_text()
)


def test_record_holds_every_instance():
    assert [e["id"] for e in RECORD["instances"]] == [case_id for case_id, _, _ in bench_accuracy.INSTANCES]
    assert all(e["config"] == cfg for e, (_, _, cfg) in zip(RECORD["instances"], bench_accuracy.INSTANCES))


@pytest.mark.parametrize(
    "entry",
    [e for e in RECORD["instances"] if e["command"] == "frame" and e["config"]["J"] == 16],
    ids=lambda e: e["id"],
)
def test_stored_references_at_j16(entry):
    # 60 digits leave more than 30 past the 1e22 condition of Q at d = 1e-11
    with mp.workdps(60):
        again = bench_accuracy.references("frame", entry["config"], summed=True)
        for name, value in again.items():
            assert abs(mp.mpf(entry["reference"][name]) - value) <= mp.mpf(10) ** -30 * abs(value)


@pytest.mark.parametrize("entry", [e for e in RECORD["instances"] if e["command"] in ("string", "beam")],
                         ids=lambda e: e["id"])
def test_junction_records_its_round_trip(entry):
    # min_singular_value against sqrt(lambda_min / delta) of the reference Gram, recomputed;
    # amplitude_error, whose reference is the drawn amplitudes, as reported
    with mp.workdps(60):
        again = bench_accuracy.references(entry["command"], entry["config"])["min_singular_value"]
        assert abs(mp.mpf(entry["reference"]["min_singular_value"]) - again) <= mp.mpf(10) ** -30 * again
    for side in ("parent", "change"):
        if side in entry:
            assert set(entry[side]["rel_error"]) == {"c_pencil", "min_singular_value", "amplitude_error"}


@pytest.mark.parametrize("entry", [e for e in RECORD["instances"] if e["command"] == "frame"], ids=lambda e: e["id"])
def test_singular_frame_has_no_lower_error(entry):
    # the singular rule reports c_lower as 0 by definition, so its relative error of 1 would
    # measure nothing: it is stored as null, and c_upper's error is kept
    for side in ("parent", "change"):
        if side in entry:
            singular = entry[side]["exit"] == 2
            assert (entry[side]["rel_error"]["c_lower"] is None) == singular
            assert entry[side]["rel_error"]["c_upper"] is not None
            if singular:
                assert entry[side]["constants"]["c_lower"] == 0.0


def _side(code, **errors) -> dict:
    return {"exit": code, "constants": {}, "rel_error": errors}


def _record(*pairs) -> dict:
    return {"instances": [{"id": f"case {i}", "parent": parent, "change": change}
                          for i, (parent, change) in enumerate(pairs)]}


@pytest.mark.parametrize(
    "parent, change, lines",
    [
        # within 10x, and below 1e-12 on both sides: no line
        (_side(0, c=1e-16), _side(0, c=9.9e-16), []),
        # the worst error of an instance is its largest constant's, a null one left out
        (_side(0, a=1e-16, b=None), _side(0, a=1e-16, b=1e-15), []),
        (_side(0, a=4e-16, b=1e-16), _side(0, a=1e-16, b=4.1e-15),
         ["WORSE case 0", "GREW case 0 b: 1.00e-16 -> 4.10e-15"]),
        # more than 10x
        (_side(0, c=1e-16), _side(0, c=1.1e-15), ["WORSE case 0", "GREW case 0 c: 1.00e-16 -> 1.10e-15"]),
        (_side(0, c=1e-9), _side(0, c=2e-8), ["WORSE case 0", "GREW case 0 c: 1.00e-09 -> 2.00e-08"]),
        # above 1e-12 from below, though within 10x
        (_side(0, c=5e-13), _side(0, c=2e-12), ["WORSE case 0", "GREW case 0 c: 5.00e-13 -> 2.00e-12"]),
        # above 1e-12 on both sides and within 10x
        (_side(0, c=5e-12), _side(0, c=4e-11), []),
        # better
        (_side(0, c=2.3e-9), _side(0, c=5.5e-16), []),
        # a changed exit code is printed, and does not fail by itself
        (_side(1, c=None), _side(0, c=3.7e-16), ["EXIT case 0: 1 -> 0"]),
        (_side(0, c=1e-16), _side(None, c=None), ["EXIT case 0: 0 -> None"]),
        (_side(0, c=1e-16), _side(2, c=1e-14),
         ["EXIT case 0: 0 -> 2", "WORSE case 0", "GREW case 0 c: 1.00e-16 -> 1.00e-14"]),
        # one constant grows 20x, or rises above 1e-12, under a larger error of another: the
        # instance's worst error does not move, so only GREW names it, and it does not fail
        (_side(0, a=1e-16, b=3e-15), _side(0, a=2e-15, b=3e-15), ["GREW case 0 a: 1.00e-16 -> 2.00e-15"]),
        (_side(0, a=5e-13, b=1e-9), _side(0, a=2e-12, b=1e-9), ["GREW case 0 a: 5.00e-13 -> 2.00e-12"]),
    ],
)
def test_verdicts_on_synthetic_records(parent, change, lines):
    assert bench_accuracy.verdicts(_record((parent, change))) == lines


def test_verdicts_name_each_instance():
    record = _record((_side(0, c=1e-16), _side(0, c=1e-16)), (_side(0, c=1e-16), _side(0, c=1e-14)),
                     (_side(1, c=None), _side(0, c=1e-16)))
    assert bench_accuracy.verdicts(record) == [
        "WORSE case 1", "GREW case 1 c: 1.00e-16 -> 1.00e-14", "EXIT case 2: 1 -> 0",
    ]


def test_committed_record_reads_no_worse():
    # the newest record, made with --parent, passes the rule that the tool applies
    assert not [line for line in bench_accuracy.verdicts(RECORD) if line.startswith("WORSE")]


@pytest.mark.parametrize(
    "command, cfg",
    [pytest.param(command, cfg, id=case_id)
     for case_id, command, cfg in bench_accuracy.INSTANCES if command in ("string", "beam")],
)
def test_junction_nu_from_the_config(command, cfg):
    # the reference's nu, formed in mpmath from the config (its omegas checked against the
    # tree's inside), is the tree's nu up to the rounding of lambda^(s0 - 1) in doubles,
    # which grows with epsilon; a subnormal weight of the tree keeps fewer digits
    from ingham.cli import _system_from
    from ingham.observability import _pencil_weights

    with mp.workdps(bench_accuracy.DPS):
        _, nu, _ = bench_accuracy._junction_pencil(command, cfg)
        tree = _pencil_weights(_system_from(dict(cfg, kind=command)), cfg["epsilon"])
        for ours, theirs in zip(nu, tree.tolist()):
            if theirs >= sys.float_info.min:
                assert abs(mp.mpf(theirs) - ours) <= (1 + cfg["epsilon"]) * mp.mpf(1e-15) * ours
