"""`tests/bench_accuracy.py`: the newest committed accuracy record, `ACCURACY_<n>.json`
of the highest n, its J = 16 references recomputed from the Gram summed sample by sample."""

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


@pytest.mark.parametrize("entry", [e for e in RECORD["instances"] if e["command"] == "string"], ids=lambda e: e["id"])
def test_junction_records_its_round_trip(entry):
    # min_singular_value against sqrt(lambda_min / delta) of the reference Gram, recomputed;
    # amplitude_error, whose reference is the drawn amplitudes, as reported
    with mp.workdps(60):
        again = bench_accuracy.references("string", entry["config"])["min_singular_value"]
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
