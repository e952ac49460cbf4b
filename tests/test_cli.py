import ast
import hashlib
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import env_with_package
import ingham
from ingham import StructuralError, bounds, exponents, observability, quadforms
from ingham.cli import RunConfig, _sanitize, _shared_parser, build_parser, main

A_IRR = math.sqrt(2.0) / 2.0

CHAIN_SEQ = {"omegas": [0.0, 0.5, 3.0, 3.4, 6.0], "gamma": 1.0, "gamma0": 0.85}

STRING_CFG = {
    "a": A_IRR,
    "left": [
        {"n": 1, "plus": [0.3, 0.1], "minus": [0.2, -0.4]},
        {"n": 2, "plus": [-0.5, 0.0], "minus": [0.1, 0.1]},
        {"n": 3, "plus": [0.2, 0.2], "minus": [-0.3, 0.05]},
    ],
    "right": [{"n": 1, "plus": [0.4, -0.2], "minus": [0.0, 0.6]}],
    "delta": 0.2,
    "J": 8,
    "epsilon": 0.05,
    "trials": 10,
}

BEAM_CFG = {
    "a": A_IRR,
    "gamma": 8.0,
    "left": [
        {"n": 1, "plus": [0.3, 0.1], "minus": [0.2, -0.4]},
        {"n": 2, "plus": [-0.5, 0.0], "minus": [0.1, 0.1]},
        {"n": 3, "plus": [0.2, 0.2], "minus": [-0.3, 0.05]},
    ],
    "right": [{"n": 1, "plus": [0.4, -0.2], "minus": [0.0, 0.6]}],
    "delta": 0.015,
    "J": 30,
    "epsilon": 0.05,
    "trials": 5,
}


POISSON_CFG = {
    "kernel": {"variant": "direct", "gamma": 1.0},
    "sum": {
        "omegas": [-2.0, 0.5, 3.0],
        "coeffs": [[1.0, 0.0], [0.0, -1.0], [0.5, 0.0]],
    },
    "delta": 0.8,
}


def write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def run_cli(tmp_path, command, payload, *flags, name="cfg.json", out="out.json"):
    cfg = write_cfg(tmp_path, payload, name)
    out_path = tmp_path / out
    code = main([command, "--input", str(cfg), "--output", str(out_path), *flags])
    text = out_path.read_text() if out_path.exists() else ""
    return code, text, out_path


class TestEnvelope:
    def test_gaps_ok(self, tmp_path):
        code, text, _ = run_cli(tmp_path, "gaps", CHAIN_SEQ)
        assert code == 0
        env = json.loads(text)
        assert env["tool"]["name"] == "ingham"
        assert env["command"] == "gaps"
        assert env["seed"] == 0
        raw = (tmp_path / "cfg.json").read_bytes()
        assert env["input_digest"] == hashlib.sha256(raw).hexdigest()
        cls = env["report"]["classification"]
        assert cls["a2_leads"] == [0, 2]
        assert env["report"]["validation"]["ok"] is True

    def test_byte_determinism(self, tmp_path):
        _, text_a, _ = run_cli(tmp_path, "gaps", CHAIN_SEQ, out="a.json")
        _, text_b, _ = run_cli(tmp_path, "gaps", CHAIN_SEQ, out="b.json")
        assert text_a == text_b

    def test_gap_violation_exit_2(self, tmp_path):
        code, text, _ = run_cli(tmp_path, "gaps", {"omegas": [0.0, 0.3, 0.6], "gamma": 1.0})
        assert code == 2
        env = json.loads(text)
        assert env["error"]["type"] == "validation"
        assert "report" not in env

    def test_missing_input_exit_1(self, tmp_path):
        out = tmp_path / "o.json"
        code = main(["gaps", "--input", str(tmp_path / "nope.json"), "--output", str(out)])
        assert code == 1
        env = json.loads(out.read_text())
        assert env["error"]["type"] == "structural"

    def test_invalid_json_exit_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        out = tmp_path / "o.json"
        code = main(["gaps", "--input", str(bad), "--output", str(out)])
        assert code == 1
        assert "invalid JSON" in json.loads(out.read_text())["error"]["message"]

    def test_non_utf_json_exit_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"omegas": [0.0], "gamma": 1.0}\xff')
        out = tmp_path / "o.json"
        assert main(["gaps", "--input", str(bad), "--output", str(out)]) == 1
        assert "invalid JSON" in json.loads(out.read_text())["error"]["message"]

    @pytest.mark.parametrize(
        "command", ["gaps", "kernel", "poisson", "frame", "haraux", "string", "beam", "scan"]
    )
    @pytest.mark.parametrize(
        "config", [[1, 2], 5, None, "abc"], ids=["array", "number", "null", "string"]
    )
    def test_config_not_an_object_exit_1(self, tmp_path, command, config):
        code, text, _ = run_cli(tmp_path, command, config)
        assert code == 1
        env = json.loads(text)
        assert env["error"]["type"] == "structural"
        assert "must be a JSON object" in env["error"]["message"]
        assert "report" not in env

    def test_no_input_anywhere(self, monkeypatch, capsys):
        monkeypatch.delenv("INGHAM_INPUT", raising=False)
        assert main(["gaps"]) == 1
        assert "INGHAM_INPUT" in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["missing/out.json", "."], ids=["no-such-dir", "a-dir"])
    def test_unwritable_output_exit_1(self, tmp_path, capsys, target):
        cfg = write_cfg(tmp_path, CHAIN_SEQ)
        assert main(["gaps", "--input", str(cfg), "--output", str(tmp_path / target)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: cannot write output: ") and err.endswith("\n")


class TestKernelCommand:
    def test_direct_constants(self, tmp_path):
        code, text, _ = run_cli(tmp_path, "kernel", {"variant": "direct", "gamma": 1.0})
        assert code == 0
        rep = json.loads(text)["report"]
        assert rep["G0"] == pytest.approx(0.75, rel=1e-14)
        assert rep["g0"] == pytest.approx(1.0, rel=1e-14)
        assert rep["alpha"] == pytest.approx(1.29539, rel=1e-4)
        assert rep["beta"] == pytest.approx(0.684481, rel=1e-4)

    def test_inadmissible_inverse_exit_2(self, tmp_path):
        code, text, _ = run_cli(tmp_path, "kernel", {"variant": "inverse", "gamma": 0.5, "R": 3.0})
        assert code == 2
        env = json.loads(text)
        assert "G(0) > 0" in env["error"]["message"]

    def test_unknown_variant_exit_1(self, tmp_path):
        code, _, _ = run_cli(tmp_path, "kernel", {"variant": "boxcar", "gamma": 1.0})
        assert code == 1

    def test_integral_float_grid_points_runs(self, tmp_path):
        # the key is ignored: 10001 and 10001.0 give the report of a config without it
        payload = {"variant": "direct", "gamma": 1.0}
        reports = []
        for k, extra in enumerate([{"grid_points": 10001}, {"grid_points": 10001.0}, {}]):
            code, text, _ = run_cli(tmp_path, "kernel", dict(payload, **extra), out=f"{k}.json")
            assert code == 0
            reports.append(json.loads(text)["report"])
        assert reports[0] == reports[1] == reports[2]

    @pytest.mark.parametrize(
        "payload", [{"variant": "direct", "gamma": 1.0}, {"variant": "inverse", "gamma": 1.0, "R": 4.7}]
    )
    @pytest.mark.parametrize("grid_points", [10001.9, True, "10001"])
    def test_grid_points_key_ignored(self, tmp_path, payload, grid_points):
        # certification uses no grid; like any key the command does not read, it is ignored
        code, text, _ = run_cli(tmp_path, "kernel", dict(payload, grid_points=grid_points), out="a.json")
        assert code == 0
        _, plain, _ = run_cli(tmp_path, "kernel", payload, out="b.json")
        assert json.loads(text)["report"] == json.loads(plain)["report"]


class TestPoissonCommand:
    def payload(self):
        return dict(POISSON_CFG)

    def test_identity_holds(self, tmp_path):
        code, text, _ = run_cli(tmp_path, "poisson", self.payload())
        assert code == 0
        rep = json.loads(text)["report"]
        assert rep["abs_gap"] <= 1e-9 * (1.0 + abs(rep["rhs"]))
        assert rep["tail_bound"] <= 1e-9

    def test_band_violation_exit_2(self, tmp_path):
        payload = self.payload()
        payload["delta"] = 1.0  # threshold pi - 1/2 = 2.64 < 3
        code, text, _ = run_cli(tmp_path, "poisson", payload)
        assert code == 2
        assert "band" in json.loads(text)["error"]["message"]

    def test_band_check_can_be_disabled(self, tmp_path):
        payload = self.payload()
        payload["delta"] = 1.0
        payload["enforce_band"] = False
        code, text, _ = run_cli(tmp_path, "poisson", payload)
        assert code == 0

    @pytest.mark.parametrize(
        "extra",
        [
            {"omega_prime": 1.7, "x_prime": [0.5, 0.0]},
            {"omega_prime": 0.5, "x_prime": [0.5, 0.0]},  # coincides with a frequency
            {"omega_prime": 1.7},
            {"x_prime": [0.5, 0.0]},
        ],
        ids=["augmented", "coinciding", "no-x_prime", "no-omega_prime"],
    )
    def test_augmented_sum_refused(self, tmp_path, extra):
        payload = self.payload()
        payload["sum"] = dict(payload["sum"], **extra)
        code, text, _ = run_cli(tmp_path, "poisson", payload)
        assert code == 1
        assert json.loads(text)["error"] == {
            "type": "structural",
            "message": "summation identity applies to plain sums only",
        }


class TestFlags:
    """enforce_band and enforce_horizon take JSON true or false, nothing else."""

    CASES = {
        # both configs fail their check when it is enforced
        "enforce_band": ("poisson", dict(POISSON_CFG, delta=1.0)),
        "enforce_horizon": ("string", dict(STRING_CFG, J=5)),
    }

    @pytest.mark.parametrize("flag", sorted(CASES))
    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None, [False]])
    def test_non_boolean_exit_1(self, tmp_path, flag, value):
        command, payload = self.CASES[flag]
        code, text, _ = run_cli(tmp_path, command, dict(payload, **{flag: value}))
        assert code == 1
        error = json.loads(text)["error"]
        assert error["type"] == "structural"
        assert flag in error["message"]

    @pytest.mark.parametrize("flag", sorted(CASES))
    def test_json_booleans(self, tmp_path, flag):
        command, payload = self.CASES[flag]
        code, _, _ = run_cli(tmp_path, command, dict(payload, **{flag: True}), out="on.json")
        assert code == 2
        code, _, _ = run_cli(tmp_path, command, dict(payload, **{flag: False}), out="off.json")
        assert code == 0


class TestFrameCommand:
    def test_ok(self, tmp_path):
        payload = dict(CHAIN_SEQ, delta=0.25, J=16)
        code, text, _ = run_cli(tmp_path, "frame", payload)
        assert code == 0
        rep = json.loads(text)["report"]
        assert rep["c_lower"] > 0.0
        assert rep["c_upper"] >= rep["c_lower"]
        assert rep["singular"] is False

    @pytest.mark.parametrize("command", ["frame", "string"])
    @pytest.mark.parametrize("J", [16.9, True, "16", None])
    def test_malformed_J_exit_1(self, tmp_path, command, J):
        base = dict(CHAIN_SEQ, delta=0.25) if command == "frame" else STRING_CFG
        code, text, _ = run_cli(tmp_path, command, dict(base, J=J))
        assert code == 1
        error = json.loads(text)["error"]
        assert error["type"] == "structural"
        assert "J" in error["message"]

    def test_integral_float_J_runs(self, tmp_path):
        _, as_int, _ = run_cli(tmp_path, "frame", dict(CHAIN_SEQ, delta=0.25, J=16), out="a.json")
        _, as_float, _ = run_cli(tmp_path, "frame", dict(CHAIN_SEQ, delta=0.25, J=16.0), out="b.json")
        assert json.loads(as_int)["report"] == json.loads(as_float)["report"]

    def test_singular_exit_2_with_report(self, tmp_path):
        payload = {"omegas": [0.0, 3.0, 6.0, 9.0, 12.0], "gamma": 1.0, "delta": 0.2, "J": 1}
        code, text, _ = run_cli(tmp_path, "frame", payload)
        assert code == 2
        env = json.loads(text)
        assert env["error"]["message"] == "singular pencil"
        assert env["report"]["singular"] is True
        assert env["report"]["c_lower"] == 0.0


class TestHarauxCommand:
    def test_ok(self, tmp_path):
        payload = dict(CHAIN_SEQ, delta=0.2, J=20, omega_prime=4.7, J_prime=25)
        code, text, _ = run_cli(tmp_path, "haraux", payload)
        assert code == 0
        rep = json.loads(text)["report"]
        assert rep["plan"]["eps_sup"] < 1.0
        assert rep["extended"]["c_lower"] > 0.0
        assert rep["extended"]["companions"]["c4_formula"] >= rep["extended"]["c_upper"]

    def test_collision_exit_2(self, tmp_path):
        payload = dict(CHAIN_SEQ, delta=0.2, J=20, omega_prime=3.4, J_prime=25)
        code, _, _ = run_cli(tmp_path, "haraux", payload)
        assert code == 2

    def test_missing_field_exit_1(self, tmp_path):
        payload = dict(CHAIN_SEQ, delta=0.2, J=20)
        code, _, _ = run_cli(tmp_path, "haraux", payload)
        assert code == 1

    @pytest.mark.parametrize("j_prime", [25.5, False])
    def test_malformed_J_prime_exit_1(self, tmp_path, j_prime):
        payload = dict(CHAIN_SEQ, delta=0.2, J=20, omega_prime=4.7, J_prime=j_prime)
        code, text, _ = run_cli(tmp_path, "haraux", payload)
        assert code == 1
        assert "J_prime" in json.loads(text)["error"]["message"]


class TestObservabilityCommands:
    def test_string_roundtrip(self, tmp_path):
        code, text, _ = run_cli(tmp_path, "string", STRING_CFG)
        assert code == 0
        rep = json.loads(text)["report"]
        assert rep["kind"] == "string"
        assert rep["singular"] is False
        assert rep["roundtrip"]["amplitude_error"] < 1e-8
        assert rep["roundtrip"]["residual"] < 1e-8
        assert rep["c_empirical"] <= rep["c_pencil"] * (1 + 1e-9)

    def test_shifted_grid_string(self, tmp_path):
        # off t' = 0 the batched trial energies must still match the trial-0 witness
        code, text, _ = run_cli(tmp_path, "string", dict(STRING_CFG, t_shift=0.37))
        assert code == 0
        rep = json.loads(text)["report"]
        assert rep["roundtrip"]["amplitude_error"] < 1e-8
        assert rep["c_empirical"] <= rep["c_pencil"] * (1 + 1e-9)

    def test_underflowing_sobolev_weight_refused_by_name(self, tmp_path):
        # lambda^(-1e300) underflows to 0: the pencil's weights go through SobolevSpec.weight
        code, text, _ = run_cli(tmp_path, "string", dict(STRING_CFG, epsilon=1e300))
        assert code == 2
        error = json.loads(text)["error"]
        assert error["message"].startswith("Sobolev weight not positive finite at lambda=")

    def test_beam_roundtrip(self, tmp_path):
        code, text, _ = run_cli(tmp_path, "beam", BEAM_CFG)
        assert code == 0
        rep = json.loads(text)["report"]
        assert rep["kind"] == "beam"
        assert rep["roundtrip"]["amplitude_error"] < 1e-8

    def test_seed_changes_report(self, tmp_path):
        _, text_a, _ = run_cli(tmp_path, "string", STRING_CFG, "--seed", "0", out="a.json")
        _, text_b, _ = run_cli(tmp_path, "string", STRING_CFG, "--seed", "1", out="b.json")
        assert json.loads(text_a)["seed"] == 0
        assert json.loads(text_b)["seed"] == 1
        assert json.loads(text_a)["report"]["c_empirical"] != json.loads(text_b)["report"]["c_empirical"]
        _, text_c, _ = run_cli(tmp_path, "string", STRING_CFG, "--seed", "0", out="c.json")
        assert text_a == text_c

    @pytest.mark.parametrize(
        "field, value", [("trials", "abc"), ("trials", 2.5), ("trials", True), ("epsilon", "x")]
    )
    def test_malformed_trials_or_epsilon_exit_1(self, tmp_path, field, value):
        code, text, _ = run_cli(tmp_path, "string", dict(STRING_CFG, **{field: value}))
        assert code == 1
        error = json.loads(text)["error"]
        assert error["type"] == "structural"
        assert field in error["message"]

    def test_witness_disagreement_exit_1(self, tmp_path, monkeypatch):
        from ingham import observability

        honest = observability.initial_data_energy
        monkeypatch.setattr(
            observability, "initial_data_energy", lambda s, eps: (1.0 + 1e-9) * honest(s, eps)
        )
        code, text, _ = run_cli(tmp_path, "string", STRING_CFG)
        assert code == 1
        assert json.loads(text)["error"]["type"] == "structural"

    def test_horizon_exit_2(self, tmp_path):
        payload = dict(STRING_CFG, J=5)
        code, text, _ = run_cli(tmp_path, "string", payload)
        assert code == 2
        assert "horizon" in json.loads(text)["error"]["message"]

    def test_resonant_junction_exit_2(self, tmp_path):
        # a = 1/2 gives both sides the frequencies n pi / (1/2): mode 1 coincides
        mode = {"n": 1, "plus": [1.0, 0.0], "minus": [1.0, 0.0]}
        payload = {"a": 0.5, "left": [mode], "right": [mode], "delta": 0.2, "J": 8}
        code, text, _ = run_cli(tmp_path, "string", payload)
        assert code == 2
        error = json.loads(text)["error"]
        assert error["type"] == "validation"
        assert "resonant" in error["message"]
        assert {tag["side"] for tag in error["details"]["tags"]} == {"left", "right"}
        assert all(tag["n"] == 1 for tag in error["details"]["tags"])

    @pytest.mark.parametrize(
        "mode",
        [
            {"n": 1, "plus": 1.0, "minus": 1.0},
            {"n": 1, "plus": [1.0], "minus": [1.0, 0.0]},
            {"n": 1, "plus": [1.0, 0.0]},
            {"n": 1.5, "plus": [1.0, 0.0], "minus": [1.0, 0.0]},
            {"n": True, "plus": [1.0, 0.0], "minus": [1.0, 0.0]},
            {"plus": [1.0, 0.0], "minus": [1.0, 0.0]},
        ],
    )
    def test_malformed_mode_exit_1(self, tmp_path, mode):
        code, text, _ = run_cli(tmp_path, "string", dict(STRING_CFG, left=[mode]))
        assert code == 1
        assert json.loads(text)["error"]["type"] == "structural"


class TestScanCommand:
    def frame_payload(self, axes):
        return {"task": "frame", "base": dict(CHAIN_SEQ, J=16), "axes": axes}

    def test_one_axis_json(self, tmp_path):
        payload = self.frame_payload([{"name": "delta", "values": [0.2, 0.25, 0.3]}])
        code, text, _ = run_cli(tmp_path, "scan", payload)
        assert code == 0
        rep = json.loads(text)["report"]
        assert rep["task"] == "frame"
        assert rep["columns"][0] == "delta"
        assert len(rep["rows"]) == 3
        assert all(row["c_lower"] > 0.0 for row in rep["rows"])

    def test_two_axes_product(self, tmp_path):
        payload = self.frame_payload(
            [
                {"name": "delta", "values": [0.2, 0.25]},
                {"name": "J", "values": [16, 24]},
            ]
        )
        del payload["base"]["J"]
        code, text, _ = run_cli(tmp_path, "scan", payload)
        assert code == 0
        rows = json.loads(text)["report"]["rows"]
        assert len(rows) == 4
        assert {(row["delta"], row["J"]) for row in rows} == {
            (0.2, 16), (0.2, 24), (0.25, 16), (0.25, 24)
        }

    def test_csv_output(self, tmp_path):
        payload = self.frame_payload([{"name": "delta", "values": [0.2, 0.25]}])
        code, text, _ = run_cli(tmp_path, "scan", payload, "--format", "csv", out="out.csv")
        assert code == 0
        lines = text.strip().split("\n")
        assert lines[0].startswith("delta,c_lower,c_upper")
        assert len(lines) == 3
        first = lines[1].split(",")
        # 17 significant digits round-trip exactly
        assert float(first[0]) == 0.2
        assert first[-1] == "false"
        assert "." in first[1] or "e" in first[1]

    def test_too_many_axes(self, tmp_path):
        payload = self.frame_payload(
            [
                {"name": "delta", "values": [0.2]},
                {"name": "J", "values": [16]},
                {"name": "t_shift", "values": [0.0]},
            ]
        )
        code, _, _ = run_cli(tmp_path, "scan", payload)
        assert code == 2

    def test_axis_not_sweepable(self, tmp_path):
        payload = self.frame_payload([{"name": "gamma", "values": [1.0]}])
        code, text, _ = run_cli(tmp_path, "scan", payload)
        assert code == 2
        assert "not sweepable" in json.loads(text)["error"]["message"]

    def test_empty_axis_values(self, tmp_path):
        payload = self.frame_payload([{"name": "delta", "values": []}])
        code, _, _ = run_cli(tmp_path, "scan", payload)
        assert code == 2

    def test_unknown_task_exit_1(self, tmp_path):
        code, _, _ = run_cli(tmp_path, "scan", {"task": "mystery", "axes": []})
        assert code == 1

    @pytest.mark.parametrize("task", [["frame"], {"name": "frame"}, 5])
    def test_task_not_a_string_exit_1(self, tmp_path, task):
        code, text, _ = run_cli(tmp_path, "scan", {"task": task, "axes": []})
        assert code == 1
        assert "unknown scan task" in json.loads(text)["error"]["message"]

    def test_duplicate_axis_names_exit_2(self, tmp_path):
        payload = self.frame_payload(
            [{"name": "delta", "values": [0.2, 0.25]}, {"name": "delta", "values": [0.3]}]
        )
        code, text, _ = run_cli(tmp_path, "scan", payload)
        assert code == 2
        env = json.loads(text)
        assert env["error"]["type"] == "validation"
        assert "'delta' is given twice" in env["error"]["message"]
        assert "report" not in env

    def test_duplicate_continuum_axis_exit_2(self, tmp_path):
        payload = self.continuum_payload([32])
        payload["axes"].append({"name": "J", "values": [64]})
        code, text, _ = run_cli(tmp_path, "scan", payload)
        assert code == 2
        assert "'J' is given twice" in json.loads(text)["error"]["message"]

    def test_no_axes_single_row(self, tmp_path):
        payload = self.frame_payload([])
        payload["base"]["delta"] = 0.25
        code, text, _ = run_cli(tmp_path, "scan", payload)
        assert code == 0
        assert len(json.loads(text)["report"]["rows"]) == 1

    def continuum_payload(self, values, as_axis=True):
        base = {"omegas": [-3.1, -0.4, 0.2, 2.6, 5.6], "gamma": 1.2, "gamma0": 0.8, "R": 4.0}
        if as_axis:
            return {"task": "continuum", "base": base, "axes": [{"name": "J", "values": values}]}
        return {"task": "continuum", "base": dict(base, J_list=values)}

    def test_continuum_scan(self, tmp_path):
        code, text, _ = run_cli(tmp_path, "scan", self.continuum_payload([32, 64, 128]))
        assert code == 0
        rows = json.loads(text)["report"]["rows"]
        gaps = [row["rel_gap"] for row in rows]
        assert gaps[2] < gaps[0]

    @pytest.mark.parametrize("as_axis", [True, False], ids=["axis", "J_list"])
    @pytest.mark.parametrize(
        "values", [[32.7, True], [32, True], [32, "64"]], ids=["fractional", "bool", "string"]
    )
    def test_continuum_malformed_J_exit_1(self, tmp_path, values, as_axis):
        code, text, _ = run_cli(tmp_path, "scan", self.continuum_payload(values, as_axis))
        assert code == 1
        error = json.loads(text)["error"]
        assert error["type"] == "structural"
        assert "J" in error["message"]

    @pytest.mark.parametrize("as_axis", [True, False], ids=["axis", "J_list"])
    def test_continuum_integral_float_J_runs(self, tmp_path, as_axis):
        payload = self.continuum_payload([32, 64], as_axis)
        code, as_int, _ = run_cli(tmp_path, "scan", payload, out="a.json")
        assert code == 0
        payload = self.continuum_payload([32, 64.0], as_axis)
        _, as_float, _ = run_cli(tmp_path, "scan", payload, out="b.json")
        assert json.loads(as_int)["report"] == json.loads(as_float)["report"]

    @pytest.mark.parametrize(
        "payload",
        [
            {"task": "frame", "base": dict(CHAIN_SEQ, J=16), "axes": [5]},
            {"task": "frame", "base": dict(CHAIN_SEQ, J=16), "axes": {"name": "delta"}},
            {
                "task": "frame",
                "base": dict(CHAIN_SEQ, J=16),
                "axes": [{"name": "delta", "values": 5}],
            },
            {"task": "continuum", "base": dict(CHAIN_SEQ, R=4.0, J_list=32)},
            {"task": "frame", "base": "ab"},
            {"task": "gaps", "base": [["omegas", [0.0, 3.0]], ["gamma", 1.0]]},
        ],
        ids=["axis-not-object", "axes-object", "values-not-list", "J_list-not-list", "base-string",
             "base-pairs"],
    )
    def test_malformed_shape_exit_1(self, tmp_path, payload):
        code, text, _ = run_cli(tmp_path, "scan", payload)
        assert code == 1
        env = json.loads(text)
        assert env["error"]["type"] == "structural"
        assert "report" not in env

    @pytest.mark.parametrize(
        "base, kind", [("ab", "a string"), ([["gamma", 1.0]], "an array")], ids=["string", "pairs"]
    )
    def test_base_must_be_object(self, tmp_path, base, kind):
        # the rule of a top-level config: a list of pairs is not an object
        code, text, _ = run_cli(tmp_path, "scan", {"task": "gaps", "base": base})
        assert code == 1
        assert json.loads(text)["error"]["message"] == f"base must be a JSON object, got {kind}"

    def test_gaps_scan(self, tmp_path):
        payload = {
            "task": "gaps",
            "base": dict(CHAIN_SEQ),
            "axes": [{"name": "gamma0", "values": [0.3, 0.85]}],
        }
        code, text, _ = run_cli(tmp_path, "scan", payload)
        assert code == 0
        rows = json.loads(text)["report"]["rows"]
        assert rows[0]["n_a2"] == 0 and rows[1]["n_a2"] == 2


class TestMalformedNumbers:
    """A value float() rejects in a numeric field exits 1 with the structural envelope."""

    @pytest.mark.parametrize(
        "command, payload, field",
        [
            ("kernel", {"variant": "direct", "gamma": 1.0, "margin": "x"}, "margin"),
            ("kernel", {"variant": "direct", "gamma": 1.0, "R": "x"}, "R"),
            ("gaps", dict(CHAIN_SEQ, gamma0="x"), "gamma0"),
            ("poisson", dict(POISSON_CFG, tail_tol="x"), "tail_tol"),
            ("poisson", dict(POISSON_CFG, gamma0="x"), "gamma0"),
            ("string", dict(STRING_CFG, gamma="x"), "gamma"),
            (
                "scan",
                {
                    "task": "frame",
                    "base": dict(CHAIN_SEQ, J=16),
                    "axes": [{"name": "delta", "values": ["abc"]}],
                },
                "delta",
            ),
            (
                "scan",
                {"task": "continuum", "base": dict(CHAIN_SEQ, J_list=[32])},
                "R",
            ),
        ],
        ids=[
            "kernel-margin",
            "kernel-R",
            "gaps-gamma0",
            "poisson-tail_tol",
            "poisson-gamma0",
            "string-gamma",
            "scan-axis",
            "continuum-no-R",
        ],
    )
    def test_exit_1(self, tmp_path, command, payload, field):
        code, text, _ = run_cli(tmp_path, command, payload)
        assert code == 1
        error = json.loads(text)["error"]
        assert error["type"] == "structural"
        assert field in error["message"]

    def test_numeric_strings_still_accepted(self, tmp_path):
        code, as_str, _ = run_cli(tmp_path, "poisson", dict(POISSON_CFG, tail_tol="1e-9"), out="a.json")
        assert code == 0
        _, as_num, _ = run_cli(tmp_path, "poisson", dict(POISSON_CFG, tail_tol=1e-9), out="b.json")
        assert json.loads(as_str)["report"] == json.loads(as_num)["report"]


class TestJsonNumberRules:
    """A JSON boolean is not a number, and an integral float is an integer."""

    FRAME = dict(CHAIN_SEQ, delta=0.25, J=16)
    HARAUX = dict(CHAIN_SEQ, delta=0.2, J=20, omega_prime=4.7, J_prime=25)

    @pytest.mark.parametrize(
        "command, payload, field",
        [
            ("frame", dict(FRAME, delta=True), "delta"),
            ("frame", dict(FRAME, t_shift=True), "t_shift"),
            ("frame", dict(FRAME, gamma=True), "gamma"),
            ("kernel", {"variant": "direct", "gamma": True}, "gamma"),
            ("poisson", dict(POISSON_CFG, delta=True), "delta"),
            ("haraux", dict(HARAUX, omega_prime=True), "omega_prime"),
            ("string", dict(STRING_CFG, epsilon=True), "epsilon"),
            ("string", dict(STRING_CFG, a=True), "a"),
            ("frame", dict(FRAME, omegas=[True, 3.0, 6.0]), "omegas"),
            ("gaps", dict(CHAIN_SEQ, omegas=[0.0, True]), "omegas"),
            ("poisson", dict(POISSON_CFG, sum=dict(POISSON_CFG["sum"], omegas=[-2.0, True, 3.0])), "omegas"),
        ],
    )
    def test_boolean_exit_1(self, tmp_path, command, payload, field):
        code, text, _ = run_cli(tmp_path, command, payload)
        assert code == 1
        error = json.loads(text)["error"]
        assert error["type"] == "structural"
        assert f"{field} must be a number, got True" in error["message"]

    def test_boolean_coefficient_exit_1(self, tmp_path):
        coeffs = [[True, False], [0.0, -1.0], [0.5, 0.0]]
        code, text, _ = run_cli(tmp_path, "poisson", dict(POISSON_CFG, sum=dict(POISSON_CFG["sum"], coeffs=coeffs)))
        assert code == 1
        error = json.loads(text)["error"]
        assert error["type"] == "structural"
        assert "coeffs must be a finite real, got True" in error["message"]

    @pytest.mark.parametrize("side, part", [("plus", 0), ("plus", 1), ("minus", 0), ("minus", 1)])
    def test_boolean_amplitude_exit_1(self, tmp_path, side, part):
        mode = dict(STRING_CFG["left"][0])
        mode[side] = [True, False] if part == 0 else [0.0, True]
        payload = dict(STRING_CFG, left=[mode] + STRING_CFG["left"][1:])
        code, text, _ = run_cli(tmp_path, "string", payload)
        assert code == 1
        error = json.loads(text)["error"]
        assert error["type"] == "structural"
        assert f"{side} must be a finite real, got True" in error["message"]

    @pytest.mark.parametrize(
        "command, payload, quoted",
        [
            ("frame", FRAME, dict(FRAME, omegas=["0.0", "0.5", "3.0", "3.4", "6.0"])),
            ("gaps", CHAIN_SEQ, dict(CHAIN_SEQ, omegas=["0.0", "0.5", "3.0", "3.4", "6.0"])),
            ("poisson", POISSON_CFG, dict(POISSON_CFG, sum=dict(POISSON_CFG["sum"], omegas=["-2.0", "0.5", "3.0"]))),
        ],
    )
    def test_numeric_string_frequencies_run(self, tmp_path, command, payload, quoted):
        code, as_text, _ = run_cli(tmp_path, command, quoted, out="a.json")
        assert code == 0
        _, as_number, _ = run_cli(tmp_path, command, payload, out="b.json")
        assert json.loads(as_text)["report"] == json.loads(as_number)["report"]

    def test_integral_float_trials_and_mode_index_run(self, tmp_path):
        left = [dict(m, n=float(m["n"])) for m in STRING_CFG["left"]]
        payload = dict(STRING_CFG, trials=float(STRING_CFG["trials"]), left=left)
        code, as_float, _ = run_cli(tmp_path, "string", payload, out="a.json")
        assert code == 0
        _, as_int, _ = run_cli(tmp_path, "string", STRING_CFG, out="b.json")
        assert json.loads(as_float)["report"] == json.loads(as_int)["report"]


class TestConfigPrecedence:
    def test_env_input(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path, CHAIN_SEQ)
        out = tmp_path / "o.json"
        monkeypatch.setenv("INGHAM_INPUT", str(cfg))
        monkeypatch.setenv("INGHAM_OUTPUT", str(out))
        assert main(["gaps"]) == 0
        assert json.loads(out.read_text())["command"] == "gaps"

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        good = write_cfg(tmp_path, CHAIN_SEQ, "good.json")
        monkeypatch.setenv("INGHAM_INPUT", str(tmp_path / "missing.json"))
        out = tmp_path / "o.json"
        assert main(["gaps", "--input", str(good), "--output", str(out)]) == 0

    def test_env_seed_and_flag_override(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path, CHAIN_SEQ)
        out = tmp_path / "o.json"
        monkeypatch.setenv("INGHAM_SEED", "7")
        main(["gaps", "--input", str(cfg), "--output", str(out)])
        assert json.loads(out.read_text())["seed"] == 7
        main(["gaps", "--input", str(cfg), "--output", str(out), "--seed", "3"])
        assert json.loads(out.read_text())["seed"] == 3

    @pytest.mark.parametrize("name, value", [("TOL", "x"), ("SEED", "1.5")])
    def test_malformed_env_exit_1(self, tmp_path, monkeypatch, capsys, name, value):
        cfg = write_cfg(tmp_path, CHAIN_SEQ)
        out = tmp_path / "o.json"
        monkeypatch.setenv(f"INGHAM_{name}", value)
        assert main(["gaps", "--input", str(cfg), "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(value) in err
        assert not out.exists()

    def test_env_format(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path, CHAIN_SEQ)
        out = tmp_path / "o.csv"
        monkeypatch.setenv("INGHAM_FORMAT", "csv")
        assert main(["gaps", "--input", str(cfg), "--output", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 2  # header plus one flattened row
        assert "gamma" in lines[0]

    def test_stdout_default(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, CHAIN_SEQ)
        assert main(["gaps", "--input", str(cfg)]) == 0
        env = json.loads(capsys.readouterr().out)
        assert env["command"] == "gaps"


class TestRepeatedMain:
    """`main` keeps one parser per process; nothing of one call reaches the next."""

    def test_parser_shared_build_parser_fresh(self):
        assert _shared_parser() is _shared_parser()
        assert build_parser() is not build_parser()

    def test_format_does_not_carry_over(self, tmp_path):
        cfg = write_cfg(tmp_path, CHAIN_SEQ)
        first = tmp_path / "first.json"
        assert main(["gaps", "--input", str(cfg), "--output", str(first)]) == 0
        csv_out, json_out = tmp_path / "o.csv", tmp_path / "o.json"
        assert main(["gaps", "--input", str(cfg), "--output", str(csv_out), "--format", "csv"]) == 0
        assert main(["gaps", "--input", str(cfg), "--output", str(json_out)]) == 0
        assert not csv_out.read_text().startswith("{")
        assert json_out.read_bytes() == first.read_bytes()

    def test_seed_flag_does_not_carry_over(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path, CHAIN_SEQ)
        out = tmp_path / "o.json"
        monkeypatch.delenv("INGHAM_SEED", raising=False)
        main(["gaps", "--input", str(cfg), "--output", str(out), "--seed", "3"])
        assert json.loads(out.read_text())["seed"] == 3
        monkeypatch.setenv("INGHAM_SEED", "7")
        main(["gaps", "--input", str(cfg), "--output", str(out)])
        assert json.loads(out.read_text())["seed"] == 7
        monkeypatch.delenv("INGHAM_SEED")
        main(["gaps", "--input", str(cfg), "--output", str(out)])
        assert json.loads(out.read_text())["seed"] == 0

    def test_exits_do_not_disturb_the_next_call(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, dict(CHAIN_SEQ, delta=0.25, J=16))
        first, again = tmp_path / "first.json", tmp_path / "again.json"
        assert main(["frame", "--input", str(cfg), "--output", str(first)]) == 0
        with pytest.raises(SystemExit) as version:
            main(["--version"])
        assert version.value.code == 0
        assert "ingham" in capsys.readouterr().out
        with pytest.raises(SystemExit) as bad:
            main(["frame", "--input", str(cfg), "--tol", "not-a-number"])
        assert bad.value.code == 2
        assert "--tol" in capsys.readouterr().err
        assert main(["frame", "--input", str(cfg), "--output", str(again)]) == 0
        assert again.read_bytes() == first.read_bytes()


class TestClassificationOnce:
    """Each CLI case classifies its sequence once; every later use reads
    `ExponentSequence.classification`."""

    @pytest.mark.parametrize(
        "command, payload",
        [
            ("frame", dict(CHAIN_SEQ, delta=0.25, J=16)),
            ("haraux", dict(CHAIN_SEQ, delta=0.2, J=20, omega_prime=4.7, J_prime=25)),
            (
                "scan",
                {
                    "task": "continuum",
                    "base": dict(CHAIN_SEQ, R=4.0),
                    "axes": [{"name": "J", "values": [32, 64, 128]}],
                },
            ),
        ],
        ids=["frame", "haraux", "continuum"],
    )
    def test_one_classify_call(self, tmp_path, monkeypatch, command, payload):
        calls = []
        original = exponents.classify

        def counting(seq):
            calls.append(seq)
            return original(seq)

        monkeypatch.setattr(exponents, "classify", counting)
        code, _, _ = run_cli(tmp_path, command, payload)
        assert code == 0
        assert len(calls) == 1


class TestPencilAssemblyOnce:
    """A CLI case builds each Haraux plan, band mask and Q matrix once: the
    extended pencil takes the plan the CLI reports, and the extended pencil
    and each continuum row take the active set and Q of their base pencil."""

    @staticmethod
    def counter(monkeypatch, original):
        """Calls of `original` through every `ingham` module that binds it."""
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "ingham" and getattr(module, original.__name__, None) is original:
                monkeypatch.setattr(module, original.__name__, counting)
        return calls

    @pytest.mark.parametrize(
        "command, payload, plans, masks, qs",
        [
            ("haraux", dict(CHAIN_SEQ, delta=0.2, J=20, omega_prime=4.7, J_prime=25), 1, 2, 1),
            (
                "scan",
                {
                    "task": "continuum",
                    "base": dict(CHAIN_SEQ, R=4.0),
                    "axes": [{"name": "J", "values": [32, 64, 128]}],
                },
                0,
                3,
                3,
            ),
        ],
        ids=["haraux", "continuum"],
    )
    def test_call_counts(self, tmp_path, monkeypatch, command, payload, plans, masks, qs):
        plan_calls = self.counter(monkeypatch, bounds.plan_haraux)
        mask_calls = self.counter(monkeypatch, exponents.band_mask)
        q_calls = self.counter(monkeypatch, quadforms.q_matrix)
        code, _, _ = run_cli(tmp_path, command, payload)
        assert code == 0
        assert (len(plan_calls), len(mask_calls), len(q_calls)) == (plans, masks, qs)


class TestJunctionOnce:
    """A string or beam case assembles its exponents once per system (the
    system and its trial 0) and draws and observes trial 0 once: the round
    trip reconstructs the witness that verify_observability checked."""

    @pytest.mark.parametrize("command, payload", [("string", STRING_CFG), ("beam", BEAM_CFG)])
    def test_call_counts(self, tmp_path, monkeypatch, command, payload):
        counter = TestPencilAssemblyOnce.counter
        drawn = counter(monkeypatch, observability.with_amplitudes)
        observed = counter(monkeypatch, observability.observe)
        assembled = counter(monkeypatch, observability.assemble_exponents)
        code, text, _ = run_cli(tmp_path, command, payload)
        assert code == 0
        assert json.loads(text)["report"]["roundtrip"]["amplitude_error"] < 1e-12
        assert (len(drawn), len(observed)) == (1, 1)
        assert len(assembled) <= 2


class TestRunConfig:
    def test_validation(self):
        with pytest.raises(StructuralError):
            RunConfig("prophesy", "x.json")
        with pytest.raises(StructuralError):
            RunConfig("gaps", "x.json", tol=-1.0)
        with pytest.raises(StructuralError):
            RunConfig("gaps", "x.json", seed=-2)
        with pytest.raises(StructuralError):
            RunConfig("gaps", "x.json", fmt="yaml")


class TestSanitize:
    def test_nonfinite_and_complex(self):
        out = _sanitize(
            {
                "a": math.inf,
                "b": -math.inf,
                "c": math.nan,
                "d": 1.5,
                "e": 2 + 3j,
                "f": (1, 2),
                "g": True,
            }
        )
        assert out["a"] == "inf" and out["b"] == "-inf" and out["c"] == "nan"
        assert out["d"] == 1.5
        assert out["e"] == [2.0, 3.0]
        assert out["f"] == [1, 2]
        assert out["g"] is True

    def test_dataclass_fields(self):
        from ingham.observability import ExponentTag

        out = _sanitize({"tags": (ExponentTag("left", 1, -1),)})
        assert out == {"tags": [{"side": "left", "n": 1, "sign": -1}]}
        assert json.loads(json.dumps(out)) == out

    def test_numpy_scalars(self):
        import numpy as np

        out = _sanitize({"i": np.int64(4), "x": np.float64(0.5), "b": np.bool_(False)})
        assert out == {"i": 4, "x": 0.5, "b": False}
        assert isinstance(out["i"], int) and isinstance(out["x"], float)

    def test_sets_sorted(self):
        out = _sanitize({"s": frozenset({10, 2, 7}), "t": {3.5, -1.0}})
        assert out == {"s": [2, 7, 10], "t": [-1.0, 3.5]}

    def test_none_field_left_out(self):
        from ingham.observability import STRING, CoupledSystem

        assert "gamma" not in _sanitize(CoupledSystem(STRING, 0.3))
        assert _sanitize(CoupledSystem(STRING, 0.3, gamma=2.0))["gamma"] == 2.0
        # a None outside a dataclass field is data, not an unset field
        assert _sanitize({"x": None, "y": [None]}) == {"x": None, "y": [None]}


def _imports_cli(tree: ast.AST) -> bool:
    """Whether a module imports ingham.cli, at the top or inside a function."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name == "ingham.cli" for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            package = node.level > 0 and not node.module or node.module == "ingham"
            if node.module in ("cli", "ingham.cli") or package and any(
                alias.name == "cli" for alias in node.names
            ):
                return True
    return False


def test_only_cli_reads_configs():
    # cli.py is the one reader of JSON configs; a library module importing it back is a cycle
    package = Path(ingham.__file__).resolve().parent
    importers = [
        path.name
        for path in sorted(package.glob("*.py"))
        if path.name != "cli.py" and _imports_cli(ast.parse(path.read_text(), str(path)))
    ]
    assert importers == []


def _pyproject_script(name: str) -> tuple[str, str]:
    """Module and attribute of a `[project.scripts]` entry in pyproject.toml."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(Path(__file__).resolve().parent.parent / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"][name]
    module, _, attr = target.partition(":")
    return module.strip(), attr.strip()


class TestInstalledEntryPoint:
    def test_console_script(self, tmp_path):
        # the wrapper an installer writes for `ingham = "module:attr"`
        module, attr = _pyproject_script("ingham")
        exe = tmp_path / "ingham"
        exe.write_text(
            "import sys\n"
            f"from {module} import {attr.split('.')[0]}\n"
            f"sys.exit({attr}())\n"
        )
        cfg = write_cfg(tmp_path, CHAIN_SEQ)
        proc = subprocess.run(
            [sys.executable, str(exe), "gaps", "--input", str(cfg)],
            capture_output=True,
            text=True,
            timeout=60,
            env=env_with_package(),
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["command"] == "gaps"

    @pytest.mark.skipif(shutil.which("ingham") is None, reason="no ingham executable on PATH")
    def test_installed_console_script(self, tmp_path):
        cfg = write_cfg(tmp_path, CHAIN_SEQ)
        proc = subprocess.run(
            [shutil.which("ingham"), "gaps", "--input", str(cfg)],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["command"] == "gaps"

    def test_module_invocation_version(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ingham.cli", "--version"],
            capture_output=True,
            text=True,
            timeout=60,
            env=env_with_package(),
        )
        assert proc.returncode == 0
        assert "ingham" in proc.stdout
