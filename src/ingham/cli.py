"""Command-line front end.

Each subcommand reads a JSON config, dispatches to the library, and
writes a report envelope:

    {"tool": {"name", "version"}, "command", "seed", "input_digest", "report"}

JSON output is key-sorted and therefore byte-stable for identical inputs
and seed.  CSV output (mainly for `scan`) is a plain table: header row,
',' separator, '.' decimal, 17 significant digits.  Exit codes: 0 ok,
1 structural problem (unreadable config, malformed fields), 2 validation
failure (gap violations, band violations, resonance, failed certification,
singular pencils).

Flag values override INGHAM_* environment variables, which override the
built-in defaults.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields, is_dataclass

import numpy as np

from . import __version__
from .bounds import (
    continuum_limit_scan,
    extended_frame_constants,
    frame_constants,
    plan_haraux,
)
from .errors import StructuralError, ValidationError, count, positive
from .exponents import ExponentSequence, validate_weak_gap
from .kernels import G_eval, WindowKernel, certify_constants, g_transform
from .observability import (
    BEAM,
    STRING,
    CoupledSystem,
    observe,
    reconstruct,
    verify_observability,
    with_amplitudes,
)
from .sums import SamplingGrid, poisson_sides, sum_from_dict

COMMANDS = ("gaps", "kernel", "poisson", "frame", "haraux", "string", "beam", "scan")

_DEFAULT_TOL = 1e-9
_DEFAULT_SEED = 0
_DEFAULT_FORMAT = "json"


@dataclass(frozen=True)
class RunConfig:
    command: str
    input_path: str
    output_path: str | None = None
    tol: float = _DEFAULT_TOL
    seed: int = _DEFAULT_SEED
    fmt: str = _DEFAULT_FORMAT

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise StructuralError(f"unknown command {self.command!r}")
        positive(self.tol, "tol")
        count(self.seed, "seed", least=0)
        if self.fmt not in ("json", "csv"):
            raise StructuralError(f"format must be json or csv, got {self.fmt!r}")


def _seq_from(data: dict) -> ExponentSequence:
    try:
        omegas = tuple(data["omegas"])
        gamma = _real(data["gamma"], "gamma")
    except (KeyError, TypeError, ValueError) as exc:
        raise StructuralError(f"malformed sequence config: {exc}") from None
    gamma0 = _real(data.get("gamma0", gamma), "gamma0")
    return ExponentSequence(omegas, gamma, gamma0)


def _integer(value, name: str) -> int:
    """value as an int: a bool or a number with a fractional part is malformed."""
    if isinstance(value, bool) or not (
        isinstance(value, int) or isinstance(value, float) and value.is_integer()
    ):
        raise StructuralError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _real(value, name: str) -> float:
    """float(value): a bool, or a value float() rejects, is malformed."""
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise StructuralError(f"{name} must be a number, got {value!r}")


def _flag(value, name: str) -> bool:
    """value as a bool: only JSON true and false are accepted."""
    if not isinstance(value, bool):
        raise StructuralError(f"{name} must be true or false, got {value!r}")
    return value


def _grid_from(data: dict) -> SamplingGrid:
    try:
        delta, J = _real(data["delta"], "delta"), _integer(data["J"], "J")
        return SamplingGrid(delta, J, _real(data.get("t_shift", 0.0), "t_shift"))
    except (KeyError, TypeError, ValueError) as exc:
        raise StructuralError(f"malformed grid config: {exc}") from None


def _kernel_from(data: dict) -> WindowKernel:
    try:
        variant = data["variant"]
        gamma = _real(data["gamma"], "gamma")
    except (KeyError, TypeError, ValueError) as exc:
        raise StructuralError(f"malformed kernel config: {exc}") from None
    r = data.get("R")
    return certify_constants(
        variant,
        gamma,
        R=None if r is None else _real(r, "R"),
        grid_points=_integer(data.get("grid_points", 10001), "grid_points"),
        margin=_real(data.get("margin", 0.05), "margin"),
    )


def _handle_gaps(data: dict, cfg: RunConfig):
    seq = _seq_from(data)
    validation = validate_weak_gap(seq)
    if not validation.ok:
        raise ValidationError("gap violations", details=asdict(validation))
    report = dict(
        _sanitize(seq), gaps=seq.gaps(), validation=validation, classification=seq.classification
    )
    return report, None


def _handle_kernel(data: dict, cfg: RunConfig):
    kernel = _kernel_from(data)
    report = dict(
        _sanitize(kernel), G0=float(G_eval(kernel, 0.0)), g0=float(g_transform(kernel, 0.0))
    )
    return report, None


def _handle_poisson(data: dict, cfg: RunConfig):
    try:
        kernel_cfg = data["kernel"]
        sum_cfg = data["sum"]
        delta = _real(data["delta"], "delta")
    except (KeyError, TypeError, ValueError) as exc:
        raise StructuralError(f"malformed poisson config: {exc}") from None
    kernel = _kernel_from(kernel_cfg)
    gamma0 = data.get("gamma0")
    s = sum_from_dict(sum_cfg, kernel.gamma, None if gamma0 is None else _real(gamma0, "gamma0"))
    report = poisson_sides(
        s,
        kernel,
        delta,
        tail_tol=_real(data.get("tail_tol", cfg.tol), "tail_tol"),
        enforce_band=_flag(data.get("enforce_band", True), "enforce_band"),
    )
    return dict(_sanitize(report), delta=delta, kernel=kernel), None


def _handle_frame(data: dict, cfg: RunConfig):
    seq = _seq_from(data)
    grid = _grid_from(data)
    report = frame_constants(seq, grid)
    out = dict(_sanitize(report), grid=grid)
    if report.singular:
        return out, "singular pencil"
    return out, None


def _handle_haraux(data: dict, cfg: RunConfig):
    seq = _seq_from(data)
    grid = _grid_from(data)
    try:
        omega_prime = _real(data["omega_prime"], "omega_prime")
        j_prime = _integer(data["J_prime"], "J_prime")
    except (KeyError, TypeError, ValueError) as exc:
        raise StructuralError(f"malformed haraux config: {exc}") from None
    plan = plan_haraux(seq, omega_prime, j_prime, grid.delta)
    extended = extended_frame_constants(seq, grid, plan)
    report = {"plan": plan, "extended": extended, "grid": grid}
    if extended.singular:
        return report, "singular pencil"
    return report, None


def _observability_report(kind: str, data: dict, cfg: RunConfig):
    body = dict(data)
    body["kind"] = kind
    body.setdefault("left", [])
    body.setdefault("right", [])
    sys_cfg = {k: body[k] for k in ("kind", "a", "left", "right") if k in body}
    if body.get("gamma") is not None:
        sys_cfg["gamma"] = _real(body["gamma"], "gamma")
    system = CoupledSystem.from_dict(sys_cfg)
    grid = _grid_from(body)
    report = verify_observability(
        system,
        grid,
        _real(body.get("epsilon", 0.5), "epsilon"),
        _integer(body.get("trials", 100), "trials"),
        seed=cfg.seed,
        enforce_horizon=_flag(body.get("enforce_horizon", True), "enforce_horizon"),
    )
    out = dict(_sanitize(report), grid=grid, system=system)
    rng = np.random.default_rng(cfg.seed)
    trial = with_amplitudes(system, rng)
    trace = observe(trial, grid)
    rec = reconstruct(trace, trial)
    truth = [m for m in trial.left + trial.right]
    found = [m for m in rec.left + rec.right]
    scale = max(max(abs(m.plus), abs(m.minus)) for m in truth)
    err = max(
        max(abs(t.plus - f.plus), abs(t.minus - f.minus)) for t, f in zip(truth, found)
    )
    out["roundtrip"] = {
        "residual": rec.residual,
        "amplitude_error": err / scale if scale > 0.0 else err,
        "min_singular_value": rec.min_singular_value,
    }
    return out, None


def _handle_string(data: dict, cfg: RunConfig):
    return _observability_report(STRING, data, cfg)


def _handle_beam(data: dict, cfg: RunConfig):
    return _observability_report(BEAM, data, cfg)


_SCAN_AXES = {
    "frame": ("delta", "J", "gamma0", "t_shift"),
    "gaps": ("gamma0", "gamma"),
    "haraux": ("delta", "J", "J_prime", "omega_prime"),
    "continuum": ("J",),
}


def _scan_rows(task: str, base: dict, combo: dict, cfg: RunConfig) -> dict:
    merged = dict(base)
    merged.update(combo)
    report = _sanitize(_HANDLERS[task](merged, cfg)[0])
    if task == "frame":
        return {
            **combo,
            "c_lower": report["c_lower"],
            "c_upper": report["c_upper"],
            "min_eig": report["min_eig"],
            "max_eig": report["max_eig"],
            "pencil_dim": report["pencil_dim"],
            "singular": report["singular"],
        }
    if task == "gaps":
        cls = report["classification"]
        return {
            **combo,
            "n_a1": len(cls["a1"]),
            "n_a2": len(cls["a2_leads"]),
            "a2_leads": ";".join(str(k) for k in cls["a2_leads"]),
        }
    if task == "haraux":
        plan = report["plan"]
        ext = report["extended"]
        return {
            **combo,
            "eps_sup": plan["eps_sup"],
            "c_prime": plan["c_prime"],
            "lipschitz_L": plan["lipschitz_L"],
            "c3": ext["c_lower"],
            "c4": ext["c_upper"],
            "c4_formula": ext["companions"]["c4_formula"],
            "singular": ext["singular"],
        }
    raise StructuralError(f"unknown scan task {task!r}")


def _handle_scan(data: dict, cfg: RunConfig):
    try:
        task = data["task"]
        base = dict(data.get("base", {}))
        axes = data.get("axes", [])
    except (KeyError, TypeError, ValueError) as exc:
        raise StructuralError(f"malformed scan config: {exc}") from None
    if task not in _SCAN_AXES:
        raise StructuralError(f"unknown scan task {task!r}")
    if not (isinstance(axes, list) and all(isinstance(axis, dict) for axis in axes)):
        raise StructuralError(f"scan axes must be a list of objects, got {axes!r}")
    if len(axes) > 2:
        raise ValidationError("at most two sweep axes are supported")
    for axis in axes:
        name = axis.get("name")
        values = axis.get("values")
        if name not in _SCAN_AXES[task]:
            raise ValidationError(
                f"axis {name!r} not sweepable for task {task!r}",
                details={"allowed": list(_SCAN_AXES[task])},
            )
        if values is not None and not isinstance(values, list):
            raise StructuralError(f"axis {name!r} values must be a list, got {values!r}")
        if not values:
            raise ValidationError(f"axis {name!r} has no values")
        if not all(math.isfinite(_real(v, name)) for v in values):
            raise ValidationError(f"axis {name!r} has non-finite values")
    if task == "continuum":
        seq = _seq_from(base)
        j_values = axes[0]["values"] if axes else base.get("J_list", [])
        if not isinstance(j_values, list):
            raise StructuralError(f"J_list must be a list, got {j_values!r}")
        j_list = [_integer(v, "J") for v in j_values]
        if not j_list:
            raise ValidationError("continuum scan needs J values")
        rows = _sanitize(continuum_limit_scan(seq, _real(base.get("R"), "R"), j_list))
    else:
        combos = [{}]
        for axis in axes:
            combos = [dict(c, **{axis["name"]: v}) for c in combos for v in axis["values"]]
        rows = [_scan_rows(task, base, combo, cfg) for combo in combos]
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    return {"task": task, "columns": columns, "rows": rows}, None


_HANDLERS = {
    "gaps": _handle_gaps,
    "kernel": _handle_kernel,
    "poisson": _handle_poisson,
    "frame": _handle_frame,
    "haraux": _handle_haraux,
    "string": _handle_string,
    "beam": _handle_beam,
    "scan": _handle_scan,
}


def _sanitize(obj):
    """JSON-safe copy, the one serializer of reports: tuples to lists, sets
    to sorted lists, complexes to [re, im], non-finite to strings, dict keys
    to strings, dataclass instances to dicts of their fields, leaving out a
    field whose value is None."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: _sanitize(v) for f in fields(obj) if (v := getattr(obj, f.name)) is not None
        }
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return [_sanitize(v) for v in sorted(obj)]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        if math.isnan(v):
            return "nan"
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return v
    if isinstance(obj, (complex, np.complexfloating)):
        return [_sanitize(obj.real), _sanitize(obj.imag)]
    return obj


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _to_csv(report: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, delimiter=",", lineterminator="\n")
    if "rows" in report and "columns" in report:
        columns = report["columns"]
        writer.writerow(columns)
        for row in report["rows"]:
            writer.writerow(_csv_cell(row.get(c, "")) for c in columns)
        return buf.getvalue()
    flat: dict[str, object] = {}

    def walk(prefix: str, node):
        if isinstance(node, dict):
            for k, v in node.items():
                walk(f"{prefix}.{k}" if prefix else str(k), v)
        elif isinstance(node, (list, tuple)):
            flat[prefix] = ";".join(_csv_cell(_sanitize(v)) if not isinstance(v, (dict, list, tuple)) else "..." for v in node)
        else:
            flat[prefix] = node

    walk("", _sanitize(report))
    keys = sorted(flat)
    writer.writerow(keys)
    writer.writerow(_csv_cell(flat[k]) for k in keys)
    return buf.getvalue()


def _emit(cfg: RunConfig, envelope: dict) -> None:
    if cfg.fmt == "csv":
        body = _to_csv(envelope["report"] if "report" in envelope else envelope)
    else:
        body = json.dumps(_sanitize(envelope), sort_keys=True, indent=2) + "\n"
    if cfg.output_path:
        with open(cfg.output_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(body)
    else:
        sys.stdout.write(body)


def run(cfg: RunConfig) -> int:
    """Execute one command, write the report, return the exit code."""
    envelope: dict = {
        "tool": {"name": "ingham", "version": __version__},
        "command": cfg.command,
        "seed": cfg.seed,
    }
    try:
        with open(cfg.input_path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        envelope["error"] = {"type": "structural", "message": f"cannot read input: {exc}"}
        _emit(cfg, envelope)
        return 1
    envelope["input_digest"] = hashlib.sha256(raw).hexdigest()
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        envelope["error"] = {"type": "structural", "message": f"invalid JSON: {exc}"}
        _emit(cfg, envelope)
        return 1
    try:
        report, validation_note = _HANDLERS[cfg.command](data, cfg)
    except ValidationError as exc:
        envelope["error"] = {
            "type": "validation",
            "message": str(exc.args[0]) if exc.args else "validation error",
            "details": _sanitize(getattr(exc, "details", {})),
        }
        _emit(cfg, envelope)
        return 2
    except StructuralError as exc:
        envelope["error"] = {"type": "structural", "message": str(exc)}
        _emit(cfg, envelope)
        return 1
    envelope["report"] = report
    if validation_note is not None:
        envelope["error"] = {"type": "validation", "message": validation_note}
        _emit(cfg, envelope)
        return 2
    _emit(cfg, envelope)
    return 0


def _env(name: str, fallback):
    return os.environ.get(f"INGHAM_{name}", fallback)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ingham",
        description="Gap-condition diagnostics, window-kernel certificates, "
        "frame constants, and junction observability for exponential sums.",
    )
    parser.add_argument("--version", action="version", version=f"ingham {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("gaps", "validate and classify an exponent sequence"),
        ("kernel", "certify window-kernel constants"),
        ("poisson", "evaluate both sides of the summation identity"),
        ("frame", "empirical frame constants from the sampled pencil"),
        ("haraux", "plan a one-frequency augmentation and its extended constants"),
        ("string", "coupled-string observability and reconstruction"),
        ("beam", "coupled-beam observability and reconstruction"),
        ("scan", "sweep one or two parameters into a table"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", default=None, help="JSON config path")
        p.add_argument("--output", default=None, help="report path (default stdout)")
        p.add_argument("--tol", type=float, default=None, help="tolerance (default 1e-9)")
        p.add_argument("--seed", type=int, default=None, help="seed (default 0)")
        p.add_argument("--format", choices=("json", "csv"), default=None, dest="fmt")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    input_path = args.input if args.input is not None else _env("INPUT", None)
    if input_path is None:
        raise StructuralError("no input: pass --input or set INGHAM_INPUT")
    output_path = args.output if args.output is not None else _env("OUTPUT", None)
    try:
        tol = args.tol if args.tol is not None else float(_env("TOL", _DEFAULT_TOL))
        seed = args.seed if args.seed is not None else int(_env("SEED", _DEFAULT_SEED))
    except ValueError as exc:
        raise StructuralError(f"malformed INGHAM_TOL or INGHAM_SEED: {exc}") from None
    fmt = args.fmt if args.fmt is not None else str(_env("FORMAT", _DEFAULT_FORMAT))
    return RunConfig(
        command=args.command,
        input_path=input_path,
        output_path=output_path,
        tol=tol,
        seed=seed,
        fmt=fmt,
    )


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser `main` uses: built on first use, then kept for the process.

    Parsing keeps no state in the parser, so an in-process caller of `main`
    (tests, benchmarks, scripts) pays for building it once, as a fresh
    `ingham` process does.
    """
    return build_parser()


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
    except StructuralError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
