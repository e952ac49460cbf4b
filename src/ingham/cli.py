"""Command-line front end, and the one reader of JSON configs.

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
import hashlib
import io
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields, is_dataclass
from functools import cache, partial

import numpy as np

from . import __version__
from .bounds import (
    continuum_limit_scan,
    extended_frame_constants,
    frame_constants,
    plan_haraux,
)
from .errors import StructuralError, ValidationError, count, finite, positive
from .exponents import ExponentSequence, validate_weak_gap
from .kernels import G_eval, WindowKernel, certify_constants, g_transform
from .observability import BEAM, STRING, CoupledSystem, Mode, reconstruct, verify_observability
from .sums import ExpSum, SamplingGrid, poisson_sides

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
        if self.command not in _COMMAND_TABLE:
            raise StructuralError(f"unknown command {self.command!r}")
        positive(self.tol, "tol")
        count(self.seed, "seed", least=0)
        if self.fmt not in ("json", "csv"):
            raise StructuralError(f"format must be json or csv, got {self.fmt!r}")


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


def _complex(value, name: str) -> complex:
    """[re, im] as a complex, each part read by `errors.finite`."""
    re, im = value
    return complex(finite(re, name), finite(im, name))


@contextmanager
def _reading(part: str):
    """The rule for reading a config part: a missing key, a wrong JSON type
    or a value Python rejects is malformed, and raises StructuralError
    naming the part.  The package's own errors pass unchanged, so that each
    keeps its message and exit code."""
    try:
        yield
    except (StructuralError, ValidationError):
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise StructuralError(f"malformed {part} config: {exc}") from None


def _object(data, name: str) -> dict:
    """data, which must be a JSON object: an array of pairs or any other value is malformed."""
    if not isinstance(data, dict):
        kind = {list: "an array", str: "a string", bool: "a boolean", type(None): "null"}
        raise StructuralError(f"{name} must be a JSON object, got {kind.get(type(data), 'a number')}")
    return data


def _seq_from(data: dict) -> ExponentSequence:
    with _reading("sequence"):
        omegas = tuple(_real(w, "omegas") for w in data["omegas"])
        gamma = _real(data["gamma"], "gamma")
    gamma0 = _real(data.get("gamma0", gamma), "gamma0")
    return ExponentSequence(omegas, gamma, gamma0)


def _grid_from(data: dict) -> SamplingGrid:
    with _reading("grid"):
        delta, J = _real(data["delta"], "delta"), _integer(data["J"], "J")
        return SamplingGrid(delta, J, _real(data.get("t_shift", 0.0), "t_shift"))


def _kernel_from(data: dict) -> WindowKernel:
    with _reading("kernel"):
        variant, gamma = data["variant"], _real(data["gamma"], "gamma")
    r = data.get("R")
    return certify_constants(
        variant,
        gamma,
        R=None if r is None else _real(r, "R"),
        margin=_real(data.get("margin", 0.05), "margin"),
    )


def _sum_from(data: dict, gamma: float, gamma0: float | None = None) -> ExpSum:
    """A plain sum; omega_prime or x_prime is refused, as poisson_sides refuses an augmented sum.

    A sum config carries no gap parameters, so gamma (and optionally
    gamma0) come from the caller, typically from the kernel of the
    surrounding config.
    """
    with _reading("sum"):
        omegas = tuple(_real(w, "omegas") for w in data["omegas"])
        coeffs = tuple(_complex(c, "coeffs") for c in data["coeffs"])
    if "omega_prime" in data or "x_prime" in data:
        raise StructuralError("summation identity applies to plain sums only")
    return ExpSum(ExponentSequence(omegas, gamma, gamma if gamma0 is None else gamma0), coeffs)


def _system_from(data: dict) -> CoupledSystem:
    """A system from its config, the form `_sanitize` writes a system in.

    Modes are {"n", "plus": [re, im], "minus": [re, im]}; an absent or
    null gamma stays None.
    """
    gamma = data.get("gamma")
    gamma = None if gamma is None else _real(gamma, "gamma")

    def modes(side):
        return tuple(
            Mode(_integer(m["n"], "n"), _complex(m["plus"], "plus"), _complex(m["minus"], "minus"))
            for m in data.get(side, ())
        )

    with _reading("system"):
        kind, a = data["kind"], _real(data["a"], "a")
        left, right = modes("left"), modes("right")
    return CoupledSystem(kind=kind, a=a, left=left, right=right, gamma=gamma)


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
    with _reading("poisson"):
        kernel_cfg, sum_cfg, delta = data["kernel"], data["sum"], _real(data["delta"], "delta")
    kernel = _kernel_from(kernel_cfg)
    gamma0 = data.get("gamma0")
    s = _sum_from(sum_cfg, kernel.gamma, None if gamma0 is None else _real(gamma0, "gamma0"))
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
    with _reading("haraux"):
        omega_prime = _real(data["omega_prime"], "omega_prime")
        j_prime = _integer(data["J_prime"], "J_prime")
    plan = plan_haraux(seq, omega_prime, j_prime, grid.delta)
    extended = extended_frame_constants(seq, grid, plan)
    report = {"plan": plan, "extended": extended, "grid": grid}
    if extended.singular:
        return report, "singular pencil"
    return report, None


def _handle_junction(kind: str, data: dict, cfg: RunConfig):
    system = _system_from(dict(data, kind=kind))
    grid = _grid_from(data)
    report = verify_observability(
        system,
        grid,
        _real(data.get("epsilon", 0.5), "epsilon"),
        _integer(data.get("trials", 100), "trials"),
        seed=cfg.seed,
        enforce_horizon=_flag(data.get("enforce_horizon", True), "enforce_horizon"),
    )
    out = dict(_sanitize(report), grid=grid, system=system)
    # the round trip reconstructs the witness, trial 0 of default_rng(cfg.seed)
    trial, trace = report._witness
    rec = reconstruct(trace, trial)
    truth, found = trial.left + trial.right, rec.left + rec.right
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


# scan task -> (sweepable axes, {row column: path into the sanitized report
# of the command of the same name, each step a key or a function}); the
# continuum task has no command, and its rows are continuum_limit_scan's
_SCAN_TASKS = {
    "frame": (
        ("delta", "J", "gamma0", "t_shift"),
        {c: (c,) for c in ("c_lower", "c_upper", "min_eig", "max_eig", "pencil_dim", "singular")},
    ),
    "gaps": (
        ("gamma0", "gamma"),
        {
            "n_a1": ("classification", "a1", len),
            "n_a2": ("classification", "a2_leads", len),
            "a2_leads": ("classification", "a2_leads", lambda leads: ";".join(map(str, leads))),
        },
    ),
    "haraux": (
        ("delta", "J", "J_prime", "omega_prime"),
        {
            **{c: ("plan", c) for c in ("eps_sup", "c_prime", "lipschitz_L")},
            "c3": ("extended", "c_lower"),
            "c4": ("extended", "c_upper"),
            "c4_formula": ("extended", "companions", "c4_formula"),
            "singular": ("extended", "singular"),
        },
    ),
    "continuum": (("J",), None),
}


def _at(report, path):
    for step in path:
        report = step(report) if callable(step) else report[step]
    return report


def _handle_scan(data: dict, cfg: RunConfig):
    with _reading("scan"):
        task, base, axes = data["task"], _object(data.get("base", {}), "base"), data.get("axes", [])
    if not isinstance(task, str) or task not in _SCAN_TASKS:
        raise StructuralError(f"unknown scan task {task!r}")
    sweepable, paths = _SCAN_TASKS[task]
    if not (isinstance(axes, list) and all(isinstance(axis, dict) for axis in axes)):
        raise StructuralError(f"scan axes must be a list of objects, got {axes!r}")
    if len(axes) > 2:
        raise ValidationError("at most two sweep axes are supported")
    for axis in axes:
        name, values = axis.get("name"), axis.get("values")
        if name not in sweepable:
            raise ValidationError(
                f"axis {name!r} not sweepable for task {task!r}",
                details={"allowed": list(sweepable)},
            )
        if values is not None and not isinstance(values, list):
            raise StructuralError(f"axis {name!r} values must be a list, got {values!r}")
        if not values:
            raise ValidationError(f"axis {name!r} has no values")
        if not all(math.isfinite(_real(v, name)) for v in values):
            raise ValidationError(f"axis {name!r} has non-finite values")
    if len(axes) == 2 and axes[0]["name"] == axes[1]["name"]:
        raise ValidationError(f"axis {axes[0]['name']!r} is given twice")
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
        handler = _COMMAND_TABLE[task][1]
        rows = []
        for combo in combos:
            report = _sanitize(handler({**base, **combo}, cfg)[0])
            rows.append({**combo, **{col: _at(report, path) for col, path in paths.items()}})
    columns = list(dict.fromkeys(key for row in rows for key in row))
    return {"task": task, "columns": columns, "rows": rows}, None


# command -> (help, handler); a handler maps the config object and the run
# settings to (report, validation note or None)
_COMMAND_TABLE = {
    "gaps": ("validate and classify an exponent sequence", _handle_gaps),
    "kernel": ("certify window-kernel constants", _handle_kernel),
    "poisson": ("evaluate both sides of the summation identity", _handle_poisson),
    "frame": ("empirical frame constants from the sampled pencil", _handle_frame),
    "haraux": ("plan a one-frequency augmentation and its extended constants", _handle_haraux),
    "string": ("coupled-string observability and reconstruction", partial(_handle_junction, STRING)),
    "beam": ("coupled-beam observability and reconstruction", partial(_handle_junction, BEAM)),
    "scan": ("sweep one or two parameters into a table", _handle_scan),
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
    """A scan's rows as a table; any other report flattened to one row of dotted keys."""
    if "rows" in report and "columns" in report:
        columns, rows = report["columns"], report["rows"]
    else:
        flat: dict[str, object] = {}

        def walk(prefix: str, node):
            if isinstance(node, dict):
                for k, v in node.items():
                    walk(f"{prefix}.{k}" if prefix else str(k), v)
            elif isinstance(node, list):
                flat[prefix] = ";".join("..." if isinstance(v, (dict, list)) else _csv_cell(v) for v in node)
            else:
                flat[prefix] = node

        walk("", _sanitize(report))
        columns, rows = sorted(flat), [flat]
    buf = io.StringIO()
    writer = csv.writer(buf, delimiter=",", lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([_csv_cell(row.get(c, "")) for c in columns] for row in rows)
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


def _load(path: str, envelope: dict) -> dict:
    """The config at path, which must be a JSON object; records its digest in envelope."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise StructuralError(f"cannot read input: {exc}") from None
    envelope["input_digest"] = hashlib.sha256(raw).hexdigest()
    try:
        data = json.loads(raw)
    except ValueError as exc:  # a JSONDecodeError, or bytes that are not UTF-8, -16 or -32
        raise StructuralError(f"invalid JSON: {exc}") from None
    return _object(data, "config")


def run(cfg: RunConfig) -> int:
    """Execute one command, write the report, return the exit code."""
    envelope: dict = {
        "tool": {"name": "ingham", "version": __version__},
        "command": cfg.command,
        "seed": cfg.seed,
    }
    code = 0
    try:
        data = _load(cfg.input_path, envelope)
        envelope["report"], validation_note = _COMMAND_TABLE[cfg.command][1](data, cfg)
        if validation_note is not None:
            envelope["error"], code = {"type": "validation", "message": validation_note}, 2
    except ValidationError as exc:
        envelope["error"], code = {
            "type": "validation",
            "message": str(exc.args[0]) if exc.args else "validation error",
            "details": _sanitize(getattr(exc, "details", {})),
        }, 2
    except StructuralError as exc:
        envelope["error"], code = {"type": "structural", "message": str(exc)}, 1
    try:
        _emit(cfg, envelope)
    except OSError as exc:
        sys.stderr.write(f"error: cannot write output: {exc}\n")
        return 1
    return code


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
    for name, (help_text, _) in _COMMAND_TABLE.items():
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


@cache
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
