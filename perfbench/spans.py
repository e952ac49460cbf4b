"""Span recorder for the traced run.

`traced()` replaces each target function with a recording wrapper in every
`ingham.*` namespace that binds it (for example `hermitian_pencil_eig` is
bound in both `bounds` and `observability`), and restores the originals on
exit.  A span holds its name, start, end, parent and the case it belongs
to, and stays in memory until the run ends.  Self time is a span's
duration minus the time covered by its child spans.  Untraced runs never
call `traced()`, so they execute the library unchanged.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _terms(args, kwargs, _result) -> int:
    s = _arg(args, kwargs, 0, "s")
    count = len(s.seq) if hasattr(s, "seq") else len(s.base.seq) + 1
    return count * int(np.size(_arg(args, kwargs, 1, "t")))


# (module, attribute, span name, {work counter: function of args, kwargs, result})
TARGETS = (
    ("exponents", "classify", "exponents.classify", {}),
    ("exponents", "band_mask", "exponents.band_mask", {}),
    ("exponents", "validate_weak_gap", "exponents.validate_weak_gap", {}),
    ("quadforms", "q_matrix", "quadforms.q_matrix", {}),
    ("bounds", "_gram_from_omegas", "bounds.gram",
     {"entries": lambda a, k, r: len(_arg(a, k, 0, "omegas")) ** 2}),
    ("bounds", "hermitian_pencil_eig", "bounds.hermitian_pencil_eig",
     {"dim_cubed": lambda a, k, r: np.shape(_arg(a, k, 0, "s"))[0] ** 3}),
    ("bounds", "frame_constants", "bounds.frame_constants", {}),
    ("bounds", "extended_frame_constants", "bounds.extended_frame_constants", {}),
    ("bounds", "continuum_limit_scan", "bounds.continuum_limit_scan", {}),
    ("sums", "eval_sum", "sums.eval_sum", {"terms": _terms}),
    ("sums", "poisson_sides", "sums.poisson_sides", {"j_half_count": lambda a, k, r: r.j_half_count}),
    ("kernels", "g_transform", "kernels.g_transform",
     {"points": lambda a, k, r: int(np.size(_arg(a, k, 1, "t")))}),
    ("kernels", "convolution_eval", "kernels.convolution_eval", {}),
    ("kernels", "certify_constants", "kernels.certify_constants", {}),
    ("observability", "with_amplitudes", "observability.with_amplitudes", {}),
    ("observability", "assemble_exponents", "observability.assemble_exponents", {}),
    ("observability", "observe", "observability.observe", {}),
    ("observability", "initial_data_energy", "observability.initial_data_energy", {}),
    ("observability", "reconstruct", "observability.reconstruct", {}),
    ("observability", "verify_observability", "observability.verify_observability", {}),
    # bytes_out is added by the runner, which sees the captured output
    ("cli", "run", "cli.run", {}),
)

_BOUNDS_TOP = ("bounds.frame_constants", "bounds.extended_frame_constants", "bounds.continuum_limit_scan")

# per-layer metrics reported by the traced run, with units
PER_LAYER: tuple[tuple[str, str], ...] = tuple(
    (f"{name}.{field}", unit)
    for _, _, name, counters in TARGETS
    for field, unit in (
        ([] if name in _BOUNDS_TOP else [("calls", "count")])
        + [("self_s", "s")]
        + [(c, "count") for c in counters]
        + ([("bytes_out", "bytes")] if name == "cli.run" else [])
    )
) + (("trace.overhead_s", "s"), ("trace.cases", "count"))

# spans that must fire on each workload; zero calls means a missed binding
EXPECTED = {
    "pencil": (
        "exponents.classify", "exponents.band_mask", "exponents.validate_weak_gap",
        "quadforms.q_matrix", "bounds.gram", "bounds.hermitian_pencil_eig", *_BOUNDS_TOP, "cli.run",
    ),
    "poisson": (
        "sums.eval_sum", "sums.poisson_sides", "kernels.g_transform",
        "kernels.convolution_eval", "kernels.certify_constants", "cli.run",
    ),
    "junction": (
        "bounds.gram", "bounds.hermitian_pencil_eig", "sums.eval_sum",
        *(name for module, _, name, _ in TARGETS if module == "observability"), "cli.run",
    ),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "case", "child_time")

    def __init__(self, name, start, parent, case):
        self.name, self.start, self.end = name, start, start
        self.parent, self.case, self.child_time = parent, case, 0.0


class Recorder:
    """Collects spans and work counts; `case` tags every span opened under it."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.case: str | None = None
        self._stack: list[Span] = []

    def wrap(self, name, fn, counters):
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, perf_counter(), parent, self.case)
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent.child_time += span.end - span.start
            for field, count in counters.items():
                self.counts[f"{name}.{field}"] += count(args, kwargs, result)
            return result

        return wrapper

    def layer_metrics(self) -> dict[str, float]:
        """Calls and self time per span name, plus the work counts."""
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for span in self.spans:
            calls[span.name] += 1
            self_s[span.name] += (span.end - span.start) - span.child_time
        out = dict(self.counts)
        for _, _, name, _ in TARGETS:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        return out


@contextmanager
def traced(recorder: Recorder):
    """Install wrappers for every target in every ingham namespace; yields the binding count."""
    patched = []
    try:
        for module, attr, name, counters in TARGETS:
            original = getattr(importlib.import_module(f"ingham.{module}"), attr)
            wrapper = recorder.wrap(name, original, counters)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "ingham" and not mod_name.startswith("ingham."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        patched.append((mod, key, original))
        yield len(patched)
    finally:
        for mod, key, original in reversed(patched):
            setattr(mod, key, original)
