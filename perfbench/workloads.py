"""Seeded inputs for the benchmark workloads.

Every case is a JSON config for one `ingham` CLI command.  Inputs are
drawn from `--seed` alone and written before timing starts, so the program
under test sees nothing but the generated configs.  This module does not
import `ingham`: the inputs must stay the same when the library changes.

A pass of a workload is a fixed list of case classes, each a kind and a
size with a count; only the values inside each case come from the seed.
So every seed gives the same mix, and the counts place the latency
quantiles of a pass (the median and the 11th-largest case) in the middle
of a class of alike cases, away from the steps between classes.  The
classes are interleaved, so each spreads over the whole pass.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("pencil", "poisson", "junction")

# named error each expected refusal must exit 2 with
SINGULAR = "singular pencil"
BAND = "band condition violated: nonzero coefficient beyond pi/delta - gamma/2"
HORIZON = "time horizon too short for the observability estimate"
CAPS = "mode caps violated for this sampling step"

A_IRR = math.sqrt(2.0) / 2.0
BEAM_GAMMA = 8.0

_STREAM = {"pencil": 1, "poisson": 2, "junction": 3}


@dataclass(frozen=True)
class Case:
    """One CLI invocation: command, config, CLI seed and expected outcome."""

    case_id: str
    command: str
    kind: str
    config: dict
    cli_seed: int = 0
    refusal: str | None = None

    def config_bytes(self) -> bytes:
        return json.dumps(self.config, sort_keys=True).encode()


def _interleave(classes: list[list[Case]]) -> list[Case]:
    """Merge the classes so that each spreads evenly over the pass."""
    keyed = [((j + 0.5) / len(group), c, case)
             for c, group in enumerate(classes) for j, case in enumerate(group)]
    return [case for _, _, case in sorted(keyed, key=lambda item: item[:2])]


def _block_sequence(rng, n: int, gamma_range=(0.8, 1.6), chain_prob: float = 0.4):
    """Weak-gap sequence with close pairs, the construction of tests/helpers.py.

    Free gaps are at least 1.05 gamma and every close pair (gap below
    gamma0) is fenced by gaps of at least 2.05 gamma.
    """
    gamma = float(rng.uniform(*gamma_range))
    gamma0 = gamma * float(rng.uniform(0.35, 0.95))
    gaps: list[float] = []
    first = True
    while len(gaps) < n - 1:
        if rng.uniform() < chain_prob:
            s = float(rng.uniform(0.05, 0.9)) * gamma0
            big = float(rng.uniform(2.05, 2.6)) * gamma
            if first and rng.uniform() < 0.5:
                gaps.extend([s, big])
            else:
                gaps.extend([big, s, float(rng.uniform(2.05, 2.6)) * gamma])
        else:
            gaps.append(float(rng.uniform(1.05, 2.8)) * gamma)
        first = False
    omegas = [float(rng.uniform(-2.0, 2.0))]
    for g in gaps[: n - 1]:
        omegas.append(omegas[-1] + g)
    return omegas, gamma, gamma0


def _grid_for(rng, omegas, gamma, delta_cap=math.inf):
    """Step with every exponent inside the band and J delta above pi/gamma."""
    absmax = max(abs(w) for w in omegas)
    delta = min(0.9 * math.pi / (absmax + gamma / 2.0), 0.5 * math.pi / gamma, delta_cap)
    delta *= float(rng.uniform(0.6, 1.0))
    J = max(int(math.ceil(1.05 * math.pi / gamma / delta)), len(omegas) + 1)
    return delta, J


def _seq_config(omegas, gamma, gamma0) -> dict:
    return {"omegas": omegas, "gamma": gamma, "gamma0": gamma0}


def _frame(rng, n: int) -> Case:
    omegas, gamma, gamma0 = _block_sequence(rng, n)
    delta, J = _grid_for(rng, omegas, gamma)
    cfg = dict(_seq_config(omegas, gamma, gamma0), delta=delta, J=J,
               t_shift=float(rng.uniform(-1.0, 1.0)))
    return Case(f"frame-{n}", "frame", "frame", cfg)


def _haraux(rng, n: int) -> Case:
    omegas, gamma, gamma0 = _block_sequence(rng, n)
    # omega' halves the widest gap; keeping |w - omega'| delta <= 2 holds
    # every filter factor below 0.2 and inside the proximity radius
    k = int(np.argmax(np.diff(omegas)))
    omega_prime = 0.5 * (omegas[k] + omegas[k + 1])
    reach = max(abs(w - omega_prime) for w in omegas)
    delta, J = _grid_for(rng, omegas, gamma, delta_cap=2.0 / reach)
    gap_prime = min(abs(w - omega_prime) for w in omegas)
    cfg = dict(_seq_config(omegas, gamma, gamma0), delta=delta, J=J,
               omega_prime=omega_prime,
               J_prime=int(math.ceil(2.0 * math.pi / (gap_prime * delta))))
    return Case(f"haraux-{n}", "haraux", "haraux", cfg)


def _scan(rng, n: int) -> Case:
    omegas, gamma, gamma0 = _block_sequence(rng, n)
    R = float(rng.uniform(1.2, 2.5)) * math.pi / gamma
    absmax = max(abs(w) for w in omegas)
    j0 = max(n + 1, int(math.ceil(R * (absmax + gamma / 2.0) / (0.9 * math.pi))))
    cfg = {
        "task": "continuum",
        "base": dict(_seq_config(omegas, gamma, gamma0), R=R),
        "axes": [{"name": "J", "values": [j0, 2 * j0, 4 * j0]}],
    }
    return Case(f"scan-{n}", "scan", "scan", cfg)


def _singular(rng, n: int) -> Case:
    """Expected refusal: fewer samples (2J+1) than pencil dimension."""
    omegas, gamma, gamma0 = _block_sequence(rng, n)
    delta, _ = _grid_for(rng, omegas, gamma)
    J = int(rng.integers(2, (n - 1) // 2))
    cfg = dict(_seq_config(omegas, gamma, gamma0), delta=delta, J=J)
    return Case(f"singular-{n}", "frame", "singular", cfg, refusal=SINGULAR)


def _pencil_pass(rng) -> list[Case]:
    # 62 cases: the median falls in the middle of the 16 frame-20 cases,
    # the 11th-largest in the middle of the 17 frame-30 cases
    return _interleave([
        [_frame(rng, 10) for _ in range(15)],
        [_singular(rng, 10 + 2 * i) for i in range(4)],
        [_haraux(rng, 10) for _ in range(4)],
        [_frame(rng, 20) for _ in range(16)],
        [_scan(rng, 13) for _ in range(4)],
        [_frame(rng, 30) for _ in range(17)],
        [_frame(rng, n) for n in (70, 100)],
    ])


def _poisson_case(rng, n: int, variant: str, refuse: bool, label: str,
                  gamma_range=(1.5, 2.5)) -> Case:
    while True:
        omegas, gamma, gamma0 = _block_sequence(rng, n, gamma_range=gamma_range)
        absmax = max(abs(w) for w in omegas)
        # a refusal needs pi/delta >= gamma with the outermost exponent
        # beyond pi/delta - gamma/2
        if not refuse or absmax >= 0.6 * gamma:
            break
    c = rng.normal(size=n) + 1j * rng.normal(size=n)
    c = c / np.sum(np.abs(c))
    kernel = {"variant": variant, "gamma": gamma}
    if variant == "inverse":
        kernel["R"] = 1.5 * math.pi / gamma
    if refuse:
        delta = 1.1 * math.pi / (absmax + gamma / 2.0)
    else:
        # The step is the one for the widest span the generator can draw
        # (gaps of at most 2.8 gamma), so the sample count of the tail plan,
        # and with it the case's cost and memory, depends on n and gamma
        # only.  Centred, every exponent is inside the band at that step.
        mid = 0.5 * (omegas[0] + omegas[-1])
        omegas = [w - mid for w in omegas]
        delta = 0.9 * 2.0 * math.pi / ((n - 1) * 2.8 * gamma + 2.0 * gamma)
    cfg = {
        "kernel": kernel,
        "sum": {"omegas": omegas, "coeffs": [[float(z.real), float(z.imag)] for z in c]},
        "gamma0": gamma0,
        "delta": delta,
        "tail_tol": 1e-10,
    }
    return Case(f"{label}-{n}", "poisson", label, cfg, refusal=BAND if refuse else None)


def _poisson_pass(rng) -> list[Case]:
    # 104 cases: the median falls in the middle of the 24 inverse-3 cases,
    # the 11th-largest in the middle of the 17 inverse-10 cases
    return _interleave([
        [_poisson_case(rng, 3 + i % 10, "direct", False, "direct") for i in range(36)],
        [_poisson_case(rng, 3 + 3 * i, ("direct", "inverse")[i % 2], True, "band") for i in range(4)],
        [_poisson_case(rng, 3, "inverse", False, "inverse") for _ in range(24)],
        [_poisson_case(rng, 6, "inverse", False, "inverse") for _ in range(20)],
        [_poisson_case(rng, 10, "inverse", False, "inverse") for _ in range(17)],
        # the largest cases take the smallest gamma of the range, which gives
        # the most samples: the run's peak memory is the same for every seed
        [_poisson_case(rng, 12, "inverse", False, "inverse", (1.5, 1.5)) for _ in range(3)],
    ])


def _unit_disc(rng) -> list[float]:
    rad = math.sqrt(float(rng.uniform()))
    ang = float(rng.uniform(0.0, 2.0 * math.pi))
    return [rad * math.cos(ang), rad * math.sin(ang)]


def _modes(rng, count: int) -> list[dict]:
    return [{"n": k, "plus": _unit_disc(rng), "minus": _unit_disc(rng)} for k in range(1, count + 1)]


def _string_caps(a: float, delta: float) -> tuple[int, int]:
    """Largest admissible string mode per side: n <= a/delta - min(1, a/(1-a))/4."""
    left = a / delta - 0.25 * min(1.0, a / (1.0 - a))
    right = (1.0 - a) / delta - 0.25 * min(1.0, (1.0 - a) / a)
    return int(math.floor(left)), int(math.floor(right))


def _beam_caps(a: float, delta: float, gamma: float) -> tuple[int, int]:
    """Largest admissible beam mode per side: n <= (side/pi) sqrt(pi/delta - gamma/2)."""
    root = math.sqrt(math.pi / delta - gamma / 2.0)
    return int(math.floor(a / math.pi * root)), int(math.floor((1.0 - a) / math.pi * root))


def _junction_case(rng, kind, delta, label, horizon=None, extra_mode=False, refusal=None) -> Case:
    a = A_IRR
    if kind == "string":
        left, right = _string_caps(a, delta)
        threshold = 2.0 * max(a, 1.0 - a)
    else:
        left, right = _beam_caps(a, delta, BEAM_GAMMA)
        threshold = math.pi / BEAM_GAMMA
    if horizon is None:
        horizon = float(rng.uniform(1.02, 1.06))
    cfg = {
        "a": a,
        "left": _modes(rng, left + (1 if extra_mode else 0)),
        "right": _modes(rng, right),
        "delta": delta,
        "J": int(math.ceil(horizon * threshold / delta)),
        "epsilon": float(rng.uniform(0.03, 0.3)),
    }
    if kind == "beam":
        cfg["gamma"] = BEAM_GAMMA
    return Case(f"{label}-{delta:g}", kind, label, cfg,
                cli_seed=int(rng.integers(0, 2**31 - 1)), refusal=refusal)


def _junction_pass(rng) -> list[Case]:
    # 41 cases: the median falls in the middle of the 12 beam-0.006 cases,
    # the 11th-largest in the middle of the 9 beam-0.003 cases.  Beams
    # cannot use the string steps: at delta 0.2 no beam mode fits the cap.
    counts = (("string", 0.2, 6), ("beam", 0.015, 6), ("beam", 0.006, 12),
              ("beam", 0.003, 9), ("string", 0.05, 5), ("string", 0.02, 1))
    classes = [[_junction_case(rng, kind, delta, kind) for _ in range(k)] for kind, delta, k in counts]
    short = float(rng.uniform(0.6, 0.9))
    classes.append([
        _junction_case(rng, "string", 0.05, "horizon", horizon=short, refusal=HORIZON),
        _junction_case(rng, "string", 0.05, "caps", extra_mode=True, refusal=CAPS),
    ])
    return _interleave(classes)


_PASS = {"pencil": _pencil_pass, "poisson": _poisson_pass, "junction": _junction_pass}


def generate(workload: str, seed: int) -> list[Case]:
    """The cases of one pass of a workload."""
    if workload not in _PASS:
        raise ValueError(f"unknown workload {workload!r}")
    return _PASS[workload](np.random.default_rng([seed, _STREAM[workload]]))


def warmup(workload: str, seed: int) -> list[Case]:
    """One untimed case of each kind, from a separate stream, to finish lazy set-up."""
    first: dict[str, Case] = {}
    for case in _PASS[workload](np.random.default_rng([seed, _STREAM[workload], 1])):
        first.setdefault(case.kind, case)
    return list(first.values())
