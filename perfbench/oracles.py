"""Independent checks of CLI outputs, run after the timed region.

Each check returns the ratio of the observed error to the case's
correctness gate (None when the case has no error to measure) and raises
`OracleFailure` when the output is wrong.  Pencil constants are recomputed
with scipy from a Gram matrix summed sample by sample and a Q matrix built
here, so a faster but wrong Gram or eigensolver in the library cannot hide
behind a shared helper.  The Poisson right-hand side is recomputed by
Gauss-Legendre quadrature of the window convolution.
"""

from __future__ import annotations

import json
import math

import numpy as np

from workloads import SINGULAR

# gates, as in the test suite
PENCIL_ATOL = 1e-9  # times ||S||_F, tests/test_bounds.py
POISSON_ABS, POISSON_REL = 1e-10, 1e-9  # criterion 01
ROUNDTRIP_TOL = 1e-6  # criteria 08 and 09
PENCIL_BOUND_SLACK = 1e-9  # c_empirical <= c_pencil (1 + slack)
SINGULAR_RTOL = 1e-10

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(64)


class OracleFailure(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise OracleFailure(message)


def _pencil(s: np.ndarray, q: np.ndarray) -> tuple[float, float, float]:
    from scipy.linalg import eigh

    vals = eigh(s, q, eigvals_only=True)
    return float(vals[0]), float(vals[-1]), float(np.linalg.norm(s))


def _q_full(omegas, gamma0) -> np.ndarray:
    """Block matrix of Q: 1 per isolated index, [[1+d^2, 1], [1, 1+d^2]] per close pair."""
    n = len(omegas)
    q = np.eye(n)
    k = 0
    while k < n:
        if k + 1 < n and omegas[k + 1] - omegas[k] < gamma0:
            d = omegas[k + 1] - omegas[k]
            q[k, k] = q[k + 1, k + 1] = 1.0 + d * d
            q[k, k + 1] = q[k + 1, k] = 1.0
            k += 2
        else:
            k += 1
    return q


def _active(omegas, gamma, delta) -> np.ndarray:
    return np.flatnonzero(np.abs(np.asarray(omegas)) <= math.pi / delta - gamma / 2.0)


def _sampled_gram(omegas, delta, J, t_shift=0.0) -> np.ndarray:
    times = t_shift + delta * np.arange(-J, J + 1)
    v = np.exp(1j * np.multiply.outer(times, np.asarray(omegas, dtype=float)))
    return delta * (v.T @ v.conj())


def _compare(pairs, snorm: float) -> float:
    gate = PENCIL_ATOL * snorm
    worst = 0.0
    for got, want in pairs:
        _require(isinstance(got, float), f"constant {got!r} is not a number")
        worst = max(worst, abs(got - want) / gate)
    _require(worst <= 1.0, f"pencil constants off by {worst:.3g} x gate")
    return worst


def _base_pencil(cfg: dict):
    """Active indices, Q and oracle constants of the pencil on the config's grid."""
    omegas, gamma, delta = cfg["omegas"], cfg["gamma"], cfg["delta"]
    act = _active(omegas, gamma, delta)
    s = _sampled_gram(np.asarray(omegas)[act], delta, cfg["J"], cfg.get("t_shift", 0.0))
    q = _q_full(omegas, cfg["gamma0"])[np.ix_(act, act)]
    return act, q, _pencil(s, q)


def _frame_case(cfg: dict, report: dict, singular_expected: bool) -> float:
    act, _, (lo, hi, snorm) = _base_pencil(cfg)
    _require(report["pencil_dim"] == len(act), "pencil dimension differs from the active count")
    _require(report["singular"] is singular_expected, f"singular flag should be {singular_expected}")
    if singular_expected:
        _require(lo <= SINGULAR_RTOL * hi, "oracle pencil is not singular")
        _require(report["c_lower"] == 0.0, "singular pencil must report c_lower = 0")
        return _compare([(report["c_upper"], hi)], snorm)
    return _compare([(report["c_lower"], lo), (report["c_upper"], hi)], snorm)


def _haraux_case(cfg: dict, report: dict) -> float:
    rep = report["extended"]
    act, q, (lo, hi, snorm) = _base_pencil(cfg)
    base = _compare([(rep["companions"]["c1_base"], lo), (rep["companions"]["c2_base"], hi)], snorm)
    ext = np.append(np.asarray(cfg["omegas"])[act], cfg["omega_prime"])
    _require(rep["pencil_dim"] == len(ext), "extended pencil dimension differs")
    s = _sampled_gram(ext, cfg["delta"], cfg["J"] + cfg["J_prime"], cfg.get("t_shift", 0.0))
    q_ext = np.eye(len(ext))
    q_ext[:-1, :-1] = q
    lo, hi, snorm = _pencil(s, q_ext)
    _require(rep["singular"] is False, "extended pencil reported singular")
    return max(base, _compare([(rep["c_lower"], lo), (rep["c_upper"], hi)], snorm))


def _scan_case(cfg: dict, report: dict) -> float:
    base = cfg["base"]
    omegas, gamma, R = base["omegas"], base["gamma"], base["R"]
    q_full = _q_full(omegas, base["gamma0"])
    rows = report["rows"]
    j_values = cfg["axes"][0]["values"]
    _require([row["J"] for row in rows] == j_values, "scan rows do not follow the J axis")
    worst = 0.0
    for row, J in zip(rows, j_values):
        delta = R / J
        act = _active(omegas, gamma, delta)
        _require(row["active_count"] == len(act), "active count differs")
        w = np.asarray(omegas)[act]
        q = q_full[np.ix_(act, act)]
        lo, hi, snorm = _pencil(_sampled_gram(w, delta, J), q)
        _require(row["singular"] is False, "continuum row reported singular")
        worst = max(worst, _compare([(row["c1_discrete"], lo), (row["c2_discrete"], hi)], snorm))
        diffs = np.subtract.outer(w, w)
        with np.errstate(divide="ignore", invalid="ignore"):
            kappa = np.where(diffs == 0.0, 2.0 * R, 2.0 * np.sin(diffs * R) / diffs)
        lo, hi, knorm = _pencil(kappa, q)
        worst = max(worst, _compare([(row["c1_continuous"], lo), (row["c2_continuous"], hi)], knorm))
    return worst


def convolution(variant: str, gamma: float, R: float | None, x: float) -> float:
    """Window convolution G(x) by 64-point Gauss-Legendre quadrature.

    H(s) = cos^2(pi s / (2 gamma)) on [-gamma, gamma]; direct G = H*H,
    inverse G = R^2 H*H + H'*H'.  The integrand is smooth on the overlap
    of the two supports, so the rule is exact to rounding.
    """
    x = abs(x)
    if x >= 2.0 * gamma:
        return 0.0
    lo, hi = x - gamma, gamma
    s = 0.5 * (hi - lo) * _NODES + 0.5 * (hi + lo)
    w = 0.5 * (hi - lo) * _WEIGHTS
    a = math.pi / (2.0 * gamma)
    hh = np.cos(a * s) ** 2 * np.cos(a * (x - s)) ** 2
    if variant == "direct":
        return float(w @ hh)
    dd = (a * np.sin(2.0 * a * s)) * (a * np.sin(2.0 * a * (x - s)))
    return float(w @ (R * R * hh + dd))


def _poisson_case(cfg: dict, report: dict) -> float:
    kernel = cfg["kernel"]
    omegas = cfg["sum"]["omegas"]
    x = np.array([complex(re, im) for re, im in cfg["sum"]["coeffs"]])
    g = np.array([[convolution(kernel["variant"], kernel["gamma"], kernel.get("R"), wk - wn)
                   for wn in omegas] for wk in omegas])
    rhs = 2.0 * math.pi * float((x @ g @ x.conj()).real)
    gate = POISSON_ABS + POISSON_REL * (1.0 + abs(rhs))
    worst = max(abs(report["lhs"] - report["rhs"]), abs(report["rhs"] - rhs)) / gate
    _require(worst <= 1.0, f"summation identity off by {worst:.3g} x gate")
    return worst


def _junction_case(cfg: dict, report: dict) -> float:
    _require(report["singular"] is False and report["horizon_ok"] is True, "pencil singular or horizon short")
    count = 2 * (len(cfg["left"]) + len(cfg["right"]))
    _require(report["exponent_count"] == count, "merged exponent count differs")
    _require(report["c_empirical"] <= report["c_pencil"] * (1.0 + PENCIL_BOUND_SLACK),
             "empirical constant exceeds the pencil bound")
    err = report["roundtrip"]["amplitude_error"] / ROUNDTRIP_TOL
    _require(err <= 1.0, f"round-trip amplitude error {err:.3g} x tolerance")
    return err


def check(case, code: int, text: str) -> float | None:
    """Verify one CLI result; returns the error-to-gate ratio."""
    try:
        env = json.loads(text)
    except json.JSONDecodeError as exc:
        raise OracleFailure(f"output is not JSON: {exc}") from None
    if case.refusal is not None:
        message = env.get("error", {}).get("message")
        _require(code == 2 and message == case.refusal,
                 f"expected exit 2 with {case.refusal!r}, got {code} with {message!r}")
        if case.refusal == SINGULAR:
            return _frame_case(case.config, env["report"], True)
        return None
    _require(code == 0 and "error" not in env, f"exit {code}: {env.get('error')}")
    report = env["report"]
    if case.command == "frame":
        return _frame_case(case.config, report, False)
    if case.command == "haraux":
        return _haraux_case(case.config, report)
    if case.command == "scan":
        return _scan_case(case.config, report)
    if case.command == "poisson":
        return _poisson_case(case.config, report)
    return _junction_case(case.config, report)
