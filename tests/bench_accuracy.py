"""Relative errors of the reported pencil constants against 50-digit references.

Usage, from the root of the repository:

    python3 tests/bench_accuracy.py --out ACCURACY.json [--parent DIR]

Every instance of INSTANCES is run through `ingham.cli.main` of this tree,
and of DIR if given (another checkout, for example the parent commit
unpacked with `git archive`), by the worker of `tests/bench_identity.py`:
a fresh interpreter that imports that tree's `src/` alone, with one BLAS
thread and `-W error::RuntimeWarning`.  The --out file holds, per
instance, its command and config, the reference of each constant as a
50-digit decimal string, and per tree the exit code (null where the call
raised), each reported constant and its relative error against the reference
(null where the run did not report it; a singular frame reports its
constants with exit 2, and its c_lower error is null, since the singular rule
reports c_lower as 0 by definition).  A junction also records its round trip:
`min_singular_value` against sqrt(lambda_min / delta) of the reference Gram, and
`amplitude_error`, an error already, whose reference is the drawn
amplitudes of the witness: it is stored under rel_error as reported.

The references are mpmath values on the same doubles (`references`): the
sampled Gram in closed form, delta e^{i theta t'} sin(N theta delta/2) /
sin(theta delta/2) with N = 2J+1 (`mp_sampled_gram`, which also sums it
sample by sample), the continuous Gram by quadrature of cos(theta t) over
[-R, R], Q in the coefficient basis (`mp_block_q`) or the junction's
diagonal N of `observability._pencil_weights`, and the extreme eigenvalues
of each pencil by a Cholesky congruence and `mp.eighe`, at DPS digits.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import tempfile
from pathlib import Path

import mpmath as mp

from bench_identity import start_worker

ROOT = Path(__file__).resolve().parent.parent
DPS = 100
DIGITS = 50


def _near_pair(d: float, J: int = 16, t_shift: float = 0.0) -> dict:
    """The frame instance whose pair gap d closes: omegas (-3.5, -0.5, -0.5 + d, 2.8, 5.9)."""
    return {"omegas": [-3.5, -0.5, -0.5 + d, 2.8, 5.9], "gamma": 1.3, "gamma0": 0.9,
            "delta": 0.18, "J": J, "t_shift": t_shift}


def _half_period(d: float, fraction: float) -> dict:
    """`_near_pair(d)` at t' = fraction pi/d, d the double gap: d t' = pi makes the pair's u
    a difference of its two exponentials, whose Q entry is 2d^2."""
    cfg = _near_pair(d)
    cfg["t_shift"] = fraction * math.pi / (cfg["omegas"][2] - cfg["omegas"][1])
    return cfg


def _junction(e: float) -> dict:
    """Strings joined at a = 1/3 + e, modes 1 | 1, 2: two cross-side pairs of gap about 42.4 e."""
    mode = {"plus": [0.3, 0.1], "minus": [0.2, -0.4]}
    return {"a": 1.0 / 3.0 + e, "left": [dict(mode, n=1)], "right": [dict(mode, n=1), dict(mode, n=2)],
            "delta": 0.2, "J": 60, "epsilon": 0.05, "trials": 10}


def _graded(epsilon: float) -> dict:
    """The `string` golden (a = sqrt(2)/2, no close pair) at Sobolev order epsilon: N = diag(nu)
    spans about 3^(2 + 2 epsilon)."""
    return dict(json.loads((ROOT / "tests" / "golden" / "string.json").read_text()), epsilon=epsilon)


CHAIN = {"omegas": [0.0, 0.5, 3.0, 3.4, 6.0], "gamma": 1.0, "gamma0": 0.85}
README = {"omegas": [-3.0, -0.5, 0.3, 2.8, 5.9], "gamma": 1.3, "gamma0": 0.9}
CONTINUUM = {"omegas": [-3.1, -0.4, 0.2, 2.6, 5.6], "gamma": 1.2, "gamma0": 0.8, "R": 4.0}

# (instance id, CLI command, config)
INSTANCES = (
    *((f"near-pair d={d:g} t'={t:g}", "frame", _near_pair(d, 16, t))
      for d in (1e-2, 1e-4, 1e-6, 1e-7, 1e-9, 1e-11) for t in (0.0, 0.37)),
    ("near-pair d=1e-07 J=1e4", "frame", _near_pair(1e-7, 10**4)),
    ("near-pair d=1e-07 J=1e5", "frame", _near_pair(1e-7, 10**5)),
    # no pair, so the constants do not depend on t'; a phase e^{i w t'} per exponent cannot move them
    ("no pair t'=1e12", "frame", {"omegas": [-3.0, -0.5, 1.2, 2.8, 5.9], "gamma": 1.3, "gamma0": 0.9,
                                   "delta": 0.18, "J": 16, "t_shift": 1e12}),
    *((f"junction e={e:g}", "string", _junction(e)) for e in (1e-3, 1e-5, 1e-7)),
    *((f"graded N epsilon={eps:g}", "string", _graded(eps)) for eps in (2.0, 5.0, 8.0, 10.0)),
    ("haraux chain", "haraux", dict(CHAIN, delta=0.2, J=20, omega_prime=4.7, J_prime=25)),
    ("continuum scan", "scan", {"task": "continuum", "base": CONTINUUM,
                                "axes": [{"name": "J", "values": [32, 128]}]}),
    # the pencils of the frame, haraux and scan goldens
    *((f"chain delta={delta:g} J={J}", "frame", dict(CHAIN, delta=delta, J=J))
      for delta, J in ((0.2, 16), (0.25, 16), (0.3, 16), (0.2, 24), (0.25, 24))),
    *((f"readme delta={delta:g}", "frame", dict(README, delta=delta, J=16)) for delta in (0.1, 0.15, 0.18, 0.2, 0.25)),
    ("haraux chain J'=30", "haraux", dict(CHAIN, delta=0.2, J=20, omega_prime=4.7, J_prime=30)),
    ("continuum scan J=64", "scan", {"task": "continuum", "base": CONTINUUM, "axes": [{"name": "J", "values": [64]}]}),
    *((f"near-pair d={d:g} t'={f:g} pi/d", "frame", _half_period(d, f))
      for d in (1e-2, 1e-4, 1e-6, 1e-9) for f in (1.0, 0.999999)),
    # two pairs, each rotated by a shift
    *((f"chain delta={delta:g} J=16 t'={t:g}", "frame", dict(CHAIN, delta=delta, J=16, t_shift=t))
      for delta, t in ((0.2, 0.37), (0.25, -2.1))),
    ("haraux chain t'=0.37", "haraux", dict(CHAIN, delta=0.2, J=20, omega_prime=4.7, J_prime=25, t_shift=0.37)),
)


def constants(command: str, report: dict) -> dict[str, float]:
    """The constants a command reports, by name."""
    if command == "frame":
        return {k: report[k] for k in ("c_lower", "c_upper")}
    if command == "haraux":
        ext = report["extended"]
        return {"c_lower": ext["c_lower"], "c_upper": ext["c_upper"],
                "c1_base": ext["companions"]["c1_base"], "c2_base": ext["companions"]["c2_base"]}
    if command == "string":
        return {"c_pencil": report["c_pencil"], "min_singular_value": report["roundtrip"]["min_singular_value"]}
    return {f"J={row['J']} {k}": row[k] for row in report["rows"]
            for k in ("c1_discrete", "c2_discrete", "c1_continuous", "c2_continuous")}


def mp_sampled_gram(omegas, delta: float, J: int, t_shift: float, summed: bool = False) -> mp.matrix:
    """delta sum_{j=-J}^{J} e^{i(w_k - w_n)(t' + j delta)} over the doubles omegas, delta and t',
    in closed form or, with summed, sample by sample."""
    w = [mp.mpf(x) for x in omegas]
    delta, t_shift, n = mp.mpf(delta), mp.mpf(t_shift), len(w)
    g = mp.matrix(n, n)
    for k in range(n):
        for m in range(n):
            theta = w[k] - w[m]
            if summed:
                g[k, m] = delta * mp.fsum(mp.expj(theta * (t_shift + j * delta)) for j in range(-J, J + 1))
            else:
                x = theta * delta / 2
                dirichlet = mp.mpf(2 * J + 1) if x == 0 else mp.sin((2 * J + 1) * x) / mp.sin(x)
                g[k, m] = delta * mp.expj(theta * t_shift) * dirichlet
    return g


def mp_continuous_gram(omegas, R: float) -> mp.matrix:
    """integral_{-R}^{R} cos((w_k - w_n) t) dt by quadrature, over the doubles omegas and R."""
    w = [mp.mpf(x) for x in omegas]
    R, n = mp.mpf(R), len(w)
    g = mp.matrix(n, n)
    for k in range(n):
        for m in range(k, n):
            theta = w[k] - w[m]
            pieces = mp.linspace(-R, R, int(abs(theta) * R / mp.pi) + 3)
            g[k, m] = g[m, k] = mp.quad(lambda t: mp.cos(theta * t), pieces)
    return g


def mp_block_q(seq, active) -> mp.matrix:
    """Q in the coefficient basis over the active indices: 1, a pair's block
    [[1+d^2, 1], [1, 1+d^2]], or 1 + d^2 for a member whose partner is not active."""
    cls = seq.classification
    pos = {k: i for i, k in enumerate(active)}
    q = mp.eye(len(active))
    for k in cls.a2_leads:
        p = cls.partners[k]
        d = mp.mpf(seq.omegas[p]) - mp.mpf(seq.omegas[k])
        i, j = pos.get(k), pos.get(p)
        for e in (i, j):
            if e is not None:
                q[e, e] += d * d
        if i is not None and j is not None:
            q[i, j] = q[j, i] = 1
    return q


def mp_pencil(gram: mp.matrix, q: mp.matrix) -> tuple:
    """(min, max) eigenvalue of gram v = lambda q v, q real symmetric positive definite."""
    low = mp.inverse(mp.cholesky(q))
    a = low * gram * low.T
    vals = mp.eighe((a + a.H) / 2, eigvals_only=True)
    vals = sorted(mp.re(v) for v in vals)
    return vals[0], vals[-1]


def _frame(seq, omegas, delta, J, t_shift, extra=None, summed=False) -> tuple:
    """Reference (min, max) of the frame pencil of seq on the grid, over its band-active indices,
    with one more exponent of Q weight 1 when extra is given, the Gram summed with summed."""
    from ingham import band_mask

    active = band_mask(seq, delta).active_indices()
    w = [omegas[k] for k in active]
    q = mp_block_q(seq, active)
    if extra is not None:
        w.append(extra)
        grown = mp.eye(len(w))
        for i in range(len(active)):
            for j in range(len(active)):
                grown[i, j] = q[i, j]
        q = grown
    return mp_pencil(mp_sampled_gram(w, delta, J, t_shift, summed), q)


def _junction_pencil(cfg: dict):
    """The merged omegas, the grid and N = diag(nu) of the junction's pencil."""
    from ingham import SamplingGrid
    from ingham.cli import _system_from
    from ingham.observability import _pencil_weights

    system = _system_from(dict(cfg, kind="string"))
    return list(system._layout[0].omegas), _pencil_weights(system, cfg["epsilon"]), SamplingGrid(cfg["delta"], cfg["J"])


def references(command: str, cfg: dict, summed: bool = False) -> dict[str, mp.mpf]:
    """The reference of each constant of `constants`, at mp.dps digits; with summed, a
    frame's Gram is summed sample by sample."""
    from ingham import ExponentSequence

    if command == "string":
        omegas, nu, grid = _junction_pencil(cfg)
        gram = mp_sampled_gram(omegas, grid.delta, grid.J, 0.0)
        low, _ = mp_pencil(gram, mp.diag([mp.mpf(v) for v in nu]))
        gram_low, _ = mp_pencil(gram, mp.eye(len(omegas)))
        return {"c_pencil": 1 / low, "min_singular_value": mp.sqrt(gram_low / mp.mpf(grid.delta))}
    base = cfg["base"] if command == "scan" else cfg
    seq = ExponentSequence(tuple(base["omegas"]), base["gamma"], base["gamma0"])
    if command == "frame":
        low, high = _frame(seq, seq.omegas, cfg["delta"], cfg["J"], cfg.get("t_shift", 0.0), summed=summed)
        return {"c_lower": low, "c_upper": high}
    if command == "haraux":
        J_ext = cfg["J"] + cfg["J_prime"]
        t_shift = cfg.get("t_shift", 0.0)
        low, high = _frame(seq, seq.omegas, cfg["delta"], J_ext, t_shift, extra=cfg["omega_prime"])
        base_low, base_high = _frame(seq, seq.omegas, cfg["delta"], cfg["J"], t_shift)
        return {"c_lower": low, "c_upper": high, "c1_base": base_low, "c2_base": base_high}
    from ingham import band_mask

    out = {}
    R = base["R"]
    for J in cfg["axes"][0]["values"]:
        low, high = _frame(seq, seq.omegas, R / J, J, 0.0)
        active = band_mask(seq, R / J).active_indices()
        c_low, c_high = mp_pencil(mp_continuous_gram([seq.omegas[k] for k in active], R),
                                  mp_block_q(seq, active))
        out.update({f"J={J} c1_discrete": low, f"J={J} c2_discrete": high,
                    f"J={J} c1_continuous": c_low, f"J={J} c2_continuous": c_high})
    return out


def run_tree(tree: Path, workdir: Path) -> dict:
    """{instance id: (exit code, report or None)} of every instance, run by tree's `ingham.cli`;
    the exit code is None where the call raised."""
    cases = []
    for i, (case_id, command, cfg) in enumerate(INSTANCES):
        path = workdir / f"{i:02d}.json"
        path.write_text(json.dumps(cfg))
        cases.append((case_id, [command, "--input", str(path)]))
    (workdir / "cases.json").write_text(json.dumps(cases))
    out = workdir / "results.json"
    if start_worker(tree, 1, workdir / "cases.json", out).wait() != 0:
        sys.exit(f"error: the worker failed on {tree}")
    results = {}
    for case_id, (code, text) in json.loads(out.read_text()).items():
        results[case_id] = (code, json.loads(text).get("report") if code in (0, 2) else None)
    return results


def rel_error(value, reference) -> float | None:
    if value is None:
        return None
    return float(abs(mp.mpf(value) - reference) / abs(reference))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True, help="JSON record to write")
    parser.add_argument("--parent", type=Path, help="another checkout to record beside this tree")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    trees = {"change": ROOT}
    if args.parent:
        trees = {"parent": args.parent.resolve(), **trees}
    with tempfile.TemporaryDirectory(prefix="bench-accuracy-") as tmp:
        runs = {}
        for name, tree in trees.items():
            workdir = Path(tmp, name)
            workdir.mkdir()
            runs[name] = run_tree(tree, workdir)
    record = []
    for case_id, command, cfg in INSTANCES:
        with mp.workdps(DPS):
            refs = references(command, cfg)
        entry = {"id": case_id, "command": command, "config": cfg,
                 "reference": {k: mp.nstr(v, DIGITS) for k, v in refs.items()}}
        summary = []
        for name, results in runs.items():
            code, report = results[case_id]
            values = constants(command, report) if report is not None else dict.fromkeys(refs)
            errors = {k: rel_error(values[k], refs[k]) for k in refs}
            # a frame's or haraux's c_lower is 0 by the singular rule, not an eigenvalue
            if "c_lower" in errors and report is not None and report.get("extended", report)["singular"]:
                errors["c_lower"] = None
            if command == "string":
                errors["amplitude_error"] = None if report is None else report["roundtrip"]["amplitude_error"]
            entry[name] = {"exit": code, "constants": values, "rel_error": errors}
            worst = max((e for e in errors.values() if e is not None), default=None)
            summary.append(f"{name} exit {code} worst " + ("-" if worst is None else f"{worst:.2e}"))
        record.append(entry)
        print(f"{case_id}: " + ", ".join(summary))
    args.out.write_text(json.dumps({"dps": DPS, "instances": record}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
