"""Shared generators and subprocess environment for the test suite.

Sequences come from a block construction that satisfies the two-step gap
condition by design: free gaps of at least 1.05 gamma, and close pairs
(gap below gamma0) always fenced by gaps of at least 2.05 gamma, so
every window of two consecutive gaps sums to more than 2 gamma.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from pathlib import Path

import numpy as np

import ingham
from ingham import ExponentSequence, SamplingGrid


def env_with_package() -> dict:
    """Environment whose PYTHONPATH starts at the imported ingham package's parent."""
    root = str(Path(ingham.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=root + (os.pathsep + inherited if inherited else ""))


def block_sequence(
    rng: np.random.Generator,
    nmax: int = 12,
    nmin: int = 3,
    gamma_range=(0.8, 1.6),
    chain_prob: float = 0.4,
) -> ExponentSequence:
    """Random weak-gap sequence with chains, valid by construction."""
    n = int(rng.integers(nmin, nmax + 1))
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
    gaps = gaps[: n - 1]
    omegas = [float(rng.uniform(-2.0, 2.0))]
    for g in gaps:
        omegas.append(omegas[-1] + g)
    return ExponentSequence(tuple(omegas), gamma, gamma0)


def admissible_grid(
    seq: ExponentSequence,
    rng: np.random.Generator | None = None,
    horizon_factor: float = 1.05,
    extra_samples: int = 1,
) -> SamplingGrid:
    """Grid with every exponent inside the band and J*delta above pi/gamma."""
    absmax = max(abs(w) for w in seq.omegas)
    delta = min(0.9 * math.pi / (absmax + seq.gamma / 2.0), 0.5 * math.pi / seq.gamma)
    if rng is not None:
        delta *= float(rng.uniform(0.6, 1.0))
    J = max(
        int(math.ceil(horizon_factor * math.pi / seq.gamma / delta)),
        len(seq) + extra_samples,
    )
    return SamplingGrid(delta, J)


def poisson_delta(seq: ExponentSequence, safety: float = 0.9) -> float:
    """Step small enough that periodization is invisible and the band holds.

    Exactness needs 2 pi/delta >= span + 2 gamma; the band condition needs
    delta <= pi/(max|omega| + gamma/2).
    """
    span = seq.omegas[-1] - seq.omegas[0]
    absmax = max(abs(w) for w in seq.omegas)
    return safety * min(
        2.0 * math.pi / (span + 2.0 * seq.gamma),
        math.pi / (absmax + seq.gamma / 2.0),
    )


def uniform_disc(rng: np.random.Generator) -> complex:
    r = math.sqrt(rng.uniform())
    phi = rng.uniform(0.0, 2.0 * math.pi)
    return complex(r * math.cos(phi), r * math.sin(phi))


def random_coeffs(rng: np.random.Generator, n: int, l1: float | None = None) -> tuple:
    c = rng.normal(size=n) + 1j * rng.normal(size=n)
    if l1 is not None:
        c = c * (l1 / np.sum(np.abs(c)))
    return tuple(c)


def _identity(n: int, exact: bool) -> np.ndarray:
    """The n x n identity, as floats or as an object array of Python ints (exact)."""
    return np.identity(n, dtype=int).astype(object) if exact else np.eye(n)


def dense_block_q(seq: ExponentSequence, mask=None, exact: bool = False) -> np.ndarray:
    """Q in the coefficient basis over the active indices, as a dense matrix:
    1 per A1 index, the block [[1+d^2, 1], [1, 1+d^2]] per pair with both
    members active, and 1 + d^2 for a member whose partner is masked out.
    With `exact`, an object array of Fractions of the double gaps, unrounded."""
    cls = seq.classification
    active = tuple(range(len(seq))) if mask is None else mask.active_indices()
    pos = {k: i for i, k in enumerate(active)}
    q = _identity(len(active), exact)
    for k in cls.a2_leads:
        p = cls.partners[k]
        d = seq.omegas[p] - seq.omegas[k]
        d = Fraction(d) if exact else d
        i, j = pos.get(k), pos.get(p)
        for e in (i, j):
            if e is not None:
                q[e, e] += d * d
        if i is not None and j is not None:
            q[i, j] = q[j, i] = 1
    return q


def pair_basis(qm, exact: bool = False) -> np.ndarray:
    """The real matrix B whose columns are the divided-difference basis of a QMatrix:
    e_n for a single, u = e_k + e_p and v = (e_p - e_k)/d for a pair at (lead, lead + 1).
    With `exact`, an object array of Fractions of the double gaps, unrounded."""
    b = _identity(qm.dim, exact)
    for i, d in zip(qm.leads.tolist(), qm.gaps.tolist()):
        d = Fraction(d) if exact else d
        b[i + 1, i] = 1
        b[i, i + 1], b[i + 1, i + 1] = -1 / d, 1 / d
    return b
