"""Quadratic forms on coefficient vectors under the weakened gap condition.

The coefficient-side energy replacing sum |x_k|^2 is

    Q(x) = sum_{k in A1} |x_k|^2
         + sum_{k in A2 leads} [ |x_k + x_{k+1}|^2
                                 + (omega_{k+1} - omega_k)^2 (|x_k|^2 + |x_{k+1}|^2) ]

with the grouping fixed by the direct-inequality chain: both the paired
modulus and the gap-weighted sum sit inside the A2 term.  Q'(x) adds
|x'|^2 for one augmented exponent.  In the coefficient basis each A2 pair
is the 2x2 block [[1+d^2, 1], [1, 1+d^2]], d = omega_{k+1} - omega_k.  In
the divided-difference basis u = e_k + e_{k+1}, v = (e_{k+1} - e_k)/d of
the weakened gap condition, x = a u + b v gives x_k + x_{k+1} = 2a and
|x_k|^2 + |x_{k+1}|^2 = 2|a|^2 + 2|b|^2/d^2, so Q is diagonal: 4 + 2d^2
and 2 for a pair, 1 for an A1 index, and 1 + d^2 for a pair member whose
partner is band-masked out.  `q_matrix` returns that diagonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import StructuralError, ValidationError
from .exponents import BandMask, ExponentSequence
from .sums import AugmentedExpSum

# pair gaps below this make the 1 + d^2 block numerically singular
PAIR_GAP_FLOOR = 1e-12


def q_form(seq: ExponentSequence, coeffs) -> float:
    """Scalar quadratic form Q on a coefficient vector."""
    cls = seq.classification
    x = tuple(complex(c) for c in coeffs)
    if len(x) != len(seq):
        raise StructuralError(
            f"coefficient count {len(x)} does not match sequence length {len(seq)}"
        )
    terms = []
    for k in sorted(cls.a1):
        terms.append(abs(x[k]) ** 2)
    for k in sorted(cls.a2_leads):
        p = cls.partners[k]
        d = seq.omegas[p] - seq.omegas[k]
        terms.append(abs(x[k] + x[p]) ** 2)
        terms.append(d * d * (abs(x[k]) ** 2 + abs(x[p]) ** 2))
    return math.fsum(terms)


def q_prime(aug: AugmentedExpSum) -> float:
    """Q'(x) = |x'|^2 + Q(x) on the base sequence of the augmented sum."""
    return abs(aug.x_prime) ** 2 + q_form(aug.base.seq, aug.base.coeffs)


@dataclass(eq=False)
class QMatrix:
    """Q on the active indices in the divided-difference basis: its diagonal `diag`,
    and each pair with both members active by the position `leads[i]` of its u
    (its v follows at leads[i] + 1) and its gap `gaps[i]`, in ascending position."""

    diag: np.ndarray
    leads: np.ndarray
    gaps: np.ndarray
    active: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.diag)


def q_matrix(seq: ExponentSequence, mask: BandMask | None = None) -> QMatrix:
    """Assemble Q over the active (band-admissible) indices.

    A pair with both members active takes 4 + 2d^2 and 2 at the positions
    of its u and v; a member whose partner is masked out takes 1 + d^2,
    and every other index 1.  A pair with both members active and
    d < PAIR_GAP_FLOOR raises ValidationError naming its lead.
    """
    cls = seq.classification
    if mask is None:
        active = tuple(range(len(seq)))
    else:
        if len(mask.admissible) != len(seq):
            raise StructuralError("band mask length does not match sequence")
        active = mask.active_indices()
    pos = {k: i for i, k in enumerate(active)}
    diag = np.ones(len(active))
    pairs = []
    for k in cls.a2_leads:
        p = cls.partners[k]
        d = seq.omegas[p] - seq.omegas[k]
        i, j = pos.get(k), pos.get(p)
        if i is not None and j is not None:
            if d < PAIR_GAP_FLOOR:
                raise ValidationError(
                    "QMatrix numerically singular: pair gap below 1e-12",
                    details={"lead": k, "gap": d},
                )
            diag[i], diag[j] = 4.0 + 2.0 * (d * d), 2.0
            pairs.append((i, d))
        else:
            for e in (i, j):
                if e is not None:
                    diag[e] += d * d
    pairs.sort()
    leads = np.array([i for i, _ in pairs], dtype=np.intp)
    gaps = np.array([d for _, d in pairs], dtype=float)
    return QMatrix(diag=diag, leads=leads, gaps=gaps, active=active)
