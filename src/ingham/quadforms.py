"""Quadratic forms on coefficient vectors under the weakened gap condition.

The coefficient-side energy replacing sum |x_k|^2 is

    Q(x) = sum_{k in A1} |x_k|^2
         + sum_{k in A2 leads} [ |x_k + x_{k+1}|^2
                                 + (omega_{k+1} - omega_k)^2 (|x_k|^2 + |x_{k+1}|^2) ]

with the grouping fixed by the direct-inequality chain: both the paired
modulus and the gap-weighted sum sit inside the A2 term.  Q'(x) adds
|x'|^2 for one augmented exponent.  The matrix form is block diagonal:
scalar 1 for A1 indices and the 2x2 block [[1+d^2, 1], [1, 1+d^2]] with
d = omega_{k+1} - omega_k for each A2 pair (eigenvalues d^2 and 2+d^2),
held as its diagonal and subdiagonal.  Band-masked indices are excluded,
which amounts to the principal submatrix on the active set.
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
    """Q on the active indices as its bands: `sub[i]` couples positions i and i + 1 of a pair."""

    diag: np.ndarray
    sub: np.ndarray
    active: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.diag)

    @property
    def matrix(self) -> np.ndarray:
        """The dense symmetric matrix of the bands, formed on each read."""
        return np.diag(self.diag) + np.diag(self.sub, -1) + np.diag(self.sub, 1)


def q_matrix(seq: ExponentSequence, mask: BandMask | None = None) -> QMatrix:
    """Assemble the bands of Q over the active (band-admissible) indices.

    Starting from the identity, each pair adds d^2 to the diagonal entry of
    each active member, and the coupling 1 where both are active: the
    principal submatrix of the full form.  A pair with both members active
    and d < PAIR_GAP_FLOOR raises ValidationError naming its lead.
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
    sub = np.zeros(max(len(active) - 1, 0))
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
            sub[i] = 1.0
        for e in (i, j):
            if e is not None:
                diag[e] += d * d
    return QMatrix(diag=diag, sub=sub, active=active)
