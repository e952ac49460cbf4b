"""Exponent sequences, the weakened gap condition, and band admissibility.

A strictly increasing frequency sequence (omega_k) satisfies the weakened
gap condition with parameter gamma > 0 when

    omega_{k+2} - omega_k >= 2 * gamma    for every k,

which permits adjacent close pairs ("chains") of frequencies.  Relative to
a threshold 0 < gamma0 <= gamma each index is classified as

* A1 member:  both neighbor gaps >= gamma0,
* A2 lead:    left gap >= gamma0 and right gap < gamma0,
* partner:    the index following an A2 lead.

Sequences are stored as finite windows of the conceptually bi-infinite
list; a missing neighbor gap at the window boundary counts as +inf, so a
boundary index never fails the gamma0 test on the missing side.  Two
consecutive gaps below gamma0 are impossible under the weakened gap
condition, hence the classification is a partition.

Band admissibility for a sampling step delta marks index k admissible iff
|omega_k| <= pi/delta - gamma/2.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property

from .errors import StructuralError, ValidationError, finite, positive

BOUNDARY_GAP_INFINITE = "missing-neighbor-gap-is-infinite"


@dataclass(frozen=True)
class ExponentSequence:
    """Strictly increasing real angular frequencies with gap parameters."""

    omegas: tuple[float, ...]
    gamma: float
    gamma0: float

    def __post_init__(self):
        try:
            omegas = tuple(finite(w, "frequency") for w in self.omegas)
        except TypeError as exc:
            raise StructuralError(f"frequencies must be real numbers: {exc}") from None
        if len(omegas) == 0:
            raise StructuralError("empty frequency sequence")
        gamma = positive(self.gamma, "gamma")
        gamma0 = positive(self.gamma0, "gamma0")
        if gamma0 > gamma:
            raise StructuralError(f"gamma0 must satisfy 0 < gamma0 <= gamma, got {gamma0}")
        object.__setattr__(self, "omegas", omegas)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "gamma0", gamma0)

    def __len__(self) -> int:
        return len(self.omegas)

    def gaps(self) -> tuple[float, ...]:
        """Consecutive differences omega_{k+1} - omega_k."""
        w = self.omegas
        return tuple(w[k + 1] - w[k] for k in range(len(w) - 1))

    @cached_property
    def classification(self) -> GapClassification:
        """`classify(self)`, computed once per sequence and shared by every caller."""
        return classify(self)


@dataclass(frozen=True)
class GapViolation:
    """One violated gap inequality between indices i < j."""

    kind: str  # "monotone" (j = i+1) or "weak_gap" (j = i+2)
    i: int
    j: int
    observed: float
    required: float


@dataclass(frozen=True)
class GapValidation:
    ok: bool
    violations: tuple[GapViolation, ...]


@dataclass(frozen=True)
class GapClassification:
    """Partition of indices into A1 members, A2 leads, and their partners."""

    a1: frozenset[int]
    a2_leads: frozenset[int]
    partners: dict[int, int]
    boundary_policy: str = BOUNDARY_GAP_INFINITE


@dataclass(frozen=True)
class BandMask:
    """Admissibility flags for the band condition |omega| <= pi/delta - gamma/2."""

    admissible: tuple[bool, ...]
    delta: float
    threshold: float

    def active_indices(self) -> tuple[int, ...]:
        return tuple(k for k, ok in enumerate(self.admissible) if ok)

    @property
    def active_count(self) -> int:
        return sum(self.admissible)


def validate_weak_gap(seq: ExponentSequence) -> GapValidation:
    """Check strict monotonicity and the two-step gap condition.

    Returns a report listing every violating pair; construction of the
    sequence has already rejected non-finite or empty input.
    """
    w = seq.omegas
    violations = []
    for k in range(len(w) - 1):
        if not (w[k] < w[k + 1]):
            violations.append(GapViolation("monotone", k, k + 1, w[k + 1] - w[k], 0.0))
    two_gamma = 2.0 * seq.gamma
    for k in range(len(w) - 2):
        observed = w[k + 2] - w[k]
        if not (observed >= two_gamma):
            violations.append(GapViolation("weak_gap", k, k + 2, observed, two_gamma))
    return GapValidation(ok=not violations, violations=tuple(violations))


def classify(seq: ExponentSequence) -> GapClassification:
    """Partition indices by the gamma0 threshold.

    k leads a pair, with partner k + 1, iff its right gap is below gamma0;
    A1 is every index that is neither.  A missing gap at the window boundary
    is +inf.  Requires a valid weak-gap sequence, and refuses any index with
    both gaps below gamma0, which such a sequence has only through rounding.
    """
    report = validate_weak_gap(seq)
    if not report.ok:
        raise ValidationError(
            "sequence violates the weakened gap condition", details=asdict(report)
        )
    g0 = seq.gamma0
    gaps = (math.inf, *seq.gaps(), math.inf)
    a1: set[int] = set()
    leads: set[int] = set()
    partners: dict[int, int] = {}
    for k, (left, right) in enumerate(zip(gaps, gaps[1:])):
        if left < g0 and right < g0:
            raise ValidationError(
                f"index {k} has both neighbor gaps below gamma0",
                details={"index": k, "left": left, "right": right},
            )
        if right < g0:
            leads.add(k)
            partners[k] = k + 1
        elif not left < g0:
            a1.add(k)
    return GapClassification(a1=frozenset(a1), a2_leads=frozenset(leads), partners=partners)


def band_mask(seq: ExponentSequence, delta: float) -> BandMask:
    """Mark indices whose frequency fits the band |omega| <= pi/delta - gamma/2."""
    delta = positive(delta, "delta")
    threshold = math.pi / delta - seq.gamma / 2.0
    if threshold <= 0.0:
        raise ValidationError(
            "no admissible band: pi/delta - gamma/2 <= 0",
            details={"delta": delta, "gamma": seq.gamma, "threshold": threshold},
        )
    admissible = tuple(abs(w) <= threshold for w in seq.omegas)
    return BandMask(admissible=admissible, delta=delta, threshold=threshold)
