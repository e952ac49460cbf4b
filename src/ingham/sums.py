"""Exponential sums: evaluation, sampled and continuous energies, and the
kernel-weighted summation identity.

For x(t) = sum_k x_k exp(i omega_k t) and a window kernel with transform g,
the summation identity reads

    delta * sum_j g(j delta) |x(j delta)|^2
        = 2 pi * sum_{k,n} G_delta(omega_k - omega_n) x_k conj(x_n),

where G_delta is the 2 pi/delta periodization of the raw convolution G.
When every pairwise difference satisfies |omega_k - omega_n| <= 2 pi/delta
minus the convolution support radius, the periodization is invisible and
the right-hand side uses G directly.  `poisson_sides` computes the
left-hand side with a certified truncation of the j sum and the
right-hand side from the raw convolution; the value obtained from the
support-pinned kernel is reported as a companion (the two differ for
pair distances between gamma and 2 gamma).

Energies and the left-hand side are summed exactly and rounded once
(`_exact_sum`, the double math.fsum returns), so identity checks at the
1e-9 level are not polluted by accumulation error.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import StructuralError, ValidationError, count, finite, positive
from .exponents import ExponentSequence, band_mask
from .kernels import VARIANT_DIRECT, WindowKernel, convolution_eval, g_transform


@dataclass(frozen=True)
class ExpSum:
    """Coefficient vector over an exponent sequence."""

    seq: ExponentSequence
    coeffs: tuple[complex, ...]

    def __post_init__(self):
        coeffs = tuple(complex(c) for c in self.coeffs)
        if len(coeffs) != len(self.seq):
            raise StructuralError(
                f"coefficient count {len(coeffs)} does not match sequence length {len(self.seq)}"
            )
        if not all(cmath.isfinite(c) for c in coeffs):
            raise StructuralError("non-finite coefficient")
        object.__setattr__(self, "coeffs", coeffs)

    def eval(self, t):
        return eval_sum(self, t)


@dataclass(frozen=True)
class AugmentedExpSum:
    """A plain sum plus one extra exponent omega' with coefficient x'."""

    base: ExpSum
    omega_prime: float
    x_prime: complex
    gamma_prime: float = field(init=False)

    def __post_init__(self):
        omega_prime = float(self.omega_prime)
        x_prime = complex(self.x_prime)
        if not math.isfinite(omega_prime) or not cmath.isfinite(x_prime):
            raise StructuralError("non-finite augmented component")
        gp = min(abs(w - omega_prime) for w in self.base.seq.omegas)
        if gp == 0.0:
            raise ValidationError(
                "omega_prime coincides with a sequence frequency",
                details={"omega_prime": omega_prime},
            )
        object.__setattr__(self, "omega_prime", omega_prime)
        object.__setattr__(self, "x_prime", x_prime)
        object.__setattr__(self, "gamma_prime", gp)

    def eval(self, t):
        return eval_sum(self, t)


@dataclass(frozen=True)
class SamplingGrid:
    """Uniform grid t' + j delta for j = -J .. J."""

    delta: float
    J: int
    t_shift: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "delta", positive(self.delta, "delta"))
        object.__setattr__(self, "J", count(self.J, "J"))
        object.__setattr__(self, "t_shift", finite(self.t_shift, "t_shift"))

    def times(self) -> np.ndarray:
        return self.t_shift + self.delta * np.arange(-self.J, self.J + 1)


def _components(s) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(s, AugmentedExpSum):
        omegas = np.array(list(s.base.seq.omegas) + [s.omega_prime], dtype=float)
        coeffs = np.array(list(s.base.coeffs) + [s.x_prime], dtype=complex)
    elif isinstance(s, ExpSum):
        omegas = np.array(s.seq.omegas, dtype=float)
        coeffs = np.array(s.coeffs, dtype=complex)
    else:
        raise StructuralError(f"not an exponential sum: {type(s).__name__}")
    return omegas, coeffs


def _grid_values(omegas: np.ndarray, coeffs: np.ndarray, grid: SamplingGrid) -> np.ndarray:
    """Values at grid.times() by block phasors.

    The M = 2J + 1 points split into blocks of B = ceil(sqrt(M)); point
    qB + r sits at a_q + r delta with the anchor a_q = t' + (qB - J) delta
    computed directly, so rounding does not accumulate along the grid.
    exp(i w (a_q + r delta)) = exp(i w a_q) exp(i w r delta) needs N (Q + B)
    exponentials instead of N M, followed by one matrix product.
    """
    m = 2 * grid.J + 1
    b = math.isqrt(m - 1) + 1
    q = -(-m // b)
    anchors = grid.t_shift + grid.delta * (b * np.arange(q) - grid.J)
    steps = grid.delta * np.arange(b)
    outer = np.exp(1j * np.multiply.outer(anchors, omegas)) * coeffs
    inner = np.exp(1j * np.multiply.outer(omegas, steps))
    return (outer @ inner).ravel()[:m]


def eval_sum(s, t):
    """Evaluate sum_k x_k exp(i omega_k t) at scalar or array t.

    For a SamplingGrid t the values at every grid point come back in the
    order of grid.times(), computed by block phasors (`_grid_values`).
    """
    omegas, coeffs = _components(s)
    if isinstance(t, SamplingGrid):
        return _grid_values(omegas, coeffs, t)
    ta = np.asarray(t, dtype=float)
    values = np.exp(1j * np.multiply.outer(ta, omegas)) @ coeffs
    if np.ndim(t) == 0:
        return complex(values)
    return values


_EXACT_CHUNK = 1 << 15  # temporaries stay in cache; any size up to 2^26 is exact
_EXACT_MIN_EXP = -1074  # below every exponent np.frexp returns


def _exact_sum(a: np.ndarray) -> float:
    """Correctly rounded sum of a float64 array: the double math.fsum returns.

    Each term is m 2^e with m 2^26 = q + r, q an integer of magnitude at
    most 2^26 and r in [0, 1) a multiple of 2^-27.  Per chunk of
    _EXACT_CHUNK terms, np.bincount adds q and r per exponent; every
    partial sum is a multiple of its unit below 2^53, so the totals are
    exact.  They are added as Python ints and rounded once by int/int
    division.  Input with an inf or NaN goes to math.fsum.  One
    difference: where fsum raises "intermediate overflow" although the
    exact sum is finite, as for [1e308, 1e308, -1e308], this returns that
    sum.
    """
    if not np.isfinite(a).all():
        return math.fsum(a.tolist())
    total = 0
    for start in range(0, a.size, _EXACT_CHUNK):
        f, e = np.frexp(a[start : start + _EXACT_CHUNK])
        low = int(e.min())
        e -= low
        f *= 2.0**26
        q = np.floor(f)
        f -= q
        hi = np.bincount(e, weights=q).tolist()
        lo = (np.bincount(e, weights=f) * 2.0**27).tolist()
        chunk = sum(((int(h) << 27) + int(r)) << b for b, (h, r) in enumerate(zip(hi, lo)) if h or r)
        total += chunk << (low - _EXACT_MIN_EXP)
    # total counts units of 2^(_EXACT_MIN_EXP - 53)
    return total / (1 << (53 - _EXACT_MIN_EXP))


def sampled_energy(s, grid: SamplingGrid) -> float:
    """delta * sum_{j=-J..J} |x(t' + j delta)|^2, summed exactly (`_exact_sum`)."""
    values = eval_sum(s, grid.times())
    return grid.delta * _exact_sum(np.abs(values) ** 2)


def continuous_gram(omegas: np.ndarray, R: float) -> np.ndarray:
    """Gram matrix kappa(w_k - w_n) of the exponentials on [-R, R].

    The pair kernel is kappa(0) = 2R and kappa(w) = 2 sin(wR)/w.
    """
    diffs = omegas[:, None] - omegas[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        kappa = 2.0 * np.sin(diffs * R) / diffs
    kappa[diffs == 0.0] = 2.0 * R
    return kappa


def continuous_energy(s, R: float) -> float:
    """Closed form of integral_{-R}^{R} |x(t)|^2 dt, by `continuous_gram`."""
    R = positive(R, "R")
    omegas, coeffs = _components(s)
    return float((coeffs @ continuous_gram(omegas, R) @ coeffs.conj()).real)


@dataclass(frozen=True)
class PoissonReport:
    """Both sides of the summation identity plus the certified tail bound.

    `rhs` uses the raw convolution; `rhs_pinned_support` uses the kernel
    with support pinned to [-gamma, gamma]; `abs_gap` is |lhs - rhs|.
    """

    lhs: float
    rhs: float
    tail_bound: float
    rhs_pinned_support: float
    j_half_count: int
    abs_gap: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "abs_gap", abs(self.lhs - self.rhs))


def _tail_plan(kernel: WindowKernel, coeff_l1: float, delta: float, tail_tol: float) -> tuple[int, float]:
    """Truncation index and certified tail bound for the j sum.

    From |h(t)| <= (4/3) pi^2 / (gamma^2 t^3) for |t| >= 2 pi/gamma:
      direct  |g| <= C6 / t^6,          tail(T) <= 2 A^2 C6 / (5 T^5)
      inverse |g| <= C6 / t^4 beyond R, tail(T) <= 2 A^2 C6 / (3 T^3)
    with C6 = (16/9) pi^4 / gamma^4 and A the coefficient l1 norm.
    """
    g = kernel.gamma
    c6 = (16.0 / 9.0) * math.pi**4 / g**4
    a2 = coeff_l1**2
    if kernel.variant == VARIANT_DIRECT:
        t_min = 2.0 * math.pi / g
        t_needed = (2.0 * a2 * c6 / (5.0 * tail_tol)) ** 0.2
        T = max(t_min, t_needed)
        J = max(1, math.ceil(T / delta))
        bound = 2.0 * a2 * c6 / (5.0 * (J * delta) ** 5)
    else:
        t_min = max(2.0 * math.pi / g, kernel.R)
        t_needed = (2.0 * a2 * c6 / (3.0 * tail_tol)) ** (1.0 / 3.0)
        T = max(t_min, t_needed)
        J = max(1, math.ceil(T / delta))
        bound = 2.0 * a2 * c6 / (3.0 * (J * delta) ** 3)
    return J, bound


def poisson_sides(
    s: ExpSum,
    kernel: WindowKernel,
    delta: float,
    tail_tol: float = 1e-10,
    enforce_band: bool = True,
) -> PoissonReport:
    """Evaluate both sides of the kernel-weighted summation identity.

    The left side truncates the j sum where the analytic tail bound drops
    below tail_tol.  With enforce_band the nonzero coefficients must
    satisfy the band condition |omega_k| <= pi/delta - gamma/2; the
    aliasing behaviour beyond the band can be probed by switching the
    check off.  A plan whose grid arrays cannot be allocated is refused
    with a ValidationError.
    """
    if isinstance(s, AugmentedExpSum):
        raise StructuralError("summation identity applies to plain sums only")
    if not isinstance(s, ExpSum):
        raise StructuralError(f"not an exponential sum: {type(s).__name__}")
    delta = positive(delta, "delta")
    tail_tol = positive(tail_tol, "tail_tol")
    if math.pi / delta < kernel.gamma:
        raise ValidationError(
            "window exceeds period: pi/delta < gamma",
            details={"delta": delta, "gamma": kernel.gamma},
        )
    mask = band_mask(s.seq, delta)
    offenders = [k for k, c in enumerate(s.coeffs) if abs(c) > 0.0 and not mask.admissible[k]]
    if enforce_band and offenders:
        raise ValidationError(
            "band condition violated: nonzero coefficient beyond pi/delta - gamma/2",
            details={"indices": offenders, "threshold": mask.threshold},
        )

    omegas, coeffs = _components(s)
    coeff_l1 = math.fsum(np.abs(coeffs))
    if coeff_l1 == 0.0:
        return PoissonReport(0.0, 0.0, 0.0, 0.0, 0)

    J, bound = _tail_plan(kernel, coeff_l1, delta, tail_tol)
    grid = SamplingGrid(delta, J)
    try:
        # g is even and the grid (t' = 0) symmetric: g at j >= 0, mirrored
        half = g_transform(kernel, delta * np.arange(J + 1))
        weights = np.concatenate((half[:0:-1], half))
        values = eval_sum(s, grid)
    except MemoryError:
        raise ValidationError(
            "tail plan needs more samples than memory allows",
            details={"j_half_count": J, "tail_tol": tail_tol},
        ) from None
    lhs = delta * _exact_sum(weights * np.abs(values) ** 2)

    diffs = omegas[:, None] - omegas[None, :]
    raw = convolution_eval(kernel, diffs)
    pinned = np.where(np.abs(diffs) >= kernel.gamma, 0.0, raw)
    rhs = 2.0 * math.pi * float((coeffs @ raw @ coeffs.conj()).real)
    rhs_pinned = 2.0 * math.pi * float((coeffs @ pinned @ coeffs.conj()).real)
    return PoissonReport(lhs, rhs, bound, rhs_pinned, J)


def sum_from_dict(data: dict, gamma: float, gamma0: float | None = None):
    """Build a plain or augmented sum from its JSON config.

    The config carries no gap parameters, so gamma (and
    optionally gamma0) are supplied by the caller, typically from the
    kernel descriptor of the surrounding config.
    """
    try:
        omegas = tuple(data["omegas"])
        coeffs = tuple(complex(re, im) for re, im in data["coeffs"])
    except (KeyError, TypeError, ValueError) as exc:
        raise StructuralError(f"malformed sum config: {exc}") from None
    seq = ExponentSequence(omegas, gamma, gamma0 if gamma0 is not None else gamma)
    base = ExpSum(seq, coeffs)
    if "omega_prime" in data:
        try:
            re, im = data["x_prime"]
        except (KeyError, TypeError, ValueError) as exc:
            raise StructuralError(f"malformed augmented sum config: {exc}") from None
        return AugmentedExpSum(base, data["omega_prime"], complex(re, im))
    return base
