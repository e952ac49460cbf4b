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

Energies and the left-hand side are the correctly rounded sums of their
terms, the doubles math.fsum returns, so identity checks at the 1e-9
level are not polluted by accumulation error.  `_exact_total` certifies a
one-pass sum: it splits each chunk of terms error-free (ExtractVector of
Rump, Ogita and Oishi, SIAM J. Sci. Comput. 31, 2008), bounds numpy's sum
of the rests a priori (Higham, Accuracy and Stability of Numerical
Algorithms, 2002, ch. 4) and returns the double to which both ends of
that bound round.  Where they round apart, or a chunk's max is near
either end of the double range, a second pass sums the chunks exactly
per binary exponent (`_binned_total`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import StructuralError, ValidationError, count, finite, finite_complex, positive
from .exponents import ExponentSequence, band_mask
from .kernels import VARIANT_DIRECT, WindowKernel, _within_period, convolution_eval, g_transform


@dataclass(frozen=True)
class ExpSum:
    """Coefficient vector over an exponent sequence."""

    seq: ExponentSequence
    coeffs: tuple[complex, ...]

    def __post_init__(self):
        coeffs = tuple(finite_complex(c, "coeffs") for c in self.coeffs)
        if len(coeffs) != len(self.seq):
            raise StructuralError(
                f"coefficient count {len(coeffs)} does not match sequence length {len(self.seq)}"
            )
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
        omega_prime = finite(self.omega_prime, "omega_prime")
        x_prime = finite_complex(self.x_prime, "x_prime")
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


def _mirror_half(x: np.ndarray) -> int:
    """len(x) // 2 when x[-1-k] == -x[k] for every k of the 1-D x, else 0.

    The end elements are compared first, so an asymmetric x costs O(1).
    """
    if len(x) < 2 or x[0] != -x[-1]:
        return 0
    return len(x) // 2 if np.array_equal(x[::-1], -x) else 0


def _phasors(rows, cols) -> np.ndarray:
    """exp(i r c) for every r in rows and c in cols, the one place grid phasors are formed.

    exp(-i y) is the conjugate of exp(i y) to the bit, and so is the
    phasor of a mirrored row or column: for rows or cols symmetric about
    zero (an unshifted grid, a junction's +-omega) only the second half of
    each symmetric axis is exponentiated, and the first half is filled with
    the conjugates, a quarter of the exponentials when both are symmetric.
    Adding 0.0 turns the conjugate 1 - 0j of a zero argument back into the
    1 + 0j that exp gives, so every byte equals
    np.exp(1j * np.multiply.outer(rows, cols)), which any other input takes.
    """
    rows, cols = np.asarray(rows), np.asarray(cols)
    hr = hc = 0
    if rows.ndim == cols.ndim == 1:
        hr, hc = _mirror_half(rows), _mirror_half(cols)
    if not (hr or hc):
        return np.exp(1j * np.multiply.outer(rows, cols))
    m, n = len(rows), len(cols)
    out = np.empty((m, n), dtype=complex)
    np.exp(1j * np.multiply.outer(rows[hr:], cols[hc:]), out=out[hr:, hc:])
    if hc:
        np.conjugate(out[hr:, n - hc:][:, ::-1], out=out[hr:, :hc])
        out[hr:, :hc] += 0.0
    if hr:
        np.conjugate(out[m - hr:][::-1], out=out[:hr])
        out[:hr] += 0.0
    return out


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
    outer = _phasors(anchors, omegas) * coeffs
    inner = _phasors(omegas, steps)
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
    values = _phasors(ta, omegas) @ coeffs
    return complex(values) if np.ndim(t) == 0 else values


_EXACT_CHUNK = 1 << 15  # temporaries stay in cache; any size up to 2^26 is exact
_EXACT_MIN_EXP = -1074  # below every exponent np.frexp returns
# the fast path's sigma = 2^s: s <= 1023 keeps sigma + p a double, s >= -968
# keeps the bound n^2 2^(s - 106) of the rests' sum a double, exactly
_FAST_EXP_RANGE = range(-968, 1024)


def _exact_sum(a: np.ndarray) -> float:
    """Correctly rounded sum of a float64 array: the double math.fsum returns.

    The array goes to `_exact_total` in chunks of _EXACT_CHUNK terms; if
    a term is inf or NaN it goes to math.fsum instead.  One difference:
    where fsum raises "intermediate overflow" although the exact sum is
    finite, as for [1e308, 1e308, -1e308], this returns that sum.
    """
    chunks = [a[start : start + _EXACT_CHUNK] for start in range(0, a.size, _EXACT_CHUNK)]
    total = _exact_total(lambda: chunks)
    return math.fsum(a.tolist()) if math.isnan(total) else total


def _exact_total(chunks) -> float:
    """Correctly rounded sum of the nonempty float64 chunks, of at most 2^26 terms each, that chunks() yields.

    Returns NaN at the first chunk holding an inf or NaN, and raises
    OverflowError where the exact sum of finite terms is past the double
    range.  Every other result is the double nearest the exact sum, ties
    to even, as math.fsum rounds.

    Fast path, one pass: per chunk p of n terms, with m = max|p| < 2^e
    and n < 2^M, sigma = 2^s with s = e + M splits each term error-free into
    q = (p + sigma) - sigma, a multiple of 2^-53 sigma, and the rest
    r = p - q, |r| <= 2^-53 sigma (ExtractVector in Rump, Ogita and
    Oishi, "Accurate floating-point summation part I", SIAM J. Sci.
    Comput. 31, 2008).  Every partial sum of q is such a multiple below
    sigma, so sum(q) is exact in any order; numpy's sum of r is within
    gamma_(n-1) n 2^-53 sigma <= n^2 2^(s - 106) of the exact one, in any
    order and under gradual underflow (Higham, "Accuracy and Stability
    of Numerical Algorithms", 2nd ed., 2002, ch. 4).  math.fsum of every
    chunk's two sums, with the summed bounds subtracted and then added,
    rounds both ends of an interval holding the exact sum; rounding is
    monotone, so where both ends round to the same double that double is
    the correctly rounded sum.

    Fallback, a second pass over chunks() once the first has seen every
    term finite: where the two ends differ (the exact sum within the
    bound of a rounding boundary, zero included), where e + M leaves
    _FAST_EXP_RANGE for some chunk (its max below 2^(-969 - M) or at
    least 2^(1023 - M)) or where fsum overflows, `_binned_total` sums the
    chunks again.
    """
    parts, bounds, fast = [], [], True
    for chunk in chunks():
        m = max(chunk.max(), -chunk.min())  # NaN or inf exactly when a term is not finite
        if not math.isfinite(m):
            return math.nan
        s = math.frexp(m)[1] + chunk.size.bit_length()
        fast = fast and s in _FAST_EXP_RANGE
        if fast:
            sigma = math.ldexp(1.0, s)
            q = chunk + sigma
            q -= sigma
            parts.append(float(q.sum()))
            q -= chunk  # -r, exactly: one temporary per chunk, not two
            parts.append(-float(q.sum()))
            bounds.append(math.ldexp(chunk.size * chunk.size, s - 106))
    if fast:
        try:
            low = math.fsum(parts + [-b for b in bounds])
            if low == math.fsum(parts + bounds):
                return low
        except OverflowError:  # fsum overflowed in a partial sum
            pass
    return _binned_total(chunks())


def _binned_total(chunks) -> float:
    """Correctly rounded sum of nonempty finite float64 chunks of at most 2^26 terms each.

    Each term is m 2^e with m 2^26 = q + r, q an integer of magnitude at
    most 2^26 and r in [0, 1) a multiple of 2^-27.  Per chunk, np.bincount
    adds q and r per exponent; every partial sum is a multiple of its unit
    below 2^53, so the totals are exact.  They are added as Python ints
    and rounded once by int/int division, which raises OverflowError past
    the double range.
    """
    total = 0
    for chunk in chunks:
        f, e = np.frexp(chunk)
        low = int(e.min())
        e -= low
        f *= 2.0**26
        q = np.floor(f)
        f -= q
        hi = np.bincount(e, weights=q).tolist()
        lo = (np.bincount(e, weights=f) * 2.0**27).tolist()
        units = sum(((int(h) << 27) + int(r)) << b for b, (h, r) in enumerate(zip(hi, lo)) if h or r)
        total += units << (low - _EXACT_MIN_EXP)
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
    with C6 = (16/9) pi^4 / gamma^4 and A the coefficient l1 norm.  A plan
    past the double range (A^2, C6, T/delta or (J delta)^p) has J = inf.
    """
    g = kernel.gamma
    if kernel.variant == VARIANT_DIRECT:
        p, t_min = 5, 2.0 * math.pi / g
    else:
        p, t_min = 3, max(2.0 * math.pi / g, kernel.R)
    try:
        c6 = (16.0 / 9.0) * math.pi**4 / g**4
        a2 = coeff_l1**2
        T = max(t_min, (2.0 * a2 * c6 / (p * tail_tol)) ** (1.0 / p))
        J = max(1, math.ceil(T / delta))
        return J, 2.0 * a2 * c6 / (p * (J * delta) ** p)
    except (OverflowError, ZeroDivisionError):
        return math.inf, 0.0


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
    check off.  A plan whose J the count rule refuses (above 2^53) or
    whose grid arrays cannot be allocated is refused with a
    ValidationError, and so is a side past the double range: a left-side
    term or the exact left-side sum, or either right side.  The left side
    holds the 2J+1 samples and the J+1 half-grid weights; its terms are
    formed _EXACT_CHUNK at a time (`_lhs_terms`) and summed exactly by
    `_exact_total`, formed a second time only where it falls back.
    """
    if isinstance(s, AugmentedExpSum):
        raise StructuralError("summation identity applies to plain sums only")
    omegas, coeffs = _components(s)
    delta = positive(delta, "delta")
    tail_tol = positive(tail_tol, "tail_tol")
    _within_period(kernel, delta)
    mask = band_mask(s.seq, delta)
    offenders = [k for k, c in enumerate(s.coeffs) if c != 0 and not mask.admissible[k]]
    if enforce_band and offenders:
        raise ValidationError(
            "band condition violated: nonzero coefficient beyond pi/delta - gamma/2",
            details={"indices": offenders, "threshold": mask.threshold},
        )

    # past the double range a modulus plans J = inf and a sample, term, difference
    # or side is non-finite: each is refused by name below, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        coeff_l1 = math.fsum(np.abs(coeffs))
        if coeff_l1 == 0.0:
            return PoissonReport(0.0, 0.0, 0.0, 0.0, 0)

        J, bound = _tail_plan(kernel, coeff_l1, delta, tail_tol)
        try:
            grid = SamplingGrid(delta, J)  # refuses a J above 2^53 before any allocation
            # g is even and the grid (t' = 0) symmetric: g at j >= 0, mirrored for j < 0
            half = g_transform(kernel, delta * np.arange(J + 1))
            values = eval_sum(s, grid)
        except (StructuralError, MemoryError):
            raise ValidationError(
                "tail plan needs more samples than memory allows",
                details={"j_half_count": J, "tail_tol": tail_tol},
            ) from None
        try:  # NaN where a term is past the double range
            lhs = delta * _exact_total(lambda: _lhs_terms(half, values))
        except OverflowError:  # the exact sum past the double range
            lhs = math.inf

        diffs = omegas[:, None] - omegas[None, :]
        raw = convolution_eval(kernel, diffs)
        pinned = np.where(np.abs(diffs) >= kernel.gamma, 0.0, raw)
        rhs = 2.0 * math.pi * float((coeffs @ raw @ coeffs.conj()).real)
        rhs_pinned = 2.0 * math.pi * float((coeffs @ pinned @ coeffs.conj()).real)
    if not (math.isfinite(lhs) and math.isfinite(rhs) and math.isfinite(rhs_pinned)):
        raise ValidationError("summation identity side leaves the double range", details={"j_half_count": J})
    return PoissonReport(lhs, rhs, bound, rhs_pinned, J)


def _lhs_terms(half: np.ndarray, values: np.ndarray):
    """The terms g(|j| delta) |x(j delta)|^2, _EXACT_CHUNK at a time: j = 0..J, then j = -J..-1.

    half holds g at j = 0..J and values x at j = -J..J.  A term past the
    double range is inf or NaN; the caller's np.errstate keeps numpy from
    warning of it.
    """
    J = half.size - 1
    for weights, samples in ((half, values[J:]), (half[:0:-1], values[:J])):
        for start in range(0, weights.size, _EXACT_CHUNK):
            terms = np.abs(samples[start : start + _EXACT_CHUNK]) ** 2
            terms *= weights[start : start + _EXACT_CHUNK]
            yield terms

