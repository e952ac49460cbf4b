"""Empirical frame constants from Hermitian-definite matrix pencils, and the
averaging-filter machinery for augmenting an exponent system by one frequency.

The two-sided sampled-energy inequality

    c1 Q(x) <= delta sum_{j=-J}^{J} |x(t' + j delta)|^2 <= c2 Q(x)

is made sharp per instance by solving the generalized eigenproblem
S v = lambda Q v, where S is the sampled Gram matrix of the active
exponentials and Q the block matrix of the quadratic form: 1 for an
isolated index and [[1+d^2, 1], [1, 1+d^2]] for a close pair, carried as
its two bands from `quadforms.q_matrix` to the solver.  Its Cholesky factor
L, lower bidiagonal, reduces the pencil by congruence to the Hermitian
L^{-1} S L^{-T}, which LAPACK's divide-and-conquer solver (numpy's eigh)
diagonalizes; every eigenpair is then checked against the residual gate
||S v - lambda Q v|| <= 1e-9 ||S||.  L, the congruence, the eigenvectors
and Q V in the gate are O(n) and O(n^2) recurrences with the operations
(and so the bits) of dense Cholesky and LU solves.  The congruence
already gives up the relative accuracy a Jacobi solver would offer, so
LAPACK loses nothing, and the pencil dimension is limited only by memory.

One step, `_sampled_pencil`, builds the Gram, solves and applies the singular
rule for `frame_constants`, `extended_frame_constants`, `continuum_limit_scan`
and `observability.verify_observability`.

The augmentation machinery follows the averaging filter

    y(t) = x(t) - (1/(2J')) sum_{n=-J'}^{J'-1} e^{-i omega' n delta} x(t + n delta),

which multiplies the coefficient of frequency omega by

    f(omega) = e^{-i phi/2} sin(J' phi) / (2 J' sin(phi/2)),   phi = (omega - omega') delta,

so f(omega') = 1 (the new component is annihilated exactly) and
|f(omega_k)| = eps_k, the product of the two sinc factors.  Note the
factor e^{-i phi/2}: the bare ratio sin(J' phi) / (J'(e^{i phi} - 1))
misses a unit-modulus factor i, which drops out of |f| but matters for
the coefficient-domain filter; the time-domain recomputation in the test
suite is the arbiter.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import StructuralError, ValidationError, count, finite, positive
from .exponents import BandMask, ExponentSequence, band_mask
from .quadforms import q_matrix
from .sums import AugmentedExpSum, ExpSum, SamplingGrid, continuous_gram

# min_eig at or below this fraction of max_eig marks the pencil singular
SINGULAR_RTOL = 1e-10
# absolute distance to a nonzero multiple of pi that counts as resonance
RESONANCE_WINDOW = 1e-10

_RESIDUAL_RTOL = 1e-9
# pi as two 33-bit parts and a double (fdlibm's split of pi/2, doubled): k times
# either 33-bit part is exact for |k| < 2^20, and the sum is pi within 2e-37
_PI_PARTS = (3.1415926534682512, 1.2154201012607932e-10, 4.044532497591901e-21)


@dataclass(frozen=True)
class FrameBoundReport:
    """Empirical frame constants with pencil diagnostics."""

    c_lower: float
    c_upper: float
    pencil_dim: int
    min_eig: float
    max_eig: float
    singular: bool
    diagnostics: tuple[str, ...] = ()
    companions: dict = field(default_factory=dict)


@dataclass(frozen=True)
class HarauxPlan:
    """Filter parameters for augmenting a system by one frequency omega'."""

    J_prime: int
    delta: float
    omega_prime: float
    eps_k: tuple[float, ...]
    eps_sup: float
    c_prime: float
    lipschitz_L: float
    gamma_prime: float
    eps_prime: float
    active: tuple[int, ...]
    # Policy flag: the proximity condition |omega_k - omega'| < 2 c'/delta
    # is enforced for every active index, not only those with x_k != 0.
    eq19_enforced_all_active: bool = True


def _sinc(x: float) -> float:
    return 1.0 if x == 0.0 else math.sin(x) / x


@functools.lru_cache(maxsize=128)
def _upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """`np.triu_indices(n, 1)`, read-only, kept per n."""
    upper = np.triu_indices(n, 1)
    for index in upper:
        index.flags.writeable = False
    return upper


def _gram_from_omegas(omegas: np.ndarray, grid: SamplingGrid) -> np.ndarray:
    """Sampled Gram S_{kn} = delta sum_j e^{i(w_k - w_n)(t' + j delta)}.

    The upper triangle is the Dirichlet kernel sum_{j=-J}^{J} e^{i j theta}
    = sin((2J+1) h) / sin h, h = theta/2, times delta e^{i(w_k - w_n) t'}; the
    lower triangle is its conjugate.  Where |sin h| < 1e-8 the same quotient
    is taken at r = h - k pi, the distance to the nearest multiple of pi (2J+1
    at r = 0).  The operations are those of the scalar formula
    `delta * complex(cos, sin) * d`, in its order, so every entry is the same
    double, signed zeros included, it would be entry by entry.
    """
    omegas = np.asarray(omegas)
    n = len(omegas)
    delta, J = grid.delta, grid.J
    upper = _upper_pairs(n)
    diff = omegas[upper[0]] - omegas[upper[1]]
    half = 0.5 * (diff * delta)
    sin_half = np.sin(half)
    # written so that a NaN sine, like a small one, is near
    near = ~(np.abs(sin_half) >= 1e-8)
    with np.errstate(divide="ignore", invalid="ignore"):
        d = np.sin((2 * J + 1) * half) / sin_half
        if near.any():
            h = half[near]
            k = np.rint(h / np.pi)
            r = h - k * _PI_PARTS[0] - k * _PI_PARTS[1] - k * _PI_PARTS[2]
            d[near] = np.where(r == 0.0, 2 * J + 1, np.sin((2 * J + 1) * r) / np.sin(r))
    arg = diff * grid.t_shift
    phase = np.empty(len(diff), dtype=complex)
    phase.real = np.cos(arg)
    phase.imag = np.sin(arg)
    vals = (delta * phase) * d
    s = np.empty((n, n), dtype=complex)
    s[upper] = vals
    s[upper[::-1]] = vals.conj()
    np.fill_diagonal(s, delta * (2 * J + 1))
    return s


def sampled_gram(seq: ExponentSequence, grid: SamplingGrid, mask: BandMask) -> np.ndarray:
    """Gram matrix of the sampled exponentials over the active indices."""
    if len(mask.admissible) != len(seq):
        raise StructuralError("band mask length does not match sequence")
    omegas = np.array([seq.omegas[k] for k in mask.active_indices()], dtype=float)
    return _gram_from_omegas(omegas, grid)


def _bidiagonal_solve(b: np.ndarray, mult: np.ndarray | None, diag: np.ndarray) -> np.ndarray:
    """L^{-1} b for a lower-bidiagonal L, by the steps of LU without pivoting.

    The unit lower factor holds mult[k-1] = L[k, k-1] * (1 / L[k-1, k-1]) at
    row k, and the upper factor is L's diagonal `diag`.  Where no two nonzero
    subdiagonal entries are adjacent, row k-1 of a nonzero mult[k-1] is still
    b's own, so the recurrence is one shifted update.  mult None is L = diag.
    """
    if mult is not None:
        b = b.copy()
        b[1:] -= mult[:, None] * b[:-1]
    return b / diag[:, None]


def _band_cholesky(q_diag: np.ndarray, q_sub: np.ndarray):
    """(diagonal, subdiagonal or None without pairs) of the Cholesky factor L of Q, by
    L[k+1, k] = q_sub[k] * (1 / L[k, k]) and L[k+1, k+1] = sqrt(q_diag[k+1] - L[k+1, k]^2),
    LAPACK's operations and so its bits.  Runs under the pencil's np.errstate."""
    band = q_sub != 0
    # adjacency by a logical and: a product of two entries near 1e-200 underflows to 0
    if np.count_nonzero(band[1:] & band[:-1]):
        raise StructuralError("Q must be diagonal except for isolated 2x2 pair blocks")
    low, pivots = None, q_diag
    if np.count_nonzero(band):
        low = q_sub * (1.0 / np.sqrt(q_diag[:-1]))
        pivots = q_diag.copy()
        pivots[1:] -= low * low
    if not (pivots > 0.0).all():  # written so that a NaN pivot fails
        raise ValidationError("Q not positive definite")
    return np.sqrt(pivots), low


def hermitian_pencil_eig(
    s: np.ndarray, q_diag: np.ndarray, q_sub: np.ndarray, with_vectors: bool = False
):
    """Eigenvalues of the Hermitian-definite pencil S v = lambda Q v, ascending.

    Q is real symmetric, given by its real diagonal `q_diag` (length n) and
    subdiagonal `q_sub` (length n - 1, also the superdiagonal).  It must be
    positive definite (else ValidationError) with no two adjacent nonzero
    couplings (else StructuralError), as every Q this package builds is.
    The pencil is reduced by congruence with the bidiagonal Cholesky factor
    L of Q to A = L^{-1} S L^{-T}, and an eigenvector u of A gives
    v = L^{-T} u, by banded recurrences with the operations, and so the
    bits, of dense Cholesky and LU solves wherever LU picks no pivot.

    Residuals ||S v - lambda Q v|| are verified against 1e-9 ||S||; a failed
    eigensolve or residual check (for example NaN or inf in S) raises
    StructuralError, and so does an ||S|| past the double range, against
    which every residual would pass.
    """
    s = np.asarray(s, dtype=complex)
    n = np.size(q_diag)
    complex_q = np.iscomplexobj(q_diag) or np.iscomplexobj(q_sub)
    if complex_q or np.ndim(q_diag) != 1 or s.shape != (n, n) or np.shape(q_sub) != (n - 1,):
        raise StructuralError("pencil S must be n x n, with real Q bands of lengths n and n - 1")
    q_diag, q_sub = np.asarray(q_diag, dtype=float), np.asarray(q_sub, dtype=float)
    # as LAPACK, without a warning: a non-finite A fails the residual gate, and an
    # overflowing ||S|| is refused by name
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        diag, low = _band_cholesky(q_diag, q_sub)
        pairs = low is not None
        mult = low * (1.0 / diag[:-1]) if pairs else None
        a = _bidiagonal_solve(s, mult, diag)
        a = _bidiagonal_solve(a.conj().T, mult, diag).conj().T
        a = 0.5 * (a + a.conj().T)
        try:
            vals, u = np.linalg.eigh(a)
        except np.linalg.LinAlgError:
            raise StructuralError("pencil eigensolver did not converge") from None
        s_norm = math.sqrt(float(np.sum(np.abs(s) ** 2)))
        if not math.isfinite(s_norm):
            raise StructuralError(f"pencil residual gate undefined: ||S|| = {s_norm}, not finite")
        # back substitution in L^T: v[k] = (u[k] - L[k+1, k] v[k+1]) / L[k, k]
        vecs = u / diag[:, None]
        if pairs:
            vecs[:-1] = (u[:-1] - low[:, None] * vecs[1:]) / diag[:-1, None]
        qv = q_diag[:, None] * vecs
        if pairs:
            qv[1:] += q_sub[:, None] * vecs[:-1]
            qv[:-1] += q_sub[:, None] * vecs[1:]
    resid = s @ vecs - qv * vals[None, :]
    worst = float(np.max(np.linalg.norm(resid, axis=0) / np.linalg.norm(vecs, axis=0)))
    # written so that a NaN residual fails
    if not worst <= _RESIDUAL_RTOL * max(s_norm, 1e-300):
        raise StructuralError(
            f"pencil residual {worst:.3e} exceeds {_RESIDUAL_RTOL:.0e} * ||S||"
        )
    return (vals, vecs) if with_vectors else vals


def _pencil_extremes(s: np.ndarray, q: tuple) -> tuple[float, float, bool]:
    """(min_eig, max_eig, singular) of the pencil S v = lambda Q v, q the bands of Q, where
    singular means min_eig <= SINGULAR_RTOL * max(max_eig, 0)."""
    vals = hermitian_pencil_eig(s, *q)
    min_eig, max_eig = float(vals[0]), float(vals[-1])
    return min_eig, max_eig, min_eig <= SINGULAR_RTOL * max(max_eig, 0.0)


def _sampled_pencil(omegas: np.ndarray, q: tuple, grid: SamplingGrid):
    """(min_eig, max_eig, singular, S) of the sampled Gram S of omegas on grid, q Q's bands."""
    s = _gram_from_omegas(omegas, grid)
    return (*_pencil_extremes(s, q), s)


def _frame_report(pencil, diagnostics, companions=None) -> FrameBoundReport:
    """Report of a `_sampled_pencil` result; a singular pencil has c_lower = 0."""
    min_eig, max_eig, singular, s = pencil
    return FrameBoundReport(
        c_lower=0.0 if singular else min_eig, c_upper=max_eig, pencil_dim=len(s),
        min_eig=min_eig, max_eig=max_eig, singular=singular,
        diagnostics=diagnostics, companions=companions or {},
    )


def _frame_pencil(seq: ExponentSequence, grid: SamplingGrid):
    """(report of `frame_constants`, its active indices and their omegas, its QMatrix)."""
    seq.classification  # first, so that a gap violation outranks the band refusals
    mask = band_mask(seq, grid.delta)
    active = mask.active_indices()
    if not active:
        raise ValidationError(
            "no band-admissible exponents for this sampling step",
            details={"delta": grid.delta, "threshold": mask.threshold},
        )
    qm = q_matrix(seq, mask)
    omegas = np.array([seq.omegas[k] for k in active], dtype=float)
    pencil = _sampled_pencil(omegas, (qm.diag, qm.sub), grid)
    horizon = grid.J * grid.delta
    diagnostics = (
        f"band mask: {len(active)} of {len(seq)} admissible",
        f"samples 2J+1={2 * grid.J + 1} vs active exponents={len(active)}",
        f"J*delta={horizon:.6g} {'exceeds' if horizon > math.pi / seq.gamma else 'below'}"
        f" pi/gamma={math.pi / seq.gamma:.6g}",
    )
    return _frame_report(pencil, diagnostics), active, omegas, qm


def frame_constants(seq: ExponentSequence, grid: SamplingGrid) -> FrameBoundReport:
    """Sharp empirical constants of the two-sided sampled-energy inequality.

    The band mask for grid.delta is applied before assembling the pencil.
    A rank-deficient sampled Gram (for example fewer samples than active
    exponents) is reported as singular with c_lower = 0.
    """
    return _frame_pencil(seq, grid)[0]


def _resonant(half: float) -> bool:
    """Resonance rule: the half angle lies within RESONANCE_WINDOW of a nonzero multiple of pi."""
    m = round(half / math.pi)
    return m != 0 and abs(half - m * math.pi) < RESONANCE_WINDOW


def _filter_angle(u: float, J_prime: int, delta: float) -> float:
    """u J' delta; (u delta) J' where u J' overflows, refused if that overflows too."""
    x = u * J_prime * delta
    return finite(u * delta * J_prime, "sinc argument") if math.isinf(x) else x


def epsilon_k(omega_k: float, omega_prime: float, J_prime: int, delta: float) -> float:
    """Contraction factor of the averaging filter at one frequency.

    |sinc((w_k - w') J' delta)| * |((w_k - w') delta/2) / sin((w_k - w') delta/2)|.
    """
    J_prime = count(J_prime, "J_prime")
    delta = positive(delta, "delta")
    u = finite(omega_k, "omega_k") - finite(omega_prime, "omega_prime")
    if u == 0.0:
        raise ValidationError("omega_k equals omega_prime")
    half = finite(u * delta / 2.0, "half angle")  # the difference or its product can overflow
    if _resonant(half):
        raise ValidationError(
            "sampling resonance: (omega_k - omega') delta/2 at a multiple of pi",
            details={"omega_k": omega_k, "half_angle": half},
        )
    return abs(_sinc(_filter_angle(u, J_prime, delta))) * abs(half / math.sin(half))


def _sinc_crossing(eps_prime: float) -> float:
    """Largest c in (0, pi] with sin(x)/x > eps_prime for all 0 < x <= c.

    Bisection on the monotone branch of sinc with bracket width 1e-12;
    returns the left bracket end so the strict inequality holds at c.
    """
    if eps_prime <= 0.0:
        return math.pi
    lo, hi = 0.0, math.pi
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if _sinc(mid) > eps_prime:
            lo = mid
        else:
            hi = mid
    return lo


def plan_haraux(
    seq: ExponentSequence, omega_prime: float, J_prime: int, delta: float
) -> HarauxPlan:
    """Plan the averaging filter for one added frequency.

    Computes eps' over the indices active under band_mask(seq, delta),
    the admissible radius c' from the first sinc crossing, the Lipschitz
    companion constant of the filter factor, and every per-index
    contraction factor.  Fails when any active index violates the
    proximity condition |omega_k - omega'| < 2 c'/delta or when the
    contraction factor reaches 1.
    """
    J_prime = count(J_prime, "J_prime")
    delta = positive(delta, "delta")
    active = band_mask(seq, delta).active_indices()
    if not active:
        raise ValidationError("no active indices under the band mask")
    omega_prime = finite(omega_prime, "omega_prime")
    omegas = [seq.omegas[k] for k in active]
    gamma_prime = min(abs(w - omega_prime) for w in omegas)
    if gamma_prime == 0.0:
        raise ValidationError(
            "omega_prime coincides with an active exponent",
            details={"omega_prime": omega_prime},
        )
    eps_prime = max(abs(_sinc(_filter_angle(w - omega_prime, J_prime, delta))) for w in omegas)
    c_prime = _sinc_crossing(eps_prime)
    bound = 2.0 * c_prime / delta
    violating = [k for k, w in zip(active, omegas) if not (abs(w - omega_prime) < bound)]
    if violating:
        raise ValidationError(
            "proximity condition |omega_k - omega'| < 2c'/delta violated",
            details={"indices": violating, "bound": bound},
        )
    eps = tuple(epsilon_k(w, omega_prime, J_prime, delta) for w in omegas)
    eps_sup = max(eps)
    if not eps_sup < 1.0:
        raise ValidationError(
            "Haraux contraction fails: sup eps_k >= 1",
            details={"eps_sup": eps_sup},
        )
    scale = eps_prime * gamma_prime
    if scale > 0.0:
        lipschitz = 1.0 / scale + 1.0 / (J_prime * delta * scale * scale)
    else:
        lipschitz = math.inf
    return HarauxPlan(
        J_prime=J_prime,
        delta=delta,
        omega_prime=omega_prime,
        eps_k=eps,
        eps_sup=eps_sup,
        c_prime=c_prime,
        lipschitz_L=lipschitz,
        gamma_prime=gamma_prime,
        eps_prime=eps_prime,
        active=active,
    )


def _filter_factor(omega: float, omega_prime: float, J_prime: int, delta: float) -> complex:
    """f(omega) = e^{-i phi/2} sin(J' phi) / (2 J' sin(phi/2)), phi = (omega - omega') delta."""
    phi = (omega - omega_prime) * delta
    half = 0.5 * phi
    if half == 0.0:
        return 1.0 + 0.0j
    if _resonant(half):
        raise ValidationError(
            "sampling resonance in the filter factor",
            details={"omega": omega, "half_angle": half},
        )
    return complex(math.cos(half), -math.sin(half)) * (
        math.sin(J_prime * phi) / (2.0 * J_prime * math.sin(half))
    )


def haraux_filter(aug: AugmentedExpSum, plan: HarauxPlan) -> ExpSum:
    """Apply the averaging filter in the coefficient domain.

    Returns the plain sum with y_k = (1 - f(omega_k)) x_k; the omega'
    component is annihilated exactly because f(omega') = 1.  Zero
    coefficients stay zero without evaluating the factor.
    """
    if not plan.eps_sup < 1.0:
        raise ValidationError("plan invalid: eps_sup >= 1")
    if plan.omega_prime != aug.omega_prime:
        raise ValidationError("plan was built for a different omega_prime")
    filtered = []
    for omega, x in zip(aug.base.seq.omegas, aug.base.coeffs):
        if x == 0.0:
            filtered.append(0.0j)
        else:
            factor = _filter_factor(omega, plan.omega_prime, plan.J_prime, plan.delta)
            filtered.append((1.0 - factor) * x)
    return ExpSum(aug.base.seq, tuple(filtered))


def extended_frame_constants(
    seq: ExponentSequence, grid: SamplingGrid, plan: HarauxPlan
) -> FrameBoundReport:
    """Empirical c3, c4 for the augmented system on the extended grid.

    `plan` is `plan_haraux(seq, omega', J', grid.delta)`; a plan built for
    another step, active set or sequence (its eps_k or gamma' differ) is
    rejected.  The pencil runs over
    the active exponents plus omega', with the quadratic form Q extended by
    the scalar 1 for the new coefficient and the Gram taken over
    j = -(J+J') .. (J+J').  The explicit companion

        c4_formula = (1 + (2J+2J'+1)/(2J+1)) max{4 c2, 12 J delta} (1 + (J' delta)^2)

    from the covering argument is reported alongside; the empirical c4 is
    sharper by construction.
    """
    base, active, omegas, qm = _frame_pencil(seq, grid)
    if (plan.delta, plan.active) != (grid.delta, active):
        raise ValidationError(
            "plan was built for a different delta or active set",
            details={"plan_delta": plan.delta, "plan_active": plan.active},
        )
    eps = tuple(epsilon_k(w, plan.omega_prime, plan.J_prime, plan.delta) for w in omegas)
    if (eps, min(abs(w - plan.omega_prime) for w in omegas)) != (plan.eps_k, plan.gamma_prime):
        raise ValidationError("plan was built for a different sequence")
    if base.singular:
        raise ValidationError(
            "base pencil is singular; extended constants undefined",
            details={"min_eig": base.min_eig},
        )
    q_ext = (np.append(qm.diag, 1.0), np.append(qm.sub, 0.0))
    grid_ext = SamplingGrid(grid.delta, grid.J + plan.J_prime, grid.t_shift)
    pencil = _sampled_pencil(np.append(omegas, plan.omega_prime), q_ext, grid_ext)
    j, jp = grid.J, plan.J_prime
    # (jp delta)^2 cannot overflow: the pencil above refuses an ||S|| past the double
    # range, and delta (2j + 2jp + 1), a diagonal entry of S, exceeds 2 jp delta
    c4_formula = (
        (1.0 + (2 * j + 2 * jp + 1) / (2 * j + 1))
        * max(4.0 * base.c_upper, 12.0 * j * grid.delta)
        * (1.0 + (jp * grid.delta) ** 2)
    )
    diagnostics = base.diagnostics + (
        f"extended grid half-count J+J'={grid_ext.J}",
        f"eps_sup={plan.eps_sup:.6g}",
    )
    companions = {"c4_formula": c4_formula, "c1_base": base.c_lower, "c2_base": base.c_upper}
    return _frame_report(pencil, diagnostics, companions)


@dataclass(frozen=True)
class ContinuumRow:
    """One row of the discrete-to-continuous convergence table."""

    J: int
    delta: float
    active_count: int
    active_changed: bool
    c1_discrete: float
    c2_discrete: float
    c1_continuous: float
    c2_continuous: float
    rel_gap: float
    singular: bool


def continuum_limit_scan(seq: ExponentSequence, R: float, J_list) -> tuple[ContinuumRow, ...]:
    """Compare discrete pencil constants at delta = R/J with the continuous ones.

    The discrete grid spans [-R, R]; as J grows the sampled Gram converges
    to the continuous-energy Gram and the extreme pencil eigenvalues
    follow.  Rows flag changes of the active set (the band mask depends
    on delta).  The continuous pencil depends only on the active omegas,
    their Q and R, so it is solved once per distinct active set.  Every J
    must be a positive integer.
    """
    R = positive(R, "R")
    if not R > math.pi / seq.gamma:
        raise ValidationError(
            "horizon too short: R must exceed pi/gamma",
            details={"R": R, "pi_over_gamma": math.pi / seq.gamma},
        )
    rows = []
    prev_active: tuple[int, ...] | None = None
    continuous: dict[tuple[int, ...], tuple[float, float]] = {}
    for J in J_list:
        J = count(J, "J")
        delta = R / J
        report, active, omegas, qm = _frame_pencil(seq, SamplingGrid(delta, J, 0.0))
        if active not in continuous:
            gram = continuous_gram(omegas, R)
            continuous[active] = _pencil_extremes(gram, (qm.diag, qm.sub))[:2]
        c1c, c2c = continuous[active]
        if report.singular or c1c <= 0.0:
            rel = math.inf
        else:
            rel = max(
                abs(report.c_lower - c1c) / abs(c1c),
                abs(report.c_upper - c2c) / abs(c2c),
            )
        rows.append(
            ContinuumRow(
                J=J,
                delta=delta,
                active_count=len(active),
                active_changed=prev_active is not None and active != prev_active,
                c1_discrete=report.c_lower,
                c2_discrete=report.c_upper,
                c1_continuous=c1c,
                c2_continuous=c2c,
                rel_gap=rel,
                singular=report.singular,
            )
        )
        prev_active = active
    return tuple(rows)
