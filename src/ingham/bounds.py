"""Empirical frame constants from Hermitian-definite matrix pencils, and the
averaging-filter machinery for augmenting an exponent system by one frequency.

The two-sided sampled-energy inequality

    c1 Q(x) <= delta sum_{j=-J}^{J} |x(t' + j delta)|^2 <= c2 Q(x)

is made sharp per instance by solving the generalized eigenproblem
S v = lambda Q v, where S is the sampled Gram matrix of the active
exponentials and Q the block matrix of the quadratic form.  The pencil is
reduced by congruence with the Cholesky factor L of Q to the Hermitian
matrix L^{-1} S L^{-H}, which LAPACK's divide-and-conquer solver (numpy's
eigh) diagonalizes; every eigenpair is then checked against the residual
gate ||S v - lambda Q v|| <= 1e-9 ||S||.  The congruence already gives up
the relative accuracy a Jacobi solver would offer, so LAPACK loses
nothing, and the pencil dimension is limited only by memory.

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

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import StructuralError, ValidationError, count, finite, positive
from .exponents import BandMask, ExponentSequence, band_mask
from .quadforms import q_matrix
from .sums import AugmentedExpSum, ExpSum, SamplingGrid, continuous_gram

# min_eig at or below this fraction of max_eig marks the pencil singular
SINGULAR_RTOL = 1e-10
# pair gaps below this make the Q matrix numerically singular
PAIR_GAP_FLOOR = 1e-12
# absolute distance to a nonzero multiple of pi that counts as resonance
RESONANCE_WINDOW = 1e-10

_RESIDUAL_RTOL = 1e-9


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


def _dirichlet(theta: float, J: int) -> float:
    """sum_{j=-J}^{J} exp(i j theta), which is real."""
    half = 0.5 * theta
    s = math.sin(half)
    if abs(s) >= 1e-8:
        return math.sin((2 * J + 1) * half) / s
    # near-resonant direction: fall back to direct summation
    return 1.0 + 2.0 * math.fsum(np.cos(theta * np.arange(1, J + 1)))


def _gram_from_omegas(omegas: np.ndarray, grid: SamplingGrid) -> np.ndarray:
    """Sampled Gram S_{kn} = delta sum_j e^{i(w_k - w_n)(t' + j delta)}.

    The upper triangle is the Dirichlet closed form of `_dirichlet`,
    evaluated as arrays, with its direct-sum fallback for the
    near-resonant entries, times delta e^{i(w_k - w_n) t'}; the lower
    triangle is its conjugate.  The operations are those of the scalar
    formula `delta * complex(cos, sin) * d`, in its order, so every entry
    is the same double, signed zeros included, it would be entry by entry.
    """
    omegas = np.asarray(omegas)
    n = len(omegas)
    delta, J = grid.delta, grid.J
    upper = np.triu_indices(n, 1)
    diff = omegas[upper[0]] - omegas[upper[1]]
    half = 0.5 * (diff * delta)
    sin_half = np.sin(half)
    with np.errstate(divide="ignore", invalid="ignore"):
        d = np.sin((2 * J + 1) * half) / sin_half
    # written so that a NaN sine, like a small one, takes the fallback
    for i in np.flatnonzero(~(np.abs(sin_half) >= 1e-8)):
        d[i] = _dirichlet(diff[i] * delta, J)
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


def hermitian_pencil_eig(
    s: np.ndarray, q: np.ndarray, with_vectors: bool = False
):
    """Eigenvalues of the Hermitian-definite pencil S v = lambda Q v, ascending.

    Q must be positive definite (checked via Cholesky).  Residuals
    ||S v - lambda Q v|| are verified against 1e-9 ||S||; a failed
    eigensolve or residual check (for example NaN or inf in S) raises
    StructuralError.
    """
    s = np.asarray(s, dtype=complex)
    q = np.asarray(q, dtype=complex)
    if s.shape != q.shape or s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise StructuralError("pencil matrices must be square and of equal shape")
    try:
        chol = np.linalg.cholesky(q)
    except np.linalg.LinAlgError:
        raise ValidationError("Q not positive definite") from None
    # congruence A = L^{-1} S L^{-H}
    a = np.linalg.solve(chol, s)
    a = np.linalg.solve(chol, a.conj().T).conj().T
    a = 0.5 * (a + a.conj().T)
    try:
        vals, u = np.linalg.eigh(a)
    except np.linalg.LinAlgError:
        raise StructuralError("pencil eigensolver did not converge") from None
    vecs = np.linalg.solve(chol.conj().T, u)
    s_norm = math.sqrt(float(np.sum(np.abs(s) ** 2)))
    resid = s @ vecs - q @ vecs * vals[None, :]
    worst = float(np.max(np.linalg.norm(resid, axis=0) / np.linalg.norm(vecs, axis=0)))
    # written so that a NaN residual (NaN or inf on the diagonal of S) fails
    if not worst <= _RESIDUAL_RTOL * max(s_norm, 1e-300):
        raise StructuralError(
            f"pencil residual {worst:.3e} exceeds {_RESIDUAL_RTOL:.0e} * ||S||"
        )
    if with_vectors:
        return vals, vecs
    return vals


def pencil_singular(vals: np.ndarray) -> bool:
    """Singular rule on ascending pencil eigenvalues: min <= SINGULAR_RTOL * max(max, 0)."""
    return float(vals[0]) <= SINGULAR_RTOL * max(float(vals[-1]), 0.0)


def _frame_pencil(seq: ExponentSequence, grid: SamplingGrid):
    """(report of `frame_constants`, its active indices, its Q matrix)."""
    cls = seq.classification
    mask = band_mask(seq, grid.delta)
    active = mask.active_indices()
    if not active:
        raise ValidationError(
            "no band-admissible exponents for this sampling step",
            details={"delta": grid.delta, "threshold": mask.threshold},
        )
    active_set = set(active)
    for k in cls.a2_leads:
        p = cls.partners[k]
        if k in active_set and p in active_set:
            d = seq.omegas[p] - seq.omegas[k]
            if d < PAIR_GAP_FLOOR:
                raise ValidationError(
                    "QMatrix numerically singular: pair gap below 1e-12",
                    details={"lead": k, "gap": d},
                )
    qm = q_matrix(seq, mask).matrix
    s = sampled_gram(seq, grid, mask)
    vals = hermitian_pencil_eig(s, qm)
    min_eig = float(vals[0])
    max_eig = float(vals[-1])
    singular = pencil_singular(vals)
    horizon = grid.J * grid.delta
    diagnostics = (
        f"band mask: {len(active)} of {len(seq)} admissible",
        f"samples 2J+1={2 * grid.J + 1} vs active exponents={len(active)}",
        (
            f"J*delta={horizon:.6g} exceeds pi/gamma={math.pi / seq.gamma:.6g}"
            if horizon > math.pi / seq.gamma
            else f"J*delta={horizon:.6g} below pi/gamma={math.pi / seq.gamma:.6g}"
        ),
    )
    return FrameBoundReport(
        c_lower=0.0 if singular else min_eig,
        c_upper=max_eig,
        pencil_dim=len(active),
        min_eig=min_eig,
        max_eig=max_eig,
        singular=singular,
        diagnostics=diagnostics,
    ), active, qm


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


def epsilon_k(omega_k: float, omega_prime: float, J_prime: int, delta: float) -> float:
    """Contraction factor of the averaging filter at one frequency.

    |sinc((w_k - w') J' delta)| * |((w_k - w') delta/2) / sin((w_k - w') delta/2)|.
    """
    J_prime = count(J_prime, "J_prime")
    delta = positive(delta, "delta")
    u = float(omega_k) - float(omega_prime)
    if u == 0.0:
        raise ValidationError("omega_k equals omega_prime")
    half = u * delta / 2.0
    if _resonant(half):
        raise ValidationError(
            "sampling resonance: (omega_k - omega') delta/2 at a multiple of pi",
            details={"omega_k": omega_k, "half_angle": half},
        )
    return abs(_sinc(u * J_prime * delta)) * abs(half / math.sin(half))


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
    eps_prime = max(abs(_sinc((w - omega_prime) * J_prime * delta)) for w in omegas)
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
    base, active, qm = _frame_pencil(seq, grid)
    if (plan.delta, plan.active) != (grid.delta, active):
        raise ValidationError(
            "plan was built for a different delta or active set",
            details={"plan_delta": plan.delta, "plan_active": plan.active},
        )
    omegas = [seq.omegas[k] for k in active]
    eps = tuple(epsilon_k(w, plan.omega_prime, plan.J_prime, plan.delta) for w in omegas)
    if (eps, min(abs(w - plan.omega_prime) for w in omegas)) != (plan.eps_k, plan.gamma_prime):
        raise ValidationError("plan was built for a different sequence")
    if base.singular:
        raise ValidationError(
            "base pencil is singular; extended constants undefined",
            details={"min_eig": base.min_eig},
        )
    omegas = np.array(omegas + [plan.omega_prime], dtype=float)
    dim = qm.shape[0] + 1
    q_ext = np.zeros((dim, dim), dtype=float)
    q_ext[:-1, :-1] = qm
    q_ext[-1, -1] = 1.0
    grid_ext = SamplingGrid(grid.delta, grid.J + plan.J_prime, grid.t_shift)
    s_ext = _gram_from_omegas(omegas, grid_ext)
    vals = hermitian_pencil_eig(s_ext, q_ext)
    min_eig = float(vals[0])
    max_eig = float(vals[-1])
    singular = pencil_singular(vals)
    j, jp = grid.J, plan.J_prime
    c4_formula = (
        (1.0 + (2 * j + 2 * jp + 1) / (2 * j + 1))
        * max(4.0 * base.c_upper, 12.0 * j * grid.delta)
        * (1.0 + (jp * grid.delta) ** 2)
    )
    diagnostics = base.diagnostics + (
        f"extended grid half-count J+J'={grid_ext.J}",
        f"eps_sup={plan.eps_sup:.6g}",
    )
    return FrameBoundReport(
        c_lower=0.0 if singular else min_eig,
        c_upper=max_eig,
        pencil_dim=dim,
        min_eig=min_eig,
        max_eig=max_eig,
        singular=singular,
        diagnostics=diagnostics,
        companions={
            "c4_formula": c4_formula,
            "c1_base": base.c_lower,
            "c2_base": base.c_upper,
        },
    )


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
    on delta).  Every J must be a positive integer.
    """
    R = positive(R, "R")
    if not R > math.pi / seq.gamma:
        raise ValidationError(
            "horizon too short: R must exceed pi/gamma",
            details={"R": R, "pi_over_gamma": math.pi / seq.gamma},
        )
    rows = []
    prev_active: tuple[int, ...] | None = None
    for J in J_list:
        J = count(J, "J")
        delta = R / J
        report, active, qm = _frame_pencil(seq, SamplingGrid(delta, J, 0.0))
        omegas = np.array([seq.omegas[k] for k in active], dtype=float)
        cvals = hermitian_pencil_eig(continuous_gram(omegas, R), qm)
        c1c, c2c = float(cvals[0]), float(cvals[-1])
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
