"""Empirical frame constants from Hermitian-definite matrix pencils, and the
averaging-filter machinery for augmenting an exponent system by one frequency.

The two-sided sampled-energy inequality

    c1 Q(x) <= delta sum_{j=-J}^{J} |x(t' + j delta)|^2 <= c2 Q(x)

is made sharp per instance by solving the generalized eigenproblem
S v = lambda Q v, where S is the sampled Gram matrix of the active
exponentials and Q the matrix of the quadratic form.  In the coefficient
basis Q holds a 2x2 block [[1+d^2, 1], [1, 1+d^2]] per close pair, and
the Gram's difference direction e_p - e_k shrinks with the gap d, so both
sides of the pencil cancel to O(d^2).  Every pencil is therefore taken
in the divided-difference basis of the weakened gap condition,
u = e_k + e_p and v = (e_p - e_k)/d, where `quadforms.q_matrix` gives Q
as a diagonal.  The Gram's rows and columns of u and v are formed by
closed forms that do not cancel as d -> 0 and whose cost does not grow
with J (`_pair_basis`, for the sampled Gram and for the continuous one on
[-R, R], its zero-step limit).  That is the Gram B^T S B itself, and Q
stays `q_matrix`'s diagonal: `hermitian_pencil_eig`, the one place that
applies Q, scales the pencil by Q^{-1/2} for LAPACK's divide-and-conquer
solver (numpy's eigh), and checks every eigenpair against the residual
gate ||S v - lambda Q v|| <= 1e-9 ||S||.

The grid's shift t' is the similarity S(t') = Phi S(0) Phi^H, Phi = diag(e^{i w t'}):
every Gram is formed real on the unshifted grid (`_gram_from_omegas`), a pencil
without pairs is real at every t', and t' enters only as a rotation of each pair's
basis, 2x2 with determinant one (`_pair_pencil`), against the same Q, and, as a unit
phase `sums._phasors(t', w)` per coefficient, `sampled_gram` and `observability`.

One step, `_sampled_pencil`, builds the sampled Gram, solves and applies
the singular rule (`_singular`) for `frame_constants`,
`extended_frame_constants`, the discrete rows of `continuum_limit_scan` and,
against a unit Q, once per junction case, `observability.verify_observability`,
whose bound (`_max_against_gram`) and round trip (`reconstruct`) read that one
solve; it and the continuous pencil of `continuum_limit_scan` share `_pair_pencil`.

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
from .sums import AugmentedExpSum, ExpSum, SamplingGrid, _phasors, continuous_gram

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


def _gram_from_omegas(omegas: np.ndarray, delta: float, J: int) -> np.ndarray:
    """Real Gram S_{kn} = delta sum_{j=-J}^{J} e^{i(w_k - w_n) j delta} of the unshifted grid.

    The upper triangle is delta times the Dirichlet kernel sum_{j=-J}^{J}
    e^{i j theta} = sin((2J+1) h) / sin h, h = theta/2, and the lower
    triangle its mirror.  Where |sin h| < 1e-8 the same quotient is taken at
    r = h - k pi, the distance to the nearest multiple of pi (2J+1 at
    r = 0).  The operations are those of the scalar formula `delta * d`, so
    every entry is the same double, signed zeros included, it would be entry
    by entry.
    """
    omegas = np.asarray(omegas)
    n = len(omegas)
    upper = _upper_pairs(n)
    half = 0.5 * ((omegas[upper[0]] - omegas[upper[1]]) * delta)
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
    s = np.empty((n, n))
    s[upper] = s[upper[::-1]] = delta * d
    np.fill_diagonal(s, delta * (2 * J + 1))
    return s


def _check_shift(omegas, t_shift: float) -> None:
    """Refuse a t' whose product with the span of omegas is not finite."""
    if t_shift and len(omegas) and not math.isfinite(t_shift * (float(max(omegas)) - float(min(omegas)))):
        raise ValidationError("t_shift times the span of the frequencies is not finite", details={"t_shift": t_shift})


def sampled_gram(seq: ExponentSequence, grid: SamplingGrid, mask: BandMask) -> np.ndarray:
    """Gram matrix of the sampled exponentials over the active indices, at t': Phi S Phi^H as
    S_kn e^{i(w_k - w_n)t'}, finite where t' w is not, and Hermitian to the bit."""
    if len(mask.admissible) != len(seq):
        raise StructuralError("band mask length does not match sequence")
    omegas = np.array([seq.omegas[k] for k in mask.active_indices()], dtype=float)
    _check_shift(omegas, grid.t_shift)
    return _gram_from_omegas(omegas, grid.delta, grid.J) * _phasors(grid.t_shift, omegas[:, None] - omegas)


# 1/3!, -1/5!, 1/7!, ..., 1/19!: the series of x - sin x, whose next term is below 1e-19 of the first for x < 1
_X_MINUS_SIN = tuple((-1.0) ** k / math.factorial(2 * k + 3) for k in range(9))


def _x_minus_sin(x: float) -> float:
    """x - sin x for x >= 0, below 1 by its series x^3/3! - x^5/5! + ..., which does not cancel."""
    if x >= 1.0:
        return x - math.sin(x)
    x2, total = x * x, 0.0
    for c in reversed(_X_MINUS_SIN):
        total = total * x2 + c
    return total * x2 * x


def _pairs_first(omegas, q_diag, leads):
    """omegas and q_diag reordered to put the pairs at positions `leads` (and
    leads + 1) first: their leads, then their partners, then every other index.
    With pairs, both are new arrays."""
    if not len(leads):
        return omegas, q_diag
    first = leads.tolist()
    paired = set(first) | {i + 1 for i in first}
    order = first + [i + 1 for i in first] + [i for i in range(len(q_diag)) if i not in paired]
    return np.asarray(omegas)[order], np.asarray(q_diag)[order]


# `_pair_basis`'s kernel (sine, cosine, x - sin x, endpoint weight): the sampled Gram's, and its zero-step limit
_SAMPLED = (np.sin, np.cos, _x_minus_sin, 1.0)
_CONTINUUM = (lambda z: z, lambda z: 1.0, lambda z: 0.0, 0.0)


def _pair_basis(g, omegas, gaps, delta: float, J, kernel) -> np.ndarray:
    """B^T g B for the real Gram g of omegas, taken at t' = 0 with the pairs first
    (`_pairs_first`), and B the divided-difference basis: g rewritten in place.

    The p pairs come first: the leads k, then the partners p = k + 1, gaps
    d = w_p - w_k.  A pair trades its columns e_k, e_p for u = e_k + e_p and
    v = (e_p - e_k)/d.  The closed forms below do not cancel as d -> 0 and do
    not grow with J.  With D the Dirichlet kernel,
    N = 2J+1, x = (m - w_n) delta for the pair's midpoint m, h = d delta/2
    and den = sin((x-h)/2) sin((x+h)/2):

        <u, e_n> = delta (D(x - h) + D(x + h)), the sum of the Gram's rows k and p,
        <v, e_n> = -(delta/d) 4 sum_{j=1}^{J} sin(j x) sin(j h)
                 = -(delta/d) [2 sin(Jx) sin(Jh)
                               + (sin(Jx) cos(Jh) sin h - cos(Jx) sin(Jh) sin x) / den],
        <v, v>   = (2 delta/d^2) (N sin h - sin(N h)) / sin h,

    the last as (Nh - sin Nh) - N (h - sin h), each by `_x_minus_sin`.
    Two pairs, X = (m - m') delta, A = h, B = h', give
    <v, v'> = (delta/(d d')) 4 sum_j e^{ijX} sin(jA) sin(jB), the
    difference in Y = X -+ A of the <v', e_n> form written out:

        4 sin(JB) cos(JX) sin(JA)
        + [2 cos(JB) sin B cos(JX) sin(JA)
           - 2 sin(JB) (cos(JX) cos X cos(JA) sin A - sin(JX) sin X sin(JA) cos A)] / den(X+A)
        - m(X-A) sin X sin A / (den(X+A) den(X-A)),

    m(Y) = sin(JY) cos(JB) sin B - cos(JY) sin(JB) sin Y and
    den(Y) = sin((Y-B)/2) sin((Y+B)/2).  Every den is a product of sines
    of half a difference of two frequencies times delta, as in the Gram.

    `kernel` gives the sine, cosine and x - sin x of the angles not times J
    or N, and the weight of the endpoint terms 2 sin(Jx) sin(Jh) and
    4 sin(JB) cos(JX) sin(JA): `_SAMPLED`, or `_CONTINUUM` for the Gram of
    `sums.continuous_gram` on [-R, R], the zero-step limit at delta 1 and
    J = R, where sin z and cos z become z and 1, N becomes 2J and the
    endpoint terms drop out.

    A pair's own <u, v> is 0 (the grid is symmetric about 0), its own
    columns above (0 by 0) are overwritten, and <u, v'> is <v', u>.  The
    pairs' block is made symmetric by averaging its triangles.
    """
    sin, cos, x_minus_sin, ends = kernel
    p, m = len(gaps), 2 * len(gaps)
    # (w_k - w_n) delta/2 in the first p rows, (w_p - w_n) delta/2 in the next p
    half = (omegas[:m, None] - omegas) * (0.5 * delta)
    sin_half = sin(half)
    sk, sp = sin_half[:p], sin_half[p:]
    h = ((0.5 * delta) * gaps)[:, None]
    s_h, jh = sin(h), J * h
    s_jh, c_jh = np.sin(jh), np.cos(jh)
    cs, sc = c_jh * s_h, s_jh * cos(h)  # cos(Jh) sin h and sin(Jh) cos h
    with np.errstate(divide="ignore", invalid="ignore"):
        x = half[:p] + half[p:]
        jx = J * x
        s_jx = np.sin(jx)
        v = ((2.0 * ends) * s_jh * s_jx + (cs * s_jx - s_jh * np.cos(jx) * sin(x)) / (sk * sp)) * (-delta / gaps)[:, None]
        xc = 0.5 * (x[:, :p] + x[:, p:m])
        yc = half[:p, :p] + half[:p, p:m]
        small = np.array([xc, yc])
        big = J * small
        (s_xc, s_yc), c_xc = sin(small), cos(xc)
        (s_jxc, s_jyc), (c_jxc, c_jyc) = np.sin(big), np.cos(big)
        two_s_jb = 2.0 * s_jh.T
        m_y = cs.T * s_jyc - s_jh.T * c_jyc * s_yc
        den_plus = sp[:, :p] * sp[:, p:m]
        t = (
            c_jxc * (s_jh * ((4.0 * ends) * s_jh.T * den_plus + 2.0 * cs.T) - two_s_jb * c_xc * cs)
            + s_xc * (two_s_jb * s_jxc * sc - m_y * s_h / (sk[:, :p] * sk[:, p:m]))
        ) * (delta / (den_plus * (gaps[:, None] * gaps)))
    n = 2 * J + ends
    vv = [2.0 * delta / (d * d) * (_x_minus_sin(n * z) - n * x_minus_sin(z)) / s
          for d, (z,), (s,) in zip(gaps.tolist(), h.tolist(), s_h.tolist())]
    rows = np.concatenate([g[:p] + g[p:m], v])
    rows[:, :p] += rows[:, p:m]
    rows[:p, p:m] = rows[p:, :p].T
    rows[p:, p:m] = t
    rows[:p, p:m].flat[:: p + 1] = rows[p:, :p].flat[:: p + 1] = 0.0
    rows[p:, p:m].flat[:: p + 1] = vv
    rows[:, :m] = 0.5 * (rows[:, :m] + rows[:, :m].T)
    g[:m] = rows
    g[:, :m] = rows.T
    return g


def hermitian_pencil_eig(s: np.ndarray, q_diag: np.ndarray):
    """(vals, vecs) of the Hermitian-definite pencil S v = lambda Q v, ascending, vecs[:, i]
    the eigenvector of vals[i].

    S is complex Hermitian, or real symmetric, which is solved in real
    arithmetic.  Q = diag(q_diag) is real, and must be positive (else
    ValidationError).  Every Q, a unit one included, takes one path: S is
    scaled on both sides by 1/sqrt(q_diag), Cholesky's factor of Q, to
    A = Q^{-1/2} S Q^{-1/2}, made Hermitian, and an eigenvector u of A gives
    v = Q^{-1/2} u.

    Residuals ||S v - lambda Q v|| are verified against 1e-9 ||S||; a failed
    eigensolve or residual check (for example NaN or inf in S, or a residual
    that overflows) raises StructuralError, and so does an ||S|| past the
    double range, against which every residual would pass.
    """
    s = np.asarray(s, dtype=complex if np.iscomplexobj(s) else float)
    n = np.size(q_diag)
    if np.iscomplexobj(q_diag) or np.ndim(q_diag) != 1 or s.shape != (n, n) or n == 0:
        raise StructuralError("pencil S must be n x n with n >= 1, and Q a real diagonal of length n")
    q_diag = np.asarray(q_diag, dtype=float)
    if not (q_diag > 0.0).all():  # written so that a NaN entry fails
        raise ValidationError("Q not positive definite")
    # as LAPACK, without a warning: a non-finite A or residual fails the gate, and an
    # overflowing ||S|| is refused by name
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        scale = np.sqrt(q_diag)
        a = s / scale[:, None] / scale
        try:
            vals, u = np.linalg.eigh(0.5 * (a + a.conj().T))
        except np.linalg.LinAlgError:
            raise StructuralError("pencil eigensolver did not converge") from None
        s_norm = math.sqrt(float(np.vdot(s, s).real))
        if not math.isfinite(s_norm):
            raise StructuralError(f"pencil residual gate undefined: ||S|| = {s_norm}, not finite")
        vecs = u / scale[:, None]
        resid = s @ vecs - q_diag[:, None] * vecs * vals
        worst = float(np.max(np.linalg.norm(resid, axis=0) / np.linalg.norm(vecs, axis=0)))
    # written so that a NaN residual fails
    if not worst <= _RESIDUAL_RTOL * max(s_norm, 1e-300):
        raise StructuralError(
            f"pencil residual {worst:.3e} exceeds {_RESIDUAL_RTOL:.0e} * ||S||"
        )
    return vals, vecs


def _singular(min_eig: float, max_eig: float) -> bool:
    """The singular rule of every pencil: min_eig <= SINGULAR_RTOL * max(max_eig, 0)."""
    return min_eig <= SINGULAR_RTOL * max(max_eig, 0.0)


def _pair_pencil(g, omegas, q_diag, gaps, delta: float, J, t_shift: float, kernel):
    """(vals, vecs, singular, g) of the pencil of the Gram g of omegas against diag(q_diag),
    both from `_pairs_first`, singular by `_singular`.

    With pairs, g is taken to their basis by `_pair_basis`, in place, and q_diag, `q_matrix`'s
    Q, reaches `hermitian_pencil_eig` as it is at every t'.  A shift t' multiplies each
    coefficient by e^{i w t'}; at a pair, apart from the common phase of its midpoint, which
    a diagonal Q does not see, that is the change of its basis T = [[c, i s/d], [i d s, c]],
    c and s the cosine and sine of d t'/2, with determinant one.  g becomes T^H g T on the
    pair rows and columns (u <- c u + i d s v and v <- i (s/d) u + c v on the columns, the
    conjugate on the rows), and its pair block is averaged with its conjugate transpose.
    c, s and s/d do not cancel at any d t'.  vecs are coefficients z in the pair basis,
    x = Phi^H B T z with Phi = diag(e^{i w t'}), and T = I at t' = 0, where g stays real.
    """
    p, m = len(gaps), 2 * len(gaps)
    if m:
        g = _pair_basis(g, omegas, gaps, delta, J, kernel)
        if t_shift:
            c, s = np.cos((0.5 * t_shift) * gaps), np.sin((0.5 * t_shift) * gaps)
            ds, sd = 1j * gaps * s, 1j * s / gaps
            g = g.astype(complex)
            g[:, :p], g[:, p:m] = c * g[:, :p] + ds * g[:, p:m], sd * g[:, :p] + c * g[:, p:m]
            c, ds, sd = c[:, None], ds.conj()[:, None], sd.conj()[:, None]
            g[:p], g[p:m] = c * g[:p] + ds * g[p:m], sd * g[:p] + c * g[p:m]
            g[:m, :m] = 0.5 * (g[:m, :m] + g[:m, :m].conj().T)
    vals, vecs = hermitian_pencil_eig(g, q_diag)
    return vals, vecs, _singular(float(vals[0]), float(vals[-1])), g


def _sampled_pencil(omegas: np.ndarray, q_diag, grid: SamplingGrid, leads=(), gaps=()):
    """(vals, vecs, singular, G) of the sampled Gram G of omegas on grid against
    diag(q_diag), on the unshifted grid, with the pairs at positions `leads` (gaps
    `gaps`) in their divided-difference basis (`_pair_pencil`): vecs are coefficients in the
    pair basis, rotated by t' at each pair, and G is real unless t' rotates a pair.
    A t' whose product with the span of omegas is not finite is refused (`_check_shift`)."""
    _check_shift(omegas, grid.t_shift)
    omegas, q_diag = _pairs_first(omegas, q_diag, leads)
    g = _gram_from_omegas(omegas, grid.delta, grid.J)
    return _pair_pencil(g, omegas, q_diag, gaps, grid.delta, grid.J, grid.t_shift, _SAMPLED)


def _max_against_gram(pencil, m_diag) -> float:
    """lambda_max(M, G) of M = diag(m_diag) against G = V Lambda V^H, pencil the (vals, vecs, singular,
    G) of `_sampled_pencil(omegas, ones, grid)`: the largest eigenvalue of W^H M W, W = V Lambda^{-1/2},
    against a unit Q, so no graded diagonal reaches `hermitian_pencil_eig`; inf where G is singular."""
    vals, vecs, singular, _ = pencil
    if singular:
        return math.inf
    w = vecs / np.sqrt(vals)
    return float(hermitian_pencil_eig((w.conj().T * m_diag) @ w, np.ones(len(vals)))[0][-1])


def _frame_report(pencil, diagnostics, companions=None) -> FrameBoundReport:
    """Report of a `_sampled_pencil` result; a singular pencil has c_lower = 0."""
    vals, _, singular, s = pencil
    min_eig, max_eig = float(vals[0]), float(vals[-1])
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
    pencil = _sampled_pencil(omegas, qm.diag, grid, qm.leads, qm.gaps)
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
    grid_ext = SamplingGrid(grid.delta, grid.J + plan.J_prime, grid.t_shift)
    pencil = _sampled_pencil(
        np.append(omegas, plan.omega_prime), np.append(qm.diag, 1.0), grid_ext, qm.leads, qm.gaps
    )
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
    their Q and R, so it is solved once per distinct active set, in the
    pairs' divided-difference basis, by the sampled closed forms at their
    zero-step limit (`_pair_pencil` with `_CONTINUUM`).  Every J must be a
    positive integer.
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
            first, q_diag = _pairs_first(omegas, qm.diag, qm.leads)
            vals = _pair_pencil(continuous_gram(first, R), first, q_diag, qm.gaps, 1.0, R, 0.0, _CONTINUUM)[0]
            continuous[active] = float(vals[0]), float(vals[-1])
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
