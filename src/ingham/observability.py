"""Coupled strings and beams observed through the derivative jump at the junction.

Two homogeneous segments (0, a) and (a, 1) are coupled at the interior
point a.  Modal solutions are exact superpositions of

    left:  sin(n pi x / a),          right: sin(m pi (x - a) / (1 - a)),

with temporal frequencies +-n pi / a (strings) or +-(n pi / a)^2 (beams)
on the left, and the mirrored expressions on the right.  The observed
quantity is the jump of u_x across the junction sampled on a uniform
grid.  Mode caps tied to the sampling step keep every frequency inside
the admissible band, the merged frequency list satisfies the weakened
gap condition, and initial data in Sobolev norms is then both bounded by
the sampled jump energy (observability) and recoverable from it
(least-squares reconstruction).

The right-side basis uses the shifted argument (x - a)/(1 - a): the
unshifted sin(m pi x/(1 - a)) would not vanish at both x = a and x = 1.

The grid's shift t' is a unit phase e^{i w t'} on each coefficient, never a
sample time, with an error of about eps |w t'| per exponent.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np

from .bounds import _check_shift, _sampled_pencil, _singular
from .errors import StructuralError, ValidationError, count, finite_complex, positive
from .exponents import ExponentSequence, validate_weak_gap
from .sums import ExpSum, SamplingGrid, _exact_sum, _phasors, eval_sum

STRING = "string"
BEAM = "beam"

# frequencies closer than this (relative) are treated as a junction resonance
_COLLISION_RTOL = 1e-9
# rounding guard: a two-step gap this close to 2*gamma counts as equal
_GAP_ULP_RTOL = 1e-13
# trials drawn and evaluated together, so the default 100 trials take one batch;
# a batch peaks near 70 bytes per trial and exponent (tracemalloc), 0.86 MB
# at 98 exponents, whatever the trial count
_TRIAL_CHUNK = 128
# batched trial 0 and its per-system recomputation must agree to this (relative)
_WITNESS_RTOL = 1e-12


@dataclass(frozen=True)
class Mode:
    """One modal component: index n and the amplitudes of e^{+i w t}, e^{-i w t}."""

    n: int
    plus: complex = 0.0
    minus: complex = 0.0

    def __post_init__(self):
        object.__setattr__(self, "n", count(self.n, "mode index n"))
        object.__setattr__(self, "plus", finite_complex(self.plus, "plus"))
        object.__setattr__(self, "minus", finite_complex(self.minus, "minus"))


@dataclass(frozen=True)
class ExponentTag:
    """Origin of one merged exponent: side, mode index, frequency sign."""

    side: str
    n: int
    sign: int


@dataclass(frozen=True)
class CoupledSystem:
    """Two segments joined at x = a with modal initial data per side.

    gamma is the gap parameter of the merged frequency list: strings
    default to (pi/2) min{1/a, 1/(1-a)}; beams have a growing spectral
    gap, so gamma stays a user choice constrained by delta <= pi/gamma.
    """

    kind: str
    a: float
    left: tuple[Mode, ...] = ()
    right: tuple[Mode, ...] = ()
    gamma: float | None = None

    def __post_init__(self):
        if self.kind not in (STRING, BEAM):
            raise StructuralError(f"kind must be '{STRING}' or '{BEAM}', got {self.kind!r}")
        a = float(self.a)
        if not 0.0 < a < 1.0:
            raise StructuralError(f"junction point must lie in (0, 1), got {self.a}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "left", tuple(self.left))
        object.__setattr__(self, "right", tuple(self.right))
        for side in (self.left, self.right):
            idx = [m.n for m in side]
            if len(set(idx)) != len(idx):
                raise StructuralError("mode indices must be distinct per side")
        if self.gamma is not None:
            object.__setattr__(self, "gamma", positive(self.gamma, "gamma"))

    def side_length(self, side: str) -> float:
        return self.a if side == "left" else 1.0 - self.a

    def gap_parameter(self) -> float:
        if self.gamma is not None:
            return self.gamma
        if self.kind == STRING:
            return 0.5 * math.pi * min(1.0 / self.a, 1.0 / (1.0 - self.a))
        raise ValidationError("beam systems need an explicit gamma")

    def mode_frequency(self, side: str, n: int) -> float:
        base = n * math.pi / self.side_length(side)
        return base if self.kind == STRING else base * base

    def spatial_eigenvalue(self, side: str, n: int) -> float:
        base = n * math.pi / self.side_length(side)
        return base * base

    def jump_weight(self, side: str, n: int) -> float:
        # d/dx sin(n pi x / a) at x = a, minus-side sign for the right segment
        if side == "left":
            return (n * math.pi / self.a) * (-1.0) ** n
        return -(n * math.pi / (1.0 - self.a))

    @cached_property
    def _layout(self) -> tuple[ExponentSequence, tuple[ExponentTag, ...], np.ndarray, np.ndarray]:
        """(seq, tags) of `assemble_exponents(self)`, then cols and weights:
        exponent k carries weights[k] * amps[cols[k]] in the derivative jump,
        where amps flattens the (plus, minus) pairs of the modes in _modes
        order.  Computed once per system and shared by every caller, and by
        the systems that _with_pairs derives from it."""
        seq, tags = assemble_exponents(self)
        slot = {(side, m.n): k for k, (side, m) in enumerate(_modes(self))}
        cols = np.array([2 * slot[tag.side, tag.n] + (tag.sign < 0) for tag in tags])
        weights = np.array([self.jump_weight(tag.side, tag.n) for tag in tags])
        # shared, so read-only
        cols.flags.writeable = weights.flags.writeable = False
        return seq, tags, cols, weights


@dataclass(frozen=True)
class SobolevSpec:
    """Spectral Sobolev weight: spatial eigenvalue (n pi / side)^2 to the power s."""

    s: float

    def weight(self, lam: float) -> float:
        try:
            w = lam**self.s
        except OverflowError:
            w = math.inf
        if not 0.0 < w < math.inf:
            raise ValidationError(f"Sobolev weight not positive finite at lambda={lam}")
        return w


@dataclass(frozen=True, eq=False)
class ObservationTrace:
    """Samples of the derivative jump u_x(a-0, t) - u_x(a+0, t) on a grid."""

    grid: SamplingGrid
    samples: np.ndarray  # a read-only copy, complex, shape (2J+1,); traces compare by identity

    def __post_init__(self):
        object.__setattr__(self, "samples", np.array(self.samples, dtype=complex))
        self.samples.flags.writeable = False
        if self.samples.shape != (2 * self.grid.J + 1,):
            raise StructuralError("trace length must be 2J+1")

    def energy(self) -> float:
        return self.grid.delta * _exact_sum(np.abs(self.samples) ** 2)

    def rows(self):
        """(j, t, re, im) per sample, for table export.  The labels t, the doubles t' + j delta,
        coincide once |t'| >> J delta; the samples are exact, at the offsets j delta (`observe`)."""
        times = self.grid.times().tolist()
        for j, (t, v) in enumerate(zip(times, self.samples.tolist()), -self.grid.J):
            yield j, t, v.real, v.imag


def mode_caps(sys: CoupledSystem, delta: float) -> tuple[float, float]:
    """Largest admissible mode index (left, right) for sampling step delta.

    Strings: n <= a/delta - (1/4) min{1, a/(1-a)} and the mirrored right
    cap.  Beams: n <= (a/pi) sqrt(pi/delta - gamma/2).  Both coincide
    with the band condition |omega| <= pi/delta - gamma/2 for the
    respective frequency rules.
    """
    delta = positive(delta, "delta")
    a = sys.a
    if sys.kind == STRING:
        cap_left = a / delta - 0.25 * min(1.0, a / (1.0 - a))
        cap_right = (1.0 - a) / delta - 0.25 * min(1.0, (1.0 - a) / a)
        return cap_left, cap_right
    head = math.pi / delta - sys.gap_parameter() / 2.0
    if head <= 0.0:
        return 0.0, 0.0
    root = math.sqrt(head)
    return (a / math.pi) * root, ((1.0 - a) / math.pi) * root


def check_caps(sys: CoupledSystem, delta: float) -> None:
    """Raise when any mode exceeds its cap, or (beams) delta > pi/gamma."""
    if sys.kind == BEAM:
        gamma = sys.gap_parameter()
        if delta > math.pi / gamma:
            raise ValidationError(
                "sampling step too coarse: delta must satisfy delta <= pi/gamma",
                details={"delta": delta, "pi_over_gamma": math.pi / gamma},
            )
    cap_left, cap_right = mode_caps(sys, delta)
    offenders = [("left", m.n) for m in sys.left if m.n > cap_left]
    offenders += [("right", m.n) for m in sys.right if m.n > cap_right]
    if offenders:
        raise ValidationError(
            "mode caps violated for this sampling step",
            details={
                "delta": delta,
                "cap_left": cap_left,
                "cap_right": cap_right,
                "offending_modes": offenders,
            },
        )


def assemble_exponents(sys: CoupledSystem) -> tuple[ExponentSequence, tuple[ExponentTag, ...]]:
    """Merged sorted +- frequency list of both sides with origin tags.

    Validates the weakened gap condition at gamma (strings default to the
    formula, beams use the user value); coinciding cross-side frequencies
    mean the junction is resonant and reconstruction is hopeless.
    """
    gamma = sys.gap_parameter()
    entries = []
    for side, modes in (("left", sys.left), ("right", sys.right)):
        for m in modes:
            w = sys.mode_frequency(side, m.n)
            entries.append((w, ExponentTag(side, m.n, 1)))
            entries.append((-w, ExponentTag(side, m.n, -1)))
    if not entries:
        raise ValidationError("system has no modes")
    entries.sort(key=lambda e: e[0])
    omegas = [e[0] for e in entries]
    for k in range(len(omegas) - 1):
        if omegas[k + 1] - omegas[k] <= _COLLISION_RTOL * (1.0 + abs(omegas[k])):
            raise ValidationError(
                "junction point resonant: coinciding frequencies across sides",
                details={"omega": omegas[k], "tags": [entries[k][1], entries[k + 1][1]]},
            )
    # two-step gaps that are exactly 2*gamma in exact arithmetic can land a
    # few ulps short in floats; certify with the numerically attained gamma
    if len(omegas) > 2:
        two_step = min(omegas[k + 2] - omegas[k] for k in range(len(omegas) - 2))
        if 2.0 * gamma * (1.0 - _GAP_ULP_RTOL) < two_step < 2.0 * gamma:
            gamma = two_step / 2.0
    seq = ExponentSequence(tuple(omegas), gamma=gamma, gamma0=gamma)
    report = validate_weak_gap(seq)
    if not report.ok:
        raise ValidationError(
            "merged frequencies violate the weakened gap condition",
            details=asdict(report),
        )
    return seq, tuple(e[1] for e in entries)


def trace_jump_sum(sys: CoupledSystem) -> ExpSum:
    """The derivative jump at the junction as an exponential sum in time."""
    seq, _, cols, weights = sys._layout
    return ExpSum(seq, tuple(weights * _amplitudes(sys).reshape(-1)[cols]))


def observe(sys: CoupledSystem, grid: SamplingGrid) -> ObservationTrace:
    """Sample the junction jump on the grid (caps checked first): the jump sum phased
    by e^{i w t'} at the offsets j delta.  An unbounded t' (`bounds._check_shift`) and a
    grid whose 2J+1 samples cannot be allocated are refused with a ValidationError."""
    check_caps(sys, grid.delta)
    s = trace_jump_sum(sys)
    _check_shift(s.seq.omegas, grid.t_shift)
    phased = ExpSum(s.seq, tuple(np.array(s.coeffs) * _phasors(grid.t_shift, s.seq.omegas)))
    try:
        return ObservationTrace(grid, eval_sum(phased, SamplingGrid(grid.delta, grid.J).times()))
    except MemoryError:
        raise ValidationError(
            "observation trace needs more samples than memory allows",
            details={"samples": 2 * grid.J + 1},
        ) from None


def _modes(sys: CoupledSystem) -> list[tuple[str, Mode]]:
    """(side, mode) pairs, left modes then right modes: the order of every per-mode array."""
    return [("left", m) for m in sys.left] + [("right", m) for m in sys.right]


def _amplitudes(sys: CoupledSystem) -> np.ndarray:
    """(modes, 2) array of (plus, minus) per mode, in _modes order."""
    return np.array([(m.plus, m.minus) for _, m in _modes(sys)], dtype=complex).reshape(-1, 2)


def _with_pairs(sys: CoupledSystem, pairs) -> CoupledSystem:
    """Same mode layout with the (plus, minus) rows of pairs, in _modes order.

    The layout depends only on kind, a, gamma and the mode indices, which
    the new system keeps, so it takes over sys._layout where sys has
    computed it.  It computes none itself: a resonant sys still gives a
    system, refused only when its exponents are needed.
    """
    modes = [Mode(m.n, complex(p), complex(q)) for (_, m), (p, q) in zip(_modes(sys), pairs)]
    cut = len(sys.left)
    new = CoupledSystem(sys.kind, sys.a, tuple(modes[:cut]), tuple(modes[cut:]), sys.gamma)
    if "_layout" in sys.__dict__:
        new.__dict__["_layout"] = sys.__dict__["_layout"]
    return new


def _abs2(z: np.ndarray) -> np.ndarray:
    # hypot, as Python's abs(complex); np.abs differs from it in the last bit
    h = np.hypot(z.real, z.imag)
    return h * h


def _sobolev_factors(sys: CoupledSystem, spec: SobolevSpec) -> np.ndarray:
    """(side/2) * lambda^s per mode; a squared norm sums factor * |coef|^2."""
    return np.array(
        [0.5 * sys.side_length(side) * spec.weight(sys.spatial_eigenvalue(side, m.n))
         for side, m in _modes(sys)],
        dtype=float,
    )


def _coef_sq(sys: CoupledSystem, plus: np.ndarray, minus: np.ndarray, which: str) -> np.ndarray:
    """|coef|^2 per mode for amplitude arrays shaped (..., modes)."""
    if which == "u0":
        return _abs2(plus + minus)
    if which == "u1":
        omega = np.array([sys.mode_frequency(side, m.n) for side, m in _modes(sys)], dtype=float)
        return omega * omega * _abs2(plus - minus)
    raise StructuralError(f"which must be 'u0' or 'u1', got {which!r}")


def sobolev_norm(sys: CoupledSystem, spec: SobolevSpec, which: str) -> float:
    """Squared spectral Sobolev norm of u0 or u1.

    u0 coefficients are plus+minus per mode, u1 coefficients i*omega*
    (plus-minus); each contributes (side/2) * lambda^s * |coef|^2 with
    lambda the spatial eigenvalue (n pi / side)^2.
    """
    amps = _amplitudes(sys)
    coef_sq = _coef_sq(sys, amps[:, 0], amps[:, 1], which)
    return math.fsum(_sobolev_factors(sys, spec) * coef_sq)


def _horizon_threshold(sys: CoupledSystem) -> float:
    if sys.kind == STRING:
        return 2.0 * max(sys.a, 1.0 - sys.a)
    return math.pi / sys.gap_parameter()


def _energy_specs(kind: str, epsilon: float) -> tuple[SobolevSpec, SobolevSpec]:
    """Norms of (u0, u1) in the observability estimate."""
    return SobolevSpec(-epsilon if kind == STRING else 1.0 - epsilon), SobolevSpec(-1.0 - epsilon)


def initial_data_energy(sys: CoupledSystem, epsilon: float) -> float:
    """||u0||^2 + ||u1||^2 in the norms of the observability estimate.

    Strings pair H^{-eps} with H^{-1-eps}; beams pair H^{1-eps} with
    H^{-1-eps} (the extra power reflects the fourth-order operator).
    """
    spec0, spec1 = _energy_specs(sys.kind, epsilon)
    return sobolev_norm(sys, spec0, "u0") + sobolev_norm(sys, spec1, "u1")


def _unit_disc(rng: np.random.Generator, trials: int, modes: int) -> np.ndarray:
    """(trials, modes, 2) amplitudes (plus, minus), uniform on the unit disc.

    Each amplitude takes two doubles of the stream, modulus sqrt(u) then
    angle 2 pi u', in the order trial, mode, plus before minus.
    """
    u = rng.random((trials, modes, 2, 2))
    r = np.sqrt(u[..., 0])
    phi = 2.0 * math.pi * u[..., 1]
    amps = np.empty(r.shape, dtype=complex)
    amps.real = r * np.cos(phi)
    amps.imag = r * np.sin(phi)
    return amps


def with_amplitudes(sys: CoupledSystem, rng: np.random.Generator) -> CoupledSystem:
    """Same mode layout with fresh amplitudes drawn uniformly from the unit disc."""
    return _with_pairs(sys, _unit_disc(rng, 1, len(_modes(sys)))[0])


@dataclass(frozen=True)
class ObservabilityReport:
    """Empirical and pencil-certified observability constants.

    verify_observability sets `_witness`, (trial 0, its trace), beside the fields."""

    kind: str
    epsilon: float
    trials: int
    c_empirical: float
    ratio_median: float
    c_pencil: float
    min_eig: float
    singular: bool
    horizon_ok: bool
    exponent_count: int
    diagnostics: tuple[str, ...] = field(default=())


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0.0 else math.inf


def _trial_ratios(
    sys: CoupledSystem, gram: np.ndarray, t_shift: float, epsilon: float, trials: int, seed: int
) -> np.ndarray:
    """Energy ratio of each seeded trial, evaluated _TRIAL_CHUNK trials at a time.

    Trial k carries the amplitudes that the k-th of repeated
    with_amplitudes calls on default_rng(seed) would draw.  Its ratio is
    initial_data_energy over the sampled jump energy, c^T S conj(c) in the
    real unshifted Gram S for the exponent coefficients c phased by e^{i w t'}
    (the conjugate phase would time-reverse the samples).  Both agree with
    the time-domain fsum path to rounding.  A chunk's ratios are formed in
    one array operation, the same doubles as _ratio: num / den, and inf
    where den <= 0 or is NaN.
    """
    seq, _, cols, weights = sys._layout
    spec0, spec1 = _energy_specs(sys.kind, epsilon)
    f0, f1 = _sobolev_factors(sys, spec0), _sobolev_factors(sys, spec1)
    rng = np.random.default_rng(seed)
    ratios = np.empty(trials)
    for start in range(0, trials, _TRIAL_CHUNK):
        amps = _unit_disc(rng, min(_TRIAL_CHUNK, trials - start), len(f0))
        plus, minus = amps[..., 0], amps[..., 1]
        num = f0 * _coef_sq(sys, plus, minus, "u0") + f1 * _coef_sq(sys, plus, minus, "u1")
        coeffs = weights * _phasors(t_shift, seq.omegas) * amps.reshape(len(amps), -1)[:, cols]
        den = np.einsum("ti,ti->t", coeffs, coeffs.conj() @ gram).real
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios[start:start + len(amps)] = np.where(den > 0.0, num.sum(axis=1) / den, math.inf)
    return ratios


def _median(x: np.ndarray) -> float:
    """float(np.median(x)) of a nonempty 1-D array, bit for bit, from one sort:
    the middle element, or (a + b) / 2 of the middle two, as np.mean forms
    it; NaN where x holds a NaN, which the sort puts last."""
    s = np.sort(x)
    n = len(s)
    if math.isnan(s[-1]):
        return math.nan
    mid = s[(n - 1) // 2:n // 2 + 1].tolist()
    return (mid[0] + mid[-1]) / 2.0 if n % 2 == 0 else mid[0]


def _pencil_weights(sys: CoupledSystem, epsilon: float) -> list[float]:
    """N = diag(nu) of the observability pencil, per merged exponent: the initial-data
    energy is sum nu_k |c_k|^2 over the coefficients c of `trace_jump_sum`."""
    seq, tags, _, weights = sys._layout
    spec0, spec1 = _energy_specs(sys.kind, epsilon)
    nu = []
    for tag, w in zip(tags, weights):
        lam = sys.spatial_eigenvalue(tag.side, tag.n)
        omega = sys.mode_frequency(tag.side, tag.n)
        length = sys.side_length(tag.side)
        # parallelogram identity: |p+m|^2 + |p-m|^2 = 2(|p|^2+|m|^2), so the
        # initial-data energy decouples to (side/2)(lam^{s0} + lam^{s1} w^2)
        # per +- branch of each mode
        nu.append(0.5 * length * (spec0.weight(lam) + spec1.weight(lam) * omega * omega) / (w * w))
    return nu


def verify_observability(
    sys: CoupledSystem,
    grid: SamplingGrid,
    epsilon: float,
    trials: int,
    seed: int = 0,
    enforce_horizon: bool = True,
) -> ObservabilityReport:
    """Estimate the constant bounding initial-data norms by sampled jump energy.

    Per trial, amplitudes are redrawn and the ratio (||u0||^2 + ||u1||^2)
    / (delta sum |jump|^2) recorded; the max is the empirical constant
    and the median, np.median's value taken from one sort, is reported
    beside it.  The trials are evaluated as a batch (see _trial_ratios):
    amplitudes come from default_rng(seed) _TRIAL_CHUNK trials at a time,
    and each sampled energy is a quadratic form in the pencil's Gram.
    Caps, horizon and the merged exponents are checked once, since trials
    change only the amplitudes: sys._layout is assembled once, and trial
    0 and the round trip's reconstruction take it over through _with_pairs.
    As a witness, trial 0 is drawn through with_amplitudes and observed,
    and its ratio recomputed in the time domain; a relative disagreement
    above _WITNESS_RTOL raises StructuralError.  The CLI's round trip
    reconstructs this same trial 0 from its trace (the report's `_witness`).
    Independently, the pencil of the sampled Gram against N, the diagonal of
    Sobolev weights over squared jump weights (`_pencil_weights`), certifies finiteness: its
    smallest eigenvalue lambda_min gives C_pencil = 1/lambda_min, an upper
    bound for every ratio.  The pencil is `bounds._sampled_pencil`, the one
    step that `frame_constants`, `extended_frame_constants` and
    `continuum_limit_scan` also take; the trials reuse its Gram.  With
    trials = 0 only the pencil route runs, and trial 0 is drawn and
    observed but not compared.
    """
    epsilon = positive(epsilon, "epsilon")
    trials = count(trials, "trials", least=0)
    check_caps(sys, grid.delta)
    horizon = grid.J * grid.delta
    threshold = _horizon_threshold(sys)
    horizon_ok = horizon > threshold
    if enforce_horizon and not horizon_ok:
        raise ValidationError(
            "time horizon too short for the observability estimate",
            details={"J_delta": horizon, "required_above": threshold},
        )
    seq = sys._layout[0]
    vals, _, singular, gram = _sampled_pencil(seq.omegas, _pencil_weights(sys, epsilon), grid)
    min_eig = float(vals[0])
    c_pencil = math.inf if singular else 1.0 / min_eig
    ratios = _trial_ratios(sys, gram, grid.t_shift, epsilon, trials, seed)
    trial = with_amplitudes(sys, np.random.default_rng(seed))
    trace = observe(trial, grid)
    if trials:
        first = float(ratios[0])
        again = _ratio(initial_data_energy(trial, epsilon), trace.energy())
        if again != first and not abs(again - first) <= _WITNESS_RTOL * abs(first):
            raise StructuralError(f"trial 0 ratio {first!r} differs from its recomputation {again!r}")
        c_emp = max(ratios.tolist())
        med = _median(ratios)
    else:
        c_emp = c_pencil
        med = 0.0
    diagnostics = (
        f"horizon J*delta={horizon:.6g} vs required {threshold:.6g}",
        f"pencil min_eig={min_eig:.6g}",
        f"exponents={len(seq)} samples={2 * grid.J + 1}",
    )
    report = ObservabilityReport(
        kind=sys.kind,
        epsilon=epsilon,
        trials=trials,
        c_empirical=c_emp,
        ratio_median=med,
        c_pencil=c_pencil,
        min_eig=min_eig,
        singular=singular,
        horizon_ok=horizon_ok,
        exponent_count=len(seq),
        diagnostics=diagnostics,
    )
    object.__setattr__(report, "_witness", (trial, trace))
    return report


@dataclass(frozen=True)
class ReconstructionResult:
    """Recovered modal amplitudes with least-squares diagnostics."""

    left: tuple[Mode, ...]
    right: tuple[Mode, ...]
    residual: float
    coeffs: tuple[complex, ...]
    min_singular_value: float

    def system(self, template: CoupledSystem) -> CoupledSystem:
        return CoupledSystem(template.kind, template.a, self.left, self.right, template.gamma)


def _norm(z: np.ndarray) -> float:
    """||z|| of a contiguous complex vector by einsum, which no BLAS thread splits."""
    return math.sqrt(np.einsum("i,i->", z.view(float), z.view(float)))


def reconstruct(trace: ObservationTrace, sys: CoupledSystem) -> ReconstructionResult:
    """Recover modal amplitudes from jump samples by least squares.

    Fits sample_j = sum_k b_k e^{i omega_k j delta}, b_k = c_k e^{i omega_k t'}, on the design E
    of the unshifted offsets.  E^H E is the real Gram S / delta, whose eigenpairs, from the pencil
    (S, I) of `bounds._sampled_pencil`, solve the normal equations, then once more for the residual
    y - E b (corrected semi-normal equations); every product with E is an einsum, which no BLAS
    thread splits.  Amplitudes are c over the jump weights.  Fewer samples than exponents, an
    unbounded t' (`bounds._check_shift`), or an S singular by `bounds._singular`, is an error.
    min_singular_value is ||E v|| for the unit eigenvector v of lambda_min(S): sqrt(lambda_min /
    delta) without the digits that the square root of a small eigenvalue loses.
    """
    seq, _, cols, weights = sys._layout
    delta, J, n = trace.grid.delta, trace.grid.J, len(seq)
    if 2 * J + 1 < n:
        raise ValidationError("rank-deficient reconstruction: fewer samples than exponents",
                              details={"samples": 2 * J + 1, "exponents": n})
    vals, vecs, singular, _ = _sampled_pencil(seq.omegas, np.ones(n), trace.grid)
    if singular:
        rank = sum(not _singular(v, vals[-1]) for v in vals.tolist())
        raise ValidationError("rank-deficient reconstruction", details={"min_eig": float(vals[0]) / delta, "rank": rank})
    design, y = _phasors(SamplingGrid(delta, J).times(), seq.omegas), trace.samples

    def solve(r):  # (E^H E)^{-1} E^H r, the vector conjugated rather than the design
        rhs = np.einsum("jk,j->k", design, r.conj()).conj()
        return delta * np.einsum("kn,n->k", vecs, np.einsum("kn,k->n", vecs, rhs) / vals)

    phased = solve(y)
    phased += solve(y - np.einsum("jk,k->j", design, phased))
    coeffs = phased * _phasors(trace.grid.t_shift, seq.omegas).conj()
    scale = _norm(y)
    residual = _norm(np.einsum("jk,k->j", design, phased) - y) / (scale if scale > 0.0 else 1.0)
    # real and imaginary parts divided apart: complex / float as Python divides it
    amps = np.empty(coeffs.shape, dtype=complex)
    amps.real[cols] = coeffs.real / weights
    amps.imag[cols] = coeffs.imag / weights
    found = _with_pairs(sys, amps.reshape(-1, 2))
    return ReconstructionResult(
        left=found.left,
        right=found.right,
        residual=residual,
        coeffs=tuple(complex(c) for c in coeffs),
        min_singular_value=_norm(np.einsum("jk,k->j", design, vecs[:, 0])),
    )
