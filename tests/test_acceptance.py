"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single PASS or FAIL
line; tolerances and budgets are stated inline.  Random draws are seeded,
so reruns are bit-identical.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.integrate import quad

from helpers import (
    admissible_grid,
    block_sequence,
    dense_block_q,
    poisson_delta,
    random_coeffs,
    uniform_disc,
)
from ingham import (
    STRING,
    AugmentedExpSum,
    CertificationError,
    CoupledSystem,
    ExponentSequence,
    ExpSum,
    Mode,
    ObservationTrace,
    SamplingGrid,
    ValidationError,
    WindowKernel,
    band_mask,
    certify_constants,
    continuum_limit_scan,
    convolution_eval,
    extended_frame_constants,
    frame_constants,
    g_transform,
    h_transform,
    haraux_filter,
    initial_data_energy,
    mode_caps,
    observe,
    plan_haraux,
    poisson_sides,
    q_form,
    reconstruct,
    sampled_gram,
    trace_jump_sum,
    verify_observability,
    with_amplitudes,
)

A_IRR = math.sqrt(2.0) / 2.0


@contextmanager
def verdict(say, number: int, text: str):
    try:
        yield
    except BaseException:
        say(f"FAIL: criterion {number} - {text}")
        raise
    say(f"PASS: criterion {number} - {text}")


def test_criterion_01_summation_identity(say):
    with verdict(say, 1, "summation identity on 200 random band-limited sums, both kernels"):
        rng = np.random.default_rng(20260814)
        start = time.perf_counter()
        for i in range(200):
            seq = block_sequence(rng, nmax=12, gamma_range=(1.5, 2.5))
            s = ExpSum(seq, random_coeffs(rng, len(seq), l1=1.0))
            g = seq.gamma
            if i % 2 == 0:
                kernel = WindowKernel("direct", g, 1.0, 1.0)
            else:
                kernel = WindowKernel("inverse", g, 1.0, 1.0, R=1.5 * math.pi / g)
            rep = poisson_sides(s, kernel, poisson_delta(seq), tail_tol=1e-10)
            tol = 1e-10 + 1e-9 * (1.0 + abs(rep.rhs))
            assert abs(rep.lhs - rep.rhs) <= tol
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"budget 5 s exceeded: {elapsed:.2f} s"


def test_criterion_02_two_sided_sandwich(say):
    with verdict(say, 2, "two-sided pencil sandwich on 100 chained sequences x 1000 vectors"):
        rng = np.random.default_rng(20260815)
        start = time.perf_counter()
        done = 0
        attempts = 0
        while done < 100:
            attempts += 1
            assert attempts < 600
            seq = block_sequence(rng, nmax=10, chain_prob=0.6)
            if not seq.classification.a2_leads:
                continue
            assert seq.gamma0 < seq.gamma
            grid = admissible_grid(seq, rng)
            assert grid.J * grid.delta > math.pi / seq.gamma
            rep = frame_constants(seq, grid)
            assert rep.min_eig > 0.0 and not rep.singular
            mask = band_mask(seq, grid.delta)
            gram = sampled_gram(seq, grid, mask)
            qm = dense_block_q(seq, mask)
            n = len(seq)
            x = rng.normal(size=(n, 1000)) + 1j * rng.normal(size=(n, 1000))
            energy = np.einsum("ij,ij->j", x.conj(), gram @ x).real
            qval = np.einsum("ij,ij->j", x.conj(), qm @ x).real
            slack = 1e-10
            assert np.all(rep.c_lower * qval <= energy * (1.0 + slack) + 1e-12)
            assert np.all(energy <= rep.c_upper * qval * (1.0 + slack) + 1e-12)
            done += 1
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"budget 30 s exceeded: {elapsed:.2f} s"


def test_criterion_03_uniform_gap_reduction(say):
    with verdict(say, 3, "uniform integer exponents reduce Q to plain energy; single-exponent constants exact"):
        rng = np.random.default_rng(20260816)
        seq = ExponentSequence(tuple(float(k) for k in range(-3, 4)), 0.5, 0.5)
        cls = seq.classification
        assert cls.a1 == set(range(7)) and not cls.a2_leads
        for _ in range(50):
            x = random_coeffs(rng, 7)
            assert q_form(seq, x) == math.fsum(abs(c) ** 2 for c in x)
        for delta, J in ((0.4, 6), (0.25, 10), (0.7, 3)):
            rep = frame_constants(ExponentSequence((1.3,), 1.0, 1.0), SamplingGrid(delta, J))
            expect = delta * (2 * J + 1)
            assert abs(rep.c_lower - expect) <= 1e-14 * expect
            assert abs(rep.c_upper - expect) <= 1e-14 * expect


def test_criterion_04_band_condition_necessity(say):
    with verdict(say, 4, "out-of-band exponent breaks the identity by more than 1e-3 relative"):
        gamma = 1.0
        delta = math.pi / 2.0
        omega = math.pi / delta - gamma / 4.0  # 1.75, beyond threshold 1.5
        seq = ExponentSequence((-omega, omega), gamma, gamma)
        s = ExpSum(seq, (1.0, 1.0))
        kernel = WindowKernel("direct", gamma, 1.0, 1.0)
        with pytest.raises(ValidationError):
            poisson_sides(s, kernel, delta)
        rep = poisson_sides(s, kernel, delta, tail_tol=1e-12, enforce_band=False)
        assert abs(rep.lhs - rep.rhs) > 1e-3 * abs(rep.rhs)


def _check_direct_properties(kernel):
    g = kernel.gamma
    g0 = float(convolution_eval(kernel, 0.0))
    xs = np.linspace(0.0, 2.0 * g, 10000)
    diffs = g0 - np.asarray(convolution_eval(kernel, xs))
    assert np.all(diffs >= -1e-12)
    assert np.all(diffs <= kernel.alpha * xs**2 + 1e-12)
    assert kernel.alpha >= 1.0
    ts = np.linspace(0.0, 0.5 * math.pi / g, 10000)
    assert np.all(np.asarray(g_transform(kernel, ts)) >= kernel.beta - 1e-12)
    assert kernel.beta > 0.0
    wide = np.linspace(0.0, 80.0 / g, 10000)
    assert np.all(np.asarray(g_transform(kernel, wide)) >= -1e-12)


def _check_inverse_properties(kernel):
    g, big_r = kernel.gamma, kernel.R
    g0 = float(convolution_eval(kernel, 0.0))
    assert g0 > 0.0 and kernel.alpha <= g0
    xs = np.linspace(0.0, g, 10000)[1:]
    diffs = g0 - np.asarray(convolution_eval(kernel, xs))
    assert np.all(diffs > 0.0)
    assert np.all(diffs >= kernel.alpha * xs**2 * (1.0 - 1e-9) - 1e-12)
    ts = np.linspace(0.0, 3.0 * big_r, 10000)
    gv = np.asarray(g_transform(kernel, ts))
    assert np.all(gv <= kernel.beta + 1e-12)
    assert np.all(gv[ts >= big_r] <= 1e-12)


def test_criterion_05_kernel_certification(say):
    with verdict(say, 5, "kernel constants certified on 1e4-point grids; transform matches quadrature to 1e-10"):
        for gamma in (0.5, 1.0, 2.0):
            _check_direct_properties(certify_constants("direct", gamma))
        # the admissible inverse combinations certify; the two combinations
        # with R at or below the support threshold are rejected by name
        for gamma in (0.5, 1.0, 2.0):
            _check_inverse_properties(certify_constants("inverse", gamma, R=1.5 * math.pi / gamma))
        _check_inverse_properties(certify_constants("inverse", 2.0, R=3.0))
        with pytest.raises(CertificationError) as err:
            certify_constants("inverse", 0.5, R=3.0)
        assert "G(0) > 0" in str(err.value)
        with pytest.raises(CertificationError) as err:
            certify_constants("inverse", 1.0, R=3.0)
        assert "G(0) - G(x)" in str(err.value)

        rng = np.random.default_rng(20260817)
        for gamma in (0.5, 1.0, 2.0):
            for t in rng.uniform(-30.0, 30.0, size=34):
                oracle, _ = quad(
                    lambda u: math.cos(t * u) * math.cos(math.pi * u / (2 * gamma)) ** 2,
                    -gamma,
                    gamma,
                    limit=400,
                    epsabs=1e-13,
                    epsrel=1e-13,
                )
                assert abs(h_transform(gamma, float(t)) - oracle) <= 1e-10


def test_criterion_06_augmentation_filter(say):
    with verdict(say, 6, "averaging filter on 100 configurations: annihilation, energy domination, extended constants"):
        rng = np.random.default_rng(20260818)
        start = time.perf_counter()
        usable = 0
        attempts = 0
        while usable < 100:
            attempts += 1
            assert attempts < 1000
            seq = block_sequence(rng, nmax=6)
            grid = admissible_grid(seq, rng)
            delta = grid.delta
            gaps = seq.gaps()
            i = int(np.argmax(gaps))
            omega_prime = 0.5 * (seq.omegas[i] + seq.omegas[i + 1])
            gap_prime = min(abs(w - omega_prime) for w in seq.omegas)
            j_prime = int(math.ceil(2.0 * math.pi / (gap_prime * delta)))
            try:
                plan = plan_haraux(seq, omega_prime, j_prime, delta)
            except ValidationError:
                continue  # wide spans can violate the proximity condition
            assert plan.eps_sup < 1.0

            coeffs = random_coeffs(rng, len(seq))
            aug = AugmentedExpSum(ExpSum(seq, coeffs), omega_prime, uniform_disc(rng))
            y = haraux_filter(aug, plan)

            # annihilation: the time-domain filter output (which physically
            # contains the omega' term) coincides with the omega'-free sum y
            scale = math.fsum(abs(c) for c in coeffs) + abs(aug.x_prime)
            ms = np.arange(-j_prime, j_prime)
            demod = np.exp(-1j * omega_prime * ms * delta)
            for t in np.linspace(-grid.J * delta, grid.J * delta, 5):
                direct = aug.eval(t) - np.mean(demod * aug.eval(t + ms * delta))
                assert abs(complex(y.eval(t)) - direct) <= 1e-12 * scale

            # filtered energy is dominated by four times the input energy on
            # the widened asymmetric sample window
            yv = y.eval(delta * np.arange(-grid.J, grid.J + 1))
            xv = aug.eval(delta * np.arange(-(grid.J + j_prime), grid.J + j_prime))
            lhs = math.fsum(np.abs(yv) ** 2)
            rhs = 4.0 * math.fsum(np.abs(xv) ** 2)
            assert lhs <= rhs * (1.0 + 1e-12)

            ext = extended_frame_constants(seq, grid, plan)
            assert ext.c_lower > 0.0
            assert ext.c_upper <= ext.companions["c4_formula"]
            usable += 1
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"budget 30 s exceeded: {elapsed:.2f} s"


def test_criterion_07_continuum_limit(say):
    with verdict(say, 7, "discrete constants within 1e-3 of continuous ones at J = 1024"):
        seq = ExponentSequence((-3.0, -0.5, 0.3, 2.8, 5.9), 1.3, 0.9)
        rows = continuum_limit_scan(seq, 2.6, [64, 256, 1024])
        assert all(row.active_count == 5 and not row.singular for row in rows)
        assert rows[0].rel_gap > rows[1].rel_gap > rows[2].rel_gap
        assert rows[-1].rel_gap <= 1e-3


def _roundtrip_trials(template, grid, trials, seed, tol):
    rng = np.random.default_rng(seed)
    ratios = []
    for _ in range(trials):
        sys_i = with_amplitudes(template, rng)
        trace = observe(sys_i, grid)
        rec = reconstruct(trace, sys_i)
        truth = sys_i.left + sys_i.right
        found = rec.left + rec.right
        scale = max(max(abs(m.plus), abs(m.minus)) for m in truth)
        assert scale > 0.0
        err = max(
            max(abs(t.plus - f.plus), abs(t.minus - f.minus))
            for t, f in zip(truth, found)
        )
        assert err <= tol * scale
        ratios.append(initial_data_energy(sys_i, 0.05) / trace.energy())
    return ratios


def _full_system(kind, a, delta, gamma=None):
    probe = CoupledSystem(kind, a, gamma=gamma)
    cl, cr = mode_caps(probe, delta)
    left = tuple(Mode(n, 1.0, 1.0) for n in range(1, int(math.floor(cl)) + 1))
    right = tuple(Mode(n, 1.0, 1.0) for n in range(1, int(math.floor(cr)) + 1))
    return CoupledSystem(kind, a, left, right, gamma=gamma)


def test_criterion_08_string_roundtrip(say):
    with verdict(say, 8, "string junction roundtrip to 1e-6 over 100 trials with stable constants"):
        start = time.perf_counter()
        delta, J = 0.2, 8
        template = _full_system(STRING, A_IRR, delta)
        grid = SamplingGrid(delta, J)
        assert J * delta > 2.0 * max(A_IRR, 1.0 - A_IRR)
        ratios = _roundtrip_trials(template, grid, trials=100, seed=20260819, tol=1e-6)
        assert max(ratios) < math.inf
        assert max(ratios) / float(np.median(ratios)) < 1e3
        rep = verify_observability(template, grid, epsilon=0.05, trials=100, seed=0)
        assert not rep.singular
        assert rep.c_empirical <= rep.c_pencil * (1.0 + 1e-9)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"budget 60 s exceeded: {elapsed:.2f} s"


def test_criterion_09_beam_roundtrip(say):
    with verdict(say, 9, "beam junction roundtrip to 1e-6 over 100 trials with stable constants"):
        start = time.perf_counter()
        delta, J, gamma = 0.015, 30, 8.0
        template = _full_system("beam", A_IRR, delta, gamma=gamma)
        grid = SamplingGrid(delta, J)
        assert J * delta > math.pi / gamma
        cl, _ = mode_caps(template, delta)
        assert all(m.n <= cl for m in template.left)
        ratios = _roundtrip_trials(template, grid, trials=100, seed=20260820, tol=1e-6)
        assert max(ratios) < math.inf
        assert max(ratios) / float(np.median(ratios)) < 1e3
        rep = verify_observability(template, grid, epsilon=0.05, trials=100, seed=0)
        assert not rep.singular
        assert rep.c_empirical <= rep.c_pencil * (1.0 + 1e-9)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"budget 60 s exceeded: {elapsed:.2f} s"


def test_criterion_10_failure_detection(say):
    with verdict(say, 10, "deficient pencils report singular with zero lower bound; deficient reconstruction errors out"):
        seq = ExponentSequence((0.0, 3.0, 6.0, 9.0, 12.0), 1.0, 1.0)
        rep = frame_constants(seq, SamplingGrid(0.2, 1))  # 3 samples, 5 exponents
        assert rep.singular is True
        assert rep.c_lower == 0.0

        template = _full_system(STRING, A_IRR, 0.2)
        vrep = verify_observability(
            template, SamplingGrid(0.2, 1), epsilon=0.05, trials=0, enforce_horizon=False
        )
        assert vrep.singular and vrep.c_pencil == math.inf

        grid = SamplingGrid(0.2, 3)  # 7 samples, 8 exponents
        s = trace_jump_sum(template)
        trace = ObservationTrace(grid, tuple(s.eval(grid.times())))
        with pytest.raises(ValidationError):
            reconstruct(trace, template)

        aliased = CoupledSystem(STRING, 0.5, left=(Mode(1, 1.0, 1.0), Mode(3, 0.5, 0.5)))
        agrid = SamplingGrid(0.5, 5)
        atrace = ObservationTrace(agrid, tuple(trace_jump_sum(aliased).eval(agrid.times())))
        with pytest.raises(ValidationError):
            reconstruct(atrace, aliased)
