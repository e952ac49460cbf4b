import cmath
import json
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import bench_accuracy

from ingham import observability
from ingham import (
    BEAM,
    STRING,
    CoupledSystem,
    Mode,
    ObservationTrace,
    SamplingGrid,
    SobolevSpec,
    StructuralError,
    ValidationError,
    assemble_exponents,
    band_mask,
    check_caps,
    initial_data_energy,
    mode_caps,
    observe,
    reconstruct,
    sampled_energy,
    sobolev_norm,
    trace_jump_sum,
    verify_observability,
    with_amplitudes,
)
from ingham.bounds import _gram_from_omegas
from ingham.cli import _sanitize, _system_from, main

A_IRR = math.sqrt(2.0) / 2.0


def full_string(a: float, delta: float, rng=None) -> CoupledSystem:
    """String system with every admissible mode populated."""
    probe = CoupledSystem(STRING, a)
    cl, cr = mode_caps(probe, delta)
    left = tuple(Mode(n, 1.0, 1.0) for n in range(1, int(math.floor(cl)) + 1))
    right = tuple(Mode(n, 1.0, 1.0) for n in range(1, int(math.floor(cr)) + 1))
    sys = CoupledSystem(STRING, a, left, right)
    return with_amplitudes(sys, rng) if rng is not None else sys


def full_beam(a: float, gamma: float, delta: float, rng=None) -> CoupledSystem:
    probe = CoupledSystem(BEAM, a, gamma=gamma)
    cl, cr = mode_caps(probe, delta)
    left = tuple(Mode(n, 1.0, 1.0) for n in range(1, int(math.floor(cl)) + 1))
    right = tuple(Mode(n, 1.0, 1.0) for n in range(1, int(math.floor(cr)) + 1))
    sys = CoupledSystem(BEAM, a, left, right, gamma=gamma)
    return with_amplitudes(sys, rng) if rng is not None else sys


def solution_at(sys: CoupledSystem, x: float, t: float) -> complex:
    """Direct modal superposition, for finite-difference oracles."""
    total = 0.0j
    if x <= sys.a:
        for m in sys.left:
            w = sys.mode_frequency("left", m.n)
            shape = math.sin(m.n * math.pi * x / sys.a)
            total += shape * (m.plus * cmath.exp(1j * w * t) + m.minus * cmath.exp(-1j * w * t))
    else:
        for m in sys.right:
            w = sys.mode_frequency("right", m.n)
            shape = math.sin(m.n * math.pi * (x - sys.a) / (1.0 - sys.a))
            total += shape * (m.plus * cmath.exp(1j * w * t) + m.minus * cmath.exp(-1j * w * t))
    return total


class TestConstruction:
    def test_mode_validation(self):
        with pytest.raises(StructuralError):
            Mode(0)
        with pytest.raises(StructuralError):
            Mode(1, float("nan"))

    def test_system_validation(self):
        with pytest.raises(StructuralError):
            CoupledSystem("membrane", 0.5)
        with pytest.raises(StructuralError):
            CoupledSystem(STRING, 1.5)
        with pytest.raises(StructuralError):
            CoupledSystem(STRING, 0.4, left=(Mode(1), Mode(1)))
        with pytest.raises(StructuralError):
            CoupledSystem(BEAM, 0.4, gamma=-2.0)

    def test_default_gap_parameter(self):
        sys = CoupledSystem(STRING, 0.25)
        assert sys.gap_parameter() == pytest.approx(2.0 * math.pi / 3.0)
        assert CoupledSystem(STRING, 0.5).gap_parameter() == pytest.approx(math.pi)

    def test_beam_needs_gamma(self):
        with pytest.raises(ValidationError):
            CoupledSystem(BEAM, 0.4).gap_parameter()
        assert CoupledSystem(BEAM, 0.4, gamma=6.0).gap_parameter() == 6.0

    def test_frequencies(self):
        sys = CoupledSystem(STRING, 0.25)
        assert sys.mode_frequency("left", 2) == pytest.approx(8.0 * math.pi)
        assert sys.mode_frequency("right", 3) == pytest.approx(4.0 * math.pi)
        beam = CoupledSystem(BEAM, 0.25, gamma=6.0)
        assert beam.mode_frequency("left", 2) == pytest.approx((8.0 * math.pi) ** 2)
        assert beam.spatial_eigenvalue("left", 2) == pytest.approx((8.0 * math.pi) ** 2)

    def test_serialization_roundtrip(self, rng):
        sys = full_string(A_IRR, 0.2, rng)
        assert sys.gamma is None and "gamma" not in _sanitize(sys)
        back = _system_from(_sanitize(sys))
        assert back == sys
        beam = full_beam(A_IRR, 8.0, 0.015, rng)
        assert _system_from(_sanitize(beam)) == beam


class TestModeCaps:
    def test_string_caps_value(self):
        sys = CoupledSystem(STRING, A_IRR)
        cl, cr = mode_caps(sys, 0.2)
        assert cl == pytest.approx(A_IRR / 0.2 - 0.25, rel=1e-12)
        assert cr == pytest.approx((1 - A_IRR) / 0.2 - 0.25 * (1 - A_IRR) / A_IRR, rel=1e-12)
        assert math.floor(cl) == 3 and math.floor(cr) == 1

    def test_beam_caps_value(self):
        sys = CoupledSystem(BEAM, A_IRR, gamma=8.0)
        cl, cr = mode_caps(sys, 0.015)
        root = math.sqrt(math.pi / 0.015 - 4.0)
        assert cl == pytest.approx(A_IRR / math.pi * root, rel=1e-12)
        assert math.floor(cl) == 3 and math.floor(cr) == 1

    def test_beam_caps_empty_when_step_too_coarse(self):
        sys = CoupledSystem(BEAM, 0.5, gamma=8.0)
        assert mode_caps(sys, 1.0) == (0.0, 0.0)

    def test_caps_equal_band_condition(self):
        # a mode index within the cap iff its frequency is inside the band
        for kind, gamma, delta in ((STRING, None, 0.11), (BEAM, 8.0, 0.02)):
            sys = (
                CoupledSystem(STRING, A_IRR)
                if kind == STRING
                else CoupledSystem(BEAM, A_IRR, gamma=gamma)
            )
            cl, cr = mode_caps(sys, delta)
            threshold = math.pi / delta - sys.gap_parameter() / 2.0
            for side, cap in (("left", cl), ("right", cr)):
                for n in range(1, int(cap) + 3):
                    inside_cap = n <= cap
                    inside_band = sys.mode_frequency(side, n) <= threshold
                    assert inside_cap == inside_band

    def test_check_caps_offenders(self):
        sys = CoupledSystem(STRING, A_IRR, left=(Mode(5, 1.0),))
        with pytest.raises(ValidationError) as err:
            check_caps(sys, 0.2)
        assert ("left", 5) in err.value.details["offending_modes"]

    def test_check_caps_beam_coarse_step(self):
        sys = CoupledSystem(BEAM, 0.5, left=(Mode(1, 1.0),), gamma=8.0)
        with pytest.raises(ValidationError) as err:
            check_caps(sys, 0.5)  # pi/gamma = 0.3927 < 0.5
        assert "pi/gamma" in str(err.value) or "delta" in str(err.value)

    def test_bad_delta(self):
        with pytest.raises(StructuralError):
            mode_caps(CoupledSystem(STRING, 0.5), -0.1)


class TestAssembleExponents:
    def test_merged_list(self):
        sys = CoupledSystem(
            STRING, A_IRR,
            left=(Mode(1, 1.0), Mode(2, 1.0), Mode(3, 1.0)),
            right=(Mode(1, 1.0), Mode(2, 1.0), Mode(3, 1.0)),
        )
        seq, tags = assemble_exponents(sys)
        assert len(seq) == 12 and len(tags) == 12
        assert list(seq.omegas) == sorted(seq.omegas)
        for w, tag in zip(seq.omegas, tags):
            assert w == pytest.approx(tag.sign * sys.mode_frequency(tag.side, tag.n))
        # +- symmetry of the merged list
        assert np.allclose(np.array(seq.omegas) + np.array(seq.omegas)[::-1], 0.0)

    def test_rational_junction_resonant(self):
        sys = CoupledSystem(STRING, 0.5, left=(Mode(1, 1.0),), right=(Mode(1, 1.0),))
        with pytest.raises(ValidationError) as err:
            assemble_exponents(sys)
        assert "resonant" in str(err.value)

    @pytest.mark.parametrize("a", [A_IRR, 1.0 / math.sqrt(3.0), 0.5 * (math.sqrt(5.0) - 1.0)])
    @pytest.mark.parametrize("delta", [0.2, 0.1, 0.05])
    def test_full_cap_systems_valid(self, a, delta):
        # merged lists at the caps satisfy the weakened gap condition for
        # quadratic irrational junction points
        sys = full_string(a, delta)
        seq, _ = assemble_exponents(sys)
        assert seq.gamma <= CoupledSystem(STRING, a).gap_parameter()
        assert seq.gamma == pytest.approx(CoupledSystem(STRING, a).gap_parameter(), rel=1e-12)

    def test_gamma_hint_override(self):
        # an explicit system gamma replaces the string formula
        sys = CoupledSystem(STRING, A_IRR, left=(Mode(1, 1.0),), gamma=1.0)
        seq, _ = assemble_exponents(sys)
        assert seq.gamma == 1.0
        assert CoupledSystem(STRING, A_IRR).gap_parameter() != 1.0

    def test_no_modes(self):
        with pytest.raises(ValidationError):
            assemble_exponents(CoupledSystem(STRING, 0.4))

    def test_beam_assembly(self):
        sys = full_beam(A_IRR, 8.0, 0.015)
        seq, tags = assemble_exponents(sys)
        assert len(seq) == 8
        assert seq.gamma == 8.0


class TestTraceJump:
    def test_single_left_mode_weights(self):
        sys = CoupledSystem(STRING, 0.5, left=(Mode(1, 2.0, 3.0),))
        s = trace_jump_sum(sys)
        # d/dx sin(2 pi x) at x = 1/2 is 2 pi cos(pi) = -2 pi
        assert list(s.seq.omegas) == pytest.approx([-2.0 * math.pi, 2.0 * math.pi])
        assert s.coeffs[0] == pytest.approx(-2.0 * math.pi * 3.0)  # minus branch
        assert s.coeffs[1] == pytest.approx(-2.0 * math.pi * 2.0)

    def test_single_right_mode_weights(self):
        sys = CoupledSystem(STRING, 0.25, right=(Mode(1, 1.0, 0.0),))
        s = trace_jump_sum(sys)
        w = -math.pi / 0.75
        assert s.coeffs[1] == pytest.approx(w)

    def test_finite_difference_oracle_string(self, rng):
        sys = full_string(A_IRR, 0.25, rng)
        s = trace_jump_sum(sys)
        h = 1e-7
        for t in rng.uniform(-1.0, 1.0, size=4):
            # u vanishes at the junction from both sides, so the one-sided
            # derivatives collapse to -u(a -+ h)/h
            fd = -(solution_at(sys, sys.a - h, t) + solution_at(sys, sys.a + h, t)) / h
            assert complex(s.eval(t)) == pytest.approx(fd, rel=2e-4, abs=1e-6)

    def test_finite_difference_oracle_beam(self, rng):
        sys = full_beam(A_IRR, 8.0, 0.02, rng)
        s = trace_jump_sum(sys)
        h = 1e-7
        for t in rng.uniform(-0.2, 0.2, size=3):
            fd = -(solution_at(sys, sys.a - h, t) + solution_at(sys, sys.a + h, t)) / h
            assert complex(s.eval(t)) == pytest.approx(fd, rel=2e-4, abs=1e-6)

    def test_junction_value_vanishes(self, rng):
        sys = full_string(A_IRR, 0.25, rng)
        assert abs(solution_at(sys, sys.a, 0.37)) < 1e-12


class TestObserve:
    def test_energy_matches_sampled_energy(self, rng):
        # one summation rule for the sampled energy: the two agree to the bit
        for J in (8, 50, 300):
            grid = SamplingGrid(0.2, J)
            for _ in range(50):
                sys = full_string(A_IRR, 0.2, rng)
                assert observe(sys, grid).energy() == sampled_energy(trace_jump_sum(sys), grid)

    @pytest.mark.parametrize("t_shift", [0.37, -2.5])
    def test_shifted_trace_is_the_sum_at_the_shifted_times(self, rng, t_shift):
        # the jump sum phased by e^{i w t'} at the offsets j delta is the sum at t' + j delta
        grid = SamplingGrid(0.2, 50, t_shift)
        for _ in range(10):
            sys = full_string(A_IRR, 0.2, rng)
            trace = observe(sys, grid)
            direct = trace_jump_sum(sys).eval(grid.times())
            assert np.max(np.abs(trace.samples - direct)) <= 1e-13 * np.max(np.abs(direct))
            assert trace.energy() == pytest.approx(sampled_energy(trace_jump_sum(sys), grid), rel=1e-13)

    def test_trace_holds_one_complex_per_sample(self, rng):
        sys = full_string(A_IRR, 0.2, rng)
        grid = SamplingGrid(0.2, 10**5)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            trace = observe(sys, grid)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held <= 24 * (2 * grid.J + 1)  # a tuple of Python complexes holds 40
        assert trace.samples.nbytes == 16 * (2 * grid.J + 1)

    def test_peak_per_sample(self, rng):
        # the 8 exponents are +-omega and the grid is unshifted, so only a
        # quarter of the phasors is exponentiated, with no full-size argument
        # array: 128 bytes of phasors per sample plus about 56 of work
        sys = full_string(A_IRR, 0.2, rng)
        grid = SamplingGrid(0.2, 10**5)
        assert len(assemble_exponents(sys)[0]) == 8
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            observe(sys, grid)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 200 * (2 * grid.J + 1)  # the full outer product peaks at 264

    def test_samples_are_a_read_only_copy(self):
        grid = SamplingGrid(0.5, 1)
        source = np.array([1.0, 2.0j, 3.0])
        values = [1.0, 2.0j, 3.0]
        for given in (source, values):
            trace = ObservationTrace(grid, given)
            assert trace.samples.dtype == np.complex128 and not trace.samples.flags.writeable
            with pytest.raises(ValueError):
                trace.samples[0] = 5.0
            given[1] = 7.0
            assert trace.samples.tolist() == [1.0, 2.0j, 3.0]
        assert source.flags.writeable

    def test_caps_enforced(self, rng):
        sys = full_string(A_IRR, 0.1, rng)  # more modes than delta=0.3 allows
        with pytest.raises(ValidationError):
            observe(sys, SamplingGrid(0.3, 8))

    def test_trace_rows(self):
        grid = SamplingGrid(0.5, 1)
        trace = ObservationTrace(grid, (1.0, 2.0j, 3.0))
        rows = list(trace.rows())
        assert rows[0] == (-1, -0.5, 1.0, 0.0)
        assert rows[1] == (0, 0.0, 0.0, 2.0)
        assert rows[2] == (1, 0.5, 3.0, 0.0)

    def test_trace_length_checked(self):
        with pytest.raises(StructuralError):
            ObservationTrace(SamplingGrid(0.5, 2), (1.0, 2.0))
        with pytest.raises(StructuralError, match="trace length must be 2J\\+1"):
            ObservationTrace(SamplingGrid(0.5, 1), np.zeros((3, 1), dtype=complex))

    @pytest.mark.parametrize("kind", [STRING, BEAM])
    def test_unallocatable_trace_refused_by_name(self, kind, rng):
        # 2J+1 = 2^54 + 1 samples: numpy refuses the array at once, on any host
        sys = full_string(A_IRR, 0.2, rng) if kind == STRING else full_beam(A_IRR, 8.0, 0.015, rng)
        grid = SamplingGrid(0.2 if kind == STRING else 0.015, 2**53)
        for call in (lambda: observe(sys, grid), lambda: verify_observability(sys, grid, 0.05, 0)):
            with pytest.raises(ValidationError, match="observation trace needs more samples than memory allows") as err:
                call()
            assert err.value.details == {"samples": 2**54 + 1}

    def test_band_mask_fully_active(self, rng):
        # caps guarantee the merged exponents sit inside the band
        sys = full_string(A_IRR, 0.2, rng)
        seq, _ = assemble_exponents(sys)
        mask = band_mask(seq, 0.2)
        assert mask.active_indices() == tuple(range(len(seq)))


class TestSobolevNorms:
    def test_single_mode_s0(self):
        sys = CoupledSystem(STRING, 0.4, left=(Mode(1, 1.0, 0.0),))
        # u0 coefficient is plus+minus = 1, weight lam^0 = 1
        assert sobolev_norm(sys, SobolevSpec(0.0), "u0") == pytest.approx(0.2)

    def test_single_mode_u1_string(self):
        sys = CoupledSystem(STRING, 0.4, left=(Mode(1, 0.5, -0.5),))
        # strings: omega^2 = lambda, so s = -1 cancels the time factor
        expect = 0.5 * 0.4 * abs(0.5 - (-0.5)) ** 2
        assert sobolev_norm(sys, SobolevSpec(-1.0), "u1") == pytest.approx(expect, rel=1e-12)

    def test_u1_beam_weighting(self):
        sys = CoupledSystem(BEAM, 0.4, left=(Mode(2, 1.0, 0.0),), gamma=8.0)
        lam = sys.spatial_eigenvalue("left", 2)
        omega = sys.mode_frequency("left", 2)
        expect = 0.5 * 0.4 * lam ** (-1.5) * omega**2
        assert sobolev_norm(sys, SobolevSpec(-1.5), "u1") == pytest.approx(expect, rel=1e-12)

    def test_zero_data(self):
        sys = CoupledSystem(STRING, 0.4, left=(Mode(1, 0.0, 0.0),))
        assert sobolev_norm(sys, SobolevSpec(0.5), "u0") == 0.0
        assert sobolev_norm(sys, SobolevSpec(0.5), "u1") == 0.0

    def test_additive_across_sides(self, rng):
        sys = full_string(A_IRR, 0.2, rng)
        only_left = CoupledSystem(STRING, sys.a, sys.left, ())
        only_right = CoupledSystem(STRING, sys.a, (), sys.right)
        spec = SobolevSpec(-0.75)
        assert sobolev_norm(sys, spec, "u0") == pytest.approx(
            sobolev_norm(only_left, spec, "u0") + sobolev_norm(only_right, spec, "u0"), rel=1e-14
        )

    def test_invalid_which(self):
        with pytest.raises(StructuralError):
            sobolev_norm(CoupledSystem(STRING, 0.4, left=(Mode(1, 1.0),)), SobolevSpec(0.0), "u2")

    def test_overflowing_weight_rejected(self):
        sys = CoupledSystem(STRING, 0.4, left=(Mode(1, 1.0),))
        with pytest.raises(ValidationError):
            sobolev_norm(sys, SobolevSpec(400.0), "u0")

    def test_initial_data_energy_composition(self, rng):
        eps = 0.05
        s = full_string(A_IRR, 0.2, rng)
        expect = sobolev_norm(s, SobolevSpec(-eps), "u0") + sobolev_norm(
            s, SobolevSpec(-1.0 - eps), "u1"
        )
        assert initial_data_energy(s, eps) == pytest.approx(expect, rel=1e-14)
        b = full_beam(A_IRR, 8.0, 0.015, rng)
        expect_b = sobolev_norm(b, SobolevSpec(1.0 - eps), "u0") + sobolev_norm(
            b, SobolevSpec(-1.0 - eps), "u1"
        )
        assert initial_data_energy(b, eps) == pytest.approx(expect_b, rel=1e-14)


class TestWithAmplitudes:
    def test_layout_preserved_and_disc(self):
        rng = np.random.default_rng(7)
        sys = full_string(A_IRR, 0.2)
        fresh = with_amplitudes(sys, rng)
        assert [m.n for m in fresh.left] == [m.n for m in sys.left]
        assert [m.n for m in fresh.right] == [m.n for m in sys.right]
        for m in fresh.left + fresh.right:
            assert abs(m.plus) <= 1.0 and abs(m.minus) <= 1.0
        again = with_amplitudes(sys, np.random.default_rng(7))
        assert again == fresh

    def test_computed_layout_shared(self):
        sys = full_string(A_IRR, 0.2)
        seq, tags, cols, weights = sys._layout
        trial = with_amplitudes(sys, np.random.default_rng(7))
        assert "_layout" in trial.__dict__ and trial._layout is sys._layout
        # the shared layout is the one the trial would assemble itself
        fresh_seq, fresh_tags = assemble_exponents(trial)
        assert (fresh_seq, fresh_tags) == (seq, tags)
        slot = {(side, m.n): k for k, (side, m) in enumerate(observability._modes(trial))}
        assert cols.tolist() == [2 * slot[t.side, t.n] + (t.sign < 0) for t in fresh_tags]
        assert weights.tolist() == [trial.jump_weight(t.side, t.n) for t in fresh_tags]

    def test_no_layout_computed_for_the_trial(self):
        sys = full_string(A_IRR, 0.2)
        assert "_layout" not in with_amplitudes(sys, np.random.default_rng(7)).__dict__

    def test_resonant_system_still_drawn(self):
        sys = CoupledSystem(STRING, 0.5, left=(Mode(1, 1.0),), right=(Mode(1, 1.0),))
        trial = with_amplitudes(sys, np.random.default_rng(7))
        assert [m.n for m in trial.left + trial.right] == [1, 1]
        with pytest.raises(ValidationError, match="resonant"):
            trial._layout

    def test_shared_layout_read_only(self):
        _, _, cols, weights = full_string(A_IRR, 0.2)._layout
        for shared in (cols, weights):
            with pytest.raises(ValueError, match="read-only"):
                shared[0] = 0


class TestVerifyObservability:
    def string_instance(self, rng=None):
        return full_string(A_IRR, 0.2, rng), SamplingGrid(0.2, 8)

    def test_string_report(self):
        sys, grid = self.string_instance()
        rep = verify_observability(sys, grid, epsilon=0.05, trials=50, seed=3)
        assert not rep.singular and rep.horizon_ok
        assert rep.exponent_count == 8
        assert 0.0 < rep.c_empirical < math.inf
        assert rep.c_empirical <= rep.c_pencil * (1.0 + 1e-9)
        assert rep.c_empirical / rep.ratio_median < 1e3

    def test_pencil_bounds_every_ratio(self):
        sys, grid = self.string_instance()
        rep = verify_observability(sys, grid, epsilon=0.05, trials=0)
        rng = np.random.default_rng(11)
        for _ in range(40):
            trial = with_amplitudes(sys, rng)
            ratio = initial_data_energy(trial, 0.05) / observe(trial, grid).energy()
            assert ratio <= rep.c_pencil * (1.0 + 1e-9)

    @given(st.sampled_from([STRING, BEAM]), st.floats(0.3, 0.7), st.floats(0.01, 1.0),
           st.floats(-1e3, 1e3), st.integers(0, 2**32 - 1))
    def test_pencil_bounds_every_trial(self, kind, a, eps, t_shift, seed):
        # C_pencil = 1/lambda_min(S, N) bounds the ratio of every trial, for any modes within
        # mode_caps and at any shift
        rng = np.random.default_rng(seed)
        delta = 0.2 if kind == STRING else 0.015
        probe = CoupledSystem(kind, a, gamma=8.0 if kind == BEAM else None)

        def modes(cap):
            picked = [n for n in range(1, int(math.floor(cap)) + 1) if rng.random() < 0.5]
            return tuple(Mode(n) for n in picked or [1])

        sys = CoupledSystem(kind, a, *map(modes, mode_caps(probe, delta)), gamma=probe.gamma)
        try:
            rep = verify_observability(sys, SamplingGrid(delta, 30, t_shift), eps, trials=20, seed=seed,
                                       enforce_horizon=False)
        except ValidationError:  # a resonant a, or a beam spectrum that breaks the gap condition
            assume(False)
        assert rep.c_empirical <= rep.c_pencil * (1.0 + 1e-9)

    @given(st.sampled_from([STRING, BEAM]), st.floats(0.3, 0.7), st.floats(0.01, 0.9), st.integers(0, 2**32 - 1))
    def test_pencil_weights_are_the_energy(self, kind, a, eps, seed):
        # N = diag(nu) of the pencil is the initial-data energy in the coefficients c of the
        # jump sum: sum nu |c|^2, the + and - branches decoupled by the parallelogram identity
        rng = np.random.default_rng(seed)
        sys = full_string(a, 0.2, rng) if kind == STRING else full_beam(a, 8.0, 0.015, rng)
        try:
            nu = np.array(observability._pencil_weights(sys, eps))
        except ValidationError:  # a resonant a, or a beam spectrum that breaks the gap condition
            assume(False)
        c = np.array(trace_jump_sum(sys).coeffs)
        energy = initial_data_energy(sys, eps)
        assert abs(energy - math.fsum(nu * np.abs(c) ** 2)) <= 1e-13 * energy

    def test_t_shift_past_the_span_refused(self):
        # the junction's pencil is `bounds._sampled_pencil`, which refuses a t' whose
        # product with the span of the frequencies overflows, with no numpy warning
        sys, grid = self.string_instance()
        with pytest.raises(ValidationError, match="^t_shift times the span") as err:
            verify_observability(sys, SamplingGrid(grid.delta, grid.J, 1e308), epsilon=0.05, trials=0)
        assert err.value.details == {"t_shift": 1e308}

    def test_trials_zero(self):
        sys, grid = self.string_instance()
        rep = verify_observability(sys, grid, epsilon=0.05, trials=0)
        assert rep.trials == 0
        assert rep.c_empirical == rep.c_pencil
        assert rep.ratio_median == 0.0

    def test_beam_report(self):
        sys = full_beam(A_IRR, 8.0, 0.015)
        grid = SamplingGrid(0.015, 30)
        rep = verify_observability(sys, grid, epsilon=0.05, trials=30, seed=5)
        assert not rep.singular and rep.horizon_ok
        assert rep.exponent_count == 8
        assert rep.c_empirical <= rep.c_pencil * (1.0 + 1e-9)

    def test_horizon_enforced(self):
        sys, _ = self.string_instance()
        short = SamplingGrid(0.2, 5)  # J delta = 1.0 < 2 max(a, 1-a) = 1.414
        with pytest.raises(ValidationError) as err:
            verify_observability(sys, short, epsilon=0.05, trials=0)
        assert "horizon" in str(err.value)
        rep = verify_observability(sys, short, epsilon=0.05, trials=0, enforce_horizon=False)
        assert not rep.horizon_ok

    def test_sample_deficient_singular(self):
        sys, _ = self.string_instance()
        tiny = SamplingGrid(0.2, 1)  # 3 samples vs 8 exponents
        rep = verify_observability(sys, tiny, epsilon=0.05, trials=0, enforce_horizon=False)
        assert rep.singular
        assert rep.c_pencil == math.inf

    def test_bad_arguments(self):
        sys, grid = self.string_instance()
        with pytest.raises(StructuralError):
            verify_observability(sys, grid, epsilon=0.0, trials=1)
        with pytest.raises(StructuralError):
            verify_observability(sys, grid, epsilon=0.1, trials=-1)

    # 100 trials take one chunk of observability._TRIAL_CHUNK, 193 a full chunk
    # and part of another, the last three full chunks and one trial more
    @pytest.mark.parametrize("trials", [1, 100, 193, 3 * observability._TRIAL_CHUNK + 1])
    @pytest.mark.parametrize(
        "sys, grid",
        [
            (full_string(A_IRR, 0.2), SamplingGrid(0.2, 8)),
            (full_string(A_IRR, 0.05), SamplingGrid(0.05, 29)),
            (full_beam(A_IRR, 8.0, 0.015), SamplingGrid(0.015, 30)),
            # a nonzero t_shift tells the phase e^{i w t'} from its time-reversed conjugate
            (full_string(A_IRR, 0.05), SamplingGrid(0.05, 29, 0.37)),
            (full_beam(A_IRR, 8.0, 0.015), SamplingGrid(0.015, 30, -1.9)),
        ],
        ids=["string-8", "string-36", "beam-8", "string-36-shifted", "beam-8-shifted"],
    )
    def test_batch_matches_per_trial_loop(self, sys, grid, trials):
        rng = np.random.default_rng(17)
        ratios = []
        for _ in range(trials):
            trial = with_amplitudes(sys, rng)
            num = initial_data_energy(trial, 0.05)
            den = observe(trial, grid).energy()
            ratios.append(math.inf if den <= 0.0 else num / den)
        rep = verify_observability(sys, grid, epsilon=0.05, trials=trials, seed=17)
        assert rep.exponent_count == len(assemble_exponents(sys)[0])
        assert rep.c_empirical == pytest.approx(max(ratios), rel=1e-13)
        assert rep.ratio_median == pytest.approx(float(np.median(ratios)), rel=1e-13)

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    @pytest.mark.parametrize(
        "sys, grid",
        [
            (full_string(A_IRR, 0.05), SamplingGrid(0.05, 29, 0.37)),
            (full_beam(A_IRR, 8.0, 0.015), SamplingGrid(0.015, 30, -1.9)),
        ],
        ids=["string-36-shifted", "beam-8-shifted"],
    )
    def test_chunk_size_changes_no_bit(self, monkeypatch, sys, grid, chunk):
        default = verify_observability(sys, grid, epsilon=0.05, trials=100, seed=17)
        monkeypatch.setattr(observability, "_TRIAL_CHUNK", chunk)
        rep = verify_observability(sys, grid, epsilon=0.05, trials=100, seed=17)
        got, expect = (rep.c_empirical, rep.ratio_median), (default.c_empirical, default.ratio_median)
        if chunk > 1:
            assert got == expect
        else:
            # a one-row chunk's product with the Gram takes BLAS's matrix-vector
            # kernel, which rounds some ratios a last bit apart from the
            # matrix-matrix kernel of every longer chunk
            assert got == pytest.approx(expect, rel=4 * np.finfo(float).eps)

    @pytest.mark.parametrize("fill", [0.0, -1.0, math.nan])
    def test_ratio_inf_where_energy_not_positive(self, fill):
        # a Gram of zeros, of -1 or of NaN makes every sampled energy 0, -|sum c|^2 or NaN
        sys = full_string(A_IRR, 0.2)
        n = len(sys._layout[0])
        ratios = observability._trial_ratios(sys, np.full((n, n), fill), 0.0, 0.05, 5, 3)
        assert ratios.tolist() == [math.inf] * 5

    @pytest.mark.parametrize(
        "values",
        [
            [3.0],
            [2.0, 1.0],
            [0.1, 0.7, 0.3, 1e300, 0.2],
            [0.1, 0.7, 0.3, 0.9, 0.2, 0.4],
            [1.7976931348623157e308, 1.7976931348623157e308],
            [1.0, math.inf, 2.0],
            [1.0, math.inf],
            [math.inf, math.inf, 0.5, 3.0],
            [1.0, math.nan, 2.0],
            [math.nan, 1.0],
            [math.inf, math.nan],
        ],
    )
    def test_median_is_numpys(self, values):
        x = np.array(values)
        with np.errstate(over="ignore"):  # np.mean warns where the middle two sum past the double range
            expect = float(np.median(x))
        got = observability._median(x)
        assert type(got) is float
        assert got == expect or (math.isnan(got) and math.isnan(expect))

    def test_median_is_numpys_on_random_lengths(self):
        rng = np.random.default_rng(5)
        for n in range(1, 60):
            x = np.exp(rng.normal(size=n) * 20.0)
            assert observability._median(x) == float(np.median(x))

    def test_witness_disagreement_raises(self, monkeypatch):
        sys, grid = self.string_instance()
        honest = observability.initial_data_energy
        monkeypatch.setattr(
            observability, "initial_data_energy", lambda s, eps: (1.0 + 1e-9) * honest(s, eps)
        )
        with pytest.raises(StructuralError, match="trial 0"):
            verify_observability(sys, grid, epsilon=0.05, trials=5)
        rep = verify_observability(sys, grid, epsilon=0.05, trials=0)
        assert rep.c_empirical == rep.c_pencil

    @pytest.mark.parametrize("trials", [2.5, 3.0, True, "3", None])
    def test_non_integer_trials(self, trials):
        sys, grid = self.string_instance()
        with pytest.raises(StructuralError, match="trials"):
            verify_observability(sys, grid, epsilon=0.05, trials=trials)

    def test_numpy_integer_trials(self):
        sys, grid = self.string_instance()
        rep = verify_observability(sys, grid, epsilon=0.05, trials=np.int64(3))
        assert rep.trials == 3 and type(rep.trials) is int

    def test_report_dict(self):
        sys, grid = self.string_instance()
        rep = verify_observability(sys, grid, epsilon=0.05, trials=3)
        d = _sanitize(rep)
        assert d["kind"] == STRING and d["trials"] == 3
        assert isinstance(d["diagnostics"], list)


ITEM_14 = "ROADMAP item 14: lambda_min(S, N) carries eps ||N^{-1/2} S N^{-1/2}||"


class TestPencilOracle:
    """c_pencil within 1e-12 of `tests/bench_accuracy.py`'s reference, a DPS-digit pencil on the
    same doubles.  Two triggers of item 14 lose it: a close cross-side pair (`_junction(e)`), and
    a graded N = diag(nu) at large epsilon (`_graded`, the `string` golden)."""

    @pytest.mark.parametrize(
        "cfg",
        [
            pytest.param(bench_accuracy._junction(1e-3), id="junction-e=1e-3"),
            pytest.param(bench_accuracy._junction(1e-5), id="junction-e=1e-5",
                         marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=ITEM_14)),
            pytest.param(bench_accuracy._junction(1e-7), id="junction-e=1e-7",
                         marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=ITEM_14)),
            pytest.param(bench_accuracy._graded(0.05), id="golden-epsilon=0.05"),
            pytest.param(bench_accuracy._graded(8.0), id="golden-epsilon=8",
                         marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=ITEM_14)),
        ],
    )
    def test_c_pencil_matches_reference(self, cfg):
        sys = _system_from(dict(cfg, kind=STRING))
        rep = verify_observability(sys, SamplingGrid(cfg["delta"], cfg["J"]), cfg["epsilon"], trials=0)
        with mp.workdps(bench_accuracy.DPS):
            reference = bench_accuracy.references("string", cfg)["c_pencil"]
            assert abs(mp.mpf(rep.c_pencil) - reference) <= mp.mpf(10) ** -12 * reference

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=ITEM_14)
    def test_graded_golden_exits_zero(self, tmp_path):
        # epsilon = 10: nu spans about 3^22, and the residual gate refuses the pencil (exit 1)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(bench_accuracy._graded(10.0)))
        assert main(["string", "--input", str(path), "--output", str(tmp_path / "out.json")]) == 0


class TestReconstruct:
    def test_roundtrip_string(self, rng):
        sys = full_string(A_IRR, 0.2, rng)
        grid = SamplingGrid(0.2, 8)
        trace = observe(sys, grid)
        result = reconstruct(trace, sys)
        assert result.residual < 1e-12
        assert result.min_singular_value > 0.0
        for got, want in zip(result.left + result.right, sys.left + sys.right):
            assert got.n == want.n
            assert got.plus == pytest.approx(want.plus, abs=1e-10)
            assert got.minus == pytest.approx(want.minus, abs=1e-10)

    def test_roundtrip_beam(self, rng):
        sys = full_beam(A_IRR, 8.0, 0.015, rng)
        grid = SamplingGrid(0.015, 30)
        result = reconstruct(observe(sys, grid), sys)
        for got, want in zip(result.left + result.right, sys.left + sys.right):
            assert got.plus == pytest.approx(want.plus, abs=1e-9)
            assert got.minus == pytest.approx(want.minus, abs=1e-9)

    def test_system_rebuild(self, rng):
        sys = full_string(A_IRR, 0.2, rng)
        grid = SamplingGrid(0.2, 8)
        rebuilt = reconstruct(observe(sys, grid), sys).system(sys)
        assert rebuilt.kind == sys.kind and rebuilt.a == sys.a
        trace_a = observe(sys, grid)
        trace_b = observe(rebuilt, grid)
        assert np.allclose(trace_a.samples, trace_b.samples, atol=1e-9)

    def test_noise_shows_in_residual(self, rng):
        sys = full_string(A_IRR, 0.2, rng)
        grid = SamplingGrid(0.2, 10)
        trace = observe(sys, grid)
        noise = 1e-3 * (rng.normal(size=21) + 1j * rng.normal(size=21))
        noisy = ObservationTrace(grid, tuple(np.asarray(trace.samples) + noise))
        result = reconstruct(noisy, sys)
        assert 0.0 < result.residual < 1e-2
        for got, want in zip(result.left, sys.left):
            assert got.plus == pytest.approx(want.plus, abs=0.05)

    def test_fewer_samples_than_exponents(self, rng):
        sys = full_string(A_IRR, 0.2, rng)
        grid = SamplingGrid(0.2, 3)  # 7 samples vs 8 exponents
        trace = ObservationTrace(grid, tuple(trace_jump_sum(sys).eval(grid.times())))
        with pytest.raises(ValidationError) as err:
            reconstruct(trace, sys)
        assert "fewer samples" in str(err.value)

    @pytest.mark.parametrize(
        "a, delta, J, left, right, rank, positive",
        [
            (0.5, 0.5, 5, (1, 3), (), 1, False),
            (0.5, 0.5, 6, (1, 2), (), 2, True),
            (0.5, 0.25, 4, (1,), (2,), 3, True),
            (0.5, 0.2, 6, (1, 3), (2,), 4, True),
        ],
        ids=["four-alike", "two-pairs", "cross-side", "six-of-four"],
    )
    def test_aliased_exponents_rank_deficient(self, a, delta, J, left, right, rank, positive):
        # frequencies a multiple of 2 pi/delta apart give identical design columns
        # despite enough samples.  Where the Gram's zero eigenvalue comes out of the
        # eigensolver positive, its square root is about 1e-8 of the largest singular
        # value: a rule of 1e-10 on singular values would accept the design, and the
        # refusal is the pencils' rule on the eigenvalue ratio
        sys = CoupledSystem(STRING, a, left=tuple(Mode(n, 1.0, 0.5) for n in left),
                            right=tuple(Mode(n, 0.5, 1.0) for n in right))
        grid = SamplingGrid(delta, J)
        trace = ObservationTrace(grid, tuple(trace_jump_sum(sys).eval(grid.times())))
        assert 2 * J + 1 >= len(sys._layout[0])
        with pytest.raises(ValidationError, match="^rank-deficient reconstruction$") as err:
            reconstruct(trace, sys)
        assert err.value.details["rank"] == rank
        min_eig = err.value.details["min_eig"]
        assert (min_eig > 0.0) == positive
        if positive:
            largest = np.linalg.eigvalsh(_gram_from_omegas(sys._layout[0].omegas, delta, J))[-1] / delta
            assert 1e-10 < math.sqrt(min_eig / largest) < 1e-7


class TestShift:
    """The grid's shift t' is a unit phase on each coefficient, never a sample time."""

    @given(st.sampled_from([STRING, BEAM]), st.floats(0.3, 0.7), st.integers(0, 2**32 - 1))
    def test_pencil_and_round_trip_do_not_see_the_shift(self, kind, a, seed):
        # the pencil takes the real unshifted Gram and the fit the unshifted design, so
        # c_pencil, min_eig and min_singular_value are the same doubles at every t', and the
        # trial-0 witness and the round trip hold even where t' + j delta is one double
        rng = np.random.default_rng(seed)
        delta = 0.2 if kind == STRING else 0.015
        sys = full_string(a, delta, rng) if kind == STRING else full_beam(a, 8.0, delta, rng)
        try:
            sys._layout
        except ValidationError:  # a resonant a, or a beam spectrum that breaks the gap condition
            assume(False)

        def constants(t_shift):
            grid = SamplingGrid(delta, 30, t_shift)
            rep = verify_observability(sys, grid, 0.05, trials=3, seed=seed, enforce_horizon=False)
            trial, trace = rep._witness
            rec = reconstruct(trace, trial)
            for got, want in zip(rec.left + rec.right, trial.left + trial.right):
                assert abs(got.plus - want.plus) <= 1e-12 and abs(got.minus - want.minus) <= 1e-12
            return rep.c_pencil, rep.min_eig, rep.singular, rec.min_singular_value

        assert all(constants(t) == constants(0.0) for t in (0.37, 1e4, 1e12, 1e17))

    TWO_MODES = CoupledSystem(STRING, A_IRR, left=(Mode(1, 0.3, 0.2),), right=(Mode(1, 0.1, -0.4),))

    @pytest.mark.parametrize("call", ["observe", "reconstruct"])
    def test_unbounded_shift_refused(self, call):
        # the span of the frequencies (about 21) times 1e308 overflows: refused by name, as
        # by the pencil, before a phase is formed and with no numpy warning
        grid = SamplingGrid(0.2, 10, 1e308)
        with pytest.raises(ValidationError, match="^t_shift times the span") as err:
            if call == "observe":
                observe(self.TWO_MODES, grid)
            else:
                reconstruct(ObservationTrace(grid, np.ones(2 * grid.J + 1)), self.TWO_MODES)
        assert err.value.details == {"t_shift": 1e308}

    def test_large_finite_shift_round_trips(self):
        sys = self.TWO_MODES
        rec = reconstruct(observe(sys, SamplingGrid(0.2, 10, 1e306)), sys)
        for got, want in zip(rec.left + rec.right, sys.left + sys.right):
            assert abs(got.plus - want.plus) <= 1e-12 and abs(got.minus - want.minus) <= 1e-12
