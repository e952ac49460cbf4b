import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from helpers import block_sequence, poisson_delta, random_coeffs
from ingham import (
    AugmentedExpSum,
    ExponentSequence,
    ExpSum,
    SamplingGrid,
    StructuralError,
    ValidationError,
    WindowKernel,
    certify_constants,
    continuous_energy,
    eval_sum,
    g_transform,
    poisson_sides,
    sampled_energy,
)
from ingham.cli import _grid_from, _sanitize, _sum_from
from ingham.sums import _EXACT_CHUNK, _exact_sum


def simple_sum(omegas=(-2.0, 0.5, 3.0), coeffs=(1.0, 2.0 - 1.0j, 0.5j), gamma=1.0):
    return ExpSum(ExponentSequence(omegas, gamma, gamma), coeffs)


class TestConstruction:
    def test_coeff_count_mismatch(self):
        seq = ExponentSequence((0.0, 3.0), 1.0, 1.0)
        with pytest.raises(StructuralError):
            ExpSum(seq, (1.0,))

    def test_nonfinite_coeff(self):
        seq = ExponentSequence((0.0, 3.0), 1.0, 1.0)
        with pytest.raises(StructuralError):
            ExpSum(seq, (1.0, float("inf")))

    def test_augmented_gamma_prime(self):
        s = simple_sum()
        aug = AugmentedExpSum(s, 1.3, 0.5j)
        assert aug.gamma_prime == pytest.approx(0.8)

    def test_augmented_collision_rejected(self):
        with pytest.raises(ValidationError):
            AugmentedExpSum(simple_sum(), 0.5, 1.0)

    def test_grid_validation(self):
        with pytest.raises(StructuralError):
            SamplingGrid(0.0, 4)
        with pytest.raises(StructuralError):
            SamplingGrid(0.5, 0)
        g = SamplingGrid(0.5, 2, t_shift=0.1)
        assert np.allclose(g.times(), [-0.9, -0.4, 0.1, 0.6, 1.1])

    def test_grid_roundtrip(self):
        g = SamplingGrid(0.25, 7, t_shift=-0.3)
        assert _grid_from(_sanitize(g)) == g


class TestEval:
    def test_single_term(self):
        s = ExpSum(ExponentSequence((2.0,), 1.0, 1.0), (1.5 - 0.5j,))
        t = 0.7
        assert eval_sum(s, t) == pytest.approx((1.5 - 0.5j) * np.exp(2.0j * t))

    def test_matches_direct_loop(self, rng):
        s = simple_sum()
        for t in rng.uniform(-5, 5, size=5):
            direct = sum(c * np.exp(1j * w * t) for w, c in zip(s.seq.omegas, s.coeffs))
            assert eval_sum(s, t) == pytest.approx(direct, abs=1e-14)

    def test_linearity_and_array(self, rng):
        seq = ExponentSequence((-1.0, 2.5), 1.0, 1.0)
        a = ExpSum(seq, (1.0, 2.0))
        b = ExpSum(seq, (0.0 - 1.0j, 0.5))
        both = ExpSum(seq, (1.0 - 1.0j, 2.5))
        ts = rng.uniform(-3, 3, size=11)
        assert np.allclose(eval_sum(a, ts) + eval_sum(b, ts), eval_sum(both, ts), atol=1e-14)

    def test_augmented_eval(self):
        s = simple_sum()
        aug = AugmentedExpSum(s, 7.0, 2.0j)
        t = 0.3
        assert aug.eval(t) == pytest.approx(s.eval(t) + 2.0j * np.exp(7.0j * t))

    def test_rejects_non_sum(self):
        with pytest.raises(StructuralError):
            eval_sum(object(), 0.0)


EPS = np.finfo(float).eps


def grid_eval_bound(omegas, coeffs, grid: SamplingGrid) -> float:
    """8 eps |x|_1 (1 + max|w| (|t'| + J delta)): rounding of both phase paths."""
    reach = abs(grid.t_shift) + grid.J * grid.delta
    return 8.0 * EPS * float(np.sum(np.abs(coeffs))) * (1.0 + max(abs(w) for w in omegas) * reach)


class TestGridEval:
    """eval_sum on a SamplingGrid against the direct np.exp outer product."""

    DELTA = 0.3
    EDGE = math.pi / DELTA - 0.75  # band threshold pi/delta - gamma/2 for gamma 1.5

    def edge_sum(self):
        seq = ExponentSequence((-self.EDGE, -4.0, 0.3, 0.9, 5.5, self.EDGE), 1.5, 1.0)
        return ExpSum(seq, (0.7, -0.2 + 0.4j, 1.1j, 0.3, -0.9 - 0.1j, 0.5 - 0.5j))

    @pytest.mark.parametrize("J", [1, 2, 7, 1000, 60000])
    @pytest.mark.parametrize("t_shift", [0.0, -2.75])
    def test_plain_matches_outer_product(self, J, t_shift):
        s = self.edge_sum()
        grid = SamplingGrid(self.DELTA, J, t_shift)
        fast = eval_sum(s, grid)
        direct = np.exp(1j * np.multiply.outer(grid.times(), s.seq.omegas)) @ np.array(s.coeffs)
        assert fast.shape == (2 * J + 1,)
        assert np.max(np.abs(fast - direct)) <= grid_eval_bound(s.seq.omegas, s.coeffs, grid)

    @pytest.mark.parametrize("J", [3, 60000])
    def test_augmented_matches_outer_product(self, J):
        aug = AugmentedExpSum(self.edge_sum(), -self.EDGE + 2.0, 0.25 + 0.6j)
        grid = SamplingGrid(self.DELTA, J, t_shift=1.375)
        omegas = aug.base.seq.omegas + (aug.omega_prime,)
        coeffs = aug.base.coeffs + (aug.x_prime,)
        direct = np.exp(1j * np.multiply.outer(grid.times(), omegas)) @ np.array(coeffs)
        fast = eval_sum(aug, grid)
        assert np.max(np.abs(fast - direct)) <= grid_eval_bound(omegas, coeffs, grid)

    def test_poisson_sides_plan_and_lhs(self):
        seq = ExponentSequence((-2.0, 0.5, 3.0), 1.5, 1.5)
        s = ExpSum(seq, (0.5, 0.25 - 0.125j, 0.125j))
        kernel = WindowKernel("inverse", 1.5, 1.0, 1.0, R=math.pi)
        rep = poisson_sides(s, kernel, 0.5, tail_tol=1e-10)
        # plan reported when poisson_sides used the outer product; the grid path keeps it
        assert rep.j_half_count == 11429
        assert rep.tail_bound == pytest.approx(9.997956888757265e-11, rel=1e-14)
        grid = SamplingGrid(0.5, rep.j_half_count)
        weights = g_transform(kernel, grid.times())
        direct = eval_sum(s, grid.times())
        lhs_direct = grid.delta * math.fsum(weights * np.abs(direct) ** 2)
        l1 = float(np.sum(np.abs(s.coeffs)))
        slack = 2.0 * l1 * grid_eval_bound(seq.omegas, s.coeffs, grid) * grid.delta * np.sum(np.abs(weights))
        assert abs(rep.lhs - lhs_direct) <= slack
        assert abs(rep.lhs - rep.rhs) <= 1e-10 + 1e-9 * (1.0 + abs(rep.rhs))


class TestExactSum:
    """_exact_sum against math.fsum, which CPython rounds correctly."""

    @settings(max_examples=200)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=60))
    def test_matches_fsum(self, xs):
        try:
            expected = math.fsum(xs)
        except OverflowError:
            return  # fsum overflowed, maybe only in an intermediate partial
        assert _exact_sum(np.array(xs, dtype=float)).hex() == expected.hex()

    def test_longer_than_one_chunk(self, rng):
        n = 3 * _EXACT_CHUNK + 12345
        a = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        a[1::2] = -a[::2][: a[1::2].size] * (1.0 + 2.0**-40)  # near-cancelling pairs
        a[-5:] = (5e-324, -1e-310, 3e300, -3e300, 1e-20)
        assert _exact_sum(a).hex() == math.fsum(a.tolist()).hex()

    def test_exact_where_doubles_lose_it(self):
        a = np.array([1.0, 1e-16, 1e-16, -1.0, 5e-324, 5e-324])
        assert _exact_sum(a) == math.fsum(a.tolist()) != float(np.sum(a))
        assert _exact_sum(np.array([])) == 0.0
        assert _exact_sum(np.array([-0.0, -0.0])).hex() == math.fsum([-0.0, -0.0]).hex()

    def test_infinities_go_to_fsum(self):
        with pytest.raises(ValueError):
            _exact_sum(np.array([math.inf, -math.inf]))
        assert _exact_sum(np.array([1.0, math.inf])) == math.inf
        assert math.isnan(_exact_sum(np.array([1.0, math.nan])))

    def test_overflow(self):
        with pytest.raises(OverflowError):
            _exact_sum(np.array([1e308, 1e308]))
        # fsum overflows in a partial sum; the exact sum is finite
        with pytest.raises(OverflowError):
            math.fsum([1e308, 1e308, -1e308])
        assert _exact_sum(np.array([1e308, 1e308, -1e308])) == 1e308

    def test_poisson_lhs_is_the_fsum_of_its_terms(self):
        # the long inverse-kernel case of the benchmark: n = 10, gamma 1.5
        n, gamma = 10, 1.5
        delta = 0.9 * 2.0 * math.pi / ((n - 1) * 2.8 * gamma + 2.0 * gamma)
        seq = ExponentSequence(tuple(2.8 * gamma * (k - 4.5) for k in range(n)), gamma, gamma)
        c = np.exp(0.7j * np.arange(n)) * np.linspace(1.0, 2.0, n)
        s = ExpSum(seq, tuple(c / np.sum(np.abs(c))))
        kernel = WindowKernel("inverse", gamma, 1.0, 1.0, R=1.5 * math.pi / gamma)
        rep = poisson_sides(s, kernel, delta)
        J = rep.j_half_count
        assert J > 40000
        half = g_transform(kernel, delta * np.arange(J + 1))
        weights = np.concatenate((half[:0:-1], half))
        values = eval_sum(s, SamplingGrid(delta, J))
        assert rep.lhs == delta * math.fsum((weights * np.abs(values) ** 2).tolist())

    def test_sampled_energy_is_the_fsum_of_its_terms(self):
        s = simple_sum()
        grid = SamplingGrid(0.31, 5000, t_shift=0.05)
        values = eval_sum(s, grid.times())
        assert sampled_energy(s, grid) == grid.delta * math.fsum((np.abs(values) ** 2).tolist())


class TestEnergies:
    def test_sampled_energy_recompute(self, rng):
        s = simple_sum()
        grid = SamplingGrid(0.31, 9, t_shift=0.05)
        expected = grid.delta * sum(abs(s.eval(t)) ** 2 for t in grid.times())
        assert sampled_energy(s, grid) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("R", [0.8, 2.0])
    def test_continuous_energy_quadrature(self, R, rng):
        s = simple_sum()
        oracle, err = quad(lambda t: abs(s.eval(t)) ** 2, -R, R, limit=300,
                           epsabs=1e-12, epsrel=1e-12)
        assert continuous_energy(s, R) == pytest.approx(oracle, abs=1e-9)

    def test_continuous_energy_single(self):
        s = ExpSum(ExponentSequence((4.0,), 1.0, 1.0), (3.0j,))
        # |x| constant, integral is 2 R |c|^2
        assert continuous_energy(s, 5.0) == pytest.approx(90.0, rel=1e-14)

    def test_continuous_energy_augmented(self):
        aug = AugmentedExpSum(simple_sum(), 6.0, 1.0)
        oracle, _ = quad(lambda t: abs(aug.eval(t)) ** 2, -1.5, 1.5, limit=300,
                         epsabs=1e-12, epsrel=1e-12)
        assert continuous_energy(aug, 1.5) == pytest.approx(oracle, abs=1e-9)

    def test_bad_R(self):
        with pytest.raises(StructuralError):
            continuous_energy(simple_sum(), -1.0)


class TestSummationIdentity:
    def test_direct_identity(self, rng):
        seq = block_sequence(rng, nmax=8)
        s = ExpSum(seq, random_coeffs(rng, len(seq)))
        kernel = certify_constants("direct", seq.gamma)
        delta = poisson_delta(seq)
        rep = poisson_sides(s, kernel, delta, tail_tol=1e-12)
        assert abs(rep.lhs - rep.rhs) <= 1e-11 + 1e-10 * abs(rep.rhs)
        assert rep.tail_bound <= 1e-12
        assert rep.j_half_count >= 1

    def test_inverse_identity(self, rng):
        seq = block_sequence(rng, nmax=6, gamma_range=(1.4, 2.2))
        s = ExpSum(seq, random_coeffs(rng, len(seq)))
        R = 1.5 * math.pi / seq.gamma
        kernel = certify_constants("inverse", seq.gamma, R=R)
        delta = poisson_delta(seq)
        rep = poisson_sides(s, kernel, delta, tail_tol=1e-11)
        assert abs(rep.lhs - rep.rhs) <= 1e-10 + 1e-9 * abs(rep.rhs)

    @pytest.mark.parametrize(
        "gamma, coeff, delta, j_half_count",
        [
            (1.0, 1.0, 1e-300, 2 * 10**300),  # T/delta past every count: no array is sized
            (1.0, 1.0, 1e-310, math.inf),  # T/delta overflows
            (1.0, 1e200, 0.5, math.inf),  # A^2 overflows
            (1e-100, 1.0, 0.5, math.inf),  # 1/gamma^4 overflows
        ],
    )
    def test_plan_past_the_count_rule_refused(self, gamma, coeff, delta, j_half_count):
        s = ExpSum(ExponentSequence((0.0,), gamma, gamma), (coeff,))
        with pytest.raises(ValidationError, match="tail plan needs more samples than memory allows") as err:
            poisson_sides(s, certify_constants("direct", gamma), delta, tail_tol=1e-9)
        assert err.value.details["j_half_count"] >= j_half_count
        assert err.value.details["tail_tol"] == 1e-9

    def test_coefficient_modulus_past_double_range_refused(self):
        # |1.7e308 (1 + i)| overflows: the l1 norm is inf, without a warning, and so is the plan
        seq = ExponentSequence((0.0, 3.0), 1.0, 1.0)
        s = ExpSum(seq, (complex(1.7e308, 1.7e308), 1.0))
        with pytest.raises(ValidationError, match="tail plan needs more samples than memory allows") as err:
            poisson_sides(s, certify_constants("direct", 1.0), 0.5, tail_tol=1e-9)
        assert err.value.details == {"j_half_count": math.inf, "tail_tol": 1e-9}
        # beyond the band the same coefficient is named by the band check
        with pytest.raises(ValidationError, match="band condition violated") as err:
            poisson_sides(ExpSum(seq, (1.0, complex(1.7e308, 1.7e308))), certify_constants("direct", 1.0), 0.9)
        assert err.value.details["indices"] == [1]

    def test_zero_coefficients(self):
        seq = ExponentSequence((0.0, 3.0), 1.0, 1.0)
        s = ExpSum(seq, (0.0, 0.0))
        kernel = WindowKernel("direct", 1.0, 1.0, 1.0)
        rep = poisson_sides(s, kernel, 0.5)
        assert (rep.lhs, rep.rhs, rep.tail_bound, rep.j_half_count) == (0.0, 0.0, 0.0, 0)

    def test_cross_terms_vanish_beyond_support(self):
        # pair distance 5 >= 2 gamma: rhs reduces to the diagonal
        seq = ExponentSequence((0.0, 5.0), 1.0, 1.0)
        s = ExpSum(seq, (1.0, 2.0))
        kernel = certify_constants("direct", 1.0)
        rep = poisson_sides(s, kernel, poisson_delta(seq))
        from ingham import convolution_eval

        diag = 2.0 * math.pi * convolution_eval(kernel, 0.0) * (1.0 + 4.0)
        assert rep.rhs == pytest.approx(diag, rel=1e-14)
        assert rep.rhs_pinned_support == pytest.approx(diag, rel=1e-14)

    def test_pinned_differs_in_margin(self):
        # pair distance 1.5 in (gamma, 2 gamma): raw has a cross term, the
        # pinned kernel drops it
        seq = ExponentSequence((0.0, 1.5), 1.0, 1.0)
        s = ExpSum(seq, (1.0, 1.0))
        kernel = certify_constants("direct", 1.0)
        rep = poisson_sides(s, kernel, poisson_delta(seq))
        assert abs(rep.rhs - rep.rhs_pinned_support) > 1e-3
        # the identity itself holds for the raw side only
        assert abs(rep.lhs - rep.rhs) <= 1e-10 + 1e-9 * abs(rep.rhs)
        assert abs(rep.lhs - rep.rhs_pinned_support) > 1e-3

    def test_augmented_rejected(self):
        aug = AugmentedExpSum(simple_sum(), 9.0, 1.0)
        kernel = WindowKernel("direct", 1.0, 1.0, 1.0)
        with pytest.raises(StructuralError):
            poisson_sides(aug, kernel, 0.3)

    def test_band_enforcement(self):
        seq = ExponentSequence((0.0, 9.0), 1.0, 1.0)
        s = ExpSum(seq, (1.0, 1.0))
        kernel = certify_constants("direct", 1.0)
        delta = math.pi / 9.2  # band threshold pi/delta - 1/2 = 8.7 < 9
        with pytest.raises(ValidationError) as err:
            poisson_sides(s, kernel, delta)
        assert "band" in str(err.value)
        rep = poisson_sides(s, kernel, delta, enforce_band=False)
        assert math.isfinite(rep.lhs)

    def test_band_ignores_zero_coefficients(self):
        seq = ExponentSequence((0.0, 9.0), 1.0, 1.0)
        s = ExpSum(seq, (1.0, 0.0))
        kernel = certify_constants("direct", 1.0)
        rep = poisson_sides(s, kernel, math.pi / 9.2)
        assert abs(rep.lhs - rep.rhs) <= 1e-10 + 1e-9 * abs(rep.rhs)

    def test_window_exceeds_period(self):
        kernel = WindowKernel("direct", 2.0, 1.0, 1.0)
        with pytest.raises(ValidationError):
            poisson_sides(simple_sum(gamma=2.0), kernel, 2.0)

    def test_bad_tail_tol(self):
        kernel = WindowKernel("direct", 1.0, 1.0, 1.0)
        with pytest.raises(StructuralError):
            poisson_sides(simple_sum(), kernel, 0.3, tail_tol=0.0)

    def test_report_dict(self):
        seq = ExponentSequence((0.0,), 1.0, 1.0)
        s = ExpSum(seq, (1.0,))
        kernel = certify_constants("direct", 1.0)
        rep = poisson_sides(s, kernel, 0.5)
        assert rep.abs_gap == abs(rep.lhs - rep.rhs)
        assert _sanitize(rep)["abs_gap"] == rep.abs_gap

    @settings(max_examples=15)
    @given(st.integers(0, 2**32 - 1))
    def test_identity_property(self, seed):
        rng = np.random.default_rng(seed)
        seq = block_sequence(rng, nmax=6)
        s = ExpSum(seq, random_coeffs(rng, len(seq), l1=2.0))
        kernel = certify_constants("direct", seq.gamma)
        rep = poisson_sides(s, kernel, poisson_delta(seq), tail_tol=1e-12)
        assert abs(rep.lhs - rep.rhs) <= 1e-11 + 1e-10 * abs(rep.rhs)


class TestSerialization:
    def test_plain_roundtrip(self):
        s = simple_sum()
        cfg = {"omegas": [-2.0, 0.5, 3.0], "coeffs": [[1.0, 0.0], [2.0, -1.0], [0.0, 0.5]]}
        back = _sum_from(cfg, gamma=1.0)
        assert isinstance(back, ExpSum)
        assert back.seq.omegas == s.seq.omegas
        assert back.coeffs == s.coeffs

    def test_augmented_refused(self):
        # poisson_sides takes plain sums only, so the reader builds no augmented sum
        cfg = {
            "omegas": [-2.0, 0.5, 3.0],
            "coeffs": [[1.0, 0.0], [2.0, -1.0], [0.0, 0.5]],
            "omega_prime": 6.5,
            "x_prime": [0.25, -0.75],
        }
        with pytest.raises(StructuralError, match="summation identity applies to plain sums only"):
            _sum_from(cfg, gamma=1.0, gamma0=0.8)

    def test_numbers_read_by_the_json_rules(self):
        # frequencies as cli._real reads them, coefficient parts as errors.finite
        cfg = {"omegas": ["0.0"], "coeffs": [[1.0, 0.0]]}
        back = _sum_from(cfg, gamma=1.0)
        assert back.seq.omegas == (0.0,)
        for key, value in [("omegas", [True]), ("coeffs", [[True, False]]), ("coeffs", [["1", "0"]])]:
            with pytest.raises(StructuralError, match=key):
                _sum_from(dict(cfg, **{key: value}), gamma=1.0)

    def test_malformed(self):
        with pytest.raises(StructuralError):
            _sum_from({"omegas": [0.0]}, gamma=1.0)
        with pytest.raises(StructuralError):
            _sum_from({"omegas": [0.0], "coeffs": [[1.0, 0.0]], "omega_prime": 2.0}, gamma=1.0)
