import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from ingham import (
    CertificationError,
    G_eval,
    StructuralError,
    ValidationError,
    WindowKernel,
    certify_constants,
    convolution_eval,
    g_transform,
    h_transform,
    kernels,
    periodize,
)


def window(x, gamma):
    return np.where(np.abs(x) <= gamma, np.cos(np.pi * x / (2.0 * gamma)) ** 2, 0.0)


def h_oracle(gamma, t):
    """Quadrature transform of the raised-cosine window."""
    val, err = quad(lambda x: math.cos(t * x) * math.cos(math.pi * x / (2 * gamma)) ** 2,
                    -gamma, gamma, limit=400, epsabs=1e-13, epsrel=1e-13)
    assert err < 5e-11
    return val


class TestTransform:
    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
    def test_matches_quadrature(self, gamma, rng):
        ts = rng.uniform(-40.0, 40.0, size=20)
        for t in ts:
            assert h_transform(gamma, t) == pytest.approx(h_oracle(gamma, t), abs=1e-10)

    def test_value_at_zero(self):
        # integral of cos^2 over [-gamma, gamma]
        assert h_transform(2.0, 0.0) == pytest.approx(2.0, abs=1e-14)

    def test_series_fill_near_singularities(self):
        # the formula has 0/0 at u = gamma t in {0, pi}; series fill must
        # agree with quadrature through and around both points
        for gamma in (0.7, 1.3):
            for u in (0.0, 2e-5, 8e-5, 1.2e-4,
                      math.pi - 1.2e-4, math.pi - 5e-5, math.pi, math.pi + 5e-5):
                t = u / gamma
                assert h_transform(gamma, t) == pytest.approx(h_oracle(gamma, t), abs=1e-12)

    def test_rejects_bad_gamma(self):
        with pytest.raises(StructuralError):
            h_transform(0.0, 1.0)
        with pytest.raises(StructuralError):
            h_transform(-2.0, 1.0)
        for gamma in (math.inf, math.nan):
            with pytest.raises(StructuralError):
                h_transform(gamma, 1.0)

    def test_even(self, rng):
        for t in rng.uniform(0.0, 20.0, size=10):
            assert h_transform(1.2, t) == h_transform(1.2, -t)

    @given(st.floats(0.2, 3.0), st.floats(-200.0, 200.0))
    def test_tail_bound(self, gamma, t):
        if gamma * abs(t) >= 2.0 * math.pi:
            bound = (4.0 / 3.0) * math.pi**2 / (gamma**2 * abs(t) ** 3)
            assert abs(h_transform(gamma, t)) <= bound * (1 + 1e-12)


class TestConvolution:
    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
    def test_direct_matches_quadrature(self, gamma, rng):
        k = WindowKernel("direct", gamma, 1.0, 1.0)
        for x in rng.uniform(-2.2 * gamma, 2.2 * gamma, size=8):
            oracle, err = quad(
                lambda u: float(window(u, gamma) * window(x - u, gamma)),
                max(-gamma, x - gamma),
                min(gamma, x + gamma),
                limit=200,
            ) if abs(x) < 2 * gamma else (0.0, 0.0)
            assert float(convolution_eval(k, x)) == pytest.approx(oracle, abs=1e-12)

    def test_direct_peak(self):
        k = WindowKernel("direct", 1.5, 1.0, 1.0)
        assert float(convolution_eval(k, 0.0)) == pytest.approx(3 * 1.5 / 4, abs=1e-14)

    def test_support_vanishes(self):
        k = WindowKernel("direct", 1.0, 1.0, 1.0)
        assert float(convolution_eval(k, 2.0)) == 0.0
        assert float(convolution_eval(k, -2.5)) == 0.0

    def test_pinned_support(self):
        k = WindowKernel("direct", 1.0, 1.0, 1.0)
        assert float(G_eval(k, 1.0)) == 0.0
        assert float(G_eval(k, 0.999999)) > 0.0
        assert float(G_eval(k, 0.5)) == float(convolution_eval(k, 0.5))

    def test_inverse_peak_includes_derivative_term(self):
        gamma, R = 2.0, 3.0
        k = WindowKernel("inverse", gamma, 1.0, 1.0, R=R)
        expect = 0.75 * gamma * R * R - math.pi**2 / (4.0 * gamma)
        assert float(convolution_eval(k, 0.0)) == pytest.approx(expect, rel=1e-14)

    def test_inverse_matches_quadrature(self, rng):
        # H'(u) = -(pi/(2 gamma)) sin(pi u / gamma) on the support
        gamma, R = 1.0, 1.5 * math.pi
        k = WindowKernel("inverse", gamma, 1.0, 1.0, R=R)
        for x in rng.uniform(-1.9 * gamma, 1.9 * gamma, size=6):
            lo, hi = max(-gamma, x - gamma), min(gamma, x + gamma)
            hh, _ = quad(lambda u: float(window(u, gamma) * window(x - u, gamma)), lo, hi, limit=300)
            dd, _ = quad(
                lambda u: (math.pi / (2 * gamma)) ** 2
                * math.sin(math.pi * u / gamma)
                * math.sin(math.pi * (x - u) / gamma),
                lo,
                hi,
                limit=300,
            )
            oracle = R * R * hh + dd
            assert float(convolution_eval(k, x)) == pytest.approx(oracle, abs=1e-10)


class TestFourierPairing:
    """g must be the transform of the pinned kernel: quadrature cross-check."""

    @pytest.mark.parametrize("variant,R", [("direct", None), ("inverse", 4.8)])
    def test_g_is_transform_of_G(self, variant, R, rng):
        gamma = 1.0
        k = WindowKernel(variant, gamma, 1.0, 1.0, R=R)
        # 2 pi G(x) = integral g(t) e^{i t x} dt; truncating at T = 400 leaves
        # a tail below 2e-6 for both decay rates (t^-6 and t^-4)
        edges = np.linspace(0.0, 400.0, 21)
        for x in rng.uniform(-1.5, 1.5, size=3):
            val = 0.0
            for a, b in zip(edges[:-1], edges[1:]):
                piece, _ = quad(
                    lambda t: float(g_transform(k, t)) * math.cos(t * x),
                    a, b, limit=200,
                )
                val += piece
            lhs = 2.0 * val  # even integrand
            assert lhs == pytest.approx(2.0 * math.pi * float(convolution_eval(k, x)), abs=2e-5)

    def test_direct_g_values(self):
        k = WindowKernel("direct", 1.0, 1.0, 1.0)
        assert float(g_transform(k, 0.0)) == pytest.approx(1.0, abs=1e-14)
        t = np.array([0.3, 4.0, 11.0])
        expect = np.array([h_transform(1.0, v) for v in t]) ** 2
        assert np.allclose(np.asarray(g_transform(k, t)), expect, atol=1e-14)

    def test_inverse_g_sign_change_at_R(self):
        k = WindowKernel("inverse", 1.0, 1.0, 1.0, R=4.0)
        assert float(g_transform(k, 3.9)) > 0.0 or abs(float(g_transform(k, 3.9))) < 1e-12
        assert float(g_transform(k, 4.0)) == pytest.approx(0.0, abs=1e-14)
        assert float(g_transform(k, 8.0)) <= 0.0


class TestCertification:
    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
    def test_direct_certifies(self, gamma):
        k = certify_constants("direct", gamma)
        assert k.alpha >= 1.0 and k.beta > 0.0
        xs = np.linspace(0.0, 2.0 * gamma, 2001)
        vals = np.asarray(convolution_eval(k, xs))
        g0 = vals[0]
        assert np.all(g0 - vals >= -1e-12)
        assert np.all(g0 - vals <= k.alpha * xs**2 + 1e-12)
        ts = np.linspace(0.0, math.pi / (2.0 * gamma), 2001)
        assert np.all(np.asarray(g_transform(k, ts)) >= k.beta - 1e-12)

    @pytest.mark.parametrize("gamma,R", [(0.5, 3.0 * math.pi), (1.0, 1.5 * math.pi), (2.0, 3.0)])
    def test_inverse_certifies(self, gamma, R):
        k = certify_constants("inverse", gamma, R=R)
        xs = np.linspace(1e-3, gamma, 2001)
        vals = np.asarray(convolution_eval(k, xs))
        g0 = float(convolution_eval(k, 0.0))
        assert np.all(g0 - vals > 0.0)
        assert np.all(g0 - vals >= k.alpha * xs**2 * (1 - 1e-9) - 1e-12)
        ts = np.linspace(0.0, 3.0 * R, 3001)
        gv = np.asarray(g_transform(k, ts))
        assert np.all(gv <= k.beta + 1e-12)
        assert np.all(gv[ts >= R] <= 1e-14)

    def test_inverse_peak_negative_fails_named(self):
        with pytest.raises(CertificationError) as err:
            certify_constants("inverse", 0.5, R=3.0)
        assert "G(0) > 0" in str(err.value)

    def test_inverse_pinch_fails_named(self):
        with pytest.raises(CertificationError) as err:
            certify_constants("inverse", 1.0, R=3.0)
        assert "G(0) - G(x)" in str(err.value)

    def test_inverse_requires_R(self):
        with pytest.raises(StructuralError):
            certify_constants("inverse", 1.0)

    def test_unknown_variant(self):
        with pytest.raises(StructuralError):
            certify_constants("triangular", 1.0)

    @pytest.mark.parametrize("variant,R", [("direct", None), ("inverse", 3.14159)])
    @pytest.mark.parametrize("margin", [1.5, 1.0, -0.01, math.nan, math.inf, -math.inf, "x", True])
    def test_margin_outside_unit_interval_rejected(self, variant, R, margin):
        with pytest.raises(StructuralError, match="margin"):
            certify_constants(variant, 1.5, R=R, margin=margin)

    @pytest.mark.parametrize("variant,R", [("direct", None), ("inverse", 3.14159)])
    @pytest.mark.parametrize("grid_points", [10001.5, 10001.0, True, "10001", 10000])
    def test_grid_points_not_integer_or_too_few_rejected(self, variant, R, grid_points):
        with pytest.raises(StructuralError, match="grid points|grid_points"):
            certify_constants(variant, 1.5, R=R, grid_points=grid_points)

    def test_numpy_integer_grid_points_accepted(self):
        k = certify_constants("inverse", 1.5, R=3.14159, grid_points=np.int64(10001))
        assert k == certify_constants("inverse", 1.5, R=3.14159)

    @pytest.mark.parametrize("gamma", [1e155, 1e200, 1e300])
    def test_direct_beta_overflow_refused_without_warning(self, gamma):
        # g(pi/(2 gamma)) = (8 gamma/(3 pi))^2 overflows; an infinite beta bounds nothing
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CertificationError, match=r"g\(t\) >= beta") as err:
                certify_constants("direct", gamma)
        assert err.value.details == {"inequality": "g >= beta", "point": math.pi / (2.0 * gamma)}

    def test_direct_beta_largest_finite_kept(self):
        k = certify_constants("direct", 1e154)
        assert 0.0 < k.beta < math.inf


def _hh_unit(y):
    """(H*H) at unit gamma on [0, 2], in mpmath."""
    return (2 - y) / 4 + (2 - y) * mp.cos(mp.pi * y) / 8 + 3 * mp.sin(mp.pi * y) / (8 * mp.pi)


class TestSoundness:
    """The closed-form constants against 50-digit mpmath values."""

    def test_direct_alpha_bounds_ratio_near_zero(self):
        # a grid maximum of the ratio misses its supremum, approached as x -> 0
        k = certify_constants("direct", 1.0, margin=0.0)
        with mp.workdps(50):
            x = mp.mpf("1e-4")
            ratio = (_hh_unit(0) - _hh_unit(x)) / x**2
            assert k.alpha >= ratio

    @pytest.mark.parametrize("gamma", [0.3, 0.7, 1.0, 1.2])
    def test_direct_alpha_is_limit_of_ratio(self, gamma):
        with mp.workdps(60):
            gm = mp.mpf(gamma)
            x = mp.mpf("1e-15")
            ratio = gm * (_hh_unit(0) - _hh_unit(x / gm)) / x**2
            limit = mp.pi**2 / (8 * gm)
            assert abs(ratio - limit) < mp.mpf("1e-25")
            alpha = certify_constants("direct", gamma, margin=0.0).alpha
            assert abs(alpha - limit) <= 4 * np.finfo(float).eps * limit

    @pytest.mark.parametrize("gamma,R", [(0.5, 3.0 * math.pi), (1.0, 1.5 * math.pi), (2.0, 3.0)])
    def test_peak_values(self, gamma, R):
        with mp.workdps(50):
            gm, rm = mp.mpf(gamma), mp.mpf(R)
            # G(0) = integral H^2 (direct); the inverse kernel subtracts integral H'^2
            hh = mp.quad(lambda u: mp.cos(mp.pi * u / (2 * gm)) ** 4, [-gm, 0, gm])
            dd = mp.quad(
                lambda u: (mp.pi / (2 * gm) * mp.sin(mp.pi * u / gm)) ** 2, [-gm, 0, gm]
            )
            assert abs(hh - 3 * gm / 4) < mp.mpf("1e-40")
            inverse = rm**2 * hh - dd
            assert abs(inverse - (3 * rm**2 * gm / 4 - mp.pi**2 / (4 * gm))) < mp.mpf("1e-38")
            direct_k = WindowKernel("direct", gamma, 1.0, 1.0)
            inverse_k = WindowKernel("inverse", gamma, 1.0, 1.0, R=R)
            assert float(G_eval(direct_k, 0.0)) == pytest.approx(float(hh), rel=1e-15)
            assert float(G_eval(inverse_k, 0.0)) == pytest.approx(float(inverse), rel=1e-14)

    @given(st.floats(0.3, 3.0), st.sampled_from([0.0, 0.05]))
    def test_direct_beta_below_g(self, gamma, margin):
        k = certify_constants("direct", gamma, margin=margin)
        ts = np.linspace(0.0, math.pi / (2.0 * gamma), 20001)
        assert np.all(np.asarray(g_transform(k, ts)) >= k.beta * (1.0 - 4.0 * np.finfo(float).eps))

    @given(st.floats(0.3, 3.0), st.floats(1.2, 4.0), st.sampled_from([0.0, 0.05]))
    def test_inverse_g_bounded_and_nonpositive_beyond_R(self, gamma, c, margin):
        R = c * math.pi / gamma
        k = certify_constants("inverse", gamma, R=R, margin=margin)
        ts = np.linspace(0.0, 3.0 * R + 50.0 / gamma, 40001)
        gv = np.asarray(g_transform(k, ts))
        assert np.all(gv <= k.beta * (1.0 + 4.0 * np.finfo(float).eps))
        beyond = np.linspace(R, R + 50.0 / gamma, 20001)
        assert np.all(np.asarray(g_transform(k, beyond)) <= 0.0)


class TestCertificationWork:
    """Certification evaluates g once (direct) or G on one grid (inverse)."""

    @staticmethod
    def point_counts(monkeypatch, name):
        """Point counts of each call of kernels.<name>."""
        original = getattr(kernels, name)
        counts = []

        def counting(kernel, x):
            counts.append(int(np.size(x)))
            return original(kernel, x)

        monkeypatch.setattr(kernels, name, counting)
        return counts

    @pytest.mark.parametrize(
        "variant, R, grid_points, g_points, x_points",
        [
            ("direct", None, 10001, [1], []),
            ("direct", None, 30001, [1], []),
            ("inverse", 3.14159, 10001, [], [10001]),
            ("inverse", 3.14159, 30001, [], [30001]),
        ],
    )
    def test_points_evaluated(self, monkeypatch, variant, R, grid_points, g_points, x_points):
        g_counts = self.point_counts(monkeypatch, "g_transform")
        x_counts = self.point_counts(monkeypatch, "convolution_eval")
        certify_constants(variant, 1.5, R=R, grid_points=grid_points)
        assert (g_counts, x_counts) == (g_points, x_points)


class TestPeriodize:
    def test_periodic(self):
        k = WindowKernel("direct", 1.0, 1.0, 1.0)
        delta = 0.8
        period = 2.0 * math.pi / delta
        for x in (0.0, 0.3, 1.1):
            assert periodize(k, delta, x) == pytest.approx(periodize(k, delta, x + period), abs=1e-13)

    def test_matches_raw_inside_clear_zone(self):
        k = WindowKernel("direct", 1.0, 1.0, 1.0)
        delta = 0.5  # period 4 pi >> support 4
        assert periodize(k, delta, 0.7) == pytest.approx(float(convolution_eval(k, 0.7)), abs=1e-15)

    def test_window_exceeding_period_rejected(self):
        k = WindowKernel("direct", 1.0, 1.0, 1.0)
        with pytest.raises(ValidationError):
            periodize(k, 4.0, 0.0)  # pi/4 < gamma
