import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given
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
from ingham.cli import _kernel_from


def window(x, gamma):
    return np.where(np.abs(x) <= gamma, np.cos(np.pi * x / (2.0 * gamma)) ** 2, 0.0)


def h_oracle(gamma, t):
    """Quadrature transform of the raised-cosine window."""
    val, err = quad(lambda x: math.cos(t * x) * math.cos(math.pi * x / (2 * gamma)) ** 2,
                    -gamma, gamma, limit=400, epsabs=1e-13, epsrel=1e-13)
    assert err < 5e-11
    return val


def _phi_closed_form(u):
    """kernels._phi as first written, three masks and new arrays: the reference for its in-place form."""
    u = np.asarray(u, dtype=float)
    out = np.empty_like(u)
    capped = np.minimum(u, kernels._STAGED_FROM)
    with np.errstate(divide="ignore", invalid="ignore"):
        top = kernels._PI2 * np.sin(u)
        np.divide(top, capped * (kernels._PI2 - capped * capped), out=out)
    far = u > kernels._STAGED_FROM
    if far.any():
        out[far] = -top[far] / u[far] / u[far] / u[far]
    near0 = u < kernels._SING_WINDOW
    if near0.any():
        u2, c = u[near0] * u[near0], kernels._T0
        out[near0] = c[0] + u2 * (c[1] + u2 * (c[2] + u2 * c[3]))
    nearpi = np.abs(u - math.pi) < kernels._SING_WINDOW
    if nearpi.any():
        v, c = u[nearpi] - math.pi, kernels._TPI
        out[nearpi] = c[0] + v * (c[1] + v * (c[2] + v * c[3]))
    return out


def _h_closed_form(gamma, t):
    out = gamma * _phi_closed_form(np.abs(gamma * np.asarray(t, dtype=float)))
    return float(out) if np.ndim(t) == 0 else out


def _g_closed_form(kernel, t):
    h = _h_closed_form(kernel.gamma, t)
    if kernel.variant == "direct":
        out = np.asarray(h) ** 2
    else:
        ta = np.asarray(t, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            out = (kernel.R * kernel.R - ta * ta) * np.asarray(h) ** 2
            # where t * t overflows, the product above is inf * 0: g is (R h)^2 - (t h)^2
            out = np.where(np.isinf(ta * ta), (kernel.R * np.asarray(h)) ** 2 - (ta * h) ** 2, out)
    return float(out) if np.ndim(t) == 0 else out


class TestTransform:
    @pytest.mark.parametrize("name", ["phi", "h", "g_direct", "g_inverse"])
    def test_same_doubles_as_the_closed_form(self, name):
        # both series windows, their edges, the staged branch above 1e100, and t^2 overflowing
        u = np.array([0.0, 1e-5, math.pi - 5e-5, math.pi, math.pi + 5e-5, 1.0, 1e3, 1e100, 2e100, 1e300])
        gamma = 1.3
        got, ref = {
            "phi": (kernels._phi, _phi_closed_form),
            "h": (lambda t: h_transform(gamma, t), lambda t: _h_closed_form(gamma, t)),
            "g_direct": (lambda t: g_transform(certify_constants("direct", gamma), t),
                         lambda t: _g_closed_form(certify_constants("direct", gamma), t)),
            "g_inverse": (lambda t: g_transform(certify_constants("inverse", gamma, R=math.pi), t),
                          lambda t: _g_closed_form(certify_constants("inverse", gamma, R=math.pi), t)),
        }[name]
        args = u if name == "phi" else np.concatenate((u, -u)) / gamma

        def run(f, x):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                out = f(x)
            return type(out), np.asarray(out).tobytes(), [w.category for w in caught]

        for arg in [args, args.reshape(2, -1), *args.tolist(), *map(np.array, args.tolist())]:
            kept = np.array(arg)
            assert run(got, arg) == run(ref, kept.copy())
            assert np.asarray(arg).tobytes() == kept.tobytes()  # the argument is left alone

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

    @pytest.mark.parametrize("t", [1e100, 2e100, 6e102, 1e150, -1e300])
    def test_huge_argument_against_mpmath(self, t):
        # u (pi^2 - u^2) overflows above u ~ 5.6e102: no warning, and the true value, not 0
        got = h_transform(1.0, t)
        with mp.workdps(50):
            u = abs(mp.mpf(t))
            ref = mp.pi**2 * mp.sin(u) / (u * (mp.pi**2 - u * u))
            assert abs(got - ref) <= 1e-15 * abs(ref) + mp.mpf(2.0**-1074)

    @pytest.mark.parametrize("t", [1e150, 2e150])
    def test_inverse_g_at_huge_R(self, t):
        # R^2 is a double but u (pi^2 - u^2) is not: g within the least subnormal of the truth
        k = certify_constants("inverse", 1.0, R=1e150)
        got = g_transform(k, t)
        with mp.workdps(50):
            u = mp.mpf(t)
            h = mp.pi**2 * mp.sin(u) / (u * (mp.pi**2 - u * u))
            assert abs(got - (mp.mpf(k.R) ** 2 - u * u) * h * h) <= mp.mpf(2.0**-1074)

    @pytest.mark.parametrize(
        "gamma, t",
        [(1.0, t) for t in (1.35e154, 1e200, -1e300, 1.7e308)]
        + [(1e-300, t) for t in (1.35e154, 1e200, -1e300, 2e300)],
    )
    def test_inverse_g_where_t_squared_overflows(self, gamma, t):
        # g = (R h)^2 - (t h)^2 with no warning: below the least subnormal at gamma 1, and at
        # gamma 1e-300, where h is a normal double, a plain negative double
        k = WindowKernel("inverse", gamma, alpha=1.0, beta=1.0, R=4.7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = g_transform(k, t)
            assert g_transform(k, np.array([t, 1.0]))[0] == got
        with mp.workdps(60):
            u = abs(mp.mpf(gamma) * mp.mpf(t))
            h = mp.mpf(gamma) * mp.pi**2 * mp.sin(u) / (u * (mp.pi**2 - u * u))
            ref = (mp.mpf(k.R) ** 2 - mp.mpf(t) ** 2) * h * h
            assert abs(got - ref) <= 4e-15 * abs(ref) + mp.mpf(2.0**-1074)
        if gamma == 1e-300:
            assert got < -1e-300

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
        # certification uses no grid, so the keyword is gone: every value is refused
        with pytest.raises(TypeError, match="grid_points"):
            certify_constants(variant, 1.5, R=R, grid_points=grid_points)

    def test_inverse_pinch_reports_ratio_next_to_zero(self):
        with pytest.raises(CertificationError) as err:
            certify_constants("inverse", 2.0, R=1.5)
        x = 2.0 / 10000.0
        k = WindowKernel("inverse", 2.0, 1.0, 1.0, R=1.5)
        ratio = (float(convolution_eval(k, 0.0)) - float(convolution_eval(k, x))) / (x * x)
        assert err.value.details == {"inequality": "G(0)-G(x) >= alpha x^2", "point": x, "value": ratio}
        assert ratio < 0.0

    def test_inverse_refused_exactly_up_to_r_gamma_pi(self):
        # math.pi lies below pi, so R gamma = math.pi is refused; 1e-12 above pi certifies
        with pytest.raises(CertificationError, match=r"G\(0\) - G\(x\)"):
            certify_constants("inverse", 1.0, R=math.pi)
        k = certify_constants("inverse", 1.0, R=math.pi * (1.0 + 1e-12), margin=0.0)
        assert 0.0 < k.alpha < 1e-10

    @pytest.mark.parametrize("gamma", [1e-165, 1e-200])
    def test_direct_beta_underflow_refused(self, gamma):
        with pytest.raises(CertificationError, match=r"g\(t\) >= beta"):
            certify_constants("direct", gamma)

    @pytest.mark.parametrize("gamma", [1e155, 1e200, 1e300])
    def test_direct_beta_overflow_refused_without_warning(self, gamma):
        # g(pi/(2 gamma)) = (8 gamma/(3 pi))^2 overflows; an infinite beta bounds nothing
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CertificationError, match=r"g\(t\) >= beta") as err:
                certify_constants("direct", gamma)
        assert err.value.details == {"inequality": "g >= beta", "point": math.pi / (2.0 * gamma)}

    @pytest.mark.parametrize(
        "gamma,R", [(1.0, 1e160), (1e10, 1e150), (1e-160, 1e160)], ids=["both", "R-gamma", "R"]
    )
    def test_inverse_overflow_refused_without_warning(self, gamma, R):
        # an infinite R^2 or (R gamma)^2 makes G(0), beta and g infinite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CertificationError, match=r"R\^2 or \(R gamma\)\^2 overflows") as err:
                certify_constants("inverse", gamma, R=R)
        assert err.value.details == {"inequality": "g <= beta", "point": 0.0, "value": math.inf}

    def test_inverse_large_finite_kept(self):
        k = certify_constants("inverse", 1.0, R=1e150)
        assert 0.0 < k.alpha < k.beta < math.inf
        assert 0.0 < g_transform(k, 0.0) <= k.beta

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
    # R**2 (C pow) rounds above R * R here, which once left g(R) = +9.2e-21
    @example(gamma=2.5636029328462024, c=3.0218638909965154, margin=0.0)
    def test_inverse_g_bounded_and_nonpositive_beyond_R(self, gamma, c, margin):
        R = c * math.pi / gamma
        k = certify_constants("inverse", gamma, R=R, margin=margin)
        ts = np.linspace(0.0, 3.0 * R + 50.0 / gamma, 40001)
        gv = np.asarray(g_transform(k, ts))
        assert np.all(gv <= k.beta * (1.0 + 4.0 * np.finfo(float).eps))
        beyond = np.linspace(R, R + 50.0 / gamma, 20001)
        assert np.all(np.asarray(g_transform(k, beyond)) <= 0.0)


def _dd_unit(y):
    """(H'*H') at unit gamma on [0, 2], in mpmath."""
    return -(mp.pi / 8) * (mp.sin(mp.pi * y) + (2 - y) * mp.pi * mp.cos(mp.pi * y))


def _inverse_G(gamma, R, x):
    """The raw inverse kernel R^2 (H*H) + H'*H' at x, in mpmath."""
    return R**2 * gamma * _hh_unit(x / gamma) + _dd_unit(x / gamma) / gamma


class TestOutwardRounding:
    """At margin 0 each constant still bounds its exact value, in 40-digit mpmath."""

    def test_pi_squared_is_one_rounding_of_pi_times_pi(self):
        # the rounding counts of certify_constants assume this
        assert kernels._PI2 == math.pi * math.pi

    @pytest.mark.parametrize("gamma", [0.3, 0.7, 1.0, 1.2, 1.29])
    def test_direct_alpha_above_supremum(self, gamma):
        alpha = certify_constants("direct", gamma, margin=0.0).alpha
        with mp.workdps(40):
            assert alpha >= mp.pi**2 / (8 * mp.mpf(gamma))

    @pytest.mark.parametrize("gamma", [0.3, 1.0, 1.5, 2.5, 1e-150, 1e150])
    def test_direct_beta_below_minimum(self, gamma):
        beta = certify_constants("direct", gamma, margin=0.0).beta
        with mp.workdps(40):
            assert beta <= (8 * mp.mpf(gamma) / (3 * mp.pi)) ** 2

    @pytest.mark.parametrize("gamma,R", [(1.0, 3.3), (1.5, 3.14159), (1.0, 4.7), (0.3, 20.0)])
    def test_inverse_beta_above_supremum(self, gamma, R):
        beta = certify_constants("inverse", gamma, R=R, margin=0.0).beta
        with mp.workdps(40):
            assert beta >= (mp.mpf(R) * mp.mpf(gamma)) ** 2

    @pytest.mark.parametrize(
        "gamma, R, branch",
        # (0.5, 9.5) is capped at G(0)
        [(1.0, 3.3, 0), (2.0, 1.7, 0), (1.5, 3.14159, 1), (1.0, 4.7, 1), (0.5, 9.5, 1)],
    )
    def test_inverse_alpha_below_infimum(self, gamma, R, branch):
        alpha = certify_constants("inverse", gamma, R=R, margin=0.0).alpha
        with mp.workdps(60):
            gm, rm = mp.mpf(gamma), mp.mpf(R)
            c = (rm * gm) ** 2
            ends = (mp.pi**2 * (c - mp.pi**2), 5 * c - 3 * mp.pi**2)
            inf = min(ends) / (8 * gm**3)
            assert ends.index(min(ends)) == branch
            # the infimum is the ratio's limit at that end: x -> 0 or x -> gamma
            x = mp.mpf("1e-18") if branch == 0 else gm
            ratio = (_inverse_G(gm, rm, 0) - _inverse_G(gm, rm, x)) / x**2
            assert abs(ratio - inf) < mp.mpf("1e-15") * abs(inf)
            g0 = _inverse_G(gm, rm, 0)
            assert alpha <= inf and alpha <= g0
            # and no further below than the rounding step, which scales with |terms|
            scale = max(mp.pi**2 * (c + mp.pi**2), 5 * c + 3 * mp.pi**2) / (8 * gm**3)
            assert alpha >= min(inf, g0) - mp.mpf("1e-14") * max(scale, g0)


def _iv_series(order):
    """Interval Taylor coefficients at 0 of A(y) and B(y), degrees 0..order.

    A(y) = (hh(0) - hh(y))/y^2 and B(y) = (dd(0) - dd(y))/y^2, from the
    series of cos(pi y) and sin(pi y) in the closed forms of hh and dd.
    """
    iv = mp.iv
    pi = iv.pi
    fact = [iv.mpf(1)]
    for n in range(1, order + 3):
        fact.append(fact[-1] * n)

    def cos_c(n):
        return iv.mpf(0) if n < 0 or n % 2 else (-1) ** (n // 2) * pi**n / fact[n]

    def sin_c(n):
        return iv.mpf(0) if n % 2 == 0 else (-1) ** (n // 2) * pi**n / fact[n]

    a = [-((2 * cos_c(n) - cos_c(n - 1)) / 8 + 3 * sin_c(n) / (8 * pi)) for n in range(2, order + 3)]
    b = [(pi / 8) * (sin_c(n) + 2 * pi * cos_c(n) - pi * cos_c(n - 1)) for n in range(2, order + 3)]
    return a, b


class TestInverseAlphaProof:
    """The three inequalities behind the inverse alpha, proved by interval arithmetic.

    On (0, 1): A >= A1, B >= B0 and (B1 - B0)(A - A1) + (A0 - A1)(B - B1) >= 0,
    with A0 = pi^2/8, A1 = 5/8, B0 = -pi^4/8, B1 = -3 pi^2/8
    (`certify_constants` draws its closed form from them).  Each is
    f(y) = p A + q B + r, a power series whose coefficient of y^k is at
    most (|p| + |q|) pi^(k+4)/(k+1)! in size, so past degree N the
    series tail on [0, 1] is below 2 (|p| + |q|) pi^(N+5)/(N+2)!, and that
    of f' below 2 (|p| + |q|) pi^(N+5)/(N+1)!.  On each cell Y of a
    partition of [0, 1], the mean value form f(m) + f'(Y)(Y - m) must lie
    above 0.  Where f vanishes at an end (y = 0 or 1), the Taylor
    enclosure there is f(y) = f'(xi)(y - end): f' must keep the sign that
    makes f positive on the end cell.
    """

    ORDER = 40
    EDGE = mp.mpf("0.05")

    @pytest.fixture(autouse=True)
    def _iv_precision(self):
        # mpmath.iv keeps its precision in a global context: set it here, restore it after
        old = mp.iv.dps
        mp.iv.dps = 50
        yield
        mp.iv.dps = old

    def test_three_inequalities_hold_on_the_unit_interval(self):
        iv = mp.iv
        with mp.workdps(50):
            a, b = _iv_series(self.ORDER)
            pi = iv.pi
            a0, a1, b0, b1 = pi**2 / 8, iv.mpf(5) / 8, -(pi**4) / 8, -3 * pi**2 / 8
            n = self.ORDER
            unit = iv.mpf([-1, 1])
            tail_v = 2 * pi ** (n + 5) / iv.factorial(n + 2) * unit
            tail_d = 2 * pi ** (n + 5) / iv.factorial(n + 1) * unit

            def horner(coeffs, y):
                out = iv.mpf(0)
                for c in reversed(coeffs):
                    out = out * y + c
                return out

            # name -> (p, q, r, ends where f vanishes)
            forms = {
                "A >= A1": (1, 0, -a1, (1,)),
                "B >= B0": (0, 1, -b0, (0,)),
                "line": (b1 - b0, a0 - a1, -(b1 - b0) * a1 - (a0 - a1) * b1, (0, 1)),
            }
            cuts = [mp.mpf(0), self.EDGE] + [mp.mpf(k) / 100 for k in range(6, 95)] + [1 - self.EDGE, mp.mpf(1)]
            for name, (p, q, r, zeros) in forms.items():
                coeffs = [p * x + q * y for x, y in zip(a, b)]
                coeffs[0] += r
                slope_coeffs = [k * c for k, c in enumerate(coeffs)][1:]
                width = abs(iv.mpf(p)).b + abs(iv.mpf(q)).b

                def value(y):
                    return horner(coeffs, y) + width * tail_v

                def slope(y):
                    return horner(slope_coeffs, y) + width * tail_d

                for end in zeros:
                    assert 0 in value(iv.mpf(end)), (name, end)
                for lo, hi in zip(cuts, cuts[1:]):
                    cell = iv.mpf([lo, hi])
                    if lo == 0 and 0 in zeros:
                        assert slope(cell).a > 0, (name, lo, hi)
                    elif hi == 1 and 1 in zeros:
                        assert slope(cell).b < 0, (name, lo, hi)
                    else:
                        mid = iv.mpf((lo + hi) / 2)
                        assert (value(mid) + slope(cell) * (cell - mid)).a > 0, (name, lo, hi)

    @pytest.mark.parametrize("y", ["0.01", "0.37", "0.5", "0.99"])
    def test_series_match_closed_forms(self, y):
        iv = mp.iv
        with mp.workdps(50):
            a, b = _iv_series(self.ORDER)
            ym = mp.mpf(y)
            series_a = sum(c * iv.mpf(y) ** k for k, c in enumerate(a))
            series_b = sum(c * iv.mpf(y) ** k for k, c in enumerate(b))
            closed_a = (_hh_unit(0) - _hh_unit(ym)) / ym**2
            closed_b = (_dd_unit(0) - _dd_unit(ym)) / ym**2
            assert abs(series_a.mid - closed_a) < mp.mpf("1e-25")
            assert abs(series_b.mid - closed_b) < mp.mpf("1e-25")

    @given(st.floats(0.3, 3.0), st.floats(1.0, 4.0, exclude_min=True))
    def test_margin0_alpha_holds_at_both_ends(self, gamma, s):
        R = s * math.pi / gamma
        try:
            k = certify_constants("inverse", gamma, R=R, margin=0.0)
        except CertificationError:
            # refused only where R gamma <= pi, or within the rounding step above it
            assert R * gamma <= math.pi * (1.0 + 1e-13)
            return
        with mp.workdps(50):
            gm, rm = mp.mpf(gamma), mp.mpf(R)
            g0 = _inverse_G(gm, rm, 0)
            near = [mp.mpf(d) for d in ("1e-6", "1e-8", "1e-12")]
            for x in near + [gm - d for d in near] + [gm]:
                assert g0 - _inverse_G(gm, rm, x) >= k.alpha * x**2, float(x)
        xs = np.linspace(0.0, gamma, 4001)[1:]
        g0 = float(convolution_eval(k, 0.0))
        diffs = g0 - np.asarray(convolution_eval(k, xs))
        assert np.all(diffs >= k.alpha * xs**2 - 1e-12 * g0)


class TestCertificationWork:
    """Certification evaluates no kernel function (direct) or G at 0 (inverse)."""

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
            ("direct", None, 10001, [], []),
            ("direct", None, 30001, [], []),
            ("inverse", 3.14159, 10001, [], [1]),
            ("inverse", 3.14159, 30001, [], [1]),
        ],
    )
    def test_points_evaluated(self, monkeypatch, variant, R, grid_points, g_points, x_points):
        # a kernel config that still names the old grid size is certified with the same work
        g_counts = self.point_counts(monkeypatch, "g_transform")
        x_counts = self.point_counts(monkeypatch, "convolution_eval")
        certify_constants(variant, 1.5, R=R)
        assert (g_counts, x_counts) == (g_points, x_points)
        g_counts.clear()
        x_counts.clear()
        _kernel_from({"variant": variant, "gamma": 1.5, "R": R, "grid_points": grid_points})
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
