"""Compactly supported window kernels and their Fourier transforms.

The base window on [-gamma, gamma] is

    H(x) = cos^2(pi x / (2 gamma)),

whose transform (convention g(t) = integral G(x) exp(-i t x) dx throughout)
is

    h(t) = pi^2 sin(gamma t) / (t (pi^2 - gamma^2 t^2)),

with removable singularities at t = 0 and t = +-pi/gamma.  Two derived
kernels drive the sampled-energy identities:

* direct:   G = H*H,                 g(t) = h(t)^2
* inverse:  G = R^2 H*H + H'*H',     g(t) = (R^2 - t^2) h(t)^2

Closed forms of the convolutions, for unit gamma and y = |x| in [0, 2]:

    (H*H)(y)   = (2 - y)/4 + (2 - y) cos(pi y)/8 + 3 sin(pi y)/(8 pi)
    (H'*H')(y) = -(pi/8) (sin(pi y) + (2 - y) pi cos(pi y))

and the gamma scalings are (H*H)_gamma(x) = gamma * (H*H)_1(x/gamma),
(H'*H')_gamma(x) = (H'*H')_1(x/gamma) / gamma.  The quadrature oracle in
the test suite is the ground truth for these forms.

The kernel property lists pin G to vanish for |x| >= gamma although the
raw convolutions live on [-2 gamma, 2 gamma].  `G_eval` enforces the
pinned support; `convolution_eval` exposes the raw value.  The summation
identity in the sums module is exact for the raw convolution only, so
both conventions are kept and exercised.

`certify_constants` proves every constant in closed form and rounds it
outward; its docstring gives the arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import CertificationError, StructuralError, ValidationError, finite, positive

VARIANT_DIRECT = "direct"
VARIANT_INVERSE = "inverse"

# Width of the series window around each removable singularity of h,
# measured in the scaled variable u = gamma*t.  Naive evaluation loses all
# precision inside this window; a 4-term Taylor expansion keeps full
# accuracy (next omitted term is O(1e-32) relative).
_SING_WINDOW = 1e-4
# above this u, pi^2 - u^2 rounds to -u^2 and u^3 overflows from 5.6e102: divide by u thrice
_STAGED_FROM = 1e100

_PI2 = math.pi**2
_PI4 = math.pi**4
_PI6 = math.pi**6

# Taylor coefficients of phi(u) = pi^2 sin(u) / (u (pi^2 - u^2)) at u = 0,
# even powers u^0, u^2, u^4, u^6.
_T0 = (
    1.0,
    1.0 / _PI2 - 1.0 / 6.0,
    1.0 / _PI4 - 1.0 / (6.0 * _PI2) + 1.0 / 120.0,
    1.0 / _PI6 - 1.0 / (6.0 * _PI4) + 1.0 / (120.0 * _PI2) - 1.0 / 5040.0,
)
# Taylor coefficients of phi at u = pi in powers of v = u - pi.
_TPI = (
    0.5,
    -3.0 / (4.0 * math.pi),
    0.5 * (7.0 / (4.0 * _PI2) - 1.0 / 6.0),
    0.5 * (1.0 / (4.0 * math.pi) - 15.0 / (8.0 * math.pi**3)),
)


def _phi(u):
    """pi^2 sin(u)/(u (pi^2 - u^2)) for u >= 0, series-filled near 0 and pi.

    Formed in place in two arrays, out and the denominator den, with the
    operations and order of the closed form, so every double is the same.
    """
    u = np.asarray(u, dtype=float)
    out = np.empty_like(u)
    den = np.minimum(u, _STAGED_FROM, out=np.empty_like(u))
    # the closed form divides 0/0 at u = 0 and u = pi; the series overwrite those
    with np.errstate(divide="ignore", invalid="ignore"):
        np.multiply(den, den, out=out)
        np.subtract(_PI2, out, out=out)
        den *= out
        np.sin(u, out=out)
        out *= _PI2
        far = u > _STAGED_FROM
        if far.any():
            out[far] = -out[far] / u[far] / u[far] / u[far]
            den[far] = 1.0  # the division below keeps the staged quotient
        out /= den
    # u - pi is exact near pi (Sterbenz), so this holds both series windows
    near = u <= math.pi + _SING_WINDOW
    if near.any():
        v, fill = u[near], out[near]
        at0 = v < _SING_WINDOW
        v2 = v[at0] * v[at0]
        fill[at0] = _T0[0] + v2 * (_T0[1] + v2 * (_T0[2] + v2 * _T0[3]))
        atpi = np.abs(v - math.pi) < _SING_WINDOW
        w = v[atpi] - math.pi
        fill[atpi] = _TPI[0] + w * (_TPI[1] + w * (_TPI[2] + w * _TPI[3]))
        out[near] = fill
    return out


def _shaped(out, x):
    """out as a float for a scalar argument x, else the array."""
    return float(out) if np.ndim(x) == 0 else out


def h_transform(gamma: float, t):
    """Transform of the base window: integral of H(x) exp(-i t x) dx.

    Even in t, real valued, decays like |t|^-3.  Accepts scalars or arrays.
    """
    gamma = positive(gamma, "gamma")
    out = _phi(np.abs(gamma * np.asarray(t, dtype=float)))
    out *= gamma
    return _shaped(out, t)


def _unit_convolutions(y):
    """(H*H) and (H'*H') at unit gamma on y in [0, 2]; zero beyond.

    Both forms share sin(pi y) and cos(pi y), so each is computed once.
    """
    y = np.asarray(y, dtype=float)
    inside = y < 2.0
    ys = np.where(inside, y, 2.0)
    piy = math.pi * ys
    sin, cos = np.sin(piy), np.cos(piy)
    hh = (2.0 - ys) / 4.0 + (2.0 - ys) * cos / 8.0 + 3.0 * sin / (8.0 * math.pi)
    dd = -(math.pi / 8.0) * (sin + (2.0 - ys) * math.pi * cos)
    return np.where(inside, hh, 0.0), np.where(inside, dd, 0.0)


@dataclass(frozen=True)
class WindowKernel:
    """A window kernel descriptor with certified constants alpha, beta.

    Direct variant invariants:
      0 <= G(0) - G(x) <= alpha x^2; G(x) = 0 for |x| >= gamma;
      g >= 0 everywhere; g(t) >= beta for |t| <= pi/(2 gamma); alpha >= 1.
    Inverse variant invariants:
      G(0) - G(x) >= alpha x^2 for |x| <= gamma; G(x) = 0 for |x| >= gamma;
      G(0) > 0; g(t) <= 0 for |t| >= R; g <= beta everywhere; alpha <= G(0).
    `certify_constants` proves all of them in closed form.
    R belongs to the inverse variant; a certified direct kernel stores None.
    """

    variant: str
    gamma: float
    alpha: float
    beta: float
    R: float | None = None

    def __post_init__(self):
        if self.variant not in (VARIANT_DIRECT, VARIANT_INVERSE):
            raise StructuralError(f"unknown kernel variant {self.variant!r}")
        object.__setattr__(self, "gamma", positive(self.gamma, "gamma"))
        if self.variant == VARIANT_INVERSE:
            object.__setattr__(self, "R", positive(self.R, "R"))


def convolution_eval(kernel: WindowKernel, x):
    """Raw convolution value with natural support [-2 gamma, 2 gamma].

    Direct: (H*H)(x).  Inverse: R^2 (H*H)(x) + (H'*H')(x).
    """
    g = kernel.gamma
    hh, dd = _unit_convolutions(np.abs(np.asarray(x, dtype=float)) / g)
    if kernel.variant == VARIANT_DIRECT:
        out = g * hh
    else:
        with np.errstate(over="ignore"):  # at a subnormal gamma dd / g passes the double range: -inf
            dd /= g
        out = kernel.R * kernel.R * g * hh + dd
    return _shaped(out, x)


def G_eval(kernel: WindowKernel, x):
    """Kernel value with the pinned support: exactly 0 for |x| >= gamma."""
    xa = np.asarray(x, dtype=float)
    out = np.where(np.abs(xa) >= kernel.gamma, 0.0, convolution_eval(kernel, xa))
    return _shaped(out, x)


def g_transform(kernel: WindowKernel, t):
    """Transform of the kernel: h^2 (direct) or (R^2 - t^2) h^2 (inverse)."""
    out = np.asarray(h_transform(kernel.gamma, t))  # a new array: squared in place, as h ** 2 rounds
    if kernel.variant == VARIANT_DIRECT:
        out *= out
        return _shaped(out, t)
    ta = np.asarray(t, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        # R * R, which rounds as t * t does at t = R (C pow may not): g(R) is 0
        factor = np.asarray(kernel.R * kernel.R - ta * ta)
    # where t * t (or an uncertified R * R) overflows, g is (R h)^2 - (t h)^2
    finite = np.isfinite(factor)
    wide = None if finite.all() else ~finite
    if wide is not None:
        h = out[wide]
        g_wide = (kernel.R * h) ** 2 - (ta[wide] * h) ** 2
        factor[wide] = 0.0
    out *= out
    out *= factor
    if wide is not None:
        out[wide] = g_wide
    return _shaped(out, t)


def _outward(value: float, scale: float, roundings: int, toward: float) -> float:
    """value moved toward +-inf past the error of a formula with k roundings.

    k roundings (math.pi one, C pow two) on each path from the exact inputs
    err by at most k u scale/(1 - k u), u = 2^-53, scale being the formula
    with subtractions made additions (Higham, 2002, 3.1-3.3); the step 2 k u
    scale covers it, and nextafter its own rounding or 2^-1075 if subnormal.
    Infinities stay.
    """
    if math.isinf(value):
        return value
    return math.nextafter(value + math.copysign(roundings * 2.0**-52 * scale, toward), toward)


def certify_constants(
    variant: str,
    gamma: float,
    R: float | None = None,
    margin: float = 0.05,
) -> WindowKernel:
    """Certify alpha and beta in closed form, each rounded outward.

    H is even, nonnegative and supported on [-gamma, gamma], so
    h(t) = integral H(x) cos(t x) dx and |h(t)| <= h(0) = gamma.

    Direct kernel:
      * g = h^2 >= 0, and 0 <= G(0) - G(x) because G = H*H and
        G(0) - G(x) = (1/2 pi) integral g(t) (1 - cos t x) dt.
      * 1 - cos u <= u^2/2 and g >= 0 give G(0) - G(x) <= -G''(0) x^2/2
        = pi^2 x^2 / (8 gamma), with equality as x -> 0, so
        alpha = max(1, (1 + margin) pi^2 / (8 gamma)).
      * For 0 <= t <= pi/(2 gamma), |t x| <= pi/2 on the support, so h is
        positive and decreasing there: beta = (1 - margin) g(pi/(2 gamma)),
        and g(pi/(2 gamma)) = (8 gamma / (3 pi))^2.
    Inverse kernel, c = R^2 gamma^2:
      * g = (R^2 - t^2) h^2 <= c, so beta = (1 + margin) c; and g <= 0 for
        |t| >= R.
      * G(0) = (3c - pi^2)/(4 gamma), read from `convolution_eval`, must be
        positive.
      * With y = x/gamma, the unit convolutions hh = H*H and dd = H'*H' of
        `_unit_convolutions`, A = (hh(0) - hh(y))/y^2 and
        B = (dd(0) - dd(y))/y^2, the raw kernel has
        gamma^3 (G(0) - G(x))/x^2 = c A + B.  (A, B) tends to
        (A0, B0) = (pi^2/8, -pi^4/8) as y -> 0 and is (A1, B1) =
        (5/8, -3 pi^2/8) at y = 1.  On (0, 1), A >= A1, B >= B0 and
        (B1 - B0)(A - A1) + (A0 - A1)(B - B1) >= 0 (proved by interval
        arithmetic in tests/test_kernels.py, TestInverseAlphaProof), so
        (A, B) lies in a convex region with corners (A0, B0) and (A1, B1),
        and for every c > 0, c A + B is least at one of them.  So
        alpha = min((1 - margin) min(pi^2 (c - pi^2), 5c - 3 pi^2)/(8 gamma^3), G(0)).
        The pinned G(gamma) = 0 lies below the raw one, so the bound holds
        on all of [0, gamma].

    `_outward` counts the roundings of each closed form: direct alpha up
    (3), beta down (4); inverse beta up (2), alpha down (7 per limit, 5 for
    G(0)).  So every constant bounds its exact value even at margin 0.
    `margin` must be a finite real in [0, 1), else StructuralError.  A
    violated inequality raises CertificationError naming it: direct beta
    outside the double range; inverse g <= beta when R^2 or (R gamma)^2
    overflows; G(0) > 0; or G(0) - G(x) >= alpha x^2, when
    R gamma <= pi (or within the rounding step above it), reported with the
    ratio at x = gamma/10^4, next to the infimum at x -> 0.
    """
    if not 0.0 <= (margin := finite(margin, "margin")) < 1.0:
        raise StructuralError(f"margin must lie in [0, 1), got {margin!r}")
    probe = WindowKernel(variant=variant, gamma=gamma, alpha=1.0, beta=1.0, R=R)
    g = probe.gamma

    if variant == VARIANT_DIRECT:
        sup, b = _PI2 / (8.0 * g), 8.0 * g / (3.0 * math.pi)
        alpha = max(1.0, (1.0 + margin) * _outward(sup, sup, 3, math.inf))
        beta = (1.0 - margin) * _outward(b * b, b * b, 4, -math.inf)
        if not 0.0 < beta < math.inf:
            raise CertificationError(
                "inequality g(t) >= beta on [0, pi/(2 gamma)] violated",
                details={"inequality": "g >= beta", "point": math.pi / (2.0 * g)},
            )

    else:
        c = probe.R * g * (probe.R * g)
        if math.isinf(c) or math.isinf(probe.R * probe.R):
            raise CertificationError(
                "inequality g <= beta violated: R^2 or (R gamma)^2 overflows",
                details={"inequality": "g <= beta", "point": 0.0, "value": math.inf},
            )
        g_zero = float(convolution_eval(probe, 0.0))
        if not g_zero > 0.0:
            raise CertificationError(
                f"inequality G(0) > 0 violated: G(0) = {g_zero:.6g}",
                details={"inequality": "G(0) > 0", "point": 0.0, "value": g_zero},
            )

        def per_cube(v):  # v / (8 gamma^3), in stages so that gamma^3 cannot underflow
            return v / (8.0 * g) / g / g

        # the limits at x -> 0 and x -> gamma, each per_cube(a - b) with scale per_cube(a + b)
        ends = ((_PI2 * c, _PI2 * _PI2), (5.0 * c, 3.0 * _PI2))
        raw = min(_outward(per_cube(a - b), per_cube(a + b), 7, -math.inf) for a, b in ends)
        cap = _outward(g_zero, (0.75 * c + _PI2 / 4.0) / g, 5, -math.inf)
        alpha = min((1.0 - margin) * raw, cap)
        if not 0.0 < alpha < math.inf:
            x = g / 10000.0
            ratio = (g_zero - float(convolution_eval(probe, x))) / (x * x)
            raise CertificationError(
                "inequality G(0) - G(x) >= alpha x^2 on [0, gamma] violated",
                details={"inequality": "G(0)-G(x) >= alpha x^2", "point": x, "value": ratio},
            )
        beta = (1.0 + margin) * _outward(c, c, 2, math.inf)

    r = probe.R if variant == VARIANT_INVERSE else None
    return replace(probe, alpha=float(alpha), beta=float(beta), R=r)


def _within_period(kernel: WindowKernel, delta: float) -> None:
    """Refuse a step whose half period pi/delta is shorter than the pinned support gamma."""
    if math.pi / delta < kernel.gamma:
        raise ValidationError(
            "window exceeds period: pi/delta < gamma",
            details={"delta": delta, "gamma": kernel.gamma},
        )


def periodize(kernel: WindowKernel, delta: float, x: float) -> float:
    """2 pi/delta periodic extension of G, as a finite sum of shifted copies.

    Requires pi/delta >= gamma so the pinned support fits one period; then
    G_delta(x) = G(x) whenever |x| <= 2 pi/delta - gamma.
    """
    delta = positive(delta, "delta")
    _within_period(kernel, delta)
    period = 2.0 * math.pi / delta
    x = float(x)
    m_lo = math.ceil((-kernel.gamma - x) / period)
    m_hi = math.floor((kernel.gamma - x) / period)
    total = 0.0
    for m in range(m_lo, m_hi + 1):
        total += G_eval(kernel, x + m * period)
    return total
