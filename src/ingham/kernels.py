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

`certify_constants` proves every constant in closed form except the
inverse alpha, a minimum taken on one grid of [0, gamma]; its docstring
gives the arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import CertificationError, StructuralError, ValidationError, count, positive

VARIANT_DIRECT = "direct"
VARIANT_INVERSE = "inverse"

# Width of the series window around each removable singularity of h,
# measured in the scaled variable u = gamma*t.  Naive evaluation loses all
# precision inside this window; a 4-term Taylor expansion keeps full
# accuracy (next omitted term is O(1e-32) relative).
_SING_WINDOW = 1e-4

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
    """pi^2 sin(u)/(u (pi^2 - u^2)) for u >= 0, series-filled near 0 and pi."""
    u = np.asarray(u, dtype=float)
    out = np.empty_like(u)
    # the closed form divides 0/0 at u = 0 and u = pi; the series overwrite those
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(_PI2 * np.sin(u), u * (_PI2 - u * u), out=out)
    near0 = u < _SING_WINDOW
    if near0.any():
        u2 = u[near0] * u[near0]
        out[near0] = _T0[0] + u2 * (_T0[1] + u2 * (_T0[2] + u2 * _T0[3]))
    nearpi = np.abs(u - math.pi) < _SING_WINDOW
    if nearpi.any():
        v = u[nearpi] - math.pi
        out[nearpi] = _TPI[0] + v * (_TPI[1] + v * (_TPI[2] + v * _TPI[3]))
    return out


def h_transform(gamma: float, t):
    """Transform of the base window: integral of H(x) exp(-i t x) dx.

    Even in t, real valued, decays like |t|^-3.  Accepts scalars or arrays.
    """
    gamma = positive(gamma, "gamma")
    u = np.abs(gamma * np.asarray(t, dtype=float))
    out = gamma * _phi(u)
    if np.ndim(t) == 0:
        return float(out)
    return out


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
    `certify_constants` proves all of them in closed form, except the
    inverse alpha bound, which it checks on the nodes of one grid.
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
        out = kernel.R**2 * g * hh + dd / g
    if np.ndim(x) == 0:
        return float(out)
    return out


def G_eval(kernel: WindowKernel, x):
    """Kernel value with the pinned support: exactly 0 for |x| >= gamma."""
    xa = np.asarray(x, dtype=float)
    out = np.where(np.abs(xa) >= kernel.gamma, 0.0, convolution_eval(kernel, xa))
    if np.ndim(x) == 0:
        return float(out)
    return out


def g_transform(kernel: WindowKernel, t):
    """Transform of the kernel: h^2 (direct) or (R^2 - t^2) h^2 (inverse)."""
    h = h_transform(kernel.gamma, t)
    if kernel.variant == VARIANT_DIRECT:
        out = np.asarray(h) ** 2
    else:
        ta = np.asarray(t, dtype=float)
        out = (kernel.R**2 - ta * ta) * np.asarray(h) ** 2
    if np.ndim(t) == 0:
        return float(out)
    return out


def certify_constants(
    variant: str,
    gamma: float,
    R: float | None = None,
    grid_points: int = 10001,
    margin: float = 0.05,
) -> WindowKernel:
    """Certify alpha and beta, proving what has a proof and gridding the rest.

    H is even, nonnegative and supported on [-gamma, gamma], so
    h(t) = integral H(x) cos(t x) dx and |h(t)| <= h(0) = gamma.

    Direct kernel, all proved:
      * g = h^2 >= 0, and 0 <= G(0) - G(x) because G = H*H and
        G(0) - G(x) = (1/2 pi) integral g(t) (1 - cos t x) dt.
      * 1 - cos u <= u^2/2 and g >= 0 give G(0) - G(x) <= -G''(0) x^2/2
        = pi^2 x^2 / (8 gamma), with equality as x -> 0, so
        alpha = max(1, (1 + margin) pi^2 / (8 gamma)).
      * For 0 <= t <= pi/(2 gamma), |t x| <= pi/2 on the support, so h is
        positive and decreasing there: beta = (1 - margin) g(pi/(2 gamma)).
    Inverse kernel:
      * Proved: g = (R^2 - t^2) h^2 <= R^2 gamma^2, so
        beta = (1 + margin) R^2 gamma^2; and g <= 0 for |t| >= R.
      * Checked on the value: G(0) = (3/4) R^2 gamma - pi^2/(4 gamma) > 0.
      * Gridded: alpha = min((1 - margin) m, G(0)), where m is the minimum
        of (G(0) - G(x))/x^2 over `grid_points` nodes of [0, gamma], each of
        which must have G(0) - G(x) > 0.  This is the one grid left, and it
        is not padded between nodes.

    The margin also absorbs the rounding of the floating-point evaluation:
    at margin 0 the proved constants are the closed forms to a few ulps.
    `grid_points` must be an integer >= 10001 and `margin` must lie in
    [0, 1), else StructuralError; a violated inequality raises
    CertificationError naming it and the point.
    """
    if count(grid_points, "grid_points") < 10001:
        raise StructuralError("certification requires at least 10001 grid points")
    if not 0.0 <= margin < 1.0:
        raise StructuralError(f"margin must lie in [0, 1), got {margin!r}")
    probe = WindowKernel(variant=variant, gamma=gamma, alpha=1.0, beta=1.0, R=R)
    g = probe.gamma

    if variant == VARIANT_DIRECT:
        alpha = max(1.0, (1.0 + margin) * _PI2 / (8.0 * g))
        t_edge = math.pi / (2.0 * g)
        with np.errstate(over="ignore"):  # g overflows for gamma beyond ~1.6e154: refused below
            beta = (1.0 - margin) * g_transform(probe, t_edge)
        if not 0.0 < beta < math.inf:
            raise CertificationError(
                "inequality g(t) >= beta on [0, pi/(2 gamma)] violated",
                details={"inequality": "g >= beta", "point": t_edge},
            )

    else:
        xs = np.linspace(0.0, g, grid_points)
        vals = G_eval(probe, xs)
        g_zero = float(vals[0])
        if not g_zero > 0.0:
            raise CertificationError(
                f"inequality G(0) > 0 violated: G(0) = {g_zero:.6g}",
                details={"inequality": "G(0) > 0", "point": 0.0, "value": g_zero},
            )
        diffs = g_zero - vals
        ratios = diffs[1:] / xs[1:] ** 2
        k = int(np.argmin(ratios))
        raw = float(ratios[k])
        if not raw > 0.0:
            raise CertificationError(
                "inequality G(0) - G(x) >= alpha x^2 on [0, gamma] violated",
                details={"inequality": "G(0)-G(x) >= alpha x^2", "point": float(xs[k + 1]), "value": raw},
            )
        alpha = min((1.0 - margin) * raw, g_zero)
        bad = np.flatnonzero(diffs[1:] <= 0.0)
        if bad.size:
            k = int(bad[0]) + 1
            raise CertificationError(
                "inequality G(0) - G(x) > 0 violated",
                details={"inequality": "G(0)-G(x) > 0", "point": float(xs[k])},
            )
        beta = (1.0 + margin) * float(probe.R**2 * g * g)

    r = probe.R if variant == VARIANT_INVERSE else None
    return replace(probe, alpha=float(alpha), beta=float(beta), R=r)


def periodize(kernel: WindowKernel, delta: float, x: float) -> float:
    """2 pi/delta periodic extension of G, as a finite sum of shifted copies.

    Requires pi/delta >= gamma so the pinned support fits one period; then
    G_delta(x) = G(x) whenever |x| <= 2 pi/delta - gamma.
    """
    delta = positive(delta, "delta")
    if math.pi / delta < kernel.gamma:
        raise ValidationError(
            "window exceeds period: pi/delta < gamma",
            details={"delta": delta, "gamma": kernel.gamma},
        )
    period = 2.0 * math.pi / delta
    x = float(x)
    m_lo = math.ceil((-kernel.gamma - x) / period)
    m_hi = math.floor((kernel.gamma - x) / period)
    total = 0.0
    for m in range(m_lo, m_hi + 1):
        total += G_eval(kernel, x + m * period)
    return total
