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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CertificationError, StructuralError, ValidationError

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
    if not (gamma > 0.0):
        raise StructuralError(f"gamma must be positive, got {gamma}")
    u = np.abs(gamma * np.asarray(t, dtype=float))
    out = gamma * _phi(u)
    if np.ndim(t) == 0:
        return float(out)
    return out


def _conv_unit(y):
    """(H*H) at unit gamma on y in [0, 2]; zero beyond."""
    y = np.asarray(y, dtype=float)
    inside = y < 2.0
    ys = np.where(inside, y, 2.0)
    piy = math.pi * ys
    val = (2.0 - ys) / 4.0 + (2.0 - ys) * np.cos(piy) / 8.0 + 3.0 * np.sin(piy) / (8.0 * math.pi)
    return np.where(inside, val, 0.0)


def _dconv_unit(y):
    """(H'*H') at unit gamma on y in [0, 2]; zero beyond."""
    y = np.asarray(y, dtype=float)
    inside = y < 2.0
    ys = np.where(inside, y, 2.0)
    piy = math.pi * ys
    val = -(math.pi / 8.0) * (np.sin(piy) + (2.0 - ys) * math.pi * np.cos(piy))
    return np.where(inside, val, 0.0)


@dataclass(frozen=True)
class WindowKernel:
    """A window kernel descriptor with certified constants alpha, beta.

    Direct variant invariants:
      0 <= G(0) - G(x) <= alpha x^2; G(x) = 0 for |x| >= gamma;
      g >= 0 everywhere; g(t) >= beta for |t| <= pi/(2 gamma); alpha >= 1.
    Inverse variant invariants:
      G(0) - G(x) >= alpha x^2 for |x| <= gamma; G(x) = 0 for |x| >= gamma;
      G(0) > 0; g(t) <= 0 for |t| >= R; g <= beta everywhere; alpha <= G(0).
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
        if not (self.gamma > 0.0 and math.isfinite(self.gamma)):
            raise StructuralError(f"gamma must be positive, got {self.gamma}")
        if self.variant == VARIANT_INVERSE:
            if self.R is None or not (self.R > 0.0 and math.isfinite(self.R)):
                raise StructuralError("inverse kernel requires positive R")


def convolution_eval(kernel: WindowKernel, x):
    """Raw convolution value with natural support [-2 gamma, 2 gamma].

    Direct: (H*H)(x).  Inverse: R^2 (H*H)(x) + (H'*H')(x).
    """
    g = kernel.gamma
    y = np.abs(np.asarray(x, dtype=float)) / g
    if kernel.variant == VARIANT_DIRECT:
        out = g * _conv_unit(y)
    else:
        out = kernel.R**2 * g * _conv_unit(y) + _dconv_unit(y) / g
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


def _grid(lo: float, hi: float, n: int) -> np.ndarray:
    return np.linspace(lo, hi, n)


def certify_constants(
    variant: str,
    gamma: float,
    R: float | None = None,
    grid_points: int = 10001,
    margin: float = 0.05,
) -> WindowKernel:
    """Certify alpha and beta on verification grids with a safety margin.

    Grid-based certification: every type invariant is checked on >= 10^4
    points per relevant interval after applying the margin factor to the
    raw grid extremum.  A violated inequality raises CertificationError
    naming the inequality and the grid point.
    """
    if grid_points < 10001:
        raise StructuralError("certification requires at least 10001 grid points")
    probe = WindowKernel(variant=variant, gamma=gamma, alpha=1.0, beta=1.0, R=R)
    g = probe.gamma
    g_zero = G_eval(probe, 0.0)
    # rounding allowance for exact-zero comparisons on the grid
    tol = 8.0 * np.finfo(float).eps * max(abs(g_zero), 1.0)

    if variant == VARIANT_DIRECT:
        xs = _grid(0.0, 2.0 * g, grid_points)
        diffs = g_zero - G_eval(probe, xs)
        bad = np.flatnonzero(diffs < -tol)
        if bad.size:
            k = int(bad[0])
            raise CertificationError(
                "inequality 0 <= G(0) - G(x) violated",
                details={"inequality": "0 <= G(0)-G(x)", "point": float(xs[k])},
            )
        ratios = diffs[1:] / xs[1:] ** 2
        alpha = max(1.0, (1.0 + margin) * float(ratios.max()))
        bad = np.flatnonzero(diffs[1:] > alpha * xs[1:] ** 2 + tol)
        if bad.size:
            k = int(bad[0]) + 1
            raise CertificationError(
                "inequality G(0) - G(x) <= alpha x^2 violated",
                details={"inequality": "G(0)-G(x) <= alpha x^2", "point": float(xs[k])},
            )
        ts = _grid(0.0, math.pi / (2.0 * g), grid_points)
        gmin = float(np.min(g_transform(probe, ts)))
        beta = (1.0 - margin) * gmin
        if not beta > 0.0:
            raise CertificationError(
                "inequality g(t) >= beta on [0, pi/(2 gamma)] violated",
                details={"inequality": "g >= beta", "point": float(ts[np.argmin(g_transform(probe, ts))])},
            )
        wide = _grid(0.0, 50.0 * max(g, 1.0 / g), grid_points)
        gv = g_transform(probe, wide)
        bad = np.flatnonzero(gv < -tol)
        if bad.size:
            k = int(bad[0])
            raise CertificationError(
                "inequality g(t) >= 0 violated",
                details={"inequality": "g >= 0", "point": float(wide[k])},
            )

    else:
        if not g_zero > 0.0:
            raise CertificationError(
                f"inequality G(0) > 0 violated: G(0) = {g_zero:.6g}",
                details={"inequality": "G(0) > 0", "point": 0.0, "value": g_zero},
            )
        xs = _grid(0.0, g, grid_points)
        diffs = g_zero - G_eval(probe, xs)
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
        wide = _grid(0.0, max(3.0 * probe.R, 50.0 / g), grid_points)
        gv = g_transform(probe, wide)
        bad = np.flatnonzero(gv > beta + tol)
        if bad.size:
            k = int(bad[0])
            raise CertificationError(
                "inequality g(t) <= beta violated",
                details={"inequality": "g <= beta", "point": float(wide[k])},
            )
        beyond = _grid(probe.R, probe.R + 50.0 / g, grid_points)
        gv = g_transform(probe, beyond)
        bad = np.flatnonzero(gv > tol)
        if bad.size:
            k = int(bad[0])
            raise CertificationError(
                "inequality g(t) <= 0 for |t| >= R violated",
                details={"inequality": "g <= 0 beyond R", "point": float(beyond[k])},
            )

    return WindowKernel(
        variant=variant,
        gamma=gamma,
        alpha=float(alpha),
        beta=float(beta),
        R=R if variant == VARIANT_INVERSE else None,
    )


def periodize(kernel: WindowKernel, delta: float, x: float) -> float:
    """2 pi/delta periodic extension of G, as a finite sum of shifted copies.

    Requires pi/delta >= gamma so the pinned support fits one period; then
    G_delta(x) = G(x) whenever |x| <= 2 pi/delta - gamma.
    """
    delta = float(delta)
    if not (delta > 0.0 and math.isfinite(delta)):
        raise StructuralError(f"delta must be positive, got {delta}")
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
