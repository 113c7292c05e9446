"""Frequency-domain Meyer mother wavelet and derived quantities.

The wavelet is defined directly by its Fourier transform: a smooth even
envelope supported on the ring 2*pi/3 <= |xi| <= 8*pi/3, times the half-shift
phase e^{i xi/2}, normalized to unit L2 norm. The squared envelopes of the
dyadic dilates tile the frequency axis exactly, which is what every
reconstruction identity downstream relies on.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

TAU = 2.0 * np.pi
RING_LOWER = TAU / 3.0
RING_UPPER = 4.0 * TAU / 3.0

# taper(x) = x^4 (35 - 84 x + 70 x^2 - 20 x^3), in np.polyval coefficient order.
# Degree 7 gives a C^3 envelope; the smoothness sets the decay rate of the
# fractional antiderivatives built on top of it.
_TAPER_COEFFS = (-20.0, 70.0, -84.0, 35.0, 0.0, 0.0, 0.0, 0.0)


def _scalar_like(x: np.ndarray, template: object) -> object:
    if np.isscalar(template) or getattr(template, "ndim", 1) == 0:
        return x[()]
    return x


def taper(x: object) -> object:
    """Smooth ramp on [0,1] with taper(x) + taper(1-x) = 1; clamped outside."""
    arr = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    return _scalar_like(np.polyval(_TAPER_COEFFS, arr), x)


def envelope(xi: object) -> object:
    """Real even bump with sum_j envelope(2^-j xi)^2 = 1 for xi != 0.

    Exactly zero outside [RING_LOWER, RING_UPPER] in |xi|.
    """
    a = np.abs(np.asarray(xi, dtype=float))
    rising = np.sin(0.5 * np.pi * taper(3.0 * a / TAU - 1.0))
    # taper can round to 1 + ulp, pushing cos a hair below zero; clamp
    falling = np.maximum(np.cos(0.5 * np.pi * taper(1.5 * a / TAU - 1.0)), 0.0)
    out = np.where(a <= 2.0 * RING_LOWER, rising, falling)
    out = np.where((a < RING_LOWER) | (a > RING_UPPER), 0.0, out)
    return _scalar_like(out, xi)


def psi_hat(xi: object) -> object:
    """Fourier transform of the mother wavelet; unit L2 norm."""
    arr = np.asarray(xi, dtype=float)
    out = envelope(arr) * np.exp(0.5j * arr) / np.sqrt(TAU)
    return _scalar_like(np.asarray(out), xi)


def check_alpha(alpha: float) -> float:
    """alpha as a float, or ValueError unless 0 < alpha <= 2."""
    alpha = float(alpha)
    if not 0.0 < alpha <= 2.0:
        raise ValueError(f"alpha must lie in (0, 2], got {alpha}")
    return alpha


def psi_hat_ajk(alpha: float, j: int, k: int, xi: object) -> object:
    """Dilated/translated copy 2^(-j/alpha) e^(-i k 2^-j xi) psi_hat(2^-j xi)."""
    alpha = check_alpha(alpha)
    arr = np.asarray(xi, dtype=float)
    scaled = np.ldexp(arr, -int(j))
    out = (2.0 ** (-j / alpha)) * np.exp(-1j * k * scaled) * psi_hat(scaled)
    return _scalar_like(np.asarray(out), xi)


@lru_cache(maxsize=32)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    # one eigenvalue solve per node count, shared by every interval
    return np.polynomial.legendre.leggauss(n)


@lru_cache(maxsize=128)
def gl_nodes(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights on [a, b]."""
    x, w = _leggauss(int(n))
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


def alpha_norm_psi_hat(alpha: float, nodes: int = 400) -> float:
    """L^alpha norm of psi_hat, by Gauss-Legendre on the two envelope pieces.

    Relative accuracy is far below 1e-10 for nodes >= 200 because the
    integrand is smooth on each piece.
    """
    alpha = check_alpha(alpha)
    total = 0.0
    for a, b in ((RING_LOWER, 2.0 * RING_LOWER), (2.0 * RING_LOWER, RING_UPPER)):
        x, w = gl_nodes(a, b, nodes)
        total += float(w @ (envelope(x) / np.sqrt(TAU)) ** alpha)
    return (2.0 * total) ** (1.0 / alpha)


def partition_residual(xi: object, j_min: int = -10, j_max: int = 10) -> float:
    """Max deviation from 1 of sum_j envelope(2^-j xi)^2 over the given xi.

    The sum equals TAU * sum_j |psi_hat(2^-j xi)|^2, so this is the tiling
    check written for the unit-L2 normalization recorded above.
    """
    arr = np.atleast_1d(np.asarray(xi, dtype=float))
    acc = np.zeros_like(arr)
    for j in range(j_min, j_max + 1):
        acc += np.asarray(envelope(np.ldexp(arr, -j))) ** 2
    return float(np.max(np.abs(acc - 1.0)))
