"""Reference computations made apart from the package under test.

Every check of the benchmark compares the package's output with one of these,
with a closed form, or with a property the method must have. Nothing here
imports stablesheet: numpy and scipy only.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate


# --- the one-axis scale integral kappa(alpha, v) -------------------------------
#
# kappa(alpha, v) = int_R |e^{i lam} - 1|^alpha |lam|^(-alpha v - 1) d lam.


def kappa_closed(H: float) -> float:
    """kappa(2, H) = 2 pi / (Gamma(2H + 1) sin(pi H)), the Gaussian case."""
    H = float(H)
    return 2.0 * math.pi / (math.gamma(2.0 * H + 1.0) * math.sin(math.pi * H))


def kappa_quad(alpha: float, v: float, periods: int = 400) -> float:
    """kappa(alpha, v) by adaptive quadrature (scipy.integrate.quad).

    With lam = 2u the integral is 2^(1 + alpha - beta) int_0^inf |sin u|^alpha
    u^(-beta - 1) du, beta = alpha v. [0, pi] carries the endpoint singularity
    u^(alpha - beta - 1) as an algebraic weight; each later half-period is one
    quad call; beyond T = periods * pi the integrand averages to
    mean(|sin|^alpha) u^(-beta - 1), whose integral is mean * T^-beta / beta.
    The neglected remainder is O(T^(-beta - 2)).
    """
    alpha, beta = float(alpha), float(alpha) * float(v)
    if not (0.0 < alpha <= 2.0 and 0.0 < beta < alpha):
        raise ValueError("need 0 < alpha <= 2 and 0 < alpha v < alpha")

    def sinc_power(u: float) -> float:
        return (math.sin(u) / u) ** alpha if u > 0.0 else 1.0

    def integrand(u: float) -> float:
        return abs(math.sin(u)) ** alpha * u ** (-beta - 1.0)

    total, _ = integrate.quad(sinc_power, 0.0, math.pi, weight="alg",
                              wvar=(alpha - beta - 1.0, 0.0))
    for k in range(1, periods):
        part, _ = integrate.quad(integrand, k * math.pi, (k + 1) * math.pi)
        total += part
    mean_sin, _ = integrate.quad(lambda u: math.sin(u) ** alpha, 0.0, math.pi)
    T = periods * math.pi
    total += (mean_sin / math.pi) * T ** (-beta) / beta
    return 2.0 ** (1.0 + alpha - beta) * total


def point_scale(t, H, alpha: float, kappa) -> float:
    """Scale sigma of the field at t: sigma^alpha = prod |t_l|^(alpha H_l) kappa(alpha, H_l)."""
    acc = 1.0
    for tl, hl in zip(t, H):
        acc *= abs(float(tl)) ** (alpha * float(hl)) * kappa(float(hl))
    return acc ** (1.0 / alpha)


# --- direct kernel sum over an atom pool ---------------------------------------


def direct_sum(points, weights, t, H, alpha: float) -> tuple:
    """Sum_a Re[w_a prod_l (e^{i t_l x_al} - 1) |x_al|^(-H_l - 1/alpha)].

    Returns (value, scale) where scale = sum_a |term_a| bounds the rounding
    error of any summation order, so relative agreement is judged against it.
    A zero frequency carries no mass.
    """
    points = np.asarray(points, dtype=float)
    terms = np.asarray(weights, dtype=complex).copy()
    for axis in range(points.shape[1]):
        x = points[:, axis]
        safe = np.where(x == 0.0, 1.0, np.abs(x))
        factor = (np.exp(1j * float(t[axis]) * x) - 1.0) * safe ** (-float(H[axis]) - 1.0 / alpha)
        terms *= np.where(x == 0.0, 0.0, factor)
    return float(np.sum(terms.real)), float(np.sum(np.abs(terms)))


# --- the series' projection of one atom, in closed form ---------------------------
#
# The wavelet series is the projection of the kernel K_t(xi) = (e^{i t xi} - 1)
# |xi|^(-H - 1/alpha) onto the Meyer basis, read at each atom's frequency x.
# With every translation k kept, Poisson summation gives level j in closed
# form: (P_j K_t)(x) = sum_m K_t(x + 2 pi m 2^j) env(a) env(a + 2 pi m) (-1)^m,
# a = 2^-j x. Summed over j <= n, the aliased terms m != 0 of adjacent levels
# cancel, except those of level n's falling edge 4pi/3 < |a| < 8pi/3 (m = -+2),
# whose partners sit at level n + 1. No table, block or translation sum enters.


def _taper(x: np.ndarray) -> np.ndarray:
    x = np.clip(x, 0.0, 1.0)
    return x**4 * (35.0 - 84.0 * x + 70.0 * x**2 - 20.0 * x**3)


def meyer_envelope(xi) -> np.ndarray:
    """The even Meyer bump on 2pi/3 <= |xi| <= 8pi/3 whose squared dilates tile the line."""
    a = np.abs(np.asarray(xi, dtype=float))
    rising = np.sin(0.5 * math.pi * _taper(1.5 * a / math.pi - 1.0))
    falling = np.cos(0.5 * math.pi * _taper(0.75 * a / math.pi - 1.0))
    out = np.where(a <= 4.0 * math.pi / 3.0, rising, falling)
    return np.where((a < 2.0 * math.pi / 3.0) | (a > 8.0 * math.pi / 3.0), 0.0, out)


def levels_up_to(x, n: int) -> np.ndarray:
    """sum_{j <= n} env(2^-j x)^2: 1 up to |x| = 2^n 4pi/3, 0 from 2^n 8pi/3,
    and the squared falling edge of level n in between."""
    a = np.abs(np.asarray(x, dtype=float)) * 2.0 ** -int(n)
    return np.where(a <= 4.0 * math.pi / 3.0, 1.0, meyer_envelope(a) ** 2)


def _kernel(t, x, v: float) -> np.ndarray:
    """(e^{i t x} - 1) |x|^-v for grid points t (rows) and frequencies x (columns); 0 at x = 0."""
    safe = np.where(x == 0.0, 1.0, np.abs(x))
    return (np.exp(1j * np.outer(t, x)) - 1.0) * np.where(x == 0.0, 0.0, safe**-v)


def projected_kernel(t, x, v: float, n: int) -> np.ndarray:
    """sum_{j <= n} (P_j K_t)(x) with every translation kept, K_t = _kernel(t, ., v)."""
    x = np.asarray(x, dtype=float)
    a = np.abs(x) * 2.0 ** -int(n)
    alias = np.where(a > 4.0 * math.pi / 3.0,
                     meyer_envelope(a) * meyer_envelope(4.0 * math.pi - a), 0.0)
    shifted = x - np.sign(x) * 4.0 * math.pi * 2.0 ** int(n)
    return _kernel(t, x, v) * levels_up_to(x, n) + _kernel(t, shifted, v) * alias


def direct_grid(points, weights, axes, H, alpha: float, n=None, chunk: int = 4096) -> np.ndarray:
    """Re sum_a w_a prod_l K_{t_l}(x_al), K_t(x) = (e^{i t x} - 1) |x|^(-H_l - 1/alpha),
    on a tensor grid, summed over atoms in chunks. With n, each factor is
    replaced by its projection onto the wavelet levels j <= n
    (projected_kernel): the series truncated at n with every translation."""
    points = np.asarray(points, dtype=float)
    weights = np.asarray(weights, dtype=complex)
    out = np.zeros(tuple(len(t) for t in axes))
    for a0 in range(0, len(weights), chunk):
        mats = []
        for axis, t in enumerate(axes):
            x, v = points[a0:a0 + chunk, axis], float(H[axis]) + 1.0 / alpha
            mats.append(_kernel(t, x, v) if n is None else projected_kernel(t, x, v, n))
        out += ((mats[0] * weights[a0:a0 + chunk]) @ mats[1].T).real
    return out


# --- sampling bounds, fixed from the sample size ---------------------------------


def variance_ratio_halfwidth(samples: int, z: float = 5.0) -> float:
    """z standard errors of a Gaussian sample variance over its mean: z sqrt(2 / (N - 1))."""
    return z * math.sqrt(2.0 / (samples - 1))


def scale_ratio_halfwidth(samples: int, alpha: float, z: float = 5.0) -> float:
    """z standard errors of a characteristic-function scale fit.

    At the u where |phi(u)| = 1/2, |ecf| has standard error
    sqrt((1 - |phi|^2) / 2N), and sigma = (-log|phi|)^(1/alpha) / u moves by
    (1/alpha) d|phi| / (|phi| log 2) relative, which gives
    sqrt(3/8) / (0.5 alpha log 2) / sqrt(N). A fit over a window of u does no
    worse than this one point.
    """
    per_sample = math.sqrt(0.375) / (0.5 * float(alpha) * math.log(2.0))
    return z * per_sample / math.sqrt(samples)
