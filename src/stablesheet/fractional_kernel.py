"""Fractional antiderivatives of the wavelet, sheet kernels, and stable-scale quadratures.

Everything here is deterministic numerics: the tabulated fractional
antiderivative psi_v that the synthesis factors are built from, the product
kernel of the sheet, the one-axis scale integral kappa, and the scale
parameter of field values and increments. These quadratures are the oracles
the statistical tests compare simulations against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .meyer_wavelet import RING_LOWER, RING_UPPER, TAU, check_alpha, envelope, gl_nodes

_SUPPORT = ((RING_LOWER, 2.0 * RING_LOWER), (2.0 * RING_LOWER, RING_UPPER))
_Y_CHUNK = 2048
_TABLE_STEP = 1.0 / 32.0  # psi_v table spacing (see psi_v_table)
# w_decay_constants: the point of the nonnegative scales, the grid of the negative ones
_DECAY_X = 0.3
_DECAY_X_GRID = np.linspace(-1.0, 1.0, 21)
_PANEL_NODES = 16  # Gauss nodes per panel of _axis_panels
_LAM_MAX = 1000.0  # half-width of the quadrature box of _increment_scale_quad2
# parseval_residual: halfwidth M, point x, frequency window and its sample count, at alpha = 2
_PARSEVAL_M = 1.0
_PARSEVAL_X = 0.3
_PARSEVAL_WINDOW = (0.10, 150.0)
_PARSEVAL_NUM_XI = 6001
_PARSEVAL_ALPHA = 2.0


def check_hurst(H: object) -> np.ndarray:
    """H as a 1-D float array, or ValueError unless it is nonempty in (0, 1)^N."""
    H_arr = np.asarray(H, dtype=float).reshape(-1)
    # written as "not inside", so that NaN is refused too
    if H_arr.size == 0 or not np.all((H_arr > 0.0) & (H_arr < 1.0)):
        raise ValueError("H components must lie in (0, 1)")
    return H_arr


def translation_cap(n: int, M: float) -> int:
    """Largest translation |k| of the series window at level n >= 0, finite halfwidth M > 0.

    The window holds the scales j <= n and the translations |k| <= floor(M 2^(n+1)).
    """
    if not (n >= 0 and 0.0 < M < math.inf):
        raise ValueError("the series window needs n >= 0 and a finite M > 0")
    return int(math.floor(M * 2.0 ** (n + 1)))


def _check_v_alpha(v: float, alpha: float) -> tuple[float, float]:
    # v is one Hurst exponent: unpacking refuses a vector with a ValueError
    (v,) = check_hurst(v)
    return float(v), check_alpha(alpha)


def progression_phases(start: float, step: float, count: int, freq: object) -> tuple:
    """Two short tables that factor e^{i t_l f} over t_l = start + l step, l < count.

    With L = isqrt(count) and l = L q + r, e^{i t_l f} = coarse[q] * fine[r]:
    coarse[q] = e^{i (start + L q step) f} has ceil(count / L) rows and
    fine[r] = e^{i r step f} has L rows, one column per frequency. That takes
    about 2 sqrt(count) complex exponentials per frequency instead of count.
    """
    f = np.asarray(freq, dtype=float)
    L = math.isqrt(count)
    Q = -(-count // L)
    coarse = np.exp(1j * np.outer(start + step * (L * np.arange(Q)), f))
    fine = np.exp(1j * np.outer(step * np.arange(L), f))
    return coarse, fine


def quad_nodes_for(max_abs_y: float) -> int:
    """Node count resolving e^{i y eta} on the wavelet support up to |y|."""
    return max(400, int(math.ceil(1.15 * float(max_abs_y))) + 150)


def _psi_v_weights(v: float, alpha: float, a: float, b: float, nodes: int) -> tuple:
    # Gauss nodes eta on [a, b], and the weights of e^{i (y + 1/2) eta} in psi_v(y):
    # w envelope(eta) / sqrt(2 pi) eta^(-v - 1/alpha)
    eta, w = gl_nodes(a, b, nodes)
    return eta, w * envelope(eta) / np.sqrt(TAU) * eta ** (-v - 1.0 / alpha)


def psi_v_values(
    v: float,
    alpha: float,
    y: object,
    nodes: int | None = None,
    derivative: bool = False,
) -> np.ndarray:
    """Fractional antiderivative psi_v (or its derivative) by direct quadrature.

    psi_v(y) = integral of e^{i y eta} psi_hat(eta) |eta|^(-v-1/alpha) d eta,
    reduced to twice the real part of the positive-frequency half. The
    integrand is smooth and compactly supported, so Gauss-Legendre converges
    spectrally once the oscillation e^{i y eta} is resolved. The weights are
    real, so that real part is a cosine sum (a sine sum for the derivative).
    """
    v, alpha = _check_v_alpha(v, alpha)
    arr = np.asarray(y, dtype=float)
    flat = np.atleast_1d(arr).reshape(-1)
    if nodes is None:
        nodes = quad_nodes_for(np.max(np.abs(flat)) if flat.size else 0.0)
    res = np.zeros(flat.shape, dtype=float)
    for a, b in _SUPPORT:
        eta, amp = _psi_v_weights(v, alpha, a, b, nodes)
        if derivative:
            amp = amp * eta
        for start in range(0, flat.size, _Y_CHUNK):
            sel = slice(start, start + _Y_CHUNK)
            phase = np.outer(flat[sel] + 0.5, eta)
            if derivative:
                res[sel] += -2.0 * (np.sin(phase) @ amp)
            else:
                res[sel] += 2.0 * (np.cos(phase) @ amp)
    return res.reshape(arr.shape)


def psi_v_imag_residual(v: float, alpha: float, y: object, nodes: int | None = None) -> float:
    """Max |imaginary part| when the two half-line integrals are summed naively.

    Diagnostic for the realness of psi_v; the production path removes the
    imaginary part analytically, this one does not.
    """
    v, alpha = _check_v_alpha(v, alpha)
    arr = np.atleast_1d(np.asarray(y, dtype=float))
    if nodes is None:
        nodes = quad_nodes_for(np.max(np.abs(arr)) if arr.size else 0.0)
    total = np.zeros(arr.shape, dtype=complex)
    for a, b in _SUPPORT:
        for lo, hi in ((a, b), (-b, -a)):
            eta, w = gl_nodes(lo, hi, nodes)
            amp = (
                w
                * envelope(eta)
                * np.exp(0.5j * eta)
                / np.sqrt(TAU)
                * np.abs(eta) ** (-v - 1.0 / alpha)
            )
            total += np.exp(1j * np.outer(arr, eta)) @ amp
    return float(np.max(np.abs(total.imag)))


def _psi_v_progression(v: float, alpha: float, y0: float, step: float, count: int, nodes: int) -> np.ndarray:
    """psi_v_values at y_l = y0 + l step, l < count, without one cosine per entry.

    With the tables of progression_phases, cos(A_q + B_r) = cos A_q cos B_r -
    sin A_q sin B_r, so entry l = L q + r is the dot product of
    amp [cos A_q | -sin A_q] with [cos B_r | sin B_r]. einsum sums these in
    its own loops rather than in BLAS, whose results can change with the BLAS
    thread count (matrix-vector products too, at some shapes).
    """
    res = np.zeros(int(count), dtype=float)
    for a, b in _SUPPORT:
        eta, amp = _psi_v_weights(v, alpha, a, b, nodes)
        coarse, fine = progression_phases(y0 + 0.5, step, count, eta)
        basis = np.concatenate([fine.real, fine.imag], axis=1)
        heads = np.concatenate([amp * coarse.real, -amp * coarse.imag], axis=1)
        sums = np.einsum("qf,rf->qr", heads, basis, optimize=False)
        res += 2.0 * sums.reshape(-1)[: res.size]
    return res


@dataclass
class FractionalTable:
    """Sampled psi_v on [-halfwidth, halfwidth], with its spline."""

    v: float
    alpha: float
    halfwidth: float
    step: float
    y: np.ndarray
    values: np.ndarray
    decay_constant: float
    imag_residual: float
    _spline: object = field(repr=False, default=None)

    def in_domain(self, y: object) -> np.ndarray:
        return np.abs(np.asarray(y, dtype=float)) <= self.halfwidth

    def psi(self, y: object) -> np.ndarray:
        """psi_v from the spline, falling back to quadrature out of domain."""
        arr = np.asarray(y, dtype=float)
        inside = self.in_domain(arr)
        if inside.all():
            return self._spline(arr)
        out = np.empty(np.shape(arr), dtype=float)
        flat_in = np.asarray(inside).reshape(-1)
        flat_y = arr.reshape(-1)
        flat_out = out.reshape(-1)
        flat_out[flat_in] = self._spline(flat_y[flat_in])
        flat_out[~flat_in] = psi_v_values(self.v, self.alpha, flat_y[~flat_in])
        return out

    def dpsi(self, y: object) -> np.ndarray:
        """The derivative of psi_v, by direct quadrature."""
        return psi_v_values(self.v, self.alpha, y, derivative=True)


def psi_v_table(v: float, alpha: float, halfwidth: float) -> FractionalTable:
    """Tabulate psi_v on [-halfwidth, halfwidth] with quintic spline interpolation.

    Step 1/32 with a quintic spline keeps the interpolation error below 1e-8
    against direct quadrature (a cubic spline does not reach that bound).
    """
    v, alpha = _check_v_alpha(v, alpha)
    halfwidth, step = float(halfwidth), _TABLE_STEP
    if halfwidth <= 0:
        raise ValueError("halfwidth must be positive")
    npts = int(round(2.0 * halfwidth / step)) + 1
    y = -halfwidth + step * np.arange(npts)
    nodes = quad_nodes_for(halfwidth)
    values = _psi_v_progression(v, alpha, -halfwidth, step, npts, nodes)
    far = np.abs(y) >= 20.0
    decay = float(np.max(np.abs(values[far]) * (2.0 + np.abs(y[far])) ** 4)) if far.any() else 0.0
    spot = np.linspace(-halfwidth, halfwidth, 65)
    residual = psi_v_imag_residual(v, alpha, spot, nodes=nodes)
    from scipy.interpolate import make_interp_spline

    table = FractionalTable(
        v=v,
        alpha=alpha,
        halfwidth=halfwidth,
        step=step,
        y=y,
        values=values,
        decay_constant=decay,
        imag_residual=residual,
        _spline=make_interp_spline(y, values, k=5),
    )
    return table


@lru_cache(maxsize=32)
def table_for(v: float, alpha: float, n: int, M: float) -> FractionalTable:
    """Table sized for truncation level n, halfwidth M: every argument
    2^j x - k with |j| <= n, |k| <= M 2^(n+1), |x| <= M lands in-domain."""
    return _table_covering(float(v), float(alpha), 3.0 * float(M) * 2.0 ** int(n) + 64.0)


def _table_covering(v: float, alpha: float, need: float) -> FractionalTable:
    # the psi_v table whose halfwidth is the first multiple of 64 at or above need
    return psi_v_table(v, alpha, 64.0 * math.ceil(need / 64.0))


def w_coeff(table: FractionalTable, j: int, k: object, x: object) -> np.ndarray:
    """Deterministic series factor 2^(-j v) (psi_v(2^j x - k) - psi_v(-k)).

    k and x broadcast against each other (k[:, None] and x[None, :] give the
    factor matrix of one axis); psi_v(-k) is evaluated once per k.
    """
    j = int(j)
    k_arr = np.asarray(k, dtype=float)
    x_arr = np.asarray(x, dtype=float)
    return 2.0 ** (-j * table.v) * (table.psi(np.ldexp(x_arr, j) - k_arr) - table.psi(-k_arr))


def w_decay_constants(v: float, alpha: float, j_max: int, k_max: int) -> dict:
    """Fitted constants for the two-sided decay envelopes of the series factors.

    Nonnegative scales j: |w| <= c * 2^(-j v) [(2+|2^j x-k|)^-4 + (2+|k|)^-4].
    Negative scales j <= -1, |x| <= 1: |w| <= c' * 2^((1-v) j) (2+|k|)^-4.
    The first is scanned at x = _DECAY_X, the second over _DECAY_X_GRID.
    Returns the max ratios; finiteness and stability under scan doubling are
    what the tests assert.
    """
    v, alpha = _check_v_alpha(v, alpha)
    x = _DECAY_X
    table = _table_covering(v, alpha, (2.0 ** j_max) * abs(x) + k_max + 16.0)
    ks = np.arange(-k_max, k_max + 1, dtype=float)
    c_pos = 0.0
    for j in range(0, j_max + 1):
        w = w_coeff(table, j, ks, x)
        bound = 2.0 ** (-j * v) * (
            (2.0 + np.abs(np.ldexp(x, j) - ks)) ** -4.0 + (2.0 + np.abs(ks)) ** -4.0
        )
        c_pos = max(c_pos, float(np.max(np.abs(w) / bound)))
    c_neg = 0.0
    for j in range(-1, -j_max - 1, -1):
        bound = 2.0 ** ((1.0 - v) * j) * (2.0 + np.abs(ks)) ** -4.0
        for xv in _DECAY_X_GRID:
            w = w_coeff(table, j, ks, float(xv))
            c_neg = max(c_neg, float(np.max(np.abs(w) / bound)))
    return {"v": v, "alpha": alpha, "j_max": j_max, "k_max": k_max, "c_pos": c_pos, "c_neg": c_neg}


def kernel_phases(t: object, lam: object) -> np.ndarray:
    """The phase part e^{i t lam} - 1 of kernel_axis, shaped like it."""
    out = np.exp(1j * np.multiply.outer(t, np.asarray(lam, dtype=float)))
    out -= 1.0
    return out


def kernel_axis(t: object, lam: object, v: float, alpha: float) -> np.ndarray:
    """One-axis kernel factor (e^{i t lam} - 1) |lam|^(-v - 1/alpha), zero at lam = 0.

    A scalar t gives an array shaped like lam; a 1-D array of t gives one row
    per t.
    """
    lam = np.asarray(lam, dtype=float)
    # zero frequencies carry no mass: inf^(-p) collapses the factor to 0 exactly
    mag = np.where(lam == 0.0, np.inf, np.abs(lam)) ** (-(v + 1.0 / alpha))
    return kernel_phases(t, lam) * mag


def kernel_f(t: object, lam: object, H: object, alpha: float) -> np.ndarray:
    """Product kernel of the sheet at time t, frequency rows lam (..., N)."""
    t_arr = np.asarray(t, dtype=float).reshape(-1)
    H_arr = np.asarray(H, dtype=float).reshape(-1)
    lam_arr = np.asarray(lam, dtype=float)
    out = np.ones(lam_arr.shape[:-1], dtype=complex)
    for axis in range(t_arr.size):
        out *= kernel_axis(t_arr[axis], lam_arr[..., axis], H_arr[axis], alpha)
    return out[()]


def m_sin_alpha(alpha: float) -> float:
    """Mean of |sin|^alpha over a period: Gamma((a+1)/2) / (sqrt(pi) Gamma(a/2+1))."""
    from scipy.special import gamma

    alpha = float(alpha)
    return float(gamma((alpha + 1.0) / 2.0) / (np.sqrt(np.pi) * gamma(alpha / 2.0 + 1.0)))


@lru_cache(maxsize=256)
def kappa(alpha: float, v: float, periods: int = 250) -> float:
    """One-axis scale integral: int over R of |e^{i lam} - 1|^alpha |lam|^(-alpha v - 1).

    Reduced via |e^{i lam} - 1| = 2 |sin(lam/2)| to an integral of
    |sin u|^alpha u^(-beta-1): Gauss-Jacobi absorbs the u^(alpha-beta-1)
    endpoint singularity, fixed panels cover `periods` half-periods, and the
    remainder uses the mean of |sin|^alpha plus the first cosine-moment
    correction. Relative accuracy is ~1e-10 over the admissible range.
    """
    from scipy.special import roots_jacobi

    v, alpha = _check_v_alpha(v, alpha)
    beta = alpha * v
    # [0, 1]: weight u^(alpha - beta - 1), smooth remainder (sin u / u)^alpha
    xj, wj = roots_jacobi(60, 0.0, alpha - beta - 1.0)
    u = 0.5 * (xj + 1.0)
    total = float(np.sum(wj * (np.sin(u) / u) ** alpha)) * 0.5 ** (alpha - beta)
    # [1, pi]
    x, w = gl_nodes(1.0, np.pi, 64)
    total += float(np.sum(w * np.abs(np.sin(x)) ** alpha * x ** (-beta - 1.0)))
    # half-periods [k pi, (k+1) pi], k = 1 .. periods-1
    xg, wg = gl_nodes(-1.0, 1.0, 32)
    ks = np.arange(1, periods)
    u0 = ks[:, None] * np.pi + 0.5 * np.pi * (xg[None, :] + 1.0)
    w0 = 0.5 * np.pi * wg[None, :]
    total += float(np.sum(w0 * np.abs(np.sin(u0)) ** alpha * u0 ** (-beta - 1.0)))
    # analytic remainder beyond T = periods * pi; the boundary terms vanish
    # because sin(2 m T) = 0 and cos(2 m T) = 1 there
    T = periods * np.pi
    x, w = gl_nodes(0.0, np.pi, 256)
    su = np.sin(x) ** alpha
    ms = np.arange(1, 61)
    am = (2.0 / np.pi) * np.sum(w[None, :] * su[None, :] * np.cos(2.0 * ms[:, None] * x[None, :]), axis=1)
    s2 = float(np.sum(am / (4.0 * ms**2)))
    total += m_sin_alpha(alpha) * T ** (-beta) / beta + (beta + 1.0) * s2 * T ** (-beta - 2.0)
    return float(2.0 ** (1.0 + alpha - beta) * total)


def _point_scale(t: np.ndarray, H: np.ndarray, alpha: float) -> float:
    acc = 1.0
    for tl, hl in zip(t, H):
        acc *= np.abs(tl) ** (alpha * hl) * kappa(alpha, float(hl))
    return float(acc ** (1.0 / alpha))


def _axis_panels(coef: float, lam_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Panelized Gauss nodes on [-lam_max, lam_max] resolving e^{i coef lam}.

    The mesh is geometrically refined toward 0 so the integrable power
    singularity of the kernel there is captured, then uniform with one
    oscillation period per panel, each with _PANEL_NODES Gauss nodes.
    """
    width = min(4.0, TAU / max(coef, 0.5))
    graded = width * 2.0 ** -np.arange(24, -1, -1, dtype=float)
    uniform = np.arange(width, lam_max + width, width)[1:]
    edges = np.concatenate([[0.0], graded, uniform])
    edges = edges[edges <= lam_max]
    if edges[-1] < lam_max:
        edges = np.append(edges, lam_max)
    xg, wg = gl_nodes(-1.0, 1.0, _PANEL_NODES)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    pos = (mid[:, None] + half[:, None] * xg[None, :]).reshape(-1)
    wts = (half[:, None] * wg[None, :]).reshape(-1)
    lam = np.concatenate([-pos[::-1], pos])
    w = np.concatenate([wts[::-1], wts])
    return lam, w


def _tail_radial(v: float, alpha: float, lam_max: float) -> float:
    # int over |lam| > lam_max of |lam|^(-alpha v - 1), both signs
    return 2.0 * lam_max ** (-alpha * v) / (alpha * v)


def _phase_grid(n: int = 48) -> np.ndarray:
    return (np.arange(n) + 0.5) * (TAU / n)


def _strip_mean(a_fast: float, b_fast: float, P: np.ndarray, Q: np.ndarray, alpha: float) -> np.ndarray:
    """Mean over the fast-axis phase(s) of |(e^{i th}-1) P - (e^{i ph}-1) Q|^alpha.

    When the two evaluation points share the fast coordinate the phases
    coincide; otherwise they are averaged as independent, which is the
    equidistribution limit of the oscillating tail.
    """
    th = _phase_grid()
    e = np.exp(1j * th) - 1.0
    if a_fast == b_fast:
        return float(np.mean(np.abs(e) ** alpha)) * np.abs(P - Q) ** alpha
    out = np.empty(P.shape, dtype=float)
    chunk = 1024
    for start in range(0, P.size, chunk):
        sel = slice(start, start + chunk)
        diff = e[:, None, None] * P[None, None, sel] - e[None, :, None] * Q[None, None, sel]
        out[sel] = np.mean(np.abs(diff) ** alpha, axis=(0, 1))
    return out


def _corner_mean(t: np.ndarray, s: np.ndarray, alpha: float) -> float:
    """Mean over all fast phases of the corner factor |e1 e2 - f1 f2|^alpha."""
    th = _phase_grid(24)
    e = np.exp(1j * th) - 1.0
    if t[0] == s[0] and t[1] == s[1]:
        a = np.abs(e[:, None] * e[None, :]) ** alpha
        return float(np.mean(a))
    if t[0] == s[0]:
        diff = e[:, None, None] * (e[None, :, None] - e[None, None, :])
        return float(np.mean(np.abs(diff) ** alpha))
    if t[1] == s[1]:
        diff = (e[:, None, None] - e[None, :, None]) * e[None, None, :]
        return float(np.mean(np.abs(diff) ** alpha))
    diff = (
        e[:, None, None, None] * e[None, None, :, None]
        - e[None, :, None, None] * e[None, None, None, :]
    )
    return float(np.mean(np.abs(diff) ** alpha))


def _increment_scale_quad2(t: np.ndarray, s: np.ndarray, H: np.ndarray, alpha: float) -> float:
    """||F(t,.) - F(s,.)||_alpha for N = 2 by tensor quadrature plus tail means.

    The quadrature box is |lam_l| <= _LAM_MAX; the tail means cover the rest.
    """
    v1, v2 = float(H[0]), float(H[1])
    lam1, w1 = _axis_panels(max(abs(t[0]), abs(s[0])), _LAM_MAX)
    lam2, w2 = _axis_panels(max(abs(t[1]), abs(s[1])), _LAM_MAX)
    f_t1 = kernel_axis(t[0], lam1, v1, alpha)
    f_s1 = kernel_axis(s[0], lam1, v1, alpha)
    f_t2 = kernel_axis(t[1], lam2, v2, alpha)
    f_s2 = kernel_axis(s[1], lam2, v2, alpha)
    total = 0.0
    chunk = 256
    for start in range(0, lam1.size, chunk):
        sel = slice(start, start + chunk)
        diff = f_t1[sel, None] * f_t2[None, :] - f_s1[sel, None] * f_s2[None, :]
        total += float(w1[sel] @ (np.abs(diff) ** alpha) @ w2)
    # strips where one axis has left the quadrature box
    rad1 = _tail_radial(v1, alpha, _LAM_MAX)
    rad2 = _tail_radial(v2, alpha, _LAM_MAX)
    strip1 = rad1 * float(w2 @ _strip_mean(t[0], s[0], f_t2, f_s2, alpha))
    strip2 = rad2 * float(w1 @ _strip_mean(t[1], s[1], f_t1, f_s1, alpha))
    corner = rad1 * rad2 * _corner_mean(t, s, alpha)
    return float((total + strip1 + strip2 + corner) ** (1.0 / alpha))


def _increment_scale_exact2(t: np.ndarray, s: np.ndarray, H: np.ndarray, alpha: float) -> float:
    """Closed form for alpha = 2: expand |F(t)-F(s)|^2 into per-axis moments."""
    def self_term(u: np.ndarray) -> float:
        return _point_scale(u, H, 2.0) ** 2

    cross = 1.0
    for ul, wl, hl in zip(t, s, H):
        kap = kappa(2.0, float(hl))
        cross *= 0.5 * kap * (
            np.abs(ul) ** (2 * hl) + np.abs(wl) ** (2 * hl) - np.abs(ul - wl) ** (2 * hl)
        )
    val = self_term(t) + self_term(s) - 2.0 * cross
    return float(np.sqrt(max(val, 0.0)))


def scale_sigma(t: object, s: object, H: object, alpha: float) -> float:
    """Scale parameter of Z(t) - Z(s); pass s=None for the scale of Z(t) itself.

    Uses the product closed form for point scales and single-axis increments,
    and 2-D quadrature for general increments (N = 2 only).
    """
    alpha = check_alpha(alpha)
    t_arr = np.asarray(t, dtype=float).reshape(-1)
    H_arr = check_hurst(H)
    if t_arr.size != H_arr.size:
        raise ValueError("t and H must have the same length")
    if s is None:
        s_arr = np.zeros_like(t_arr)
    else:
        s_arr = np.asarray(s, dtype=float).reshape(-1)
        if s_arr.size != t_arr.size:
            raise ValueError("t and s must have the same length")
    t_zero = bool(np.any(t_arr == 0.0))
    s_zero = bool(np.any(s_arr == 0.0))
    if t_zero and s_zero:
        return 0.0
    if s_zero:
        return _point_scale(t_arr, H_arr, alpha)
    if t_zero:
        return _point_scale(s_arr, H_arr, alpha)
    differ = np.nonzero(t_arr != s_arr)[0]
    if differ.size == 0:
        return 0.0
    if differ.size == 1:
        m = int(differ[0])
        acc = np.abs(t_arr[m] - s_arr[m]) ** (alpha * H_arr[m]) * kappa(alpha, float(H_arr[m]))
        for l in range(t_arr.size):
            if l != m:
                acc *= np.abs(t_arr[l]) ** (alpha * H_arr[l]) * kappa(alpha, float(H_arr[l]))
        return float(acc ** (1.0 / alpha))
    if t_arr.size != 2:
        raise ValueError("general increments are only supported for N = 2")
    if alpha == 2.0:
        return _increment_scale_exact2(t_arr, s_arr, H_arr, 2.0)
    return _increment_scale_quad2(t_arr, s_arr, H_arr, alpha)


def parseval_residual(v: float, n_list: object) -> dict:
    """Relative L2 residual of the truncated frequency-side reconstruction.

    Compares sum over the truncation domain of w-factor times the conjugate
    dilated wavelet against the one-axis kernel on a frequency window, per
    truncation level n. The residual must fall as n grows. Point, halfwidth,
    window and alpha are the _PARSEVAL_* constants.
    """
    v, alpha = _check_v_alpha(v, _PARSEVAL_ALPHA)
    M, x, window = _PARSEVAL_M, _PARSEVAL_X, _PARSEVAL_WINDOW
    n_list = [int(n) for n in n_list]
    n_max = max(n_list)
    table = _table_covering(v, alpha, (2.0 ** n_max) * abs(x) + M * 2.0 ** (n_max + 1) + 16.0)
    xi = np.linspace(window[0], window[1], _PARSEVAL_NUM_XI)
    target = kernel_axis(x, xi, v, alpha)
    norm = float(np.sqrt(np.sum(np.abs(target) ** 2)))
    residuals = {}
    for n in n_list:
        k_cap = translation_cap(n, M)
        ks = np.arange(-k_cap, k_cap + 1, dtype=float)
        approx = np.zeros(xi.shape, dtype=complex)
        for j in range(-n, n + 1):
            scaled = np.ldexp(xi, -j)
            env = envelope(scaled)
            if not np.any(env):
                continue
            w = w_coeff(table, j, ks, x)
            phases = np.exp(1j * np.outer(ks, scaled))
            approx += (
                2.0 ** (-j / alpha)
                * (w @ phases)
                * np.conj(np.exp(0.5j * scaled) * env / np.sqrt(TAU))
            )
        residuals[n] = float(np.sqrt(np.sum(np.abs(target - approx) ** 2)) / norm)
    return {"v": v, "alpha": alpha, "M": M, "x": x, "window": window, "residuals": residuals}
