"""Estimators confronting simulated sheets with scaling, regularity, local-time,
and fractal-dimension predictions.

All estimators are pure functions of immutable field data; ensemble routines
aggregate with order-independent statistics (means, maxima, counts) so results
do not depend on iteration order or worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from . import synthesis
from .fractional_kernel import check_hurst
from .meyer_wavelet import check_alpha

_ECF_WINDOW = (0.2, 0.9)
_MIN_SAMPLES = 1000
_MIN_ENSEMBLE = 1000
_ENVELOPE_LEVELS = 4  # dyadic lag levels of holder_envelope_report
_MIN_CUBE_POINTS = 4  # grid points per axis a local-time cube needs


def _meta_hurst_alpha(field: object) -> tuple:
    """The Hurst vector and alpha a field's meta records, or a ValueError naming the bad key."""
    key = "H"
    try:
        H = tuple(float(h) for h in field.meta[key])
        key = "alpha"
        return H, float(field.meta[key])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"field meta has no usable {key!r} ({exc!r})") from exc


def _localtime_alpha(alpha: float) -> float:
    """alpha as a float, or ValueError outside the local-time theory's [1, 2]."""
    alpha = float(alpha)
    if not 1.0 <= alpha <= 2.0:
        raise ValueError(f"local-time theory needs alpha in [1, 2], got {alpha}")
    return alpha


def _cell_volume(axes: tuple) -> float:
    """Volume of one grid cell: the product of the axis steps."""
    return float(np.prod(synthesis.grid_steps(axes)))


# --- anisotropic metric --------------------------------------------------------


def rho(s: object, t: object, H: object) -> float:
    """Anisotropic distance sum_l |s_l - t_l|^(H_l)."""
    s_arr = np.asarray(s, dtype=float).reshape(-1)
    t_arr = np.asarray(t, dtype=float).reshape(-1)
    H_arr = np.asarray(H, dtype=float).reshape(-1)
    if not (s_arr.size == t_arr.size == H_arr.size):
        raise ValueError("s, t, and H must have the same length")
    return float(np.sum(np.abs(s_arr - t_arr) ** H_arr))


# --- stable scale from the empirical characteristic function -------------------


@dataclass
class StableScaleEstimate:
    sigma_hat: float
    alpha_assumed: float
    residual: float
    u_grid: np.ndarray
    degenerate: bool = False


def _ecf_magnitude(samples: np.ndarray, us: np.ndarray) -> np.ndarray:
    out = np.empty(us.size)
    for start in range(0, us.size, 64):
        block = us[start : start + 64]
        out[start : start + 64] = np.abs(
            np.mean(np.exp(1j * block[:, None] * samples[None, :]), axis=1)
        )
    return out


def estimate_stable_scale(samples: object, alpha: float) -> StableScaleEstimate:
    """Fit the scale of a symmetric stable sample from its characteristic function.

    -log|ecf(u)| = (sigma u)^alpha is linear in sigma^alpha; the fit runs on a
    u-grid spanning the band where |ecf| lies in [0.2, 0.9], away from both the
    flat region and the noise floor. The residual is the RMS misfit of
    -log|ecf| relative to its RMS over the fitted grid.
    """
    alpha = check_alpha(alpha)
    arr = np.asarray(samples, dtype=float).reshape(-1)
    if arr.size < _MIN_SAMPLES:
        raise ValueError(f"need at least {_MIN_SAMPLES} samples, got {arr.size}")
    if np.all(arr == arr[0]):
        return StableScaleEstimate(0.0, alpha, 0.0, np.empty(0), degenerate=True)
    scale0 = float(np.median(np.abs(arr - np.median(arr))))
    if scale0 == 0.0:
        scale0 = float(np.std(arr))
    lo, hi = _ECF_WINDOW
    for decades in (3.0, 6.0):
        coarse = np.logspace(
            math.log10(1.0 / scale0) - decades,
            math.log10(1.0 / scale0) + decades,
            int(120 * decades),
        )
        mags = _ecf_magnitude(arr, coarse)
        picked = coarse[(mags >= lo) & (mags <= hi)]
        if picked.size >= 5:
            break
    else:
        raise ValueError("no usable characteristic-function window found")
    us = np.linspace(picked[0], picked[-1], 64)
    mags = _ecf_magnitude(arr, us)
    keep = mags > 0.0
    us, mags = us[keep], mags[keep]
    y = -np.log(mags)
    basis = us**alpha
    power = float(np.dot(y, basis) / np.dot(basis, basis))
    power = max(power, 0.0)
    fit = power * basis
    residual = float(np.sqrt(np.mean((y - fit) ** 2) / np.mean(y**2)))
    return StableScaleEstimate(power ** (1.0 / alpha), alpha, residual, us)


def scale_comparability_report(fields: object, pairs: object) -> dict:
    """Increment scales across an ensemble, compared with the anisotropic metric.

    For each pair (s, t) the scale of Z(s) - Z(t) is fitted across the
    ensemble and divided by rho(s, t). The report records the ratio per pair
    and the spread max/min; theory promises comparability (bounded spread),
    with no universal constant to assert. H and alpha are read from the
    first field's meta.
    """
    field_list = list(fields)
    if len(field_list) < _MIN_ENSEMBLE:
        raise ValueError(
            f"need an ensemble of at least {_MIN_ENSEMBLE} fields, got {len(field_list)}"
        )
    first = field_list[0]
    H, alpha = _meta_hurst_alpha(first)
    axes = first.axes
    pair_list = []
    for s, t in pairs:
        s_arr = np.asarray(s, dtype=float).reshape(-1)
        t_arr = np.asarray(t, dtype=float).reshape(-1)
        if np.any(s_arr <= 0.0) or np.any(t_arr <= 0.0):
            raise ValueError("pair points must have strictly positive coordinates")
        s_idx = tuple(int(np.argmin(np.abs(ax - c))) for ax, c in zip(axes, s_arr))
        t_idx = tuple(int(np.argmin(np.abs(ax - c))) for ax, c in zip(axes, t_arr))
        s_snap = tuple(float(ax[i]) for ax, i in zip(axes, s_idx))
        t_snap = tuple(float(ax[i]) for ax, i in zip(axes, t_idx))
        pair_list.append((s_snap, t_snap, s_idx, t_idx))
    ratios, sigma_hats, rhos = [], [], []
    for s_snap, t_snap, s_idx, t_idx in pair_list:
        diffs = np.array(
            [f.component(0)[s_idx] - f.component(0)[t_idx] for f in field_list]
        )
        est = estimate_stable_scale(diffs, alpha)
        dist = rho(s_snap, t_snap, H)
        sigma_hats.append(est.sigma_hat)
        rhos.append(dist)
        ratios.append(est.sigma_hat / dist if dist > 0 else math.inf)
    ratios_arr = np.asarray(ratios)
    return {
        "alpha": float(alpha),
        "H": list(H),
        "pairs": [(s, t) for s, t, _, _ in pair_list],
        "sigma_hats": sigma_hats,
        "rhos": rhos,
        "ratios": ratios,
        "max_ratio": float(np.max(ratios_arr)),
        "min_ratio": float(np.min(ratios_arr)),
        "spread": float(np.max(ratios_arr) / np.min(ratios_arr)),
    }


# --- Holder regularity along axes ----------------------------------------------


def holder_axis_exponent(field: object, axis: int) -> float:
    """Slope of log median |increment| against log lag along one grid axis.

    Pools increments across all lines parallel to the axis, at dyadic lags,
    and regresses the median magnitude on the lag. For a sheet with Hurst
    vector H the slope estimates H[axis].
    """
    axis = int(axis)
    vals = field.component(0)
    ax = field.axes[axis]
    if ax.size < 256:
        raise ValueError("axis needs at least 256 grid points")
    span_idx = ax.size - 1
    step = float(ax[1] - ax[0])
    lags = []
    p = 0
    while 2**p <= span_idx // 2:
        lags.append(2**p)
        p += 1
    medians, hs = [], []
    # one buffer for every lag's |increments|; the median may reorder it
    buf = np.empty(vals.size, dtype=vals.dtype)
    for lag in lags:
        sl = [slice(None)] * vals.ndim
        sl[axis] = slice(lag, None)
        lo = [slice(None)] * vals.ndim
        lo[axis] = slice(None, -lag)
        hi, low = vals[tuple(sl)], vals[tuple(lo)]
        inc = buf[: hi.size].reshape(hi.shape)
        np.subtract(hi, low, out=inc)
        np.abs(inc, out=inc)
        med = float(np.median(inc, overwrite_input=True))
        if med > 0.0:
            medians.append(med)
            hs.append(lag * step)
    if len(medians) < 4:
        raise ValueError("too few usable dyadic levels for the regression")
    slope = float(np.polyfit(np.log(hs), np.log(medians), 1)[0])
    return slope


def holder_envelope_report(fields: object, H: object, alpha: float) -> dict:
    """Empirical modulus-of-continuity envelope over shrinking dyadic lags.

    At each of up to _ENVELOPE_LEVELS lag levels the statistic is the max over
    the ensemble and over grid pairs of |Z(s) - Z(t)| / [rho |log rho|^(1/alpha
    + 0.1)]; the theory's vanishing modulus implies the envelope should not
    grow as lags shrink.
    """
    field_list = list(fields)
    H_arr = np.asarray(H, dtype=float).reshape(-1)
    alpha = float(alpha)
    first = field_list[0]
    steps = synthesis.grid_steps(first.axes)
    size = min(a.size for a in first.axes)
    max_level = int(math.floor(math.log2(size - 1))) - 1
    use_levels = min(_ENVELOPE_LEVELS, max_level)
    if use_levels < 2:
        raise ValueError("grid too small for an envelope scan")
    exponent = 1.0 / alpha + 0.1
    envelope = []
    lag_list = [2 ** (max_level - i) for i in range(use_levels)]
    for lag in lag_list:
        best = 0.0
        for offsets in ((lag, 0), (0, lag), (lag, lag)):
            h = (offsets[0] * steps[0], offsets[1] * steps[1])
            dist = rho((0.0, 0.0), h, H_arr)
            denom = dist * abs(math.log(dist)) ** exponent
            for f in field_list:
                vals = f.component(0)
                inc = (
                    vals[offsets[0] or None :, offsets[1] or None :]
                    - vals[: vals.shape[0] - offsets[0], : vals.shape[1] - offsets[1]]
                )
                best = max(best, float(np.max(np.abs(inc))) / denom)
        envelope.append(best)
    grew = [b > a * 1.10 for a, b in zip(envelope, envelope[1:])]
    return {
        "lags": lag_list,
        "envelope": envelope,
        "non_increasing_within_noise": bool(not any(grew)),
    }


# --- occupation densities and local times --------------------------------------


@dataclass
class OccupationDensity:
    """Histogram estimate of the occupation density of a field over a region."""

    region: tuple
    bin_edges: list
    density: np.ndarray
    cell_volume: float
    value_dimension: int = 1
    grid_points: int = 0

    @property
    def bin_volumes(self) -> np.ndarray:
        return _bin_volumes(self.bin_edges)

    @property
    def lebesgue_total(self) -> float:
        return float(np.sum(self.density * self.bin_volumes))

    def at(self, x: object) -> float:
        x_arr = np.asarray(x, dtype=float).reshape(-1)
        if x_arr.size != self.value_dimension:
            raise ValueError("level must match the value dimension")
        idx = []
        for edges, c in zip(self.bin_edges, x_arr):
            if c < edges[0] or c > edges[-1]:
                return 0.0
            i = int(np.searchsorted(edges, c, side="right")) - 1
            idx.append(min(i, len(edges) - 2))
        return float(self.density[tuple(idx)])


def _bin_volumes(edges: list) -> np.ndarray:
    """Volume of every histogram bin: the outer product of the edge widths."""
    widths = [np.diff(e) for e in edges]
    vol = widths[0]
    for w in widths[1:]:
        vol = np.multiply.outer(vol, w)
    return vol


def _region_selection(field: object, region: object) -> tuple:
    bounds = np.asarray(region, dtype=float)
    if bounds.ndim == 1:
        bounds = bounds[None, :]
    if bounds.shape != (len(field.axes), 2):
        raise ValueError("region must give (low, high) per grid axis")
    masks = []
    for ax, (lo, hi) in zip(field.axes, bounds):
        if not hi > lo:
            raise ValueError("region bounds must satisfy high > low")
        masks.append((ax >= lo) & (ax <= hi))
    if any(not m.any() for m in masks):
        raise ValueError("region contains no grid points")
    sel = field.values[(slice(None),) + np.ix_(*masks)]
    return sel, _cell_volume(field.axes), bounds


def occupation_density(field: object, region: object, bins: int = 64) -> OccupationDensity:
    """Discrete occupation density: value histogram weighted by grid-cell volume.

    Each grid point in the region contributes one cell volume to the bin of
    its value, and densities divide by bin volume, so the occupation identity
    sum density * bin_volume = (points in region) * cell_volume holds exactly.
    """
    sel, cell_volume, bounds = _region_selection(field, region)
    d = sel.shape[0]
    if d > 3:
        raise ValueError("occupation densities support at most 3 components")
    pts = sel.reshape(d, -1).T
    counts, edges = np.histogramdd(pts, bins=int(bins))
    density = counts * cell_volume / _bin_volumes(edges)
    return OccupationDensity(
        region=tuple(map(tuple, bounds)),
        bin_edges=[np.asarray(e) for e in edges],
        density=density,
        cell_volume=cell_volume,
        value_dimension=d,
        grid_points=pts.shape[0],
    )


def _median_increment(values: np.ndarray) -> float:
    # the increments of every axis pooled in one buffer, absolute values and
    # median taken in place: one field-sized temporary per axis, not three
    sizes = [values.size // s * (s - 1) for s in values.shape if s > 1]
    if not sizes:
        return 0.0
    pooled = np.empty(sum(sizes))
    start = 0
    for axis in range(values.ndim):
        if values.shape[axis] > 1:
            inc = np.diff(values, axis=axis).ravel()
            pooled[start:start + inc.size] = inc
            start += inc.size
    np.abs(pooled, out=pooled)
    return float(np.median(pooled, overwrite_input=True))


def _localtime_at(sel: np.ndarray, cell_volume: float, x: np.ndarray, width: float) -> float:
    # kernel-bin estimate: one value bin of side `width` centered at the level
    d = sel.shape[0]
    inside = np.ones(sel.shape[1:], dtype=bool)
    for comp in range(d):
        inside &= np.abs(sel[comp] - x[comp]) < 0.5 * width
    return float(cell_volume * np.count_nonzero(inside) / width**d)


def localtime_holder_report(
    fields: object,
    x: object,
    corner: object,
    r_values: object,
) -> dict:
    """Growth of the maximal local time over shrinking cubes at one corner.

    For cubes I_r with side r the Holder theory predicts
    max_x L(x, I_r) = O(r^S) with S = sum of per-axis exponents
    (1 - H_l d / p_l for l <= tau, else 1) under the equal split p_l = tau.
    The fitted log-log slope must reach the (1 - eps)-degraded prediction:
    slope >= 0.9 S - 0.2. A cube needs _MIN_CUBE_POINTS grid points per axis.
    H and alpha are read from the first field's meta.
    """
    field_list = list(fields)
    first = field_list[0]
    H, alpha = _meta_hurst_alpha(first)
    alpha = _localtime_alpha(alpha)
    d = first.component_count
    x_arr = np.asarray(x, dtype=float).reshape(-1)
    tau, _ = beta_tau(H, d)
    H_sorted = sorted(H)
    exponents = [
        1.0 - H_sorted[l] * d / tau if l < tau else 1.0 for l in range(len(H))
    ]
    predicted_sum = float(sum(exponents))
    corner_arr = np.asarray(corner, dtype=float).reshape(-1)
    usable_r, lmax_means = [], []
    for r in sorted(float(r) for r in r_values):
        region = [(c, c + r) for c in corner_arr]
        try:
            per_field = []
            for f in field_list:
                sel, cell_volume, _ = _region_selection(f, region)
                if min(sel.shape[1:]) < _MIN_CUBE_POINTS:
                    raise ValueError("region too small")
                width = _median_increment(sel[0])
                if width == 0.0:
                    raise ValueError("degenerate values in region")
                dens = occupation_density(f, region, bins=_bins_for(sel, width))
                per_field.append(float(np.max(dens.density)))
        except ValueError:
            continue
        usable_r.append(r)
        lmax_means.append(float(np.mean(per_field)))
    if len(usable_r) < 3:
        raise ValueError("too few usable dyadic cube sizes (need 3)")
    slope = float(np.polyfit(np.log(usable_r), np.log(lmax_means), 1)[0])
    threshold = 0.9 * predicted_sum - 0.2
    return {
        "H": list(H),
        "alpha": alpha,
        "d": d,
        "level": x_arr.tolist(),
        "tau": tau,
        "p": [float(tau)] * tau,
        "predicted_exponents": exponents,
        "predicted_sum": predicted_sum,
        "r_values": usable_r,
        "lmax_means": lmax_means,
        "slope": slope,
        "threshold": threshold,
        "passes": bool(slope >= threshold),
    }


def _bins_for(sel: np.ndarray, width: float) -> int:
    spread = float(np.max(sel[0]) - np.min(sel[0]))
    return max(4, min(512, int(math.ceil(spread / width)) if width > 0 else 4))


# --- level sets and box-counting dimension --------------------------------------


def level_set(field: object, x: float, delta: float = None) -> np.ndarray:
    """Grid points where the field sits within delta of the level.

    delta defaults to the median nearest-neighbor increment magnitude, so the
    slab thickness tracks the grid resolution.
    """
    vals = field.component(0)
    if delta is None:
        delta = _median_increment(vals)
    delta = float(delta)
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    mask = np.abs(vals - float(x)) < delta
    return np.stack([axis[i] for axis, i in zip(field.axes, np.nonzero(mask))], axis=-1)


@dataclass
class DimensionEstimate:
    slope: float
    intercept: float
    r_squared: float
    scale_range: tuple
    box_counts: list = dataclass_field(default_factory=list)
    low_confidence: bool = False
    metric: str = "euclidean"


def box_count_dimension(
    points: object, bounds: object, metric: object = "euclidean", scales: object = (1, 2, 3, 4, 5)
) -> DimensionEstimate:
    """Box-counting slope of a point set, in Euclidean or anisotropic boxes.

    Euclidean boxes have side 2^-m; anisotropic ("rho") boxes have per-axis
    sides 2^(-m/H_j), the covering geometry in which a set of full measure
    scales like 2^(m Q) with Q = sum 1/H_j. The regression drops the coarsest
    and finest scales when enough levels remain (middle-scale rule).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("points must be a nonempty (m, N) array")
    N = pts.shape[1]
    bounds_arr = np.asarray(bounds, dtype=float)
    if bounds_arr.shape != (N, 2):
        raise ValueError("bounds must give (low, high) per coordinate")
    lo = bounds_arr[:, 0]
    hi = bounds_arr[:, 1]
    if np.any(pts < lo - 1e-12) or np.any(pts > hi + 1e-12):
        raise ValueError("points must lie inside bounds")
    if isinstance(metric, str) and metric == "euclidean":
        H_arr = None
        metric_name = "euclidean"
    else:
        H_arr = check_hurst(metric)
        if H_arr.size != N:
            raise ValueError("metric must be 'euclidean' or a Hurst vector")
        metric_name = "rho"
    scale_list = sorted(int(m) for m in scales)
    if len(scale_list) < 3 or len(set(scale_list)) < len(scale_list):
        raise ValueError("need at least 3 scales, all distinct")
    counts, sides_log = [], []
    table = []
    for m in scale_list:
        if metric_name == "euclidean":
            sides = np.full(N, 2.0**-m)
        else:
            sides = 2.0 ** (-m / H_arr)
        idx = np.floor((pts - lo) / sides).astype(np.int64)
        span = np.maximum(np.ceil((hi - lo) / sides).astype(np.int64), 1)
        idx = np.minimum(idx, span - 1)
        flat = idx[:, 0]
        for axis in range(1, N):
            flat = flat * span[axis] + idx[:, axis]
        count = int(np.unique(flat).size)
        counts.append(count)
        sides_log.append(m * math.log(2.0))
        table.append((m, tuple(float(s) for s in sides), count))
    use = slice(1, -1) if len(scale_list) >= 5 else slice(None)
    xs = np.asarray(sides_log)[use]
    ys = np.log(np.asarray(counts, dtype=float))[use]
    slope, intercept = np.polyfit(xs, ys, 1)
    fit = slope * xs + intercept
    ss_res = float(np.sum((ys - fit) ** 2))
    ss_tot = float(np.sum((ys - np.mean(ys)) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    side_sizes = [2.0**-m for m in scale_list]
    return DimensionEstimate(
        slope=float(slope),
        intercept=float(intercept),
        r_squared=float(min(r_squared, 1.0)),
        scale_range=(min(side_sizes), max(side_sizes)),
        box_counts=table,
        low_confidence=bool(pts.shape[0] < 100),
        metric=metric_name,
    )


# --- dimension formulas ----------------------------------------------------------


def _sandwich_index(inv_cumsum: np.ndarray, deficit: float) -> object:
    """The k with sum_(j<k) 1/H_j <= deficit < sum_(j<=k) 1/H_j, or None.

    inv_cumsum is the cumulative sum of 1/H over the ascending Hurst vector.
    """
    below = 0.0
    for k, total in enumerate(inv_cumsum, start=1):
        if below <= deficit < total:
            return k
        below = total
    return None


def dim_inverse_image_formula(H: object, d: int, dimF: float) -> dict:
    """Hausdorff dimension of the inverse image of a dim-dimF Borel set.

    Evaluates min over k of sum_(j<=k) H_k/H_j + N - k - H_k (d - dimF) on the
    ascending-sorted Hurst vector, brute-forcing every k, and checks that the
    arg-min satisfies the sandwich condition
    sum_(j<=k-1) 1/H_j <= d - dimF < sum_(j<=k) 1/H_j. Outside the regime
    sum_j 1/H_j > d - dimF the inverse image can be empty or zero-dimensional;
    the result is then flagged with value NaN rather than guessed.
    """
    H_arr = np.sort(check_hurst(H))
    d = int(d)
    dimF = float(dimF)
    if d < 1:
        raise ValueError("d must be at least 1")
    if not 0.0 <= dimF <= d:
        raise ValueError("dimF must lie in [0, d]")
    N = H_arr.size
    deficit = d - dimF
    inv_cumsum = np.cumsum(1.0 / H_arr)
    if inv_cumsum[-1] <= deficit:
        return {
            "value": math.nan,
            "k": None,
            "sandwich_holds": False,
            "regime": "empty-or-zero-dimensional",
            "H_sorted": H_arr.tolist(),
        }
    values = []
    for k in range(1, N + 1):
        hk = H_arr[k - 1]
        values.append(
            float(np.sum(hk / H_arr[:k]) + N - k - hk * deficit)
        )
    best = min(values)
    k_best = 1 + int(np.argmin(values))
    k_sandwich = _sandwich_index(inv_cumsum, deficit)
    sandwich_holds = (
        k_sandwich is not None and abs(values[k_sandwich - 1] - best) < 1e-12
    )
    return {
        "value": best,
        "k": k_best,
        "sandwich_holds": bool(sandwich_holds),
        "regime": "standard",
        "H_sorted": H_arr.tolist(),
    }


def beta_tau(H: object, d: int) -> tuple:
    """The local-time index tau and exponent beta of the Hurst vector.

    tau is the unique k with sum_(l<k) 1/H_l <= d < sum_(l<=k) 1/H_l, defined
    when sum_l 1/H_l > d (existence of local times); beta is
    sum_(l<=tau) H_tau/H_l + N - tau - H_tau d.
    """
    H_arr = np.sort(check_hurst(H))
    d = int(d)
    if d < 1:
        raise ValueError("d must be at least 1")
    inv_cumsum = np.cumsum(1.0 / H_arr)
    if inv_cumsum[-1] <= d:
        raise ValueError("no local times: sum of 1/H_l must exceed d")
    N = H_arr.size
    tau = _sandwich_index(inv_cumsum, d)
    h_tau = H_arr[tau - 1]
    beta = float(np.sum(h_tau / H_arr[:tau]) + N - tau - h_tau * d)
    return tau, beta


# --- local-time scaling law -------------------------------------------------------


def localtime_scaling_check(
    seeds: object,
    H: object,
    alpha: float,
    d: int,
    region: object,
    n_scale: int,
    trunc: object,
    shape: object = (128, 128),
    level: object = 0.0,
) -> dict:
    """Two-sample test of the local-time scaling identity under dilations.

    Splits the seeds into two independent halves: the first samples L(x, I),
    the second samples n^(Nd-Q) L(n^N x, n^E I) on the dilated rectangle with
    per-axis factors n^(1/H_l). Per-field value-bin widths follow the median
    nearest-neighbor increment, which co-scales with the dilation, so both
    halves estimate the same distribution whenever the scaling law holds; a
    two-sample KS test reports the p-value.
    """
    alpha = _localtime_alpha(alpha)
    n_scale = int(n_scale)
    if n_scale < 1:
        raise ValueError("n_scale must be at least 1")
    d = int(d)
    seed_list = [int(s) for s in seeds]
    if len(seed_list) < 400:
        raise ValueError("need at least 400 seeds (200 per sample)")
    H_arr = np.asarray(H, dtype=float).reshape(-1)
    N = H_arr.size
    Q = float(np.sum(1.0 / H_arr))
    x_arr = np.asarray(level, dtype=float).reshape(-1)
    if x_arr.size == 1 and d > 1:
        x_arr = np.full(d, float(x_arr[0]))
    base_bounds = np.asarray(region, dtype=float)
    if base_bounds.shape != (N, 2):
        raise ValueError("region must give (low, high) per axis")
    factors = float(n_scale) ** (1.0 / H_arr)
    scaled_bounds = base_bounds * factors[:, None]
    if np.max(np.abs(scaled_bounds)) > float(trunc.M):
        raise ValueError("dilated rectangle leaves the synthesizable window")
    half = len(seed_list) // 2
    prefactor = float(n_scale) ** (N * d - Q)
    x_scaled = float(n_scale) ** N * x_arr

    def sample_half(seed_sub: list, bounds: np.ndarray, x_at: np.ndarray, factor: float) -> np.ndarray:
        out = np.empty(len(seed_sub))
        grid = (tuple(map(tuple, bounds)), tuple(shape))
        for i, seed in enumerate(seed_sub):
            f = synthesis.synthesize(H_arr, alpha, trunc, grid, seed, d=d)
            sel = f.values
            width = _median_increment(sel[0])
            if width == 0.0:
                out[i] = 0.0
                continue
            out[i] = factor * _localtime_at(sel, _cell_volume(f.axes), x_at, width)
        return out

    base_sample = sample_half(seed_list[:half], base_bounds, x_arr, 1.0)
    scaled_sample = sample_half(
        seed_list[half : 2 * half], scaled_bounds, x_scaled, prefactor
    )
    from scipy import stats  # slow to import, and only this check uses it

    ks = stats.ks_2samp(base_sample, scaled_sample)
    return {
        "H": H_arr.tolist(),
        "alpha": alpha,
        "d": d,
        "n_scale": n_scale,
        "exponent": N * d - Q,
        "Q": Q,
        "base_region": base_bounds.tolist(),
        "scaled_region": scaled_bounds.tolist(),
        "sample_size": half,
        "p_value": float(ks.pvalue),
        "statistic": float(ks.statistic),
        "passes": bool(ks.pvalue > 0.01),
        "base_positive_fraction": float(np.mean(base_sample > 0.0)),
        "scaled_positive_fraction": float(np.mean(scaled_sample > 0.0)),
        "base_values": [float(v) for v in base_sample],
        "scaled_values": [float(v) for v in scaled_sample],
    }


# --- ensemble helper --------------------------------------------------------------


def synthesize_ensemble(
    H: object,
    alpha: float,
    trunc: object,
    grid: tuple,
    seeds: object,
    d: int = 1,
    count: int = synthesis.DEFAULT_ATOM_COUNT,
) -> list:
    """Independent field realizations, one per seed, for estimator ensembles."""
    return [
        synthesis.synthesize(H, alpha, trunc, grid, int(s), d=d, count=count)
        for s in seeds
    ]
