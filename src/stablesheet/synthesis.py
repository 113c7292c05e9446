"""Truncated random wavelet synthesis on rectangular grids.

A field is the sum over scale pairs (j1, j2) of W1_{j1}^T Re(C_{j1,j2}) W2_{j2},
with C the coefficient blocks and W_j the per-axis factor matrices (rows k,
columns grid points, scaled by 2^{-jH}). On a bounded grid each W_j has a small
numerical rank, so the series is folded through one plan per axis: the
truncated SVD W_j ~ A_j B_j^T, keeping the singular values above 1e-15 times
the largest. A field is then B1 Z B2^T, where Z stacks the small blocks
Z_{j1,j2} = A1_{j1}^T Re(C_{j1,j2}) A2_{j2}. lepage.projected_blocks picks the
coefficient law and its scale window, and forms the Z blocks on a thread pool.
Plans are cached across calls, and every product runs on one BLAS thread, so
the bytes depend neither on the BLAS or pool thread counts nor on what the
process computed before.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _blas, lepage
from ._rng import component_seed
from .fractional_kernel import check_hurst, kappa, table_for, translation_cap, w_coeff
from .meyer_wavelet import check_alpha

DEFAULT_ATOM_COUNT = 50_000
VERSION = "0.1.0"


@dataclass(frozen=True)
class TruncationDomain:
    """Series index window: positions |k_l| <= M 2^(n+1) and scales j_l <= n.

    The coarse end of the scale window goes with the coefficient law, and
    lepage sets both (see lepage.coefficient_blocks).
    """

    n: int
    M: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "M", float(self.M))
        translation_cap(self.n, self.M)  # raises unless n >= 0 and M is finite and > 0

    @property
    def k_cap(self) -> int:
        return translation_cap(self.n, self.M)


@dataclass
class FieldGrid:
    """Synthesized field values on a tensor grid, component-major."""

    axes: tuple
    values: np.ndarray
    meta: dict

    @property
    def dimension(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple:
        return tuple(len(a) for a in self.axes)

    @property
    def component_count(self) -> int:
        return self.values.shape[0]

    def component(self, index: int = 0) -> np.ndarray:
        return self.values[index]


def grid_axes(bounds: object, shape: object) -> tuple:
    """Evenly spaced inclusive grids, one 1-D array per axis."""
    shape_t = tuple(int(s) for s in np.atleast_1d(np.asarray(shape, dtype=int)))
    bounds_arr = np.asarray(bounds, dtype=float)
    if bounds_arr.ndim == 1:
        bounds_arr = bounds_arr[None, :]
    if bounds_arr.shape != (len(shape_t), 2):
        raise ValueError("bounds must pair (low, high) with every shape entry")
    axes = []
    for (lo, hi), m in zip(bounds_arr, shape_t):
        if not (hi > lo and m >= 1):
            raise ValueError("each axis needs high > low and at least one point")
        axes.append(np.linspace(lo, hi, m) if m > 1 else np.array([lo]))
    return tuple(axes)


def grid_steps(axes: tuple) -> tuple:
    """The spacing of each grid axis (1 on a one-point axis)."""
    return tuple(float(a[1] - a[0]) if len(a) > 1 else 1.0 for a in axes)


_RANK_TOL = 1e-15


class AxisPlan:
    """Truncated-SVD factors of one axis's W_j, built on first use per level.

    factors(j) gives (A_j, B_j) with A_j = U_j S_j (translations x r_j) and
    B_j = V_j (grid points x r_j), keeping the singular values above
    _RANK_TOL times the largest. Where a column of W_j is exactly zero (a grid
    point at 0) the row of B_j is zeroed, so the field vanishes there exactly.
    """

    def __init__(self, v: float, alpha: float, n: int, M: float, axis: np.ndarray) -> None:
        self.table_args = (v, alpha, n, M)
        k_cap = TruncationDomain(n, M).k_cap
        self.ks = np.arange(-k_cap, k_cap + 1)
        self.axis = axis
        self.levels = {}

    def factors(self, j: int) -> tuple:
        if j not in self.levels:
            w = w_coeff(table_for(*self.table_args), j, self.ks[:, None], self.axis[None, :])
            u, s, vt = np.linalg.svd(w, full_matrices=False)
            r = int(np.count_nonzero(s > _RANK_TOL * s[0]))
            a = u[:, :r] * s[:r]
            b = np.ascontiguousarray(vt[:r].T)
            b[~w.any(axis=0)] = 0.0
            a.setflags(write=False)
            b.setflags(write=False)
            self.levels[j] = (a, b)
        return self.levels[j]

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes + b.nbytes for a, b in self.levels.values())


@lru_cache(maxsize=8)
def axis_plan(v: float, alpha: float, n: int, M: float, axis: bytes) -> AxisPlan:
    """The plan of one axis grid (its float64 bytes) at (v, alpha, n, M)."""
    return AxisPlan(v, alpha, n, M, np.frombuffer(axis, dtype=float))


def _accumulate(
    atoms,
    H: np.ndarray,
    alpha: float,
    trunc: TruncationDomain,
    axes: tuple,
    mode: str,
) -> np.ndarray:
    plans = [
        axis_plan(float(h), float(alpha), trunc.n, trunc.M, np.asarray(a, dtype=float).tobytes())
        for h, a in zip(H, axes)
    ]

    def factor(axis: int, j: int) -> np.ndarray:
        return plans[axis].factors(j)[0]

    with _blas.one_thread():
        blocks = lepage.projected_blocks(atoms, alpha, trunc.n, trunc.M, factor, mode)
        if not blocks:
            return np.zeros((len(axes[0]), len(axes[1])))
        # stack exactly the levels this field needs, in ascending j, so its
        # bytes do not depend on the levels earlier calls cached
        bases, starts = [], []
        for axis, plan in enumerate(plans):
            levels = sorted({b[axis] for b in blocks})
            parts = [plan.factors(j)[1] for j in levels]
            bases.append(np.hstack(parts))
            starts.append(dict(zip(levels, np.cumsum([0] + [p.shape[1] for p in parts]))))
        core = np.zeros((bases[0].shape[1], bases[1].shape[1]))
        for j1, j2, z in blocks:
            r1, r2 = starts[0][j1], starts[1][j2]
            core[r1:r1 + z.shape[0], r2:r2 + z.shape[1]] = z
        return (bases[0] @ core) @ bases[1].T


def _validate_grid(axes: tuple, M: float) -> None:
    for a in axes:
        if np.max(np.abs(a)) > M:
            raise ValueError(f"grid must lie inside [-{M}, {M}] on every axis")


def _field_meta(
    H: np.ndarray, alpha: float, trunc: TruncationDomain, axes: tuple,
    seed: int, atoms: int, components: int, law: str,
) -> dict:
    """The meta dict a synthesized field records (its .zh header)."""
    return {
        "H": [float(h) for h in H],
        "alpha": float(alpha),
        "n": trunc.n,
        "M": trunc.M,
        "seed": int(seed),
        "atoms": int(atoms),
        "components": int(components),
        "coefficient_law": law,
        "bounds": [[float(a[0]), float(a[-1])] for a in axes],
        "shape": [len(a) for a in axes],
        "version": VERSION,
    }


def synthesize(
    H: object,
    alpha: float,
    trunc: TruncationDomain,
    grid: tuple,
    seed: int,
    d: int = 1,
    count: int = DEFAULT_ATOM_COUNT,
) -> FieldGrid:
    """Sample the truncated wavelet series on a tensor grid.

    grid is (bounds, shape) with bounds inside [-M, M]^2. Components of a
    vector field (d > 1) are synthesized from independent per-component
    streams derived from the master seed. alpha = 2 draws coefficients from
    their exact Gaussian law, and count is ignored; below 2 a fresh pool of
    `count` atoms drives the LePage coefficients. lepage.coefficient_blocks
    gives each law's scale window.
    """
    alpha = check_alpha(alpha)
    H_arr = check_hurst(H)
    if H_arr.size != 2:
        raise ValueError("wavelet synthesis is two-dimensional; pass H = (H1, H2)")
    if d < 1:
        raise ValueError("component count d must be at least 1")
    if alpha < 1.0:
        warnings.warn(
            "alpha below 1 is outside the regularity/geometry theory range; "
            "geometry estimators on this field are unsupported",
            RuntimeWarning,
            stacklevel=2,
        )
    axes = grid_axes(*grid)
    if len(axes) != 2:
        raise ValueError("grid must be two-dimensional")
    _validate_grid(axes, trunc.M)
    values = np.empty((int(d),) + tuple(len(a) for a in axes))
    atom_count = 0 if alpha == 2.0 else int(count)
    for i in range(int(d)):
        sub_seed = component_seed(seed, i)
        # the Gaussian law reads only the pool's seed
        atoms = lepage.sample_atoms(sub_seed, count if alpha < 2.0 else 1, 2)
        values[i] = _accumulate(atoms, H_arr, alpha, trunc, axes, "auto")
    law = "gaussian" if alpha == 2.0 else "lepage"
    meta = _field_meta(H_arr, alpha, trunc, axes, seed, atom_count, d, law)
    return FieldGrid(axes=axes, values=values, meta=meta)


def synthesize_from_atoms(
    atoms,
    H: object,
    alpha: float,
    trunc: TruncationDomain,
    grid: tuple,
) -> FieldGrid:
    """One-component synthesis from an existing atom pool.

    The coefficient route stays pathwise tied to the pool (at alpha = 2 the
    shared-atom mode is forced), so the output is directly comparable with
    direct_field on the same atoms. Every scale pair up to n that holds an
    atom is summed, from lepage.coarsest_levels(atoms, n) on each axis, so the
    only truncation is in fine scales and positions.
    """
    alpha = float(alpha)
    H_arr = check_hurst(H)
    axes = grid_axes(*grid)
    _validate_grid(axes, trunc.M)
    values = _accumulate(atoms, H_arr, alpha, trunc, axes, "atoms")[None]
    meta = _field_meta(H_arr, alpha, trunc, axes, atoms.seed, atoms.count, 1, "shared-atoms")
    return FieldGrid(axes=axes, values=values, meta=meta)


def transfer_check(
    atoms,
    H: object,
    alpha: float,
    n_list: object,
    M: float,
    grid: tuple,
) -> dict:
    """Relative RMS discrepancy of the truncated series against direct summation.

    Both routes share the same atoms, so the discrepancy is pure truncation
    error and should fall as n grows.
    """
    H_arr = check_hurst(H)
    axes = grid_axes(*grid)
    n_levels = [int(n) for n in n_list]
    direct = lepage.direct_field_grid(atoms, axes, H_arr, alpha)
    denom = float(np.sqrt(np.mean(direct**2)))
    residuals = {}
    for n in n_levels:
        trunc = TruncationDomain(n, float(M))
        _validate_grid(axes, trunc.M)
        series = _accumulate(atoms, H_arr, float(alpha), trunc, axes, "atoms")
        residuals[n] = float(np.sqrt(np.mean((series - direct) ** 2)) / denom)
    ordered = [residuals[n] for n in n_levels]
    return {
        "alpha": float(alpha),
        "H": [float(h) for h in H_arr],
        "M": float(M),
        "levels": n_levels,
        "residuals": residuals,
        "monotone_decreasing": bool(
            all(a > b for a, b in zip(ordered, ordered[1:]))
        ),
        "final_residual": ordered[-1],
    }


def _dyadic_lags(m: int) -> list:
    lags = [0]
    p = 1
    while p <= m - 1:
        lags.append(p)
        p *= 2
    return lags


def _dyadic_holder_seminorm(diff: np.ndarray, steps: tuple, gamma: float) -> float:
    m1, m2 = diff.shape
    best = 0.0
    for l1 in _dyadic_lags(m1):
        for l2 in _dyadic_lags(m2):
            if l1 == 0 and l2 == 0:
                continue
            inc = diff[l1:, l2:] - diff[: m1 - l1, : m2 - l2]
            dist = math.hypot(l1 * steps[0], l2 * steps[1]) ** gamma
            best = max(best, float(np.max(np.abs(inc)) / dist))
    return best


def holder_cauchy_report(
    H: object,
    alpha: float,
    n_list: object,
    gamma: float,
    grid: tuple,
    seeds: object,
    M: float = 2.0,
    count: int = 10_000,
) -> dict:
    """Decay of successive series differences U_{n+1} - U_n in Holder seminorm.

    For each seed the truncations share one realization (same atoms below
    alpha = 2; one nested Gaussian stream at alpha = 2), so consecutive
    differences are genuine series tails. Reports the discrete gamma-Holder
    seminorm over dyadic lags and the sup norm, per level pair, with means
    over seeds; `decreased_on_average` compares the last pair to the first.
    """
    alpha = float(alpha)
    H_arr = check_hurst(H)
    gamma = float(gamma)
    if not 0.0 <= gamma < float(np.min(H_arr)):
        raise ValueError("gamma must satisfy 0 <= gamma < min(H)")
    levels = sorted(int(n) for n in n_list)
    if len(levels) < 2:
        raise ValueError("need at least two truncation levels")
    axes = grid_axes(*grid)
    _validate_grid(axes, float(M))
    steps = grid_steps(axes)
    pairs = list(zip(levels[:-1], levels[1:]))
    seed_list = [int(s) for s in seeds]
    semi = np.zeros((len(seed_list), len(pairs)))
    sup = np.zeros_like(semi)
    for row, seed in enumerate(seed_list):
        atoms = lepage.sample_atoms(seed, count if alpha < 2.0 else 1, 2)
        fields = {
            n: _accumulate(
                atoms, H_arr, alpha, TruncationDomain(n, float(M)), axes, "auto"
            )
            for n in levels
        }
        for col, (lo, hi) in enumerate(pairs):
            diff = fields[hi] - fields[lo]
            semi[row, col] = _dyadic_holder_seminorm(diff, steps, gamma)
            sup[row, col] = float(np.max(np.abs(diff)))
    semi_means = semi.mean(axis=0)
    sup_means = sup.mean(axis=0)
    return {
        "alpha": alpha,
        "H": [float(h) for h in H_arr],
        "gamma": gamma,
        "M": float(M),
        "pairs": pairs,
        "seeds": seed_list,
        "seminorm_means": semi_means.tolist(),
        "sup_means": sup_means.tolist(),
        "seminorm_per_seed": semi.tolist(),
        "sup_per_seed": sup.tolist(),
        "decreased_on_average": bool(semi_means[-1] < semi_means[0]),
        "sup_decreased_on_average": bool(sup_means[-1] < sup_means[0]),
    }


def truncated_point_variance(H: object, trunc: TruncationDomain, t: object) -> dict:
    """Exact Gaussian-case variance of the truncated series at one point.

    At alpha = 2 coefficients are iid with Re-variance 2, so the point
    variance factorizes into per-axis sums of squared factors. Comparing with
    the closed-form target 2 sigma(t)^2 isolates the truncation deficit
    without any sampling.
    """
    H_arr = check_hurst(H)
    t_arr = np.asarray(t, dtype=float).reshape(-1)
    if t_arr.size != H_arr.size:
        raise ValueError("t and H must have the same length")
    ks = np.arange(-trunc.k_cap, trunc.k_cap + 1)
    axis_sums = []
    for h, x in zip(H_arr, t_arr):
        table = table_for(float(h), 2.0, trunc.n, trunc.M)
        s = 0.0
        for j in lepage.gaussian_levels(trunc.n):
            w = w_coeff(table, j, ks, x)
            s += float(np.sum(w**2))
        axis_sums.append(s)
    variance = 2.0 * float(np.prod(axis_sums))
    target = 2.0 * float(
        np.prod(
            [abs(x) ** (2.0 * h) * kappa(2.0, float(h)) for h, x in zip(H_arr, t_arr)]
        )
    )
    return {
        "t": t_arr.tolist(),
        "H": H_arr.tolist(),
        "n": trunc.n,
        "M": trunc.M,
        "variance": variance,
        "target": target,
        "ratio": variance / target if target > 0 else math.inf,
    }
