"""Atom pools for series simulation and the random coefficients they induce.

One pool of heavy-tailed atoms drives both simulation routes: the random
wavelet coefficients of the truncated series, and direct kernel sums that
approximate the field without any truncation in scale. Sharing the
randomness is what makes the two routes pathwise comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from . import _blas, _parallel
from ._rng import stream
from .fractional_kernel import (
    check_hurst, kernel_phases, progression_phases, translation_cap,
)
from .meyer_wavelet import RING_LOWER, RING_UPPER, TAU, check_alpha, envelope, psi_hat_ajk

_GAUSS_COEFF_STD = math.sqrt(2.0)
_ATOM_CHUNK = 8192
# atoms per phase table in _projected_atom_blocks, K x 512 complex. The chunk
# partition fixes the shape of each GEMM operand, and so the bytes of a field.
# Each task makes its own tables, and what a worker thread frees stays in its
# malloc arena, so a table must stay small: 2.6 MB at K = 321
_COLUMN_CHUNK = 512
_POINT_CHUNK = 512
_DRAW_CHUNK = 16384  # coefficients per read of a Gaussian stream: 256 kB of normals
_PHASE_TABLE_TERMS = 1 << 17  # largest direct_field point table a pool keeps: 1 MB of floats
_THETA = 0.5  # the tail exponent of sample_atoms' frequency density


@dataclass(frozen=True)
class LePageAtoms:
    """One realization of shared randomness: arrivals, frequency points, phases.

    The arrays must not be changed in place: the pool keeps values derived
    from them (the density, and direct_field's latest phase table).
    """

    seed: int
    count: int
    theta: float
    gammas: np.ndarray
    points: np.ndarray
    rotations: np.ndarray
    # direct_field's most recent point table, {key: table}; freed with the pool
    _phases: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    @property
    def amplitudes(self) -> np.ndarray:
        """Square roots of the arrival increments; unit-mean-square, used at alpha = 2."""
        return np.sqrt(np.diff(self.gammas, prepend=0.0))

    @cached_property
    def _density(self) -> np.ndarray:
        # phi_density at every frequency point, computed once per pool
        return np.asarray(phi_density(self.points, self.theta))


def sample_atoms(seed: int, count: int, N: int) -> LePageAtoms:
    """Draw one atom pool: Poisson arrival times, frequency points with product
    density (theta/2)^N prod (1+|x_l|)^(-1-theta) at theta = _THETA, and
    uniform unit phases."""
    count, N = int(count), int(N)
    if count < 1:
        raise ValueError("count must be at least 1")
    if N < 1:
        raise ValueError("dimension must be at least 1")
    rng = stream(seed, "atoms")
    gammas = np.cumsum(rng.exponential(1.0, count))
    w = 2.0 * rng.random((count, N)) - 1.0
    # inverse CDF per axis; the max() guards the measure-zero draw w = -1
    base = np.maximum(1.0 - np.abs(w), 2.0**-53)
    points = np.sign(w) * (base ** (-1.0 / _THETA) - 1.0)
    rotations = np.exp(1j * rng.uniform(0.0, TAU, count))
    return LePageAtoms(
        seed=int(seed),
        count=count,
        theta=_THETA,
        gammas=gammas,
        points=points,
        rotations=rotations,
    )


def phi_density(points: object, theta: float = _THETA) -> object:
    """Importance density: product over axes of (theta/2)(1+|x|)^(-1-theta)."""
    theta = float(theta)
    arr = np.asarray(points, dtype=float)
    single = arr.ndim == 1
    if single:
        arr = arr[None, :]
    # one column product per axis: the same bits as np.prod(axis=-1), whose
    # reduction over a short last axis costs more than the powers
    dens = math.prod((0.5 * theta * (1.0 + np.abs(arr)) ** (-1.0 - theta)).T)
    return float(dens[0]) if single else dens


def _mean_abs_cos_power(alpha: float) -> float:
    # (2/pi) int_0^1 (1-u^2)^((alpha-1)/2) du; Gauss-Jacobi absorbs the u = 1 endpoint
    from scipy.special import roots_jacobi

    p = 0.5 * (alpha - 1.0)
    x, w = roots_jacobi(64, p, 0.0)
    return float((2.0 / np.pi) * 0.5 ** (p + 1.0) * np.sum(w * (0.5 * (3.0 + x)) ** p))


@lru_cache(maxsize=64)
def stable_multiplier(alpha: float) -> float:
    """Normalizer making Re of a LePage sum stable with the L^alpha kernel scale.

    k(alpha) = (C_alpha / m_alpha)^(1/alpha): C_alpha is the tail constant of a
    unit-scale symmetric stable law, m_alpha the mean of |cos|^alpha over a
    uniform phase. Undefined at alpha = 2, where coefficients are drawn from
    their exact Gaussian law instead.
    """
    alpha = float(alpha)
    if not 0.0 < alpha < 2.0:
        raise ValueError(
            f"stable_multiplier requires alpha in (0, 2), got {alpha}; "
            "the alpha = 2 route draws Gaussian coefficients directly"
        )
    if alpha == 1.0:
        c = 2.0 / math.pi
    else:
        from scipy.special import gamma

        c = (1.0 - alpha) / (float(gamma(2.0 - alpha)) * math.cos(0.5 * math.pi * alpha))
    return float((c / _mean_abs_cos_power(alpha)) ** (1.0 / alpha))


def atom_weights(atoms: LePageAtoms, alpha: float) -> np.ndarray:
    """Complex series weight of each atom.

    alpha < 2: k(alpha) Gamma_i^(-1/alpha) phi(V_i)^(-1/alpha) g_i.
    alpha = 2: (2/sqrt(count)) amplitude_i phi(V_i)^(-1/2) g_i, the spectral
    Monte Carlo weights whose Re-sums have the Gaussian-limit variance.
    """
    alpha = check_alpha(alpha)
    dens = atoms._density
    if alpha == 2.0:
        scale = 2.0 / math.sqrt(atoms.count)
        return scale * atoms.amplitudes * dens**-0.5 * atoms.rotations
    k = stable_multiplier(alpha)
    return k * atoms.gammas ** (-1.0 / alpha) * dens ** (-1.0 / alpha) * atoms.rotations


# --- truncation-independent ordering of the coefficient lattice ---------------
#
# At alpha = 2 every coefficient block is read as a prefix of one Gaussian
# stream per scale pair, laid out ring by ring around K = 0. A coefficient at
# fixed (J, K) therefore has the same value no matter which truncation level
# asked for it, which is what makes successive truncations nested partial sums
# of a single field.


@lru_cache(maxsize=32)
def _ring_rank_lattice(k_cap: int) -> np.ndarray:
    ks = np.arange(-k_cap, k_cap + 1)
    k1 = ks[:, None]
    k2 = ks[None, :]
    r = np.maximum(np.abs(k1), np.abs(k2))
    base = np.where(r > 0, (2 * r - 1) ** 2, 0)
    off_low = k2 + r
    off_high = 6 * r - 1 + (k2 + r)
    off_mid = 2 * r + 1 + 2 * (k1 + r - 1) + (k2 == r)
    off = np.where(k1 == -r, off_low, np.where(k1 == r, off_high, off_mid))
    out = base + np.where(r > 0, off, 0)
    out.setflags(write=False)
    return out


def _ring_draws(seed: int, j1: int, j2: int, k_cap: int, dtype: type) -> np.ndarray:
    # The stream of pair (j1, j2) holds one (Re, Im) pair of N(0, 2) normals
    # per coefficient, in ring order. dtype complex keeps both parts; dtype
    # float keeps the real parts alone, though the stream is read in full.
    # The stream is read in chunks, so the temporaries stay small.
    need = (2 * k_cap + 1) ** 2
    flat = np.empty(need, dtype)
    parts = flat.view(float).reshape(need, -1)
    rng = stream(seed, "coeff", j1, j2)
    buf = np.empty((min(need, _DRAW_CHUNK), 2))
    for start in range(0, need, _DRAW_CHUNK):
        pairs = buf[: min(_DRAW_CHUNK, need - start)]
        rng.standard_normal(out=pairs)
        parts[start:start + pairs.shape[0]] = pairs[:, : parts.shape[1]]
    # normal(0, s) returns 0 + s z, which makes a z of -0.0 into +0.0
    parts *= _GAUSS_COEFF_STD
    parts += 0.0
    return flat


def _gaussian_block(seed: int, j1: int, j2: int, k_cap: int) -> np.ndarray:
    return _ring_draws(seed, j1, j2, k_cap, complex)[_ring_rank_lattice(k_cap)]


def _gaussian_real_block(seed: int, j1: int, j2: int, k_cap: int) -> np.ndarray:
    """np.real(_gaussian_block(seed, j1, j2, k_cap)), with no complex array formed."""
    return _ring_draws(seed, j1, j2, k_cap, float)[_ring_rank_lattice(k_cap)]


def _lattice_phases(ks: np.ndarray, x: np.ndarray) -> np.ndarray:
    # e^{i k x} for the consecutive integers ks, from two short exp tables
    coarse, fine = progression_phases(float(ks[0]), 1.0, ks.size, x)
    phases = coarse[:, None, :] * fine[None, :, :]
    return phases.reshape(-1, x.size)[: ks.size]


def _atom_block(
    atoms: LePageAtoms, weights: np.ndarray, alpha: float, j1: int, j2: int,
    ks: np.ndarray, held1: tuple, held2: tuple,
) -> np.ndarray:
    # held1, held2: the _held_levels (mask, envelope values) of axis 0 at j1
    # and of axis 1 at j2
    (m1, e1), (m2, e2) = held1, held2
    mask = m1 & m2
    out = np.zeros((ks.size, ks.size), dtype=complex)
    if not mask.any():
        return out
    x1 = np.ldexp(atoms.points[mask, 0], -j1)
    x2 = np.ldexp(atoms.points[mask, 1], -j2)
    coeff = (
        weights[mask]
        * 2.0 ** (-(j1 + j2) / alpha)
        * (e1[mask[m1]] / math.sqrt(TAU))
        * (e2[mask[m2]] / math.sqrt(TAU))
        * np.exp(-0.5j * (x1 + x2))
    )
    for start in range(0, coeff.size, _ATOM_CHUNK):
        sel = slice(start, start + _ATOM_CHUNK)
        p1 = _lattice_phases(ks, x1[sel])
        p2 = _lattice_phases(ks, x2[sel])
        p1 *= coeff[sel]
        out += p1 @ p2.T
    return out


def coefficient(atoms: LePageAtoms, J: object, K: object, alpha: float) -> complex:
    """One random wavelet coefficient from the shared atoms.

    alpha < 2: exact-rounded (order-independent) LePage sum over all atoms.
    alpha = 2: read from the smallest Gaussian block that holds K, so the
    value agrees bitwise with the block route at any truncation. The Gaussian
    blocks are two-dimensional.
    """
    alpha = float(alpha)
    J_arr = [int(j) for j in np.atleast_1d(np.asarray(J, dtype=int))]
    K_arr = [int(k) for k in np.atleast_1d(np.asarray(K, dtype=int))]
    if len(J_arr) != atoms.dimension or len(K_arr) != atoms.dimension:
        raise ValueError("J and K must have one entry per dimension")
    if alpha == 2.0:
        if atoms.dimension != 2:
            raise ValueError("Gaussian coefficients are two-dimensional")
        (k1, k2), cap = K_arr, max(abs(k) for k in K_arr)
        return complex(_gaussian_block(atoms.seed, *J_arr, cap)[k1 + cap, k2 + cap])
    weights = atom_weights(atoms, alpha)
    prod = np.ones(atoms.count, dtype=complex)
    for axis, (j, k) in enumerate(zip(J_arr, K_arr)):
        prod *= np.conj(np.asarray(psi_hat_ajk(alpha, j, k, atoms.points[:, axis])))
    terms = weights * prod
    return complex(math.fsum(terms.real), math.fsum(terms.imag))


def _held_levels(x: np.ndarray, n: int) -> dict:
    # level j <= n -> (mask of the atoms whose envelope(2^-j x) is nonzero,
    # their envelope values). envelope is 0 outside the closed ring
    # RING_LOWER <= |xi| <= RING_UPPER, and 2^-j x is exact, so it is evaluated
    # only on the atoms with RING_LOWER 2^j <= |x| <= RING_UPPER 2^j: at most
    # three levels per atom. Below floor(log2(min |x| / RING_UPPER)) every
    # 2^-j |x| lies above the ring, so no coarser level holds an atom. Zero
    # coordinates hold none.
    mags = np.abs(x)
    off = mags[mags != 0.0]
    if off.size == 0:
        return {}
    lo = int(np.floor(np.log2(np.min(off) / RING_UPPER)))
    levels = {}
    for j in range(lo, n + 1):
        inside = (mags >= math.ldexp(RING_LOWER, j)) & (mags <= math.ldexp(RING_UPPER, j))
        ring = np.flatnonzero(inside)
        values = np.asarray(envelope(np.ldexp(x[ring], -j)))
        nonzero = values != 0.0
        if nonzero.any():
            mask = np.zeros(x.size, dtype=bool)
            mask[ring[nonzero]] = True
            levels[j] = (mask, values[nonzero])
    return levels


def gaussian_levels(n: int) -> range:
    """The scales -n <= j <= n that the Gaussian route sums on each axis."""
    return range(-int(n), int(n) + 1)


def coarsest_levels(atoms: LePageAtoms, n: int) -> tuple:
    """Per axis, the coarsest scale j <= n at which some atom's envelope is
    nonzero, or None if there is none.

    Every coarser block of the atom route is exactly zero, so this is where
    its scale window starts.
    """
    return tuple(
        min(_held_levels(atoms.points[:, axis], int(n)), default=None)
        for axis in range(atoms.dimension)
    )


def _scale_window(atoms: LePageAtoms, n: int, gaussian: bool) -> tuple:
    # The scale window of each route, as (held, pairs) with the pairs in
    # lexicographic order. The Gaussian route sums every pair of
    # gaussian_levels(n), and held is None. The atom route sums the pairs at
    # which some atom is held on both axes, with held[l] the _held_levels of
    # axis l: every other block is exactly zero.
    if atoms.dimension != 2:
        raise ValueError("scale pairs are two-dimensional")
    if gaussian:
        levels = gaussian_levels(n)
        return None, [(j1, j2) for j1 in levels for j2 in levels]
    held = [_held_levels(atoms.points[:, axis], n) for axis in (0, 1)]
    return held, [
        (j1, j2) for j1, (m1, _) in held[0].items() for j2, (m2, _) in held[1].items()
        if bool(np.any(m1 & m2))
    ]


def _route(atoms: LePageAtoms, alpha: float, n: int, mode: str) -> tuple:
    # The choice of coefficient law for every block consumer: iid Gaussian at
    # alpha = 2 in mode "auto", LePage atom sums otherwise. Returns (held,
    # pairs), the law's _scale_window
    if mode not in ("auto", "atoms"):
        raise ValueError(f"unknown mode {mode!r}")
    if int(n) < 0:
        raise ValueError("the series window needs n >= 0")
    return _scale_window(atoms, int(n), float(alpha) == 2.0 and mode == "auto")


def scale_pairs(atoms: LePageAtoms, alpha: float, n: int, mode: str = "auto") -> list:
    """The scale pairs (j1, j2) that coefficient_blocks(atoms, alpha, n, M, mode)
    yields, in its order, for any M.

    On the atom route these are the pairs at which some atom's envelope is
    nonzero on both axes; every other block is exactly zero.
    """
    return _route(atoms, alpha, n, mode)[1]


def coefficient_blocks(
    atoms: LePageAtoms, alpha: float, n: int, M: float, mode: str = "auto"
):
    """Yield (j1, j2, block) over scale pairs in lexicographic order.

    block[a, b] is the coefficient at K = (a - k_cap, b - k_cap) with
    k_cap = floor(M 2^(n+1)). mode "auto" picks the exact law per alpha
    (atom sums below 2, iid Gaussian at 2); mode "atoms" forces the shared-atom
    route at alpha = 2 so blocks stay pathwise consistent with direct_field.

    Scale window: the Gaussian route (alpha = 2, mode "auto") yields every
    pair of gaussian_levels(n). On the atom route each axis runs from
    coarsest_levels(atoms, n) up to n, with no cut at -n: a block holds only the
    atoms whose envelope is nonzero at that scale, so every coarser block is
    exactly zero and the coarse sum is finite. Only the occupied pairs, those
    of scale_pairs(atoms, alpha, n, mode), are yielded.
    """
    alpha = float(alpha)
    k_cap = translation_cap(int(n), float(M))
    held, pairs = _route(atoms, alpha, n, mode)
    if held is None:
        for j1, j2 in pairs:
            yield j1, j2, _gaussian_block(atoms.seed, j1, j2, k_cap)
        return
    ks = np.arange(-k_cap, k_cap + 1)
    weights = atom_weights(atoms, alpha)
    for j1, j2 in pairs:
        with _blas.one_thread():
            block = _atom_block(atoms, weights, alpha, j1, j2, ks, held[0][j1], held[1][j2])
        yield j1, j2, block


def projected_blocks(
    atoms: LePageAtoms, alpha: float, n: int, M: float, factor, mode: str
) -> list:
    """(j1, j2, Z) with Z = Re(A1^T C A2), over the pairs of coefficient_blocks
    and in its order.

    C is the block of coefficient_blocks(atoms, alpha, n, M, mode) at (j1, j2),
    and A_l = factor(l, j_l) is a real matrix with one row per translation
    |k| <= k_cap. The blocks are computed on the thread pool (see _parallel),
    and every factor is computed here first, on the calling thread.
    """
    alpha = float(alpha)
    k_cap = translation_cap(int(n), float(M))
    held, pairs = _route(atoms, alpha, n, mode)
    factors = [{j: factor(axis, j) for j in sorted({p[axis] for p in pairs})} for axis in (0, 1)]
    if held is None:
        return _projected_gaussian_blocks(atoms.seed, pairs, k_cap, factors)
    return _projected_atom_blocks(atoms, alpha, held, pairs, k_cap, factors)


def _projected_gaussian_blocks(seed: int, pairs: list, k_cap: int, factors: list) -> list:
    # Each pair reads its own stream, so each is drawn (real parts only) and
    # projected in its own task; the ring order is built here first, on the
    # calling thread
    _ring_rank_lattice(k_cap)

    def project(pair: tuple) -> tuple:
        j1, j2 = pair
        re = _gaussian_real_block(seed, j1, j2, k_cap)
        return j1, j2, factors[0][j1].T @ (re @ factors[1][j2])

    return _parallel.ordered_map(project, pairs)


def _projected_atom_blocks(
    atoms: LePageAtoms, alpha: float, held: list, pairs: list, k_cap: int, factors: list
) -> list:
    # C is never formed: its coefficient is separable per atom,
    # w_a f_1(a, j1) f_2(a, j2) e^{i (k1 x1 + k2 x2)}, so each axis level gets
    # one column per atom it holds, h_l(a, j) = f_l(a, j) sum_k e^{i k x} A_l[k, :],
    # and Z = Re(sum_a w_a h_1(a, j1) h_2(a, j2)^T) over the atoms of the pair.
    # Only atoms held on both axes get columns. The pool runs one task per
    # axis-1 level, then one task per axis-0 level, which forms its row of
    # blocks.
    if not pairs:
        return []
    ks = np.arange(-k_cap, k_cap + 1)
    weights = atom_weights(atoms, alpha)
    # on_other[l]: the atoms that some level of the other axis holds
    on_other = [np.zeros(atoms.count, dtype=bool) for _ in held]
    for axis, levels in enumerate(held):
        for mask, _ in levels.values():
            on_other[1 - axis] |= mask
    # per axis, {j: (atoms, their envelope values, A_l(j))} of each level of a pair
    tasks = [{}, {}]
    for axis, levels in enumerate(factors):
        for j, a in levels.items():
            mask, env = held[axis][j]
            sel = mask & on_other[axis]
            tasks[axis][j] = (sel, env[sel[mask]], a)
    partners = {}
    for j1, j2 in pairs:
        partners.setdefault(j1, []).append(j2)
    # Made here: every axis-1 column array, which outlives its task (the memory
    # rule in _parallel). Made by the workers, they raised a process's peak RSS
    # by 8% or more
    cols2 = {j: np.empty((a.shape[1], env.size), dtype=complex)
             for j, (_, env, a) in tasks[1].items()}

    def columns(axis: int, j: int, out: np.ndarray) -> np.ndarray:
        # out[:, a] = h_l(a, j) for the level's atoms a, times w_a on axis 0
        sel, env, a = tasks[axis][j]
        x = np.ldexp(atoms.points[sel, axis], -j)
        f = 2.0 ** (-j / alpha) * (env / math.sqrt(TAU)) * np.exp(-0.5j * x)
        if axis == 0:
            f *= weights[sel]
        parts = out.view(float)
        for start in range(0, x.size, _COLUMN_CHUNK):
            stop = min(start + _COLUMN_CHUNK, x.size)
            table = _lattice_phases(ks, x[start:stop])
            # a real factor times complex phases: one real GEMM on the interleaved parts
            np.matmul(a.T, table.view(float), out=parts[:, 2 * start:2 * stop])
        out *= f
        return out

    def axis1(j2: int) -> None:
        # conjugated once per level, for every pair's Re(x y^T) below
        np.conjugate(columns(1, j2, cols2[j2]), out=cols2[j2])

    def row(j1: int) -> list:
        sel1, env1, a = tasks[0][j1]
        cols1 = columns(0, j1, np.empty((a.shape[1], env1.size), dtype=complex))
        blocks = []
        for j2 in partners[j1]:
            sel2 = tasks[1][j2][0]
            common = sel1 & sel2
            # Re(x conj(y)^T) = x_re y_re^T - x_im y_im^T, one GEMM on interleaved parts
            x = np.ascontiguousarray(cols1[:, common[sel1]])
            y = np.ascontiguousarray(cols2[j2][:, common[sel2]])
            blocks.append((j1, j2, x.view(float) @ y.view(float).T))
        return blocks

    _parallel.ordered_map(axis1, tasks[1])
    rows = _parallel.ordered_map(row, tasks[0])
    return [block for blocks in rows for block in blocks]


def _check_field_args(atoms: LePageAtoms, H: object, alpha: float) -> np.ndarray:
    H_arr = np.asarray(H, dtype=float).reshape(-1)
    if H_arr.size != atoms.dimension:
        raise ValueError("H must have one entry per dimension")
    check_alpha(alpha)
    return check_hurst(H_arr)


def _atom_scales(atoms: LePageAtoms, H: np.ndarray, alpha: float) -> np.ndarray:
    # |w_a| prod_l |lambda_al|^(-(H_l + 1/alpha)) for every atom a, as one exp of
    # a sum of logs; 0 where some lambda_al = 0. The pool keeps phi, not the
    # logs: a log is one vectorized pass, while keeping them raised the memory
    # high-water mark of a pool's direct sums above that of its draw.
    if alpha == 2.0:
        k = 2.0 / math.sqrt(atoms.count)
        expo = np.log(np.diff(atoms.gammas, prepend=0.0))
        expo -= np.log(atoms._density)
        expo *= 0.5
    else:
        k = stable_multiplier(alpha)
        expo = np.log(atoms.gammas)
        expo += np.log(atoms._density)
        expo *= -1.0 / alpha
    for h, lam in zip(H, atoms.points.T):
        logs = np.abs(lam)
        logs[logs == 0.0] = np.inf  # so that exp(-p log|lambda|) is 0 there
        np.log(logs, out=logs)
        logs *= h + 1.0 / alpha
        expo -= logs
    np.exp(expo, out=expo)
    expo *= k
    return expo


def _phase_table(atoms: LePageAtoms, pts: np.ndarray) -> np.ndarray:
    # Re(g_a prod_l (e^{i t_l lambda_al} - 1)) for each point row t and atom a:
    # the alpha-free factor of every direct-sum term. The pool keeps the table
    # of the most recent point set, when it has at most _PHASE_TABLE_TERMS entries.
    key = (pts.shape, pts.tobytes())
    table = atoms._phases.get(key)
    if table is not None:
        return table
    table = np.empty((pts.shape[0], atoms.count))
    for a0 in range(0, atoms.count, _ATOM_CHUNK):
        cols = slice(a0, a0 + _ATOM_CHUNK)
        prod = kernel_phases(pts[:, 0], atoms.points[cols, 0])
        prod *= atoms.rotations[cols]
        for axis in range(1, atoms.dimension):
            prod *= kernel_phases(pts[:, axis], atoms.points[cols, axis])
        table[:, cols] = prod.real
    atoms._phases.clear()
    if table.size <= _PHASE_TABLE_TERMS:
        atoms._phases[key] = table
    return table


def direct_field(atoms: LePageAtoms, t: object, H: object, alpha: float) -> object:
    """Field values at arbitrary points by direct kernel summation over atoms.

    Each term is Re(g_a prod_l (e^{i t_l lambda_al} - 1)) times a real, alpha-
    dependent magnitude. The pool keeps the first factor for its most recent
    point set, so another alpha at the same points costs one exp per atom. The
    sum over atoms runs on one BLAS thread, so its bytes do not depend on the
    BLAS thread count.
    """
    alpha = float(alpha)
    H_arr = _check_field_args(atoms, H, alpha)
    t_arr = np.asarray(t, dtype=float)
    single = t_arr.ndim == 1
    pts = t_arr[None, :] if single else t_arr
    if pts.ndim != 2 or pts.shape[1] != atoms.dimension:
        raise ValueError("points must have shape (m, N) or (N,)")
    scales = _atom_scales(atoms, H_arr, alpha)
    acc = np.empty(pts.shape[0])
    with _blas.one_thread():
        for p0 in range(0, pts.shape[0], _POINT_CHUNK):
            rows = slice(p0, p0 + _POINT_CHUNK)
            acc[rows] = _phase_table(atoms, pts[rows]) @ scales
    return float(acc[0]) if single else acc


def direct_field_grid(atoms: LePageAtoms, axes: object, H: object, alpha: float) -> np.ndarray:
    """Field on a tensor grid: one phase matrix per axis, summed in atom chunks."""
    alpha = float(alpha)
    H_arr = _check_field_args(atoms, H, alpha)
    axes_list = [np.asarray(a, dtype=float).reshape(-1) for a in axes]
    if len(axes_list) != atoms.dimension:
        raise ValueError("need one axis per dimension")
    # the complex weights with every kernel magnitude folded in
    u = atoms.rotations * _atom_scales(atoms, H_arr, alpha)
    if atoms.dimension == 1:
        out = np.zeros(axes_list[0].size, dtype=complex)
        for a0 in range(0, atoms.count, _ATOM_CHUNK):
            cols = slice(a0, a0 + _ATOM_CHUNK)
            out += kernel_phases(axes_list[0], atoms.points[cols, 0]) @ u[cols]
        return out.real
    if atoms.dimension != 2:
        raise ValueError("tensor grids support one or two dimensions")
    out = np.zeros((axes_list[0].size, axes_list[1].size), dtype=complex)
    for a0 in range(0, atoms.count, _ATOM_CHUNK):
        cols = slice(a0, a0 + _ATOM_CHUNK)
        B1 = kernel_phases(axes_list[0], atoms.points[cols, 0])
        B1 *= u[cols]
        out += B1 @ kernel_phases(axes_list[1], atoms.points[cols, 1]).T
    return out.real


def coefficient_growth_report(
    atoms: LePageAtoms, n: int, M: float, alpha: float, eta: float
) -> dict:
    """Max coefficient magnitude under the scale/position decay normalization.

    Below alpha = 1 the normalizer is prod_l (1+|j_l|)^(1/alpha+eta); from 1 on
    it gains sqrt(log(2+|j_l|)) sqrt(log(2+|k_l|)) factors. The report compares
    the normalized max at a reference truncation (level 4, or n if smaller)
    against level n: a stable bound grows by less than 10%. The eta = 0
    variant is recorded for contrast but never asserted on.

    One pass over the level-n blocks gives both truncations: the series is
    nested, so the reference blocks are the centred |k| <= k_cap(reference)
    sub-blocks of the level-n blocks at the reference window's pairs. On the
    atom route their phases round apart from those of a pass of their own, by
    up to about 3e-14 of a block's largest magnitude.
    """
    alpha, eta, M = float(alpha), float(eta), float(M)
    n = int(n)
    if eta <= 0.0:
        raise ValueError("eta must be positive")
    reference = min(4, n)
    k_cap = translation_cap(n, M)
    ref_pairs = set(scale_pairs(atoms, alpha, reference))
    ref_cap = translation_cap(reference, M)
    centre = slice(k_cap - ref_cap, k_cap + ref_cap + 1)
    ks = np.arange(-k_cap, k_cap + 1)
    if alpha >= 1.0:
        k_fac = np.sqrt(np.log(2.0 + np.abs(ks)))
        denom_k = np.outer(k_fac, k_fac)
    else:
        denom_k = np.ones((ks.size, ks.size))
    top_max = top_zero = ref_max = 0.0
    for j1, j2, block in coefficient_blocks(atoms, alpha, n, M):
        mags = np.abs(block)
        normalized = []
        for eta_val in (eta, 0.0):
            scale = ((1.0 + abs(j1)) * (1.0 + abs(j2))) ** (1.0 / alpha + eta_val)
            if alpha >= 1.0:
                scale *= math.sqrt(math.log(2.0 + abs(j1)) * math.log(2.0 + abs(j2)))
            normalized.append(mags / (scale * denom_k))
        top_max = max(top_max, float(np.max(normalized[0])))
        top_zero = max(top_zero, float(np.max(normalized[1])))
        if (j1, j2) in ref_pairs:
            ref_max = max(ref_max, float(np.max(normalized[0][centre, centre])))
    ratio = top_max / ref_max if ref_max > 0 else math.inf
    return {
        "alpha": alpha,
        "eta": eta,
        "M": M,
        "reference_level": reference,
        "n": n,
        "max_at_reference": ref_max,
        "max_at_n": top_max,
        "ratio": ratio,
        "stable": bool(ratio < 1.10),
        "max_eta_zero": top_zero,
    }
