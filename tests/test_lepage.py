"""Tests for the heavy-tailed atom pools and the random coefficients they induce."""

import math
import weakref

import numpy as np
import pytest
from scipy import integrate, stats

from stablesheet import _blas
from stablesheet import lepage as lp
from stablesheet._rng import stream
from stablesheet.fractional_kernel import kernel_axis, scale_sigma


class TestSampleAtoms:
    def test_same_seed_is_bit_identical(self):
        a = lp.sample_atoms(7, 500, 2)
        b = lp.sample_atoms(7, 500, 2)
        assert np.array_equal(a.gammas, b.gammas)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.rotations, b.rotations)

    def test_shapes_and_arrival_monotonicity(self):
        a = lp.sample_atoms(3, 250, 2)
        assert a.gammas.shape == (250,)
        assert a.points.shape == (250, 2)
        assert a.rotations.shape == (250,)
        assert a.dimension == 2
        assert np.all(np.diff(a.gammas) > 0.0)
        assert a.gammas[0] > 0.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            lp.sample_atoms(1, 0, 2)
        with pytest.raises(ValueError):
            lp.sample_atoms(1, 10, 0)

    def test_arrival_increments_have_unit_mean(self):
        a = lp.sample_atoms(2024, 20000, 2)
        increments = np.diff(a.gammas, prepend=0.0)
        assert abs(np.mean(increments) - 1.0) < 0.02

    def test_rotations_lie_on_unit_circle(self):
        a = lp.sample_atoms(2024, 20000, 2)
        assert np.max(np.abs(np.abs(a.rotations) - 1.0)) < 1e-15

    def test_phase_angles_are_uniform(self):
        a = lp.sample_atoms(2024, 20000, 2)
        angles = np.angle(a.rotations) % (2.0 * np.pi)
        ks = stats.kstest(angles, stats.uniform(0.0, 2.0 * np.pi).cdf)
        assert ks.pvalue > 0.01

    def test_frequency_magnitudes_follow_pareto_law(self):
        # |V| per axis has CDF 1 - (1+x)^(-theta) under the inverse transform
        a = lp.sample_atoms(2024, 20000, 2)
        assert a.theta == 0.5
        for axis in range(2):
            ks = stats.kstest(
                np.abs(a.points[:, axis]), lambda x: 1.0 - (1.0 + x) ** -0.5
            )
            assert ks.pvalue > 0.01

    def test_amplitudes_are_root_increments(self):
        a = lp.sample_atoms(5, 100, 2)
        expected = np.sqrt(np.diff(a.gammas, prepend=0.0))
        assert np.array_equal(a.amplitudes, expected)


class TestPhiDensity:
    def test_matches_product_closed_form(self):
        rng = np.random.default_rng(91)
        for N in (1, 2, 3):
            pts = rng.uniform(-30.0, 30.0, (50, N))
            expected = np.prod(0.25 * (1.0 + np.abs(pts)) ** -1.5, axis=1)
            got = lp.phi_density(pts, theta=0.5)
            assert got.dtype == expected.dtype and np.array_equal(got, expected)

    def test_scalar_point_returns_float(self):
        val = lp.phi_density(np.array([1.0, 2.0]))
        assert isinstance(val, float)
        assert val > 0.0

    def test_axis_marginal_integrates_to_one(self):
        total, err = integrate.quad(
            lambda x: 0.5 * 0.5 * (1.0 + abs(x)) ** -1.5, 0.0, np.inf
        )
        assert abs(2.0 * total - 1.0) < 1e-8


class TestStableMultiplier:
    def test_phase_moment_quadrature_at_two(self):
        # (2/pi) int_0^1 sqrt(1-u^2) du = 1/2
        assert abs(lp._mean_abs_cos_power(2.0) - 0.5) < 1e-10

    def test_phase_moment_quadrature_at_one(self):
        assert abs(lp._mean_abs_cos_power(1.0) - 2.0 / np.pi) < 1e-12

    def test_value_at_one_is_unity(self):
        # tail constant 2/pi cancels the phase moment 2/pi exactly
        assert abs(lp.stable_multiplier(1.0) - 1.0) < 1e-12

    def test_tail_constant_is_continuous_at_one(self):
        for alpha in (1.0 - 1e-6, 1.0 + 1e-6):
            c = (1.0 - alpha) / (
                math.gamma(2.0 - alpha) * math.cos(0.5 * math.pi * alpha)
            )
            assert abs(c - 2.0 / math.pi) < 1e-4

    def test_rejects_alpha_outside_open_interval(self):
        for alpha in (0.0, -0.5, 2.0, 2.5):
            with pytest.raises(ValueError):
                lp.stable_multiplier(alpha)

    def test_finite_and_positive_across_range(self):
        for alpha in (0.3, 0.6, 0.9, 1.0, 1.2, 1.5, 1.8, 1.95):
            k = lp.stable_multiplier(alpha)
            assert np.isfinite(k) and k > 0.0


class TestAtomWeights:
    def test_heavy_tail_weight_magnitudes(self):
        a = lp.sample_atoms(17, 400, 2)
        alpha = 1.5
        w = lp.atom_weights(a, alpha)
        dens = lp.phi_density(a.points, a.theta)
        expected = lp.stable_multiplier(alpha) * a.gammas ** (-1.0 / alpha)
        expected = expected * dens ** (-1.0 / alpha)
        assert np.allclose(np.abs(w), expected, rtol=1e-12)
        assert np.allclose(w, expected * a.rotations, rtol=1e-12)

    def test_gaussian_route_weight_magnitudes(self):
        a = lp.sample_atoms(17, 400, 2)
        w = lp.atom_weights(a, 2.0)
        dens = lp.phi_density(a.points, a.theta)
        expected = (2.0 / math.sqrt(400)) * a.amplitudes * dens**-0.5
        assert np.allclose(np.abs(w), expected, rtol=1e-12)

    def test_rejects_alpha_out_of_range(self):
        a = lp.sample_atoms(1, 10, 2)
        for alpha in (0.0, -1.0, 2.5):
            with pytest.raises(ValueError):
                lp.atom_weights(a, alpha)


class TestRingOrder:
    def test_rank_is_a_bijection_on_every_cap(self):
        for cap in (1, 2, 3, 5):
            lattice = lp._ring_rank_lattice(cap)
            assert sorted(lattice.ravel().tolist()) == list(range((2 * cap + 1) ** 2))

    def test_rank_respects_ring_containment(self):
        # every index on ring r appears before any index on ring r+1
        cap = 4
        lattice = lp._ring_rank_lattice(cap)
        ks = np.arange(-cap, cap + 1)
        rings = np.maximum(np.abs(ks[:, None]), np.abs(ks[None, :]))
        for r in range(cap + 1):
            assert np.all(lattice[rings <= r] < (2 * r + 1) ** 2)

    def test_gaussian_blocks_nest_across_truncations(self):
        small = lp._gaussian_block(21, 1, -2, 2)
        large = lp._gaussian_block(21, 1, -2, 6)
        assert np.array_equal(small, large[4:9, 4:9])

    # k_cap 64 and 100: 129^2 and 201^2 coefficients, two and three stream reads
    @pytest.mark.parametrize("k_cap", [64, 100])
    def test_chunked_reads_give_one_normal_call(self, k_cap):
        need = (2 * k_cap + 1) ** 2
        assert need > lp._DRAW_CHUNK
        draws = stream(8, "coeff", -3, 2).normal(0.0, math.sqrt(2.0), (need, 2))
        block = lp._gaussian_block(8, -3, 2, k_cap)
        expected = (draws[:, 0] + 1j * draws[:, 1])[lp._ring_rank_lattice(k_cap)]
        assert block.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("k_cap", [64, 100])
    def test_real_block_is_the_real_part_of_the_block(self, k_cap):
        real = lp._gaussian_real_block(8, -3, 2, k_cap)
        assert real.dtype == np.float64 and real.flags.c_contiguous
        assert real.tobytes() == np.ascontiguousarray(
            np.real(lp._gaussian_block(8, -3, 2, k_cap))).tobytes()


def held_block(atoms, weights, alpha, j1, j2, ks):
    """lp._atom_block at (j1, j2), given the held levels of both axes."""
    held = [lp._held_levels(atoms.points[:, axis], max(j1, j2)) for axis in (0, 1)]
    return lp._atom_block(atoms, weights, alpha, j1, j2, ks, held[0][j1], held[1][j2])


class TestCoefficient:
    def test_translation_phase_identity(self):
        # moving K multiplies the coefficient by a pure phase set by the atom
        single = lp.LePageAtoms(
            seed=0,
            count=1,
            theta=0.5,
            gammas=np.array([1.0]),
            points=np.array([[10.0, 12.0]]),
            rotations=np.array([np.exp(0.7j)]),
        )
        c_base = lp.coefficient(single, (2, 2), (0, 0), 1.5)
        c_moved = lp.coefficient(single, (2, 2), (3, -2), 1.5)
        v1, v2 = 10.0, 12.0
        predicted = np.exp(1j * ((0 - 3) * v1 / 4.0 + (0 + 2) * v2 / 4.0))
        assert abs(c_base / c_moved - predicted) < 1e-12

    def test_heavy_tail_scalar_matches_block_route(self):
        a = lp.sample_atoms(7, 300, 2)
        ks = np.arange(-2, 3)
        weights = lp.atom_weights(a, 1.5)
        block = held_block(a, weights, 1.5, 1, -1, ks)
        for ki, k1 in enumerate(ks):
            for kj, k2 in enumerate(ks):
                scalar = lp.coefficient(a, (1, -1), (k1, k2), 1.5)
                assert abs(scalar - block[ki, kj]) < 1e-10 * max(1.0, abs(scalar))

    def test_block_route_at_the_lattice_edge(self):
        # k_cap = 160 (n = 6, M = 1.25): the block's phases come from two short
        # exp tables, so check the corners of the lattice, where k x is largest,
        # at a coarse level and at the finest level on each axis
        a = lp.sample_atoms(3, 2000, 2)
        k_cap = 160
        ks = np.arange(-k_cap, k_cap + 1)
        weights = lp.atom_weights(a, 1.5)
        occupied = lp.scale_pairs(a, 1.5, 6)
        for j1, j2 in ((-12, -3), (6, -3), (-3, 6)):
            assert (j1, j2) in occupied
            block = held_block(a, weights, 1.5, j1, j2, ks)
            for k1, k2 in ((-k_cap, -k_cap), (-k_cap, k_cap), (k_cap, -k_cap),
                           (k_cap, k_cap), (0, 0)):
                scalar = lp.coefficient(a, (j1, j2), (k1, k2), 1.5)
                got = block[k1 + k_cap, k2 + k_cap]
                assert abs(scalar - got) < 1e-10 * max(1.0, abs(scalar))

    def test_gaussian_scalar_matches_block_bitwise(self):
        a = lp.sample_atoms(9, 1, 2)
        for j1, j2, block in lp.coefficient_blocks(a, 2.0, 1, 1.0):
            k_cap = (block.shape[0] - 1) // 2
            for k1, k2 in ((0, 0), (-k_cap, k_cap), (2, -3), (k_cap, k_cap)):
                scalar = lp.coefficient(a, (j1, j2), (k1, k2), 2.0)
                assert scalar == block[k1 + k_cap, k2 + k_cap]

    def test_gaussian_value_is_truncation_independent(self):
        a = lp.sample_atoms(9, 1, 2)
        val = lp.coefficient(a, (1, -1), (2, 3), 2.0)
        blocks_small = {
            (j1, j2): b for j1, j2, b in lp.coefficient_blocks(a, 2.0, 1, 1.0)
        }
        blocks_large = {
            (j1, j2): b for j1, j2, b in lp.coefficient_blocks(a, 2.0, 3, 1.0)
        }
        cap_small = (next(iter(blocks_small.values())).shape[0] - 1) // 2
        cap_large = (next(iter(blocks_large.values())).shape[0] - 1) // 2
        assert val == blocks_small[(1, -1)][2 + cap_small, 3 + cap_small]
        assert val == blocks_large[(1, -1)][2 + cap_large, 3 + cap_large]

    def test_one_dimensional_gaussian_coefficient_is_refused(self):
        # the Gaussian blocks, and so their ring order, are two-dimensional
        a = lp.sample_atoms(11, 1, 1)
        with pytest.raises(ValueError, match="two-dimensional"):
            lp.coefficient(a, (3,), (1,), 2.0)
        assert np.isfinite(lp.coefficient(a, (3,), (1,), 1.5))

    def test_gaussian_coefficient_variance(self):
        vals = np.empty(4000, dtype=complex)
        for i in range(4000):
            a = lp.sample_atoms(123000 + i, 1, 2)
            vals[i] = lp.coefficient(a, (0, 1), (2, -1), 2.0)
        assert abs(np.var(vals.real) / 2.0 - 1.0) < 0.05
        assert abs(np.var(vals.imag) / 2.0 - 1.0) < 0.05

    def test_rejects_mismatched_index_lengths(self):
        a = lp.sample_atoms(1, 10, 2)
        with pytest.raises(ValueError):
            lp.coefficient(a, (1,), (0, 0), 1.5)
        with pytest.raises(ValueError):
            lp.coefficient(a, (1, 1), (0,), 1.5)

    def test_block_iterator_order_and_validation(self):
        a = lp.sample_atoms(1, 10, 2)
        pairs = [(j1, j2) for j1, j2, _ in lp.coefficient_blocks(a, 2.0, 1, 1.0)]
        expected = [(j1, j2) for j1 in (-1, 0, 1) for j2 in (-1, 0, 1)]
        assert pairs == expected
        with pytest.raises(ValueError):
            next(lp.coefficient_blocks(a, 2.0, -1, 1.0))
        with pytest.raises(ValueError):
            next(lp.coefficient_blocks(a, 2.0, 1, 0.0))
        with pytest.raises(ValueError):
            next(lp.coefficient_blocks(a, 2.0, 1, 1.0, mode="bogus"))


class TestHeldLevels:
    # atoms on both edges of every level's ring and a hair inside and outside
    # them, at zero, at +-1e-16 and at +-1e12, and a pool's worth of draws
    EDGES = [math.ldexp(edge, j) for j in range(-60, 7)
             for edge in (lp.RING_LOWER, lp.RING_UPPER)]

    @pytest.mark.parametrize("n", [0, 6])
    def test_bracket_equals_a_full_envelope_scan(self, n):
        edges = np.array(self.EDGES)
        near = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])
        x = np.concatenate([near, -near, [0.0, 1e-16, -1e-16, 1e12, -1e12],
                            lp.sample_atoms(5, 4000, 1).points[:, 0]])
        held = lp._held_levels(x, n)
        mags = np.abs(x[x != 0.0])
        scan = {}
        for j in range(int(np.floor(np.log2(np.min(mags)))) - 4, n + 1):
            values = np.asarray(lp.envelope(np.ldexp(x, -j)))
            if np.any(values != 0.0):
                scan[j] = values
        assert list(held) == list(scan)
        for j, values in scan.items():
            mask, kept = held[j]
            assert np.array_equal(mask, values != 0.0)
            assert kept.tobytes() == values[mask].tobytes()

    def test_no_atom_off_zero_holds_no_level(self):
        assert lp._held_levels(np.zeros(5), 6) == {}

    def test_atom_route_window_starts_at_the_coarsest_levels(self):
        atoms = lp.sample_atoms(3, 20000, 2)
        assert lp.coarsest_levels(atoms, 2) == (-13, -19)
        pairs = lp.scale_pairs(atoms, 1.5, 2)
        assert min(j1 for j1, _ in pairs) == -13 and max(j1 for j1, _ in pairs) <= 2
        assert min(j2 for _, j2 in pairs) == -19 and max(j2 for _, j2 in pairs) <= 2


class TestProjectedBlocks:
    @pytest.mark.parametrize("alpha, mode", [(2.0, "auto"), (2.0, "atoms"), (1.5, "auto")])
    def test_both_block_sources_give_the_same_pairs(self, alpha, mode):
        # Z = Re(A1^T C A2) for the block C of each pair, in the same order
        a = lp.sample_atoms(4, 2000, 2)
        n, M = 2, 1.0
        size = 2 * lp.translation_cap(n, M) + 1

        def factor(axis, j):
            return np.random.default_rng([axis, j + 100]).standard_normal((size, 3))

        with _blas.one_thread():
            projected = lp.projected_blocks(a, alpha, n, M, factor, mode)
        blocks = list(lp.coefficient_blocks(a, alpha, n, M, mode))
        assert [(j1, j2) for j1, j2, _ in projected] == [(j1, j2) for j1, j2, _ in blocks]
        assert lp.scale_pairs(a, alpha, n, mode) == [(j1, j2) for j1, j2, _ in blocks]
        for (j1, j2, z), (_, _, c) in zip(projected, blocks):
            want = factor(0, j1).T @ np.real(c) @ factor(1, j2)
            assert np.allclose(z, want, rtol=1e-10, atol=1e-12 * np.max(np.abs(want)))


class TestDirectField:
    def test_zero_coordinate_gives_exact_zero(self):
        a = lp.sample_atoms(13, 500, 2)
        assert lp.direct_field(a, (0.0, 0.7), (0.5, 0.7), 1.5) == 0.0
        assert lp.direct_field(a, (0.4, 0.0), (0.5, 0.7), 2.0) == 0.0

    def test_grid_route_matches_pointwise_route(self):
        a = lp.sample_atoms(13, 2000, 2)
        ax1 = np.array([0.2, 0.5, 0.9])
        ax2 = np.array([0.1, 0.6, 0.8])
        grid = lp.direct_field_grid(a, (ax1, ax2), (0.5, 0.7), 1.5)
        pts = np.array([(t1, t2) for t1 in ax1 for t2 in ax2])
        flat = lp.direct_field(a, pts, (0.5, 0.7), 1.5)
        assert np.allclose(grid.ravel(), flat, rtol=1e-10, atol=1e-12)

    def test_one_dimensional_grid_route(self):
        a = lp.sample_atoms(14, 1500, 1)
        ax = np.array([0.3, 0.8, 1.4])
        grid = lp.direct_field_grid(a, (ax,), (0.6,), 1.2)
        single = [lp.direct_field(a, (t,), (0.6,), 1.2) for t in ax]
        assert np.allclose(grid, single, rtol=1e-10, atol=1e-12)

    def test_validation_errors(self):
        a = lp.sample_atoms(1, 10, 2)
        with pytest.raises(ValueError):
            lp.direct_field(a, (0.5, 0.5), (0.5,), 1.5)
        with pytest.raises(ValueError):
            lp.direct_field(a, (0.5, 0.5), (0.5, 1.0), 1.5)
        with pytest.raises(ValueError):
            lp.direct_field(a, (0.5, 0.5), (0.5, 0.7), 2.5)
        with pytest.raises(ValueError):
            lp.direct_field(a, (0.5, 0.5, 0.5), (0.5, 0.7), 1.5)

    def test_characteristic_function_calibration(self):
        # Re of the direct sum must be symmetric stable with the analytic scale
        t = (0.7, 0.4)
        H = (0.5, 0.7)
        alpha = 1.0
        xs = np.empty(3000)
        for s in range(3000):
            a = lp.sample_atoms(777000 + s, 8000, 2)
            xs[s] = lp.direct_field(a, t, H, alpha)
        sig = scale_sigma(t, None, H, alpha)
        for u in np.array([0.35, 0.7, 1.05]) / sig:
            est = (-np.log(np.mean(np.cos(u * xs)))) ** (1.0 / alpha) / abs(u)
            assert abs(est / sig - 1.0) < 0.05

    def test_gaussian_route_field_variance(self):
        t = (0.7, 0.4)
        H = (0.5, 0.7)
        xs = np.empty(4000)
        for s in range(4000):
            a = lp.sample_atoms(555000 + s, 4000, 2)
            xs[s] = lp.direct_field(a, t, H, 2.0)
        sig = scale_sigma(t, None, H, 2.0)
        assert abs(np.var(xs) / (2.0 * sig**2) - 1.0) < 0.05


def _terms(atoms, pts, H, alpha):
    # every direct-sum term w_a prod_l kernel_axis, one row per point
    terms = np.tile(lp.atom_weights(atoms, alpha), (pts.shape[0], 1))
    for axis in range(atoms.dimension):
        terms *= kernel_axis(pts[:, axis], atoms.points[:, axis], H[axis], alpha)
    return terms


class TestDirectSumCache:
    @pytest.mark.parametrize("alpha", [0.8, 1.0, 1.5, 2.0])
    @pytest.mark.parametrize("N", [1, 2])
    def test_matches_the_sum_of_kernel_terms(self, alpha, N):
        a = lp.sample_atoms(40 + N, 3000, N)
        H = (0.5, 0.7)[:N]
        pts = np.random.default_rng(N).uniform(0.05, 2.0, (6, N))
        terms = _terms(a, pts, H, alpha)
        got = lp.direct_field(a, pts, H, alpha)
        err = np.abs(got - terms.real.sum(axis=1)) / np.abs(terms).sum(axis=1)
        assert np.max(err) <= 1e-12

    def test_any_call_order_gives_the_bits_of_fresh_pools(self):
        H = (0.5, 0.7)
        t, t2 = np.array([[1.0, 1.0], [0.3, 0.8]]), np.array([[0.6, 0.2]])
        calls = [(t, 1.5), (t, 2.0), (t, 1.5), (t2, 1.5), (t, 2.0), (t2, 0.8), (t, 1.5)]
        shared = lp.sample_atoms(9, 4000, 2)
        for pts, alpha in calls:
            fresh = lp.direct_field(lp.sample_atoms(9, 4000, 2), pts, H, alpha)
            assert lp.direct_field(shared, pts, H, alpha).tobytes() == fresh.tobytes()

    def test_second_alpha_reuses_the_phase_table(self, monkeypatch):
        builds = []
        kernel_phases = lp.kernel_phases
        monkeypatch.setattr(lp, "kernel_phases",
                            lambda t, lam: builds.append(1) or kernel_phases(t, lam))
        a = lp.sample_atoms(8, 20000, 2)
        per_table = 2 * math.ceil(20000 / lp._ATOM_CHUNK)  # one per axis and chunk
        for alpha in (1.0, 1.5, 2.0, 1.0):
            lp.direct_field(a, (1.0, 1.0), (0.5, 0.7), alpha)
        assert len(builds) == per_table
        lp.direct_field(a, (0.5, 1.0), (0.5, 0.7), 1.5)
        lp.direct_field(a, (0.5, 1.0), (0.5, 0.7), 2.0)
        assert len(builds) == 2 * per_table
        lp.direct_field(a, (1.0, 1.0), (0.5, 0.7), 1.5)  # only the latest point set is kept
        assert len(builds) == 3 * per_table

    def test_large_point_sets_are_not_kept(self):
        a = lp.sample_atoms(8, 3000, 1)
        pts = np.linspace(0.1, 2.0, lp._PHASE_TABLE_TERMS // 3000 + 1)[:, None]
        lp.direct_field(a, pts, (0.5,), 1.5)
        assert not a._phases

    @pytest.mark.parametrize("alpha", [1.5, 2.0])
    def test_zero_frequency_atom_contributes_exactly_zero(self, alpha):
        a = lp.sample_atoms(21, 50, 2)
        points = a.points.copy()
        points[7, 1] = 0.0
        b = lp.LePageAtoms(seed=a.seed, count=a.count, theta=a.theta, gammas=a.gammas,
                           points=points, rotations=a.rotations)
        pts = np.array([[1.0, 1.0], [0.4, 1.3]])
        with np.errstate(invalid="raise"):  # an inf * 0 would raise here
            scales = lp._atom_scales(b, np.array([0.5, 0.7]), alpha)
            vals = lp.direct_field(b, pts, (0.5, 0.7), alpha)
            grid = lp.direct_field_grid(b, ([0.4, 1.0], [1.0, 1.3]), (0.5, 0.7), alpha)
        assert scales[7] == 0.0 and np.all(lp._phase_table(b, pts)[:, 7] == 0.0)
        terms = _terms(b, pts, (0.5, 0.7), alpha)
        assert np.all(terms[:, 7] == 0.0)
        err = np.abs(vals - terms.real.sum(axis=1)) / np.abs(terms).sum(axis=1)
        assert np.max(err) <= 1e-12
        assert np.allclose(grid[[1, 0], [0, 1]], vals, rtol=1e-12, atol=0.0)

    def test_a_pool_is_freed_with_its_tables(self):
        a = lp.sample_atoms(5, 2000, 2)
        lp.direct_field(a, (1.0, 1.0), (0.5, 0.7), 1.5)
        lp.direct_field_grid(a, ([0.5], [0.5]), (0.5, 0.7), 2.0)
        lp.atom_weights(a, 1.5)
        assert a._phases
        ref = weakref.ref(a)
        del a  # by reference count alone: no cycle and no module-level cache holds it
        assert ref() is None


class TestGrowthReport:
    def test_reference_level_equals_n(self):
        a = lp.sample_atoms(31, 2000, 2)
        rep = lp.coefficient_growth_report(a, 4, 1.0, 1.5, 0.1)
        assert rep["reference_level"] == 4
        assert rep["ratio"] == 1.0
        assert rep["stable"] is True
        assert rep["max_eta_zero"] >= rep["max_at_n"]

    def test_levels_above_reference(self):
        a = lp.sample_atoms(31, 2000, 2)
        rep = lp.coefficient_growth_report(a, 5, 1.0, 1.5, 0.1)
        assert rep["reference_level"] == 4
        assert rep["n"] == 5
        assert np.isfinite(rep["ratio"]) and rep["ratio"] > 0.0
        assert isinstance(rep["stable"], bool)

    def test_low_alpha_branch_runs(self):
        a = lp.sample_atoms(33, 1000, 2)
        rep = lp.coefficient_growth_report(a, 2, 1.0, 0.8, 0.1)
        assert np.isfinite(rep["max_at_n"]) and rep["max_at_n"] > 0.0

    @pytest.mark.parametrize("alpha", [0.8, 1.5, 2.0])
    def test_one_pass_gives_both_truncations(self, alpha, monkeypatch):
        a = lp.sample_atoms(31, 2000, 2)
        n, M, eta = 5, 1.0, 0.1
        passes = []
        blocks = lp.coefficient_blocks
        monkeypatch.setattr(lp, "coefficient_blocks",
                            lambda *args: passes.append(args[2]) or blocks(*args))
        rep = lp.coefficient_growth_report(a, n, M, alpha, eta)
        assert passes == [n]
        # each truncation's maximum from a pass over its own blocks
        want = {}
        for level in (4, n):
            ks = np.arange(-lp.translation_cap(level, M), lp.translation_cap(level, M) + 1)
            k_fac = np.sqrt(np.log(2.0 + np.abs(ks))) if alpha >= 1.0 else np.ones(ks.size)
            best = 0.0
            for j1, j2, block in blocks(a, alpha, level, M):
                scale = ((1.0 + abs(j1)) * (1.0 + abs(j2))) ** (1.0 / alpha + eta)
                if alpha >= 1.0:
                    scale *= math.sqrt(math.log(2.0 + abs(j1)) * math.log(2.0 + abs(j2)))
                best = max(best, float(np.max(np.abs(block) / (scale * np.outer(k_fac, k_fac)))))
            want[level] = best
        assert rep["max_at_n"] == want[n]
        if alpha == 2.0:
            assert rep["max_at_reference"] == want[4]
        else:
            assert rep["max_at_reference"] == pytest.approx(want[4], rel=1e-14, abs=0.0)

    def test_rejects_nonpositive_eta(self):
        a = lp.sample_atoms(1, 10, 2)
        with pytest.raises(ValueError):
            lp.coefficient_growth_report(a, 4, 1.0, 1.5, 0.0)
