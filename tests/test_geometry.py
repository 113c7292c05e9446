"""Tests for the scaling, regularity, local-time, and dimension estimators."""

import math

import numpy as np
import pytest

from stablesheet import geometry as ge
from stablesheet import synthesis as sy
from stablesheet.synthesis import FieldGrid


def make_fake_field(values: np.ndarray, axes: tuple, H=(0.5, 0.5), alpha=2.0):
    return FieldGrid(
        axes=axes,
        values=values[None] if values.ndim == len(axes) else values,
        meta={"H": list(H), "alpha": float(alpha)},
    )


class TestRho:
    def test_coincident_points(self):
        assert ge.rho((0.3, 0.4), (0.3, 0.4), (0.5, 0.7)) == 0.0

    def test_unit_offsets(self):
        assert ge.rho((0, 0), (1, 1), (0.5, 0.5)) == pytest.approx(2.0, abs=1e-14)

    def test_single_axis_offset(self):
        assert ge.rho((0, 0), (4, 0), (0.5, 0.7)) == pytest.approx(2.0, abs=1e-14)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ge.rho((0, 0), (1, 1, 1), (0.5, 0.5))


class TestEstimateStableScale:
    def test_gaussian_samples_recover_scale(self):
        rng = np.random.default_rng(424242)
        sigma = 0.8
        xs = rng.normal(0.0, math.sqrt(2.0) * sigma, 10_000)
        est = ge.estimate_stable_scale(xs, 2.0)
        assert abs(est.sigma_hat / sigma - 1.0) < 0.03
        assert est.residual < 0.05
        assert not est.degenerate

    def test_scaling_equivariance(self):
        rng = np.random.default_rng(424242)
        xs = rng.normal(0.0, 1.0, 10_000)
        base = ge.estimate_stable_scale(xs, 2.0)
        scaled = ge.estimate_stable_scale(3.0 * xs, 2.0)
        assert abs(scaled.sigma_hat / (3.0 * base.sigma_hat) - 1.0) < 0.01

    def test_degenerate_sample_is_flagged(self):
        est = ge.estimate_stable_scale(np.zeros(2000), 2.0)
        assert est.sigma_hat == 0.0
        assert est.degenerate
        est2 = ge.estimate_stable_scale(np.full(2000, 3.7), 1.5)
        assert est2.sigma_hat == 0.0 and est2.degenerate

    def test_sample_size_floor(self):
        with pytest.raises(ValueError):
            ge.estimate_stable_scale(np.random.default_rng(1).normal(size=999), 2.0)

    def test_alpha_validation(self):
        xs = np.random.default_rng(2).normal(size=2000)
        with pytest.raises(ValueError):
            ge.estimate_stable_scale(xs, 0.0)
        with pytest.raises(ValueError):
            ge.estimate_stable_scale(xs, 2.5)


class TestScaleComparability:
    @staticmethod
    def _fake_ensemble(count=1000):
        rng = np.random.default_rng(777)
        ax = np.array([0.25, 0.5, 0.75])
        fields = []
        for _ in range(count):
            vals = rng.normal(0.0, 1.0, (3, 3))
            fields.append(make_fake_field(vals, (ax, ax)))
        return fields

    def test_report_structure_and_spread(self):
        fields = self._fake_ensemble()
        pairs = (((0.5, 0.25), (0.25, 0.25)), ((0.25, 0.5), (0.25, 0.25)))
        rep = ge.scale_comparability_report(fields, pairs)
        assert len(rep["ratios"]) == 2
        assert rep["spread"] >= 1.0
        assert rep["max_ratio"] >= rep["min_ratio"] > 0.0

    def test_small_ensemble_is_rejected(self):
        fields = self._fake_ensemble(count=10)
        with pytest.raises(ValueError):
            ge.scale_comparability_report(fields, (((0.5, 0.25), (0.25, 0.25)),))

    def test_nonpositive_pair_coordinates_are_rejected(self):
        fields = self._fake_ensemble()
        with pytest.raises(ValueError):
            ge.scale_comparability_report(fields, (((0.0, 0.25), (0.25, 0.25)),))


class TestHolderAxisExponent:
    @staticmethod
    def _rough_line(H: float):
        # deterministic lacunary cosine series with prescribed roughness H
        t = np.linspace(0.0, 1.0, 1024)
        vals = sum(
            2.0 ** (-j * H) * np.cos(2.0**j * 2.4 * np.pi * t + 0.3 * j)
            for j in range(0, 13)
        )
        return make_fake_field(vals[:, None], (t, np.array([0.0])), H=(H, H))

    def test_recovers_roughness_of_lacunary_series(self):
        assert ge.holder_axis_exponent(self._rough_line(0.5), 0) == pytest.approx(
            0.478328, abs=1e-5
        )
        assert ge.holder_axis_exponent(self._rough_line(0.7), 0) == pytest.approx(
            0.649487, abs=1e-5
        )

    def test_exponents_track_roughness_within_tolerance(self):
        for H in (0.5, 0.7):
            slope = ge.holder_axis_exponent(self._rough_line(H), 0)
            assert abs(slope - H) < 0.08

    def test_matches_per_lag_reference_and_keeps_the_field(self):
        # a non-square rough field, both axes: one fresh increment array per lag
        rng = np.random.default_rng(4)
        vals = np.cumsum(np.cumsum(rng.standard_normal((300, 260)), axis=0), axis=1)
        axes = (np.linspace(0.0, 1.0, 300), np.linspace(0.0, 2.0, 260))
        f = make_fake_field(vals, axes)
        before = f.values.copy()
        for axis in (0, 1):
            m = vals.shape[axis]
            lags = [lag for lag in (2**p for p in range(12)) if lag <= (m - 1) // 2]
            meds = [
                float(np.median(np.abs(np.take(vals, range(lag, m), axis=axis)
                                       - np.take(vals, range(m - lag), axis=axis))))
                for lag in lags
            ]
            step = float(axes[axis][1] - axes[axis][0])
            ref = float(np.polyfit(np.log([lag * step for lag in lags]), np.log(meds), 1)[0])
            assert ge.holder_axis_exponent(f, axis) == ref
        assert np.array_equal(f.values, before)

    def test_short_axis_is_rejected(self):
        t = np.linspace(0.0, 1.0, 100)
        f = make_fake_field(np.sin(t)[:, None], (t, np.array([0.0])))
        with pytest.raises(ValueError):
            ge.holder_axis_exponent(f, 0)

    def test_constant_field_is_rejected(self):
        t = np.linspace(0.0, 1.0, 512)
        f = make_fake_field(np.zeros((512, 1)), (t, np.array([0.0])))
        with pytest.raises(ValueError):
            ge.holder_axis_exponent(f, 0)


class TestOccupationDensity:
    @staticmethod
    def _field():
        trunc = sy.TruncationDomain(2, 1.0)
        return sy.synthesize(
            (0.5, 0.5), 2.0, trunc, (((0.05, 0.95), (0.05, 0.95)), (32, 32)), 77
        )

    def test_occupation_identity_is_exact(self):
        f = self._field()
        occ = ge.occupation_density(f, ((0.2, 0.8), (0.2, 0.8)), bins=32)
        target = occ.grid_points * occ.cell_volume
        assert occ.lebesgue_total == pytest.approx(target, rel=1e-12)

    def test_indicator_consistency_both_routes(self):
        f = self._field()
        occ = ge.occupation_density(f, ((0.2, 0.8), (0.2, 0.8)), bins=16)
        m1 = (f.axes[0] >= 0.2) & (f.axes[0] <= 0.8)
        m2 = (f.axes[1] >= 0.2) & (f.axes[1] <= 0.8)
        sel = f.component(0)[np.ix_(m1, m2)]
        b = 7
        lo, hi = occ.bin_edges[0][b], occ.bin_edges[0][b + 1]
        direct = np.count_nonzero((sel >= lo) & (sel < hi)) * occ.cell_volume
        width = hi - lo
        assert occ.density[b] * width == pytest.approx(direct, rel=1e-12)

    def test_level_lookup(self):
        f = self._field()
        occ = ge.occupation_density(f, ((0.2, 0.8), (0.2, 0.8)), bins=16)
        inside = 0.5 * (occ.bin_edges[0][3] + occ.bin_edges[0][4])
        assert occ.at(inside) == occ.density[3]
        assert occ.at(occ.bin_edges[0][-1] + 1.0) == 0.0

    def test_vector_valued_fields(self):
        trunc = sy.TruncationDomain(1, 1.0)
        f = sy.synthesize(
            (0.5, 0.5), 2.0, trunc, (((0.05, 0.95), (0.05, 0.95)), (16, 16)), 5, d=2
        )
        occ = ge.occupation_density(f, ((0.1, 0.9), (0.1, 0.9)), bins=8)
        assert occ.value_dimension == 2
        assert occ.density.shape == (8, 8)
        target = occ.grid_points * occ.cell_volume
        assert occ.lebesgue_total == pytest.approx(target, rel=1e-12)
        assert occ.at((0.0, 0.0)) >= 0.0

    def test_empty_region_is_rejected(self):
        f = self._field()
        with pytest.raises(ValueError):
            ge.occupation_density(f, ((2.0, 3.0), (0.2, 0.8)), bins=8)
        with pytest.raises(ValueError):
            ge.occupation_density(f, ((0.8, 0.2), (0.2, 0.8)), bins=8)


class TestLevelSet:
    @staticmethod
    def _field():
        trunc = sy.TruncationDomain(2, 1.0)
        return sy.synthesize(
            (0.5, 0.5), 2.0, trunc, (((0.0, 0.9), (0.0, 0.9)), (16, 16)), 21
        )

    def test_infinite_delta_returns_every_point(self):
        f = self._field()
        pts = ge.level_set(f, 0.0, delta=np.inf)
        assert pts.shape == (16 * 16, 2)

    def test_boundary_hyperplane_is_in_the_zero_level_set(self):
        f = self._field()
        pts = ge.level_set(f, 0.0)
        on_axis = pts[np.isclose(pts[:, 0], 0.0)]
        assert on_axis.shape[0] == 16

    def test_delta_validation(self):
        f = self._field()
        with pytest.raises(ValueError):
            ge.level_set(f, 0.0, delta=0.0)

    def test_non_square_grid_matches_meshgrid_selection(self):
        f = sy.synthesize(
            (0.5, 0.7), 2.0, sy.TruncationDomain(2, 1.0),
            (((0.0, 0.9), (0.1, 0.5)), (24, 9)), 21,
        )
        delta = 0.5 * float(np.std(f.component(0)))
        mask = np.abs(f.component(0) - 0.1) < delta
        mesh = np.meshgrid(*f.axes, indexing="ij")
        want = np.stack([m[mask] for m in mesh], axis=-1)
        pts = ge.level_set(f, 0.1, delta=delta)
        assert 0 < len(want) < mask.size
        assert pts.dtype == want.dtype and np.array_equal(pts, want)


class TestBoxCountDimension:
    def test_full_grid_recovers_ambient_dimension(self):
        g = np.stack(
            np.meshgrid(np.linspace(0, 1, 200), np.linspace(0, 1, 200), indexing="ij"),
            -1,
        ).reshape(-1, 2)
        est = ge.box_count_dimension(g, ((0, 1), (0, 1)), "euclidean", (1, 2, 3, 4, 5))
        assert abs(est.slope - 2.0) < 0.05
        assert est.r_squared > 0.999
        assert not est.low_confidence

    def test_axis_line_has_dimension_one(self):
        line = np.stack([np.linspace(0, 1, 400), np.full(400, 0.37)], -1)
        est = ge.box_count_dimension(line, ((0, 1), (0, 1)), "euclidean", (1, 2, 3, 4, 5))
        assert abs(est.slope - 1.0) < 0.1

    def test_anisotropic_boxes_count_metric_dimension(self):
        g = np.stack(
            np.meshgrid(np.linspace(0, 1, 200), np.linspace(0, 1, 200), indexing="ij"),
            -1,
        ).reshape(-1, 2)
        est = ge.box_count_dimension(g, ((0, 1), (0, 1)), (0.5, 0.5), (1, 2, 3))
        assert est.metric == "rho"
        assert est.slope == pytest.approx(4.0, abs=1e-9)

    def test_small_point_sets_are_flagged(self):
        pts = np.random.default_rng(3).uniform(0, 1, (50, 2))
        est = ge.box_count_dimension(pts, ((0, 1), (0, 1)), "euclidean", (1, 2, 3))
        assert est.low_confidence

    def test_validation(self):
        pts = np.array([[0.5, 0.5]])
        with pytest.raises(ValueError):
            ge.box_count_dimension(pts, ((0, 1), (0, 1)), "euclidean", (1, 2))
        with pytest.raises(ValueError, match="distinct"):
            ge.box_count_dimension(pts, ((0, 1), (0, 1)), "euclidean", (2, 2, 3))
        # three distinct scales, but one of them would be fitted twice
        with pytest.raises(ValueError, match="distinct"):
            ge.box_count_dimension(pts, ((0, 1), (0, 1)), "euclidean", (2, 2, 3, 4))
        with pytest.raises(ValueError):
            ge.box_count_dimension(
                np.array([[1.5, 0.5]]), ((0, 1), (0, 1)), "euclidean", (1, 2, 3)
            )
        with pytest.raises(ValueError):
            ge.box_count_dimension(
                np.empty((0, 2)), ((0, 1), (0, 1)), "euclidean", (1, 2, 3)
            )

    def test_hurst_vector_out_of_range_is_refused(self):
        pts = np.random.default_rng(3).uniform(0, 1, (50, 2))
        for H in ((1.5, 0.5), (-0.5, 0.5), (float("nan"), 0.5)):
            with pytest.raises(ValueError):
                ge.box_count_dimension(pts, ((0, 1), (0, 1)), H, (1, 2, 3))


class TestDimensionFormulas:
    def test_reference_values(self):
        rep = ge.dim_inverse_image_formula((0.4, 0.6), 1, 0.0)
        assert rep["value"] == pytest.approx(1.6, abs=1e-12)
        assert rep["k"] == 1 and rep["sandwich_holds"]
        rep = ge.dim_inverse_image_formula((0.6, 0.6), 1, 0.0)
        assert rep["value"] == pytest.approx(1.4, abs=1e-12)

    def test_full_dimension_target_gives_ambient_dimension(self):
        for H in ((0.4, 0.6), (0.5, 0.5), (0.3, 0.5, 0.8)):
            rep = ge.dim_inverse_image_formula(H, 1, 1.0)
            assert rep["value"] == pytest.approx(len(H), abs=1e-12)
            assert rep["sandwich_holds"]

    def test_empty_regime_is_flagged_not_guessed(self):
        rep = ge.dim_inverse_image_formula((0.9, 0.9), 3, 0.0)
        assert math.isnan(rep["value"])
        assert rep["regime"] == "empty-or-zero-dimensional"
        assert rep["k"] is None

    def test_sorting_is_applied(self):
        a = ge.dim_inverse_image_formula((0.6, 0.4), 1, 0.0)
        b = ge.dim_inverse_image_formula((0.4, 0.6), 1, 0.0)
        assert a["value"] == b["value"]

    def test_validation(self):
        with pytest.raises(ValueError):
            ge.dim_inverse_image_formula((0.5, 1.2), 1, 0.0)
        with pytest.raises(ValueError):
            ge.dim_inverse_image_formula((0.5, 0.5), 1, 1.5)
        with pytest.raises(ValueError):
            ge.dim_inverse_image_formula((0.5, 0.5), 0, 0.0)

    def test_beta_tau_reference_values(self):
        assert ge.beta_tau((0.5, 0.5), 1) == (1, pytest.approx(1.5, abs=1e-12))
        assert ge.beta_tau((0.6, 0.6), 1) == (1, pytest.approx(1.4, abs=1e-12))

    def test_beta_tau_no_local_time_regime(self):
        with pytest.raises(ValueError):
            ge.beta_tau((0.9, 0.9), 3)

    def test_beta_matches_formula_at_zero_dimensional_targets(self):
        rng = np.random.default_rng(5150)
        checked = 0
        while checked < 30:
            N = int(rng.integers(1, 4))
            H = tuple(rng.uniform(0.05, 0.95, N))
            d = int(rng.integers(1, 3))
            if sum(1.0 / h for h in H) <= d:
                continue
            tau, beta = ge.beta_tau(H, d)
            rep = ge.dim_inverse_image_formula(H, d, 0.0)
            assert rep["value"] == pytest.approx(beta, abs=1e-10)
            assert rep["sandwich_holds"]
            checked += 1


class TestLocaltimeHolderReport:
    def test_report_structure(self):
        trunc = sy.TruncationDomain(3, 1.0)
        fields = ge.synthesize_ensemble(
            (0.5, 0.5), 2.0, trunc, (((0.05, 0.95), (0.05, 0.95)), (128, 128)),
            seeds=range(40, 44),
        )
        rep = ge.localtime_holder_report(fields, 0.0, (0.1, 0.1), (0.8, 0.4, 0.2, 0.1))
        assert rep["tau"] == 1
        assert rep["predicted_sum"] == pytest.approx(1.5, abs=1e-12)
        assert rep["threshold"] == pytest.approx(0.9 * 1.5 - 0.2, abs=1e-12)
        assert np.isfinite(rep["slope"])
        assert isinstance(rep["passes"], bool)
        assert len(rep["r_values"]) == len(rep["lmax_means"]) >= 3

    def test_alpha_range_enforced(self):
        ax = np.linspace(0.05, 0.95, 300)
        f = make_fake_field(
            np.random.default_rng(1).normal(size=(300, 300)), (ax, ax), alpha=0.8
        )
        with pytest.raises(ValueError):
            ge.localtime_holder_report([f], 0.0, (0.1, 0.1), (0.4, 0.2, 0.1))

    def test_too_few_usable_cubes(self):
        trunc = sy.TruncationDomain(2, 1.0)
        fields = ge.synthesize_ensemble(
            (0.5, 0.5), 2.0, trunc, (((0.05, 0.95), (0.05, 0.95)), (16, 16)),
            seeds=(40,),
        )
        with pytest.raises(ValueError):
            ge.localtime_holder_report(fields, 0.0, (0.1, 0.1), (0.002, 0.001))


class TestLocaltimeScalingCheck:
    def test_identity_dilation_sanity(self):
        rep = ge.localtime_scaling_check(
            range(3000, 3400), (0.5, 0.5), 2.0, 1, ((0.1, 0.35), (0.1, 0.35)), 1,
            sy.TruncationDomain(2, 1.5), shape=(16, 16),
        )
        assert rep["p_value"] == pytest.approx(0.5453, abs=5e-3)
        assert rep["passes"]
        assert rep["exponent"] == pytest.approx(-2.0, abs=1e-12)
        assert rep["sample_size"] == 200

    def test_validation(self):
        trunc = sy.TruncationDomain(2, 1.5)
        region = ((0.1, 0.35), (0.1, 0.35))
        with pytest.raises(ValueError):
            ge.localtime_scaling_check(range(100), (0.5, 0.5), 2.0, 1, region, 2, trunc)
        with pytest.raises(ValueError):
            ge.localtime_scaling_check(
                range(400), (0.5, 0.5), 0.8, 1, region, 2, trunc
            )
        with pytest.raises(ValueError):
            ge.localtime_scaling_check(
                range(400), (0.5, 0.5), 2.0, 1, region, 0, trunc
            )
        with pytest.raises(ValueError):
            # dilated rectangle escapes the synthesizable window
            ge.localtime_scaling_check(
                range(400), (0.5, 0.5), 2.0, 1, ((0.1, 0.9), (0.1, 0.9)), 2, trunc
            )


class TestHolderEnvelope:
    def test_envelope_structure(self):
        trunc = sy.TruncationDomain(2, 1.0)
        fields = ge.synthesize_ensemble(
            (0.5, 0.7), 2.0, trunc, (((0.05, 0.95), (0.05, 0.95)), (64, 64)),
            seeds=range(3),
        )
        rep = ge.holder_envelope_report(fields, (0.5, 0.7), 2.0)
        assert len(rep["envelope"]) == len(rep["lags"]) == 4
        assert all(e > 0.0 for e in rep["envelope"])
        assert isinstance(rep["non_increasing_within_noise"], bool)

    def test_small_grid_rejected(self):
        ax = np.linspace(0.0, 1.0, 4)
        f = make_fake_field(np.zeros((4, 4)), (ax, ax))
        with pytest.raises(ValueError):
            ge.holder_envelope_report([f], (0.5, 0.5), 2.0)
