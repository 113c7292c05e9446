"""Fractional antiderivative tables, kernels, kappa, and scale quadratures."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.special import gamma

from stablesheet import fractional_kernel as fk
from stablesheet import meyer_wavelet as mw


@pytest.fixture(scope="module")
def table():
    return fk.psi_v_table(0.5, 1.5, 64.0)


class TestPsiV:
    def test_values_are_real_by_construction(self):
        # summing the two half-line integrals naively leaves only rounding
        assert fk.psi_v_imag_residual(0.5, 1.5, np.linspace(-50, 50, 41)) < 1e-12

    def test_node_doubling_converged(self):
        a = float(fk.psi_v_values(0.5, 1.5, 3.0, nodes=200))
        b = float(fk.psi_v_values(0.5, 1.5, 3.0, nodes=400))
        assert abs(a - b) < 1e-10
        assert abs(b - 0.024262339807147433) < 1e-12

    def test_scalar_shape_preserved(self):
        out = fk.psi_v_values(0.3, 2.0, 1.25)
        assert np.shape(out) == ()

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            fk.psi_v_values(0.0, 1.5, 1.0)
        with pytest.raises(ValueError):
            fk.psi_v_values(0.5, 2.5, 1.0)


class TestTable:
    def test_spline_matches_direct_quadrature(self, table):
        rng = np.random.default_rng(20240817)
        pts = rng.uniform(-64.0, 64.0, 100)
        assert np.max(np.abs(table.psi(pts) - fk.psi_v_values(0.5, 1.5, pts))) < 1e-8
        direct_d = fk.psi_v_values(0.5, 1.5, pts, derivative=True)
        assert np.max(np.abs(table.dpsi(pts) - direct_d)) < 1e-8

    def test_grid_values_match_direct_quadrature(self, table):
        direct = fk.psi_v_values(0.5, 1.5, table.y, nodes=fk.quad_nodes_for(64.0))
        assert np.max(np.abs(table.values - direct)) < 1e-13 * np.max(np.abs(direct))

    def test_values_do_not_depend_on_blas_threads(self):
        # 320 is the halfwidth of the benchmark's tables, 1408 criterion 3's largest
        src = os.path.dirname(os.path.dirname(os.path.abspath(fk.__file__)))
        code = (
            "import hashlib\n"
            "from stablesheet import fractional_kernel as fk\n"
            "for hw in (320.0, 1408.0):\n"
            "    values = fk.psi_v_table(0.5, 2.0, hw).values\n"
            "    print(hashlib.sha256(values.tobytes()).hexdigest())\n"
        )
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (src, env.get("PYTHONPATH")) if p
            )
            proc = subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True,
                env=env, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            digests.append(proc.stdout.split())
        assert len(digests[0]) == 2
        assert digests[0] == digests[1]

    def test_diagnostics(self, table):
        assert table.imag_residual < 1e-12
        # sup over |y| >= 20 of |psi_v(y)| (2+|y|)^4, finite quartic decay
        assert 0.0 < table.decay_constant < 10.0
        assert abs(table.decay_constant - 1.8057695359335548) < 1e-6

    def test_out_of_domain_falls_back_to_quadrature(self, table):
        far = np.array([70.0, -91.3])
        assert not table.in_domain(far).any()
        assert np.max(np.abs(table.psi(far) - fk.psi_v_values(0.5, 1.5, far))) == 0.0

    def test_sizing_rule_covers_truncation_arguments(self):
        t = fk.table_for(0.5, 1.5, 3, 1.0)
        # worst argument: |2^j x - k| <= 2^n M + M 2^(n+1) = 3 M 2^n
        assert t.halfwidth >= 3.0 * 1.0 * 2.0**3
        assert t.in_domain(3.0 * 2.0**3).all()

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            fk.psi_v_table(0.5, 1.5, -1.0)


class TestProgressionPhases:
    @pytest.mark.parametrize("count", [1, 2, 10, 16, 17, 321])
    def test_tables_factor_the_progression(self, count):
        start, step = -3.25, 0.375
        freq = np.array([0.0, 0.7, 2.5, 8.3])
        coarse, fine = fk.progression_phases(start, step, count, freq)
        L = math.isqrt(count)
        assert fine.shape == (L, freq.size)
        assert coarse.shape == (-(-count // L), freq.size)
        rebuilt = (coarse[:, None, :] * fine[None, :, :]).reshape(-1, freq.size)
        direct = np.exp(1j * np.outer(start + step * np.arange(count), freq))
        assert np.max(np.abs(rebuilt[:count] - direct)) < 1e-13


class TestSeriesFactor:
    def test_zero_at_origin_exactly(self, table):
        ks = np.arange(-5, 6, dtype=float)
        for j in (-2, 0, 3):
            assert np.max(np.abs(fk.w_coeff(table, j, ks, 0.0))) == 0.0

    def test_matches_definition(self, table):
        j, k, x = 2, 3.0, 0.7
        want = 2.0 ** (-j * 0.5) * (
            float(fk.psi_v_values(0.5, 1.5, 2.0**j * x - k))
            - float(fk.psi_v_values(0.5, 1.5, -k))
        )
        got = float(fk.w_coeff(table, j, k, x))
        assert abs(got - want) < 1e-8

    def test_decay_envelope_constants(self):
        # frozen fits; doubling the k scan does not move the max
        d1 = fk.w_decay_constants(0.5, 1.5, 6, 64)
        d2 = fk.w_decay_constants(0.5, 1.5, 6, 128)
        assert d1["c_pos"] == pytest.approx(45.9971, rel=1e-3)
        assert d1["c_neg"] == pytest.approx(159.882, rel=1e-3)
        assert d2["c_pos"] == pytest.approx(d1["c_pos"], rel=1e-12)
        assert d2["c_neg"] == pytest.approx(d1["c_neg"], rel=1e-12)

    def test_decay_constants_other_indices(self):
        d = fk.w_decay_constants(0.3, 2.0, 6, 64)
        assert d["c_pos"] == pytest.approx(71.9075, rel=1e-3)
        assert d["c_neg"] == pytest.approx(264.979, rel=1e-3)
        d = fk.w_decay_constants(0.7, 1.0, 6, 64)
        assert d["c_pos"] == pytest.approx(25.8784, rel=1e-3)
        assert d["c_neg"] == pytest.approx(87.5922, rel=1e-3)


class TestArgumentChecks:
    @pytest.mark.parametrize("H", [(float("nan"), 0.5), (0.5, float("inf")), (-float("inf"),)])
    def test_hurst_must_be_finite(self, H):
        with pytest.raises(ValueError):
            fk.check_hurst(H)

    @pytest.mark.parametrize("M", [float("inf"), float("nan")])
    def test_window_halfwidth_must_be_finite(self, M):
        with pytest.raises(ValueError):
            fk.translation_cap(2, M)
        assert fk.translation_cap(2, 1.0) == 8


class TestKernel:
    def test_zero_frequency_and_zero_time(self):
        assert fk.kernel_axis(0.7, 0.0, 0.5, 1.5) == 0.0
        assert fk.kernel_f([0.0, 0.5], [1.0, 1.0], [0.5, 0.5], 1.5) == 0.0

    def test_one_axis_closed_form(self):
        # t=1, lam=pi, H=0.5, alpha=2: (e^{i pi} - 1) pi^{-1} = -2/pi
        val = fk.kernel_f([1.0], [np.pi], [0.5], 2.0)
        assert complex(val) == pytest.approx(-2.0 / np.pi, abs=1e-14)

    def test_conjugate_under_frequency_flip(self):
        lam = np.array([[0.3, -1.2], [2.0, 0.5]])
        a = fk.kernel_f([0.8, 1.1], lam, [0.4, 0.6], 1.5)
        b = fk.kernel_f([0.8, 1.1], -lam, [0.4, 0.6], 1.5)
        assert np.allclose(a, np.conj(b), rtol=0, atol=1e-15)


class TestKappa:
    def test_known_value_at_half(self):
        assert abs(fk.kappa(2.0, 0.5) - 2.0 * np.pi) < 1e-6

    def test_quadratic_closed_form(self):
        # kappa(2, v) = -4 Gamma(-2v) cos(pi v) for v in (0,1)\{1/2}
        for v in (0.3, 0.7):
            closed = -4.0 * float(gamma(-2.0 * v)) * math.cos(math.pi * v)
            assert fk.kappa(2.0, v) == pytest.approx(closed, rel=1e-10)

    def test_period_refinement_stable(self, monkeypatch):
        a = fk.kappa.__wrapped__(1.5, 0.7)
        monkeypatch.setattr(fk, "_KAPPA_PERIODS", 2 * fk._KAPPA_PERIODS)
        b = fk.kappa.__wrapped__(1.5, 0.7)
        assert a != b and a == pytest.approx(b, rel=1e-10)

    def test_mean_abs_sin_power(self):
        assert fk.m_sin_alpha(2.0) == pytest.approx(0.5, abs=1e-12)
        assert fk.m_sin_alpha(1.0) == pytest.approx(2.0 / np.pi, abs=1e-12)


class TestScale:
    def test_coincident_points_give_zero(self):
        assert fk.scale_sigma([0.7, 0.4], [0.7, 0.4], [0.5, 0.6], 1.5) == 0.0

    def test_any_zero_coordinate_gives_zero_point_scale(self):
        assert fk.scale_sigma([0.0, 0.9], None, [0.5, 0.6], 1.5) == 0.0
        assert fk.scale_sigma([0.7, 0.0], [0.0, 0.0], [0.5, 0.6], 2.0) == 0.0

    def test_point_scale_product_form(self):
        # sigma(t)^alpha = prod_l |t_l|^{alpha H_l} kappa(alpha, H_l)
        t, H, alpha = (1.5, 0.8), (0.5, 0.7), 1.5
        want = (
            abs(t[0]) ** (alpha * H[0]) * fk.kappa(alpha, H[0])
            * abs(t[1]) ** (alpha * H[1]) * fk.kappa(alpha, H[1])
        ) ** (1.0 / alpha)
        got = fk.scale_sigma(t, None, H, alpha)
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(15.302602598944624, rel=1e-9)

    def test_one_axis_gaussian_value(self):
        assert fk.scale_sigma([1.0], None, [0.5], 2.0) == pytest.approx(
            math.sqrt(2.0 * math.pi), rel=1e-10
        )

    def test_single_axis_increment_matches_2d_quadrature(self):
        t = np.array([0.9, 0.6])
        s = np.array([0.4, 0.6])
        H = np.array([0.5, 0.7])
        prod = fk.scale_sigma(t, s, H, 1.5)
        quad = fk._increment_scale_quad2(t, s, H, 1.5)
        assert quad == pytest.approx(prod, rel=1e-4)

    def test_general_increment_quadratic_cross_check(self):
        t = np.array([0.9, 0.3])
        s = np.array([0.4, 0.7])
        H = np.array([0.5, 0.7])
        exact = fk._increment_scale_exact2(t, s, H, 2.0)
        quad = fk._increment_scale_quad2(t, s, H, 2.0)
        assert quad == pytest.approx(exact, rel=1e-4)
        assert fk.scale_sigma(t, s, H, 2.0) == exact

    def test_dimension_and_domain_validation(self):
        with pytest.raises(ValueError):
            fk.scale_sigma([1.0, 1.0, 1.0], [0.5, 0.4, 0.3], [0.5, 0.5, 0.5], 1.5)
        with pytest.raises(ValueError):
            fk.scale_sigma([1.0], None, [1.5], 1.5)
        with pytest.raises(ValueError):
            fk.scale_sigma([1.0], None, [0.5], 2.5)


class TestReconstruction:
    def test_residual_decreases_and_vanishes(self):
        rep = fk.parseval_residual(0.5, [2, 3, 4, 5, 6])
        res = [rep["residuals"][n] for n in (2, 3, 4, 5, 6)]
        assert all(a > b for a, b in zip(res, res[1:]))
        assert res[-1] < 0.01

    def test_node_budget_scales_with_argument(self):
        assert fk.quad_nodes_for(10.0) == 400
        assert fk.quad_nodes_for(1000.0) >= 1300
