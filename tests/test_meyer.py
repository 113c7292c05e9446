"""Wavelet profile: taper identity, ring support, tiling, and norms."""

import numpy as np
import pytest

from stablesheet import meyer_wavelet as mw


def test_taper_endpoint_and_reflection():
    assert mw.taper(0.0) == 0.0
    assert mw.taper(1.0) == 1.0
    x = np.linspace(0.0, 1.0, 10_000)
    assert np.max(np.abs(mw.taper(x) + mw.taper(1.0 - x) - 1.0)) < 1e-12


def test_taper_clamps_outside_unit_interval():
    assert mw.taper(-3.0) == 0.0
    assert mw.taper(7.5) == 1.0


def test_support_is_exact():
    assert mw.psi_hat(0.5) == 0
    assert mw.psi_hat(9.0) == 0
    inside_gap = np.linspace(-mw.RING_LOWER + 1e-9, mw.RING_LOWER - 1e-9, 101)
    assert np.all(np.asarray(mw.psi_hat(inside_gap)) == 0)
    beyond = np.array([mw.RING_UPPER + 1e-9, 50.0, -123.0])
    assert np.all(np.asarray(mw.psi_hat(beyond)) == 0)


def test_partition_of_unity_on_window():
    # sum_j envelope(2^-j xi)^2 == TAU * sum_j |psi_hat(2^-j xi)|^2
    xi = np.concatenate([np.linspace(1.0, 100.0, 5001), np.geomspace(1.0, 100.0, 1001)])
    assert mw.partition_residual(xi, -10, 10) < 1e-8


def test_partition_at_pi_matches_unit_norm_convention():
    xi = np.pi
    total = sum(
        abs(mw.psi_hat(2.0 ** (-j) * xi)) ** 2 for j in range(-8, 9)
    )
    assert abs(mw.TAU * total - 1.0) < 1e-10


def test_hermitian_symmetry_exact():
    xi = np.linspace(0.1, 10.0, 1001)
    left = np.asarray(mw.psi_hat(-xi))
    right = np.conj(np.asarray(mw.psi_hat(xi)))
    assert np.array_equal(left, right)


def test_unit_l2_norm():
    assert abs(mw.alpha_norm_psi_hat(2.0) - 1.0) < 1e-8


def test_alpha_norm_quadrature_stability():
    for alpha in (1.0, 1.5, 0.8):
        a = mw.alpha_norm_psi_hat(alpha, nodes=400)
        b = mw.alpha_norm_psi_hat(alpha, nodes=800)
        assert a > 0
        assert abs(a - b) < 1e-8


def test_alpha_norm_reference_values():
    # frozen from the quadrature itself, cross-checked at two node counts
    assert abs(mw.alpha_norm_psi_hat(1.0) - 2.896323014951982) < 1e-9
    assert abs(mw.alpha_norm_psi_hat(1.5) - 1.4132069732219894) < 1e-9


def test_alpha_norm_rejects_bad_alpha():
    with pytest.raises(ValueError):
        mw.alpha_norm_psi_hat(0.0)
    with pytest.raises(ValueError):
        mw.alpha_norm_psi_hat(2.5)


def test_dilated_copy_identity_at_origin_scale():
    xi = np.linspace(-9.0, 9.0, 501)
    got = np.asarray(mw.psi_hat_ajk(2.0, 0, 0, xi))
    want = np.asarray(mw.psi_hat(xi))
    assert np.array_equal(got, want)


def test_dilated_copy_modulus_independent_of_translation():
    xi = np.linspace(2.0, 17.0, 301)
    base = np.abs(np.asarray(mw.psi_hat_ajk(1.5, 2, 0, xi)))
    for k in (-7, 3, 40):
        other = np.abs(np.asarray(mw.psi_hat_ajk(1.5, 2, k, xi)))
        assert np.allclose(base, other, rtol=0, atol=1e-15)


def test_dilated_copy_support_ring():
    j = 3
    lo, hi = 2.0**j * mw.RING_LOWER, 2.0**j * mw.RING_UPPER
    xi = np.array([lo * 0.999, hi * 1.001, -lo * 0.999, -hi * 1.001])
    assert np.all(np.asarray(mw.psi_hat_ajk(1.5, j, 5, xi)) == 0)
    xi_in = np.array([lo * 1.5, -lo * 1.5])
    assert np.all(np.asarray(mw.psi_hat_ajk(1.5, j, 5, xi_in)) != 0)


def test_dilated_copy_rejects_bad_alpha():
    with pytest.raises(ValueError):
        mw.psi_hat_ajk(2.1, 0, 0, 3.0)
