import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from biphoton import SpdcParams, pump_envelope

from conftest import density4, mismatch_arg, psi

finite_k = st.floats(min_value=-5e4, max_value=5e4, allow_nan=False)


@pytest.fixture(scope="module")
def params():
    return SpdcParams(lambda_p=0.4047, w_p=0.5, L=0.5, theta0=0.28, n_o=1.66109)


def test_pump_envelope_reference_points(params):
    assert pump_envelope(0.0, params) == 1.0
    assert pump_envelope(1.0 / params.w_p, params) == pytest.approx(
        math.exp(-0.5), rel=1e-14)
    assert pump_envelope(3.0, params) == pump_envelope(-3.0, params)


def test_mismatch_arg_reference_points(params):
    # on-axis value, written out independently
    expected = (math.pi * params.L * 4.0 * params.theta0 ** 2
                / (8.0 * params.n_o * params.lambda_p * 1e-4))
    assert mismatch_arg(0.0, 0.0, params) == pytest.approx(expected, rel=1e-14)
    # vanishes on the emission cone
    k_ring = params.k_from_kappa(2.0 * params.theta0)
    assert abs(mismatch_arg(k_ring, 0.0, params)) < 1e-9
    # collinear limit is a pure quadratic
    p0 = SpdcParams(lambda_p=0.4047, w_p=0.5, L=0.5, theta0=0.0, n_o=1.66109)
    k = 1000.0
    assert mismatch_arg(k, 0.0, p0) == pytest.approx(
        -p0.sinc_scale * float(p0.kappa(k)) ** 2, rel=1e-14)


def test_psi_peak_on_cone(params):
    k_ring = params.k_from_kappa(2.0 * params.theta0)
    pt = (0.5 * k_ring, -0.5 * k_ring, 0.0, 0.0)
    assert psi(*pt, params) == pytest.approx(1.0, abs=1e-12)
    assert density4(*pt, params) == pytest.approx(1.0, abs=1e-12)


@given(k1x=finite_k, k2x=finite_k, k1y=finite_k, k2y=finite_k)
@settings(max_examples=60, deadline=None)
def test_exchange_symmetry(params, k1x, k2x, k1y, k2y):
    a = psi(k1x, k2x, k1y, k2y, params)
    b = psi(k2x, k1x, k2y, k1y, params)
    assert a == b


@given(kp=finite_k, km=st.floats(min_value=0.0, max_value=5e4),
       angle=st.floats(min_value=0.0, max_value=2 * math.pi))
@settings(max_examples=60, deadline=None)
def test_rotation_invariance_of_difference(params, kp, km, angle):
    # fixed |k-| and fixed k+, any orientation of the difference vector
    kmx, kmy = km * math.cos(angle), km * math.sin(angle)
    a = psi(0.5 * (kp + kmx), 0.5 * (kp - kmx), 0.5 * kmy, -0.5 * kmy, params)
    ref = psi(0.5 * (kp + km), 0.5 * (kp - km), 0.0, 0.0, params)
    assert a == pytest.approx(ref, rel=1e-10, abs=1e-300)


def test_amplitude_factorizes_in_sum_and_difference(params):
    # swapping the (k+, |k-|) pairs between two points leaves the product alone
    kp1, km1 = 0.7, 20000.0
    kp2, km2 = -1.3, 31000.0

    def value(kp, km):
        return psi(0.5 * (kp + km), 0.5 * (kp - km), 0.0, 0.0, params)

    lhs = value(kp1, km1) * value(kp2, km2)
    rhs = value(kp1, km2) * value(kp2, km1)
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_no_factorization_across_x_and_y(params):
    # psi restricted to k+=0 as a function of (k-x, k-y) must not factor
    kx1, kx2 = 0.0, params.k_from_kappa(1.5 * params.theta0)
    ky1, ky2 = 0.0, params.k_from_kappa(1.4 * params.theta0)

    def value(kx, ky):
        return psi(0.5 * kx, -0.5 * kx, 0.5 * ky, -0.5 * ky, params)

    det = value(kx1, ky1) * value(kx2, ky2) - value(kx1, ky2) * value(kx2, ky1)
    assert abs(det) > 1e-6


def test_density_nonnegative_on_random_points(params):
    rng = np.random.default_rng(3)
    for _ in range(200):
        assert density4(*rng.uniform(-4e4, 4e4, size=4), params) >= 0.0


@given(k1x=finite_k, k2x=finite_k, k1y=finite_k, k2y=finite_k)
@settings(max_examples=60, deadline=None)
def test_psi_sum_and_difference_components(params, k1x, k2x, k1y, k2y):
    # the amplitude written out with math, from k+ = k1 + k2 and k- = k1 - k2
    lam = params.lambda_p * 1e-4
    kpx, kpy, kmx, kmy = k1x + k2x, k1y + k2y, k1x - k2x, k1y - k2y
    arg = (math.pi * params.L / (8.0 * params.n_o * lam)
           * (4.0 * params.theta0 ** 2 - (lam / math.pi) ** 2 * (kmx ** 2 + kmy ** 2)))
    expected = (math.exp(-0.5 * params.w_p ** 2 * (kpx ** 2 + kpy ** 2))
                * (math.sin(arg) / arg if arg != 0.0 else 1.0))
    assert psi(k1x, k2x, k1y, k2y, params) == pytest.approx(expected, abs=1e-12)


def test_psi_and_density_elementwise(params):
    rng = np.random.default_rng(5)
    k = rng.uniform(-4e4, 4e4, size=(4, 3, 7))
    grid = density4(*k, params)
    assert grid.shape == (3, 7)
    assert np.array_equal(grid, [[density4(*k[:, i, j], params) for j in range(7)]
                                 for i in range(3)])
    # broadcasting: a column of k1y against a row of k2y
    rows = psi(k[0, 0, 0], k[1, 0, 0], k[2, :, :1], k[3, :1, :], params)
    assert rows.shape == (3, 7)
    assert rows[2, 4] == psi(k[0, 0, 0], k[1, 0, 0], k[2, 2, 0], k[3, 0, 4], params)


def test_params_validation(bbo):
    with pytest.raises(ValueError):
        SpdcParams(lambda_p=0.4047, w_p=-0.1, L=0.1, theta0=0.1, n_o=1.66)
    with pytest.raises(ValueError):
        SpdcParams(lambda_p=0.4047, w_p=0.1, L=0.1, theta0=-0.1, n_o=1.66)
    with pytest.raises(ValueError):
        SpdcParams(lambda_p=0.4047, w_p=0.1, L=0.1, theta0=0.1, n_o=0.9)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            SpdcParams(lambda_p=0.4047, w_p=0.1, L=0.1, theta0=bad, n_o=1.66)
        with pytest.raises(ValueError):
            SpdcParams(lambda_p=0.4047, w_p=0.1, L=bad, theta0=0.1, n_o=1.66)
    with pytest.raises(ValueError):
        SpdcParams.from_crystal(bbo, 0.4047, 0.1, 0.1)
    with pytest.raises(ValueError):
        SpdcParams.from_crystal(bbo, 0.4047, 0.1, 0.1, phi0=0.7, theta0=0.1)


def test_params_from_crystal_routes(bbo):
    via_cut = SpdcParams.from_crystal(bbo, 0.4047, 0.1, 0.1, phi0=0.7)
    assert via_cut.theta0 == pytest.approx(0.28, abs=5e-3)
    assert abs(via_cut.n_o - 1.66109) < 0.5e-5
    explicit = SpdcParams.from_crystal(bbo, 0.4047, 0.1, 0.1, theta0=0.1)
    assert explicit.n_o == via_cut.n_o
    # cut on the wrong side of the collinear point has no cone
    with pytest.raises(ValueError):
        SpdcParams.from_crystal(bbo, 0.4047, 0.1, 0.1, phi0=0.3)


def test_kappa_roundtrip(params):
    k = 12345.6
    assert params.k_from_kappa(params.kappa(k)) == pytest.approx(k, rel=1e-14)
    assert float(params.kappa(math.pi / params.lambda_cm)) == pytest.approx(1.0, rel=1e-14)
