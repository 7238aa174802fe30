import math

import numpy as np
import pytest

from biphoton import (Curve, SpdcParams, classify_regime,
                      coincidence_curve, default_kappa_grid, entanglement_ratio,
                      entanglement_report, f_approx, f_approx_moment_ratio,
                      f_exact, measured_coincidence_width,
                      plane_restricted_curve, reduced_bipartite,
                      single_particle_curve, width_coincidence, width_minus,
                      width_single)
from biphoton import distributions as dist

from conftest import f_exact_panels, f_exact_simpson, raw_frame_reduced


def test_f_exact_is_even(params_a):
    k = params_a.k_from_kappa(0.31)
    assert f_exact(k, params_a) == f_exact(-k, params_a)


def test_f_exact_against_simpson_oracle(params_b):
    for kappa in (0.0, 0.12, 0.199, 0.26):
        k = params_b.k_from_kappa(kappa)
        fast = f_exact(k, params_b)
        slow, bound = f_exact_simpson(k, params_b)
        assert abs(fast - slow) <= 5e-5 * slow + bound


def test_f_exact_deterministic(params_a):
    k = params_a.k_from_kappa(0.123)
    assert f_exact(k, params_a) == f_exact(k, params_a)


def test_f_exact_matches_cone_interior_form_deep_inside(params_a):
    # agreement holds once the mismatch argument is a few oscillations deep
    two_theta = 2.0 * params_a.theta0
    for kappa in (0.0, 0.2, 0.4, 0.5, two_theta - 0.003):
        k = params_a.k_from_kappa(kappa)
        exact = f_exact(k, params_a)
        approx = f_approx(k, params_a)
        assert abs(exact - approx) / approx < 1e-2


def test_f_exact_known_gap_at_edge_band(params_a):
    # at exactly 0.002 inside the cone edge the relative gap is about -1.1%;
    # pinned here so any quadrature regression shows up
    k = params_a.k_from_kappa(2.0 * params_a.theta0 - 0.002)
    dev = f_exact(k, params_a) / f_approx(k, params_a) - 1.0
    assert -0.014 < dev < -0.008


def test_f_exact_diverges_from_form_at_the_edge(params_a):
    k = params_a.k_from_kappa(2.0 * params_a.theta0 - 2e-4)
    dev = abs(f_exact(k, params_a) / f_approx(k, params_a) - 1.0)
    assert dev > 0.05


def test_f_exact_far_tail_decay(params_b):
    plateau = f_exact(0.0, params_b)
    far = f_exact(params_b.k_from_kappa(3.0 * 2.0 * params_b.theta0), params_b)
    farther = f_exact(params_b.k_from_kappa(4.0 * 2.0 * params_b.theta0), params_b)
    assert far < 1e-2 * plateau
    assert farther < far
    slow, bound = f_exact_simpson(
        params_b.k_from_kappa(3.0 * 2.0 * params_b.theta0), params_b)
    assert abs(far - slow) <= 1e-4 * slow + bound


def test_f_exact_long_crystal_against_panel_oracle(bbo):
    # L = 10 cm, tight waist: u up to 1.8e4, where fixed-order rules break.
    # The oracle's tail closure is off by 1.7e-5 at 1.5 * 2 theta0, so the
    # check stops at 1.2 * 2 theta0.
    p = SpdcParams.from_crystal(bbo, 0.4047, 0.05, 10.0, theta0=0.28)
    two_theta = 2.0 * p.theta0
    kappas = np.concatenate([
        np.linspace(0.0, two_theta - 0.01, 25),                # cone
        np.linspace(two_theta - 0.01, two_theta + 0.004, 25),  # edge zoom
        np.linspace(two_theta + 0.004, 1.2 * two_theta, 25)])  # outside
    ks = p.k_from_kappa(kappas)
    fast = f_exact(ks, p)
    slow = np.array([f_exact_panels(k, p, rel_tol=1e-10) for k in ks])
    np.testing.assert_allclose(fast, slow, rtol=1e-9, atol=0.0)


def test_f_exact_array_equals_scalar_calls(params_a):
    ks = params_a.k_from_kappa(np.linspace(-0.7, 0.7, 301))
    assert np.array_equal(f_exact(ks, params_a),
                          [f_exact(k, params_a) for k in ks])
    assert np.array_equal(f_approx(ks, params_a),
                          [f_approx(k, params_a) for k in ks])
    k1, k2 = 0.5 * ks + 0.3 / params_a.w_p, 0.3 / params_a.w_p - 0.5 * ks
    assert np.array_equal(reduced_bipartite(k1, k2, params_a),
                          [reduced_bipartite(a, b, params_a) for a, b in zip(k1, k2)])


def test_g_continuous_across_method_switch():
    # Gauss-Legendre in s at |u| <= switch, stationary point plus
    # steepest-descent endpoint integral beyond it
    for edge in (dist._G_SWITCH, -dist._G_SWITCH):
        below, above = dist._g_of_u(edge * np.array([1.0 - 1e-12, 1.0 + 1e-12]))
        assert abs(above / below - 1.0) <= 2.0 * dist._G_REL_ERR


def test_f_approx_reference_points(params_a):
    center = f_approx(0.0, params_a)
    expected = (4.0 * params_a.n_o * params_a.lambda_cm
                / (params_a.L * params_a.theta0))
    assert center == pytest.approx(expected, rel=1e-14)
    edge = params_a.k_from_kappa(2.0 * params_a.theta0)
    assert f_approx(edge, params_a) == math.inf
    assert f_approx(edge * 1.01, params_a) == 0.0
    near_edge = params_a.k_from_kappa(2.0 * params_a.theta0 * (1.0 - 1e-6))
    assert f_approx(near_edge, params_a) > 100.0 * center


def test_f_approx_second_moment(params_a):
    target = 2.0 * (math.pi * params_a.theta0 / params_a.lambda_cm) ** 2
    ratio = f_approx_moment_ratio(params_a)
    assert abs(ratio / target - 1.0) < 1e-6
    # zeroth/second combination via a different node count stays put
    assert f_approx_moment_ratio(params_a, n_nodes=150) == pytest.approx(ratio, rel=1e-9)


def test_width_formulas(params_a, params_b):
    assert width_minus(params_a) == pytest.approx(30739.0, rel=1e-3)
    assert width_single(params_b) == pytest.approx(5489.0, rel=1e-3)
    p0 = SpdcParams(lambda_p=0.4047, w_p=0.1, L=0.1, theta0=0.0, n_o=1.66109)
    assert width_minus(p0) == 0.0
    assert width_coincidence(params_a) == 1.0
    assert width_coincidence(params_b) == 5.0
    doubled = SpdcParams(lambda_p=0.4047, w_p=0.2, L=0.1, theta0=0.1, n_o=1.66109)
    assert width_coincidence(doubled) == 0.5 * width_coincidence(params_b)


def test_entanglement_report_values(params_a, params_b):
    ratio_a = entanglement_ratio(params_a)
    assert 1.50e4 <= ratio_a <= 1.56e4
    assert classify_regime(params_a) == dist.REGIME_NONCOLLINEAR
    assert width_single(params_a) == pytest.approx(0.5 * width_minus(params_a),
                                                   rel=1e-14)
    assert ratio_a == pytest.approx(
        width_single(params_a) / width_coincidence(params_a), rel=1e-14)

    assert abs(entanglement_ratio(params_b) - 1099.0) <= 2.0
    assert classify_regime(params_b) == dist.REGIME_NONCOLLINEAR

    mid = SpdcParams(lambda_p=0.4047, w_p=0.1, L=0.1, theta0=0.02, n_o=1.66109)
    assert classify_regime(mid) == dist.REGIME_INTERMEDIATE
    flat = SpdcParams(lambda_p=0.4047, w_p=0.1, L=0.1, theta0=0.0, n_o=1.66109)
    assert classify_regime(flat) == dist.REGIME_COLLINEAR

    # width hierarchy in the cone-broadened regime
    for p in (params_a, params_b):
        assert width_minus(p) / width_coincidence(p) > 100.0

    # the report prints those values, then the caller's lines
    text = entanglement_report(params_b, extra_lines=["extra line"])
    lines = text.splitlines()
    assert text.endswith("\n") and len(lines) == 6 and lines[-1] == "extra line"
    assert lines[3] == f"width ratio R         : {entanglement_ratio(params_b):.6g}"
    assert lines[4] == f"broadening regime     : {dist.REGIME_NONCOLLINEAR}"


def test_reduced_bipartite_symmetries(params_b):
    k = params_b.k_from_kappa(0.05)
    assert reduced_bipartite(k, -k, params_b) == pytest.approx(
        reduced_bipartite(-k, k, params_b), rel=1e-12)
    # vanishing summed momentum removes the Gaussian factor entirely
    assert reduced_bipartite(k, -k, params_b) == pytest.approx(
        f_exact(2.0 * k, params_b), rel=1e-12)


def test_reduced_bipartite_against_raw_frame_quadrature():
    # the fixed raw-frame rule at two resolutions, which must agree
    p = SpdcParams(lambda_p=0.4047, w_p=0.2, L=0.05, theta0=0.05, n_o=1.66109)
    kmax = p.theta0 * math.pi / p.lambda_cm
    pts = [(0.3 * kmax, -0.3 * kmax + 0.5 / p.w_p),
           (-0.55 * kmax, 0.55 * kmax)]
    coarse = np.array([raw_frame_reduced(k1, k2, p) for k1, k2 in pts])
    fine = np.array([raw_frame_reduced(k1, k2, p, 800, 8) for k1, k2 in pts])
    assert np.max(np.abs(fine / coarse - 1.0)) <= 1e-12
    ratios = fine / np.array([reduced_bipartite(k1, k2, p) for k1, k2 in pts])
    const = 0.5 * math.sqrt(math.pi) / p.w_p * math.pi / p.lambda_cm
    for r in ratios:
        assert r == pytest.approx(const, rel=1e-3)
    assert ratios[0] == pytest.approx(ratios[1], rel=2e-4)


def test_single_particle_curve_shape(params_b):
    grid = default_kappa_grid(params_b, 1201)
    c = single_particle_curve(grid, params_b)
    peak_pos = abs(c.argmax_x())
    assert abs(peak_pos - params_b.theta0) < 4e-3
    center = c.y[len(c.y) // 2]
    assert 0.15 * c.peak() < center < c.peak()
    # mirror peak present
    left = c.y[c.x < 0].max()
    assert left == pytest.approx(c.peak(), rel=2e-2)


def test_single_particle_rms_width(params_b):
    grid = np.linspace(-1.25 * params_b.theta0, 1.25 * params_b.theta0, 1201)
    c = single_particle_curve(grid, params_b)
    sigma = c.rms_width() * math.pi / params_b.lambda_cm
    assert abs(sigma / width_single(params_b) - 1.0) < 1e-2


def test_single_particle_collinear_bell():
    p0 = SpdcParams(lambda_p=0.4047, w_p=0.1, L=0.1, theta0=0.0, n_o=1.66109)
    c = single_particle_curve(default_kappa_grid(p0, 1201), p0)
    assert abs(c.argmax_x()) < 2.0 * (c.x[1] - c.x[0])
    scale = math.sqrt(p0.lambda_cm / p0.L)
    assert 0.2 * scale < c.rms_width() < 1.5 * scale


def test_single_particle_approx_path(params_b):
    grid = default_kappa_grid(params_b, 801)
    ca = single_particle_curve(grid, params_b, exact=False)
    assert np.all(np.isfinite(ca.y))
    ce = single_particle_curve(grid, params_b)
    assert ca.area() == pytest.approx(ce.area(), rel=5e-2)


def test_curve_normalization_contract(params_b):
    grid = default_kappa_grid(params_b, 801)
    c = single_particle_curve(grid, params_b).normalized("unit-area")
    assert abs(c.area() - 1.0) < 1e-6
    raw = single_particle_curve(grid, params_b)
    rescaled = Curve(x=raw.x, y=raw.y * 11.7).normalized("unit-area")
    np.testing.assert_allclose(rescaled.y, c.y, rtol=1e-10)


def test_coincidence_curve_properties(params_b):
    k2 = params_b.k_from_kappa(0.03)
    c = coincidence_curve(k2, params_b)
    assert c.argmax_x() == pytest.approx(-float(params_b.kappa(k2)),
                                         abs=float(c.x[1] - c.x[0]))
    meas = measured_coincidence_width(c)
    assert abs(meas / width_coincidence(params_b) - 1.0) < 1e-2
    assert abs(c.excess_kurtosis()) < 0.05


def test_plane_restricted_curve(params_b):
    grid = default_kappa_grid(params_b, 2001)
    plane = plane_restricted_curve(grid, params_b)
    np.testing.assert_allclose(plane.y, plane.y[::-1], rtol=1e-9)
    assert abs(abs(plane.argmax_x()) - params_b.theta0) <= 2.0 * (grid[1] - grid[0])
    single = single_particle_curve(grid, params_b)
    assert plane.fwhm() < 0.5 * single.fwhm()
    # in-plane restriction is not the y-reduction: unit-area shapes differ a lot
    sup = np.max(np.abs(plane.normalized().y - single.normalized().y))
    assert sup > 0.1


def test_reduction_not_equivalent_to_slicing(params_b):
    # reduced density vs in-plane slice on a small momentum grid
    from biphoton import density4
    halves = params_b.k_from_kappa(np.linspace(-0.12, 0.12, 7))
    shift = 0.25 / params_b.w_p
    reduced = reduced_bipartite(halves + shift, -halves + shift, params_b)
    sliced = density4(halves + shift, -halves + shift, 0.0, 0.0, params_b)
    reduced /= reduced.sum()
    sliced /= sliced.sum()
    assert np.max(np.abs(reduced - sliced)) > 0.1


def test_curve_builders_deterministic(params_b):
    grid = default_kappa_grid(params_b, 301)
    a = single_particle_curve(grid, params_b)
    b = single_particle_curve(grid, params_b)
    assert np.array_equal(a.y, b.y)
