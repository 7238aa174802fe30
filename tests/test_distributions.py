import math

import numpy as np
import pytest

from biphoton import (Curve, SpdcParams, coincidence_curve,
                      default_kappa_grid, entanglement_report, f_approx,
                      f_exact, plane_restricted_curve, reduced_bipartite,
                      single_particle_curve)
from biphoton import distributions as dist

from conftest import (argmax_x, closed_forms, curve_rms, density4,
                      excess_kurtosis, f_approx_moment_ratio, f_exact_panels,
                      f_exact_simpson, fwhm, g_fresnel, plane_gh64, plane_mp,
                      plane_sigma, raw_frame_reduced, report_head, traced_peak)


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


_CHUNK_EDGES = [dist._ROWS - 1, dist._ROWS, dist._ROWS + 1, 2 * dist._ROWS + 1]
_SERIES_CHUNK_EDGES = [dist._SERIES_ROWS - 1, dist._SERIES_ROWS, dist._SERIES_ROWS + 1]


@pytest.mark.parametrize("n", _CHUNK_EDGES + _SERIES_CHUNK_EDGES)
def test_f_exact_does_not_depend_on_row_chunks(params_long, n):
    # kappa across the cone edge, u from +30 to -30: every _SERIES_ROWS block
    # mixes the series band |u| >= _SERIES_SWITCH with the Gauss-Legendre
    # band, which it splits into _ROWS chunks
    p = params_long
    half = 30.0 / (4.0 * p.sinc_scale * p.theta0)
    ks = p.k_from_kappa(np.linspace(2.0 * p.theta0 - half, 2.0 * p.theta0 + half, n))
    assert np.array_equal(f_exact(ks, p), [f_exact(k, p) for k in ks])


@pytest.mark.parametrize("n", _CHUNK_EDGES)
def test_plane_restricted_curve_does_not_depend_on_row_chunks(params_long, n,
                                                             monkeypatch):
    grid = default_kappa_grid(params_long, n)
    chunked = plane_restricted_curve(grid, params_long).y
    monkeypatch.setattr(dist, "_ROWS", 1)
    monkeypatch.setattr(dist, "_SERIES_ROWS", 1)
    by_row = plane_restricted_curve(grid, params_long).y
    assert np.array_equal(chunked, by_row)


def test_f_exact_shapes_pass_through(params_long):
    value = f_exact(1.0, params_long)
    assert np.ndim(value) == 0 and isinstance(value, float)
    assert f_exact(np.empty((0, 3)), params_long).shape == (0, 3)


def test_kernels_work_in_fixed_memory(params_long):
    # the 100 001-point output is 0.8 MB; node matrices over the whole grid
    # took 150 MB (f_exact) and 340 MB (plane_restricted_curve)
    grid = default_kappa_grid(params_long, 100_001)
    ks = params_long.k_from_kappa(grid)
    assert traced_peak(f_exact, ks, params_long) < 12e6
    assert traced_peak(plane_restricted_curve, grid, params_long) < 12e6


def test_g_continuous_across_method_switch():
    # Gauss-Legendre in s below _SERIES_SWITCH, from there on the stationary
    # point plus the endpoint integral's asymptotic series.  The floats next
    # to the switch: G's own slope over u +- 1e-12 |u| is 1.0e-11 of G at u = -16
    for edge in (dist._SERIES_SWITCH, -dist._SERIES_SWITCH):
        below, above = dist._g_of_u(np.nextafter(edge, [0.0, 2.0 * edge]))
        assert abs(above / below - 1.0) <= 2.0 * dist._G_REL_ERR, edge


def test_g_series_remainder_bound_meets_stated_accuracy():
    # |I - series| <= |a_K|/(2v)^K with a_K = binom(-1/2, K) (K+1)!, so G
    # moves by at most 2 sqrt(2 pi)/(8 v^2) times that, largest at the switch
    k, v = dist._SERIES_TERMS, dist._SERIES_SWITCH
    a_k = math.comb(2 * k, k) * math.factorial(k + 1) / 4 ** k
    bound = a_k / (2.0 * v) ** k * 2.0 * math.sqrt(2.0 * math.pi) / (8.0 * v * v)
    assert bound < dist._G_REL_ERR * dist._g_of_u(-v)


def test_s_rule_is_leggauss_56():
    # the near band's rule is written out as literals; they must be numpy's
    # leggauss(56), mapped to [0, 1], bit for bit
    nodes, weights = np.polynomial.legendre.leggauss(56)
    assert np.array_equal(dist._S_NODES, 0.5 * (nodes + 1.0))
    assert np.array_equal(dist._S_WEIGHTS, 0.5 * weights)


def _g_far_around(u, p_of, q_of):
    # the far band written out around the series p_of(w^2) + i w q_of(w^2),
    # for reference series that _g_far must match bit for bit
    v = np.abs(u)
    w = 0.5 / v
    x = w * w
    end = np.exp(2j * v) / (8.0 * v * v) * (p_of(x) + 1j * (w * q_of(x)))
    positive = u > 0.0
    stationary = np.where(positive, math.pi / np.sqrt(v), 0.25 * math.pi / v ** 1.5)
    turn = np.exp(np.where(positive, -0.25j, 0.25j) * math.pi)
    return stationary - 2.0 * dist._ROOT_2PI * (turn * end).real


def test_g_far_series_is_numpy_polynomial_polyval_bit_for_bit():
    # np.polyval on the coefficients highest power first runs the Horner
    # recurrence of numpy.polynomial's polyval on them in rising order
    from numpy.polynomial.polynomial import polyval
    v = np.concatenate([[16.0], np.logspace(np.log10(16.0), np.log10(2e8), 997),
                        [2e8]])
    u = np.concatenate([v, -v])
    a = dist._SERIES_A
    expected = _g_far_around(u, lambda x: polyval(x, a[0::2]), lambda x: polyval(x, a[1::2]))
    assert np.array_equal(dist._g_far(u), expected)


_V = dist._SERIES_SWITCH
_G_ORACLE_POINTS = [0.0, 3.0, -3.0, 6.0, -6.0, 12.0, -12.0, 15.5, -15.5,
                    # the top of the Gauss-Legendre band, where it is least accurate
                    15.99, -15.99,
                    _V + 1e-3, _V - 1e-3, -_V + 1e-3, -_V - 1e-3, _V, -_V,
                    24.0, -24.0, 1e2, -1e2, 1e3, -1e3, 1.8e4, -2.3e4, 1e6, -1e6,
                    2e8, -2e8]


def test_g_far_is_np_polyval_bit_for_bit(params_long):
    # the oracle's far points, and every u of the long crystal's single curve
    points = np.array(_G_ORACLE_POINTS)
    far = points[np.abs(points) >= _V]
    kappa = params_long.kappa(2.0 * params_long.k_from_kappa(
        default_kappa_grid(params_long)))
    grid_u = params_long.sinc_scale * (4.0 * params_long.theta0 ** 2 - kappa * kappa)
    assert np.all(np.abs(grid_u) >= _V)
    for u in (far, grid_u):
        assert np.array_equal(dist._g_far(u), _g_far_around(
            u, lambda x: np.polyval(dist._SERIES_P, x),
            lambda x: np.polyval(dist._SERIES_Q, x)))


def test_g_against_fresnel_oracle():
    # both branches and both sides of the switch, out to |u| = 2e8, the
    # largest the model's domain reaches
    u = np.array(_G_ORACLE_POINTS)
    exact = np.array([g_fresnel(x) for x in u])
    err = np.abs(dist._g_of_u(u) / exact - 1.0)
    assert err.max() <= dist._G_REL_ERR, f"{err.max():.2e} at u = {u[err.argmax()]:g}"


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
    head_a, head_b = report_head(params_a), report_head(params_b)
    assert head_a.minus == pytest.approx(30739.0, rel=1e-3)
    assert head_b.single == pytest.approx(5489.0, rel=1e-3)
    p0 = SpdcParams(lambda_p=0.4047, w_p=0.1, L=0.1, theta0=0.0, n_o=1.66109)
    assert report_head(p0).minus == 0.0
    assert head_a.coincidence == 1.0
    assert head_b.coincidence == 5.0
    doubled = SpdcParams(lambda_p=0.4047, w_p=0.2, L=0.1, theta0=0.1, n_o=1.66109)
    assert report_head(doubled).coincidence == 0.5 * head_b.coincidence


def test_entanglement_report_values(params_a, params_b):
    head_a = report_head(params_a)
    assert 1.50e4 <= head_a.ratio <= 1.56e4
    assert head_a.regime == "noncollinear-broadened"
    # the oracle writes R on its own: it is the single over the coincidence width
    forms_a = closed_forms(params_a)
    assert forms_a.single == pytest.approx(0.5 * forms_a.minus, rel=1e-14)
    assert forms_a.ratio == pytest.approx(
        forms_a.single / forms_a.coincidence, rel=1e-14)

    head_b = report_head(params_b)
    assert abs(head_b.ratio - 1099.0) <= 2.0
    assert head_b.regime == "noncollinear-broadened"

    mid = SpdcParams(lambda_p=0.4047, w_p=0.1, L=0.1, theta0=0.02, n_o=1.66109)
    assert report_head(mid).regime == "intermediate"
    flat = SpdcParams(lambda_p=0.4047, w_p=0.1, L=0.1, theta0=0.0, n_o=1.66109)
    assert report_head(flat).regime == "collinear"

    # width hierarchy in the cone-broadened regime
    for head in (head_a, head_b):
        assert head.minus / head.coincidence > 100.0

    # the report prints those values, then the two curves' half-area widths
    grid = default_kappa_grid(params_b, 401)
    single = single_particle_curve(grid, params_b)
    plane = plane_restricted_curve(grid, params_b)
    text = entanglement_report(params_b, single, plane)
    lines = text.splitlines()
    assert text.endswith("\n") and len(lines) == 8
    w_single, w_plane = single.half_area_width(), plane.half_area_width()
    assert lines[5] == f"single half-area width: {w_single:.6g} (kappa axis)"
    assert lines[6] == f"plane half-area width : {w_plane:.6g} (kappa axis)"
    assert lines[7] == f"plane/single ratio    : {w_plane / w_single:.6g}"
    assert lines[3] == f"width ratio R         : {closed_forms(params_b).ratio:.6g}"
    assert lines[4] == "broadening regime     : noncollinear-broadened"


@pytest.mark.parametrize("factor, side, regime", [
    (3.0, 1.0 + 1e-9, "noncollinear-broadened"),
    (3.0, 1.0 - 1e-9, "intermediate"),
    (1.0 / 3.0, 1.0 + 1e-9, "intermediate"),
    (1.0 / 3.0, 1.0 - 1e-9, "collinear"),
])
def test_regime_line_at_its_thresholds(factor, side, regime):
    # theta0 a relative 1e-9 to either side of 3 sqrt(lam/L) and sqrt(lam/L)/3
    lam, length = 0.4047e-4, 0.1
    theta0 = factor * math.sqrt(lam / length) * side
    p = SpdcParams(lambda_p=0.4047, w_p=0.1, L=length, theta0=theta0, n_o=1.66109)
    assert report_head(p).regime == regime


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
    peak_pos = abs(argmax_x(c))
    assert abs(peak_pos - params_b.theta0) < 4e-3
    center = c.y[len(c.y) // 2]
    assert 0.15 * c.peak() < center < c.peak()
    # mirror peak present
    left = c.y[c.x < 0].max()
    assert left == pytest.approx(c.peak(), rel=2e-2)


def test_single_particle_rms_width(params_b):
    grid = np.linspace(-1.25 * params_b.theta0, 1.25 * params_b.theta0, 1201)
    c = single_particle_curve(grid, params_b)
    sigma = curve_rms(c) * math.pi / params_b.lambda_cm
    assert abs(sigma / closed_forms(params_b).single - 1.0) < 1e-2


def test_single_particle_collinear_bell():
    p0 = SpdcParams(lambda_p=0.4047, w_p=0.1, L=0.1, theta0=0.0, n_o=1.66109)
    c = single_particle_curve(default_kappa_grid(p0, 1201), p0)
    assert abs(argmax_x(c)) < 2.0 * (c.x[1] - c.x[0])
    scale = math.sqrt(p0.lambda_cm / p0.L)
    assert 0.2 * scale < curve_rms(c) < 1.5 * scale


def test_curve_normalization_contract(params_b):
    grid = default_kappa_grid(params_b, 801)
    c = single_particle_curve(grid, params_b).normalized("area")
    assert abs(c.area() - 1.0) < 1e-6
    raw = single_particle_curve(grid, params_b)
    rescaled = Curve(x=raw.x, y=raw.y * 11.7).normalized("area")
    np.testing.assert_allclose(rescaled.y, c.y, rtol=1e-10)


def test_coincidence_curve_properties(params_b):
    k2 = params_b.k_from_kappa(0.03)
    c = coincidence_curve(k2, params_b)
    assert argmax_x(c) == pytest.approx(-float(params_b.kappa(k2)),
                                         abs=float(c.x[1] - c.x[0]))
    # the rms width over sqrt(2) is the reciprocal-waist width, here in cm^-1
    meas = curve_rms(c) / math.sqrt(2.0) * math.pi / params_b.lambda_cm
    assert abs(meas / closed_forms(params_b).coincidence - 1.0) < 1e-2
    assert abs(excess_kurtosis(c)) < 0.05


def test_coincidence_curve_is_reduced_bipartite_at_the_cone_edge(params_long):
    # at kappa2 = theta0, f(2 k2x) sits on the cone edge and f_exact(k1x - k2x)
    # turns by about 12 in u per Gaussian width on the long crystal: the
    # conditional is the joint density, not the Gaussian times f(2 k2x)
    p = params_long
    k2 = p.k_from_kappa(p.theta0)
    c = coincidence_curve(k2, p)
    k1 = p.k_from_kappa(c.x)
    assert np.array_equal(c.y, reduced_bipartite(k1, k2, p))
    # the joint density against mpmath's G at every 25th point
    for i in range(0, c.x.size, 25):
        u = p.sinc_scale * (4.0 * p.theta0 ** 2 - float(p.kappa(k1[i] - k2)) ** 2)
        ref = (math.exp(-(p.w_p * (k1[i] + k2)) ** 2) * g_fresnel(u)
               / math.sqrt(p.sinc_scale))
        assert c.y[i] == pytest.approx(ref, rel=1e-11, abs=1e-11 * c.y.max())


def test_plane_restricted_curve(params_b):
    grid = default_kappa_grid(params_b, 2001)
    plane = plane_restricted_curve(grid, params_b)
    np.testing.assert_allclose(plane.y, plane.y[::-1], rtol=1e-9)
    assert abs(abs(argmax_x(plane)) - params_b.theta0) <= 2.0 * (grid[1] - grid[0])
    single = single_particle_curve(grid, params_b)
    assert fwhm(plane) < 0.5 * fwhm(single)
    # in-plane restriction is not the y-reduction: unit-area shapes differ a lot
    sup = np.max(np.abs(plane.normalized().y - single.normalized().y))
    assert sup > 0.1


@pytest.mark.parametrize("cut", [{"theta0": 0.28, "w_p": 0.5, "L": 0.5},
                                 {"theta0": 0.1, "w_p": 0.1, "L": 0.1},
                                 {"phi0": 0.5275, "w_p": 0.1, "L": 0.1},
                                 {"theta0": 0.0, "w_p": 0.1, "L": 0.1}])
def test_plane_restricted_curve_on_reference_configs(bbo, cut):
    # configs A, B, the CLI default and a collinear one, on the CLI's grids:
    # the sigma oracle at every point, and the plain 64-node Gauss-Hermite
    # rule, exact while the sinc argument turns slowly across the pump
    # Gaussian, as it does at every point here
    cut = dict(cut)
    p = SpdcParams.from_crystal(bbo, 0.4047, cut.pop("w_p"), cut.pop("L"), **cut)
    peak = plane_sigma(p.theta0, p)[0]
    for n in (1201, 2001):
        grid = default_kappa_grid(p, n)
        _check_plane_against_sigma_oracle(p, grid)
        gh64 = plane_gh64(grid, p)
        assert np.max(np.abs(plane_restricted_curve(grid, p).y - gh64)) <= 1e-13 * peak


def _plane_coefficients(p):
    """beta, a/kappa1 = 4 S beta and b = S beta^2 of the in-plane parabola."""
    beta = p.lambda_cm / (math.pi * p.w_p)
    return beta, 4.0 * p.sinc_scale * beta, p.sinc_scale * beta * beta


def _check_plane_against_sigma_oracle(p, kappas, local_tol=None):
    """The library against the sigma oracle, which two resolutions must agree on.

    Within _K0_PEAK_ERR of the peak; with local_tol, also within
    local_tol of each value, which the oracle must meet to a tenth.
    """
    coarse, fine = plane_sigma(kappas, p), plane_sigma(kappas, p, resolution=2)
    peak = plane_sigma(p.theta0, p)[0]   # the island's height, at its middle
    assert np.max(np.abs(coarse - fine)) <= 1e-13 * peak
    err = np.abs(plane_restricted_curve(kappas, p).y - fine)
    assert err.max() <= dist._K0_PEAK_ERR * peak, (
        f"{err.max() / peak:.2e} of the peak at kappa = {kappas[err.argmax()]!r}")
    if local_tol is not None:
        assert np.max(np.abs(coarse - fine) / fine) <= 0.1 * local_tol
        local = err / fine
        assert local.max() <= local_tol, (
            f"{local.max():.2e} of the value at kappa = {kappas[local.argmax()]!r}")


def _slope_switch(theta0, beta, k):
    """The kappa1 on each side of the island where |u0| = k a."""
    root = math.sqrt(k * k * beta * beta + 4.0 * theta0 * theta0)
    return [0.5 * (root - k * beta), 0.5 * (root + k * beta)]


@pytest.mark.parametrize("w_p", [0.05, 0.01])
def test_plane_restricted_curve_long_crystal_against_sigma_oracle(bbo, w_p):
    # L = 10 cm: the sinc^2 arches are far finer than the pump Gaussian at
    # the cone edge, where a fixed 64-node rule was off by 0.68 (w_p = 0.05)
    # and 5.6 (w_p = 0.01) of the peak.  The island at kappa = theta0 on
    # 201 points, a pump drift and a few arches each side, and the curve
    # from 0 to 1.5 theta0 on 13 more
    p = SpdcParams.from_crystal(bbo, 0.4047, w_p, 10.0, theta0=0.28)
    beta, _, _ = _plane_coefficients(p)
    half = 2.0 * beta + 2.0 * math.pi / (4.0 * p.sinc_scale * p.theta0)
    kappas = np.union1d(np.linspace(p.theta0 - half, p.theta0 + half, 201),
                        np.linspace(0.0, 1.5 * p.theta0, 13))
    _check_plane_against_sigma_oracle(p, kappas)


def test_plane_restricted_curve_across_band_switches(bbo):
    # L = 10 cm, w_p = 0.05 cm, theta0 = 0.28.  Each side of the island, |u0|
    # crosses _K0_MID_A a (near band to the Gauss-Laguerre far band) and
    # _K0_FAR_A a (to the series), far above _K0_MID_B b and _K0_MID_U; nearer
    # the axis, where u0 ~ 1.8e4, a^2 crosses _K0_END (1 + 4 b^2), where the
    # s = 1 end starts to count
    p = SpdcParams.from_crystal(bbo, 0.4047, 0.05, 10.0, theta0=0.28)
    beta, per_kappa, b = _plane_coefficients(p)
    end = math.sqrt(dist._K0_END * (1.0 + 4.0 * b * b)) / per_kappa
    slopes = [(k_a, k_b, kappa) for k_a, k_b in ((dist._K0_MID_A, dist._K0_MID_B),
                                                 (dist._K0_FAR_A, dist._K0_FAR_B))
              for kappa in _slope_switch(p.theta0, beta, k_a)]
    sides = np.array([1.0 - 1e-9, 1.0 + 1e-9])
    for k_a, k_b, kappa in slopes:
        u0 = 4.0 * p.sinc_scale * np.abs(p.theta0 ** 2 - (kappa * sides) ** 2)
        beyond = u0 >= k_a * per_kappa * kappa * sides
        assert beyond[0] != beyond[1]
        assert k_a * per_kappa * kappa > max(k_b * b, dist._K0_MID_U)
    assert (per_kappa * end * sides[0]) ** 2 < dist._K0_END * (1.0 + 4.0 * b * b)
    assert (per_kappa * end * sides[1]) ** 2 > dist._K0_END * (1.0 + 4.0 * b * b)
    kappas = np.sort(np.outer([kappa for *_, kappa in slopes] + [end], sides).ravel())
    _check_plane_against_sigma_oracle(p, kappas)


@pytest.mark.parametrize("cone, k_a, k_b", [(5.3, dist._K0_MID_A, dist._K0_MID_B),
                                             (160.0, dist._K0_FAR_A, dist._K0_FAR_B)],
                         ids=["far", "series"])
def test_plane_restricted_curve_across_bend_switches(bbo, cone, k_a, k_b):
    # L = 10 cm, w_p = 44 um: b = S beta^2 = 0.5.  With theta0 = 5.3 beta,
    # |u0| crosses _K0_MID_B b (near band to far band) inside the island,
    # where _K0_MID_A a is below it; with theta0 = 160 beta, |u0| crosses
    # _K0_FAR_B b (to the series) on both sides, where _K0_FAR_A a is below it
    beta, per_kappa, b = _plane_coefficients(
        SpdcParams.from_crystal(bbo, 0.4047, 0.0044, 10.0, theta0=0.0))
    p = SpdcParams.from_crystal(bbo, 0.4047, 0.0044, 10.0, theta0=cone * beta)
    switches = [math.sqrt(p.theta0 ** 2 + side * 0.25 * k_b * beta * beta)
                for side in (-1.0, 1.0)]
    switches = [kappa for kappa in switches if k_a * per_kappa * kappa < k_b * b]
    assert len(switches) == (1 if k_b == dist._K0_MID_B else 2)
    sides = np.array([1.0 - 1e-9, 1.0 + 1e-9])
    for kappa in switches:
        u0 = 4.0 * p.sinc_scale * np.abs(p.theta0 ** 2 - (kappa * sides) ** 2)
        beyond = u0 >= k_b * b
        assert beyond[0] != beyond[1]
    kappas = np.sort(np.outer(switches, sides).ravel())
    _check_plane_against_sigma_oracle(p, kappas)


@pytest.mark.parametrize("slope", [4.0, "below", "above", "end"])
def test_plane_restricted_curve_island_across_band_switches(bbo, slope):
    # the island at kappa1 = theta0 where a is 4, just below or above the near
    # band's window switch a^2 = T^2 (1 + 4 b^2), or at the s = 1 end's switch
    # a^2 = _K0_END (1 + 4 b^2), out to 16 pump drifts each side: the near band
    # and the Gauss-Laguerre far band, every value at least 3e-5 of the peak,
    # the oracle to 1e-11 of it
    beta, per_kappa, b = _plane_coefficients(
        SpdcParams.from_crystal(bbo, 0.4047, 0.05, 10.0, theta0=0.28))
    window = dist._K0_T * math.sqrt(1.0 + 4.0 * b * b)
    a = {"below": window * (1.0 - 1e-9), "above": window * (1.0 + 1e-9),
         "end": math.sqrt(dist._K0_END * (1.0 + 4.0 * b * b))}.get(slope, slope)
    p = SpdcParams.from_crystal(bbo, 0.4047, 0.05, 10.0, theta0=a / per_kappa)
    kappas = p.theta0 + np.linspace(-16.0, 16.0, 129) * beta
    _check_plane_against_sigma_oracle(p, kappas, local_tol=1e-9)


@pytest.mark.parametrize("cut", [{"theta0": 0.28}, {"phi0": 0.5275}])
def test_plane_restricted_curve_long_crystal_narrow_waist(bbo, cut):
    # L = 1 m, w_p = 10 um: b = S beta^2 = 97 and a ~ 8400 (theta0 0.28) or
    # 3000 (the CLI's cut) at the island, which the near band takes on
    # [0, T/sqrt(a^2 - 4 b^2 T^2)]
    p = SpdcParams.from_crystal(bbo, 0.4047, 0.001, 100.0, **cut)
    beta, _, _ = _plane_coefficients(p)
    half = 2.0 * beta + 2.0 * math.pi / (4.0 * p.sinc_scale * p.theta0)
    _check_plane_against_sigma_oracle(
        p, np.linspace(p.theta0 - half, p.theta0 + half, 41))


def _bands(p, kappas):
    """The band the kernel takes at each kappa1: 2 large-b, 1 near, 0 and -1 far."""
    _, per_kappa, b = _plane_coefficients(p)
    u0 = 4.0 * p.sinc_scale * (p.theta0 ** 2 - kappas * kappas)
    return dist._k0_band(u0, per_kappa * np.abs(kappas), b)


@pytest.mark.parametrize("length, w_p, theta0", [
    (0.1, 0.0003, 0.1), (0.1, 0.0003, 0.0), (1.0, 0.001, 0.05), (10.0, 0.003, 0.0),
    (100.0, 0.0007, 0.0), (100.0, 0.00069, 0.0)])
def test_plane_restricted_curve_on_split_near_rules(bbo, length, w_p, theta0,
                                                    monkeypatch):
    # b = S beta^2 from 0.97 to 204 with the cone within 5 beta of the axis:
    # near-band points with b s_max past _K0_NEAR_B take the large-b band.
    # The curve meets the oracle, the same for any chunk size
    p = SpdcParams.from_crystal(bbo, 0.4047, w_p, length, theta0=theta0)
    kappas = default_kappa_grid(p, 41)
    assert np.any(_bands(p, kappas) == 2.0)
    _check_plane_against_sigma_oracle(p, kappas)
    chunked = plane_restricted_curve(kappas, p).y
    monkeypatch.setattr(dist, "_ROWS", 1)
    assert np.array_equal(plane_restricted_curve(kappas, p).y, chunked)


def test_plane_restricted_curve_across_the_large_b_switch(bbo):
    # L = 10 cm, w_p = 22 um: b = 2.0, and the island at theta0 = 3.35 beta
    # spans b s_max = _K0_NEAR_B, a = b sqrt(4 T^2 + (T/_K0_NEAR_B)^2): the near
    # band on one side, the large-b band on the other.  Both kernels at both
    # sides agree within _K0_PEAK_ERR of the peak, and meet the oracle
    beta, per_kappa, b = _plane_coefficients(
        SpdcParams.from_crystal(bbo, 0.4047, 0.0022, 10.0, theta0=0.0))
    p = SpdcParams.from_crystal(bbo, 0.4047, 0.0022, 10.0, theta0=3.35 * beta)
    switch = b * math.hypot(2.0 * dist._K0_T, dist._K0_T / dist._K0_NEAR_B) / per_kappa
    sides = switch * np.array([1.0 - 1e-9, 1.0 + 1e-9])
    assert list(_bands(p, sides)) == [2.0, 1.0]
    peak = plane_sigma(p.theta0, p)[0]
    u0 = 4.0 * p.sinc_scale * (p.theta0 ** 2 - sides * sides)
    zeta, weights = dist._k0_wide_rule((2.0 * p.theta0 / beta) ** 2, b)
    wide = np.sum((weights * np.exp(-(sides / beta)[:, None] ** 2 * 4.0 * zeta)).real, axis=1)
    near = dist._k0_near(u0, per_kappa * sides, b)
    assert np.max(np.abs(wide - near)) * 2.0 * math.sqrt(math.pi) / p.w_p <= (
        dist._K0_PEAK_ERR * peak)
    kappas = np.sort(np.concatenate([sides, p.theta0 + np.linspace(-2.0, 2.0, 9) * beta]))
    _check_plane_against_sigma_oracle(p, kappas)


def _plane_oracle(p, kappas, peak):
    """plane_sigma's finer resolution where its two resolutions agree to 1e-13 of
    the peak and b is at most 300 (past that its panels grow with b), plane_mp
    elsewhere."""
    kappas = np.asarray(kappas, dtype=float)
    if _plane_coefficients(p)[2] > 300.0:
        return plane_mp(kappas, p)
    coarse, fine = plane_sigma(kappas, p), plane_sigma(kappas, p, resolution=2)
    uncertified = np.abs(coarse - fine) > 1e-13 * peak
    fine[uncertified] = plane_mp(kappas[uncertified], p)
    return fine


def _large_b_config(bbo, b, nu):
    """L = 1 m, with the waist that gives b = S beta^2 and the cone nu = (2 theta0/beta)^2."""
    n_o = SpdcParams.from_crystal(bbo, 0.4047, 0.1, 100.0, theta0=0.0).n_o
    w_p = math.sqrt(100.0 * 0.4047e-4 / (8.0 * math.pi * n_o * b))
    beta = 0.4047e-4 / (math.pi * w_p)
    return SpdcParams.from_crystal(bbo, 0.4047, w_p, 100.0, theta0=0.5 * beta * math.sqrt(nu))


def test_plane_restricted_curve_near_the_axis_against_mpmath(bbo):
    # L = 1 m, w_p = 10 um, theta0 = 0.05 (b = 97): near the axis, where the
    # phase 2 u0 s reaches 1.2e4 rad, plane_sigma's two resolutions disagree
    # by more than 1e-13 of the peak; the kernel meets mpmath there
    p = SpdcParams.from_crystal(bbo, 0.4047, 0.001, 100.0, theta0=0.05)
    kappas = np.array([0.0, 0.004, 0.0075])
    peak = plane_sigma(p.theta0, p)[0]
    disagree = np.abs(plane_sigma(kappas, p) - plane_sigma(kappas, p, resolution=2))
    assert disagree.max() > 1e-13 * peak
    err = np.abs(plane_restricted_curve(kappas, p).y - plane_mp(kappas, p))
    assert err.max() <= dist._K0_PEAK_ERR * peak


# (b, nu, c): b from 1 to 3e4, nu from 0 to 190 and c from 0 to 50 on the
# large-b band, then at b = 30 both sides of its switches: nu = _K0_PHASE/(2b)
# (rays or none), nu = _K0_PHASE/_K0_RAY_MIN (tau_c from _K0_PHASE/nu to
# _K0_RAY_MIN) and the far band's |u0| = max(_K0_MID_A a, _K0_MID_B b) at
# nu = 120 (c = 20) and 190 (c = 49.4); and b = 2e4 with nu = 50
_SIDES = (1.0 - 1e-7, 1.0 + 1e-7)
_EXIT_190 = ((-20.0 + math.sqrt(400.0 + 4.0 * 190.0)) / 2.0) ** 2
_LARGE_B = [
    *[(b, nu, c) for b in (1.0, 30.0, 300.0, 3000.0, 3e4)
      for nu, cs in ((0.0, (0.0, 25.0, 50.0)), (2.0, (0.0, 50.0)),
                     (50.0, (0.0, 25.0, 50.0)), (190.0, (50.0,)))
      for c in cs if b < 300.0 or c != 25.0],
    *[(30.0, nu * side, c) for nu in (dist._K0_PHASE / 60.0, dist._K0_PHASE / dist._K0_RAY_MIN)
      for side in _SIDES for c in (0.0, 50.0)],
    *[(30.0, 120.0, 20.0 * side) for side in _SIDES],
    *[(30.0, 190.0, _EXIT_190 * side) for side in _SIDES],
    (2e4, 50.0, 0.1), (2e4, 50.0, 25.0)]


@pytest.mark.parametrize("b", sorted({b for b, _, _ in _LARGE_B}))
def test_plane_large_b_band_against_oracles(bbo, b):
    rows = [(nu, c) for b_, nu, c in _LARGE_B if b_ == b]
    for nu in sorted({nu for nu, _ in rows}):
        p = _large_b_config(bbo, b, nu)
        beta = p.lambda_cm / (math.pi * p.w_p)
        kappas = np.array([0.5 * beta * math.sqrt(c) for nu_, c in rows if nu_ == nu])
        bands = _bands(p, kappas)
        assert set(bands) <= {2.0, 0.0} and 2.0 in bands, (nu, bands)
        # the island's middle joins the points, so the curve has two or more,
        # and the kernel's own maximum is the peak
        grid = np.unique(np.append(kappas, p.theta0))
        curve = plane_restricted_curve(grid, p).y
        peak = curve.max()
        err = np.abs(curve[np.searchsorted(grid, kappas)] - _plane_oracle(p, kappas, peak))
        assert err.max() <= dist._K0_PEAK_ERR * peak, (nu, err / peak)
        # a node count that does not grow with b
        assert dist._k0_wide_rule((2.0 * p.theta0 / beta) ** 2, _plane_coefficients(p)[2])[
            0].size <= 356


def _swept_large_b_configs(bbo, seed=20261021):
    """Configs log-uniform in L, w_p and theta0 over the domain at lambda_p =
    0.4047 um (theta0 from 1e-4 to 0.5 rad), kept where a point of a 401-point
    curve takes the large-b band, the first two in each decade of b from 1 to
    1e6, with their grids."""
    rng = np.random.default_rng(seed)
    lam, n_o = 0.4047e-4, SpdcParams.from_crystal(bbo, 0.4047, 0.1, 0.1, theta0=0.0).n_o
    draws = 10.0 ** rng.uniform([math.log10(lam), math.log10(lam / (2.0 * math.pi)) + 1e-9,
                                 -4.0], [2.0, 0.0, math.log10(0.5)], size=(100_000, 3))
    decades = np.floor(np.log10(draws[:, 0] * lam / (8.0 * math.pi * n_o * draws[:, 1] ** 2)))
    kept = {decade: [] for decade in range(6)}
    for (length, w_p, theta0), decade in zip(draws, decades):
        if len(kept.get(decade, [None] * 2)) < 2:
            p = SpdcParams.from_crystal(bbo, 0.4047, w_p, length, theta0=theta0)
            grid = default_kappa_grid(p, 401)
            if np.any(_bands(p, grid) == 2.0):
                kept[decade].append((p, grid))
    assert all(len(configs) == 2 for configs in kept.values())
    return [config for configs in kept.values() for config in configs]


def test_plane_large_b_band_on_a_seeded_sweep(bbo):
    # twelve configs with b from 1 to 1e6: the curve is finite and nonnegative
    # with no warning (the suite makes warnings errors), and at five of its
    # large-b points, from the axis out, meets the oracle within _K0_PEAK_ERR
    # of its peak
    for p, grid in _swept_large_b_configs(bbo):
        curve = plane_restricted_curve(grid, p).y
        assert np.all(np.isfinite(curve)) and np.all(curve >= 0.0)
        wide = np.flatnonzero((_bands(p, grid) == 2.0) & (grid >= 0.0))
        points = np.unique(wide[np.linspace(0, wide.size - 1, 5).round().astype(int)])
        err = np.abs(curve[points] - _plane_oracle(p, grid[points], curve.max()))
        assert err.max() <= dist._K0_PEAK_ERR * curve.max(), (p, err / curve.max())


def test_k0_without_slope_or_bend_is_sinc2():
    # a = b = 0: 2 sqrt(pi) Re K0 = sqrt(pi) sinc^2(u0), on the near band
    # (|u0| < _K0_MID_U) and on the far band, by the rule and by the series
    near = np.linspace(-1.0, 1.0, 101) * dist._K0_MID_U * (1.0 - 1e-9)
    v = np.concatenate([[dist._K0_MID_U], np.logspace(np.log10(dist._K0_MID_U), 8.3, 199)])
    far = np.concatenate([v, -v])
    for u0, kernel in (
            (near, dist._k0_near),
            (far, lambda u, a, b: dist._k0_far(u, a, b, dist._j0_rule)),
            (far, lambda u, a, b: dist._k0_far(u, a, b, dist._j0_series))):
        want = 0.5 * (np.sin(u0) / np.where(u0 == 0.0, 1.0, u0)) ** 2
        want[u0 == 0.0] = 0.5
        # within 1e-14 of the peak, 1/2 at u0 = 0
        assert np.max(np.abs(kernel(u0, np.zeros_like(u0), 0.0) - want)) <= 0.5e-14


def test_laguerre_rule_is_laggauss_10():
    # the far band's rule is written out as literals; they must be numpy's
    # laggauss(10), bit for bit
    nodes, weights = np.polynomial.laguerre.laggauss(10)
    assert np.array_equal(dist._LAG_NODES, nodes)
    assert np.array_equal(dist._LAG_WEIGHTS, weights)


def test_j0_series_meets_the_rule_where_it_is_used():
    # its terms are C_ij g^i r^j, C_ij = (j + 1/2)_i (i + 2j + 1)!/(i! j!),
    # for i <= 2 and i + 2j <= 6
    def c(i, j):
        return math.prod(j + 0.5 + k for k in range(i)) * math.factorial(i + 2 * j + 1) / (
            math.factorial(i) * math.factorial(j))
    terms = sum(c(i, j) * 1e-3 ** i * 1e-4 ** j
                for j in range(4) for i in range(min(2, 6 - 2 * j) + 1))
    assert dist._j0_series(1e-3, 1e-4) == pytest.approx(terms, rel=1e-15)
    # the series takes J0 where |g| <= 1/_K0_FAR_B and |r| <= 1/(4 _K0_FAR_A^2)
    # at s = 0, real, and at s = 1 turned and scaled by q and 1/A, complex,
    # with |q| <= 1.07 there
    g_max, r_max = 1.0 / dist._K0_FAR_B, 0.25 / dist._K0_FAR_A ** 2
    g, r = np.meshgrid(np.linspace(-g_max, g_max, 21), np.linspace(0.0, r_max, 21))
    g, r = g.ravel(), r.ravel()
    for turn in (1.0, 1.1 * np.exp(0.3j), 1.1 * np.exp(-2.0j)):
        gt, rt = g * turn, r * turn * turn
        assert np.max(np.abs(dist._j0_series(gt, rt) - dist._j0_rule(gt, rt))) <= 3e-14


def test_reduction_not_equivalent_to_slicing(params_b):
    # reduced density vs in-plane slice on a small momentum grid
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
