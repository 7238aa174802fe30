"""Acceptance suite: every criterion runs at its stated tolerance and
prints one verdict line (run with `pytest -s tests/test_acceptance.py`).

Assertion messages report the values computed in the run, never
numbers pinned from an earlier one.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest

from biphoton import (SpdcParams, collinear_cut_angle, default_kappa_grid,
                      f_approx, f_exact, opening_angle_fit, phase_match,
                      index_ordinary, plane_restricted_curve, reduced_bipartite,
                      ring_from_params, sample_pairs, scan_coincidence,
                      scan_single, single_particle_curve)
from biphoton.crystal import index_extraordinary
from biphoton.curves import Curve

from conftest import (Z_CM, argmax_x, brute_reduced, chord_length,
                      closed_forms, curve_mean, curve_rms, f_approx_moment_ratio,
                      fwhm, raw_frame_reduced, report_head)

LAM_P = 0.4047
_GL5_NODES, _GL5_WEIGHTS = np.polynomial.legendre.leggauss(5)


@contextmanager
def verdict(num, name):
    try:
        yield
    except BaseException:
        print(f"\nCRITERION {num:02d} ({name}): FAIL")
        raise
    print(f"\nCRITERION {num:02d} ({name}): PASS")


def bin_average(func, edges):
    """5-point Gauss-Legendre average of func over each bin."""
    out = np.empty(len(edges) - 1)
    for i, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
        xs = 0.5 * (a + b) + 0.5 * (b - a) * _GL5_NODES
        out[i] = 0.5 * float(np.dot(_GL5_WEIGHTS, [func(x) for x in xs]))
    return out


def test_c01_sellmeier_regression(bbo):
    with verdict(1, "Sellmeier regression"):
        assert abs(index_extraordinary(bbo, LAM_P) - 1.56801) < 0.5e-5
        assert abs(index_ordinary(bbo, LAM_P) - 1.69236) < 0.5e-5
        assert abs(index_ordinary(bbo, 2 * LAM_P) - 1.66109) < 0.5e-5


def test_c02_collinear_root_and_fit(bbo):
    with verdict(2, "collinear cut angle and opening-angle fit"):
        root = collinear_cut_angle(bbo, LAM_P)
        assert abs(root - 0.5008) <= 1e-3, f"root {root}"
        for phi in np.linspace(0.51, 0.9, 79):
            _, exact = phase_match(bbo, phi, LAM_P)
            rel = abs(opening_angle_fit(bbo, phi, LAM_P) - exact) / exact
            assert rel < 0.05, f"fit deviation {rel:.4f} at phi0={phi:.3f}"


def test_c03_cone_angles(bbo):
    with verdict(3, "cone opening angles"):
        _, t07 = phase_match(bbo, 0.7, LAM_P)
        _, t0527 = phase_match(bbo, 0.5275, LAM_P)
        assert abs(t07 - 0.28) <= 5e-3, f"theta0(0.7) = {t07}"
        assert abs(t0527 - 0.100) <= 5e-3, f"theta0(0.5275) = {t0527}"


def test_c04_widths_and_ratio_strong_set(params_a):
    with verdict(4, "widths and ratio, strong set"):
        head = report_head(params_a)
        dm = head.minus
        assert abs(dm / 30739.0 - 1.0) <= 1e-3, f"difference width {dm}"
        assert head.coincidence == 1.0
        r = head.ratio
        assert 1.50e4 <= r <= 1.56e4, f"ratio {r}"


def test_c05_widths_and_ratio_moderate_set(params_b):
    with verdict(5, "widths and ratio, moderate set"):
        head = report_head(params_b)
        ds = head.single
        assert abs(ds / 5489.0 - 1.0) <= 1e-3, f"single width {ds}"
        assert head.coincidence == 5.0
        r = head.ratio
        assert abs(r - 1099.0) <= 2.0, f"ratio {r}"


def test_c06_delta_approximation_fidelity(params_a):
    with verdict(6, "delta-approximation fidelity"):
        # dev = f_exact/f_approx - 1 = G(u) sqrt(u)/pi - 1 depends on
        # u = S (4 theta0^2 - kappa^2) alone, with
        # G(u) = 2 sqrt(2 pi) Re[exp(-i pi/4) int_0^1 (1 - s^2) exp(2 i u s^2) ds].
        # The stationary point s = 0 gives exactly pi/sqrt(u); integrating
        # by parts at the endpoint s = 1 gives, with psi = 2u - pi/4,
        #   dev = -cos(psi)/(2 r u^1.5) - sin(psi)/(4 r u^2.5)
        #         + 9 cos(psi)/(32 r u^3.5) + 15 sin(psi)/(32 r u^4.5) + ...,
        # r = sqrt(2 pi).  The 1% band starts where the leading envelope
        # falls to 1%, at the same u for every configuration.
        rel_tol = 1e-6
        root = math.sqrt(2.0 * math.pi)
        u_star = (50.0 / root) ** (2.0 / 3.0)
        scale = params_a.sinc_scale
        two_theta = 2.0 * params_a.theta0
        boundary = math.sqrt(two_theta ** 2 - u_star / scale)

        def dev(kappa):
            k = params_a.k_from_kappa(kappa)
            return f_exact(k, params_a) / f_approx(k, params_a) - 1.0

        inside = np.concatenate([np.linspace(0.0, 0.55, 140),
                                 np.linspace(0.55, boundary, 90)])
        devs = np.array([dev(kappa) for kappa in inside])

        # curves must visibly diverge inside the edge neighbourhood
        near = [two_theta - 8e-4, two_theta - 4e-4, two_theta - 2e-4]
        near_devs = [abs(dev(kappa)) for kappa in near]
        assert max(near_devs) > 0.05, (
            f"max |exact/approx - 1| near the edge only {max(near_devs):.4%}")

        worst = int(np.argmax(np.abs(devs)))
        assert abs(devs[worst]) < 1e-2, (
            f"max |exact/approx - 1| = {abs(devs[worst]):.4%} at kappa = "
            f"{inside[worst]:.5f} (band boundary u* = {u_star:.4f}, "
            f"{two_theta - boundary:.6f} from the edge)")

        # the deviation follows the two-term law; the remainder is bounded
        # by the third- and fourth-term envelopes plus the quadrature tolerance
        u = scale * (two_theta ** 2 - inside ** 2)
        psi = 2.0 * u - 0.25 * math.pi
        law = (-np.cos(psi) / (2.0 * root * u ** 1.5)
               - np.sin(psi) / (4.0 * root * u ** 2.5))
        bound = (9.0 / (32.0 * root * u ** 3.5)
                 + 15.0 / (32.0 * root * u ** 4.5) + rel_tol)
        excess = np.abs(devs - law) / bound
        i = int(np.argmax(excess))
        assert excess[i] <= 1.0, (
            f"dev - two-term law = {devs[i] - law[i]:.3e} at u = {u[i]:.3f}, "
            f"bound {bound[i]:.3e}")


def test_c07_moment_oracle(params_a):
    with verdict(7, "second-moment oracle"):
        target = 2.0 * (math.pi * params_a.theta0 / params_a.lambda_cm) ** 2
        ratio = f_approx_moment_ratio(params_a)
        assert abs(ratio / target - 1.0) < 1e-3, f"moment ratio {ratio}"


def test_c08_diagonal_identity(bbo):
    with verdict(8, "diagonal identity vs raw-frame quadrature"):
        p = SpdcParams.from_crystal(bbo, LAM_P, 0.2, 0.05, theta0=0.05)
        kmax = p.theta0 * math.pi / p.lambda_cm
        halves = np.linspace(-0.6, 0.6, 5) * kmax
        offsets = np.linspace(-1.5, 1.5, 5) / p.w_p
        pts = [(h + 0.5 * d, -h + 0.5 * d) for h in halves for d in offsets]
        # the fixed-rule oracle at two resolutions must agree before use
        coarse = np.array([raw_frame_reduced(k1, k2, p) for k1, k2 in pts])
        fine = np.array([raw_frame_reduced(k1, k2, p, 800, 8) for k1, k2 in pts])
        gap = np.max(np.abs(fine / coarse - 1.0))
        assert gap <= 1e-12, f"oracle resolutions differ by {gap:.2e}"
        # and one point against the adaptive nested quadrature
        spot = 18
        check = brute_reduced(*pts[spot], p) / fine[spot] - 1.0
        assert abs(check) <= 1e-7, f"fixed rule off adaptive one by {check:.2e}"
        ratios = fine / np.array([reduced_bipartite(k1, k2, p) for k1, k2 in pts])
        spread = ratios.max() / ratios.min() - 1.0
        assert spread <= 1e-4, f"grid spread {spread:.2e}"
        const = 0.5 * math.sqrt(math.pi) / p.w_p * math.pi / p.lambda_cm
        dev = abs(ratios.mean() / const - 1.0)
        assert dev <= 1e-4, f"overall constant off by {dev:.2e}"


def _local_maxima(y):
    return [i for i in range(1, len(y) - 1) if y[i] > y[i - 1] and y[i] >= y[i + 1]]


def test_c09_shape_regression(bbo):
    with verdict(9, "single-particle shape vs cone angle"):
        # double peak
        p = SpdcParams.from_crystal(bbo, LAM_P, 0.1, 0.1, theta0=0.04)
        c = single_particle_curve(default_kappa_grid(p, 1201), p)
        peaks = [i for i in _local_maxima(c.y) if c.y[i] > 0.9 * c.peak()]
        assert len(peaks) == 2, f"expected two maxima, found {len(peaks)}"
        interior_min = c.y[peaks[0]:peaks[1] + 1].min()
        assert interior_min >= 0.5 * c.peak(), (
            f"interior minimum at {interior_min / c.peak():.2%} of peak")

        # flat top
        p = SpdcParams.from_crystal(bbo, LAM_P, 0.1, 0.1, theta0=0.02)
        c = single_particle_curve(default_kappa_grid(p, 1201), p)
        plateau = c.y[len(c.y) // 2]
        assert c.peak() / plateau < 1.15, f"top ratio {c.peak() / plateau:.3f}"
        kpk = abs(argmax_x(c))
        inner = c.y[np.abs(c.x) <= kpk + 1e-12]
        assert inner.min() >= 0.95 * plateau

        # collinear bell
        p = SpdcParams.from_crystal(bbo, LAM_P, 0.1, 0.1, theta0=0.0)
        c = single_particle_curve(default_kappa_grid(p, 1201), p)
        step = c.x[1] - c.x[0]
        assert abs(argmax_x(c)) <= step
        side = [i for i in _local_maxima(c.y) if c.y[i] > 0.25 * c.peak()
                and abs(c.x[i]) > step]
        assert not side, "secondary maxima above a quarter of the peak"


def test_c10_oracle_equivalence(params_a, batch_a):
    with verdict(10, "analytic scan / Monte-Carlo / theory equivalence"):
        ring = ring_from_params(params_a, Z_CM)
        nb = 241
        edges = np.linspace(-0.42, 0.42, nb + 1)
        centers = 0.5 * (edges[:-1] + edges[1:])

        mc = scan_single(batch_a, Z_CM * centers).counts
        theory = bin_average(
            lambda kap: f_exact(2.0 * float(params_a.k_from_kappa(kap)), params_a),
            edges)
        analytic = bin_average(lambda kap: float(chord_length(Z_CM * kap, *ring)),
                               edges)

        def ua(v):
            return v / np.trapezoid(v, centers)

        m, a, t = ua(mc), ua(analytic), ua(theory)
        included = np.ones(nb, dtype=bool)
        for peak in (params_a.theta0, -params_a.theta0):
            included &= ~((edges[:-1] < peak + 0.002) & (edges[1:] > peak - 0.002))
        ref = t[included].max()
        for left, right, tag in ((m, t, "mc-theory"), (a, t, "analytic-theory"),
                                 (a, m, "analytic-mc")):
            sup = np.max(np.abs(left - right)[included])
            assert sup <= 0.03 * ref, f"{tag} sup-norm {sup / ref:.2%}"


def test_c11_coincidence_scan(params_b, batch_b):
    with verdict(11, "coincidence scan position and width ratio"):
        r0, delta_r = ring_from_params(params_b, Z_CM)

        centers = np.linspace(-0.15, 0.15, 201)
        mc = scan_single(batch_b, Z_CM * centers)
        sigma_s = curve_rms(mc) / Z_CM * math.pi / params_b.lambda_cm

        sigma_x = Z_CM * params_b.lambda_cm / (math.pi * math.sqrt(2.0) * params_b.w_p)
        cpos = -r0 + np.linspace(-6.0, 6.0, 61) * sigma_x
        co = scan_coincidence(batch_b, r0, 0.5 * delta_r, cpos)
        assert co.counts.any()
        n_c = co.y.sum()
        centroid, rms = curve_mean(co), curve_rms(co)
        bound = 4.0 * rms / math.sqrt(n_c)
        assert abs(centroid + r0) <= bound, (
            f"centroid at {centroid:.5f} cm, D2 at {r0} cm "
            f"(bound {bound:.5f} cm)")

        width_c = rms / math.sqrt(2.0) * math.pi / (Z_CM * params_b.lambda_cm)
        r_hat = sigma_s / width_c

        # estimator bias of the finite window, taken from the exact curve
        theory = single_particle_curve(centers, params_b)
        sys_bias = abs(curve_rms(theory) * math.pi / params_b.lambda_cm
                       / closed_forms(params_b).single - 1.0)
        tol = 3.0 / math.sqrt(2.0 * n_c) + sys_bias
        r = closed_forms(params_b).ratio
        assert abs(r_hat / r - 1.0) <= tol, (
            f"measured ratio {r_hat:.1f} vs {r:.1f} "
            f"(tol {tol:.2%}, {n_c:.0f} coincidences)")


def test_c12_plane_restriction_contrast(bbo, params_b):
    with verdict(12, "plane-restriction width contrast"):
        def contrast(params):
            grid = default_kappa_grid(params, 2001)
            plane = plane_restricted_curve(grid, params)
            single = single_particle_curve(grid, params)
            return plane, plane.half_area_width() / single.half_area_width()

        plane, ratio = contrast(params_b)

        # each in-plane island must be resolved by the grid
        step = plane.x[1] - plane.x[0]
        right = plane.x > 0.0
        island = fwhm(Curve(x=plane.x[right], y=plane.y[right]))
        assert island >= 10.0 * step, (
            f"in-plane island half-height width {island:.5f} spans only "
            f"{island / step:.1f} grid steps")

        assert ratio < 0.20, f"plane/single half-area width ratio {ratio:.3f}"

        # collinear control: no cone, no broadening by the y reduction
        collinear = SpdcParams.from_crystal(bbo, LAM_P, params_b.w_p,
                                            params_b.L, theta0=0.0)
        _, ratio0 = contrast(collinear)
        assert ratio0 > 0.5, (
            f"collinear plane/single half-area width ratio {ratio0:.3f}")
