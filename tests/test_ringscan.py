import math

import numpy as np
import pytest
from scipy.special import sici
from scipy.stats import kstest

from biphoton import (NoRingError, SpdcParams, chord_length, cli,
                      measured_coincidence_width, ring_from_params,
                      sample_pairs, scan_coincidence, scan_single,
                      single_particle_curve, width_coincidence)
from biphoton.ringscan import _BLOCK, RingGeometry, _sinc2_variates

from conftest import MC_SEED, Z_CM, reference_pairs


@pytest.fixture(scope="module")
def ring_b(params_b):
    return ring_from_params(params_b, Z_CM)


def test_ring_geometry_values(params_b, ring_b):
    assert ring_b.r0 == pytest.approx(Z_CM * params_b.theta0, rel=1e-14)
    expected_dr = Z_CM * width_coincidence(params_b) * params_b.lambda_cm / math.pi
    assert ring_b.delta_r == pytest.approx(expected_dr, rel=1e-14)
    assert ring_b.delta_r == pytest.approx(6.441001e-3, abs=1e-8)
    assert ring_b.delta_r < ring_b.r0
    assert ring_b.r_outer - ring_b.r_inner == pytest.approx(ring_b.delta_r, rel=1e-12)


def test_ring_errors(params_b):
    collinear = SpdcParams(lambda_p=0.4047, w_p=0.1, L=0.1, theta0=0.0, n_o=1.66109)
    with pytest.raises(NoRingError):
        ring_from_params(collinear, Z_CM)
    for bad_z in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            ring_from_params(params_b, bad_z)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            RingGeometry(z=Z_CM, r0=bad, delta_r=0.1)
        with pytest.raises(ValueError):
            RingGeometry(z=bad, r0=10.0, delta_r=0.1)


def test_chord_length(ring_b):
    assert chord_length(0.0, ring_b) == pytest.approx(2.0 * ring_b.delta_r, rel=1e-12)
    assert chord_length(ring_b.r_outer * 1.001, ring_b) == 0.0
    assert chord_length(-ring_b.r_outer * 1.5, ring_b) == 0.0
    # near the rim the crossing length grows to the sqrt(r0 * delta_r) scale
    edge = chord_length(ring_b.r0, ring_b)
    assert edge == pytest.approx(2.0 * math.sqrt(ring_b.r0 * ring_b.delta_r), rel=1e-3)
    assert edge > 10.0 * chord_length(0.0, ring_b)
    # vectorized call matches scalars
    xs = np.array([0.0, 1.0, ring_b.r0, ring_b.r_outer + 1.0])
    np.testing.assert_allclose(chord_length(xs, ring_b),
                               [chord_length(float(x), ring_b) for x in xs])


def test_sampling_determinism(params_b):
    a = sample_pairs(params_b, Z_CM, 2000, seed=7)
    b = sample_pairs(params_b, Z_CM, 2000, seed=7)
    assert np.array_equal(a.x1, b.x1) and np.array_equal(a.y2, b.y2)
    c = sample_pairs(params_b, Z_CM, 2000, seed=8)
    assert not np.array_equal(a.x1, c.x1)
    # each block index is its own reproducible stream
    s1 = sample_pairs(params_b, Z_CM, 2000, seed=7, block=3)
    s2 = sample_pairs(params_b, Z_CM, 2000, seed=7, block=3)
    assert np.array_equal(s1.x2, s2.x2) and np.array_equal(s1.y1, s2.y1)
    assert len(s1) == 2000
    s3 = sample_pairs(params_b, Z_CM, 2000, seed=7, block=4)
    assert not np.array_equal(s1.x2, s3.x2)
    assert not np.array_equal(a.x2, s1.x2)


@pytest.mark.parametrize("config", ["a", "b"])
def test_sampler_matches_reference_bit_for_bit(request, config):
    # the in-place sampler makes the same draws and the same arithmetic as the
    # plainly written reference; y1 and y2 are formed on first read, in any order
    params = request.getfixturevalue(f"params_{config}")
    args = (params, Z_CM, 2 * _BLOCK + 1, MC_SEED)
    ref = dict(zip(("x1", "y1", "x2", "y2"),
                   reference_pairs(*args, azimuth_origin=1.234, block=3)))
    for order in (("y1", "x1", "x2", "y2"), ("x1", "y2", "x2", "y1")):
        batch = sample_pairs(*args, azimuth_origin=1.234, block=3)
        for key in order:
            assert np.array_equal(getattr(batch, key), ref[key]), key


class _CyclicUniforms:
    """Generator stand-in: random(out=) repeats a fixed list of uniforms."""

    def __init__(self, values):
        self.values = values

    def random(self, out):
        out[:] = np.resize(self.values, out.size)
        return out


def test_sinc2_proposal_at_minus_two_is_rejected():
    # u = 0 proposes y = -2, mapped to x = -inf by a division by zero; its NaN
    # sine must reject it (u = 0 as acceptance uniform would keep any finite x)
    # without a floating-point warning.  u = 0.0625 gives x = -4, u = 0.625 x = 0.5
    out = _sinc2_variates(_CyclicUniforms([0.0, 0.0625, 0.625]), 1.0, np.empty(50))
    assert set(out.tolist()) == {-4.0, 0.5}


def test_sampling_argument_validation(params_b):
    with pytest.raises(ValueError):
        sample_pairs(params_b, Z_CM, 0, seed=1)
    with pytest.raises(ValueError):
        sample_pairs(params_b, Z_CM, 10, seed=1, block=-1)


def _sinc2_cdf(x):
    """Closed-form cumulative of sinc^2 on the real line: pi/2 + Si(2x) - sin^2(x)/x."""
    x = np.asarray(x, dtype=float)
    s2 = np.sin(x) ** 2
    return (math.pi / 2.0 + sici(2.0 * x)[0]
            - np.divide(s2, x, out=np.zeros_like(x), where=x != 0.0))


@pytest.mark.parametrize("length, theta0", [(0.1, 0.1), (0.5, 0.28), (10.0, 0.28),
                                            (0.5, 0.0)])
def test_radial_sampler_matches_sinc2_law(bbo, length, theta0):
    # x = S(4 theta0^2 - kappa^2) is sinc^2-distributed on x <= 4 S theta0^2
    params = SpdcParams.from_crystal(bbo, 0.4047, length, length, theta0=theta0)
    batch = sample_pairs(params, 1.0, 200_000, seed=MC_SEED)  # at z = 1, x1 - x2 = kappa_x
    kappa_sq = (batch.x1 - batch.x2) ** 2 + (batch.y1 - batch.y2) ** 2
    x_max = 4.0 * params.sinc_scale * theta0 ** 2
    x = params.sinc_scale * (4.0 * theta0 ** 2 - kappa_sq)
    assert np.all(x <= x_max * (1.0 + 1e-9) + 1e-9)
    total = _sinc2_cdf(x_max)
    result = kstest(x, lambda t: _sinc2_cdf(t) / total)
    assert result.pvalue > 1e-3


def test_blockwise_scans_equal_one_scan(params_b, ring_b, tmp_path):
    n = 2 * _BLOCK + 1
    whole = sample_pairs(params_b, Z_CM, n, seed=MC_SEED)
    blocks = [sample_pairs(params_b, Z_CM, m, seed=MC_SEED, block=i)
              for i, m in enumerate([_BLOCK, _BLOCK, 1])]
    for key in ("x1", "y1", "x2", "y2"):
        assert np.array_equal(getattr(whole, key),
                              np.concatenate([getattr(b, key) for b in blocks]))
    centers = Z_CM * np.linspace(-0.15, 0.15, 201)
    cpos = -ring_b.r0 + np.linspace(-0.05, 0.05, 61)
    slit = 0.5 * ring_b.delta_r
    single = sum((scan_single(b, centers) for b in blocks[1:]),
                 scan_single(blocks[0], centers))
    coinc = sum((scan_coincidence(b, ring_b.r0, slit, cpos) for b in blocks[1:]),
                scan_coincidence(blocks[0], ring_b.r0, slit, cpos))
    assert np.array_equal(single.counts, scan_single(whole, centers).counts)
    assert np.array_equal(coinc.counts,
                          scan_coincidence(whole, ring_b.r0, slit, cpos).counts)
    assert single.pairs_sampled == n and coinc.pairs_sampled == n
    assert coinc.counts.sum() > 0
    with pytest.raises(ValueError):
        scan_single(blocks[0], centers) + scan_single(blocks[1], 2.0 * centers)
    # the scan command histograms the same n pairs, block by block
    out = tmp_path / "blocks"
    assert cli.main(["scan", "--theta0", "0.1", "--out", str(out),
                     "--pairs", str(n), "--seed", str(MC_SEED)]) == 0
    assert f"pairs_sampled: {n}" in (out / "scan_single_mc.dat").read_text()
    table = np.loadtxt(out / "scan_single_mc.dat")
    np.testing.assert_array_equal(table[:, 1], scan_single(whole, table[:, 0]).counts)


def test_radial_histogram_peaks_on_ring(params_b, ring_b, batch_b):
    r = np.hypot(batch_b.x1, batch_b.y1)
    hist, edges = np.histogram(r, bins=240, range=(4.0, 16.0))
    mode = 0.5 * (edges[np.argmax(hist)] + edges[np.argmax(hist) + 1])
    assert abs(mode - ring_b.r0) < 0.2


def test_pair_anticorrelation(params_b, batch_b):
    # summed transverse momenta carry the pump-envelope spread only
    expected = Z_CM * params_b.lambda_cm / (math.pi * math.sqrt(2.0) * params_b.w_p)
    assert np.std(batch_b.x1 + batch_b.x2) == pytest.approx(expected, rel=0.03)
    assert np.std(batch_b.y1 + batch_b.y2) == pytest.approx(expected, rel=0.03)


def test_azimuth_origin_invariance(params_b):
    a = sample_pairs(params_b, Z_CM, 200_000, seed=5)
    b = sample_pairs(params_b, Z_CM, 200_000, seed=5, azimuth_origin=1.234)
    # the difference vector is rotated rigidly; the pump offset is not, so
    # agreement is statistical: radial and linear moments stay put
    ra, rb = np.hypot(a.x1, a.y1), np.hypot(b.x1, b.y1)
    assert rb.mean() == pytest.approx(ra.mean(), rel=1e-3)
    assert rb.std() == pytest.approx(ra.std(), rel=2e-2)
    assert np.std(b.x1) == pytest.approx(np.std(a.x1), rel=2e-2)
    ha, _ = np.histogram(ra, bins=60, range=(8.0, 12.0))
    hb, _ = np.histogram(rb, bins=60, range=(8.0, 12.0))
    sel = (ha + hb) > 40
    chi2 = np.sum((ha - hb)[sel] ** 2 / (ha + hb)[sel]) / sel.sum()
    assert chi2 < 1.8


def _ua(values, x):
    return values / np.trapezoid(values, x)


def test_analytic_scan_matches_projection_law(params_b, ring_b):
    kappas = np.linspace(-0.15, 0.15, 801)
    scan = scan_single(ring_b, Z_CM * kappas)
    approx_curve = single_particle_curve(kappas, params_b, exact=False)
    a = _ua(scan.counts, kappas)
    t = _ua(approx_curve.y, kappas)
    mask = np.abs(np.abs(kappas) - params_b.theta0) > 0.002
    sup = np.max(np.abs(a - t)[mask])
    assert sup <= 0.02 * t[mask].max()


def test_mc_scan_within_poisson_bands(params_b, ring_b, batch_b):
    nb = 201
    edges = np.linspace(-0.15, 0.15, nb + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    mc = scan_single(batch_b, Z_CM * centers)
    analytic = scan_single(ring_b, Z_CM * centers)
    assert np.all(mc.counts >= 0.0)
    assert mc.pairs_sampled == len(batch_b)
    # compare where the idealized annulus and the sampled law coincide
    interior = np.abs(centers) <= params_b.theta0 - 0.025
    expected = (analytic.counts / analytic.counts[interior].sum()
                * mc.counts[interior].sum())
    zscores = (mc.counts - expected)[interior] / np.sqrt(expected[interior])
    assert np.abs(zscores).max() <= 4.5
    assert np.mean(np.abs(zscores) > 3.0) <= 0.05


def test_mc_scan_symmetric_under_negation(params_b, batch_b):
    centers = np.linspace(-0.15, 0.15, 201)
    counts = scan_single(batch_b, Z_CM * centers).counts
    plus = counts[centers > 1e-4]
    minus = counts[centers < -1e-4][::-1]
    sel = (plus + minus) > 20
    chi2 = np.sum((plus - minus)[sel] ** 2 / (plus + minus)[sel]) / sel.sum()
    assert chi2 < 1.5


def test_mc_error_shrinks_as_sqrt_n(params_b, ring_b):
    centers = np.linspace(-0.15, 0.15, 201)
    analytic = scan_single(ring_b, Z_CM * centers)
    interior = np.abs(centers) <= params_b.theta0 - 0.025
    a_int = analytic.counts[interior] / analytic.counts[interior].sum()

    def mse(n):
        batch = sample_pairs(params_b, Z_CM, n, seed=7)
        m = scan_single(batch, Z_CM * centers).counts
        m_int = m[interior] / m[interior].sum()
        return np.mean((m_int - a_int) ** 2)

    ratio = mse(50_000) / mse(200_000)
    assert 2.0 < ratio < 8.0


def test_coincidence_scan(params_b, ring_b, batch_b):
    sigma_x = Z_CM * params_b.lambda_cm / (math.pi * math.sqrt(2.0) * params_b.w_p)
    positions = -ring_b.r0 + np.linspace(-6.0, 6.0, 61) * sigma_x
    scan = scan_coincidence(batch_b, ring_b.r0, 0.5 * ring_b.delta_r, positions)
    assert not scan.is_empty
    assert scan.d2_position == ring_b.r0
    # the centroid sits on -r0 within four standard errors of the histogram
    assert scan.xunit == "cm"
    centroid, rms = scan.mean(), scan.rms_width()
    assert abs(centroid + ring_b.r0) <= 4.0 * rms / math.sqrt(scan.y.sum())
    # measured width in the reciprocal-waist convention, 10% at this pair count
    width_k = rms / math.sqrt(2.0) * math.pi / (Z_CM * params_b.lambda_cm)
    assert abs(width_k / width_coincidence(params_b) - 1.0) < 0.10


def test_plane_scan_has_no_momentum_width(params_b, ring_b, batch_b):
    positions = -ring_b.r0 + np.linspace(-0.05, 0.05, 61)
    scan = scan_coincidence(batch_b, ring_b.r0, 0.5 * ring_b.delta_r, positions)
    with pytest.raises(ValueError, match="cm"):
        measured_coincidence_width(scan)


def test_coincidence_empty_is_flagged(params_b, ring_b, batch_b):
    positions = np.linspace(-11.0, -9.0, 21)
    scan = scan_coincidence(batch_b, ring_b.r0 + 5.0, 0.5 * ring_b.delta_r,
                            positions)
    assert scan.is_empty
    assert np.all(scan.counts == 0.0)
    with pytest.raises(ValueError):
        scan_coincidence(batch_b, ring_b.r0, 0.0, positions)


def test_scan_input_validation(params_b, ring_b, batch_b):
    with pytest.raises(ValueError):
        scan_single(batch_b, np.array([0.0, 1.0, 3.0]))  # nonuniform
    with pytest.raises(TypeError):
        scan_single(object(), np.linspace(-1, 1, 11))


def test_scan_result_io(tmp_path, params_b, ring_b):
    batch = sample_pairs(params_b, Z_CM, 50_000, seed=MC_SEED)
    centers = np.linspace(-0.15, 0.15, 101)
    scan = scan_single(batch, Z_CM * centers)
    path = tmp_path / "scan.dat"
    scan.write(path)
    text = path.read_text()
    assert f"seed: {MC_SEED}" in text
    assert "pairs_sampled: 50000" in text
    assert "mode: single-mc" in text
    data = np.loadtxt(path)
    assert data.shape == (101, 2)
    np.testing.assert_allclose(data[:, 1], scan.counts)
    # byte-identical rewrite
    path2 = tmp_path / "scan2.dat"
    scan_single(batch, Z_CM * centers).write(path2)
    assert path.read_bytes() == path2.read_bytes()
