"""Shared fixtures and independent oracles for the test suite.

Two reference configurations are used throughout: the strongly
noncollinear set (theta0 = 0.28 rad, waist and length 0.5 cm) and the
moderate set (theta0 = 0.1 rad, waist and length 0.1 cm), both at a
0.4047 um pump in BBO.  Monte-Carlo batches are session-scoped because
sampling a million pairs is the most expensive fixture.
"""

import gc
import math
import tracemalloc
from collections import namedtuple

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from biphoton import (SpdcParams, default_kappa_grid, entanglement_report,
                      f_approx, index_ordinary, load_crystal,
                      plane_restricted_curve, sample_pairs,
                      single_particle_curve)
from biphoton.crystal import index_extraordinary

MC_SEED = 20240801
Z_CM = 100.0


@pytest.fixture(scope="session")
def bbo():
    return load_crystal()


@pytest.fixture(scope="session")
def params_a(bbo):
    return SpdcParams.from_crystal(bbo, 0.4047, 0.5, 0.5, theta0=0.28)


@pytest.fixture(scope="session")
def params_b(bbo):
    return SpdcParams.from_crystal(bbo, 0.4047, 0.1, 0.1, theta0=0.1)


@pytest.fixture(scope="session")
def params_long(bbo):
    # the benchmark's long crystal: L = 10 cm, w_p = 0.05 cm, u up to 1.8e4
    return SpdcParams.from_crystal(bbo, 0.4047, 0.05, 10.0, theta0=0.28)


@pytest.fixture(scope="session")
def batch_a(params_a):
    return sample_pairs(params_a, Z_CM, 1_000_000, seed=MC_SEED)


@pytest.fixture(scope="session")
def batch_b(params_b):
    return sample_pairs(params_b, Z_CM, 1_000_000, seed=MC_SEED)


def traced_peak(fn, *args):
    """Peak bytes allocated while fn(*args) runs, numpy buffers included."""
    gc.collect()   # a fixed starting point for the cyclic collector
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def write_table_rows(path, header_lines, columns):
    """Oracle for curves.write_table: the plain writer, one "%.12e" row at a time."""
    row = " ".join(["%.12e"] * len(columns)) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        for values in zip(*columns):
            fh.write(row % values)


def collinear_cut_brentq(disp, lambda_p):
    """Oracle for the collinear cut: brentq on the scalar index difference.

    n_p(phi) - n_o(2 lambda_p), written out from the indices at each
    trial angle, never through phase_match; the bracket is the whole
    range [0, pi/2] of cut angles.
    """
    n_o = index_ordinary(disp, lambda_p)
    n_e = index_extraordinary(disp, lambda_p)
    big_n = index_ordinary(disp, 2.0 * lambda_p)

    def delta_n(phi):
        return n_o * n_e / math.hypot(n_o * math.sin(phi), n_e * math.cos(phi)) - big_n

    return brentq(delta_n, 0.0, math.pi / 2, xtol=1e-15)


def argmax_x(curve):
    """Abscissa of the curve's largest sample."""
    return float(curve.x[int(np.argmax(curve.y))])


def curve_mean(curve):
    """Mean of the curve taken as a density, trapezoid moments."""
    return float(np.trapezoid(curve.x * curve.y, curve.x)
                 / np.trapezoid(curve.y, curve.x))


def _central_moment(curve, p):
    x, y = curve.x, curve.y
    return float(np.trapezoid((x - curve_mean(curve)) ** p * y, x)
                 / np.trapezoid(y, x))


def curve_rms(curve):
    """Square root of the second central moment, curve taken as a density."""
    return math.sqrt(_central_moment(curve, 2))


def excess_kurtosis(curve):
    """Fourth standardized central moment minus 3, trapezoid moments."""
    return _central_moment(curve, 4) / _central_moment(curve, 2) ** 2 - 3.0


def fwhm(curve):
    """Total width of the region where the curve is at least half its maximum.

    Crossings are located by linear interpolation, and the lengths of all
    segments above the half-maximum level are summed, so the value stays
    meaningful for multi-peaked curves.
    """
    half = 0.5 * curve.peak()
    x, y = curve.x, curve.y
    above = y >= half
    if not above.any():
        return 0.0
    total = 0.0
    n = len(x)
    i = 0
    while i < n:
        if not above[i]:
            i += 1
            continue
        j = i
        while j + 1 < n and above[j + 1]:
            j += 1
        left = x[i]
        if i > 0:
            left = x[i - 1] + (half - y[i - 1]) * (x[i] - x[i - 1]) / (y[i] - y[i - 1])
        right = x[j]
        if j + 1 < n:
            right = x[j] + (y[j] - half) * (x[j + 1] - x[j]) / (y[j] - y[j + 1])
        total += right - left
        i = j + 1
    return float(total)


def _reference_sinc2(rng, x_max, m):
    """m rejection draws from sinc^2(x) on x <= x_max, as first written."""
    need, parts = m, []
    while need > 0:
        k = need * 4 // 3 + 64
        y = 4.0 * rng.random(k) - 2.0
        with np.errstate(divide="ignore", invalid="ignore"):
            x = np.divide(np.sign(y), 2.0 - np.abs(y), out=y, where=np.abs(y) > 1.0)
            s = np.sin(x)
        keep = (s * s >= rng.random(k) * np.minimum(1.0, x * x)) & (x <= x_max)
        parts.append(x[keep][:need])
        need -= parts[-1].size
    return np.concatenate(parts)


def reference_pairs(params, z, n, seed, block=0):
    """Bit-for-bit oracle of sample_pairs: (x1, x2, rho, phi), plainly written.

    The same draws in the same order as the package's in-place sampler:
    blocks of 2**16 pairs, block i from SeedSequence(seed, spawn_key=(i,)),
    then per block one Gaussian (px), the sinc^2 variates and the azimuths.
    """
    sigma = z * params.lambda_cm / (math.pi * math.sqrt(2.0) * params.w_p)
    four_theta_sq = 4.0 * params.theta0 ** 2
    parts = []
    for i, start in enumerate(range(0, n, 2 ** 16), start=block):
        m = min(2 ** 16, n - start)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
        px = rng.normal(0.0, sigma, m)
        x = _reference_sinc2(rng, params.sinc_scale * four_theta_sq, m)
        rho = z * np.sqrt(np.maximum(four_theta_sq - x / params.sinc_scale, 0.0))
        phi = 2.0 * math.pi * rng.random(m)
        mx = rho * np.cos(phi)
        parts.append((0.5 * (px + mx), 0.5 * (px - mx), rho, phi))
    return tuple(np.concatenate(c) for c in zip(*parts))


def pair_y(batch, params, z, seed):
    """y1, y2 for a batch, whose sampler draws no y: py from its own Gaussian
    stream with px's pump-envelope spread, and the separation's rho sin phi."""
    sigma = z * params.lambda_cm / (math.pi * math.sqrt(2.0) * params.w_p)
    py = np.random.default_rng(seed).normal(0.0, sigma, len(batch))
    my = batch.rho * np.sin(batch.phi)
    return 0.5 * (py + my), 0.5 * (py - my)


def chord_length(x, r0, delta_r):
    """Oracle of the projection law: the length the vertical line at offset x
    (cm) cuts from a uniform annulus of radius r0 and thickness delta_r, both
    crossings counted; 0 for |x| past the outer radius.

    A uniformly bright ring of that thickness scanned by a line detector
    gives the inverse-square-root law of f_approx(2 kappa), smoothed by a box
    of width delta_r.
    """
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):  # a line whose x^2 overflows misses the ring
        x2 = x * x
    outer = np.sqrt(np.maximum((r0 + 0.5 * delta_r) ** 2 - x2, 0.0))
    inner = np.sqrt(np.maximum((r0 - 0.5 * delta_r) ** 2 - x2, 0.0))
    return 2.0 * (outer - inner)


ClosedForms = namedtuple("ClosedForms", "single coincidence minus ratio regime")
_HEAD_LABELS = ("single-photon width", "coincidence width", "difference width",
                "width ratio R", "broadening regime")


def closed_forms(params):
    """Oracle for the report's five closed-form lines, in their order.

    The widths in cm^-1: single-photon, half the difference width;
    coincidence, 1/(2 w_p); difference, sqrt(2) pi theta0/lam.  Then
    R = sqrt(2) pi theta0 w_p/lam and the regime, theta0 against
    3 sqrt(lam/L) and sqrt(lam/L)/3.
    """
    lam = params.lambda_p * 1e-4
    minus = math.sqrt(2.0) * math.pi * params.theta0 / lam
    ratio = math.sqrt(2.0) * math.pi * params.theta0 * params.w_p / lam
    scale = math.sqrt(lam / params.L)
    if params.theta0 > 3.0 * scale:
        regime = "noncollinear-broadened"
    elif params.theta0 < scale / 3.0:
        regime = "collinear"
    else:
        regime = "intermediate"
    return ClosedForms(0.5 * minus, 0.5 / params.w_p, minus, ratio, regime)


def report_head(params):
    """The report's first five lines as printed, checked against
    closed_forms: each label, each number to 1e-5 relative (the report
    prints six digits) and the regime exactly.  Returns them as a
    ClosedForms."""
    grid = default_kappa_grid(params, 201)
    text = entanglement_report(params, single_particle_curve(grid, params),
                               plane_restricted_curve(grid, params))
    labels, printed = zip(*(line.split(":", 1) for line in text.splitlines()[:5]))
    assert [label.rstrip() for label in labels] == list(_HEAD_LABELS)
    printed = [value.split()[0] for value in printed]
    head = ClosedForms(*map(float, printed[:4]), printed[4])
    want = closed_forms(params)
    for value, expected in zip(head[:4], want[:4]):
        assert value == pytest.approx(expected, rel=1e-5, abs=0.0)
    assert head.regime == want.regime
    return head


def g_fresnel(u):
    """Oracle for G(u) = 2 sqrt(2 pi) Re[e^{-i pi/4} J], J = int_0^1 (1 - s^2) e^{2ius^2} ds.

    J in closed form at 50 digits: with a = 2|u|,
    F = int_0^1 e^{ias^2} ds = sqrt(pi/(2a)) (C(x) + i S(x)), x = sqrt(2a/pi),
    in mpmath's Fresnel integrals, and integrating s * s e^{ias^2} by parts,
    J = F (1 + 1/(2ia)) - e^{ia}/(2ia); u < 0 takes the conjugate.
    """
    with mpmath.workdps(50):
        u = mpmath.mpf(u)
        if u == 0:
            inner = mpmath.mpf(2) / 3
        else:
            a = 2 * abs(u)
            x = mpmath.sqrt(2 * a / mpmath.pi)
            fresnel = (mpmath.sqrt(mpmath.pi / (2 * a))
                       * (mpmath.fresnelc(x) + 1j * mpmath.fresnels(x)))
            inner = fresnel * (1 + 1 / (2j * a)) - mpmath.expj(a) / (2j * a)
            if u < 0:
                inner = mpmath.conj(inner)
        return float(2 * mpmath.sqrt(2 * mpmath.pi)
                     * mpmath.re(mpmath.expj(-mpmath.pi / 4) * inner))


def f_approx_moment_ratio(params, n_nodes=400):
    """Second moment <k^2> of the cone-interior form by singularity-free quadrature.

    The substitution kappa = 2 theta0 sin(u) cancels the edge
    singularities exactly; Gauss-Legendre in u then converges fast.
    Both moments are evaluated through f_approx itself so the check
    exercises the public formula, not a rearranged expression.
    """
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    u = 0.5 * math.pi * nodes
    w = 0.5 * math.pi * weights
    kmax = 2.0 * math.pi * params.theta0 / params.lambda_cm
    k = kmax * np.sin(u)
    jac = kmax * np.cos(u)
    fvals = f_approx(k, params)
    num = float(np.sum(k ** 2 * fvals * jac * w))
    den = float(np.sum(fvals * jac * w))
    return num / den


def f_exact_simpson(k_minus_x, params, qmax=12.0, n=1_500_001):
    """Slow oracle for the y-reduction: plain Simpson on a fine uniform q grid.

    No lobe splitting, no transformations; the grid is fine enough to
    resolve every oscillation up to qmax and the remainder beyond qmax
    is bounded by the inverse-square envelope (returned bound is
    absolute).
    """
    kappa = float(params.kappa(k_minus_x))
    c = 4.0 * params.theta0 ** 2 - kappa * kappa
    scale = params.sinc_scale
    q = np.linspace(0.0, qmax, n)
    s = np.sinc(scale * (c - q * q) / math.pi)
    vals = s * s
    h = q[1] - q[0]
    simpson = (vals[0] + vals[-1] + 4.0 * vals[1:-1:2].sum()
               + 2.0 * vals[2:-1:2].sum()) * h / 3.0
    tail_bound = 1.0 / (3.0 * scale * scale * (qmax * qmax - abs(c)) ** 1.5)
    return 2.0 * simpson, 2.0 * tail_bound


def mismatch_arg(k_minus_x, k_minus_y, params):
    """Oracle: the dimensionless sinc argument of the longitudinal phase mismatch.

    (pi L / 8 n_o lam)(4 theta0^2 - kappa-x^2 - kappa-y^2) with
    kappa = lam k / pi, from SpdcParams' fields alone.  It vanishes on the
    emission cone and is positive inside it.
    """
    lam = params.lambda_p * 1e-4
    kx, ky = lam * k_minus_x / math.pi, lam * k_minus_y / math.pi
    return (math.pi * params.L / (8.0 * params.n_o * lam)
            * (4.0 * params.theta0 ** 2 - kx * kx - ky * ky))


def psi(k1x, k2x, k1y, k2y, params):
    """Oracle: the real 4-D pair amplitude (unnormalized), elementwise over arrays.

    Its own pump Gaussian in the summed components times numpy's sinc of
    the mismatch in the difference components; it calls nothing of the
    package.
    """
    kpx, kpy = k1x + k2x, k1y + k2y
    pump = np.exp(-0.5 * params.w_p ** 2 * (kpx * kpx + kpy * kpy))
    return pump * sinc_np(mismatch_arg(k1x - k2x, k1y - k2y, params))


def density4(k1x, k2x, k1y, k2y, params):
    """Oracle: the joint density |psi|^2 (unnormalized), elementwise."""
    return psi(k1x, k2x, k1y, k2y, params) ** 2


def brute_reduced(k1x, k2x, params, outer_epsrel=3e-8):
    """Independent y-reduction: nested adaptive quadrature in the raw frame.

    Integrates density4 over (k1y, k2y) directly, never using the
    sum/difference factorization.  The inner integral runs over the
    pump-envelope support around k2y = -k1y; the outer one uses the
    evenness of the reduced integrand in k1y.
    """
    lim_t = 7.0 / params.w_p
    lim_y = 0.4 * math.pi / params.lambda_cm

    def inner(k1y):
        val, _ = quad(
            lambda k2y: density4(k1x, k2x, k1y, k2y, params),
            -k1y - lim_t, -k1y + lim_t, limit=120, epsabs=0.0, epsrel=1e-9)
        return val

    val, _ = quad(inner, 0.0, lim_y, limit=800, epsabs=0.0,
                  epsrel=outer_epsrel)
    return 2.0 * val


_GL16_NODES, _GL16_WEIGHTS = np.polynomial.legendre.leggauss(16)


def _gauss_panels(a, b, panels):
    """Nodes and weights of composite 16-node Gauss-Legendre on [a, b]."""
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    nodes = mid[:, None] + half[:, None] * _GL16_NODES
    return nodes.ravel(), (half[:, None] * _GL16_WEIGHTS).ravel()


def raw_frame_reduced(k1x, k2x, params, outer_panels=200, inner_panels=4):
    """Independent y-reduction by a fixed rule in the raw frame.

    The integral of brute_reduced, with the same limits, as composite
    16-node Gauss-Legendre panels: outer k1y on [0, 0.4 pi/lam], inner
    k2y on -k1y +- 7/w_p.  density4 is evaluated on the whole (k1y, k2y)
    grid at once; callers compare two panel counts to bound the error.
    """
    lim_t = 7.0 / params.w_p
    lim_y = 0.4 * math.pi / params.lambda_cm
    k1y, w1 = _gauss_panels(0.0, lim_y, outer_panels)
    t, w2 = _gauss_panels(-lim_t, lim_t, inner_panels)
    rho = density4(k1x, k2x, k1y[:, None], t[None, :] - k1y[:, None], params)
    return 2.0 * float(w1 @ rho @ w2)


_GL15_NODES, _GL15_WEIGHTS = np.polynomial.legendre.leggauss(15)
_GL32_NODES, _GL32_WEIGHTS = np.polynomial.legendre.leggauss(32)


def _sinc2(x):
    s = np.sinc(x / np.pi)
    return s * s


def _panel_gauss_sinc2(edges, c, scale):
    """Gauss-Legendre sum of sinc^2(scale*(c - q^2)) over consecutive panels."""
    a = edges[:-1]
    b = edges[1:]
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    q = mid[:, None] + half[:, None] * _GL15_NODES[None, :]
    vals = _sinc2(scale * (c - q * q))
    return float(np.sum(vals * _GL15_WEIGHTS[None, :], axis=1) @ half)


def _smooth_tail(c, scale, x0):
    """integral_{x0}^inf x^(-2) (c + x/scale)^(-1/2) dx, closed one-panel form.

    Substitutions x -> x0/t -> x0/s^2 remove both the infinite range and
    the square-root behavior, leaving a smooth integrand on (0, 1).
    """
    s = 0.5 * (_GL32_NODES + 1.0)
    w = 0.5 * _GL32_WEIGHTS
    integ = s * s / np.sqrt(c * scale * s * s + x0)
    return 2.0 * math.sqrt(scale) / x0 * float(integ @ w)


def _tail_beyond(c, scale, x0):
    """Tail integral_{qN}^inf sinc^2(scale*(c-q^2)) dq for x0 = scale*(qN^2-c).

    x0 must be a positive multiple of pi (a sinc zero), which kills the
    sin(2 x0) boundary terms of the integration by parts.  Returns
    (value, error_bound).
    """
    u = c + x0 / scale            # = qN^2
    w0 = 1.0 / math.sqrt(u)
    wp = -0.5 / (scale * u ** 1.5)
    wpp = 0.75 / (scale * scale * u ** 2.5)
    hp = wp / (x0 * x0) - 2.0 * w0 / x0 ** 3
    hpp = wpp / (x0 * x0) - 4.0 * wp / x0 ** 3 + 6.0 * w0 / x0 ** 4
    t1 = _smooth_tail(c, scale, x0)
    i_osc = -0.25 * hp            # sin(2 x0) = 0, cos(2 x0) = 1
    value = (0.5 * t1 - 0.5 * i_osc) / (2.0 * scale)
    bound = abs(hpp) / (16.0 * 2.0 * scale)
    return value, bound


def f_exact_panels(k_minus_x, params, rel_tol=1e-10):
    """p-space oracle for f_exact: 2 * integral_0^inf sinc^2(S (c - q^2)) dq.

    Integrates arch by arch in the original variable q: panels end at
    consecutive zeros of the sinc argument, 15-point Gauss-Legendre on
    each, and the tail beyond the last panel is closed analytically by
    two integrations by parts with a bounded remainder.  The outer panel
    count doubles until that bound is below rel_tol.  It never uses the
    triangle-Fourier form behind the package's G(u).  Far outside the
    cone (|u| ~ 1e4 at 1.5 * 2 theta0 for L = 10 cm) the tail closure
    misses rel_tol, by 1.7e-5 there.
    """
    kappa = float(params.kappa(k_minus_x))
    c = 4.0 * params.theta0 ** 2 - kappa * kappa
    scale = params.sinc_scale
    m_hi = math.floor(scale * c / math.pi)
    n_outer = 64
    for _ in range(22):
        m_lo = min(m_hi, 0) - n_outer
        ms = np.arange(m_hi, m_lo - 1, -1, dtype=float)
        edges = np.sqrt(np.maximum(c - ms * math.pi / scale, 0.0))
        edges = np.concatenate([[0.0], edges])
        keep = np.concatenate([[True], np.diff(edges) > 0.0])
        edges = edges[keep]
        body = _panel_gauss_sinc2(edges, c, scale)
        tail, half_bound = _tail_beyond(c, scale, -m_lo * math.pi)
        total = 2.0 * (body + tail)
        if half_bound * 2.0 <= 0.5 * rel_tol * abs(total):
            return total
        n_outer *= 2
    raise RuntimeError(f"panel oracle missed {rel_tol:g} at kappa = {kappa}")


def sinc_np(x):
    """Oracle for psi's sinc: numpy's sinc of the clipped argument."""
    return np.sinc(np.clip(x, -1e300, 1e300) / np.pi)


_GH64_NODES, _GH64_WEIGHTS = np.polynomial.hermite.hermgauss(64)


def plane_gh64(kappa_grid, params):
    """The in-plane curve by the plain 64-node Gauss-Hermite rule.

    integral dt e^{-t^2} sinc^2(S (4 theta0^2 - kappa_-^2)) / w_p with
    k2x = -k1x + t/w_p: exact while the sinc argument turns slowly across
    the pump Gaussian, as on the README configurations.
    """
    k1 = params.k_from_kappa(np.asarray(kappa_grid, dtype=float))
    kap = params.kappa(2.0 * k1[:, None] - (_GH64_NODES / params.w_p)[None, :])
    arg = params.sinc_scale * (4.0 * params.theta0 ** 2 - kap * kap)
    return (sinc_np(arg) ** 2 @ _GH64_WEIGHTS) / params.w_p


_GL20_NODES, _GL20_WEIGHTS = np.polynomial.legendre.leggauss(20)


def plane_sigma(kappa1, params, resolution=1):
    """Oracle for the in-plane curve at each kappa1, from a closed form in t.

    Along k2x = -k1x + t/w_p the sinc argument is u0 + a t - b t^2, with
    u0 = S (4 theta0^2 - 4 kappa1^2), a = 4 S beta kappa1, b = S beta^2
    and beta = lam/(pi w_p).  Writing sinc^2(x) = 2 Re int_0^1 (1 - s)
    e^{2ixs} ds and doing the Gaussian integral over t first,

        w_p plane = 2 sqrt(pi) Re int_0^1 (1 - s) A^{-1/2} e^{2iu0 s - a^2 s^2/A} ds,

    A = 1 + 2ibs: one smooth integral over [0, 1], with no sinc^2 arches in
    t.  Composite 20-node Gauss-Legendre, with resolution x
    (64 + (|u0| + |a|)/4 + 4b) panels so that each holds at most 4/pi turns
    of e^{2iu0 s}, spans at most 4 widths 1/|a| of the Gaussian and at most
    half the distance 1/(2b) from s = 0 to A^{-1/2}'s branch point, well
    inside what 20 nodes resolve; callers compare two resolutions to bound
    the error.
    """
    beta = params.lambda_cm / (math.pi * params.w_p)
    scale = params.sinc_scale
    b = scale * beta * beta
    out = []
    for k in np.atleast_1d(np.asarray(kappa1, dtype=float)):
        u0 = scale * (4.0 * params.theta0 ** 2 - 4.0 * k * k)
        a = 4.0 * scale * beta * k
        panels = 64 + math.ceil((abs(u0) + abs(a)) / 4.0 + 4.0 * b)
        edges = np.linspace(0.0, 1.0, resolution * panels + 1)
        half = 0.5 * np.diff(edges)[:, None]
        s = (0.5 * (edges[:-1] + edges[1:])[:, None] + half * _GL20_NODES).ravel()
        w = (half * _GL20_WEIGHTS).ravel()
        big_a = 1.0 + 2j * b * s
        f = (1.0 - s) / np.sqrt(big_a) * np.exp(2j * u0 * s - a * a * s * s / big_a)
        out.append(2.0 * math.sqrt(math.pi) * float((f @ w).real) / params.w_p)
    return np.array(out)



def plane_mp(kappa1, params):
    """Oracle for the in-plane curve where plane_sigma cannot certify it: mpmath.

    The same w_p plane = 2 sqrt(pi) Re K0 as plane_sigma, with u0 and a formed
    from the float parameters in mpmath, whose working precision keeps 18
    digits of the phase 2 u0 s.  Where the decay rate 2U, U = u0 + a^2/(4b) =
    4 S theta0^2, passes 30 the path leaves the real axis at s1 = 1/(2b): K0
    is the integral over [0, s1] and up the ray s1 + iy, less that up the ray
    1 + iy, both rays decaying like e^{-2Uy}.  The integrand is analytic
    between them (A = 1 + 2ibs stays off the negative axis), and with
    a^2 s^2/A = -i a^2 s/(2b) + c (1 - 1/A), c = (a/(2b))^2, it is bounded
    there by |A|^{-1/2}, since |A| >= 1 right of s1.  Otherwise it stays on
    [0, 1].  mpmath's adaptive Gauss-Legendre on breakpoints a factor 4 apart
    from 1/(8b), the scale of A^{-1/2}'s branch point at s = i/(2b), and at
    most 10 rad of the phase apart.
    """
    out = []
    for k in np.atleast_1d(np.asarray(kappa1, dtype=float)):
        u0_float = params.sinc_scale * abs(4.0 * params.theta0 ** 2 - 4.0 * k * k)
        with mpmath.workdps(18 + math.ceil(math.log10(1.0 + u0_float))):
            scale, w_p = mpmath.mpf(params.sinc_scale), mpmath.mpf(params.w_p)
            beta = mpmath.mpf(params.lambda_cm) / (mpmath.pi * w_p)
            u0 = scale * (4 * mpmath.mpf(params.theta0) ** 2 - 4 * mpmath.mpf(k) ** 2)
            a, b = 4 * scale * beta * abs(mpmath.mpf(k)), scale * beta * beta
            rate, c = 2 * u0 + a * a / (2 * b), (a / (2 * b)) ** 2

            def f(s):
                big_a = 1 + 2j * b * s
                return (1 - s) * mpmath.exp(2j * u0 * s - a * a * s * s / big_a) / mpmath.sqrt(big_a)

            def quad(g, start, end, *tail, turn=0):
                # breakpoints 0, then a factor 4 apart from start, each piece
                # holding at most 10 rad of e^{i turn s} and of c Im(1 - 1/A)
                pts = [mpmath.mpf(0)]
                while start < end:
                    pts.append(start)
                    start *= 4
                pts.append(end)
                pts = [x for lo, hi in zip(pts[:-1], pts[1:]) for x in mpmath.linspace(
                    lo, hi, max(1, int(mpmath.ceil((turn * (hi - lo) + min(
                        c, 2 * b * c * (hi - lo))) / 10))) + 1)[:-1]]
                return mpmath.quad(g, pts + [end, *tail], method="gauss-legendre")

            if rate < 30:
                k0 = quad(f, 1 / (8 * b), 1, turn=abs(rate))
            else:
                s1 = 1 / (2 * b)
                k0 = quad(f, 1 / (8 * b), s1, turn=rate) + 1j * (
                    quad(lambda y: f(s1 + 1j * y), min(1 / (8 * b), 1 / rate), 64 / rate,
                         mpmath.inf)
                    - quad(lambda y: f(1 + 1j * y), 1 / rate, 64 / rate, mpmath.inf))
            out.append(float(2 * mpmath.sqrt(mpmath.pi) * k0.real / w_p))
    return np.array(out)
