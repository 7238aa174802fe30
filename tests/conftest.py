"""Shared fixtures and independent oracles for the test suite.

Two reference configurations are used throughout: the strongly
noncollinear set (theta0 = 0.28 rad, waist and length 0.5 cm) and the
moderate set (theta0 = 0.1 rad, waist and length 0.1 cm), both at a
0.4047 um pump in BBO.  Monte-Carlo batches are session-scoped because
sampling a million pairs is the most expensive fixture.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from biphoton import SpdcParams, density4, load_crystal, sample_pairs

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
def batch_a(params_a):
    return sample_pairs(params_a, Z_CM, 1_000_000, seed=MC_SEED)


@pytest.fixture(scope="session")
def batch_b(params_b):
    return sample_pairs(params_b, Z_CM, 1_000_000, seed=MC_SEED)


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


def reference_pairs(params, z, n, seed, azimuth_origin=0.0, block=0):
    """Bit-for-bit oracle of sample_pairs: (x1, y1, x2, y2), plainly written.

    The same draws in the same order as the package's in-place sampler:
    blocks of 2**16 pairs, block i from SeedSequence(seed, spawn_key=(i,)),
    then per block two Gaussians, the sinc^2 variates and the azimuths.
    """
    sigma = z * params.lambda_cm / (math.pi * math.sqrt(2.0) * params.w_p)
    four_theta_sq = 4.0 * params.theta0 ** 2
    parts = []
    for i, start in enumerate(range(0, n, 2 ** 16), start=block):
        m = min(2 ** 16, n - start)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
        px, py = rng.normal(0.0, sigma, m), rng.normal(0.0, sigma, m)
        x = _reference_sinc2(rng, params.sinc_scale * four_theta_sq, m)
        rho = z * np.sqrt(np.maximum(four_theta_sq - x / params.sinc_scale, 0.0))
        phi = azimuth_origin + 2.0 * math.pi * rng.random(m)
        mx, my = rho * np.cos(phi), rho * np.sin(phi)
        parts.append((px + mx, py + my, px - mx, py - my))
    return tuple(0.5 * np.concatenate(c) for c in zip(*parts))


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
