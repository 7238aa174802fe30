"""Reduced pair distributions, widths and the entanglement ratio.

Integrating the 4-D joint density over both photons' y components
leaves a product of a Gaussian in the summed x momenta and a function
of the difference momentum alone,

    f_exact(k-x) = integral dq  sinc^2[ S * (4 theta0^2 - kappa^2 - q^2) ],

with kappa = lam*k-x/pi, q the dimensionless y-difference variable and
S = pi*L/(8 n_o lam) a large gain (10^2..10^4 for cm-scale crystals).
Substituting q = p/sqrt(S) makes this one universal function of one
variable, the same for every crystal, waist and length:

    f_exact = G(u)/sqrt(S),   u = S (4 theta0^2 - kappa^2),
    G(u) = 2 integral_0^inf sinc^2(u - p^2) dp
         = 2 sqrt(2 pi) Re[ e^{-i pi/4} integral_0^1 (1 - s^2) e^{2 i u s^2} ds ],

the second form from writing sinc^2 as the Fourier transform of the
triangle 1 - |t| and doing the integral over p first; what is left is
a Fresnel integral (Abramowitz & Stegun 7.3).  Below |u| = 16 a fixed
Gauss-Legendre rule on [0, 1] evaluates it.  From there on the
s-integral splits into the stationary point s = 0, in closed form
(exactly pi/sqrt(u) of G for u > 0, pi/(4 |u|^(3/2)) for u < 0), and
the endpoint s = 1, whose integral along the steepest-descent path
s^2 = 1 + i t/(2|u|) is smooth and decays like e^{-t}; its asymptotic
series in i/(2|u|), 30 terms by Horner's rule, has a remainder
rigorously bounded by the first term left out (1.4e-15 absolute in G
at |u| = 16, less beyond).  Negative u is the complex conjugate.  G is
accurate to _G_REL_ERR in relative terms for every |u| up to the 2e8
the model's domain reaches.  That accuracy is stated, not requested: no
function here takes a tolerance, and the command line compares a
requested --rel-tol with it once.

The in-plane curve is one kernel K0(u0; a, b), stated above its function, on
bands like G's: a fixed Gauss-Legendre rule near the cone edge, one node family
in sqrt(b s) for the points there of a pump that diffracts within the crystal,
and the endpoint expansions in i/(2 u0) elsewhere.  The quadrature kernels (G's
and K0's Gauss-Legendre and large-b bands, K0's Gauss-Laguerre rule) fill a
preallocated result at most _ROWS grid points at a time, in cache: their node
matrices stay a fixed few MB at most, and memory grows only with the output
columns.  The series bands have no node matrix and go _SERIES_ROWS points at a
time, which spreads numpy's per-call overhead.  Every point's nodes, arithmetic
and reduction order are those of an unchunked evaluation, so f_exact and the
in-plane curve are bitwise the same wherever the chunks split.

Because the gain is large, sinc^2 acts nearly like a delta function of
its argument, giving the closed-form cone-interior approximation
f_approx = 8 n_o lam / (L sqrt(4 theta0^2 - kappa^2)) with integrable
inverse-square-root singularities at kappa = +-2 theta0.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .curves import Curve
from .wavefunction import pump_envelope

__all__ = [
    "f_exact",
    "f_approx",
    "entanglement_report",
    "reduced_bipartite",
    "default_kappa_grid",
    "single_particle_curve",
    "coincidence_curve",
    "plane_restricted_curve",
]

# G(u) takes one of two branches by |u|:
#   |u| < _SERIES_SWITCH: Gauss-Legendre in s, _S_NODES nodes;
#   from _SERIES_SWITCH on, the stationary point in closed form plus the
#   endpoint term e^{2iv}/(8 v^2) I(v), v = |u|, with
#       I(v) = int_0^inf t e^{-t} (1 + i t/(2v))^(-1/2) dt
#   by its asymptotic series sum_{k<K} a_k (i/(2v))^k, a_k = binom(-1/2, k) (k+1)!,
#   K = _SERIES_TERMS.  As |1 + iy| >= 1 for real y, the Taylor remainder of
#   (1 + iy)^(-1/2) is at most its next term, so |I - series| <= |a_K|/(2v)^K
#   and G moves by at most 2 sqrt(2 pi)/(8 v^2) times that: 1.4e-15 at
#   v = 16, K = 30, which is 1.1e-13 of G(-16), the smallest G there.
# Against mpmath's Fresnel integrals on 45 points from 0 to +-2e8, the
# worst relative error is 1.2e-13 (u = -12, Gauss-Legendre);
# _G_REL_ERR keeps a margin above that.
_SERIES_SWITCH = 16.0
_SERIES_TERMS = 30
_G_REL_ERR = 1e-12
# numpy's leggauss(56) on [-1, 1] as round-trip literals, so that import loads no
# numpy.polynomial and starts no LAPACK (a test pins them bit for bit): the 28
# positive (node, weight) pairs, mirrored as leggauss symmetrizes, mapped to [0, 1].
_S_NODES, _S_WEIGHTS = np.array([
    0.02779703528727544, 0.05557974630651438, 0.08330518682243537, 0.0554079525032451,
    0.13855584681037625, 0.05506489590176235, 0.19337823863527526, 0.05455163687088942,
    0.24760290943433721, 0.05386976186571443, 0.3010622538672207, 0.053021378524010704,
    0.3535910321749545, 0.05200910915174136, 0.40502688092709127, 0.050836082617798435,
    0.4552108148784596, 0.04950592468304754, 0.5039877183843817, 0.04802274679360021,
    0.5512068248555346, 0.046391133373001874, 0.5967221827706634, 0.04461612765269215,
    0.6403931068070069, 0.04270321608466702, 0.6820846126944704, 0.040658311384744704,
    0.7216678344501881, 0.03848773425924778, 0.7590204227051289, 0.0361981938723151,
    0.7940269228938664, 0.03379676711561189, 0.8265791321428817, 0.03129087674731017,
    0.8565764337627486, 0.02868826847382286, 0.8839261083278276, 0.025996987058392027,
    0.9085436204206555, 0.023225351562565253, 0.9303528802474963, 0.020381929882402214,
    0.9492864795619627, 0.017475512911400717, 0.9652859019054901, 0.014515089278021987,
    0.9783017091402564, 0.01150982434038326, 0.9882937155401615, 0.008469063163307663,
    0.9952312260810697, 0.005402522246015044, 0.9990943438014656, 0.002323855375774208,
]).reshape(28, 2).T
_S_NODES = 0.5 * (np.concatenate([-_S_NODES[::-1], _S_NODES]) + 1.0)
_S_WEIGHTS = 0.5 * np.concatenate([_S_WEIGHTS[::-1], _S_WEIGHTS])
_ROOT_2PI = math.sqrt(2.0 * math.pi)
# the series as I = P(w^2) + i w Q(w^2), w = 1/(2v): a_k i^k for even k
# and a_k i^(k-1) for odd k, the coefficients of P and Q highest power first
_SERIES_A = [(-1) ** (k + k // 2) * math.comb(2 * k, k) * math.factorial(k + 1) / 4 ** k
             for k in range(_SERIES_TERMS)]
_SERIES_P, _SERIES_Q = _SERIES_A[0::2][::-1], _SERIES_A[1::2][::-1]

_ROWS = 256
_SERIES_ROWS = 16 * _ROWS


def _row_slices(n, size):
    """Slices of at most size consecutive points covering range(n)."""
    return (slice(start, start + size) for start in range(0, n, size))


def _g_of_u(u):
    """G(u) = 2 integral_0^inf sinc^2(u - p^2) dp, elementwise over an array of u."""
    u = np.asarray(u, dtype=float)
    flat = u.ravel()
    g = np.empty(flat.shape)
    for block in _row_slices(flat.size, _SERIES_ROWS):
        u_b, g_b = flat[block], g[block]
        series = np.abs(u_b) >= _SERIES_SWITCH
        g_b[series] = _g_far(u_b[series])
        near = np.flatnonzero(~series)
        for rows in _row_slices(near.size, _ROWS):
            g_b[near[rows]] = _g_near(u_b[near[rows]])
    return g.reshape(u.shape)[()]


def _g_near(u):
    """G over a 1-D array u of at most _ROWS points below _SERIES_SWITCH."""
    s2 = _S_NODES * _S_NODES
    # summed along each row, never by a matmul, whose order can follow the row count
    inner = np.sum(np.exp(2j * u[:, None] * s2) * ((1.0 - s2) * _S_WEIGHTS), axis=1)
    return 2.0 * _ROOT_2PI * (np.exp(-0.25j * math.pi) * inner).real


def _g_far(u):
    """G from _SERIES_SWITCH on; 8 u^2 is finite up to |u| ~ 4.7e153."""
    v = np.abs(u)
    positive = u > 0.0
    # I(v) by its series: np.polyval's Horner steps in w^2 for P and Q, in place
    w = 0.5 / v
    x = w * w
    p, q = np.full(x.shape, _SERIES_P[0]), np.full(x.shape, _SERIES_Q[0])
    for cp, cq in zip(_SERIES_P[1:], _SERIES_Q[1:], strict=True):
        p *= x
        p += cp
        q *= x
        q += cq
    series = p + 1j * (w * q)
    # endpoint term, v = |u|: E(v) = e^{2iv}/(8 v^2) I(v);
    # u < 0 takes conj(E), and Re[e^{-i pi/4} conj(E)] = Re[e^{i pi/4} E]
    end = np.exp(2j * v) / (8.0 * v * v) * series
    stationary = np.where(positive, math.pi / np.sqrt(v), 0.25 * math.pi / v ** 1.5)
    turn = np.exp(np.where(positive, -0.25j, 0.25j) * math.pi)
    return stationary - 2.0 * _ROOT_2PI * (turn * end).real


def f_exact(k_minus_x, params):
    """Reduced difference-momentum distribution G(u)/sqrt(S), elementwise.

    k_minus_x in cm^-1, a number or an array; the result is the
    dimensionless q-integral of the squared mismatch sinc, even in its
    argument, accurate to _G_REL_ERR (1e-12) in relative terms for |u| < 2e8.
    """
    kappa = params.kappa(k_minus_x)
    c = 4.0 * params.theta0 ** 2 - kappa * kappa
    scale = params.sinc_scale
    return _g_of_u(scale * c) / math.sqrt(scale)


def f_approx(k_minus_x, params):
    """Cone-interior closed form 8 n_o lam/(L sqrt(4 theta0^2 - kappa^2)), elementwise.

    Returns 0 outside the open support interval and +inf exactly at the
    edges (the singularity is integrable; callers integrating across it
    must transform it away).
    """
    kappa = params.kappa(k_minus_x)
    c = 4.0 * params.theta0 ** 2 - kappa * kappa
    with np.errstate(divide="ignore"):
        value = 8.0 * params.n_o * params.lambda_cm / (
            params.L * np.sqrt(np.maximum(c, 0.0)))
    return np.where(c < 0.0, 0.0, value)[()]


def entanglement_report(params, single, plane):
    """Widths, ratio R and regime as text lines, then the half-area widths
    of the single-particle and in-plane curves and their ratio.

    Widths follow the conventions used for the closed-form results: the
    difference-momentum width is sqrt(2) pi theta0 / lam, the single-photon
    width is half of it, and the conditional (coincidence) width is
    1/(2 w_p); their ratio R = sqrt(2) pi theta0 w_p / lam quantifies the
    entanglement.  The Gaussian conditional curve's plain standard deviation
    is 1/(sqrt(2) w_p): the quoted 1/(2 w_p), the reciprocal-waist
    convention, is a factor sqrt(2) below it.  The regime compares theta0
    with sqrt(lam/L) by a symmetric factor 3: noncollinear-broadened above
    three times it, collinear below a third of it, intermediate between.
    """
    w_minus = math.sqrt(2.0) * math.pi * params.theta0 / params.lambda_cm
    ratio = math.sqrt(2.0) * math.pi * params.theta0 * params.w_p / params.lambda_cm
    crystal_scale = math.sqrt(params.lambda_cm / params.L)
    if params.theta0 > 3.0 * crystal_scale:
        regime = "noncollinear-broadened"
    elif params.theta0 < crystal_scale / 3.0:
        regime = "collinear"
    else:
        regime = "intermediate"
    w_single, w_plane = single.half_area_width(), plane.half_area_width()
    lines = [
        f"single-photon width   : {0.5 * w_minus:.6g} cm^-1",
        f"coincidence width     : {0.5 / params.w_p:.6g} cm^-1",
        f"difference width      : {w_minus:.6g} cm^-1",
        f"width ratio R         : {ratio:.6g}",
        f"broadening regime     : {regime}",
        f"single half-area width: {w_single:.6g} (kappa axis)",
        f"plane half-area width : {w_plane:.6g} (kappa axis)",
        f"plane/single ratio    : {w_plane / w_single:.6g}",
    ]
    return "\n".join(lines) + "\n"


def reduced_bipartite(k1x, k2x, params):
    """y-reduced joint density exp(-w_p^2 (k1x+k2x)^2) * f_exact(k1x-k2x).

    Elementwise over arrays of k1x and k2x.
    """
    return pump_envelope(k1x + k2x, params) ** 2 * f_exact(k1x - k2x, params)


def default_kappa_grid(params, n=2001):
    """Uniform dimensionless grid covering both the cone and the collinear scale."""
    span = 1.5 * max(2.0 * params.theta0, math.sqrt(params.lambda_cm / params.L))
    return np.linspace(-span, span, n)


def single_particle_curve(kappa_grid, params):
    """Marginal momentum distribution of one photon: F(2 k1x) over the grid.

    F is the exact reduction f_exact; its cone-interior closed form is
    f_approx(2 k1x).
    """
    vals = f_exact(2.0 * params.k_from_kappa(kappa_grid), params)
    return Curve(x=kappa_grid, y=vals)


def coincidence_curve(k2x_fixed, params):
    """Conditional distribution of k1x at fixed k2x: reduced_bipartite(k1x, k2x).

    Peaks near k1x = -k2x; the grid holds 501 points six Gaussian widths
    each way of it.  For |k2x| < pi/lambda_p and w_p <= 1 cm its points lie
    at least 1e-7 apart in kappa.
    """
    center = -float(params.kappa(k2x_fixed))
    sigma = params.lambda_cm / (math.pi * math.sqrt(2.0) * params.w_p)
    kappa_grid = np.linspace(center - 6.0 * sigma, center + 6.0 * sigma, 501)
    vals = reduced_bipartite(params.k_from_kappa(kappa_grid), k2x_fixed, params)
    return Curve(x=kappa_grid, y=vals)


# In-plane curve: e^{-t^2} sinc^2(u0 + a t - b t^2) over t, k2x = -k1x + t/w_p, with
#     u0 = S (4 theta0^2 - 4 kappa1^2),  a = 4 S beta kappa1,  b = S beta^2,
# beta = lam/(pi w_p).  As sinc^2(x) = 2 Re int_0^1 (1 - s) e^{2ixs} ds,
# w_p plane = 2 sqrt(pi) Re K0, with
#     K0 = int_0^1 (1 - s) h(s) e^{2iu0 s} ds,  h = A^{-1/2} e^{-a^2 s^2/A},  A = 1 + 2ibs.
# Each grid point takes one of four bands.
#   Near band, |u0| < max(_K0_MID_A a, _K0_MID_B b, _K0_MID_U): G's 56-node rule on
#   each half of [0, s_max], s_max = min(1, T/sqrt(a^2 - 4 b^2 T^2)), T = _K0_T, past
#   which |h| < e^{-T^2}.  A^{-1/2} branches at s = i/(2b), so the rule holds while
#   b s_max <= _K0_NEAR_B.
#   Large-b band, the near band's points past that.  With tau = 2bs, zeta = i tau/A,
#   c = (a/(2b))^2 and nu = (u0 + a^2/(4b))/b = (2 theta0/beta)^2, one value a curve,
#       K0 = int_0^{2b} (2b - tau) A^{-1/2} e^{i nu tau - c zeta} dtau / (4 b^2),  Re zeta >= 0:
#   one node family per curve (here c < 50.07, nu < 191), G's rule in q = sqrt(tau) on
#   [0, 1], [1, 4], [4, 16] ... each holding at most _K0_PHASE rad of nu q^2 up to tau_c =
#   min(2b, max(_K0_PHASE/nu, _K0_RAY_MIN)), then laggauss(10) in nu y up the rays tau_c + iy
#   and 2b + iy.  At most 412 nodes a point (b < 5e6); more only where nu < _K0_PHASE/2b.
#   Far band: the endpoint expansions in i/(2 u0), as in _g_far.  Along s = e + ixt,
#   x = 1/(2 u0), end e is h(e) q^2 J0(g q, r q^2), with g = 2bx/A, r = (ax)^2/A^3
#   (A at e), q = 1/(1 + 2i a^2 x e (1 + ibe)/A^2) and
#       J0(g, r) = int_0^inf t e^{-t} (1 - gt)^{-1/2} e^{r t^2/(1 - gt)} dt,
#   so Re K0 = x^2 Re[J0(2bx, (ax)^2) - e^{2iu0} (end 1)], end 1 kept where
#   |h(1)| > e^{-_K0_END}.  J0 is laggauss(10), exact to order 18 in t; from
#   |u0| >= max(_K0_FAR_A a, _K0_FAR_B b) on (|g| < 1.1e-5, |r| < 2.9e-5) it is its
#   series' terms C_ij g^i r^j, C_ij = (j + 1/2)_i (i + 2j + 1)!/(i! j!), i <= 2 and
#   i + 2j <= 6, the rest under 3e-14.
# Worst error of the other bands against composite Gauss-Legendre (a to 1000, every
# switch): 6e-14 of the peak; the large-b band's against mpmath, on 838 points with b
# from 0.81 to 2.3e6, nu from 0 to 189 and c from 0 to 50.06: 1.7e-14 of the peak.
_K0_T = 6.0
_K0_END = 40.0
_K0_NEAR_B = 0.8
_K0_PHASE = 100.0
_K0_RAY_MIN = 3.0
_K0_MID_A = 10.0
_K0_MID_B = 100.0
_K0_MID_U = 0.25
_K0_FAR_A = 100.0
_K0_FAR_B = 1e5
_K0_PEAK_ERR = 1e-12
_LAG_NODES, _LAG_WEIGHTS = np.array([   # numpy's laggauss(10), pinned bit for bit
    0.1377934705404926, 0.3084411157650173, 0.729454549503171, 0.4011199291552761,
    1.8083429017403159, 0.2180682876118096, 3.4014336978548996, 0.062087456098677773,
    5.552496140063804, 0.0095015169751811, 8.330152746764497, 0.0007530083885875384,
    11.843785837900066, 2.8259233495995642e-05, 16.279257831378104, 4.249313984962698e-07,
    21.99658581198076, 1.839564823979633e-09, 29.92069701227389, 9.91182721960906e-13,
]).reshape(10, 2).T
_NEAR_NODES = 0.5 * np.concatenate([_S_NODES, 1.0 + _S_NODES])
_NEAR_WEIGHTS = 0.5 * np.concatenate([_S_WEIGHTS, _S_WEIGHTS])


def _j0_rule(g, r):
    d = 1.0 - g[:, None] * _LAG_NODES
    return np.sum(np.exp(r[:, None] * _LAG_NODES ** 2 / d) / np.sqrt(d)
                  * (_LAG_NODES * _LAG_WEIGHTS), axis=1)


def _j0_series(g, r):
    return (1.0 + g * (1.0 + 2.25 * g) + r * (6.0 + g * (36.0 + 225.0 * g)
            + r * (60.0 + g * (900.0 + 11025.0 * g) + 840.0 * r)))


def _k0_far(u0, a, b, j0):
    x = 0.5 / u0
    total = j0(2.0 * b * x, (a * x) ** 2)
    end = np.flatnonzero(a * a < _K0_END * (1.0 + 4.0 * b * b))
    x1, a2, inv = x[end], a[end] ** 2, 1.0 / (1.0 + 2j * b)   # 1/A at s = 1
    q = 1.0 / (1.0 + (2j * (1.0 + 1j * b) * inv * inv) * (a2 * x1))
    e1 = q * q * j0((2.0 * b * inv) * (x1 * q), (a2 * inv ** 3) * (x1 * q) ** 2)
    log_h = 0.5 * cmath.log(inv)   # Re[e^{2iu0} h(1) e1] by modulus and phase
    phase = 2.0 * u0[end] - a2 * inv.imag + log_h.imag
    total[end] -= np.exp(log_h.real - a2 * inv.real) * (
        np.cos(phase) * e1.real - np.sin(phase) * e1.imag)
    return x * x * total


def _k0_span(a, b):
    """s_max = min(1, T/sqrt(a^2 - 4 b^2 T^2)), past which |h| < e^{-T^2}."""
    return _K0_T / np.sqrt(np.maximum(a * a - 4.0 * (b * _K0_T) ** 2, _K0_T ** 2))


def _k0_band(u0, a, b):
    """Each point's band: 2 large-b, 1 near, 0 far by laggauss and -1 by the series."""
    band = np.where(_k0_span(a, b) * (b / _K0_NEAR_B) > 1.0, 2.0, 1.0)
    for k_a, k_b, far in ((_K0_MID_A, _K0_MID_B, 0.0), (_K0_FAR_A, _K0_FAR_B, -1.0)):
        band[np.abs(u0) >= np.maximum(k_a * a, max(k_b * b, _K0_MID_U))] = far
    return band


def _k0_near(u0, a, b):
    s_max = _k0_span(a, b)
    s = s_max[:, None] * _NEAR_NODES
    big_a = 1.0 + 2j * b * s
    f = np.exp(2j * u0[:, None] * s - (a[:, None] * s) ** 2 / big_a) / np.sqrt(big_a)
    return s_max * np.sum((1.0 - s) * f.real * _NEAR_WEIGHTS, axis=1)


def _k0_wide_rule(nu, b):
    """The large-b band's nodes zeta_j and weights w_j: K0 = sum_j w_j e^{-c zeta_j}."""
    tau_c = min(2.0 * b, max(_K0_PHASE / nu, _K0_RAY_MIN)) if nu > 0.0 else 2.0 * b
    edges = [0.0, *4.0 ** np.arange(math.ceil(math.log(tau_c, 16.0))), math.sqrt(tau_c)]
    cuts = np.concatenate([np.linspace(q0, q1, math.ceil(nu * (q1 * q1 - q0 * q0) / _K0_PHASE)
                                       or 1, endpoint=False)
                           for q0, q1 in zip(edges[:-1], edges[1:])] + [edges[-1:]])
    width = np.diff(cuts)[:, None]
    q = (cuts[:-1, None] + width * _S_NODES).ravel()
    tau, d_tau = q * q + 0j, 2.0 * q * (width * _S_WEIGHTS).ravel() + 0j
    if tau_c < 2.0 * b:   # laggauss's weight e^{-t} is e^{i nu tau}'s decay up each ray
        up, ray = 1j / nu * _LAG_NODES, 1j / nu * _LAG_WEIGHTS * np.exp(_LAG_NODES)
        tau = np.concatenate([tau, tau_c + up, 2.0 * b + up])
        d_tau = np.concatenate([d_tau, ray, -ray])
    big_a = 1.0 + 1j * tau
    weights = d_tau * (2.0 * b - tau) * np.exp(1j * nu * tau) / np.sqrt(big_a) / (4.0 * b * b)
    return 1j * tau / big_a, weights


def plane_restricted_curve(kappa_grid, params):
    """Distribution obtained when only in-plane photons are counted.

    integral dk2x |psi(k1x, k2x, 0, 0)|^2 on a 1-D grid, 2 sqrt(pi) Re K0/w_p
    above, to _K0_PEAK_ERR (1e-12) of the peak anywhere in the model's domain.
    The curve is two islands at kappa = +-theta0, each about 2.78/(8 S theta0)
    wide at half height: its half-area set is far smaller than the single-photon
    marginal's, its rms width (~theta0, the island separation) is not.
    """
    kappa_grid = np.asarray(kappa_grid, dtype=float)
    beta = params.lambda_cm / (math.pi * params.w_p)
    b = params.sinc_scale * beta * beta
    u0 = params.sinc_scale * (4.0 * params.theta0 ** 2 - 4.0 * kappa_grid * kappa_grid)
    per_kappa = 4.0 * params.sinc_scale * beta   # a = per_kappa |kappa1|, by chunk
    band = _k0_band(u0, per_kappa * np.abs(kappa_grid), b)
    vals = np.empty(u0.shape)
    for m in (-1.0, 0.0, 1.0, 2.0):
        points = np.flatnonzero(band == m)
        if m > 1.0 and points.size:
            zeta, weights = _k0_wide_rule((2.0 * params.theta0 / beta) ** 2, b)
        for rows in _row_slices(points.size, _SERIES_ROWS if m < 0.0 else _ROWS):
            p = points[rows]
            a = per_kappa * np.abs(kappa_grid[p])
            if m > 1.0:
                c = (a / (2.0 * b)) ** 2
                vals[p] = np.sum((weights * np.exp(-c[:, None] * zeta)).real, axis=1)
            else:
                vals[p] = (_k0_near(u0[p], a, b) if m > 0.0 else
                           _k0_far(u0[p], a, b, _j0_series if m else _j0_rule))
    return Curve(x=kappa_grid, y=vals * (2.0 * math.sqrt(math.pi) / params.w_p))
