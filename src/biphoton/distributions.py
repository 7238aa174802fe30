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
a Fresnel integral (Abramowitz & Stegun 7.3).  For |u| up to a few
oscillations a fixed Gauss-Legendre rule on [0, 1] evaluates it.
Beyond that the s-integral splits into the stationary point s = 0, in
closed form (exactly pi/sqrt(u) of G for u > 0, pi/(4 |u|^(3/2)) for
u < 0), and the endpoint s = 1, whose integral along the steepest-descent
path s^2 = 1 + i t/(2|u|) is smooth and decays like e^{-t}, so a fixed
Gauss-Laguerre rule takes it.  Negative u is the complex conjugate.
G is accurate to _G_REL_ERR in relative terms for every real u.  That
accuracy is stated, not requested: no function here takes a tolerance,
and the command line compares a requested --rel-tol with it once.

Because the gain is large, sinc^2 acts nearly like a delta function of
its argument, giving the closed-form cone-interior approximation
f_approx = 8 n_o lam / (L sqrt(4 theta0^2 - kappa^2)) with integrable
inverse-square-root singularities at kappa = +-2 theta0.

Widths follow the conventions used for the closed-form results: the
difference-momentum width is sqrt(2) pi theta0 / lam, the single-photon
width is half of it, and the conditional (coincidence) width is
1/(2 w_p); their ratio R = sqrt(2) pi theta0 w_p / lam quantifies the
entanglement.  Note that for the Gaussian conditional curve the plain
standard deviation is 1/(sqrt(2) w_p); the quoted 1/(2 w_p) is the
reciprocal-waist convention, a factor sqrt(2) below the standard
deviation.  measured_coincidence_width() applies that conversion when
estimating the width from a sampled curve so that measured and
closed-form values agree.
"""

from __future__ import annotations

import math

import numpy as np

from .curves import Curve
from .wavefunction import pump_envelope, sinc

__all__ = [
    "f_exact",
    "f_approx",
    "width_minus",
    "width_single",
    "width_coincidence",
    "entanglement_ratio",
    "classify_regime",
    "entanglement_report",
    "reduced_bipartite",
    "default_kappa_grid",
    "single_particle_curve",
    "coincidence_curve",
    "plane_restricted_curve",
    "f_approx_moment_ratio",
    "measured_coincidence_width",
    "REGIME_NONCOLLINEAR",
    "REGIME_INTERMEDIATE",
    "REGIME_COLLINEAR",
]

REGIME_NONCOLLINEAR = "noncollinear-broadened"
REGIME_INTERMEDIATE = "intermediate"
REGIME_COLLINEAR = "collinear"

# Regime thresholds: theta0 vs sqrt(lam/L) with a symmetric factor 3.
REGIME_FACTOR = 3.0

# G(u): Gauss-Legendre in s for |u| <= _G_SWITCH, stationary point plus
# steepest-descent endpoint integral beyond.  Measured against mpmath's
# Fresnel integrals, the worst relative error is below 1e-13 for every u;
# _G_REL_ERR keeps a margin above that.
_G_SWITCH = 6.0
_G_REL_ERR = 1e-12
_S_NODES, _S_WEIGHTS = np.polynomial.legendre.leggauss(32)
_S_NODES, _S_WEIGHTS = 0.5 * (_S_NODES + 1.0), 0.5 * _S_WEIGHTS
_T_NODES, _T_WEIGHTS = np.polynomial.laguerre.laggauss(48)
_ROOT_2PI = math.sqrt(2.0 * math.pi)


def _g_of_u(u):
    """G(u) = 2 integral_0^inf sinc^2(u - p^2) dp, elementwise over an array of u."""
    u = np.asarray(u, dtype=float)
    flat = u.ravel()
    g = np.empty(flat.shape)
    near = np.abs(flat) <= _G_SWITCH
    s2 = _S_NODES * _S_NODES
    inner = np.sum(np.exp(2j * flat[near, None] * s2) * ((1.0 - s2) * _S_WEIGHTS),
                   axis=1)
    g[near] = 2.0 * _ROOT_2PI * (np.exp(-0.25j * math.pi) * inner).real

    v = np.abs(flat[~near])
    positive = flat[~near] > 0.0
    # endpoint term, v = |u|:
    #   E(v) = e^{2iv}/(8 v^2) int_0^inf t e^{-t} (1 + i t/(2v))^(-1/2) dt;
    # u < 0 takes conj(E), and Re[e^{-i pi/4} conj(E)] = Re[e^{i pi/4} E]
    path = np.sum(_T_NODES * _T_WEIGHTS
                  / np.sqrt(1.0 + 0.5j * _T_NODES / v[:, None]), axis=1)
    end = np.exp(2j * v) / (8.0 * v * v) * path
    turn = np.exp(np.where(positive, -0.25j, 0.25j) * math.pi)
    stationary = np.where(positive, math.pi / np.sqrt(v), 0.25 * math.pi / v ** 1.5)
    g[~near] = stationary - 2.0 * _ROOT_2PI * (turn * end).real
    return g.reshape(u.shape)[()]


def f_exact(k_minus_x, params):
    """Reduced difference-momentum distribution G(u)/sqrt(S), elementwise.

    k_minus_x in cm^-1, a number or an array; the result is the
    dimensionless q-integral of the squared mismatch sinc, even in its
    argument, accurate to _G_REL_ERR (1e-12) in relative terms everywhere.
    """
    kappa = params.kappa(k_minus_x)
    c = 4.0 * params.theta0 ** 2 - kappa * kappa
    scale = params.sinc_scale
    return _g_of_u(scale * c) / math.sqrt(scale)


def f_approx(k_minus_x, params):
    """Cone-interior closed form 8 n_o lam/(L sqrt(4 theta0^2 - kappa^2)), elementwise.

    Returns 0 outside the open support interval and +inf exactly at the
    edges (the singularity is integrable; callers integrating across it
    must transform it away, as f_approx_moment_ratio does).
    """
    kappa = params.kappa(k_minus_x)
    c = 4.0 * params.theta0 ** 2 - kappa * kappa
    with np.errstate(divide="ignore"):
        value = 8.0 * params.n_o * params.lambda_cm / (
            params.L * np.sqrt(np.maximum(c, 0.0)))
    return np.where(c < 0.0, 0.0, value)[()]


def width_minus(params):
    """Width of the difference-momentum distribution, sqrt(2) pi theta0/lam, cm^-1."""
    return math.sqrt(2.0) * math.pi * params.theta0 / params.lambda_cm


def width_single(params):
    """Single-photon momentum width, half the difference width, cm^-1."""
    return 0.5 * width_minus(params)


def width_coincidence(params):
    """Conditional (coincidence) width 1/(2 w_p), cm^-1 (reciprocal-waist convention)."""
    return 0.5 / params.w_p


def entanglement_ratio(params):
    """R = single width / coincidence width = sqrt(2) pi theta0 w_p / lam."""
    return math.sqrt(2.0) * math.pi * params.theta0 * params.w_p / params.lambda_cm


def classify_regime(params):
    """Compare theta0 against sqrt(lam/L) with a symmetric margin factor."""
    crystal_scale = math.sqrt(params.lambda_cm / params.L)
    if params.theta0 > REGIME_FACTOR * crystal_scale:
        return REGIME_NONCOLLINEAR
    if params.theta0 < crystal_scale / REGIME_FACTOR:
        return REGIME_COLLINEAR
    return REGIME_INTERMEDIATE


def entanglement_report(params, extra_lines=()):
    """Widths, ratio R and regime as text lines, then extra_lines."""
    lines = [
        f"single-photon width   : {width_single(params):.6g} cm^-1",
        f"coincidence width     : {width_coincidence(params):.6g} cm^-1",
        f"difference width      : {width_minus(params):.6g} cm^-1",
        f"width ratio R         : {entanglement_ratio(params):.6g}",
        f"broadening regime     : {classify_regime(params)}",
        *extra_lines,
    ]
    return "\n".join(lines) + "\n"


def reduced_bipartite(k1x, k2x, params):
    """y-reduced joint density exp(-w_p^2 (k1x+k2x)^2) * f_exact(k1x-k2x).

    Elementwise over arrays of k1x and k2x.
    """
    kp = k1x + k2x
    gauss = np.exp(-(params.w_p * kp) ** 2)
    return gauss * f_exact(k1x - k2x, params)


def default_kappa_grid(params, n=2001):
    """Uniform dimensionless grid covering both the cone and the collinear scale."""
    span = 1.5 * max(2.0 * params.theta0, math.sqrt(params.lambda_cm / params.L))
    return np.linspace(-span, span, n)


def _params_meta(params):
    return {
        "lambda_p_um": repr(params.lambda_p),
        "w_p_cm": repr(params.w_p),
        "L_cm": repr(params.L),
        "theta0_rad": repr(params.theta0),
        "n_o": repr(params.n_o),
    }


def single_particle_curve(kappa_grid, params, exact=True):
    """Marginal momentum distribution of one photon: F(2 k1x) over the grid.

    The exact reduction is the default; exact=False substitutes the
    cone-interior closed form (whose singular edge points, if hit by
    the grid, are clipped to the largest finite neighbour).
    """
    ks = params.k_from_kappa(kappa_grid)
    if exact:
        vals = f_exact(2.0 * ks, params)
    else:
        vals = f_approx(2.0 * ks, params)
        finite = np.isfinite(vals)
        if not finite.all():
            vals[~finite] = vals[finite].max()
    meta = _params_meta(params)
    meta["kind"] = "single-particle" + ("" if exact else " (cone-interior form)")
    return Curve(x=np.asarray(kappa_grid, dtype=float), y=vals,
                 xunit="kappa", normalization="raw", meta=meta)


def coincidence_curve(k2x_fixed, params):
    """Conditional distribution of k1x at fixed k2x: Gaussian times F(2 k2x).

    Peaks at k1x = -k2x; the grid holds 501 points six Gaussian widths
    each way of it.  The overall factor F(2 k2x) only matters for the raw
    scale (it vanishes quickly once |2 k2x| leaves the cone).
    """
    center = -float(params.kappa(k2x_fixed))
    sigma = params.lambda_cm / (math.pi * math.sqrt(2.0) * params.w_p)
    kappa_grid = np.linspace(center - 6.0 * sigma, center + 6.0 * sigma, 501)
    k1 = params.k_from_kappa(kappa_grid)
    scale = f_exact(2.0 * k2x_fixed, params)
    vals = pump_envelope(k1 + k2x_fixed, 0.0, params) ** 2 * scale
    meta = _params_meta(params)
    meta["kind"] = "coincidence"
    meta["k2x_cm^-1"] = repr(float(k2x_fixed))
    return Curve(x=kappa_grid, y=vals, xunit="kappa", normalization="raw",
                 meta=meta)


_GH64_NODES, _GH64_WEIGHTS = np.polynomial.hermite.hermgauss(64)


def plane_restricted_curve(kappa_grid, params):
    """Distribution obtained when only in-plane photons are counted.

    integral dk2x |psi(k1x, k2x, 0, 0)|^2, evaluated with Gauss-Hermite
    nodes riding the pump Gaussian (substituting k2x = -k1x + t/w_p).
    In-plane restriction skips the y reduction entirely, so the curve is
    concentrated in two islands at kappa = +-theta0, each about
    2.78/(8 S theta0) wide at half height: the set holding half its area
    is drastically smaller than the single-photon marginal's.  Its rms
    width is not smaller than the marginal's (it is ~theta0, set by the
    island separation).
    """
    kappa_grid = np.asarray(kappa_grid, dtype=float)
    k1 = params.k_from_kappa(kappa_grid)
    t = _GH64_NODES / params.w_p
    kminus = 2.0 * k1[:, None] - t[None, :]
    kap = params.kappa(kminus)
    arg = params.sinc_scale * (4.0 * params.theta0 ** 2 - kap * kap)
    vals = (sinc(arg) ** 2 @ _GH64_WEIGHTS) / params.w_p
    meta = _params_meta(params)
    meta["kind"] = "plane-restricted"
    return Curve(x=kappa_grid, y=vals, xunit="kappa", normalization="raw",
                 meta=meta)


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


def measured_coincidence_width(curve):
    """Coincidence width from a sampled conditional curve, cm^-1.

    The plain rms width of the Gaussian conditional curve is
    1/(sqrt(2) w_p); dividing by sqrt(2) converts it to the
    reciprocal-waist convention 1/(2 w_p) used by width_coincidence().
    Curves on the dimensionless axis are converted using the metadata
    echo of lambda_p; plane positions (cm) would also need the distance z.
    """
    if curve.xunit == "cm":
        raise ValueError("a curve in plane positions (cm) needs z for a momentum width")
    sigma = curve.rms_width()
    if curve.xunit == "kappa":
        lam_cm = float(curve.meta["lambda_p_um"]) * 1e-4
        sigma = sigma * math.pi / lam_cm
    return sigma / math.sqrt(2.0)
