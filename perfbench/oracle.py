"""Independent numpy-only references for the benchmark's output checks.

Nothing here imports biphoton: every reference is rebuilt from the
physics so that a defect in the package cannot hide in its own check.

* ``g_of_u`` is the universal y-reduction G(u) = 2 int_0^inf sinc^2(u - p^2) dp,
  evaluated through its triangle-Fourier form

      G(u) = 2 sqrt(2 pi) Re[ e^{-i pi/4} int_0^1 (1 - s^2) e^{2 i u s^2} ds ]

  (write sinc^2 as the Fourier transform of the triangle 1 - |t| and do
  the Fresnel integral over p first).  The s-integral is a smooth
  oscillatory integrand on [0, 1]; composite Gauss-Legendre with panels
  short enough that the phase 2 u s^2 turns by at most pi per panel
  resolves every arch, so the cost grows like |u| but the accuracy does
  not degrade at u ~ 1e4 (L = 10 cm).  f_exact(k) = G(u) / sqrt(S) with
  u = S (4 theta0^2 - kappa^2).

* ``single_bin_averages`` integrates the single-photon curve over scan
  bins exactly enough to test a Monte-Carlo histogram against it.

* ``plane_reference`` is the in-plane curve
  int dt e^{-t^2} sinc^2(S (4 theta0^2 - kappa_-^2)) / w_p with composite
  Gauss-Legendre panels sized to the sinc^2 oscillations across the pump
  Gaussian, in place of a fixed Gauss-Hermite rule.
"""

from __future__ import annotations

import math

import numpy as np

MICRON_TO_CM = 1e-4

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def sinc_scale(lambda_p_um, n_o, length_cm):
    """Gain S = pi L / (8 n_o lambda_p) of the mismatch sinc."""
    return math.pi * length_cm / (8.0 * n_o * lambda_p_um * MICRON_TO_CM)


def _panels(lo, hi, n):
    edges = np.linspace(lo, hi, n + 1)
    a, b = edges[:-1], edges[1:]
    half = 0.5 * (b - a)[:, None]
    nodes = 0.5 * (a + b)[:, None] + half * _GL_NODES[None, :]
    return nodes.ravel(), (half * _GL_WEIGHTS[None, :]).ravel()


def g_of_u(u):
    """G(u) for one real u."""
    u = float(u)
    n = int(math.ceil(4.0 * abs(u) / math.pi)) + 16
    s, w = _panels(0.0, 1.0, n)
    inner = np.dot((1.0 - s * s) * np.exp(2j * u * s * s), w)
    return 2.0 * math.sqrt(2.0 * math.pi) * (np.exp(-0.25j * math.pi) * inner).real


def f_reference(kappa_minus, theta0, scale):
    """Difference-momentum distribution f_exact at dimensionless kappa_-."""
    u = scale * (4.0 * theta0 * theta0 - kappa_minus * kappa_minus)
    return g_of_u(u) / math.sqrt(scale)


def single_bin_averages(edges, theta0, scale, w_tail=4000.0):
    """Bin averages (1/h) int_bin f(2 kappa) d kappa of the single-photon curve.

    f(2 kappa) integrates sinc^2(S (4 theta0^2 - rho^2)), radially
    symmetric in the plane of x = 2 kappa and the y-difference q, along
    q; so a kappa bin of width h integrates it over a half-strip.  In
    polar form with w = S (4 theta0^2 - rho^2) the bin average is

        (1 / (2 S h)) int sinc^2(w) dphi(w) dw,

    dphi being the angle the half-circle of radius rho spends inside the
    strip.  Gauss-Legendre runs over every sinc^2 arch, split where the
    circle meets the strip's edges (dphi has kinks there), down to
    w = -w_tail; beyond it sinc^2 is replaced by its mean 1/(2 w^2) and
    integrated in t = -1/w.  Resolving the arches matters: a 5-point
    rule per bin misses the edge ripples by ~1% of the peak.
    """
    nodes, weights = np.polynomial.legendre.leggauss(8)
    t_nodes = (0.5 / w_tail) * (np.polynomial.legendre.leggauss(16)[0] + 1.0)
    t_weights = (0.5 / w_tail) * np.polynomial.legendre.leggauss(16)[1]
    w_max = 4.0 * scale * theta0 * theta0
    arches = np.arange(math.floor(w_max / math.pi), -w_tail / math.pi, -1.0) * math.pi

    def dphi(w, a, b):
        rho = np.sqrt((w_max - w) / scale)
        return np.abs(np.arccos(np.clip(2.0 * b / rho, -1.0, 1.0))
                      - np.arccos(np.clip(2.0 * a / rho, -1.0, 1.0)))

    out = np.empty(len(edges) - 1)
    for i, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
        kinks = [w_max - scale * (2.0 * x) ** 2 for x in (a, b)]
        cuts = np.unique(np.concatenate([
            [w_max, -w_tail], arches[(arches < w_max) & (arches > -w_tail)],
            [k for k in kinks if -w_tail < k < w_max]]))
        lo, hi = cuts[:-1], cuts[1:]
        half = 0.5 * (hi - lo)[:, None]
        w = 0.5 * (lo + hi)[:, None] + half * nodes[None, :]
        s = np.sinc(w / math.pi)
        body = np.sum(s * s * dphi(w, a, b) * half * weights[None, :])
        tail = 0.5 * np.dot(dphi(-1.0 / t_nodes, a, b), t_weights)
        out[i] = (body + tail) / (2.0 * scale * (b - a))
    return out


def plane_peak_grid(theta0, scale, lambda_p_um, w_p_cm, n=401):
    """kappa grid across the in-plane peak at +theta0, a few widths each side.

    The peak is as wide as the pump Gaussian's drift of kappa_-/2 plus a
    few sinc^2 arches; the CLI's 2001-point grid is coarser than that at
    L = 10 cm, so it cannot show how well the peak itself is resolved.
    """
    drift = lambda_p_um * MICRON_TO_CM / (math.pi * w_p_cm)
    half = 2.0 * drift + 2.0 * math.pi / (4.0 * scale * theta0)
    return np.linspace(theta0 - half, theta0 + half, n)


def plane_reference(kappa, theta0, scale, lambda_p_um, w_p_cm, t_max=8.0):
    """In-plane curve at each kappa of the grid (unnormalized)."""
    kappa = np.asarray(kappa, dtype=float)
    drift = lambda_p_um * MICRON_TO_CM / (math.pi * w_p_cm)   # d kappa_- / dt
    k_max = 2.0 * np.max(np.abs(kappa)) + drift * t_max
    # the sinc^2 argument turns by at most pi/2 per panel
    rate = scale * 2.0 * k_max * drift
    n = int(math.ceil(2.0 * t_max * rate / (0.5 * math.pi))) + 32
    t, w = _panels(-t_max, t_max, n)
    weight = np.exp(-t * t) * w
    out = np.empty(kappa.size)
    for i, k in enumerate(kappa):
        km = 2.0 * k - drift * t
        arg = scale * (4.0 * theta0 * theta0 - km * km)
        s = np.sinc(arg / math.pi)
        out[i] = np.dot(s * s, weight) / w_p_cm
    return out
