"""Detection-plane ring geometry and detector-scan simulation.

The emission cone intersects a plane at distance z in an annulus of
radius r0 = z * theta0.  A detector moving along a vertical line at
horizontal offset x sums counts over its whole travel, so the expected
count is a line integral across the annulus; repeating for many
offsets traces out the same curve as the y-reduction of the joint
density.  Two independent routes to that curve are provided:

* an analytic mode that integrates an idealized uniform annulus of
  thickness delta_r = z * lam/(2 pi w_p) (the pump-waist-limited
  correlation width mapped to the plane); its vertical-line chord
  reproduces the inverse-square-root projection law, and

* a Monte-Carlo mode that draws photon pairs from the actual pair
  density (Gaussian summed momenta; difference-momentum magnitude from
  the squared-sinc radial law, uniform azimuth), maps each photon to
  the plane via r = z * lam * k_perp / pi, and bins detections per
  scan line.

Positions are in cm in the detection plane, and a scan is a Curve
tagged xunit "cm"; x = z * kappa links it to the dimensionless momentum
axis used by the theory curves.
Sampling is exact (rejection from the squared-sinc law, no table) and
reproducible: pairs are drawn in blocks of _BLOCK, block i from the
stream SeedSequence(seed, spawn_key=(i,)), so a scan summed block by
block depends on (seed, pair count) alone and runs in constant memory.
A batch's vertical positions, PairBatch.y1 and .y2, are formed on first read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .curves import Curve
from .distributions import width_coincidence

__all__ = [
    "NoRingError",
    "RingGeometry",
    "ScanResult",
    "ring_from_params",
    "chord_length",
    "sample_pairs",
    "scan_single",
    "scan_coincidence",
]


class NoRingError(ValueError):
    """Collinear configuration: the detection-plane annulus degenerates."""


@dataclass(frozen=True)
class RingGeometry:
    """Annulus in the detection plane: distance z, radius r0, thickness delta_r (cm)."""

    z: float
    r0: float
    delta_r: float

    def __post_init__(self):
        if not all(0.0 < v < math.inf for v in (self.z, self.r0, self.delta_r)):
            raise ValueError("z, r0 and delta_r must be positive and finite")
        if self.delta_r >= self.r0:
            raise ValueError("ring thickness must be below its radius")

    @property
    def r_outer(self):
        return self.r0 + 0.5 * self.delta_r

    @property
    def r_inner(self):
        return self.r0 - 0.5 * self.delta_r


def ring_from_params(params, z):
    """Ring radius z*theta0 and thickness z*width_coincidence*lam/pi.

    Raises NoRingError for collinear parameters (theta0 = 0), and
    ValueError (from RingGeometry) unless z is positive and finite.
    """
    if params.theta0 <= 0.0:
        raise NoRingError("theta0 = 0: no emission ring to scan")
    r0 = z * params.theta0
    delta_r = z * width_coincidence(params) * params.lambda_cm / math.pi
    return RingGeometry(z=z, r0=r0, delta_r=delta_r)


def chord_length(x, ring):
    """Total length cut from the annulus by the vertical line at offset x (cm).

    Both crossings (upper and lower arc) are counted; the line misses
    the annulus entirely for |x| > r_outer.
    """
    x = np.asarray(x, dtype=float)
    outer = np.sqrt(np.maximum(ring.r_outer ** 2 - x * x, 0.0))
    inner = np.sqrt(np.maximum(ring.r_inner ** 2 - x * x, 0.0))
    return 2.0 * (outer - inner)


@dataclass(frozen=True)
class PairBatch:
    """Detection-plane positions of sampled photon pairs (cm).

    y1, y2 = (py +- rho sin phi)/2 are formed on first read; a scan reads x alone.
    """

    x1: np.ndarray
    x2: np.ndarray
    seed: int
    py: np.ndarray
    rho: np.ndarray
    phi: np.ndarray

    _my = cached_property(lambda self: self.rho * np.sin(self.phi))
    y1 = cached_property(lambda self: 0.5 * (self.py + self._my))
    y2 = cached_property(lambda self: 0.5 * (self.py - self._my))

    def __len__(self):
        return len(self.x1)


# pairs per block: block i of a run is drawn from SeedSequence(seed, spawn_key=(i,))
_BLOCK = 2 ** 16


def _sinc2_variates(rng, x_max, out):
    """Fill out with exact draws from the density sinc^2(x) restricted to x <= x_max.

    Rejection from the envelope min(1, 1/x^2)/4 (Devroye 1986, II.3),
    accepted at rate pi/4 before the cut at x_max.  The proposal is
    y ~ U(-2, 2), kept as x = y on |y| <= 1 and mapped to the tails as
    x = sign(y)/(2 - |y|); y = -2 gives x = -inf, whose NaN sine rejects it.
    """
    need = out.size
    while need > 0:
        k = need * 4 // 3 + 64  # k fixes the stream of draws
        x, w, u = np.empty((3, k))
        np.subtract(np.multiply(rng.random(out=x), 4.0, out=x), 2.0, out=x)
        # sign(y) min(|y|, 1) / min(2 - |y|, 1) is y inside and exactly
        # sign(y)/(2 - |y|) in the tails: the tail map with no masked ufunc
        np.minimum(np.subtract(2.0, np.abs(x, out=w), out=u), 1.0, out=u)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.copysign(np.divide(np.minimum(w, 1.0, out=w), u, out=w), x, out=x)
            np.minimum(np.multiply(x, x, out=w), 1.0, out=w)
            np.multiply(rng.random(out=u), w, out=u)
            s = np.sin(x, out=w)
        take = np.compress((s * s >= u) & (x <= x_max), x)[:need]
        out[out.size - need:][:take.size] = take
        need -= take.size
    return out


def sample_pairs(params, z, n, seed, azimuth_origin=0.0, block=0):
    """Draw n photon pairs and map them to the detection plane at distance z.

    Summed momenta are Gaussian with the pump-envelope variance; the
    difference-momentum magnitude kappa follows the squared-sinc radial
    law exactly: x = S(4 theta0^2 - kappa^2) has density sinc^2(x) on
    x <= 4 S theta0^2, so x is drawn by rejection and mapped back.  The
    azimuth is uniform (measured from azimuth_origin, whose value must
    not affect any binned statistic).  Pairs come in blocks of _BLOCK,
    the j-th from the stream SeedSequence(seed, spawn_key=(block + j,)),
    so (seed, block, n) fixes the batch bit for bit, and n pairs from
    block 0 are the single blocks 0, 1, 2, ... laid end to end: a scan
    may draw and histogram them one at a time.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if block < 0:
        raise ValueError("block must be >= 0")
    # x1 + x2 and x1 - x2 in cm: the pump-limited Gaussian spread, and the
    # difference momentum z * kappa_minus (clipped at 0 against rounding)
    sigma = z * params.lambda_cm / (math.pi * math.sqrt(2.0) * params.w_p)
    four_theta_sq = 4.0 * params.theta0 ** 2
    # each block writes its slice; x1 holds px until x1 and x2 are halved
    x1, x2, py, rho, phi = np.empty((5, n))
    for i, start in enumerate(range(0, n, _BLOCK), start=block):
        sl = slice(start, min(start + _BLOCK, n))
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
        for v in (x1[sl], py[sl]):
            np.multiply(rng.standard_normal(out=v), sigma, out=v)
        x = _sinc2_variates(rng, params.sinc_scale * four_theta_sq, rho[sl])
        rho[sl] = z * np.sqrt(np.maximum(four_theta_sq - x / params.sinc_scale, 0.0))
        phi[sl] = azimuth_origin + 2.0 * math.pi * rng.random(x.size)
        mx = rho[sl] * np.cos(phi[sl])
        np.subtract(x1[sl], mx, out=x2[sl])
        x1[sl] += mx
    x1 *= 0.5
    x2 *= 0.5
    return PairBatch(x1=x1, x2=x2, seed=seed, py=py, rho=rho, phi=phi)


@dataclass(frozen=True, kw_only=True)
class ScanResult(Curve):
    """Counts per vertical scan line, as a curve over line offsets in cm.

    x holds the offsets (uniform spacing, bin centers in Monte-Carlo
    mode); y holds expected densities in analytic mode and nonnegative
    totals in Monte-Carlo mode.  The scan fields are written after the
    curve header.
    """

    xunit: str = "cm"
    mode: str
    pairs_sampled: int | None = None
    seed: int | None = None
    d2_position: float | None = None
    slit_width: float | None = None

    # the scan names of x and y, read-only
    positions = property(lambda self: self.x)
    counts = property(lambda self: self.y)

    @property
    def is_empty(self):
        return float(np.sum(self.y)) == 0.0

    def header_lines(self, extra=()):
        scan = {"mode": self.mode, "seed": self.seed,
                "pairs_sampled": self.pairs_sampled,
                "d2_position_cm": self.d2_position, "slit_width_cm": self.slit_width}
        lines = [f"{key}: {value}" for key, value in scan.items() if value is not None]
        return super().header_lines([*lines, *extra])

    def __add__(self, other):
        """One Monte-Carlo scan of two disjoint batches over the same lines."""
        if not np.array_equal(self.x, other.x):
            raise ValueError("cannot add scans over different lines")
        return replace(self, y=self.y + other.y,
                       pairs_sampled=self.pairs_sampled + other.pairs_sampled)


def _bin_edges(positions):
    positions = np.asarray(positions, dtype=float)
    steps = np.diff(positions)
    if positions.size < 2 or not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
        raise ValueError("scan positions must be a uniform grid")
    h = steps[0]
    return np.concatenate([positions - 0.5 * h, [positions[-1] + 0.5 * h]])


def scan_single(source, positions):
    """Single-detector scan: expected or sampled counts per vertical line.

    With a RingGeometry the result is the uniform-annulus line integral
    (chord length scaled by the ring's uniform angular density); with a
    PairBatch every sampled photon of every pair is histogrammed onto
    the scan lines.
    """
    positions = np.asarray(positions, dtype=float)
    if isinstance(source, RingGeometry):
        counts = chord_length(positions, source) / (2.0 * math.pi * source.r0)
        return ScanResult(x=positions, y=counts, mode="single-analytic",
                          meta={"r0_cm": repr(source.r0),
                                "delta_r_cm": repr(source.delta_r)})
    if isinstance(source, PairBatch):
        edges = _bin_edges(positions)
        counts = (np.histogram(source.x1, bins=edges)[0]
                  + np.histogram(source.x2, bins=edges)[0])
        return ScanResult(x=positions, y=counts, mode="single-mc",
                          pairs_sampled=len(source), seed=source.seed)
    raise TypeError(f"cannot scan a {type(source).__name__}")


def scan_coincidence(samples, d2_position, slit_width, positions):
    """Coincidence scan: bin one photon's line offset when its partner hits D2.

    D2 is an ideal vertical slit of the given width centered at
    d2_position; either photon of a pair may trigger it.  An empty
    result (no pair captured) is flagged, not an error.
    """
    if slit_width <= 0:
        raise ValueError("slit_width must be positive")
    positions = np.asarray(positions, dtype=float)
    edges = _bin_edges(positions)
    half = 0.5 * slit_width
    hit2 = np.abs(samples.x2 - d2_position) <= half
    hit1 = np.abs(samples.x1 - d2_position) <= half
    partner = np.concatenate([samples.x1[hit2], samples.x2[hit1]])
    counts, _ = np.histogram(partner, bins=edges)
    return ScanResult(x=positions, y=counts, mode="coincidence",
                      pairs_sampled=len(samples), seed=samples.seed,
                      d2_position=float(d2_position),
                      slit_width=float(slit_width))
