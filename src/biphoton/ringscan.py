"""Detection-plane ring geometry and detector-scan simulation.

The emission cone intersects a plane at distance z in an annulus of
radius r0 = z * theta0.  A detector moving along a vertical line at
horizontal offset x sums counts over its whole travel, so the expected
count is a line integral across the annulus; repeating for many
offsets traces out the same curve as the y-reduction of the joint
density.  The scan draws photon pairs from the actual pair density
(Gaussian summed x momentum; difference-momentum magnitude from the
squared-sinc radial law, uniform azimuth), maps each photon to the plane
via r = z * lam * k_perp / pi, and bins detections per scan line; the
momentum-space reduction in distributions is the curve it is compared with.

Positions are in cm in the detection plane, and a scan is a Curve of
counts over them; x = z * kappa links it to the dimensionless momentum
axis used by the theory curves.
Sampling is exact (rejection from the squared-sinc law, no table) and
reproducible.  A float32 sine decides most of the rejection tests, but only
where a proven bound on its error leaves no doubt; the float64 sine decides
the rest, so every decision is the float64 test's.  Pairs are drawn in
blocks of _BLOCK, block i from the stream SeedSequence(seed,
spawn_key=(i,)), so a scan summed block by block depends on (seed, pair
count) alone and runs in constant memory.
A batch holds each pair's summed x and polar separation (no scan reads y,
so none is drawn); x1 and x2 are formed on first read.  The scans bin each
photon, and test each pair against the D2 slit, from float32 positions
wherever a proven bound on their error leaves no doubt, and form the
float64 position of the rest, so every count is np.histogram's of the
float64 positions.  A scan takes one pass over its batch, with scratch as
long as the batch; `scan` draws and scans one block at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .curves import Curve
from .wavefunction import _Z_MAX, _Z_MIN

__all__ = [
    "NoRingError",
    "ScanResult",
    "ring_from_params",
    "sample_pairs",
    "scan_single",
    "scan_coincidence",
]


class NoRingError(ValueError):
    """No annulus in the detection plane: theta0 not above the ring's thickness."""


def ring_from_params(params, z):
    """(r0, delta_r) in cm: radius z*theta0, thickness z*lam/(2 pi w_p).

    Raises ValueError unless z lies in the far-field domain [_Z_MIN, _Z_MAX],
    and NoRingError unless theta0 exceeds the ring's angular thickness
    lam/(2 pi w_p), which covers collinear parameters (theta0 = 0).
    """
    if not _Z_MIN <= z <= _Z_MAX:
        raise ValueError(f"z = {z!r} cm lies outside the far-field domain "
                         f"[{_Z_MIN}, {_Z_MAX}] cm")
    r0 = z * params.theta0
    delta_r = z * (0.5 / params.w_p) * params.lambda_cm / math.pi
    if not r0 > delta_r:
        raise NoRingError(f"theta0 = {params.theta0!r} rad is not above the "
                          f"ring's angular thickness {delta_r / z:.6g} rad: no "
                          "emission ring to scan")
    return r0, delta_r


@dataclass(frozen=True)
class PairBatch:
    """Sampled photon pairs in the detection plane (cm), with no record of their seed.

    px is x1 + x2; rho, phi are the polar form of the separation r1 - r2.
    x1, x2 = (px +- rho cos phi)/2 are formed on first read; y is not drawn.
    A scan reads _x32 instead and forms x only where that leaves an edge in
    doubt.  spare holds 4n float64 or more: _x32's rows, then the scans'
    scratch, so the scans of one batch run one at a time.
    """

    px: np.ndarray
    rho: np.ndarray
    phi: np.ndarray
    spare: np.ndarray | None = field(default=None, repr=False)

    _mx = cached_property(lambda self: self.rho * np.cos(self.phi))
    x1 = cached_property(lambda self: 0.5 * (self.px + self._mx))
    x2 = cached_property(lambda self: 0.5 * (self.px - self._mx))

    def __len__(self):
        return len(self.px)

    def _take(self, idx):
        """The pairs idx as a batch of their own, for their exact x."""
        return PairBatch(self.px[idx], self.rho[idx], self.phi[idx])

    @cached_property
    def _x32(self):
        """u1, u2: 2 x1 and 2 x2 in float32, in spare's first row (see _X32_TOL)."""
        u1, u2 = self.spare[:len(self)].view(np.float32).reshape(2, -1)
        f32 = {"dtype": np.float32, "casting": "same_kind"}
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply(self.rho, np.cos(self.phi, out=u1, **f32), out=u1, **f32)
            np.subtract(self.px, u1, out=u2, **f32)
            np.add(self.px, u1, out=u1, **f32)
        return u1, u2

    def _squeeze(self):
        """_x32's rows, e = 2 rho + 2 max|px| + 2^-120 in float32 (see _X32_TOL;
        inf wherever u1 or u2 is) and scratch in spare: two float32, an int64
        and two bool rows, each as long as the batch.
        """
        n = len(self)
        w = self.spare[n:]
        f32 = w[n:3 * n].view(np.float32).reshape(4, n)
        e = f32[0]
        with np.errstate(over="ignore", invalid="ignore"):
            p_bound = np.float32(2.0 * np.maximum(self.px.max(), -self.px.min())
                                 + 2.0 ** -120)
            np.multiply(self.rho, 2.0, out=e, dtype=np.float32, casting="same_kind")
            np.add(e, p_bound, out=e)
        return (*self._x32, e, f32[1:3], w[:n].view(np.intp),
                f32[3].view(np.bool_).reshape(4, n)[:2])


# pairs per block: block i of a run is drawn from SeedSequence(seed, spawn_key=(i,))
_BLOCK = 2 ** 16

# The squeeze (Marsaglia 1977; Devroye 1986, II.3).  The exact test keeps a
# proposal x when s*s >= U w, with s = sin(x) in float64 (libm, about 24 ns
# a value) and w = min(x^2, 1).  With a = |fl32(x)|, the float32 statistic
# r = (sin32(a) / min(a, 1))^2 stands in for s*s/w.  For 0 < a <= _SQUEEZE_X,
#     |r - s*s/w| <= 2^-23 (|x| + 2c + 3),
# where c (at most 2) is numpy's float32 sine error in ulps: fl32(x) lies
# within 2^-24 |x| of x, which moves sin by as much and sin^2 by twice that;
# the sine adds c ulps of at most 2^-24, and the quotient, the square and the
# float64 products a few 2^-24 more.  For |x| < 1 the same terms are relative
# to sinc^2, whose logarithmic slope stays below 1 there.  d = r - fl32(U)
# adds 2^-25 and rounds monotonically, so |d| > _SQUEEZE_TOL = 2^-11 decides
# as the exact test does, with a margin above 15 at a = 256.  The exact test
# decides the rest: |d| <= _SQUEEZE_TOL, a > _SQUEEZE_X, and the NaN of
# x = 0 (0/0) and of x = -inf (a NaN sine).
_SQUEEZE_TOL = 2.0 ** -11
_SQUEEZE_X = 256.0


def _sinc2_variates(rng, x_max, out, work):
    """Fill out with exact draws from the density sinc^2(x) restricted to x <= x_max.

    Rejection from the envelope min(1, 1/x^2)/4 (Devroye 1986, II.3),
    accepted at rate pi/4 before the cut at x_max.  The proposal is
    y ~ U(-2, 2), kept as x = y on |y| <= 1 and mapped to the tails as
    x = sign(y)/(2 - |y|); y = -2 gives x = -inf, which is rejected.
    Each proposal is accepted when sin(x)^2 >= U min(x^2, 1) for a second
    uniform U.  A float32 sine decides that test wherever its error bound
    (the comment above _SQUEEZE_TOL) leaves no doubt, about 99.8% of
    proposals; the float64 sine decides the rest, so every decision, and
    every bit of out, is the plain float64 test's.
    work holds three rows of at least out.size * 4 // 3 + 64 scratch values.
    """
    need = out.size
    while need > 0:
        k = need * 4 // 3 + 64  # k fixes the stream of draws
        x, w, u = work[:, :k]
        # f, then d, in u's first half and three masks in its second; g in w
        # until w takes the acceptance uniforms
        f, g = u.view(np.float32)[:k], w.view(np.float32)[:k]
        keep, acc, exact = u.view(np.bool_)[4 * k:7 * k].reshape(3, k)
        np.subtract(np.multiply(rng.random(out=x), 4.0, out=x), 2.0, out=x)
        with np.errstate(divide="ignore", invalid="ignore"):
            # sign(y) min(|y|, 1) / min(2 - |y|, 1) is y inside and exactly
            # sign(y)/(2 - |y|) in the tails: the tail map with no masked ufunc
            np.minimum(np.subtract(2.0, np.abs(x, out=w), out=u), 1.0, out=u)
            np.divide(np.clip(x, -1.0, 1.0, out=w), u, out=x)
            np.abs(x, out=f, casting="same_kind")
            f[f > _SQUEEZE_X] = np.inf
            np.minimum(f, 1.0, out=g)
            np.divide(np.sin(f, out=f), g, out=f)
            np.multiply(f, f, out=f)
            np.subtract(f, rng.random(out=w), out=f, dtype=np.float32,
                        casting="same_kind")
            np.less_equal(x, x_max, out=keep)
            np.greater(f, _SQUEEZE_TOL, out=acc)
            np.logical_or(acc, np.less(f, -_SQUEEZE_TOL, out=exact), out=exact)
            np.logical_and(acc, keep, out=acc)
            np.greater(keep, exact, out=exact)  # kept, and not decided
            # the plain test on the rest; w holds the uniforms U
            idx = np.flatnonzero(exact)
            xi = x[idx]
            s = np.sin(xi)
            acc[idx] = s * s >= w[idx] * np.minimum(xi * xi, 1.0)
        take = np.flatnonzero(acc)[:need]
        np.take(x, take, out=out[out.size - need:][:take.size], mode="clip")
        need -= take.size
    return out


def _workspace_size(n):
    """float64 values sample_pairs uses for n pairs: the batch's three rows,
    then the sampler's three work rows of k = min(n, _BLOCK) * 4 // 3 + 64,
    which the scans' spare of 4n (see PairBatch) takes over once the draw is
    done: 3n + max(3k, 4n)."""
    return 3 * n + max(3 * (min(n, _BLOCK) * 4 // 3 + 64), 4 * n)


def sample_pairs(params, z, n, seed, block=0, *, out=None):
    """Draw n photon pairs and map them to the detection plane at distance z.

    The summed x momentum is Gaussian with the pump-envelope variance (no
    scan reads y, so none is drawn); the difference-momentum magnitude kappa
    follows the squared-sinc radial law exactly: x = S(4 theta0^2 - kappa^2)
    has density sinc^2(x) on x <= 4 S theta0^2, so x is drawn by rejection
    and mapped back.  The azimuth is uniform on [0, 2 pi).  Pairs come in
    blocks of _BLOCK, the j-th from the stream SeedSequence(seed,
    spawn_key=(block + j,)), so (seed, block, n) fixes the batch bit for
    bit, and n pairs from block 0 are the single blocks 0, 1, 2, ... laid
    end to end: a scan may draw and histogram them one at a time.

    out, if given, is the workspace the batch is drawn into: a writeable
    C-contiguous float64 array of at least _workspace_size(n) values.  The
    batch is a view of it, so the next draw into out overwrites the last
    batch; its contents do not change the draw.  A scan that draws block
    after block into one workspace allocates nothing per block.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if block < 0:
        raise ValueError("block must be >= 0")
    if not 0.0 < z < math.inf:
        raise ValueError(f"z = {z!r} cm must be positive and finite")
    size = _workspace_size(n)
    if out is None:
        out = np.empty(size)
    elif not (isinstance(out, np.ndarray) and out.dtype == np.float64
              and out.flags.c_contiguous and out.flags.writeable
              and out.size >= size):
        raise ValueError(f"out must be a writeable C-contiguous float64 array "
                         f"of at least {size} values for {n} pairs")
    # x1 + x2 and x1 - x2 in cm: the pump-limited Gaussian spread, and the
    # difference momentum z * kappa_minus (clipped at 0 against rounding)
    sigma = z * params.lambda_cm / (math.pi * math.sqrt(2.0) * params.w_p)
    four_theta_sq = 4.0 * params.theta0 ** 2
    # each block writes its slice of the three rows
    buf = out.reshape(-1)[:size]
    px, rho, phi = buf[:3 * n].reshape(3, n)
    k = min(n, _BLOCK) * 4 // 3 + 64
    work = buf[3 * n:3 * n + 3 * k].reshape(3, k)
    for i, start in enumerate(range(0, n, _BLOCK), start=block):
        sl = slice(start, min(start + _BLOCK, n))
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
        v, r, p = px[sl], rho[sl], phi[sl]
        np.multiply(rng.standard_normal(out=v), sigma, out=v)
        _sinc2_variates(rng, params.sinc_scale * four_theta_sq, r, work)
        # rho = z sqrt(max(4 theta0^2 - x/S, 0)) in place, and phi = 2 pi U
        np.subtract(four_theta_sq, np.divide(r, params.sinc_scale, out=r), out=r)
        np.multiply(z, np.sqrt(np.maximum(r, 0.0, out=r), out=r), out=r)
        np.multiply(2.0 * math.pi, rng.random(out=p), out=p)
    return PairBatch(px, rho, phi, buf[3 * n:])


class ScanResult(Curve):
    """Counts per vertical scan line, as a curve over line offsets in cm.

    x holds the offsets, the centers of uniform bins; y holds the
    nonnegative count in each.  The seed, pair count and slit that made
    it are the run's; `scan` echoes them in its tables' header.
    """

    # the scan name of y, read-only
    counts = property(lambda self: self.y)


def _bin_edges(positions):
    positions = np.asarray(positions, dtype=float)
    # np.allclose(steps, steps[0], rtol=1e-9, atol=0) in one reduction; a
    # finite first step bounds the others, so every position is finite.  A
    # step or an outer edge past the float range comes out inf or NaN, quietly
    with np.errstate(over="ignore", invalid="ignore"):
        steps = np.diff(positions)
        if (positions.size < 2 or not 0.0 < steps[0] < math.inf
                or not np.max(np.abs(steps - steps[0])) <= 1e-9 * steps[0]
                or not max(-positions[0], positions[-1]) + 0.5 * steps[0] < math.inf):
            raise ValueError("scan positions must be a finite, uniform increasing grid")
    h = steps[0]
    return np.concatenate([positions - 0.5 * h, [positions[-1] + 0.5 * h]])


# The scans' squeeze.  A scan needs each photon's bin and each pair's slit
# test, not its float64 x = (px +- rho cos phi)/2, whose cosine costs 27 ns
# a value (the float32 one 1 ns).  PairBatch._x32 holds u ~ 2x in float32,
# from phi, rho and px rounded to float32 and numpy's float32 cosine, and
# e = 2 rho + 2 max|px| + 2^-120.  Against the float64 2x, u errs by at most
#     2^-24 (13.5 rho + 2.1 |px|) + 2^-147:
# fl32(phi) moves phi by up to 2^-24 * 2 pi, the cosine errs by at most
# 2 ulps (2^-22), rho's cast and the product add 2^-24 rho each, px's cast
# and the sum 2^-24 (|px| + rho), and an operation that underflows 2^-150.
# The bin coordinate v = u S + c, with S = 1/(2h) and c = 1/2 - e0/h for
# edges within eta bins of e0 + j h, adds 2^-24 (3 |u| S + 2 |c|) bins in
# float32, so _X32_TOL (e S + |c|) bounds the error in v with a margin of
# almost 2.  A photon with |v - rint v| < 1/2 - _X32_TOL (e S + |c| + 1) - eta
# lies inside bin rint(v) - 1 for np.histogram as well; the term 1 covers
# the rounding of that threshold and of eta.  Likewise |x - d| <= w/2 fails
# for |u - fl32(2d)| > w + _X32_TOL (e + |fl32(2d)| + w).  A NaN passes
# neither test, e is inf wherever u is, and the exact x decides the rest.
_X32_TOL = 2.0 ** -20


def scan_single(samples, positions):
    """Single-detector scan: every sampled photon of every pair of the
    PairBatch samples, histogrammed onto the vertical scan lines.

    The counts are np.histogram(x1, edges)[0] + np.histogram(x2, edges)[0],
    with no sort: a bincount of the float32 bin indices, where the squeeze
    (the comment above _X32_TOL) leaves no doubt; np.histogram of the exact
    x of the rest.
    """
    edges = _bin_edges(positions)
    n_bins = edges.size - 1
    counts = np.zeros(n_bins + 2, np.intp)
    doubtful = []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        h = (edges[-1] - edges[0]) / n_bins
        eta = np.max(np.abs((edges - edges[0]) / h - np.arange(n_bins + 1)))
        scale, shift = np.float32(0.5 / h), np.float32(0.5 - edges[0] / h)
        tol = np.float32(_X32_TOL * 0.5 / h)
        sure = np.float32(0.5 - eta - _X32_TOL * (abs(0.5 - edges[0] / h) + 1.0))
        u1, u2, g, (v, k), index, (doubt, _) = samples._squeeze()
        np.subtract(sure, np.multiply(g, tol, out=g), out=g)
        for u, name in ((u1, "x1"), (u2, "x2")):
            np.add(np.multiply(u, scale, out=v), shift, out=v)
            np.rint(v, out=k)
            np.less(np.abs(np.subtract(v, k, out=v), out=v), g, out=doubt)
            np.logical_not(doubt, out=doubt)
            np.copyto(k, 0.0, where=doubt)
            np.copyto(index, np.clip(k, 0, n_bins + 1, out=k), casting="unsafe")
            counts += np.bincount(index, minlength=n_bins + 2)
            doubtful.append(getattr(samples._take(np.flatnonzero(doubt)), name))
    counts = counts[1:-1] + np.histogram(np.concatenate(doubtful), bins=edges)[0]
    return ScanResult(x=positions, y=counts)


def scan_coincidence(samples, d2_position, slit_width, positions):
    """Coincidence scan: bin one photon's line offset when its partner hits D2.

    D2 is an ideal vertical slit of the given width centered at
    d2_position; either photon of a pair may trigger it.  A scan that
    captures no pair is all zero, not an error.
    """
    if not slit_width > 0:
        raise ValueError("slit_width must be positive")
    edges = _bin_edges(positions)
    half = 0.5 * slit_width
    # the pairs the squeeze (see _X32_TOL) cannot rule out; their exact x decides
    with np.errstate(over="ignore", invalid="ignore"):
        d2 = np.float32(2.0 * d2_position)
        width = np.float32(slit_width + _X32_TOL * (abs(float(d2)) + slit_width))
        u1, u2, thr, (a, _), _, (far, far2) = samples._squeeze()
        np.add(np.multiply(thr, np.float32(_X32_TOL), out=thr), width, out=thr)
        np.greater(np.abs(np.subtract(u1, d2, out=a), out=a), thr, out=far)
        np.greater(np.abs(np.subtract(u2, d2, out=a), out=a), thr, out=far2)
        np.logical_not(np.logical_and(far, far2, out=far), out=far)
    near = samples._take(np.flatnonzero(far))
    hit2 = np.abs(near.x2 - d2_position) <= half
    hit1 = np.abs(near.x1 - d2_position) <= half
    partner = np.concatenate([near.x1[hit2], near.x2[hit1]])
    counts, _ = np.histogram(partner, bins=edges)
    return ScanResult(x=positions, y=counts)
