"""Sampled 1-D distribution curves: normalization, widths, file output.

A Curve is a strictly increasing abscissa grid plus nonnegative values.
write_table writes every table of the package: `#` header lines, then
space-separated rows of `%.12e` numbers, so np.loadtxt reads every table.
It formats blocks of 1024 rows in numpy, byte-identical to Python's
`"%.12e" % x`, and hands the few values it cannot place exactly (NaN,
inf, three-digit exponents, near-ties) to Python's formatting.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

__all__ = ["Curve", "write_table"]


@dataclass(frozen=True)
class Curve:
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        if self.x.ndim != 1 or self.x.shape != self.y.shape:
            raise ValueError("x and y must be 1-D arrays of equal length")
        if self.x.size < 2:
            raise ValueError("a curve needs at least two samples")
        if not np.all(np.diff(self.x) > 0):
            raise ValueError("abscissae must be strictly increasing")
        if np.any(self.y < 0) or not np.all(np.isfinite(self.y)):
            raise ValueError("values must be finite and nonnegative")

    def area(self):
        """Trapezoid integral of the curve over its grid."""
        return float(np.trapezoid(self.y, self.x))

    def peak(self):
        return float(self.y.max())

    def normalized(self, mode="area"):
        """Return a copy rescaled to unit trapezoid area ("area") or unit
        peak ("peak"), or the curve itself ("raw")."""
        if mode == "raw":
            return self
        if mode == "area":
            scale = self.area()
        elif mode == "peak":
            scale = self.peak()
        else:
            raise ValueError(f"unknown normalization {mode!r}")
        if scale <= 0:
            raise ValueError("cannot normalize an all-zero curve")
        return replace(self, y=self.y / scale)

    def half_area_width(self):
        """Total length of the smallest set that holds half the curve's area.

        Grid cells (trapezoid weights) are taken highest value first until
        they hold half the area; the last cell counts by the fraction it
        needs.  Unlike the half-maximum width, this measures where the
        probability lies, whatever the height of the curve's peaks.
        """
        dx = np.diff(self.x)
        cell = 0.5 * (np.concatenate([dx, [0.0]]) + np.concatenate([[0.0], dx]))
        order = np.argsort(-self.y, kind="stable")
        mass = (self.y * cell)[order]
        held = np.cumsum(mass)
        if not held[-1] > 0:
            raise ValueError("an all-zero curve has no half-area width")
        half = 0.5 * held[-1]
        last = int(np.searchsorted(held, half))
        before = held[last - 1] if last else 0.0
        return float(cell[order][:last].sum()
                     + (half - before) / mass[last] * cell[order][last])

    def write(self, path, header_lines):
        write_table(path, header_lines, [self.x, self.y])


def write_table(path, header_lines, columns):
    """Write `# `-prefixed header lines, then the columns side by side, one row per line.

    Every value is written as `"%.12e" % value` would write it, values
    separated by one space.  Rows are formatted _BLOCK_ROWS at a time, so
    the memory taken grows with the number of columns, not of rows.
    """
    columns = [np.asarray(column, dtype=float) for column in columns]
    rows = len(columns[0])
    if any(len(column) != rows for column in columns):
        raise ValueError("columns must be of equal length")
    with open(path, "wb") as fh:
        fh.write("".join(f"# {line}\n" for line in header_lines).encode("utf-8"))
        for start in range(0, rows, _BLOCK_ROWS):
            fh.write(_format_block(np.stack(
                [column[start:start + _BLOCK_ROWS] for column in columns], axis=1)))


# Block formatting.  A finite x with 1e-99 <= |x| < 1e99 and decimal
# exponent e = floor(log10|x|) has the 13-digit mantissa s = |x| * 10**(12 - e),
# taken with a correctly rounded power of ten: two roundings, so s is within
# 2**-52 * 1e13 < 2.3e-3 of the exact product.  Where 1e12 + 1 <= s < 1e13 - 1
# and s is more than 0.005 from a half-integer, rint(s) is therefore the
# mantissa "%.12e" prints, and e its two-digit exponent.  Zeros are written
# directly; every other value (NaN, inf, three-digit exponents, near-ties and
# misses of log10 by one, about 1 in 100) is formatted by Python.  The
# package's tables lie within 1e-10 <= |x| < 1e5; a wider range would cost
# parsing more literals, 0.5 ms for |e| <= 280.  Each value fills a 21-byte
# slot: up to 20 characters, zero-padded, then a space or newline; dropping
# the zero bytes leaves the rows.  No value's bytes depend on its block; of
# 256 to 2048 rows, 1024 formats a 2001 x 3 table fastest, 0.9 ms with 0.48 MB
# of scratch against 1.1 ms and 0.93 MB at 2048 (best of 200, 2 vCPUs).
_BLOCK_ROWS = 1024
_E_MAX = 100      # |floor(log10|x|)| for 1e-99 <= |x| < 1e99, with log10's error
_SLOT = 21


@functools.cache
def _tables():
    """10**(12 - e) parsed from literals, and the ASCII words "0000" to "9999"
    and "e+00" to "e-99" as uint32, each indexed by its value, e offset by
    _E_MAX."""
    pow10 = np.array([float(f"1e{12 - e}") for e in range(-_E_MAX, _E_MAX + 1)])
    d = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    quads = np.stack([np.repeat(d, 1000), np.tile(np.repeat(d, 100), 10),
                      np.tile(np.repeat(d, 10), 100), np.tile(d, 1000)], axis=1)
    e = np.arange(-_E_MAX, _E_MAX + 1)
    ae = np.abs(e)
    exps = np.stack([np.full(e.shape, ord("e")),
                     np.where(e < 0, ord("-"), ord("+")),
                     ae // 10 % 10 + ord("0"), ae % 10 + ord("0")], axis=1)
    return (pow10, quads.view(np.uint32).ravel(),
            exps.astype(np.uint8).view(np.uint32).ravel())


def _format_block(block):
    """The bytes of block's rows, each value as "%.12e" formats it."""
    pow10, quads, exps = _tables()
    rows, cols = block.shape
    a = np.abs(block)
    inside = (a >= 1e-99) & (a < 1e99)
    a = np.where(inside, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.intp) + _E_MAX
    s = a * pow10[e]
    fast = (inside & (s >= 1e12 + 1) & (s < 1e13 - 1)
            & (np.abs(s - np.floor(s) - 0.5) > 0.005))
    zero = block == 0
    q = np.where(fast, np.rint(s), 0.0)
    lead = np.floor(q / 1e12)
    q -= lead * 1e12
    hi = np.floor(q / 1e8)
    q -= hi * 1e8
    mid = np.floor(q / 1e4)
    digits = np.stack([hi, mid, q - mid * 1e4], axis=-1).astype(np.intp)

    buf = np.empty((rows, cols, _SLOT), np.uint8)
    buf[..., 0] = np.where(np.signbit(block), ord("-"), 0)
    buf[..., 1] = lead + ord("0")
    buf[..., 2] = ord(".")
    buf[..., 3:15] = quads[digits].view(np.uint8).reshape(rows, cols, 12)
    buf[..., 15:19] = exps[e].view(np.uint8).reshape(rows, cols, 4)
    buf[..., 19] = 0
    buf[..., 20] = ord(" ")
    buf[:, -1, 20] = ord("\n")
    slow = ~(fast | zero)
    if slow.any():
        text = b"".join(("%.12e" % x).encode().ljust(_SLOT - 1, b"\0")
                        for x in block[slow].tolist())
        buf[slow, :-1] = np.frombuffer(text, np.uint8).reshape(-1, _SLOT - 1)
    return buf.tobytes().replace(b"\0", b"")

