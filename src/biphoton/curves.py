"""Sampled 1-D distribution curves: normalization, widths, file output.

A Curve is a strictly increasing abscissa grid plus nonnegative values.
write_table writes every table of the package: `#` header lines, then
space-separated rows of `%.12e` numbers, so np.loadtxt reads every table.
It formats blocks of 1024 rows in numpy, five uint32 words a value
gathered from tables, byte-identical to Python's `"%.12e" % x`, and hands
the few values the words cannot hold exactly (finite nonzero |x| outside
[1e-99, 1e99), misses of log10, values within 0.0025 of a rounding tie)
to Python's `%`.
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
    """Write `# `-prefixed header lines, then one or more equal columns, one row per line.

    Every value is written as `"%.12e" % value` would write it, values
    separated by one space.  Rows are formatted _BLOCK_ROWS at a time, so
    the memory taken grows with the number of columns, not of rows.
    """
    columns = [np.asarray(column, dtype=float) for column in columns]
    if not columns or any(len(column) != len(columns[0]) for column in columns):
        raise ValueError("columns must be of equal length")
    rows = len(columns[0])
    with open(path, "wb") as fh:
        fh.write("".join(f"# {line}\n" for line in header_lines).encode("utf-8"))
        for start in range(0, rows, _BLOCK_ROWS):
            fh.write(_format_block(np.stack(
                [column[start:start + _BLOCK_ROWS] for column in columns], axis=1)) + b"\n")


# Block formatting.  A value fills five uint32 words gathered from _tables(),
# first character in the low byte: [separator, sign or NUL, lead digit, "."],
# three of four digits and "e+dd".  The separator is " ", "\n" at each later
# row's start and NUL at the block's; dropping NULs leaves the rows.  A finite
# x with 1e-99 <= |x| < 1e99 and e = floor(log10|x|) has the 13-digit mantissa
# s = |x| * 10**(12 - e), taken with a correctly rounded power of ten: two
# roundings, so s is within (2**-52 + 2**-106) * 1e13 < 2.2205e-3 of the exact
# product.  Where 1e12 + 1 <= s < 1e13 - 1 and s is more than _TIE_BAND = 0.0025
# from a half-integer, the product is on the same side of it, so rint(s) is the
# mantissa "%.12e" prints and e its exponent.  Zeros, NaN and +-inf come from
# the tables too; the rest (near-ties, misses of log10, three-digit exponents:
# about 1 in 250) hold "%.12e" and go through Python's %, exact at any length.
# The package's tables lie within 1e-10 <= |x| < 1e5; a wider range would cost
# parsing more literals, 0.3 ms for |e| <= 280.  No value's bytes depend on its
# block; fcurve's first 1024 x 3 block takes 0.16 ms with 0.43 MB of scratch
# (best of 2000, 2 vCPUs); 512-row blocks halve the scratch but are no faster.
_BLOCK_ROWS = 1024
_E_MAX = 100      # |floor(log10|x|)| for 1e-99 <= |x| < 1e99, with log10's error
_TIE_BAND = 0.0025


@functools.cache
def _tables():
    """10**(12 - e) from literals; as uint32 words "0000" to "9999", "e+00" to
    "e-99" at e + _E_MAX (NUL at e = +-100), the heads "d." and "-d." at d and
    10 + d, and the whole slots of "%.12e", "nan", "inf" and "-inf"."""
    pow10 = np.array([float(f"1e{12 - e}") for e in range(-_E_MAX, _E_MAX + 1)])
    d = np.arange(ord("0"), ord("9") + 1, dtype="<u4")
    pairs = (d[:, None] << 16 | d << 24).ravel()      # "00" to "99" in the high half
    quads = np.bitwise_or.outer(pairs >> 16, pairs).ravel()
    exps = np.concatenate([[0], pairs[:0:-1] | 0x2d65, pairs | 0x2b65, [0]])  # "e-", "e+"
    heads = np.concatenate([d << 16 | 0x2e000000, d << 16 | 0x2e002d00])  # ".", "-."
    slots = np.frombuffer(b"".join(b"\0" + text.ljust(19, b"\0") for text in
                                   (b"%.12e", b"nan", b"inf", b"-inf")), "<u4")
    return pow10, quads, exps.astype("<u4"), heads, slots.reshape(4, 5)


def _format_block(block):
    """The bytes of block's rows, each value as "%.12e" formats it; no final newline."""
    pow10, quads, exps, heads, slots = _tables()
    a = np.abs(block)
    inside = (a >= 1e-99) & (a < 1e99)
    a = np.where(inside, a, 1.0)      # s = 1e12: not fast
    e = np.floor(np.log10(a)).astype(np.intp) + _E_MAX
    s = a * pow10[e]
    r = np.rint(s)
    fast = (s >= 1e12 + 1) & (s < 1e13 - 1) & (np.abs(s - r) < 0.5 - _TIE_BAND)
    q = np.where(fast, r, 0.0).astype(np.int64)
    lead, hi = q // 10**12, q // 10**8
    lo = q - hi * 10**8
    mid = lo // 10**4
    words = np.empty(block.shape + (5,), "<u4")
    words[..., 0] = heads[lead + 10 * np.signbit(block)]
    words[..., 1] = quads[hi - lead * 10**4]
    words[..., 2] = quads[mid]
    words[..., 3] = quads[lo - mid * 10**4]
    words[..., 4] = exps[e]
    slow = ()
    other = ~fast & (block != 0)
    if other.any():
        x = block[other]
        kind = np.where(np.isnan(x), 1, np.where(np.isinf(x), 2 + np.signbit(x), 0))
        words[other] = slots[kind]
        slow = tuple(x[kind == 0].tolist())
    separators = words.view(np.uint8)[..., 0]
    separators[...] = ord(" ")
    separators[:, 0] = ord("\n")
    separators[0, 0] = 0
    text = words.tobytes().translate(None, b"\0")
    return text % slow if slow else text
