"""Sampled 1-D distribution curves: normalization, moments, widths, file I/O.

A Curve is a strictly increasing abscissa grid plus nonnegative values.
Abscissae are dimensionless momenta (lam*k/pi, xunit "kappa"), wave
numbers (xunit "cm^-1") or detection-plane positions (xunit "cm"); the
unit tag travels with the data.  write_table writes every table of the
package: `#` header lines, then space-separated rows.  A curve's header
carries its unit tag, its normalization tag and a metadata echo.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

__all__ = ["Curve", "read_curve", "write_table"]

NORMALIZATIONS = ("raw", "unit-area", "unit-peak")
XUNITS = ("kappa", "cm^-1", "cm")


@dataclass(frozen=True)
class Curve:
    x: np.ndarray
    y: np.ndarray
    xunit: str = "kappa"
    normalization: str = "raw"
    meta: dict = field(default_factory=dict)

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
        if self.normalization not in NORMALIZATIONS:
            raise ValueError(f"unknown normalization {self.normalization!r}")
        if self.xunit not in XUNITS:
            raise ValueError(f"unknown xunit {self.xunit!r}")

    def area(self):
        """Trapezoid integral of the curve over its grid."""
        return float(np.trapezoid(self.y, self.x))

    def peak(self):
        return float(self.y.max())

    def normalized(self, mode="unit-area"):
        """Return a copy rescaled to unit trapezoid area or unit peak."""
        if mode == "raw":
            return self
        if mode == "unit-area":
            scale = self.area()
        elif mode == "unit-peak":
            scale = self.peak()
        else:
            raise ValueError(f"unknown normalization {mode!r}")
        if scale <= 0:
            raise ValueError("cannot normalize an all-zero curve")
        return replace(self, y=self.y / scale, normalization=mode)

    def mean(self):
        w = np.trapezoid(self.y, self.x)
        return float(np.trapezoid(self.x * self.y, self.x) / w)

    def rms_width(self):
        """Square root of the second central moment, curve taken as a density."""
        w = np.trapezoid(self.y, self.x)
        m2 = np.trapezoid((self.x - self.mean()) ** 2 * self.y, self.x) / w
        return float(np.sqrt(m2))

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
        half = 0.5 * held[-1]
        last = int(np.searchsorted(held, half))
        before = held[last - 1] if last else 0.0
        return float(cell[order][:last].sum()
                     + (half - before) / mass[last] * cell[order][last])

    def header_lines(self, extra=()):
        lines = ["biphoton curve",
                 f"xunit: {self.xunit}",
                 f"normalization: {self.normalization}"]
        for key in sorted(self.meta):
            lines.append(f"meta: {key}={self.meta[key]}")
        lines.extend(extra)
        return lines

    def write(self, path, extra_header=()):
        write_table(path, self.header_lines(extra_header), [self.x, self.y])


def write_table(path, header_lines, columns):
    """Write `# `-prefixed header lines, then the columns side by side, one row per line."""
    row = " ".join(["%.12e"] * len(columns)) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        for values in zip(*columns):
            fh.write(row % values)


def read_curve(path):
    """Round-trip loader for Curve.write output."""
    xunit, normalization, meta = "kappa", "raw", {}
    xs, ys = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("xunit:"):
                    xunit = body.split(":", 1)[1].strip()
                elif body.startswith("normalization:"):
                    normalization = body.split(":", 1)[1].strip()
                elif body.startswith("meta:"):
                    kv = body.split(":", 1)[1].strip()
                    if "=" in kv:
                        k, _, v = kv.partition("=")
                        meta[k.strip()] = v.strip()
                continue
            sx, sy = line.split()
            xs.append(float(sx))
            ys.append(float(sy))
    return Curve(x=np.array(xs), y=np.array(ys), xunit=xunit,
                 normalization=normalization, meta=meta)
