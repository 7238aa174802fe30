"""Uniaxial crystal dispersion and type-I phase matching.

Conventions used throughout: wavelengths in micrometers, angles in
radians, inverse lengths in cm^-1.  The pump propagates along the z
axis and the crystal's optical axis is tilted from z by the cut angle
phi0.  The tilt angle seen by the pump wave vector is taken equal to
phi0 itself (pump walk-off neglected), which is adequate whenever the
emission cone is not vanishingly narrow.

Refractive indices follow the four-coefficient Sellmeier form

    n^2(lam) = a + b / (lam^2 - c) - d * lam^2        (lam in um)

with separate coefficient sets for the ordinary and the extraordinary
ray.  Coefficient sets are loaded from a small key-value text file; the
BBO set bundled with the package is the standard handbook one and
reproduces the usual tabulated indices at 0.4047 um and 0.8094 um to
five decimal places.

Indices are taken at one wavelength at a time; the cut angle phi0 may
be a number or an array, so a whole sweep of cuts is one phase_match
call.  A number in gives Python floats out.  The collinear cut angle
phi_c, where the index difference vanishes, has a closed form, and so
has the cone's square-root law just above it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

__all__ = [
    "CrystalDispersion",
    "CrystalFileError",
    "WavelengthRangeError",
    "NoCollinearRootError",
    "load_crystal",
    "index_ordinary",
    "index_extraordinary",
    "phase_match",
    "collinear_cut_angle",
    "opening_angle_fit",
]

MICRON_TO_CM = 1e-4

# the keys of a crystal file: name, then the number fields of CrystalDispersion
_CRYSTAL_KEYS = ("name", "sellmeier_o", "sellmeier_e", "valid_range")


class CrystalFileError(ValueError):
    """Malformed crystal coefficient file; carries a line number."""

    def __init__(self, message, path="<unknown>", line=0):
        super().__init__(f"{path}:{line}: {message}")
        self.line = line


class WavelengthRangeError(ValueError):
    """Wavelength outside the validity range of the Sellmeier fit."""


class NoCollinearRootError(ValueError):
    """No cut angle in [0, pi/2] makes the index difference vanish."""


@dataclass(frozen=True)
class CrystalDispersion:
    """Sellmeier coefficient sets for one uniaxial crystal.

    sellmeier_o / sellmeier_e are (a, b, c, d) tuples; valid_range is
    the (min, max) wavelength interval in micrometers over which the
    fits may be evaluated.  Every number must be finite.
    """

    name: str
    sellmeier_o: tuple[float, float, float, float]
    sellmeier_e: tuple[float, float, float, float]
    valid_range: tuple[float, float]

    def __post_init__(self):
        # each message starts with its field, which load_crystal maps to a line
        for key, size in (("sellmeier_o", 4), ("sellmeier_e", 4),
                          ("valid_range", 2)):
            values = getattr(self, key)
            if len(values) != size or not all(map(math.isfinite, values)):
                raise ValueError(f"{key} needs {size} finite numbers, got {values}")
        lo, hi = self.valid_range
        if not 0.0 < lo < hi:
            raise ValueError(f"valid_range {self.valid_range} is not an interval "
                             "0 < min < max")


def _sellmeier(coeffs, lam):
    a, b, c, d = coeffs
    lam2 = lam * lam
    # a pole of the form at lam (lam^2 == c) is as non-physical as n^2 <= 0
    n2 = a + b / (lam2 - c) - d * lam2 if lam2 != c else math.nan
    if not 0.0 < n2 < math.inf:
        raise WavelengthRangeError(f"Sellmeier form non-physical at {lam} um")
    return math.sqrt(n2)


def _check_range(disp, lam):
    lo, hi = disp.valid_range
    if not lo <= lam <= hi:
        raise WavelengthRangeError(
            f"{lam} um outside {disp.name} validity range [{lo}, {hi}] um")


def _like(phi, value):
    """value as a Python float when the cut angle phi is 0-d, else as is."""
    return float(value) if phi.ndim == 0 else value


def index_ordinary(disp, lam):
    """Ordinary-ray refractive index at wavelength lam (um)."""
    _check_range(disp, lam)
    return _sellmeier(disp.sellmeier_o, lam)


def index_extraordinary(disp, lam):
    """Principal extraordinary-ray index (propagation normal to the optical axis)."""
    _check_range(disp, lam)
    return _sellmeier(disp.sellmeier_e, lam)


def phase_match(disp, phi0, lambda_p):
    """(delta_n, theta0), the index difference and cone angle at cut angle(s) phi0.

    The extraordinary pump, tilted by phi0 from the optical axis, has the
    index n_p = n_o n_e / sqrt(n_o^2 sin^2 phi0 + n_e^2 cos^2 phi0) at
    lambda_p (um): n_o at phi0 = 0, n_e at pi/2.  With N = n_o(2 lambda_p),
    delta_n = n_p - N and theta0 = sqrt(-2 N delta_n), NaN wherever
    delta_n >= 0; both take phi0's shape, floats for a number.  A wavelength
    outside the crystal's range raises WavelengthRangeError, and one element
    of phi0 outside [0, pi/2] (or NaN) ValueError for the whole call.
    """
    phi = np.asarray(phi0, dtype=float)
    inside = (phi >= 0.0) & (phi <= math.pi / 2)
    if not inside.all():
        raise ValueError(f"phi0 = {phi[~inside].flat[0]} outside [0, pi/2]")
    n_o = index_ordinary(disp, lambda_p)
    n_e = index_extraordinary(disp, lambda_p)
    s, c = np.sin(phi), np.cos(phi)
    n_p = n_o * n_e / np.sqrt(n_o * n_o * s * s + n_e * n_e * c * c)
    big_n = index_ordinary(disp, 2.0 * lambda_p)
    delta_n = n_p - big_n
    theta0 = np.sqrt(np.where(delta_n < 0.0, -2.0 * big_n * delta_n, math.nan))
    return _like(phi, delta_n), _like(phi, theta0)


def collinear_cut_angle(disp, lambda_p):
    """Cut angle at which the index difference vanishes (collinear degeneracy).

    n_p(phi_c) = N = n_o(2 lambda_p) solves in closed form:

        sin^2 phi_c = (n_o^2 n_e^2 / N^2 - n_e^2) / (n_o^2 - n_e^2),

    with n_o, n_e at the pump wavelength lambda_p (um).  Raises
    NoCollinearRootError unless 0 <= sin^2 phi_c <= 1, which covers
    n_o = n_e (no birefringence, no cut).
    """
    n_o = index_ordinary(disp, lambda_p)
    n_e = index_extraordinary(disp, lambda_p)
    big_n = index_ordinary(disp, 2.0 * lambda_p)
    span = n_o * n_o - n_e * n_e
    sin2 = ((n_o * n_o * n_e * n_e / (big_n * big_n) - n_e * n_e) / span
            if span else math.nan)
    if not 0.0 <= sin2 <= 1.0:
        raise NoCollinearRootError(
            f"sin^2 of the cut angle would be {sin2!r}, outside [0, 1]")
    return math.asin(math.sqrt(sin2))


def opening_angle_fit(disp, phi0, lambda_p):
    """Cone opening angle by the square-root law C sqrt(phi0 - phi_c).

    Near the collinear cut phi_c, delta_n is linear in phi0 - phi_c, so
    theta0^2 = -2 N delta_n gives C^2 = -2 N dn_p/dphi at phi_c, with
    N = n_o(2 lambda_p) = n_p(phi_c) and, from phase_match's n_p,
    dn_p/dphi = -n_p^3 (n_o^2 - n_e^2) sin phi cos phi / (n_o n_e)^2.
    The cone opens where C^2 (phi0 - phi_c) >= 0, and there the law is
    |C| sqrt|phi0 - phi_c|.  phi0 is a number or an array; an element
    elsewhere (or NaN) raises ValueError.
    """
    phi = np.asarray(phi0, dtype=float)
    cut = collinear_cut_angle(disp, lambda_p)
    n_o, n_e = index_ordinary(disp, lambda_p), index_extraordinary(disp, lambda_p)
    big_n = index_ordinary(disp, 2.0 * lambda_p)
    c2 = big_n ** 4 * (n_o * n_o - n_e * n_e) * math.sin(2.0 * cut) / (n_o * n_e) ** 2
    opens = c2 * (phi - cut) >= 0.0
    if not opens.all():
        raise ValueError(f"no cone opens at phi0 = {phi[~opens].flat[0]} (cut {cut})")
    return _like(phi, np.sqrt(abs(c2) * np.abs(phi - cut)))


def read_keys(text, known, fail):
    """The `key = value` lines of text, as {key: (raw value, line number)}.

    `#` starts a comment; blank lines are skipped.  A line without `=`,
    a key not in known, or a key given twice raises fail(message, line).
    """
    fields = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        key, eq, raw = stripped.partition("=")
        key = key.strip()
        if not eq:
            raise fail(f"expected 'key = value', got {stripped!r}", lineno)
        if key not in known:
            raise fail(f"unknown key {key!r}", lineno)
        if key in fields:
            raise fail(f"duplicate key {key!r} (first on line {fields[key][1]})",
                       lineno)
        fields[key] = (raw.strip(), lineno)
    return fields


def load_crystal(path=None):
    """Parse a crystal coefficient file; with no path, load the bundled BBO set.

    The format is line-oriented `key = value` text with `#` comments,
    read by read_keys as the CLI reads its config files.  Keys, all
    required: name, sellmeier_o (4 floats), sellmeier_e (4 floats),
    valid_range (2 floats, um).  Any malformed line raises
    CrystalFileError carrying the offending line number.
    """
    if path is None:
        ref = resources.files("biphoton").joinpath("data/bbo.crystal")
        text = ref.read_text(encoding="utf-8")
        path = "biphoton/data/bbo.crystal"
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise CrystalFileError(f"cannot read file: {exc}", path, 0) from None

    fields = read_keys(text, _CRYSTAL_KEYS,
                       lambda message, line: CrystalFileError(message, path, line))
    for required in _CRYSTAL_KEYS:
        if required not in fields:
            raise CrystalFileError(f"missing required key {required!r}",
                                   path, len(text.splitlines()))
    numbers = {}
    for key in _CRYSTAL_KEYS[1:]:
        raw, line = fields[key]
        try:
            numbers[key] = tuple(float(p) for p in raw.split())
        except ValueError:
            raise CrystalFileError(f"non-numeric value in {key}: {raw!r}",
                                   path, line) from None
    try:
        return CrystalDispersion(name=fields["name"][0], **numbers)
    except ValueError as exc:
        # each message starts with the field at fault
        key = str(exc).split(" ", 1)[0]
        raise CrystalFileError(str(exc), path, fields[key][1]) from None
