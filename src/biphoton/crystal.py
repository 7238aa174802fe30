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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources

__all__ = [
    "CrystalDispersion",
    "CutConfig",
    "PhaseMatchResult",
    "CrystalFileError",
    "WavelengthRangeError",
    "NoCollinearRootError",
    "load_crystal",
    "index_ordinary",
    "index_extraordinary",
    "pump_index",
    "phase_match",
    "collinear_cut_angle",
    "opening_angle_fit",
]

# Interpolation formula for the cone opening angle vs cut angle,
# theta0 = FIT_SCALE * sqrt(phi0 - FIT_THRESHOLD); valid above the
# collinear threshold only.
FIT_SCALE = 0.63
FIT_THRESHOLD = 0.5008

MICRON_TO_CM = 1e-4


class CrystalFileError(ValueError):
    """Malformed crystal coefficient file; carries a line number."""

    def __init__(self, message, path="<unknown>", line=0):
        super().__init__(f"{path}:{line}: {message}")
        self.path = str(path)
        self.line = line


class WavelengthRangeError(ValueError):
    """Wavelength outside the validity range of the Sellmeier fit."""


class NoCollinearRootError(ValueError):
    """The index difference does not change sign on the search interval."""


@dataclass(frozen=True)
class CrystalDispersion:
    """Sellmeier coefficient sets for one uniaxial crystal.

    sellmeier_o / sellmeier_e are (a, b, c, d) tuples; valid_range is
    the (min, max) wavelength interval in micrometers over which the
    fits may be evaluated.
    """

    name: str
    sellmeier_o: tuple[float, float, float, float]
    sellmeier_e: tuple[float, float, float, float]
    valid_range: tuple[float, float]

    def __post_init__(self):
        lo, hi = self.valid_range
        if not (0.0 < lo < hi):
            raise ValueError(f"invalid wavelength range {self.valid_range}")
        if len(self.sellmeier_o) != 4 or len(self.sellmeier_e) != 4:
            raise ValueError("Sellmeier sets must hold exactly 4 coefficients")


@dataclass(frozen=True)
class CutConfig:
    """Crystal cut: angle between optical axis and pump axis, plus pump wavelength."""

    phi0: float      # rad, in [0, pi/2]
    lambda_p: float  # um

    def __post_init__(self):
        if not 0.0 <= self.phi0 <= math.pi / 2:
            raise ValueError(f"phi0 = {self.phi0} outside [0, pi/2]")
        if not 0.0 < self.lambda_p < math.inf:
            raise ValueError("lambda_p must be positive and finite")


@dataclass(frozen=True)
class PhaseMatchResult:
    """Indices and mismatch for a frequency-degenerate type-I process.

    delta_n = n_p - n_o(2 lambda_p); delta0 is the corresponding
    zero-order longitudinal mismatch in cm^-1.  theta0 (the cone
    opening angle, rad) is present exactly when delta_n < 0; on the
    collinear-impossible side it is None.
    """

    n_p: float
    n_o_signal: float
    delta_n: float
    delta0: float
    theta0: float | None


def _sellmeier(coeffs, lam):
    a, b, c, d = coeffs
    lam2 = lam * lam
    n2 = a + b / (lam2 - c) - d * lam2
    if n2 <= 0.0:
        raise WavelengthRangeError(f"Sellmeier form non-physical at {lam} um")
    return math.sqrt(n2)


def _check_range(disp, lam):
    lo, hi = disp.valid_range
    if not lo <= lam <= hi:
        raise WavelengthRangeError(
            f"{lam} um outside {disp.name} validity range [{lo}, {hi}] um")


def index_ordinary(disp, lam):
    """Ordinary-ray refractive index at wavelength lam (um)."""
    _check_range(disp, lam)
    return _sellmeier(disp.sellmeier_o, lam)


def index_extraordinary(disp, lam):
    """Principal extraordinary-ray index (propagation normal to the optical axis)."""
    _check_range(disp, lam)
    return _sellmeier(disp.sellmeier_e, lam)


def pump_index(disp, cfg):
    """Effective pump index for an extraordinary pump tilted by phi0 from the optical axis.

    n_p = n_o n_e / sqrt(n_o^2 sin^2 phi0 + n_e^2 cos^2 phi0), indices
    evaluated at the pump wavelength.  phi0 = 0 recovers n_o, phi0 =
    pi/2 recovers n_e.
    """
    n_o = index_ordinary(disp, cfg.lambda_p)
    n_e = index_extraordinary(disp, cfg.lambda_p)
    s, c = math.sin(cfg.phi0), math.cos(cfg.phi0)
    return n_o * n_e / math.sqrt(n_o * n_o * s * s + n_e * n_e * c * c)


def phase_match(disp, cfg):
    """Index difference, zero-order mismatch and cone opening angle for a given cut.

    The emitted (ordinary) photons live at twice the pump wavelength,
    which must also lie inside the dispersion validity range.
    """
    n_p = pump_index(disp, cfg)
    n_o_s = index_ordinary(disp, 2.0 * cfg.lambda_p)
    delta_n = n_p - n_o_s
    delta0 = 2.0 * math.pi / (cfg.lambda_p * MICRON_TO_CM) * delta_n
    theta0 = math.sqrt(-2.0 * n_o_s * delta_n) if delta_n < 0.0 else None
    return PhaseMatchResult(n_p=n_p, n_o_signal=n_o_s, delta_n=delta_n,
                            delta0=delta0, theta0=theta0)


def collinear_cut_angle(disp, lambda_p, bracket=(1e-6, math.pi / 2 - 1e-6)):
    """Cut angle at which the index difference vanishes (collinear degeneracy).

    Parameters
    ----------
    disp : CrystalDispersion
    lambda_p : float
        Pump wavelength, um.
    bracket : (float, float)
        Search interval in phi0; the index difference must change sign
        across it, otherwise NoCollinearRootError is raised.

    Bisection is run to 1e-12 in angle, followed by a single secant
    polish; the residual index difference at the returned angle is
    below 1e-10.
    """
    def dn(phi):
        return phase_match(disp, CutConfig(phi0=phi, lambda_p=lambda_p)).delta_n

    lo, hi = bracket
    f_lo, f_hi = dn(lo), dn(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if f_lo * f_hi > 0.0:
        raise NoCollinearRootError(
            f"index difference does not change sign on [{lo}, {hi}]")
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        f_mid = dn(mid)
        if f_mid == 0.0:
            return mid
        if f_lo * f_mid < 0.0:
            hi, f_hi = mid, f_mid
        else:
            lo, f_lo = mid, f_mid
    # one secant step inside the final bracket
    root = lo - f_lo * (hi - lo) / (f_hi - f_lo)
    return min(max(root, lo), hi)


def opening_angle_fit(phi0):
    """Square-root interpolation of the cone opening angle above the collinear cut.

    Only defined for phi0 >= the fitted threshold angle; below it the
    emission cone does not exist and a ValueError is raised.
    """
    if phi0 < FIT_THRESHOLD:
        raise ValueError(
            f"phi0 = {phi0} below the collinear threshold {FIT_THRESHOLD}")
    return FIT_SCALE * math.sqrt(phi0 - FIT_THRESHOLD)


def _parse_floats(raw, n, what, path, lineno):
    parts = raw.split()
    try:
        vals = tuple(float(p) for p in parts)
    except ValueError:
        raise CrystalFileError(f"non-numeric value in {what}: {raw!r}",
                               path, lineno) from None
    if len(vals) != n:
        raise CrystalFileError(
            f"{what} needs {n} numbers, got {len(vals)}", path, lineno)
    return vals


def load_crystal(path=None):
    """Parse a crystal coefficient file; with no path, load the bundled BBO set.

    The format is line-oriented `key = value` text with `#` comments.
    Required keys: name, sellmeier_o (4 floats), sellmeier_e (4 floats),
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
        except OSError as exc:
            raise CrystalFileError(f"cannot read file: {exc}", path, 0) from None

    fields = {}
    lines_seen = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise CrystalFileError(f"expected 'key = value', got {stripped!r}",
                                   path, lineno)
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        if key in fields:
            raise CrystalFileError(f"duplicate key {key!r} (first on line "
                                   f"{lines_seen[key]})", path, lineno)
        fields[key] = raw
        lines_seen[key] = lineno

    for required in ("name", "sellmeier_o", "sellmeier_e", "valid_range"):
        if required not in fields:
            raise CrystalFileError(f"missing required key {required!r}",
                                   path, len(text.splitlines()))

    unknown = set(fields) - {"name", "sellmeier_o", "sellmeier_e", "valid_range"}
    if unknown:
        key = sorted(unknown)[0]
        raise CrystalFileError(f"unknown key {key!r}", path, lines_seen[key])

    so = _parse_floats(fields["sellmeier_o"], 4, "sellmeier_o", path,
                       lines_seen["sellmeier_o"])
    se = _parse_floats(fields["sellmeier_e"], 4, "sellmeier_e", path,
                       lines_seen["sellmeier_e"])
    vr = _parse_floats(fields["valid_range"], 2, "valid_range", path,
                       lines_seen["valid_range"])
    try:
        return CrystalDispersion(name=fields["name"], sellmeier_o=so,
                                 sellmeier_e=se, valid_range=vr)
    except ValueError as exc:
        raise CrystalFileError(str(exc), path, lines_seen["valid_range"]) from None
