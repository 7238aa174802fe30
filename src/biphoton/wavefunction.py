"""Pair parameters and the pump factor of the transverse-momentum pair amplitude.

The model is degenerate type-I emission.  The two photons are described
by the four Cartesian transverse wave-vector components (k1x, k2x, k1y,
k2y), all in cm^-1, and the real, unnormalized amplitude factorizes into
a Gaussian pump envelope in the summed components and a sinc of the
longitudinal phase mismatch, which depends only on the squared
magnitude of the difference components:

    psi = exp(-w_p^2 (k+x^2 + k+y^2) / 2)
          * sinc( (pi L / 8 n_o lam) * (4 theta0^2 - kappa-x^2 - kappa-y^2) )

with kappa = lam * k / pi the dimensionless momentum (lam converted to
cm once, here).  Constant prefactors are dropped; normalization is
applied only at the curve level.  The package never evaluates psi
itself: distributions reduces it (with the one factor here,
pump_envelope) and ringscan samples it exactly.  The tests evaluate the
4-D amplitude as an independent oracle of those reductions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .crystal import MICRON_TO_CM, index_ordinary, phase_match

__all__ = [
    "SpdcParams",
    "pump_envelope",
]


# The model's domain, stated here alone: paraxial type-I emission of an
# optical pump, lambda_p >= 0.2 um, from a waist lambda_p/(2 pi) < w_p <= 1 cm
# through a crystal lambda_p <= L <= 100 cm long into a cone 0 <= theta0 < pi/2,
# seen in the far field, 1 cm <= z <= 1 km (SpdcParams and ring_from_params
# refuse the rest).  There S = pi L/(8 n_o lambda) < 2.0e6, every
# |u| = S |4 theta0^2 - kappa^2| a command forms is below 2e8, and the
# momentum grid's 1.5 sqrt(lambda/L) below 1.5, far from the float range.
_LAMBDA_MIN, _WAIST_MAX, _LENGTH_MAX = 0.2, 1.0, 100.0
_Z_MIN, _Z_MAX = 1.0, 1e5


@dataclass(frozen=True)
class SpdcParams:
    """Physical configuration of one down-conversion setup.

    lambda_p : pump wavelength, um, at least _LAMBDA_MIN
    w_p      : pump waist, cm, above lambda_p/(2 pi) and at most _WAIST_MAX
    L        : crystal length, cm, at least lambda_p and at most _LENGTH_MAX
    theta0   : cone opening angle, rad, in [0, pi/2) (0 in the collinear regime)
    n_o      : ordinary index of the emitted photons, i.e. at 2*lambda_p
    """

    lambda_p: float
    w_p: float
    L: float
    theta0: float
    n_o: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.lambda_p, self.w_p, self.L,
                                       self.theta0, self.n_o))):
            raise ValueError("lambda_p, w_p, L, theta0 and n_o must all be finite")
        if self.lambda_p < _LAMBDA_MIN:
            raise ValueError(f"lambda_p = {self.lambda_p!r} um under {_LAMBDA_MIN} um")
        if not 0.0 < self.w_p <= _WAIST_MAX:
            raise ValueError(f"waist w_p = {self.w_p!r} cm not in (0, {_WAIST_MAX}] cm")
        if not self.lambda_cm <= self.L <= _LENGTH_MAX:
            raise ValueError(f"length L = {self.L!r} cm not in [{self.lambda_cm!r}, "
                             f"{_LENGTH_MAX}] cm, from one pump wavelength")
        if not 0.0 <= self.theta0 < math.pi / 2:
            # a cone opens by less than a right angle
            raise ValueError(f"theta0 must lie in [0, pi/2), got {self.theta0!r}")
        if self.n_o <= 1.0:
            raise ValueError("n_o must exceed 1")
        if 0.5 / self.w_p >= math.pi / self.lambda_cm:
            # the pump's momentum spread would pass the photon wavenumber
            raise ValueError(f"pump waist w_p = {self.w_p!r} cm is not above "
                             "lambda_p/(2 pi)")

    @property
    def lambda_cm(self):
        """Pump wavelength in cm (single conversion point for all formulas)."""
        return self.lambda_p * MICRON_TO_CM

    @property
    def sinc_scale(self):
        """Dimensionless gain pi*L/(8 n_o lambda_p) multiplying the mismatch."""
        return math.pi * self.L / (8.0 * self.n_o * self.lambda_cm)

    def kappa(self, k):
        """Dimensionless momentum lam*k/pi for k in cm^-1."""
        return self.lambda_cm * np.asarray(k) / math.pi

    def k_from_kappa(self, kappa):
        """Inverse of kappa(): cm^-1 from the dimensionless momentum."""
        return math.pi * np.asarray(kappa) / self.lambda_cm

    @classmethod
    def from_crystal(cls, disp, lambda_p, w_p, L, *, phi0=None, theta0=None):
        """Build params from a dispersion set plus either a cut angle or an explicit cone angle.

        Exactly one of phi0 / theta0 must be given.  With phi0 the cone
        angle comes from phase_match (a cut on the collinear-impossible
        side raises ValueError); either way the signal index n_o is
        read from the crystal data at 2 lambda_p.
        """
        if (phi0 is None) == (theta0 is None):
            raise ValueError("provide exactly one of phi0 / theta0")
        if theta0 is None:
            delta_n, theta0 = phase_match(disp, phi0, lambda_p)
            if math.isnan(theta0):
                raise ValueError(
                    f"no emission cone at phi0 = {phi0} (index difference "
                    f"{delta_n:+.3e} >= 0)")
        n_o = index_ordinary(disp, 2.0 * lambda_p)
        return cls(lambda_p=lambda_p, w_p=w_p, L=L, theta0=theta0, n_o=n_o)


def pump_envelope(k_plus_x, params):
    """Gaussian pump envelope exp(-w_p^2 k+x^2/2) in the plane k+y = 0, unnormalized."""
    kx = np.asarray(k_plus_x, dtype=float)
    w2 = params.w_p * params.w_p
    return np.exp(-0.5 * w2 * (kx * kx))
