"""Momentum-space structure of noncollinear degenerate photon pairs.

Subpackages map onto the pipeline: `crystal` (dispersion and phase
matching), `wavefunction` (pair parameters and the pump envelope),
`distributions` (y-reduced curves and the entanglement report, whose
lines hold the widths and the ratio R), `ringscan` (the detection-plane
scan simulator) and `cli` (the command-line front end).
"""

from .crystal import (
    CrystalDispersion,
    CrystalFileError,
    WavelengthRangeError,
    NoCollinearRootError,
    load_crystal,
    index_ordinary,
    phase_match,
    collinear_cut_angle,
    opening_angle_fit,
)
from .wavefunction import (
    SpdcParams,
    pump_envelope,
)
from .curves import Curve
from .distributions import (
    f_exact,
    f_approx,
    entanglement_report,
    reduced_bipartite,
    default_kappa_grid,
    single_particle_curve,
    coincidence_curve,
    plane_restricted_curve,
)
from .ringscan import (
    NoRingError,
    ring_from_params,
    sample_pairs,
    scan_single,
    scan_coincidence,
)

__version__ = "0.1.0"
