"""Phase-space quasiprobability and zone-construction numerics.

Every quantity of interest is computed along two independent routes that
are cross-checked in the test suite: the Wigner function by Fourier
integral and by alternating parity sum, the diffracted field by direct
surface integral and by alternating zone sum, occupation statistics by
operator algebra and by overlap areas, and oscillator annuli as the
large-j limit of projected sphere belts.
"""

from .errors import (
    ContainmentError,
    GridMismatchError,
    NumericsError,
    PhasewaveError,
    QuadratureError,
    TruncationError,
    ValidationError,
)
from .fock import (
    EPS_TAIL,
    DensityMatrix,
    FockState,
    coherent_amplitudes,
    default_cutoff,
    displacement_certified_span,
    energy_distribution,
    position_wavefunction,
)
from .wigner import (
    UV_TO_ALPHA,
    ContainmentWarning,
    ConventionReport,
    ParitySum,
    PhaseGrid,
    WignerField,
    alpha_from_uv,
    convention_check,
    overlap_trace,
    parity_sum,
    radon_slice,
    rotated_quadrature,
    wigner_direct,
    wigner_parity,
    wigner_values,
)
from .semiclassics import (
    Band,
    Disc,
    OverlapComparison,
    band,
    circle_circle_lens,
    compare_poisson,
    overlap_distribution,
    poisson_pmf,
)
from .fresnel import (
    FresnelGeometry,
    Zone,
    fit_zone_scaling,
    huygens_integral,
    inclination,
    zone,
    zone_boundary_angle,
    zone_contribution,
    zone_plate,
    zone_sum,
    zone_table,
)
from .spinmap import (
    Belt,
    SpinSphere,
    belts,
    band_table,
    project,
    projected_band,
    projected_band_area,
)

__version__ = "0.1.0"

__all__ = [
    "Band",
    "Belt",
    "ContainmentError",
    "ContainmentWarning",
    "ConventionReport",
    "DensityMatrix",
    "Disc",
    "EPS_TAIL",
    "FockState",
    "FresnelGeometry",
    "GridMismatchError",
    "NumericsError",
    "OverlapComparison",
    "ParitySum",
    "PhaseGrid",
    "PhasewaveError",
    "QuadratureError",
    "SpinSphere",
    "TruncationError",
    "UV_TO_ALPHA",
    "ValidationError",
    "WignerField",
    "Zone",
    "alpha_from_uv",
    "band",
    "band_table",
    "belts",
    "circle_circle_lens",
    "coherent_amplitudes",
    "compare_poisson",
    "convention_check",
    "default_cutoff",
    "displacement_certified_span",
    "energy_distribution",
    "fit_zone_scaling",
    "huygens_integral",
    "inclination",
    "overlap_distribution",
    "overlap_trace",
    "parity_sum",
    "poisson_pmf",
    "position_wavefunction",
    "project",
    "projected_band",
    "projected_band_area",
    "radon_slice",
    "rotated_quadrature",
    "wigner_direct",
    "wigner_parity",
    "wigner_values",
    "zone",
    "zone_boundary_angle",
    "zone_contribution",
    "zone_plate",
    "zone_sum",
    "zone_table",
]
