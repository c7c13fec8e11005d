"""Phase-space quasiprobability and zone-construction numerics.

Every quantity of interest is computed along two independent routes that
are cross-checked in the test suite: the Wigner function by Fourier
integral and by alternating parity sum, the diffracted field by direct
surface integral and by alternating zone sum, occupation statistics by
operator algebra and by overlap areas, and oscillator annuli as the
large-j limit of projected sphere belts.

Public names are imported from their submodule on first use (PEP 562), so
importing the package, or the CLI, loads no numerics and no numpy.
"""

import importlib

__version__ = "0.1.0"

#: Every public name, listed once under the submodule that defines it.
_EXPORTS = {
    "errors": (
        "ContainmentError", "NumericsError", "PhasewaveError", "QuadratureError",
        "TruncationError", "ValidationError",
    ),
    "fock": (
        "EPS_TAIL", "DensityMatrix", "FockState", "coherent_amplitudes",
        "default_cutoff", "displacement_certified_span", "energy_distribution",
    ),
    "field": ("PhaseGrid", "WignerField"),
    "wigner": (
        "UV_TO_ALPHA", "ContainmentWarning", "ConventionReport", "ParitySum",
        "alpha_from_uv", "convention_check",
        "parity_sum", "radon_slice", "rotated_quadrature",
        "wigner_direct", "wigner_parity", "wigner_values",
    ),
    "semiclassics": (
        "Band", "OverlapComparison", "band", "circle_circle_lens",
        "compare_poisson", "overlap_distribution", "poisson_pmf",
    ),
    "fresnel": (
        "FresnelGeometry", "fit_zone_scaling", "huygens_integral",
        "zone_boundary_angle", "zone_contribution", "zone_plate", "zone_sum",
        "zone_table",
    ),
    "spinmap": (
        "Belt", "SpinSphere", "belts", "band_table", "project", "projected_band",
        "projected_band_area",
    ),
}

_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_ORIGIN)


def __getattr__(name):
    """Import a public name, or a numerics submodule, on its first lookup."""
    if name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    elif name in _ORIGIN:
        value = getattr(importlib.import_module(f".{_ORIGIN[name]}", __name__), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
