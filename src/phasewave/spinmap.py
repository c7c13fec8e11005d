"""Angular-momentum belts on the sphere and their map to the phase plane.

A total angular momentum j is drawn as a sphere of radius
R = sqrt(j(j+1)); the 2j+1 eigenvalues of the axial component occupy unit
slabs z in [m - 1/2, m + 1/2], clamped at the poles.  By the hat-box
lemma all interior belts carry equal surface area.

The belts are sent to the oscillator phase plane by dropping them along
the axis onto the plane (the sphere's shadow) and scaling plane radii by
1/sqrt(R).  That scale is the unique one under which the slabs nearest
the south pole land on the oscillator annuli with edges sqrt(2n) as
j grows.  Away from the pole the shadow compresses the slabs, so the
images crowd together and their areas drop below 2*pi toward the equator,
where the correspondence with the equal-area oscillator annuli breaks
down; the northern hemisphere mirrors the southern picture exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

#: Most belts one sphere may carry: every belt is one Python object and row.
MAX_BELTS = 1_000_000


@dataclass(frozen=True)
class SpinSphere:
    """Sphere of radius sqrt(j(j+1)) carrying the 2j+1 axial belts."""

    j: float

    def __post_init__(self):
        two_j = 2.0 * self.j
        if not math.isfinite(two_j) or self.j < 0 or abs(two_j - round(two_j)) > 1e-12:
            raise ValidationError("j must be a nonnegative integer or half-integer")
        if two_j + 1.0 > MAX_BELTS:  # arithmetic only, before any belt is built
            raise ValidationError(
                f"{two_j + 1.0:.6g} belts exceed the limit of {MAX_BELTS}"
            )

    @property
    def radius(self) -> float:
        return math.sqrt(self.j * (self.j + 1.0))

    @property
    def multiplicity(self) -> int:
        return int(round(2.0 * self.j)) + 1


@dataclass(frozen=True)
class Belt:
    """Axial slab of the sphere holding one eigenvalue of the z-component."""

    m: float
    z_lo: float
    z_hi: float

    @property
    def width(self) -> float:
        return self.z_hi - self.z_lo


def _m_values(sphere: SpinSphere) -> list[float]:
    # (2k - 2j)/2 is exact in doubles below 2**53, so belt boundaries tile without gaps
    two_j = int(round(2.0 * sphere.j))
    return [(2 * k - two_j) / 2 for k in range(two_j + 1)]


def belts(j: float) -> list[Belt]:
    """The 2j+1 belts from the south pole up, tiling [-R, R]."""
    sphere = SpinSphere(j)
    r = sphere.radius
    out = []
    for m in _m_values(sphere):
        z_lo = max(-r, m - 0.5)
        z_hi = min(r, m + 0.5)
        out.append(Belt(m=m, z_lo=z_lo, z_hi=z_hi))
    return out


def project(j: float, z):
    """Scaled plane radius of the sphere point(s) at height z.

    Axial shadow of the sphere, sqrt(R^2 - z^2), scaled by 1/sqrt(R); both
    poles map to the origin and the equator to the outermost radius
    sqrt(R).  Heights beyond the sphere, and j = 0 (R = 0, no scale), are
    rejected.
    """
    sphere = SpinSphere(j)
    r = sphere.radius
    if r == 0.0:
        raise ValidationError("projection needs j > 0: the sphere of j = 0 has radius 0")
    z_arr = np.asarray(z, dtype=float)
    if np.any(np.abs(z_arr) > r + 1e-12):
        raise ValidationError(f"height |z| > sphere radius {r:.6g}")
    val = np.sqrt(np.maximum(0.0, r * r - z_arr * z_arr) / r)
    return float(val) if np.isscalar(z) or z_arr.ndim == 0 else val


def projected_band(j: float, n: int) -> tuple[float, float]:
    """Image annulus (rho_lo, rho_hi) of the n-th belt counted from the south.

    n runs over 0..2j with m = n - j; the two boundary images are returned
    in ascending order (beyond the equator the shadow radius decreases).
    """
    sphere = SpinSphere(j)
    if not 0 <= n <= sphere.multiplicity - 1:
        raise ValidationError(f"band index must lie in [0, {sphere.multiplicity - 1}]")
    belt = belts(j)[n]
    lo, hi = sorted(project(j, [belt.z_lo, belt.z_hi]).tolist())
    return lo, hi


def projected_band_area(j: float, n: int) -> float:
    """Area pi*(rho_hi^2 - rho_lo^2) between the two boundary images."""
    lo, hi = projected_band(j, n)
    return math.pi * (hi * hi - lo * lo)


def band_table(j: float):
    """Rows (n, m, rho_lo, rho_hi, area) over all 2j+1 bands.

    Neighbouring belts share an edge, so the 2j+2 edges are projected at once.
    """
    rows = belts(j)
    edges = project(j, [rows[0].z_lo] + [belt.z_hi for belt in rows])
    lo, hi = np.minimum(edges[:-1], edges[1:]), np.maximum(edges[:-1], edges[1:])
    area = math.pi * (hi * hi - lo * lo)
    bands = zip(rows, lo.tolist(), hi.tolist(), area.tolist())
    return [(n, belt.m, r_lo, r_hi, a) for n, (belt, r_lo, r_hi, a) in enumerate(bands)]
