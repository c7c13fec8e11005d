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
from fractions import Fraction

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class SpinSphere:
    """Sphere of radius sqrt(j(j+1)) carrying the 2j+1 axial belts."""

    j: float

    def __post_init__(self):
        two_j = 2.0 * self.j
        if self.j < 0 or abs(two_j - round(two_j)) > 1e-12:
            raise ValidationError("j must be a nonnegative integer or half-integer")

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
    # exact half-integer arithmetic so belt boundaries tile without gaps
    two_j = int(round(2.0 * sphere.j))
    return [float(Fraction(-two_j + 2 * k, 2)) for k in range(two_j + 1)]


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


def belt_area(j: float, m: float) -> float:
    """Surface area 2*pi*R*(z_hi - z_lo) of the m-th belt (hat-box lemma)."""
    sphere = SpinSphere(j)
    for belt in belts(j):
        if abs(belt.m - m) < 1e-9:
            return 2.0 * math.pi * sphere.radius * belt.width
    raise ValidationError(f"m={m} is not an axial eigenvalue for j={j}")


def project(j: float, z):
    """Scaled plane radius of the sphere point(s) at height z.

    Axial shadow of the sphere, sqrt(R^2 - z^2), scaled by 1/sqrt(R); both
    poles map to the origin and the equator to the outermost radius
    sqrt(R).  Heights beyond the sphere are rejected.
    """
    sphere = SpinSphere(j)
    r = sphere.radius
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
    return _belt_image(j, belts(j)[n])


def _belt_image(j: float, belt: Belt) -> tuple[float, float]:
    """Projected edges of one belt, in ascending order."""
    lo, hi = sorted((project(j, belt.z_lo), project(j, belt.z_hi)))
    return lo, hi


def projected_band_area(j: float, n: int) -> float:
    """Area pi*(rho_hi^2 - rho_lo^2) between the two boundary images."""
    lo, hi = projected_band(j, n)
    return math.pi * (hi * hi - lo * lo)


def band_table(j: float):
    """Rows (n, m, rho_lo, rho_hi, area) over all 2j+1 bands."""
    rows = []
    for n, belt in enumerate(belts(j)):
        lo, hi = _belt_image(j, belt)
        rows.append((n, belt.m, lo, hi, math.pi * (hi * hi - lo * lo)))
    return rows


def convergence_report(j_values, n: int) -> dict:
    """Boundary radius of band n under growing j, against sqrt(2n).

    The lower-boundary image of band n approaches the oscillator band edge
    sqrt(2n) from below as j grows.
    """
    if n < 1:
        raise ValidationError("convergence is tracked for band indices >= 1")
    radii = []
    for j in j_values:
        if n > SpinSphere(j).multiplicity - 1:
            raise ValidationError(f"band {n} does not exist for j={j}")
        radii.append(projected_band(j, n)[0])
    return {
        "J_values": [float(j) for j in j_values],
        "n": int(n),
        "radii": radii,
        "target": math.sqrt(2.0 * n),
    }
