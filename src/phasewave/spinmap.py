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
from collections import namedtuple

from .errors import ValidationError

#: Most belts one sphere may carry: every belt is one Python object and row.
MAX_BELTS = 1_000_000


class SpinSphere(namedtuple("SpinSphere", "j")):
    """Sphere of radius sqrt(j(j+1)) carrying the 2j+1 axial belts."""

    __slots__ = ()

    def __new__(cls, j):
        self = super().__new__(cls, j)
        two_j = 2.0 * self.j
        if not math.isfinite(two_j) or self.j < 0 or abs(two_j - round(two_j)) > 1e-12:
            raise ValidationError("j must be a nonnegative integer or half-integer")
        if two_j + 1.0 > MAX_BELTS:  # arithmetic only, before any belt is built
            raise ValidationError(
                f"{two_j + 1.0:.6g} belts exceed the limit of {MAX_BELTS}"
            )
        return self

    @property
    def radius(self) -> float:
        return math.sqrt(self.j * (self.j + 1.0))

    @property
    def multiplicity(self) -> int:
        return int(round(2.0 * self.j)) + 1


class Belt(namedtuple("Belt", "m z_lo z_hi")):
    """Axial slab of the sphere holding one eigenvalue of the z-component."""

    __slots__ = ()

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
    return [Belt(m, max(-r, m - 0.5), min(r, m + 0.5)) for m in _m_values(sphere)]


def project(j: float, z):
    """Scaled plane radius of the sphere point(s) at height z.

    Axial shadow of the sphere, sqrt(R^2 - z^2), scaled by 1/sqrt(R); both
    poles map to the origin and the equator to the outermost radius
    sqrt(R).  A scalar height gives a float, a sequence of heights a list
    of floats.  Heights beyond the sphere (or NaN), and j = 0 (R = 0, no
    scale), are rejected.
    """
    sphere = SpinSphere(j)
    r = sphere.radius
    if r == 0.0:
        raise ValidationError("projection needs j > 0: the sphere of j = 0 has radius 0")
    if isinstance(z, (int, float)) or getattr(z, "ndim", 1) == 0:  # one height, or a numpy scalar
        return project(j, [z])[0]
    heights = list(map(float, z))
    if not all(abs(h) <= r + 1e-12 for h in heights):
        raise ValidationError(f"height |z| > sphere radius {r:.6g}")
    return [math.sqrt(max(0.0, r * r - h * h) / r) for h in heights]


def projected_band(j: float, n: int) -> tuple[float, float]:
    """Image annulus (rho_lo, rho_hi) of the n-th belt counted from the south.

    n runs over 0..2j with m = n - j; the two boundary images are returned
    in ascending order (beyond the equator the shadow radius decreases).
    """
    sphere = SpinSphere(j)
    if not 0 <= n <= sphere.multiplicity - 1:
        raise ValidationError(f"band index must lie in [0, {sphere.multiplicity - 1}]")
    r, m = sphere.radius, _m_values(sphere)[n]
    lo, hi = sorted(project(j, [max(-r, m - 0.5), min(r, m + 0.5)]))
    return lo, hi


def projected_band_area(j: float, n: int) -> float:
    """Area pi*(rho_hi^2 - rho_lo^2) between the two boundary images."""
    lo, hi = projected_band(j, n)
    return math.pi * (hi * hi - lo * lo)


def band_table(j: float):
    """Rows (n, m, rho_lo, rho_hi, area) over all 2j+1 bands.

    Neighbouring belts share an edge, so the 2j+2 edges of belts(j) are
    projected at once, with no Belt built.
    """
    sphere = SpinSphere(j)
    r, ms = sphere.radius, _m_values(sphere)
    edges = project(j, [max(-r, ms[0] - 0.5)] + [min(r, m + 0.5) for m in ms])
    rows = []
    for n, (m, a, b) in enumerate(zip(ms, edges, edges[1:])):
        lo, hi = (a, b) if a <= b else (b, a)
        rows.append((n, m, lo, hi, math.pi * (hi * hi - lo * lo)))
    return rows
