"""Half-wavelength zone construction on a spherical wavefront.

A point source O emits a spherical wave; its wavefront S of radius r0 is
sliced by spheres around the observation point P whose radii grow by half
a wavelength, starting at the axial distance b.  The field at P is the
surface integral of secondary wavelets over S, weighted by the Kirchhoff
obliquity factor, and equals the alternating sum of the per-zone pieces.

Two regularizations of the conditionally convergent construction are
provided and must agree: a raised-cosine taper over the last tenth of the
direct integral's cap, and two-partial-sum averaging of the zone series.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import NumericsError, ValidationError

#: Minimum quadrature nodes per zone; the phase advances by pi across a
#: zone, so fewer nodes cannot resolve the integrand.
MIN_NODES_PER_ZONE = 10
#: Maximum quadrature nodes per zone; ``leggauss`` builds a dense
#: nodes x nodes companion matrix.
MAX_NODES_PER_ZONE = 1024
#: Maximum segments x nodes evaluated at once (a few hundred MB of arrays).
MAX_QUADRATURE_POINTS = 4_000_000
#: Largest r0 or b in wavelengths: below 2**51 consecutive zone boundaries
#: b + n * wavelength/2 are still distinct doubles.
MAX_WAVELENGTHS = 1e15
#: Lengths and the amplitude lie within [1/MAX_SCALE, MAX_SCALE], so squared
#: lengths and the wavelet prefactor stay inside the normal double range.
MAX_SCALE = 1e100
#: Largest (r0**2 + (r0 + b)**2) / (b * wavelength).  The law of cosines
#: rounds 1 - cos(theta) by about eps times this over the first zone's
#: extent, so at the limit a boundary angle still carries six digits.
MAX_CANCELLATION = 1e10


@dataclass(frozen=True)
class FresnelGeometry:
    """Source-wavefront-observer arrangement, all lengths in one unit."""

    r0: float
    b: float
    wavelength: float
    amplitude: float = 1.0

    def __post_init__(self):
        values = asdict(self)
        if not all(map(math.isfinite, values.values())):
            raise ValidationError("r0, b, wavelength and amplitude must be finite")
        if min(values.values()) <= 0:
            raise ValidationError("r0, b, wavelength and amplitude must be positive")
        if self.r0 < 10.0 * self.wavelength or self.b < 10.0 * self.wavelength:
            raise ValidationError(
                "geometry outside the validated regime: need r0 and b >= 10 wavelengths"
            )
        for name in ("r0", "b"):
            if values[name] / self.wavelength > MAX_WAVELENGTHS:
                raise ValidationError(
                    f"{name} = {values[name] / self.wavelength:.6g} wavelengths exceeds "
                    f"the limit of {MAX_WAVELENGTHS:.6g}"
                )
        for name, value in values.items():
            if not 1.0 / MAX_SCALE <= value <= MAX_SCALE:
                raise ValidationError(
                    f"{name} = {value:.6g} lies outside the limits "
                    f"[{1.0 / MAX_SCALE:.6g}, {MAX_SCALE:.6g}]"
                )

    @property
    def k(self) -> float:
        return 2.0 * math.pi / self.wavelength

    @property
    def max_zones(self) -> int:
        """Number of complete zones the wavefront can hold (s <= 2 r0 + b)."""
        return int(math.floor(4.0 * self.r0 / self.wavelength))

    def free_field(self) -> complex:
        """Unobstructed propagation oracle A e^{ik(r0+b)}/(r0+b)."""
        return (
            self.amplitude
            * np.exp(1j * self.k * (self.r0 + self.b))
            / (self.r0 + self.b)
        )


def _s_of_theta(geom: FresnelGeometry, theta) -> np.ndarray:
    d = geom.r0 + geom.b
    return np.sqrt(geom.r0**2 + d * d - 2.0 * geom.r0 * d * np.cos(theta))


def _obliquity(geom: FresnelGeometry, s):
    """Kirchhoff obliquity K = (1 + cos chi)/2 at distance s from P, and cos chi."""
    d = geom.r0 + geom.b
    cos_chi = np.clip((d * d - geom.r0**2 - s * s) / (2.0 * geom.r0 * s), -1.0, 1.0)
    return 0.5 * (1.0 + cos_chi), cos_chi


def _libm(fn, x) -> np.ndarray:
    """The math module's ``fn`` per element.

    np.arccos is an ulp off math.acos on some angles, and the phase k*s
    turns that into a 1e-12 relative change of a zone term.
    """
    return np.fromiter(map(fn, np.asarray(x, dtype=float).tolist()), float)


def _boundary_angles(geom: FresnelGeometry, n) -> np.ndarray:
    """Polar angles at the source subtending the zone boundaries ``n``.

    Solves the law of cosines in the triangle O-Q-P exactly for the spheres
    of radius s_n = b + n*wavelength/2 around P; no small-angle step.
    """
    n = np.asarray(n)
    if np.any(n < 0):
        raise ValidationError("zone index must be nonnegative")
    s = geom.b + 0.5 * n * geom.wavelength
    d = geom.r0 + geom.b
    cos_theta = (geom.r0**2 + d * d - s * s) / (2.0 * geom.r0 * d)
    cos_theta[n == 0] = 1.0  # the axis exactly, where the formula may round below 1
    beyond = np.flatnonzero(cos_theta < -1.0)
    if beyond.size:
        raise ValidationError(
            f"zone boundary {n.flat[beyond[0]]} lies beyond the wavefront (only "
            f"{geom.max_zones} zones fit)"
        )
    return _libm(math.acos, np.minimum(cos_theta, 1.0))


def zone_boundary_angle(geom: FresnelGeometry, n: int) -> float:
    """Polar angle at the source subtending the n-th zone boundary."""
    return float(_boundary_angles(geom, [n])[0])


def _check_resolved(geom: FresnelGeometry) -> None:
    """NumericsError unless the law of cosines resolves the first zone (see
    MAX_CANCELLATION); run after the size budgets, before any quadrature."""
    d = geom.r0 + geom.b
    cancellation = (geom.r0**2 + d * d) / (geom.b * geom.wavelength)
    if cancellation > MAX_CANCELLATION:
        raise NumericsError(
            f"zone boundaries are not resolved in double precision: "
            f"(r0^2 + (r0 + b)^2)/(b * wavelength) = {cancellation:.3g} exceeds "
            f"{MAX_CANCELLATION:.0e}"
        )


def _check_grid(n_segments: int, nodes: int | None) -> None:
    """Reject a Gauss rule too coarse for a zone, or a grid too large to allocate.

    ``nodes=None`` sizes one point per segment, with no Gauss rule.
    """
    if nodes is not None:
        if nodes < MIN_NODES_PER_ZONE:
            raise ValidationError(
                f"need at least {MIN_NODES_PER_ZONE} quadrature nodes per zone"
            )
        if nodes > MAX_NODES_PER_ZONE:
            raise ValidationError(
                f"{nodes} nodes per zone exceed the limit of {MAX_NODES_PER_ZONE}"
            )
    if n_segments * (nodes or 1) > MAX_QUADRATURE_POINTS:
        raise ValidationError(
            f"{n_segments} segments x {nodes or 1} nodes exceed the limit of "
            f"{MAX_QUADRATURE_POINTS} quadrature points"
        )


def _segment_integral(geom, th_lo, th_hi, nodes, ramp=None) -> np.ndarray:
    """Wavelet integrals over the theta segments [th_lo[i], th_hi[i]].

    One Gauss rule serves every segment; the (segments x nodes) grid is
    evaluated at once.  ``ramp = (s0, s1)`` rolls the integrand off by a
    raised cosine in the distance s from P between s0 and s1.
    """
    _check_grid(th_lo.size, nodes)
    _check_resolved(geom)
    x, w = leggauss(nodes)
    half = (0.5 * (th_hi - th_lo))[:, None]
    th = half * x + (0.5 * (th_hi + th_lo))[:, None]
    s = _s_of_theta(geom, th)
    kirchhoff, _ = _obliquity(geom, s)
    f = np.exp(1j * geom.k * s) / s * kirchhoff * np.sin(th)
    if ramp is not None:
        s0, s1 = ramp
        on = s > s0
        f[on] *= 0.5 * (1.0 + np.cos(math.pi * (s[on] - s0) / (s1 - s0)))
    wth = half * w
    # vecdot is a 1-D dot per row: the same summation as one segment at a time
    surface = np.vecdot(f.real, wth) + 1j * np.vecdot(f.imag, wth)
    surface *= 2.0 * math.pi * geom.r0**2
    prefactor = (-1j / geom.wavelength) * geom.amplitude
    return prefactor * np.exp(1j * geom.k * geom.r0) / geom.r0 * surface


def _zone_terms(geom: FresnelGeometry, n: int, nodes: int):
    """Boundary angles theta_0 .. theta_n and zone integrals U_0 .. U_(n-1)."""
    _check_grid(n, nodes)  # before the angles are allocated
    theta = _boundary_angles(geom, np.arange(n + 1))
    return theta, _segment_integral(geom, theta[:-1], theta[1:], nodes)


def zone_contribution(geom: FresnelGeometry, n: int, nodes_per_zone: int = 16) -> complex:
    """The wavelet integral restricted to zone n alone."""
    theta = _boundary_angles(geom, [n, n + 1])
    return _segment_integral(geom, theta[:1], theta[1:], nodes_per_zone)[0]


def huygens_integral(
    geom: FresnelGeometry,
    theta_max: float,
    nodes_per_zone: int = 16,
    *,
    taper: bool = True,
) -> complex:
    """Direct wavelet integral over the spherical cap theta <= theta_max.

    Integration always splits at zone boundaries so the per-zone rule sees
    a phase advance of exactly pi.  With ``taper`` a raised cosine rolls the
    integrand off over the last tenth of the cap, which removes the
    artificial hard edge; without it the integral equals the sum of its
    zone contributions identically.
    """
    if not 0.0 < theta_max <= math.pi:
        raise ValidationError("theta_max must lie in (0, pi]")
    s_end = float(_s_of_theta(geom, theta_max))
    ramp = (geom.b + 0.9 * (s_end - geom.b), s_end) if taper else None
    n_full = int(math.floor((s_end - geom.b) / (0.5 * geom.wavelength) + 1e-12))
    n_full = min(n_full, geom.max_zones)
    _check_grid(n_full + 1, nodes_per_zone)  # before the angles are allocated
    edges = _boundary_angles(geom, np.arange(n_full + 1))
    if theta_max > edges[-1] + 1e-15:
        edges = np.append(edges, theta_max)
    terms = _segment_integral(geom, edges[:-1], edges[1:], nodes_per_zone, ramp)
    return sum(terms.tolist(), 0j)


def zone_sum(
    geom: FresnelGeometry,
    n_zones: int,
    mode: str = "averaged",
    nodes_per_zone: int = 16,
) -> complex:
    """Field at P assembled from the alternating series of zone terms.

    The per-zone integrals carry the sign alternation themselves (their
    phases step by pi), so the series is summed as-is, left to right.
    ``raw`` returns the plain partial sum; ``averaged`` returns the mean of
    the last two partial sums, the standard treatment of this conditionally
    convergent series.
    """
    if mode not in ("raw", "averaged"):
        raise ValidationError(f"unknown mode {mode!r}")
    raw, averaged = _partial_sums(geom, n_zones, nodes_per_zone, mode == "averaged")
    return raw if mode == "raw" else averaged


def _partial_sums(geom, n_zones, nodes_per_zone, averaged=True):
    """Raw and averaged partial sums of the zone series from one term array.

    The averaged sum is None when not ``averaged``; asking for it needs at
    least two zones.
    """
    if n_zones < 1:
        raise ValidationError("need at least one zone")
    if averaged and n_zones < 2:
        raise ValidationError("averaged mode needs at least two zones")
    _, terms = _zone_terms(geom, n_zones, nodes_per_zone)
    total = sum(terms.tolist(), 0j)
    return total, (total - 0.5 * terms[-1] if averaged else None)


def zone_plate(
    geom: FresnelGeometry,
    open_zones,
    n_zones: int,
    nodes_per_zone: int = 16,
) -> complex:
    """Field with only the listed zones transparent, all others blocked."""
    open_sorted = sorted(set(int(z) for z in open_zones))
    if not open_sorted:
        return 0j
    if open_sorted[0] < 0 or open_sorted[-1] >= n_zones:
        raise ValidationError("open zone indices must lie in [0, n_zones)")
    _, terms = _zone_terms(geom, open_sorted[-1] + 1, nodes_per_zone)
    return sum(terms[open_sorted].tolist(), 0j)


def zone_table(geom: FresnelGeometry, n_zones: int, nodes_per_zone: int = 16):
    """Rows (n, rho, Re U_n, Im U_n, |U_n|, arg U_n) for the first zones."""
    theta, terms = _zone_terms(geom, n_zones, nodes_per_zone)
    rho = geom.r0 * _libm(math.sin, theta[1:])
    return [
        (n, r, u.real, u.imag, abs(u), math.atan2(u.imag, u.real))
        for n, (r, u) in enumerate(zip(rho.tolist(), terms.tolist()))
    ]


def fit_zone_scaling(geom: FresnelGeometry, n_max: int = 100) -> float:
    """Least-squares slope of log rho_n against log n for n = 1..n_max."""
    if n_max < 2:
        raise ValidationError("need at least two boundaries for a fit")
    _check_grid(n_max, None)  # before the angles are allocated
    _check_resolved(geom)
    n = np.arange(1, n_max + 1)
    rho = geom.r0 * _libm(math.sin, _boundary_angles(geom, n))
    x = np.log(n)
    y = np.log(rho)
    x = x - x.mean()
    return float(np.dot(x, y - y.mean()) / np.dot(x, x))
