"""Half-wavelength zone construction on a spherical wavefront.

A point source O emits a spherical wave; its wavefront S of radius r0 is
sliced by spheres around the observation point P whose radii grow by half
a wavelength, starting at the axial distance b.  The field at P is the
surface integral of secondary wavelets over S, weighted by the Kirchhoff
obliquity factor, and equals the alternating sum of the per-zone pieces.

Two regularizations of the conditionally convergent construction are
provided and must agree: a raised-cosine taper over the last tenth of the
direct integral's cap, and two-partial-sum averaging of the zone series.

Every distance comes from the half-angle identity
s^2 = b^2 + 4 r0 (r0 + b) sin^2(theta/2) for the distance s from P to the
wavefront point at polar angle theta (Born & Wolf, Principles of Optics,
section 8.2), and every phase from the path difference t = s - b taken as
4 r0 (r0 + b) sin^2(theta/2)/(b + s), so no difference of nearly equal
numbers is formed at any geometry the limits accept.

Everything here is computed on the standard library (``math`` and
``cmath``), so the ``fresnel`` subcommand loads no numpy.
"""

from __future__ import annotations

import cmath
import math
import operator
from collections.abc import Sequence
from dataclasses import asdict, dataclass

from .errors import NumericsError, ValidationError

#: Gauss-Legendre nodes per zone of every zone term; 32 or 64 move the
#: 200-zone sums by at most 1e-12 relative, the phase-rounding floor.
NODES_PER_ZONE = 16
#: Minimum quadrature nodes per zone; the phase advances by pi across a
#: zone, so fewer nodes cannot resolve the integrand.
MIN_NODES_PER_ZONE = 10
#: Maximum quadrature nodes per zone; building the rule takes a few Newton
#: passes per node, each nodes recurrence steps long.
MAX_NODES_PER_ZONE = 1024
#: Maximum segments x nodes evaluated in one call.
MAX_QUADRATURE_POINTS = 4_000_000
#: Largest r0 or b in wavelengths: below 2**51 consecutive zone boundaries
#: b + n * wavelength/2 are still distinct doubles.
MAX_WAVELENGTHS = 1e15
#: Lengths and the amplitude lie within [1/MAX_SCALE, MAX_SCALE], so squared
#: lengths and the wavelet prefactor stay inside the normal double range.
MAX_SCALE = 1e100
#: Newton steps allowed per Gauss-Legendre node; from the asymptotic first
#: guess each node converges in two or three.
NEWTON_STEPS = 100


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
            * cmath.exp(1j * self.k * (self.r0 + self.b))
            / (self.r0 + self.b)
        )


def _count(value) -> int:
    """``value`` as the int ``operator.index`` takes it for; ValidationError naming
    it otherwise, so no count or zone index is truncated or half-used."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValidationError(f"count or zone index {value!r} must be an integer") from None


def _path_difference(geom: FresnelGeometry, theta: float) -> float:
    """t = s - b: how much farther the wavefront point at polar angle theta
    lies from P than the pole does."""
    sh = math.sin(0.5 * theta)
    qh = 4.0 * geom.r0 * (geom.r0 + geom.b) * sh * sh
    return qh / (geom.b + math.sqrt(geom.b * geom.b + qh))


def _boundary_angles(geom: FresnelGeometry, n: Sequence[int]) -> list[float]:
    """Polar angles at the source subtending the zone boundaries ``n``.

    The sphere of radius b + t around P, t = n*wavelength/2, cuts the
    wavefront where sin^2(theta/2) = t (2b + t)/(4 r0 (r0 + b)); exact, with
    no small-angle step, and boundary 0 is the axis.
    """
    if n and min(n) < 0:
        raise ValidationError("zone index must be nonnegative")
    b, q = geom.b, 4.0 * geom.r0 * (geom.r0 + geom.b)
    angles = []
    for k in n:
        t = 0.5 * k * geom.wavelength
        h = t * (2.0 * b + t) / q
        if h > 1.0:
            raise ValidationError(
                f"zone boundary {k} lies beyond the wavefront (only "
                f"{geom.max_zones} zones fit)"
            )
        angles.append(2.0 * math.asin(math.sqrt(h)))
    return angles


def zone_boundary_angle(geom: FresnelGeometry, n: int) -> float:
    """Polar angle at the source subtending the n-th zone boundary."""
    return _boundary_angles(geom, [_count(n)])[0]


def _check_grid(n_segments: int, nodes: int) -> None:
    """Reject a grid of more segments x nodes than one call may evaluate."""
    if n_segments * nodes > MAX_QUADRATURE_POINTS:
        raise ValidationError(
            f"{n_segments} segments x {nodes} nodes exceed the limit of "
            f"{MAX_QUADRATURE_POINTS} quadrature points"
        )


def _gauss_legendre(nodes: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1].

    Newton's method on P_nodes, evaluated by the three-term recurrence,
    finds each root in the upper half from Tricomi's asymptotic guess; the
    lower half is its mirror image, and an odd rule's middle node is 0.
    The weight 2/((1 - x^2) P'(x)^2) takes 1 - x^2 as (1 - x)(1 + x),
    which keeps its digits next to the ends.
    """
    upper = []
    for i in range(nodes // 2):
        angle = math.pi * (4 * i + 3) / (4 * nodes + 2)
        x = (1.0 - (nodes - 1) / (8.0 * nodes**3)) * math.cos(angle)
        for _ in range(NEWTON_STEPS):
            p, dp = _legendre(nodes, x)
            step = p / dp
            x -= step
            if abs(step) <= 2.0**-53:
                break
        else:
            raise NumericsError(
                f"Gauss-Legendre node {i} of {nodes} did not converge in "
                f"{NEWTON_STEPS} Newton steps"
            )
        _, dp = _legendre(nodes, x)
        upper.append((x, 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)))
    middle = []
    if nodes % 2:
        _, dp = _legendre(nodes, 0.0)
        middle.append((0.0, 2.0 / (dp * dp)))
    rule = [(-x, w) for x, w in upper] + middle + upper[::-1]
    return tuple(x for x, _ in rule), tuple(w for _, w in rule)


def _legendre(n: int, x: float) -> tuple[float, float]:
    """P_n(x) and P_n'(x), by the three-term recurrence, for |x| < 1."""
    p, p_prev = x, 1.0
    for j in range(2, n + 1):
        p, p_prev = ((2 * j - 1) * x * p - (j - 1) * p_prev) / j, p
    return p, n * (p_prev - x * p) / ((1.0 - x) * (1.0 + x))


def _segment_integral(geom, th_lo, th_hi, nodes, ramp=None) -> list[complex]:
    """Wavelet integrals over the theta segments [th_lo[i], th_hi[i]].

    One Gauss rule serves every segment, each summed in one pass over its
    nodes.  ``ramp = (t0, t1)`` rolls the integrand off by a raised cosine
    in the path difference t = s - b between t0 and t1.  The pass runs once
    per quadrature point, so it computes ``_path_difference``'s t inline,
    from qh = q sin^2(theta/2) with q = 4 r0 (r0 + b), s = sqrt(b^2 + qh)
    and t = qh/(b + s).  The Kirchhoff obliquity K = (1 + cos chi)/2, with
    cos chi = (b - 2 (r0 + b) sin^2(theta/2))/s, enters as
    2 K s = s + b - qh/(2 r0), whose factor 1/2 ``scale`` carries.  Each
    node's phase is k t; the global phase e^{ik(r0+b)} is the one
    ``free_field`` takes.
    """
    rule = list(zip(*_gauss_legendre(nodes)))
    r0, b, k = geom.r0, geom.b, geom.k
    q, b_sq, over = 4.0 * r0 * (r0 + b), b * b, 0.5 / r0
    t0, t1 = ramp if ramp is not None else (math.inf, math.inf)
    prefactor = (-1j / geom.wavelength) * geom.amplitude
    scale = prefactor * cmath.exp(1j * k * (r0 + b)) / r0 * (math.pi * r0**2)
    terms = []
    for lo, hi in zip(th_lo, th_hi):
        half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
        surface = 0j
        for x, w in rule:
            th = half * x + mid
            sh = math.sin(0.5 * th)
            qh = q * sh * sh
            s_sq = b_sq + qh
            s = math.sqrt(s_sq)
            t = qh / (b + s)
            weight = (s + b - over * qh) * math.sin(th) / s_sq * (half * w)
            if t > t0:
                weight *= 0.5 * (1.0 + math.cos(math.pi * (t - t0) / (t1 - t0)))
            surface += cmath.rect(weight, k * t)
        terms.append(scale * surface)
    return terms


def _zone_terms(geom: FresnelGeometry, zones: range):
    """Boundary angles from the inner edge of ``zones``'s first zone to the outer
    edge of its last, and the integrals U of those zones."""
    _check_grid(len(zones), NODES_PER_ZONE)  # before the angles are computed
    theta = _boundary_angles(geom, range(zones.start, zones.stop + 1))
    return theta, _segment_integral(geom, theta[:-1], theta[1:], NODES_PER_ZONE)


def zone_contribution(geom: FresnelGeometry, n: int) -> complex:
    """The wavelet integral restricted to zone n alone."""
    n = _count(n)
    return _zone_terms(geom, range(n, n + 1))[1][0]


def huygens_integral(
    geom: FresnelGeometry,
    theta_max: float,
    nodes_per_zone: int = NODES_PER_ZONE,
    *,
    taper: bool = True,
) -> complex:
    """Direct wavelet integral over the spherical cap theta <= theta_max.

    Integration always splits at zone boundaries so the per-zone rule sees
    a phase advance of exactly pi.  With ``taper`` a raised cosine rolls the
    integrand off over the last tenth of the cap's path difference t = s - b,
    which removes the artificial hard edge; without it the integral equals the sum of its
    zone contributions identically.
    """
    nodes_per_zone = _count(nodes_per_zone)
    if not 0.0 < theta_max <= math.pi:
        raise ValidationError("theta_max must lie in (0, pi]")
    if nodes_per_zone < MIN_NODES_PER_ZONE:
        raise ValidationError(f"need at least {MIN_NODES_PER_ZONE} quadrature nodes per zone")
    if nodes_per_zone > MAX_NODES_PER_ZONE:
        raise ValidationError(
            f"{nodes_per_zone} nodes per zone exceed the limit of {MAX_NODES_PER_ZONE}"
        )
    t_end = _path_difference(geom, theta_max)
    ramp = (0.9 * t_end, t_end) if taper else None
    n_full = int(math.floor(t_end / (0.5 * geom.wavelength) + 1e-12))
    n_full = min(n_full, geom.max_zones)
    _check_grid(n_full + 1, nodes_per_zone)  # before the angles are computed
    edges = _boundary_angles(geom, range(n_full + 1))
    if theta_max > edges[-1] + 1e-15:
        edges.append(theta_max)
    terms = _segment_integral(geom, edges[:-1], edges[1:], nodes_per_zone, ramp)
    return sum(terms, 0j)


def zone_sum(geom: FresnelGeometry, n_zones: int, mode: str = "averaged") -> complex:
    """Field at P assembled from the alternating series of zone terms.

    The per-zone integrals carry the sign alternation themselves (their
    phases step by pi), so the series is summed as-is, left to right.
    ``raw`` returns the plain partial sum; ``averaged`` returns the mean of
    the last two partial sums, the standard treatment of this conditionally
    convergent series.
    """
    if mode not in ("raw", "averaged"):
        raise ValidationError(f"unknown mode {mode!r}")
    raw, averaged = _partial_sums(geom, n_zones, mode == "averaged")
    return raw if mode == "raw" else averaged


def _partial_sums(geom, n_zones, averaged=True):
    """Raw and averaged partial sums of the zone series from one term list.

    The averaged sum is None when not ``averaged``; asking for it needs at
    least two zones.
    """
    n_zones = _count(n_zones)
    if n_zones < 1:
        raise ValidationError("need at least one zone")
    if averaged and n_zones < 2:
        raise ValidationError("averaged mode needs at least two zones")
    _, terms = _zone_terms(geom, range(n_zones))
    total = sum(terms, 0j)
    return total, (total - 0.5 * terms[-1] if averaged else None)


def zone_plate(geom: FresnelGeometry, open_zones, n_zones: int) -> complex:
    """Field with only the listed zones transparent, all others blocked; an ascending
    range is used as it stands, so no set of it is built before the quadrature limit."""
    n_zones = _count(n_zones)
    ascending = isinstance(open_zones, range) and open_zones.step > 0
    open_sorted = open_zones if ascending else sorted(set(map(_count, open_zones)))
    if not open_sorted:
        return 0j
    if open_sorted[0] < 0 or open_sorted[-1] >= n_zones:
        raise ValidationError("open zone indices must lie in [0, n_zones)")
    _, terms = _zone_terms(geom, range(open_sorted[-1] + 1))
    return sum((terms[z] for z in open_sorted), 0j)


def zone_table(geom: FresnelGeometry, n_zones: int):
    """Rows (n, rho, Re U_n, Im U_n, |U_n|, arg U_n) for the first zones."""
    theta, terms = _zone_terms(geom, range(_count(n_zones)))
    return [
        (n, geom.r0 * math.sin(th), u.real, u.imag, abs(u), math.atan2(u.imag, u.real))
        for n, (th, u) in enumerate(zip(theta[1:], terms))
    ]


def fit_zone_scaling(geom: FresnelGeometry, n_max: int = 100) -> float:
    """Least-squares slope of log rho_n against log n for n = 1..n_max."""
    n_max = _count(n_max)
    if n_max < 2:
        raise ValidationError("need at least two boundaries for a fit")
    _check_grid(n_max, 1)  # before the angles are computed
    angles = _boundary_angles(geom, range(1, n_max + 1))
    x = [math.log(n) for n in range(1, n_max + 1)]
    y = [math.log(geom.r0 * math.sin(th)) for th in angles]
    x_mean = math.fsum(x) / n_max
    x = [v - x_mean for v in x]
    y_mean = math.fsum(y) / n_max
    return math.fsum(a * (b - y_mean) for a, b in zip(x, y)) / math.fsum(a * a for a in x)
