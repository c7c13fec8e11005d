"""Quantized annuli in the phase plane and the area-of-overlap estimate.

With hbar = 1 the n-th annulus sits between the radii enclosing action
areas 2*pi*n and 2*pi*(n+1), so every band has area exactly 2*pi and its
edges grow like sqrt(n).  The occupation statistics of a displaced ground
state are then approximated purely geometrically: the state is drawn as a
disc of radius sqrt(2) centered a distance sqrt(2)*beta from the origin,
and P_n is the fraction of the disc overlapping band n.

Everything is computed on the standard library: each moment (the mean, the
variance and both sums of the total-variation distance) is the ``math.fsum``
of its float terms, correctly rounded whatever their order.  Only
``overlap_distribution`` and ``poisson_pmf``, which return ndarrays, import
numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError

#: Largest overlap table: every band costs one Python lens evaluation.
MAX_BANDS = 1_000_000


@dataclass(frozen=True)
class Band:
    """Annulus between successive quantized-action circles."""

    n: int
    r_inner: float
    r_outer: float

    @property
    def area(self) -> float:
        return math.pi * (self.r_outer**2 - self.r_inner**2)


def band(n: int) -> Band:
    """The n-th annulus; enclosed area at the outer edge is 2*pi*(n+1)."""
    if n < 0:
        raise ValidationError("band index must be nonnegative")
    return Band(n=n, r_inner=math.sqrt(2.0 * n), r_outer=math.sqrt(2.0 * (n + 1)))


def circle_circle_lens(r1: float, r2: float, d: float) -> float:
    """Intersection area of two discs with radii r1, r2 at center distance d.

    Total function: containment returns the smaller disc's area and
    disjoint circles return zero; otherwise the two-circular-segment
    formula applies.
    """
    if r1 <= 0 or r2 <= 0 or d < 0:
        raise ValidationError("radii must be positive and distance nonnegative")
    if d >= r1 + r2:
        return 0.0
    if d <= abs(r1 - r2):
        return math.pi * min(r1, r2) ** 2
    cos1 = (d * d + r1 * r1 - r2 * r2) / (2.0 * d * r1)
    cos2 = (d * d + r2 * r2 - r1 * r1) / (2.0 * d * r2)
    seg = r1 * r1 * math.acos(max(-1.0, min(1.0, cos1)))
    seg += r2 * r2 * math.acos(max(-1.0, min(1.0, cos2)))
    tri = 0.5 * math.sqrt(
        max(0.0, (-d + r1 + r2) * (d + r1 - r2) * (d - r1 + r2) * (d + r1 + r2))
    )
    return seg - tri


def _auto_bands(beta_mag: float) -> int:
    """The table's length: its last band lies wholly outside the disc."""
    reach = beta_mag + 1.0
    requested = reach * reach + 2.0  # inf for huge beta, no overflow
    if requested > MAX_BANDS:
        raise ValidationError(f"{requested:.6g} bands exceed the limit of {MAX_BANDS}")
    return math.ceil(reach**2) + 2


def _band_fractions(beta_mag: float) -> list[float]:
    if not (math.isfinite(beta_mag) and beta_mag >= 0):
        raise ValidationError("beta magnitude must be finite and nonnegative")
    n_bands = _auto_bands(beta_mag)
    d, radius = math.sqrt(2.0) * beta_mag, math.sqrt(2.0)
    inner_areas = [circle_circle_lens(radius, band(n).r_outer, d) for n in range(n_bands)]
    disc = math.pi * radius**2
    return [(a - b) / disc for a, b in zip(inner_areas, [0.0, *inner_areas])]


def _poisson_terms(mean: float, n_terms: int) -> list[float]:
    if mean < 0:
        raise ValidationError("mean must be nonnegative")
    if mean == 0.0:
        return [float(n == 0) for n in range(n_terms)]
    log_mean = math.log(mean)
    return [math.exp(-mean + n * log_mean - math.lgamma(n + 1)) for n in range(n_terms)]


def overlap_distribution(beta_mag: float):
    """Occupation probabilities as disc/band overlap-area fractions, an ndarray.

    The disc of radius sqrt(2) centered sqrt(2)*beta from the origin is
    partitioned by the bands, so the entries sum to one up to roundoff;
    the table's last band lies wholly outside the disc, so its entry is 0.
    """
    import numpy as np

    return np.array(_band_fractions(beta_mag))


def poisson_pmf(mean: float, n_terms: int):
    """Poisson probabilities for n = 0..n_terms-1, via log-factorials, an ndarray."""
    import numpy as np

    return np.array(_poisson_terms(mean, n_terms))


@dataclass(frozen=True)
class OverlapComparison:
    """Overlap-area statistics next to the exact Poisson statistics."""

    beta: float
    overlap_mean: float
    poisson_mean: float
    overlap_variance: float
    poisson_variance: float
    tv_distance: float
    p_overlap: tuple[float, ...]
    p_poisson: tuple[float, ...]


def compare_poisson(beta_mag: float) -> OverlapComparison:
    """Compare the overlap-area distribution with the exact Poissonian.

    The total-variation distance accounts for the Poisson mass beyond the
    tabulated range (where the overlap distribution is exactly zero).
    """
    p = _band_fractions(beta_mag)
    q = _poisson_terms(beta_mag**2, len(p))
    p_mean = math.fsum(n * pn for n, pn in enumerate(p))
    p_var = math.fsum((n - p_mean) * (n - p_mean) * pn for n, pn in enumerate(p))
    tv = 0.5 * (math.fsum(abs(pn - qn) for pn, qn in zip(p, q))
                + max(0.0, 1.0 - math.fsum(q)))
    return OverlapComparison(
        beta=float(beta_mag),
        overlap_mean=p_mean,
        poisson_mean=beta_mag**2,
        overlap_variance=p_var,
        poisson_variance=beta_mag**2,
        tv_distance=tv,
        p_overlap=tuple(p),
        p_poisson=tuple(q),
    )
