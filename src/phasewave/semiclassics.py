"""Quantized annuli in the phase plane and the area-of-overlap estimate.

With hbar = 1 the n-th annulus sits between the radii enclosing action
areas 2*pi*n and 2*pi*(n+1), so every band has area exactly 2*pi and its
edges grow like sqrt(n).  The occupation statistics of a displaced ground
state are then approximated purely geometrically: the state is drawn as a
disc of radius sqrt(2) centered a distance sqrt(2)*beta from the origin,
and P_n is the fraction of the disc overlapping band n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .fock import log_factorials

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


def _auto_bands(beta_mag: float, n_bands: int | None) -> int:
    if n_bands is not None and n_bands < 0:
        raise ValidationError("band count must be nonnegative")
    reach = beta_mag + 1.0
    requested = max(reach * reach + 2.0, n_bands or 0)  # inf for huge beta, no overflow
    if requested > MAX_BANDS:
        raise ValidationError(
            f"{requested:.6g} bands exceed the limit of {MAX_BANDS}"
        )
    needed = math.ceil(reach**2) + 2
    return needed if n_bands is None else max(n_bands, needed)


def overlap_distribution(beta_mag: float, n_bands: int | None = None) -> np.ndarray:
    """Occupation probabilities as disc/band overlap-area fractions.

    The disc of radius sqrt(2) centered sqrt(2)*beta from the origin is
    partitioned by the bands, so the entries sum to one up to roundoff;
    ``n_bands`` is grown automatically until the disc lies inside the
    outermost band.
    """
    if not (math.isfinite(beta_mag) and beta_mag >= 0):
        raise ValidationError("beta magnitude must be finite and nonnegative")
    n_bands = _auto_bands(beta_mag, n_bands)
    d, radius = math.sqrt(2.0) * beta_mag, math.sqrt(2.0)
    inner_areas = [circle_circle_lens(radius, band(n).r_outer, d) for n in range(n_bands)]
    return np.diff(inner_areas, prepend=0.0) / (math.pi * radius**2)


def poisson_pmf(mean: float, n_terms: int) -> np.ndarray:
    """Poisson probabilities for n = 0..n_terms-1, via log-factorials."""
    if mean < 0:
        raise ValidationError("mean must be nonnegative")
    n = np.arange(n_terms)
    if mean == 0.0:
        p = np.zeros(n_terms)
        p[0] = 1.0
        return p
    return np.exp(-mean + n * math.log(mean) - log_factorials(n_terms - 1))


@dataclass(frozen=True)
class OverlapComparison:
    """Overlap-area statistics next to the exact Poisson statistics."""

    beta: float
    overlap_mean: float
    poisson_mean: float
    overlap_variance: float
    poisson_variance: float
    tv_distance: float
    p_overlap: np.ndarray
    p_poisson: np.ndarray


def compare_poisson(beta_mag: float, n_bands: int | None = None) -> OverlapComparison:
    """Compare the overlap-area distribution with the exact Poissonian.

    The total-variation distance accounts for the Poisson mass beyond the
    tabulated range (where the overlap distribution is exactly zero).
    """
    p = overlap_distribution(beta_mag, n_bands)
    q = poisson_pmf(beta_mag**2, p.size)
    n = np.arange(p.size)
    p_mean = float(np.dot(n, p))
    q_mean = beta_mag**2
    p_var = float(np.dot((n - p_mean) ** 2, p))
    q_var = beta_mag**2
    tv = 0.5 * (float(np.abs(p - q).sum()) + max(0.0, 1.0 - float(q.sum())))
    return OverlapComparison(
        beta=float(beta_mag),
        overlap_mean=p_mean,
        poisson_mean=q_mean,
        overlap_variance=p_var,
        poisson_variance=q_var,
        tv_distance=tv,
        p_overlap=p,
        p_poisson=q,
    )
