"""Quantized annuli, the lens kernel, and the overlap-area statistics."""

import math

import numpy as np
import pytest

from phasewave import (
    ValidationError,
    band,
    circle_circle_lens,
    compare_poisson,
    overlap_distribution,
    poisson_pmf,
)
from phasewave.semiclassics import MAX_BANDS, _auto_bands

# regression value frozen at first build: total-variation distance between
# the beta=5 overlap-area distribution and Poisson(25)
TV_BETA5 = 0.1259503149384122


class TestBands:
    def test_band_zero_radii(self):
        b = band(0)
        assert b.r_inner == 0.0
        assert b.r_outer == pytest.approx(math.sqrt(2.0), abs=1e-15)

    def test_edge_ratio_sqrt_scaling(self):
        assert band(4).r_inner / band(1).r_inner == pytest.approx(2.0, abs=1e-14)

    @pytest.mark.parametrize("n", [0, 1, 7, 100])
    def test_every_band_area_is_2pi(self, n):
        assert band(n).area == pytest.approx(2.0 * math.pi, abs=1e-12)

    def test_edge_scaling_regression_fit(self):
        n = np.arange(1, 101)
        r = np.array([band(int(k)).r_inner for k in n])
        x = np.log(n) - np.log(n).mean()
        y = np.log(r)
        slope = float(np.dot(x, y - y.mean()) / np.dot(x, x))
        assert slope == pytest.approx(0.5, abs=1e-12)

    def test_negative_index_rejected(self):
        with pytest.raises(ValidationError):
            band(-1)


class TestLensKernel:
    def test_containment(self):
        assert circle_circle_lens(1.0, 2.0, 0.0) == pytest.approx(math.pi, abs=1e-15)

    def test_disjoint(self):
        assert circle_circle_lens(1.0, 1.0, 3.0) == 0.0

    def test_unit_circles_at_unit_distance(self):
        # closed form: 2*pi/3 - sqrt(3)/2
        expected = 2.0 * math.pi / 3.0 - math.sqrt(3.0) / 2.0
        assert circle_circle_lens(1.0, 1.0, 1.0) == pytest.approx(expected, abs=1e-14)

    def test_monte_carlo_oracle(self):
        # independent point-counting estimate at 10^7 samples
        r1, r2, d = 1.3, 0.9, 1.1
        rng = np.random.default_rng(123456)
        lo = np.array([-r1, -r1])
        hi = np.array([r1, r1])
        pts = rng.uniform(lo, hi, size=(10_000_000, 2))
        inside1 = np.sum(pts**2, axis=1) <= r1**2
        inside2 = (pts[:, 0] - d) ** 2 + pts[:, 1] ** 2 <= r2**2
        frac = np.mean(inside1 & inside2)
        estimate = frac * (hi - lo).prod()
        exact = circle_circle_lens(r1, r2, d)
        sigma = math.sqrt(frac * (1 - frac) / pts.shape[0]) * (hi - lo).prod()
        assert abs(estimate - exact) < 5.0 * sigma

    def test_symmetry_exact(self):
        assert circle_circle_lens(1.3, 0.7, 0.9) == circle_circle_lens(0.7, 1.3, 0.9)

    def test_monotone_in_distance(self):
        d = np.linspace(0.0, 3.5, 60)
        areas = [circle_circle_lens(1.2, 1.0, float(x)) for x in d]
        assert all(a >= b - 1e-14 for a, b in zip(areas, areas[1:]))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValidationError):
            circle_circle_lens(-1.0, 1.0, 0.5)
        with pytest.raises(ValidationError):
            circle_circle_lens(1.0, 1.0, -0.5)


class TestOverlapDistribution:
    def test_vacuum_occupies_band_zero(self):
        p = overlap_distribution(0.0)
        assert p[0] == pytest.approx(1.0, abs=1e-14)
        assert np.all(p[1:] == 0.0)

    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0, 2.0, 5.0])
    def test_partition_sums_to_one(self, beta):
        p = overlap_distribution(beta)
        assert abs(p.sum() - 1.0) < 1e-12

    def test_support_bounds(self):
        beta = 3.0
        p = overlap_distribution(beta)
        d = math.sqrt(2.0) * beta
        radius = math.sqrt(2.0)
        for n, mass in enumerate(p):
            b = band(n)
            if b.r_inner > d + radius or b.r_outer < d - radius:
                assert mass == 0.0

    def test_beta5_semicircular_shape(self):
        p = overlap_distribution(5.0)
        peak = int(np.argmax(p))
        assert abs(peak - 25) <= 1
        diffs = np.diff(p)
        assert np.all(diffs[:peak] >= -1e-15)  # rises to the peak
        assert np.all(diffs[peak:] <= 1e-15)  # falls after it

    def test_negative_beta_rejected(self):
        with pytest.raises(ValidationError):
            overlap_distribution(-0.1)

    def test_band_budget_is_checked_first(self):
        # (998 + 1)**2 + 2 bands fit the budget, (999 + 1)**2 + 2 do not;
        # only the count is computed, no table is built
        assert _auto_bands(998.0, None) == MAX_BANDS - 1997
        for beta, n_bands in ((999.0, None), (1e200, None), (1.0, MAX_BANDS + 1)):
            with pytest.raises(ValidationError, match=f"limit of {MAX_BANDS}"):
                _auto_bands(beta, n_bands)


class TestComparePoisson:
    def test_vacuum_distance_zero(self):
        rep = compare_poisson(0.0)
        assert rep.tv_distance == pytest.approx(0.0, abs=1e-14)

    def test_beta5_mean_window(self):
        rep = compare_poisson(5.0)
        assert 23.75 <= rep.overlap_mean <= 26.25

    @pytest.mark.parametrize("beta", [3.0, 4.0, 5.0])
    def test_mean_tracks_classical_energy(self, beta):
        rep = compare_poisson(beta)
        assert abs(rep.overlap_mean - beta**2) / beta**2 < 0.05

    def test_beta5_shapes_differ(self):
        rep = compare_poisson(5.0)
        assert rep.tv_distance > 0.0

    def test_tv_regression_frozen(self):
        rep = compare_poisson(5.0)
        assert rep.tv_distance == pytest.approx(TV_BETA5, abs=1e-9)

    def test_poisson_pmf_normalized(self):
        p = poisson_pmf(4.0, 60)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
