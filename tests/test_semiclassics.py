"""Quantized annuli, the lens kernel, and the overlap-area statistics."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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

    # beta over [0, 30], drawn stratum by stratum so that small displacements,
    # whose disc straddles few bands, get draws of their own; each stratum is
    # named by its lower end
    @pytest.mark.parametrize("lo, hi", [(0.0, 0.5), (0.5, 1.0), (1.0, 2.0), (2.0, 5.0),
                                        (5.0, 30.0)], ids=["0.0", "0.5", "1.0", "2.0", "5.0"])
    @settings(derandomize=True, database=None, deadline=None, max_examples=10)
    @given(data=st.data())
    def test_partition_sums_to_one(self, lo, hi, data):
        p = overlap_distribution(data.draw(st.floats(lo, hi)))
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
        assert _auto_bands(998.0) == MAX_BANDS - 1997
        for beta in (999.0, 1e200):
            with pytest.raises(ValidationError, match=f"limit of {MAX_BANDS}"):
                _auto_bands(beta)


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


def _rounded_sum(terms) -> float:
    """The exact sum of the float terms, rounded once to the nearest double."""
    with mpmath.workprec(2200):  # spans every double, 2**-1074 to 2**1024, with room
        exact = mpmath.fsum(terms)
    return float(mpmath.mpf(exact))  # rounded to 53 bits, to nearest


class TestStandardLibraryKernel:
    @pytest.mark.parametrize("mean", [0.25, 1.0, 25.0, 900.0])
    def test_poisson_terms_match_mpmath(self, mean):
        # each term is exp(-mean + n log(mean) - log n!); rounding that float
        # exponent is an absolute error of a few eps times its largest part, so
        # the relative bound grows past 1e-13 with it (3e-12 at mean 900)
        n_terms = int(4 * mean) + 21
        q = poisson_pmf(mean, n_terms)
        assert q.shape == (n_terms,)
        eps = np.finfo(float).eps
        with mpmath.workdps(40):
            mu = mpmath.mpf(mean)
            for n, got in enumerate(q):
                exact = mpmath.exp(-mu + n * mpmath.log(mu) - mpmath.loggamma(n + 1))
                scale = mean + n * abs(math.log(mean)) + math.lgamma(n + 1)
                tol = 1e-13 + 4 * eps * scale
                assert abs(got - exact) <= tol * exact + 2.0**-1074, (mean, n)

    def test_poisson_terms_of_zero_mean(self):
        assert poisson_pmf(0.0, 4).tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_negative_mean_rejected(self):
        with pytest.raises(ValidationError, match="^mean must be nonnegative$"):
            poisson_pmf(-1.0, 3)

    @pytest.mark.parametrize("beta", [0.0, 5.0, *np.random.default_rng(21).uniform(0, 30, 10)])
    def test_moments_are_correctly_rounded_sums(self, beta):
        rep = compare_poisson(float(beta))
        p, q = rep.p_overlap, rep.p_poisson
        assert isinstance(p, tuple) and isinstance(q, tuple) and len(p) == len(q)
        mean = _rounded_sum(k * pk for k, pk in enumerate(p))
        assert rep.overlap_mean == mean
        assert rep.overlap_variance == _rounded_sum(
            (k - mean) * (k - mean) * pk for k, pk in enumerate(p)
        )
        tail = max(0.0, 1.0 - _rounded_sum(q))
        assert rep.tv_distance == 0.5 * (_rounded_sum(abs(a - b) for a, b in zip(p, q)) + tail)

    @pytest.mark.parametrize("beta", [0.0, 0.3, 1.0, 5.0, 5.1, 17.25])
    def test_arrays_wrap_the_kernel_bit_for_bit(self, beta):
        rep = compare_poisson(beta)
        p = overlap_distribution(beta)
        assert p.dtype == np.float64
        assert p.tobytes() == np.array(rep.p_overlap).tobytes()
        q = poisson_pmf(beta**2, len(rep.p_poisson))
        assert q.tobytes() == np.array(rep.p_poisson).tobytes()
