"""Sphere belts, the hat-box areas, and the plane projection limits."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phasewave import (
    SpinSphere,
    ValidationError,
    belts,
    band_table,
    project,
    projected_band,
    projected_band_area,
)
from phasewave.spinmap import MAX_BELTS


class TestBelts:
    # 2j over [0, 2000], drawn stratum by stratum so that small spins get draws
    # of their own; each stratum is named by a spin it holds
    @pytest.mark.parametrize("lo, hi", [(0, 1), (2, 9), (10, 19), (20, 399), (400, 2000)],
                             ids=["0.5", "1.0", "5.0", "10.0", "200.0"])
    @settings(derandomize=True, database=None, deadline=None, max_examples=10)
    @given(data=st.data())
    def test_count_and_tiling(self, lo, hi, data):
        two_j = data.draw(st.integers(lo, hi))
        sphere = SpinSphere(two_j / 2)
        bs = belts(two_j / 2)
        assert len(bs) == sphere.multiplicity == two_j + 1
        assert bs[0].z_lo == -sphere.radius and bs[-1].z_hi == sphere.radius
        for a, b in zip(bs, bs[1:]):
            assert a.z_hi == b.z_lo  # exact shared boundaries, no gaps

    def test_half_spin_belts(self):
        bs = belts(0.5)
        r = math.sqrt(0.75)
        assert bs[0].z_lo == pytest.approx(-r, abs=1e-14)
        assert bs[0].z_hi == 0.0
        assert bs[1].z_lo == 0.0
        assert bs[1].z_hi == pytest.approx(r, abs=1e-14)

    def test_interior_belts_unit_width(self):
        bs = belts(10.0)
        assert len(bs) == 21
        for b in bs[1:-1]:
            assert b.width == pytest.approx(1.0, abs=1e-12)

    def test_invalid_j_rejected(self):
        with pytest.raises(ValidationError):
            SpinSphere(0.3)
        with pytest.raises(ValidationError):
            belts(-1.0)

    @pytest.mark.parametrize("j", [0.0, 0.5, 7.0, 62.5, 4095.5])
    def test_heights_are_exact_half_integers(self, j):
        exact = [Fraction(2 * k - int(2 * j), 2) for k in range(int(2 * j) + 1)]
        assert [Fraction(b.m) for b in belts(j)] == exact

    def test_belt_budget(self):
        # 2j + 1 is checked before any belt is built; these would take 1e12 objects
        assert SpinSphere((MAX_BELTS - 1) / 2).multiplicity == MAX_BELTS
        for j in (MAX_BELTS / 2, 1e12, 1e300):
            with pytest.raises(ValidationError, match=f"limit of {MAX_BELTS}"):
                SpinSphere(j)


def _belt_areas(j):
    """Hat-box areas 2*pi*R*width of the belts, as ``spin belts`` writes them."""
    r = SpinSphere(j).radius
    return [2.0 * math.pi * r * b.width for b in belts(j)]


class TestBeltAreas:
    def test_hatbox_value_interior(self):
        # 2*pi*R per unit axial width; m = 0 is the middle belt of j = 10
        area = _belt_areas(10.0)[10]
        assert belts(10.0)[10].m == 0.0
        assert area == pytest.approx(2.0 * math.pi * math.sqrt(110.0), abs=1e-10)

    def test_total_area_is_sphere(self):
        j = 10.0
        total = sum(_belt_areas(j))
        r = SpinSphere(j).radius
        assert total == pytest.approx(4.0 * math.pi * r * r, rel=1e-12)

    def test_interior_belts_equal(self):
        areas = _belt_areas(10.0)[1:-1]
        assert np.allclose(areas, areas[0], atol=1e-10)


class TestProjection:
    def test_south_pole_maps_to_origin(self):
        r = SpinSphere(3.0).radius
        assert project(3.0, -r) == 0.0

    def test_poles_and_equator(self):
        j = 12.0
        r = SpinSphere(j).radius
        assert project(j, r) == 0.0
        assert project(j, 0.0) == pytest.approx(math.sqrt(r), abs=1e-12)

    def test_monotone_on_southern_hemisphere(self):
        j = 50.0
        r = SpinSphere(j).radius
        z = np.linspace(-r, 0.0, 400)
        rho = project(j, z)
        assert np.all(np.diff(rho) > 0)

    def test_rejects_heights_beyond_sphere(self):
        with pytest.raises(ValidationError):
            project(2.0, 10.0)
        with pytest.raises(ValidationError):
            project(2.0, [0.0, math.nan])

    def test_scalar_gives_float_and_sequence_gives_list(self):
        r = SpinSphere(2.0).radius
        assert type(project(2.0, 1.0)) is float
        assert type(project(2.0, np.float64(1.0))) is float
        assert type(project(2.0, np.array(1.0))) is float
        rho = project(2.0, np.array([-r, 1.0, r]))
        assert type(rho) is list and all(type(x) is float for x in rho)
        assert rho == [0.0, project(2.0, 1.0), 0.0]

    def test_rejects_the_sphere_of_radius_zero(self):
        # the plane scale 1/sqrt(R) is undefined at j = 0
        for j in (0.0, -0.0):
            with pytest.raises(ValidationError, match="j > 0"):
                project(j, 0.0)
        with pytest.raises(ValidationError, match="j > 0"):
            band_table(0.0)

    def test_band_zero_starts_at_origin(self):
        for j in (0.5, 10.0, 200.0):
            lo, _ = projected_band(j, 0)
            assert lo == 0.0

    def test_band_one_boundary_near_first_annulus_edge_at_j200(self):
        lo, _ = projected_band(200.0, 1)
        assert abs(lo - math.sqrt(2.0)) / math.sqrt(2.0) < 0.01

    def test_large_j_convergence_to_annulus_edges(self):
        targets = np.sqrt(2.0 * np.arange(1, 11))
        worst = []
        for j in (20.0, 80.0, 200.0, 800.0):
            radii = np.array([projected_band(j, n)[0] for n in range(1, 11)])
            worst.append(float(np.max(np.abs(radii - targets) / targets)))
        assert worst[0] > worst[1] > worst[2] > worst[3]
        assert worst[-1] < 0.01

    def test_mirrored_picture_on_northern_hemisphere(self):
        j = 25.0
        two_j = int(2 * j)
        for n in (0, 3, 10):
            south = projected_band(j, n)
            north = projected_band(j, two_j - n)
            assert south == pytest.approx(north, abs=1e-12)

    def test_band_index_range_enforced(self):
        with pytest.raises(ValidationError):
            projected_band(2.0, 5)


class TestProjectedAreas:
    def test_first_band_area_near_quantum(self):
        area = projected_band_area(200.0, 1)
        assert abs(area - 2.0 * math.pi) / (2.0 * math.pi) < 0.02

    def test_areas_fall_below_quantum_toward_equator(self):
        j = 200.0
        areas = np.array([projected_band_area(j, n) for n in range(1, 201)])
        assert np.all(np.diff(areas) < 0)  # monotone squeeze
        assert np.all(areas < 2.0 * math.pi)

    def test_equatorial_breakdown(self):
        j = 200.0
        for n in range(101, 201, 10):
            assert projected_band_area(j, n) < 2.0 * math.pi

    def test_band_table_shape(self):
        rows = band_table(1.5)
        assert len(rows) == 4
        n, m, lo, hi, area = rows[0]
        assert (n, m, lo) == (0, -1.5, 0.0)
        assert area == pytest.approx(math.pi * hi * hi, rel=1e-12)

    @pytest.mark.parametrize("j", [0.5, 1.0, 7.5, 200.0, 320.0, 320.5])
    def test_band_table_matches_per_belt_projection(self, j):
        # reference: each belt's two edges projected one call at a time, then sorted
        want = []
        for n, belt in enumerate(belts(j)):
            lo, hi = sorted((project(j, belt.z_lo), project(j, belt.z_hi)))
            want.append((n, belt.m, lo, hi, math.pi * (hi * hi - lo * lo)))
        rows = band_table(j)
        assert repr(rows) == repr(want)  # bit for bit, Python ints and floats
        for n in sorted({0, 1, len(rows) // 3, len(rows) // 2, len(rows) - 1}):
            assert repr(projected_band(j, n)) == repr(rows[n][2:4])
            assert repr(projected_band_area(j, n)) == repr(rows[n][4])

    def test_band_table_matches_projected_band_at_large_j(self):
        j = 20000.0
        rows = band_table(j)
        assert len(rows) == 40001
        for n in (0, 1, 2, 9999, 20000, 20001, 30000, 39999, 40000):
            lo, hi = projected_band(j, n)
            assert repr(rows[n]) == repr((n, n - j, lo, hi, projected_band_area(j, n)))
