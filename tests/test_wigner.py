"""Wigner evaluation routes, their equivalence, overlaps, and tomography."""

import io
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from phasewave import (
    ContainmentError,
    ContainmentWarning,
    DensityMatrix,
    FockState,
    PhaseGrid,
    QuadratureError,
    TruncationError,
    UV_TO_ALPHA,
    ValidationError,
    WignerField,
    alpha_from_uv,
    coherent_amplitudes,
    convention_check,
    parity_sum,
    radon_slice,
    rotated_quadrature,
    wigner_direct,
    wigner_parity,
    wigner_values,
)
from phasewave.fock import eigenfunction_stack
from phasewave.wigner import _chord_integrand, _royer_sums, _wigner_eval


def _states():
    return {
        "vacuum": FockState.vacuum().density(),
        "fock1": FockState.fock(1).density(),
        "fock3": FockState.fock(3).density(),
        "coherent1": coherent_amplitudes(1.0).density(),
        "coherent2": coherent_amplitudes(2.0).density(),
    }


def _reference_csv(field):
    """Per-node CSV writer, the byte oracle for WignerField.to_csv."""
    buf = io.StringIO()
    u, v = field.grid.u_axis, field.grid.v_axis
    buf.write("u,v,w\n")
    for i in range(field.grid.n_u):
        for j in range(field.grid.n_v):
            buf.write(f"{u[i]:.17g},{v[j]:.17g},{field.values[i, j]:.17g}\n")
    return buf.getvalue()


def _reference_json_dict(field):
    """Nested-list JSON dict, the oracle for WignerField.to_json_dict."""
    g = field.grid
    return {
        "grid": {
            "u_min": g.u_min, "u_max": g.u_max,
            "v_min": g.v_min, "v_max": g.v_max,
            "n_u": g.n_u, "n_v": g.n_v,
        },
        "values": [[float(x) for x in row] for row in field.values],
    }


def _coherent_field(grid, beta):
    """Closed-form Wigner field of a coherent state (Gaussian oracle)."""
    uu, vv = np.meshgrid(grid.u_axis, grid.v_axis, indexing="ij")
    u0 = math.sqrt(2.0) * beta.real
    v0 = math.sqrt(2.0) * beta.imag
    return WignerField(grid, np.exp(-((uu - u0) ** 2) - (vv - v0) ** 2) / math.pi)


class TestDirectRoute:
    def test_vacuum_at_origin(self):
        # closed-form Gaussian integral gives exactly 1/pi at the origin
        val = wigner_values(FockState.vacuum().density(), 0.0, 0.0)[0]
        assert val == pytest.approx(1.0 / math.pi, abs=1e-12)

    def test_fock1_at_origin(self):
        # parity-operator oracle: W(0,0) = <parity>/pi = -1/pi for one quantum
        val = wigner_values(FockState.fock(1).density(), 0.0, 0.0)[0]
        assert val == pytest.approx(-1.0 / math.pi, abs=1e-12)

    def test_coherent_matches_gaussian_oracle(self):
        grid = PhaseGrid(-4.0, 4.0, -4.0, 4.0, 33, 33)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ContainmentWarning)
            field = wigner_direct(coherent_amplitudes(1.0).density(), grid)
        oracle = _coherent_field(grid, 1.0 + 0.0j)
        assert np.max(np.abs(field.values - oracle.values)) < 1e-9

    @pytest.mark.parametrize(
        "name, extent",
        [("vacuum", 5.0), ("fock1", 6.0), ("fock3", 6.0), ("coherent1", 6.0)],
    )
    def test_grid_normalization(self, name, extent):
        rho = _states()[name]
        n = int(20 * extent) + 1
        grid = PhaseGrid(-extent, extent, -extent, extent, n, n)
        field = wigner_direct(rho, grid)
        assert field.normalization() == pytest.approx(1.0, abs=1e-4)

    def test_boundedness(self):
        grid = PhaseGrid(-5.0, 5.0, -5.0, 5.0, 41, 41)
        for rho in _states().values():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ContainmentWarning)
                field = wigner_direct(rho, grid)
            assert np.max(np.abs(field.values)) <= 1.0 / math.pi + 1e-6

    def test_negativity_witness_fock1(self):
        grid = PhaseGrid(-4.0, 4.0, -4.0, 4.0, 81, 81)
        field = wigner_direct(FockState.fock(1).density(), grid)
        k = np.unravel_index(field.values.argmin(), field.values.shape)
        assert field.values[k] == pytest.approx(-1.0 / math.pi, abs=1e-4)
        assert grid.u_axis[k[0]] == pytest.approx(0.0, abs=1e-12)
        assert grid.v_axis[k[1]] == pytest.approx(0.0, abs=1e-12)

    def test_containment_warning_emitted(self):
        grid = PhaseGrid(-2.0, 2.0, -2.0, 2.0, 11, 11)
        with pytest.warns(ContainmentWarning):
            wigner_direct(coherent_amplitudes(2.0).density(), grid)

    def test_chord_integrand_matches_dense_contraction(self):
        # rank 2, complex coherences, two empty levels after the last occupied one
        rng = np.random.default_rng(5)
        a = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
        norms = np.linalg.norm(a, axis=0)  # rho = A A^dag / tr as a mixture of A's columns
        rho = DensityMatrix(np.pad(a / norms, ((0, 2), (0, 0))), norms**2)
        u, y = np.linspace(-3.0, 3.0, 13), np.linspace(-8.0, 8.0, 41)
        # the dense contraction sum_mn psi_m(u + y/2) rho_mn psi_n(u - y/2)
        psi_p = eigenfunction_stack(np.eye(rho.n_max + 1), u[:, None] + 0.5 * y)
        psi_m = eigenfunction_stack(np.eye(rho.n_max + 1), u[:, None] - 0.5 * y)
        dense = np.einsum(
            "mxy,mn,nxy->xy", psi_p, rho.leading_block(rho.n_max + 1), psi_m, optimize=True
        )
        assert np.max(np.abs(dense.imag)) > 1e-2
        got = _chord_integrand(rho, u, y)
        assert np.max(np.abs(got - dense)) <= 1e-14

    def test_chord_integrand_builds_no_level_stack(self):
        # coherent:2 has a 65-level support: a stack of psi_0..psi_64 on these
        # nodes takes 22 MB, while its one summed column takes 0.7 MB
        rho = coherent_amplitudes(2.0).density()
        rho.support  # the cached factorization is not part of the integrand
        u, y = np.linspace(-6.0, 6.0, 41), np.linspace(-40.0, 40.0, 1025)
        tracemalloc.start()
        try:
            _chord_integrand(rho, u, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_nonconvergence_reports_worst_node(self):
        rho = FockState.vacuum().density()
        with pytest.raises(QuadratureError) as err:
            _wigner_eval(
                rho, [0.3], [0.1], True, rel_tol=1e-16, max_refinements=2
            )
        assert err.value.worst_node is not None


class TestParityRoute:
    def test_vacuum_parity_at_origin(self):
        s = parity_sum(FockState.vacuum().density(), 0.0)
        assert s.value == pytest.approx(2.0, abs=1e-12)

    def test_fock1_parity_at_origin(self):
        s = parity_sum(FockState.fock(1).density(), 0.0)
        assert s.value == pytest.approx(-2.0, abs=1e-12)

    def test_diagnostic_exposed(self):
        s = parity_sum(coherent_amplitudes(1.0).density(), 0.5 + 0.5j)
        assert s.last_term >= 0.0
        assert float(s) == s.value

    def test_truncation_rejected(self):
        rho = FockState.fock(60, 64).density()
        with pytest.raises(TruncationError):
            parity_sum(rho, 0.9, n_max=64)

    def test_single_point_is_a_batch_row(self):
        # the point sums occupations, the grid takes Royer's trace: two routes
        grid = PhaseGrid(-2.0, 2.0, -1.5, 1.5, 5, 4)
        uu, vv = np.meshgrid(grid.u_axis, grid.v_axis, indexing="ij")
        alphas = alpha_from_uv(uu.ravel(), vv.ravel())
        for name, rho in _states().items():
            batch = 2.0 * math.pi * wigner_parity(rho, grid, n_max=160).values.ravel()
            single = [parity_sum(rho, a, n_max=160).value for a in alphas]
            assert np.max(np.abs(batch - single)) <= 1e-14, name

    @pytest.mark.parametrize("bounds", [(-3.0, 2.0, -2.5, 3.0), (-2.0, 3.0, -3.0, 2.5)])
    def test_grid_refuses_exactly_when_a_node_does(self, bounds):
        # the grid route checks truncation at its corners only; sweep n_max
        # across the refusal boundary and compare with every node's own check
        # (the two grids put the largest |alpha| at opposite corners)
        grid = PhaseGrid(*bounds, 5, 5)
        uu, vv = np.meshgrid(grid.u_axis, grid.v_axis, indexing="ij")
        alphas = alpha_from_uv(uu.ravel(), vv.ravel())
        states = {**_states(), "phased": coherent_amplitudes(1.2 + 1.6j).density()}

        def refused(call, *args):
            try:
                call(*args)
            except TruncationError:
                return True
            return False

        for name, rho in states.items():
            lo, hi = rho.n_max, 400  # refused at lo, accepted at hi
            assert refused(wigner_parity, rho, grid, lo), name
            assert not refused(wigner_parity, rho, grid, hi), name
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (mid, hi) if refused(wigner_parity, rho, grid, mid) else (lo, mid)
            for n_max in range(hi - 2, hi + 2):
                by_grid = refused(wigner_parity, rho, grid, n_max)
                by_node = any(refused(parity_sum, rho, a, n_max) for a in alphas)
                assert by_grid == by_node == (n_max < hi), (name, n_max)

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(st.data())
    def test_royer_grid_matches_node_sums(self, data):
        # random mixed states with complex coherences on random small grids
        size = data.draw(st.integers(1, 6))
        rank = data.draw(st.integers(1, size))
        parts = data.draw(st.lists(
            st.floats(-1.0, 1.0), min_size=2 * size * rank, max_size=2 * size * rank
        ))
        a = np.reshape(parts[::2], (size, rank)) + 1j * np.reshape(parts[1::2], (size, rank))
        norms = np.linalg.norm(a, axis=0)
        assume(np.sum(norms**2) > 1e-3)
        keep = norms > 1e-100  # rho = A A^dag / tr as a mixture of A's nonzero columns
        rho = DensityMatrix(a[:, keep] / norms[keep], norms[keep] ** 2)
        bounds = []
        for _ in range(2):  # |alpha| <= 3 on the whole grid
            lo = data.draw(st.floats(-3.0, 2.5))
            bounds += [lo, data.draw(st.floats(lo + 0.1, 3.0))]
        n_u, n_v = data.draw(st.integers(2, 5)), data.draw(st.integers(2, 5))
        grid = PhaseGrid(*bounds, n_u, n_v)
        field = wigner_parity(rho, grid)
        uu, vv = np.meshgrid(grid.u_axis, grid.v_axis, indexing="ij")
        single = [parity_sum(rho, a).value for a in alpha_from_uv(uu.ravel(), vv.ravel())]
        assert np.max(np.abs(2.0 * math.pi * field.values.ravel() - single)) <= 1e-13
        assert np.max(np.abs(field.values)) <= 1.0 / math.pi

    def test_grid_builds_only_the_support_block(self):
        # fock:1 stored in 3001 levels has a support of 2 levels; its dense
        # 3001 x 3001 matrix alone would take 144 MB
        tracemalloc.start()
        try:
            wigner_parity(
                FockState.fock(1, 3000).density(), PhaseGrid(-1.0, 1.0, -1.0, 1.0, 3, 3)
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_uncertified_support_refused_by_both(self):
        # at n_max = 60 displacement by |alpha| = 3 is certified up to n = 2 only
        rho = FockState.fock(10, 10).density()
        with pytest.raises(TruncationError, match="certified only up to n=2"):
            parity_sum(rho, 3.0, n_max=60)
        with pytest.raises(TruncationError, match="certified only up to n=2"):
            wigner_parity(rho, PhaseGrid(-3.0, 3.0, -3.0, 3.0, 2, 2), n_max=60)

    def test_equivalence_against_direct(self):
        # the module's theorem-level check: S(alpha) = 2*pi*W at matched points
        rng = np.random.default_rng(2024)
        pts = rng.uniform(-1.0, 1.0, size=(25, 2)) * 3.0 / math.sqrt(2.0)
        keep = np.hypot(pts[:, 0], pts[:, 1]) * UV_TO_ALPHA <= 3.0
        pts = pts[keep]
        assert len(pts) >= 20
        for name, rho in _states().items():
            direct = 2.0 * math.pi * wigner_values(rho, pts[:, 0], pts[:, 1])
            par = np.array(
                [parity_sum(rho, alpha_from_uv(u, v)).value for u, v in pts]
            )
            assert np.max(np.abs(par - direct)) < 1e-6, name

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(st.data())
    def test_routes_agree_on_random_mixtures(self, data):
        # mixtures of 1-3 random complex components of up to 6 levels, at
        # random points |alpha| <= 3: the chord integral against Royer's trace
        pairs = []
        for _ in range(data.draw(st.integers(1, 3))):
            size = data.draw(st.integers(1, 6))
            parts = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * size,
                                       max_size=2 * size))
            amp = np.array(parts[::2]) + 1j * np.array(parts[1::2])
            norm = np.linalg.norm(amp)
            assume(norm > 1e-3)
            pairs.append((FockState(amp / norm), data.draw(st.floats(0.01, 1.0))))
        rho = DensityMatrix.mixture(pairs)
        radius = data.draw(st.floats(0.0, 3.0))
        angle = data.draw(st.floats(-math.pi, math.pi))
        u, v = np.array([radius * math.cos(angle), radius * math.sin(angle)]) / UV_TO_ALPHA
        w = wigner_values(rho, u, v)
        royer = _royer_sums(rho, alpha_from_uv([u], [v]))
        assert abs(2.0 * math.pi * w[0] - royer[0]) <= 1e-12
        assert abs(w[0]) <= 1.0 / math.pi

    @pytest.mark.parametrize("beta", [1.0, 0.6 + 0.8j])
    def test_parity_grid_matches_direct_grid(self, beta):
        # a complex amplitude gives complex coherences, so Im F(u, y) counts
        grid = PhaseGrid(-3.0, 3.0, -3.0, 3.0, 21, 21)
        rho = coherent_amplitudes(beta).density()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ContainmentWarning)
            direct = wigner_direct(rho, grid)
        par = wigner_parity(rho, grid)
        assert np.max(np.abs(direct.values - par.values)) < 1e-10

    def test_mixed_state_routes_agree(self):
        # exercises the eigendecomposition path of the batched parity route
        rho = DensityMatrix.mixture(
            [
                (FockState.vacuum(4), 0.3),
                (FockState.fock(2, 4), 0.5),
                (coherent_amplitudes(0.5, 16), 0.2),
            ]
        )
        grid = PhaseGrid(-3.0, 3.0, -3.0, 3.0, 15, 15)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ContainmentWarning)
            direct = wigner_direct(rho, grid)
        par = wigner_parity(rho, grid)
        assert np.max(np.abs(direct.values - par.values)) < 1e-10


class TestConvention:
    def test_origin_is_symmetric_point(self):
        # both identifications coincide at the origin: S = 2 = 2*pi*W
        rho = FockState.vacuum().density()
        s = parity_sum(rho, 0.0).value
        w = wigner_values(rho, 0.0, 0.0)[0]
        assert s == pytest.approx(2.0 * math.pi * w, abs=1e-10)

    def test_coherent_discriminates(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(-2.0, 2.0, size=(6, 2))
        report = convention_check(coherent_amplitudes(1.0).density(), pts)
        assert report.winner == "(u+iv)/sqrt(2)"
        assert report.scale == pytest.approx(UV_TO_ALPHA)
        assert report.deviations["(u+iv)/sqrt(2)"] < 1e-6
        assert report.deviations["u+iv"] > 1e-3

    def test_fock1_same_winner(self):
        rng = np.random.default_rng(6)
        pts = rng.uniform(-2.0, 2.0, size=(6, 2))
        report = convention_check(FockState.fock(1).density(), pts)
        assert report.winner == "(u+iv)/sqrt(2)"

    def test_nondiscriminating_sample_rejected(self):
        # at the origin alone, both candidates match: no single winner
        with pytest.raises(QuadratureError):
            convention_check(FockState.vacuum().density(), [(0.0, 0.0)])


class TestOverlap:
    """Tr(rho1 rho2) = 2*pi times the overlap of the two fields, as a grid sum."""

    def _field(self, rho, n=161, extent=6.0):
        grid = PhaseGrid(-extent, extent, -extent, extent, n, n)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ContainmentWarning)
            return wigner_direct(rho, grid)

    def test_purity_of_pure_state(self):
        w = self._field(FockState.vacuum().density())
        trace = 2.0 * math.pi * np.sum(w.values * w.values) * w.grid.cell_area
        assert trace == pytest.approx(1.0, abs=1e-3)

    def test_orthogonal_states(self):
        w0 = self._field(FockState.vacuum().density())
        w1 = self._field(FockState.fock(1).density())
        trace = 2.0 * math.pi * np.sum(w0.values * w1.values) * w0.grid.cell_area
        assert trace == pytest.approx(0.0, abs=1e-3)

    def test_coherent_pair_overlap(self):
        # closed form |<b1|b2>|^2 = exp(-|b1-b2|^2)
        w0 = self._field(FockState.vacuum().density())
        w1 = self._field(coherent_amplitudes(1.0).density())
        trace = 2.0 * math.pi * np.sum(w0.values * w1.values) * w0.grid.cell_area
        assert trace == pytest.approx(math.exp(-1.0), abs=1e-3)


class TestRotatedQuadrature:
    def test_identity_at_zero_angle(self):
        xs = np.linspace(-5, 5, 101)
        st = coherent_amplitudes(1.0)
        dens = rotated_quadrature(st, 0.0, xs)
        psi = eigenfunction_stack(st.amplitudes[:, None], xs)[0]
        np.testing.assert_allclose(dens, np.abs(psi) ** 2, atol=1e-14)

    def test_vacuum_rotation_invariant(self):
        xs = np.linspace(-5, 5, 101)
        st = FockState.vacuum()
        base = rotated_quadrature(st, 0.0, xs)
        for theta in (0.3, math.pi / 4, math.pi / 2, 2.1):
            np.testing.assert_allclose(
                rotated_quadrature(st, theta, xs), base, atol=1e-10
            )

    def test_fock_states_are_rotation_eigenstates(self):
        xs = np.linspace(-6, 6, 121)
        st = FockState.fock(1)
        base = rotated_quadrature(st, 0.0, xs)
        for theta in (math.pi / 6, math.pi / 4, math.pi / 2):
            np.testing.assert_allclose(
                rotated_quadrature(st, theta, xs), base, atol=1e-10
            )

    def test_half_turn_is_parity(self):
        xs = np.linspace(-5, 5, 101)
        st = coherent_amplitudes(0.8)
        dens = rotated_quadrature(st, math.pi, xs)
        base = rotated_quadrature(st, 0.0, -xs)
        np.testing.assert_allclose(dens, base, atol=1e-10)

    def test_coherent_rotates_classically(self):
        # rotated coherent state stays a unit Gaussian at sqrt(2)Re(b e^{-i t})
        xs = np.linspace(-6, 6, 121)
        beta = 1.0
        for theta in (0.0, math.pi / 6, math.pi / 2):
            dens = rotated_quadrature(coherent_amplitudes(beta), theta, xs)
            mu = math.sqrt(2.0) * beta * math.cos(theta)
            oracle = np.exp(-((xs - mu) ** 2)) / math.sqrt(math.pi)
            np.testing.assert_allclose(dens, oracle, atol=1e-10)


class TestRadonSlice:
    def test_vacuum_axis_marginal(self):
        # analytic marginal of the vacuum Gaussian: exp(-s^2)/sqrt(pi)
        grid = PhaseGrid(-5, 5, -5, 5, 401, 401)
        uu, vv = np.meshgrid(grid.u_axis, grid.v_axis, indexing="ij")
        field = WignerField(grid, np.exp(-(uu**2) - vv**2) / math.pi)
        xs = np.linspace(-3, 3, 61)
        slc = radon_slice(field, 0.0, xs)
        np.testing.assert_allclose(slc, np.exp(-(xs**2)) / math.sqrt(math.pi), atol=2e-4)

    def test_slice_normalization(self):
        grid = PhaseGrid(-5, 5, -5, 5, 401, 401)
        field = _coherent_field(grid, 1.0 + 0.0j)
        xs = np.linspace(-5, 5, 201)
        for theta in (0.0, 0.7, math.pi / 2):
            slc = radon_slice(field, theta, xs)
            total = np.sum(slc) * (xs[1] - xs[0])
            assert total == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("theta", [0.0, math.pi / 6, math.pi / 4, math.pi / 2])
    def test_matches_rotated_quadrature(self, theta):
        grid = PhaseGrid(-5, 5, -5, 5, 501, 501)
        xs = np.linspace(-4.5, 4.5, 91)
        dx = xs[1] - xs[0]
        for beta in (0.0 + 0.0j, 1.0 + 0.0j):
            field = _coherent_field(grid, beta)
            slc = radon_slice(field, theta, xs)
            dens = rotated_quadrature(coherent_amplitudes(beta), theta, xs)
            assert np.sum(np.abs(slc - dens)) * dx < 1e-4

    def test_containment_error(self):
        grid = PhaseGrid(-1.5, 1.5, -1.5, 1.5, 31, 31)
        field = _coherent_field(grid, 0.9 + 0.0j)
        with pytest.raises(ContainmentError):
            radon_slice(field, 0.3, np.linspace(-1.4, 1.4, 15))


class TestFieldSerialization:
    def _field(self):
        grid = PhaseGrid(-2.0, 2.0, -1.0, 1.0, 9, 7)
        uu, vv = np.meshgrid(grid.u_axis, grid.v_axis, indexing="ij")
        return WignerField(grid, np.exp(-(uu**2) - vv**2) / math.pi)

    def test_csv_roundtrip(self):
        field = self._field()
        text = field.to_csv()
        assert text.splitlines()[0] == "u,v,w"
        back = WignerField.from_csv(text)
        assert back.grid == field.grid
        np.testing.assert_array_equal(back.values, field.values)
        assert back.to_csv() == text

    def test_json_roundtrip(self):
        field = self._field()
        back = WignerField.from_json(field.to_json())
        assert back.grid == field.grid
        np.testing.assert_array_equal(back.values, field.values)

    def test_csv_rejects_bad_header(self):
        with pytest.raises(ValidationError):
            WignerField.from_csv("a,b,c\n1,2,3\n")

    @pytest.mark.parametrize("read, text", [
        (WignerField.from_csv, "u,v,w\n0,0,0.1\n0,x,0.1\n"),
        (WignerField.from_csv, "u,v,w\n0,0\n0,1\n1,0\n1,1\n"),
        (WignerField.from_csv, "u,v,w\n0,0,0.1\n0,1\n"),
        (WignerField.from_csv, "u,v,w\n"),
        (WignerField.from_json, "{not json"),
        (WignerField.from_json,
         '{"grid": {"u_min": 0, "u_max": 1, "v_min": 0, "v_max": 1, "n_u": 2, '
         '"n_v": 2}, "values": [[0.1, 0.1], [0.1]]}'),
        # NaN compares False against the Wigner bound, so it needs its own check
        (WignerField.from_csv, "u,v,w\n-1,-1,nan\n-1,1,0\n1,-1,0\n1,1,0\n"),
        (WignerField.from_json,
         '{"grid": {"u_min": -1, "u_max": 1, "v_min": -1, "v_max": 1, "n_u": 3.0, '
         '"n_v": 3}, "values": [[0.1, 0.1, 0.1], [0.1, 0.1, 0.1], [0.1, 0.1, 0.1]]}'),
        (WignerField.from_json,
         '{"grid": {"u_min": false, "u_max": true, "v_min": -1, "v_max": 1, "n_u": 2, '
         '"n_v": 2}, "values": [[0.1, 0.1], [0.1, 0.1]]}'),
    ], ids=["non_numeric", "two_columns", "ragged_csv", "empty_body", "not_json",
            "ragged_json", "nan_value", "float_count_json", "bool_bounds_json"])
    def test_rejects_malformed_body(self, read, text):
        with pytest.raises(ValidationError):
            read(text)

    # 3 x 2 grid: u in {0, 1, 2}, v in {0, 1}, w distinct per node
    _NODES = [(u, v, 0.01 * (2 * u + v)) for u in range(3) for v in range(2)]

    @pytest.mark.parametrize("rows", [
        sorted(_NODES, key=lambda n: (n[1], n[0])),  # v-major: would transpose
        _NODES[:3] + [_NODES[2]] + _NODES[4:],  # (1, 0) twice, (1, 1) missing
        [(u, v, 0.01 * (u + v)) for u in (0, 1, 5) for v in range(2)],  # read as 0, 2.5, 5
    ], ids=["v_major", "duplicated_node", "uneven_u"])
    def test_csv_rejects_out_of_order_nodes(self, rows):
        text = "u,v,w\n" + "".join(f"{u},{v},{w}\n" for u, v, w in rows)
        with pytest.raises(ValidationError, match="v-fastest order"):
            WignerField.from_csv(text)

    def test_codecs_match_per_node_reference(self):
        # values around the %.17g exponent switches (1e-4 / 1e-5), signed zero,
        # subnormals; a u axis with non-round bounds, a v axis crossing 1e17
        grid = PhaseGrid(-5.3, 4.7, -3e17, 1.7e17, 9, 7)
        special = [
            -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-5, -1e-5,
            np.nextafter(1e-5, 0.0), np.nextafter(1e-5, 1.0), 1e-4,
            np.nextafter(1e-4, 0.0), 9.9999999999999991e-06, 1.0 / math.pi,
            -1.0 / math.pi, 0.1, 1.0 / 7.0,
        ]
        rng = np.random.default_rng(4)
        values = rng.uniform(-1.0 / math.pi, 1.0 / math.pi, grid.n_u * grid.n_v)
        values[: len(special)] = special
        field = WignerField(grid, values.reshape(grid.n_u, grid.n_v))
        assert field.to_csv() == _reference_csv(field)
        assert field.to_json() == json.dumps(_reference_json_dict(field))

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(st.data())
    def test_roundtrip_is_bit_exact(self, data):
        n_u, n_v = data.draw(st.integers(2, 12)), data.draw(st.integers(2, 12))
        lo = data.draw(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=2))
        span = data.draw(st.lists(st.floats(1e-3, 1e3), min_size=2, max_size=2))
        grid = PhaseGrid(lo[0], lo[0] + span[0], lo[1], lo[1] + span[1], n_u, n_v)
        w = 1.0 / math.pi
        values = data.draw(st.lists(
            st.one_of(
                st.floats(-w, w),
                st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308]),
            ),
            min_size=n_u * n_v, max_size=n_u * n_v,
        ))
        field = WignerField(grid, np.reshape(values, (n_u, n_v)))
        for back in (WignerField.from_csv(field.to_csv()),
                     WignerField.from_json(field.to_json())):
            assert back.grid == field.grid
            assert back.values.tobytes() == field.values.tobytes()

    def test_bound_violation_rejected(self):
        grid = PhaseGrid(-1, 1, -1, 1, 3, 3)
        with pytest.raises(ValidationError):
            WignerField(grid, np.full((3, 3), 1.0))

    def test_grid_validation(self):
        with pytest.raises(ValidationError):
            PhaseGrid(2.0, -2.0, -1.0, 1.0, 5, 5)
        with pytest.raises(ValidationError):
            PhaseGrid(-2.0, 2.0, -1.0, 1.0, 1, 5)
        with pytest.raises(ValidationError):
            PhaseGrid(-np.inf, 2.0, -1.0, 1.0, 5, 5)
        with pytest.raises(ValidationError, match="n_u must be an integer"):
            PhaseGrid(-1.0, 1.0, -1.0, 1.0, 3.0, 3)
        with pytest.raises(ValidationError, match="u bounds must be real numbers"):
            PhaseGrid(False, True, -1.0, 1.0, 3, 3)
