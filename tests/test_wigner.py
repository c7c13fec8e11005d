"""Wigner evaluation routes, their equivalence, overlaps, and tomography."""

import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from phasewave import (
    ContainmentError,
    ContainmentWarning,
    DensityMatrix,
    FockState,
    NumericsError,
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
from phasewave import fock, wigner
from phasewave.fock import _displacement_batch, eigenfunction_stack
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


def _dense_royer_sums(rho, alphas):
    """2 Re sum_{m,n<s} rho_nm <m|D(2 alpha)|n> (-1)^n, contracted with the whole
    s x s block of D(2 alpha) per node: the reference for _royer_sums."""
    s = rho.support[1].shape[0]
    signs = 1.0 - 2.0 * (np.arange(s) % 2)
    weights = (rho.leading_block(s) * signs[:, None]).T.ravel()  # rho_nm (-1)^n at [m, n]
    block = _displacement_batch(2.0 * alphas, s - 1, np.arange(s))
    return 2.0 * (block.reshape(-1, s * s) @ weights).real


#: Roundoff allowed on a Royer-trace |W| above its bound: 4 ulps of 1/pi, twice
#: the largest excess measured over 7000 random and one-level states.
_ROYER_ROUNDOFF = 4 * math.ulp(1.0 / math.pi)


def _w_bound(rho):
    """tr(rho)/pi, the bound on |W| of the stored operator.  Its trace,
    sum_i w_i |a_i|^2, may differ from 1 by roundoff: the one-level state
    (1 + 0.125j)/|1 + 0.125j| stores 1 + 2**-52."""
    weights, amplitudes = rho.support
    return float(np.dot(weights, np.sum(np.abs(amplitudes) ** 2, axis=0))) / math.pi


def _random_mixture(rng, size, rank):
    """Mixture of ``rank`` random complex components over ``size`` levels."""
    a = rng.normal(size=(size, rank)) + 1j * rng.normal(size=(size, rank))
    norms = np.linalg.norm(a, axis=0)
    return DensityMatrix(a / norms, norms**2)


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

    @pytest.mark.parametrize("state, grid, layout", [
        # du = 1.4 is coarser than hy/2: rows m > 1 lattice steps apart
        (FockState.fock(3), PhaseGrid(-7.0, 7.0, -7.0, 7.0, 11, 11), "coarse"),
        ((1.5 + 0.8j), PhaseGrid(-7.0, 7.0, -7.0, 7.0, 11, 11), "coarse"),
        # du = 1/30 is finer than hy/2: chord nodes q > 1 rows apart
        (FockState.fock(1), PhaseGrid(-5.0, 5.0, -5.0, 5.0, 301, 301), "fine"),
        ((-0.7 + 0.4j), PhaseGrid(-5.0, 5.0, -5.0, 5.0, 301, 31), "fine"),
        # an offset u axis, so the lattice is not centred on u = 0
        (FockState.fock(2), PhaseGrid(-3.7, 5.3, -5.0, 5.0, 37, 21), "coarse"),
        ((1.2 - 0.3j), PhaseGrid(-2.3, 4.1, -4.0, 4.0, 257, 17), "fine"),
        # rows 1e-6 apart: a shared lattice would span the window at that
        # spacing, so each row takes its own
        ((0.4 + 0.9j), PhaseGrid(-1e-6, 1e-6, -3.0, 3.0, 3, 13), "own"),
    ], ids=["fock3-coarse", "coherent-coarse", "fock1-fine", "coherent-fine",
            "fock2-offset", "coherent-offset", "coherent-narrow"])
    def test_shared_lattice_matches_closed_forms(self, monkeypatch, state, grid, layout):
        layouts = []

        def recording(rho, xs, pitch, stride, nodes):
            own = pitch == 2 * nodes - 1  # row i's lattice is xs[i * pitch:][:pitch]
            layouts.append(
                "own" if own else "coarse" if pitch > 1 else "fine" if stride > 1 else "unit"
            )
            return _chord_integrand(rho, xs, pitch, stride, nodes)

        monkeypatch.setattr(wigner, "_chord_integrand", recording)
        uu, vv = np.meshgrid(grid.u_axis, grid.v_axis, indexing="ij")
        if isinstance(state, FockState):
            # (-1)^n / pi e^(-r^2) L_n(2 r^2), L_n by its three-term recurrence
            n, x = int(np.argmax(np.abs(state.amplitudes))), 2.0 * (uu**2 + vv**2)
            prev, lag = np.zeros_like(x), np.ones_like(x)
            for k in range(n):
                prev, lag = lag, ((2 * k + 1 - x) * lag - k * prev) / (k + 1)
            oracle = (-1) ** n * np.exp(-0.5 * x) * lag / math.pi
            rho = state.density()
        else:
            oracle = _coherent_field(grid, state).values
            rho = coherent_amplitudes(state).density()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ContainmentWarning)
            field = wigner_direct(rho, grid)
        assert np.max(np.abs(field.values - oracle)) < 1e-9
        # rows m > 1 lattice steps apart, or chord nodes q > 1 rows apart
        assert layouts[0] == layout
        # the paired route, one lattice per point, agrees at the nodes
        every = slice(None, None, uu.size // 97 + 1)
        paired = wigner_values(rho, uu.ravel()[every], vv.ravel()[every])
        assert layouts[-1] == "own"
        assert np.max(np.abs(paired - field.values.ravel()[every])) < 1e-12

    def test_readme_direct_field_holds_no_chord_sample_stack(self):
        # README's coherent:2 on -6:6:81: the second level's shared lattice
        # holds 2,743 abscissae, where 81 rows x 2049 chord nodes took
        # 165,969 samples per sign of y.  Measured peak 6.4 MiB; it was 13.9 MiB
        # when every row sampled its own chord nodes
        rho = coherent_amplitudes(2.0).density()
        rho.support  # the cached support is not part of the route
        grid = PhaseGrid(-6.0, 6.0, -6.0, 6.0, 81, 81)
        tracemalloc.start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ContainmentWarning)
                wigner_direct(rho, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

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
        u, nodes = np.linspace(-3.6, 3.6, 13), 21
        # rows u_i on one shared lattice (pitch 3, stride 2), and each on its own
        shared = 0.2 * np.arange(-58, 59)
        own = (u[:, None] + 0.2 * np.arange(1 - nodes, nodes)).ravel()
        for xs, pitch, stride in ((shared, 3, 2), (own, 2 * nodes - 1, 1)):
            reach = (nodes - 1) * stride
            centre = reach + pitch * np.arange(u.size)[:, None]
            assert np.allclose(xs[centre[:, 0]], u, rtol=0.0, atol=1e-14)
            j = stride * np.arange(nodes)
            # the dense contraction sum_mn psi_m(u + y/2) rho_mn psi_n(u - y/2)
            psi_p = eigenfunction_stack(np.eye(rho.n_max + 1), xs[centre + j])
            psi_m = eigenfunction_stack(np.eye(rho.n_max + 1), xs[centre - j])
            dense = np.einsum(
                "mxy,mn,nxy->xy", psi_p, rho.leading_block(rho.n_max + 1), psi_m, optimize=True
            )
            assert np.max(np.abs(dense.imag)) > 1e-2
            got = _chord_integrand(rho, xs, pitch, stride, nodes)
            assert np.max(np.abs(got - dense)) <= 1e-14

    def test_chord_integrand_builds_no_level_stack(self):
        # coherent:2 has a 65-level support: on one lattice per row for 41
        # rows x 1025 nodes a stack of psi_0..psi_64 takes 44 MB, while its
        # one summed column takes 0.7 MB
        rho = coherent_amplitudes(2.0).density()
        rho.support  # the cached support is not part of the integrand
        u = np.linspace(-6.0, 6.0, 41)
        xs = (u[:, None] + (40.0 / 1024) * np.arange(-1024, 1025)).ravel()
        tracemalloc.start()
        try:
            _chord_integrand(rho, xs, 2049, 1, 1025)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_nonconvergence_reports_worst_node(self, monkeypatch):
        monkeypatch.setattr(wigner, "REL_TOL", 0.0)  # no two levels agree to under 0
        monkeypatch.setattr(wigner, "MAX_REFINEMENTS", 2)
        rho = FockState.vacuum().density()
        with pytest.raises(QuadratureError) as err:
            _wigner_eval(rho, [0.3], [0.1], True)
        assert err.value.worst_node is not None

    @pytest.mark.xfail(
        strict=True,
        reason="the Hermite start exp(-x*x/2) underflows to 0.0 beyond |x| ~ 38.6, "
        "so every chord sample of coherent:30 at its centre reads 0 and the "
        "quadrature converges to 0; ROADMAP item 3 scales the recurrence",
    )
    def test_far_coherent_centre(self):
        rho = coherent_amplitudes(30.0).density()
        got = wigner_values(rho, [30.0 * math.sqrt(2.0)], [0.0])
        assert abs(got[0] - 1.0 / math.pi) < 1e-9

    def test_empty_point_set_rejected(self):
        with pytest.raises(ValidationError, match="at least one point"):
            wigner_values(FockState.vacuum().density(), [], [])

    def test_unpaired_points_rejected(self):
        with pytest.raises(ValidationError, match="^u and v must have matching shapes$"):
            wigner_values(FockState.vacuum().density(), [0.0, 1.0], [0.0])

    @pytest.mark.parametrize("call", [
        lambda rho: wigner_values(rho, 0.0, 1e300),
        lambda rho: wigner_values(rho, 0.0, 0.0, min_points=10**7),
        lambda rho: wigner_values(rho, 1e308, 0.0),  # window inf, target inf * 0
        # a first level of 1025 nodes would hold 2000 x 1025 complex samples (33 MB)
        lambda rho: wigner_direct(rho, PhaseGrid(-5.0, 5.0, -20.0, 20.0, 2000, 2)),
        lambda rho: wigner_direct(rho, PhaseGrid(-1e154, 1e154, -1e154, 1e154, 3, 3)),
    ])
    def test_chord_budget_refuses_before_allocation(self, call):
        rho = FockState.vacuum().density()
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match="limit of 1000000 chord samples"):
                call(rho)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_level_past_the_budget_ends_unconverged(self, monkeypatch):
        # 300 rows: levels of 1025 and 2049 nodes fit the budget, 4097 does not;
        # with no tolerance to meet, the refinement stops there unconverged
        monkeypatch.setattr(wigner, "REL_TOL", 0.0)
        with pytest.raises(QuadratureError, match="^chord quadrature not converged"):
            wigner_values(FockState.vacuum(), np.zeros(300), np.linspace(0.0, 1.0, 300),
                          min_points=1025)

    @pytest.mark.parametrize("lo, hi", [(0.0, 5e-324), (0.0, 1e-320), (-1e-310, 1e-310)])
    def test_subnormal_row_spacing_takes_the_rows_own_lattices(self, lo, hi):
        # h / (2 du) is inf there, so a shared lattice would need q = inf chord steps
        rho = FockState.vacuum()
        grid = PhaseGrid(lo, hi, -1.0, 1.0, 2, 3)
        deviation = np.abs(wigner_direct(rho, grid).values - wigner_parity(rho, grid).values)
        assert deviation.max() < 1e-12


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

    @pytest.mark.xfail(
        strict=True,
        reason="the Laguerre start r**k exp(-r*r/2)/sqrt(k!) underflows to 0.0 for "
        "small k beyond r = |2 alpha| ~ 38.6, so the grid's trace reads 1.18 where "
        "parity_sum reads 2; ROADMAP item 3 scales the recurrence",
    )
    def test_far_coherent_centre(self):
        # the parity twin of TestDirectRoute's: S = 2 at any coherent state's
        # centre, which coherent:18 (|2 alpha| = 36) still reaches
        for beta in (18.0, 20.0):
            rho = coherent_amplitudes(beta).density()
            assert abs(_royer_sums(rho, np.array([beta + 0j]))[0] - 2.0) < 1e-9, beta

    def test_truncation_rejected(self):
        rho = FockState.fock(60, 64).density()
        with pytest.raises(TruncationError):
            parity_sum(rho, 0.9, n_max=64)

    def test_alternating_sum_not_converged(self, monkeypatch):
        exact = fock._displaced_occupations

        def heavy_tail(rho, alphas, n_max=None):
            p = exact(rho, alphas, n_max)
            p[:, -1] = 1e-7
            return p

        monkeypatch.setattr(fock, "_displaced_occupations", heavy_tail)
        with pytest.raises(TruncationError, match="^alternating sum not converged: "
                                                  "last term 1.000e-07 above 1e-08"):
            parity_sum(FockState.vacuum(), 0.3)

    def test_grid_corners_checked_against_occupation_sums(self, monkeypatch):
        # the grid's own corner values are compared; a moved interior node is not
        grid = PhaseGrid(-2.0, 2.0, -1.0, 1.0, 3, 4)
        exact = wigner._royer_sums

        def moved(node):
            def royer(rho, alphas):
                sums = exact(rho, alphas)
                sums[node] += 2.0 * math.pi * 2e-6
                return sums
            return royer

        monkeypatch.setattr(wigner, "_royer_sums", moved(2 * 4 + 0))
        with pytest.raises(NumericsError, match=re.escape(
                "the Royer and occupation routes disagree at corner (u, v) = (2.0, -1.0): "
                "|dW| = 2.000e-06 exceeds 1e-06")):
            wigner_parity(FockState.fock(1), grid)
        monkeypatch.setattr(wigner, "_royer_sums", moved(4 + 1))
        wigner_parity(FockState.fock(1), grid)

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
        assert np.max(np.abs(field.values)) <= _w_bound(rho) + _ROYER_ROUNDOFF

    @pytest.mark.parametrize("chunk", [None, 3])
    @pytest.mark.parametrize("bounds, n_u, n_v, shared, reach", [
        ((-2.3, 4.1, -3.7, 1.9), 7, 9, False, 7.81),  # no two nodes share a radius
        ((-3.0, 3.0, -3.0, 3.0), 9, 9, True, 6.0),  # mirrored nodes share radii
        ((-7.0, 7.0, -7.0, 7.0), 15, 15, True, 14.0),  # as test_royer_block_matches_mpmath
    ])
    def test_harmonic_sums_match_dense_block(self, monkeypatch, bounds, n_u, n_v, shared,
                                             reach, chunk):
        # random mixtures with complex coherences, a complex coherent state and
        # a coherent:2-sized support; chunk=3 puts three radii in each block
        grid = PhaseGrid(*bounds, n_u, n_v)
        uu, vv = np.meshgrid(grid.u_axis, grid.v_axis, indexing="ij")
        alphas = alpha_from_uv(uu.ravel(), vv.ravel())
        radii = np.abs(2.0 * alphas)
        assert radii.max() == pytest.approx(reach, abs=0.01)
        distinct = np.unique(radii).size
        assert (distinct < alphas.size // 4) if shared else (distinct == alphas.size)
        assert (radii == 0.0).any() == shared  # the symmetric grids hold the origin
        rng = np.random.default_rng(11)
        states = [_random_mixture(rng, size, rank) for size, rank in [(1, 1), (6, 2), (40, 3)]]
        states += [
            coherent_amplitudes(1.2 + 1.6j).density(),
            DensityMatrix.mixture([
                (coherent_amplitudes(2.0 * np.exp(0.7j)), 0.6), (FockState.fock(3, 64), 0.4),
            ]),
        ]
        for i, rho in enumerate(states):
            if chunk is not None:
                s = rho.support[1].shape[0]
                monkeypatch.setattr(fock, "_CHUNK_ELEMS", chunk * s * s)
            got = _royer_sums(rho, alphas)
            assert np.max(np.abs(got - _dense_royer_sums(rho, alphas))) <= 1e-13, i

    def test_grid_sums_in_bounded_memory(self):
        # one _CHUNK_ELEMS block of D(2 alpha) over coherent:2's 65 support
        # levels takes 128 MiB; the harmonic sums hold arrays over (radii of
        # a block, 65) and over the nodes
        rho = coherent_amplitudes(2.0).density()
        tracemalloc.start()
        try:
            wigner_parity(rho, PhaseGrid(-6.0, 6.0, -6.0, 6.0, 201, 201))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

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
        # the chord quadrature stops once its levels agree to REL_TOL / pi, and
        # puts fock:5 at the origin 58 ulps above 1/pi
        assert abs(royer[0]) / (2.0 * math.pi) <= _w_bound(rho) + _ROYER_ROUNDOFF
        assert abs(w[0]) <= _w_bound(rho) + wigner.REL_TOL / math.pi

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
        # a three-component mixture: the chord integrand sums one term per
        # stored component, the parity grid reads the occupied block
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

    def test_repeated_component_gives_the_pure_fields(self):
        # mixture:coherent:1@1;coherent:1@1 is coherent:1 stored as two
        # identical components of weight 1/2 each
        grid = PhaseGrid(-3.0, 3.0, -3.0, 3.0, 15, 15)
        coh = coherent_amplitudes(1.0)
        pure, twice = coh.density(), DensityMatrix.mixture([(coh, 1.0), (coh, 1.0)])
        assert twice.support[1].shape[1] == 2
        for route in (wigner_direct, wigner_parity):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ContainmentWarning)
                fields = [route(rho, grid).values for rho in (pure, twice)]
            assert np.max(np.abs(fields[0] - fields[1])) <= 1e-15, route.__name__


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

    def test_empty_sample_rejected(self):
        with pytest.raises(ValidationError, match="^need at least one sample point$"):
            convention_check(FockState.vacuum().density(), [])


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

    def test_fresnel_kernel_is_the_fock_basis_rotation(self):
        # the quadratic-phase kernel is the Fresnel propagator; the rotation it
        # performs is diagonal in the Fock basis, psi_theta = sum_n c_n e^{-in theta} psi_n.
        # The states' relative Fock phases matter, so e^{+in theta} misses by 0.6.
        # 121 points take coherent:2 at 0.3 and pi - 0.3 past one kernel block.
        rng = np.random.default_rng(28)
        c = rng.normal(size=9) + 1j * rng.normal(size=9)
        states = (coherent_amplitudes(1 + 0.5j), coherent_amplitudes(2.0),
                  FockState(np.array([1, 0, 0, 1j]) / math.sqrt(2.0)),
                  FockState(c / np.linalg.norm(c)))
        xs = np.linspace(-6, 6, 121)
        for st in states:
            n = np.arange(st.n_max + 1)
            for theta in (0.3, math.pi / 6, math.pi / 2, 2.0, math.pi - 0.3, 4.0):
                turned = st.amplitudes * np.exp(-1j * n * theta)
                oracle = np.abs(eigenfunction_stack(turned[:, None], xs)[0]) ** 2
                np.testing.assert_allclose(rotated_quadrature(st, theta, xs), oracle,
                                           rtol=0, atol=1e-11)

    @pytest.mark.parametrize("theta", [1e-3, 1e-6, math.pi - 1e-6])
    def test_oversized_kernel_refused_before_allocation(self, theta):
        # the node count grows as 1/|sin theta|: at 1e-3 the doubled level would
        # have 1.03e6 nodes, at 1e-6 about 1e9
        xs = np.linspace(-6, 6, 41)
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError,
                               match=r"^\d+ rotation kernel nodes exceed the limit of 1000000$"):
                rotated_quadrature(FockState.vacuum(), theta, xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize("theta", [0.0, 0.3])
    def test_empty_abscissa_gives_empty_density(self, theta):
        # both branches: |sin theta| < 1e-12 reads psi itself, 0.3 forms the kernel
        dens = rotated_quadrature(coherent_amplitudes(1.0), theta, [])
        assert dens.shape == (0,)

    def test_doubling_refusal(self, monkeypatch):
        exact = wigner._rotated_once
        monkeypatch.setattr(wigner, "_rotated_once", lambda psi, theta, xs, oversample:
                            exact(psi, theta, xs, oversample) + 1e-8 * oversample)
        with pytest.raises(QuadratureError, match="^rotation kernel quadrature not converged: "
                                                  "doubling changes the density by 1.000e-08$"):
            rotated_quadrature(FockState.vacuum(), 0.3, np.linspace(-2.0, 2.0, 5))

    @pytest.mark.parametrize("theta, xs, oversample", [
        (0.3, [0.0, math.inf], 1), (0.3, [0.0, math.nan], 1), (math.nan, [0.0], 1),
        (math.inf, [0.0], 1), (0.3, [0.0], 0), (0.3, [0.0], -1),
    ], ids=["inf_x", "nan_x", "nan_theta", "inf_theta", "oversample_0", "oversample_-1"])
    def test_nonfinite_input_refused(self, theta, xs, oversample):
        message = "^theta and xs must be finite, and oversample at least 1$"
        with pytest.raises(ValidationError, match=message):
            rotated_quadrature(coherent_amplitudes(1.0), theta, xs, oversample=oversample)


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

    @pytest.mark.parametrize("theta, xs", [(math.nan, [0.0]), (0.3, [math.nan]),
                                           (0.3, [math.inf]), (-math.inf, [0.0])])
    def test_nonfinite_input_refused(self, theta, xs):
        field = _coherent_field(PhaseGrid(-5, 5, -5, 5, 21, 21), 0.0)
        with pytest.raises(ValidationError, match="^theta and xs must be finite$"):
            radon_slice(field, theta, xs)


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
        with pytest.raises(ValidationError, match="re-serialization differs from the file"):
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
        assert field.to_json() == json.dumps(_reference_json_dict(field)) + "\n"

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
        with pytest.raises(ValidationError, match="v_max - v_min overflows"):
            PhaseGrid(-1.0, 1.0, -1e308, 1e308, 3, 3)
        # as doubles 2**60 + 1 is 2**60, so the u axis would hold three equal nodes
        with pytest.raises(ValidationError, match="u_max must exceed u_min"):
            PhaseGrid(2**60, 2**60 + 1, -1, 1, 3, 3)
        for i in range(4):  # an integer bound beyond the double range
            bounds = [-1, 1, -1, 1]
            bounds[i] = (-1) ** (i + 1) * 10**400
            with pytest.raises(ValidationError, match="bounds must be finite doubles"):
                PhaseGrid(*bounds, 3, 3)


class TestGridAxes:
    @staticmethod
    def _cases(rng):
        """(lo, hi, n) triples over float, int64, subnormal and near-maximal spans."""
        big = 1.7976931348623157e308
        for k in range(2500):
            n = int(round(math.exp(rng.uniform(math.log(2), math.log(3000)))))
            family = k % 5
            if family == 0:  # floats of any scale
                scale = 10.0 ** rng.uniform(-300, 300)
                lo, span = rng.uniform(-scale, scale), scale * rng.uniform(1e-6, 2.0)
                hi = lo + span
            elif family == 1:  # integers within int64
                lo = int(rng.integers(-2**63, 2**63 - 2))
                hi = int(rng.integers(lo + 1, 2**63))
            elif family == 2:  # subnormal spans: the step underflows to 0
                lo = float(rng.choice([0.0, -1e-310, 2.5e-320]))
                hi = lo + 5e-324 * int(rng.integers(1, 2 * n))
            elif family == 3:  # spans near the double maximum
                lo = -big * rng.uniform(0.0, 0.5)
                hi = big * rng.uniform(0.5, 1.0) + lo
                hi = min(hi, big)
            else:  # small integers and mixed int/float bounds
                lo = int(rng.integers(-50, 50))
                hi = float(lo + rng.uniform(1e-12, 100.0))
            if hi > lo:
                yield lo, hi, n

    def test_axes_match_linspace_bit_for_bit(self):
        # a grid is refused exactly where np.linspace repeats a node
        rng = np.random.default_rng(20)
        checked = refused = 0
        for lo, hi, n in self._cases(rng):
            ref = np.linspace(lo, hi, n)
            if np.all(np.diff(ref) > 0):
                grid = PhaseGrid(lo, hi, 0.0, 1.0, n, 2)
                assert np.asarray(grid.u_axis).tobytes() == ref.tobytes(), (lo, hi, n)
                checked += 1
            else:
                with pytest.raises(ValidationError, match="the u axis repeats a node"):
                    PhaseGrid(lo, hi, 0.0, 1.0, n, 2)
                refused += 1
        assert checked > 2000 and refused > 100

    def test_repeated_node_refused_after_the_node_budget(self):
        with pytest.raises(ValidationError, match=r"^the u axis repeats a node: its 3 nodes "
                           r"from 1\.0 to 1\.0000000000000002 are not distinct doubles$"):
            PhaseGrid(1.0, 1.0000000000000002, -1, 1, 3, 3)
        with pytest.raises(ValidationError, match="the v axis repeats a node"):
            PhaseGrid(-1, 1, 0.0, 5e-324, 3, 3)
        # the node budget comes first, so no axis of a refused size is built
        with pytest.raises(ValidationError, match="exceed the limit of 4000000"):
            PhaseGrid(0.0, 5e-324, -1, 1, 3000, 3000)
        # and a file holding such a grid is refused with it
        text = ('{"grid": {"u_min": 1.0, "u_max": 1.0000000000000002, "v_min": -1.0, '
                '"v_max": 1.0, "n_u": 3, "n_v": 2}, '
                '"values": [[0.1, 0.1], [0.1, 0.1], [0.1, 0.1]]}\n')
        with pytest.raises(ValidationError, match="the u axis repeats a node"):
            WignerField.from_json(text)

    def test_axes_come_from_float_bounds(self):
        grid = PhaseGrid(-10**20, 10**20, -1, 1, 3, 3)
        assert grid.u_axis == [-1e20, 0.0, 1e20]
        assert all(type(x) is float for x in grid.u_axis + grid.v_axis)
        with pytest.raises(ValidationError, match="limit of 1000000 chord samples"):
            wigner_direct(FockState.vacuum().density(), grid)

    def test_field_with_integer_bounds_beyond_int64_rewrites(self):
        text = ('{"grid": {"u_min": -100000000000000000000, "u_max": 100000000000000000000, '
                '"v_min": -1, "v_max": 1, "n_u": 3, "n_v": 3}, '
                '"values": [[0.1, 0.1, 0.1], [0.1, 0.1, 0.1], [0.1, 0.1, 0.1]]}\n')
        field = WignerField.from_json(text)
        assert field.to_json() == text
        assert field.to_csv().splitlines()[1:4] == [
            "-1e+20,-1,0.10000000000000001", "-1e+20,0,0.10000000000000001",
            "-1e+20,1,0.10000000000000001",
        ]


def _reference_field(grid, values):
    """The numpy field checks, the oracle for WignerField's constructor."""
    vals = np.asarray(values, dtype=float)
    if vals.shape != (grid.n_u, grid.n_v):
        raise ValidationError("values shape does not match the grid")
    if not np.all(np.isfinite(vals)):
        raise ValidationError("Wigner values must be finite")
    if float(np.max(np.abs(vals))) > 1.0 / math.pi + 1e-6:
        raise ValidationError("values exceed the Wigner bound 1/pi")
    return grid, vals


def _reference_from_csv(text):
    """The np.loadtxt / np.unique CSV reader, the oracle for WignerField.from_csv."""
    header, _, body = text.partition("\n")
    if header.rstrip("\r") != "u,v,w":
        raise ValidationError("expected header u,v,w")
    if not body.strip():
        raise ValidationError("no data rows")
    try:
        data = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2, comments=None)
    except ValueError as exc:
        raise ValidationError(f"malformed field CSV: {exc}") from exc
    if data.shape[1] != 3:
        raise ValidationError("expected 3 columns u,v,w")
    u_axis, v_axis = np.unique(data[:, 0]), np.unique(data[:, 1])
    grid = PhaseGrid(float(u_axis[0]), float(u_axis[-1]), float(v_axis[0]),
                     float(v_axis[-1]), int(u_axis.size), int(v_axis.size))
    us = np.linspace(grid.u_min, grid.u_max, grid.n_u)
    vs = np.linspace(grid.v_min, grid.v_max, grid.n_v)
    if not (np.array_equal(data[:, 0], np.repeat(us, grid.n_v))
            and np.array_equal(data[:, 1], np.tile(vs, grid.n_u))):
        raise ValidationError("nodes are not in u-major, v-fastest order")
    return _reference_field(grid, data[:, 2].reshape(grid.n_u, grid.n_v))


def _reference_from_json(text):
    """The np.array JSON reader, the oracle for WignerField.from_json."""
    try:
        obj = json.loads(text)
        g = obj["grid"]
        grid = PhaseGrid(g["u_min"], g["u_max"], g["v_min"], g["v_max"], g["n_u"], g["n_v"])
        values = np.array(obj["values"], dtype=float)
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed field JSON: {exc}") from exc
    return _reference_field(grid, values)


def _edit_row(fn):
    """A CSV perturbation applying ``fn(row, rng)`` to one data row."""
    def perturb(text, rng):
        rows = text.split("\n")
        k = int(rng.integers(1, len(rows) - 1))
        rows[k] = fn(rows[k], rng)
        return "\n".join(rows)
    return perturb


def _edit_token(column, fn):
    return _edit_row(lambda row, rng: ",".join(
        fn(tok) if i == column else tok for i, tok in enumerate(row.split(","))))


def _insert_rows(extra):
    def perturb(text, rng):
        rows = text.split("\n")
        k = int(rng.integers(1, len(rows)))
        return "\n".join(rows[:k] + [extra] + rows[k:])
    return perturb


def _swap_rows(text, rng):
    rows = text.split("\n")
    k = int(rng.integers(1, len(rows) - 2))
    rows[k], rows[k + 1] = rows[k + 1], rows[k]
    return "\n".join(rows)


def _respell(tok):
    """The same double in another spelling: exponent form, explicit sign."""
    x = float(tok)
    return ("%.17e" % x) if x < 0 else "+" + repr(x)


#: name -> perturbation of a well-formed CSV text
_CSV_PERTURBATIONS = {
    "as_written": lambda text, rng: text,
    "crlf": lambda text, rng: text.replace("\n", "\r\n"),
    "crlf_no_final_newline": lambda text, rng: text.replace("\n", "\r\n")[:-1],
    "blank_line": _insert_rows(""),
    "crlf_blank_line": lambda text, rng: _insert_rows("")(text, rng).replace("\n", "\r\n"),
    "trailing_blank_lines": lambda text, rng: text + "\n\n",
    "space_only_line": _insert_rows("  "),
    "tab_only_line": _insert_rows("\t"),
    "spaces_around_tokens": _edit_row(lambda row, rng: " , ".join(row.split(",")) + " "),
    "tab_and_nbsp_padding": _edit_row(lambda row, rng: "\t" + row + "\xa0"),
    # a "+" in place of the token's minus, if it has one, so the text always changes
    "leading_plus": _edit_token(2, lambda tok: "+" + tok.removeprefix("-")),
    "respelled_u": _edit_token(0, _respell),
    "respelled_v": _edit_token(1, _respell),
    "no_final_newline": lambda text, rng: text[:-1],
    "underscore": _edit_token(2, lambda tok: "1_0e-2"),
    "comment": _edit_row(lambda row, rng: row + " # c"),
    "trailing_comma": _edit_row(lambda row, rng: row + ","),
    "quoted": _edit_token(2, lambda tok: f'"{tok}"'),
    "hex_float": _edit_token(2, lambda tok: float(tok).hex()),
    "infinity": _edit_token(2, lambda tok: "infinity"),
    "nan": _edit_token(2, lambda tok: "nan"),
    "minus_inf_u": _edit_token(0, lambda tok: "-inf"),
    "nan_v": _edit_token(1, lambda tok: "NaN"),
    "above_bound": _edit_token(2, lambda tok: "0.32"),
    "non_ascii_digit": _edit_token(2, lambda tok: "0.١"),
    "carriage_return_in_row": _edit_row(lambda row, rng: row.replace(",", "\r,", 1)),
    "semicolons": _edit_row(lambda row, rng: row.replace(",", ";")),
    "split_row": _edit_row(lambda row, rng: row.replace(",", "\n", 1)),
    "dropped_row": _edit_row(lambda row, rng: ""),
    "duplicated_row": _insert_rows("0,0,0"),
    "swapped_rows": _swap_rows,
    "moved_u": _edit_token(0, lambda tok: repr(float(tok) + 1e-3)),
    "moved_v": _edit_token(1, lambda tok: repr(float(tok) * (1 + 1e-15) + 1e-300)),
    "empty_token": _edit_token(1, lambda tok: ""),
    "nul_byte": _edit_token(2, lambda tok: tok + "\x00"),
    "bad_header": lambda text, rng: "u,v, w" + text[5:],
    "header_only": lambda text, rng: "u,v,w\r\n",
}


def _json_edit(fn):
    def perturb(text, rng):
        obj = json.loads(text)
        fn(obj, rng)
        return json.dumps(obj) + "\n"
    return perturb


def _set_value(new):
    def fn(obj, rng):
        row = obj["values"][int(rng.integers(len(obj["values"])))]
        row[int(rng.integers(len(row)))] = new
    return _json_edit(fn)


#: name -> perturbation of a well-formed JSON text
_JSON_PERTURBATIONS = {
    "as_written": lambda text, rng: text,
    "reindented": lambda text, rng: json.dumps(json.loads(text), indent=2) + "\n",
    "integer_value": _set_value(0),
    "string_value": _set_value("0.1"),
    "false_value": _set_value(False),
    "true_value": _set_value(True),
    "null_value": _set_value(None),
    "huge_integer_value": _set_value(10**400),
    "nan_literal": _set_value(math.nan),
    "nested_value": _set_value([0.1]),
    "above_bound": _set_value(-0.5),
    "ragged": _json_edit(lambda obj, rng: obj["values"][0].pop()),
    "missing_row": _json_edit(lambda obj, rng: obj["values"].pop()),
    "flat_values": _json_edit(lambda obj, rng: obj.__setitem__(
        "values", [x for row in obj["values"] for x in row])),
    "string_bound": _json_edit(lambda obj, rng: obj["grid"].__setitem__("u_min", "-1")),
    "integer_bounds": _json_edit(lambda obj, rng: obj["grid"].update(
        u_min=-(10**20), u_max=10**20)),
    "float_count": _json_edit(lambda obj, rng: obj["grid"].__setitem__("n_v", 3.0)),
    "missing_grid": _json_edit(lambda obj, rng: obj.pop("grid")),
    "not_an_object": lambda text, rng: "[1, 2]\n",
    "not_json": lambda text, rng: text[:-2] + "\n",
}

#: Verdicts that differ from the numpy readers on purpose, as (parent, now).
_INTENDED = {
    # a field file is read only as its writer writes it; np.loadtxt, np.array
    # and json.loads also read these respellings
    **{("csv", name): ("ok", "refused") for name in (
        "crlf", "crlf_no_final_newline", "blank_line", "crlf_blank_line",
        "trailing_blank_lines", "spaces_around_tokens", "tab_and_nbsp_padding",
        "leading_plus", "respelled_u", "respelled_v", "no_final_newline")},
    **{("json", name): ("ok", "refused") for name in (
        "reindented", "integer_value", "string_value", "false_value")},
    # np.array raised a bare OverflowError, which the CLI let escape
    ("json", "huge_integer_value"): ("crash", "refused"),
}


def _verdict(read, text):
    try:
        return "ok", read(text)
    except ValidationError as exc:
        return "refused", str(exc)
    except OverflowError as exc:
        return "crash", str(exc)


class TestReadersAgainstNumpyReaders:
    @staticmethod
    def _field(rng):
        n_u, n_v = (int(n) for n in rng.integers(2, 9, size=2))
        lo = rng.uniform(-1e3, 1e3, size=2)
        span = 10.0 ** rng.uniform(-3, 3, size=2)
        grid = PhaseGrid(lo[0], lo[0] + span[0], lo[1], lo[1] + span[1], n_u, n_v)
        values = rng.uniform(-1.0 / math.pi, 1.0 / math.pi, n_u * n_v)
        special = [0.0, -0.0, 5e-324, -5e-324, 1e-5, 1.0 / math.pi]
        values[rng.integers(0, n_u * n_v, size=3)] = rng.choice(special, size=3)
        return WignerField(grid, values.reshape(n_u, n_v))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_same_verdicts_grids_and_bytes(self, fmt):
        perturbations = _CSV_PERTURBATIONS if fmt == "csv" else _JSON_PERTURBATIONS
        read = WignerField.from_csv if fmt == "csv" else WignerField.from_json
        reference = _reference_from_csv if fmt == "csv" else _reference_from_json
        rng = np.random.default_rng(7)
        seen = set()
        for _ in range(12):
            field = self._field(rng)
            text = field.to_csv() if fmt == "csv" else field.to_json()
            for name, perturb in perturbations.items():
                bad = perturb(text, rng)
                (ref, ref_out), (now, now_out) = _verdict(reference, bad), _verdict(read, bad)
                seen.add((name, ref))
                if (fmt, name) in _INTENDED:
                    assert (ref, now) == _INTENDED[fmt, name], (name, bad)
                    continue
                assert ref == now, (name, bad, ref_out, now_out)
                if now == "ok":
                    grid, values = ref_out
                    assert now_out.grid == grid
                    assert now_out.values.tobytes() == values.tobytes()
                elif name in ("infinity", "nan", "nan_literal"):
                    assert ref_out == now_out == "Wigner values must be finite"
        # every perturbation was tried, and both verdicts occur
        assert {name for name, _ in seen} == set(perturbations)
        assert {verdict for _, verdict in seen} >= {"ok", "refused"}

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_one_character_edit_is_refused_or_is_what_its_field_writes(self, fmt):
        # a reader accepts a text exactly when its field writes that text again
        read = WignerField.from_csv if fmt == "csv" else WignerField.from_json
        rng = np.random.default_rng(11)
        alphabet = "0123456789+-.,eE \t\r\n{}[]:\"nafiuv"
        accepted = 0
        for _ in range(40):
            field = self._field(rng)
            text = field.to_csv() if fmt == "csv" else field.to_json()
            for _ in range(50):
                k, op = int(rng.integers(len(text))), int(rng.integers(3))
                char = alphabet[int(rng.integers(len(alphabet)))]
                # op 0 inserts char before text[k], 1 deletes text[k], 2 replaces it
                edited = text[:k] + ("" if op == 1 else char) + text[k + (op > 0):]
                try:
                    back = read(edited)
                except ValidationError:
                    continue
                accepted += edited != text
                assert (back.to_csv() if fmt == "csv" else back.to_json()) == edited
        assert accepted > 0

    def test_csv_block_boundaries(self, monkeypatch):
        from phasewave import field as field_module

        rng = np.random.default_rng(3)
        field = self._field(rng)
        text = field.to_csv()
        for chars in (1, 7, 40, 1 << 20):
            monkeypatch.setattr(field_module, "_BLOCK_CHARS", chars)
            back = WignerField.from_csv(text)
            assert back.grid == field.grid
            assert back.values.tobytes() == field.values.tobytes()


def test_trace_bound_properties_pass_alone():
    # Hypothesis also draws from the literals of every loaded local module, so
    # these properties' derandomized examples depend on which modules ran
    # before them; they must hold with nothing else collected
    from phasewave import wigner

    src = str(Path(wigner.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", __file__,
         "-k", "royer_grid_matches_node_sums or routes_agree_on_random_mixtures"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stdout[-2000:]
    assert result.stdout.splitlines()[-1].startswith("2 passed"), result.stdout[-2000:]
