"""Oscillator eigenfunctions, displacement operators, displaced statistics."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from phasewave import (
    EPS_TAIL,
    DensityMatrix,
    FockState,
    TruncationError,
    ValidationError,
    coherent_amplitudes,
    default_cutoff,
    energy_distribution,
    parity_sum,
    wigner_direct,
)
from phasewave import PhaseGrid, fock
from phasewave.fock import (
    MAX_CUTOFF,
    _displaced_occupations,
    _displacement_batch,
    _worst_leak,
    displacement_certified_span,
    eigenfunction_stack,
)


def _psi_mpmath(n, x, dps=50):
    """High-precision oracle: same orthonormal recurrence at 50 digits."""
    with mpmath.workdps(dps):
        xm = mpmath.mpf(x)
        p0 = mpmath.pi ** mpmath.mpf("-0.25") * mpmath.e ** (-xm * xm / 2)
        if n == 0:
            return float(p0)
        p1 = mpmath.sqrt(2) * xm * p0
        for k in range(1, n):
            p0, p1 = p1, mpmath.sqrt(mpmath.mpf(2) / (k + 1)) * xm * p1 - mpmath.sqrt(
                mpmath.mpf(k) / (k + 1)
            ) * p0
        return float(p1)


def _displacement_mpmath(alpha, m, n, dps=40):
    """Oracle: closed form <m|D(alpha)|n> of Cahill & Glauber at 40 digits."""
    if m < n:  # <m|D(alpha)|n> = conj(<n|D(-alpha)|m>)
        return _displacement_mpmath(-alpha, n, m, dps).conjugate()
    with mpmath.workdps(dps):
        a = mpmath.mpc(alpha.real, alpha.imag)
        x = abs(a) ** 2
        val = (
            mpmath.sqrt(mpmath.factorial(n) / mpmath.factorial(m))
            * a ** (m - n)
            * mpmath.exp(-x / 2)
            * mpmath.laguerre(n, m - n, x)
        )
        return complex(val)


def _coherent_moduli_mpmath(r, size, dps=40):
    """Oracle: e^(-r^2/2) r^n / sqrt(n!) for n < size at 40 digits, by its ratio."""
    with mpmath.workdps(dps):
        r = mpmath.mpf(r)
        terms = [mpmath.exp(-r * r / 2)]
        for n in range(1, size):
            terms.append(terms[-1] * r / mpmath.sqrt(n))
        return np.array([float(t) for t in terms])


def _psi(n, xs):
    """psi_n on ``xs``: the kernel's sum for the unit column e_n."""
    unit = np.zeros((n + 1, 1))
    unit[n] = 1.0
    return eigenfunction_stack(unit, xs)[0]


def _dmatrix(alpha, n_max):
    """The full truncated D(alpha), every column."""
    return _displacement_batch(np.array([alpha]), n_max, np.arange(n_max + 1))[0]


class TestEigenfunctions:
    def test_ground_state_at_origin(self):
        # closed form: pi**(-1/4)
        assert _psi(0, np.array([0.0]))[0] == pytest.approx(
            math.pi ** -0.25, abs=1e-15
        )

    def test_first_excited_odd_at_origin(self):
        assert _psi(1, np.array([0.0]))[0] == 0.0

    def test_high_order_matches_high_precision_oracle(self):
        xs = np.linspace(-8.0, 8.0, 10)
        vals = _psi(50, xs)
        assert np.all(np.isfinite(vals))
        for x, v in zip(xs, vals):
            ref = _psi_mpmath(50, x)
            assert v == pytest.approx(ref, rel=1e-12, abs=1e-15)

    def test_parity_exact(self):
        xs = np.linspace(0.1, 6.0, 40)
        for n in (0, 1, 2, 5, 17, 50):
            left = _psi(n, -xs)
            right = _psi(n, xs)
            assert np.array_equal(left, (-1.0) ** n * right)

    def test_rejects_large_index(self):
        with pytest.raises(ValidationError, match="truncation n_max=10001 exceeds the limit"):
            _psi(10_001, np.array([0.0]))

    def test_rejects_nonfinite_grid(self):
        with pytest.raises(ValidationError):
            _psi(3, np.array([0.0, np.inf]))

    def test_far_samples_are_zero_without_overflow(self):
        # x * x overflows beyond 1.3e154; RuntimeWarning is an error in this suite
        xs = np.array([38.0, 39.0, 1e154, -1e200, 1.7e308])
        vals = _psi(12, xs)
        assert vals[0] != 0.0
        assert np.all(vals[1:] == 0.0)


class TestCoherentAmplitudes:
    def test_vacuum(self):
        # exactly [1, 0, ...], every zero +0.0 in both parts
        st = coherent_amplitudes(0.0)
        assert st.amplitudes.tobytes() == np.eye(st.n_max + 1, dtype=complex)[0].tobytes()

    def test_poisson_weights_beta_one(self):
        st = coherent_amplitudes(1.0)
        expected = np.array(
            [math.exp(-1.0) / float(math.factorial(k)) for k in range(25)]
        )
        np.testing.assert_allclose(np.abs(st.amplitudes[:25]) ** 2, expected, atol=1e-15)

    @pytest.mark.parametrize("beta", [1e-3, 1.0, 1.2 + 1.6j, 5.0, 12.0, 30.0])
    def test_moduli_match_mpmath_poisson_root(self, beta):
        # the kernel's start row, checked independently of it; the bound grows
        # with |beta|^2 as the exp-of-log rounding does (1.1e-12 at beta = 30)
        amp = coherent_amplitudes(beta).amplitudes
        want = _coherent_moduli_mpmath(abs(beta), amp.size)
        keep = want > 1e-12 * want.max()
        rel = np.abs(np.abs(amp[keep]) - want[keep]) / want[keep]
        assert rel.max() <= 4e-15 * (1.0 + abs(beta) ** 2)

    def test_matches_displacement_column_zero(self):
        beta = 0.7 - 0.4j
        st = coherent_amplitudes(beta, 64)
        col = _displacement_batch(np.array([beta]), 64, np.array([0]))[0, :, 0]
        np.testing.assert_array_equal(col, st.amplitudes)  # the one phase row both share

    @pytest.mark.parametrize("beta", [0.3, 1.0, 2.0, 1.5 + 1.5j])
    def test_normalization_within_tail(self, beta):
        st = coherent_amplitudes(beta)
        assert abs(np.sum(np.abs(st.amplitudes) ** 2) - 1.0) < EPS_TAIL

    def test_tail_violation_reports_mass(self):
        with pytest.raises(TruncationError, match="state norm misses 1 by") as err:
            coherent_amplitudes(3.0, n_max=10)
        assert err.value.detail > EPS_TAIL


class TestDisplacementKernel:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "mag, n_max",
        [(0.0, 40), (0.5, 80), (0.5, 1620), (3.0, 120), (7.0, 400), (15.0, 1620)],
    )
    def test_matches_mpmath_closed_form(self, mag, n_max):
        alpha = mag * complex(math.cos(0.9), math.sin(0.9))
        cols = [0, 1, n_max // 3, n_max // 2, n_max]
        rows = [0, 1, n_max // 4, n_max // 2, n_max - 1, n_max]
        batch = _displacement_batch(
            np.array([alpha, -alpha.conjugate()]), n_max, range(n_max + 1)
        )
        kinds = set()
        for i, a in enumerate((alpha, -alpha.conjugate())):
            for m in rows:
                for n in cols:
                    kinds.add((m > n) - (m < n))
                    ref = _displacement_mpmath(a, m, n)
                    assert abs(batch[i, m, n] - ref) < 1e-13, (a, m, n)
        assert kinds == {-1, 0, 1}  # below, on and above the diagonal

    @pytest.mark.parametrize("mag", [12.0, 14.0])
    def test_royer_block_matches_mpmath(self, mag):
        # the s x s support block the parity grid reads at 2*alpha for the
        # corners of the -6:6 and -7:7 grids, s = 65 as for coherent:2
        alpha = mag * complex(math.cos(2.3), math.sin(2.3))
        block = _displacement_batch(np.array([alpha]), 64, np.arange(65))[0]
        for n in (0, 1, 13, 32, 51, 63, 64):
            for m in range(65):
                ref = _displacement_mpmath(alpha, m, n)
                err = abs(block[m, n] - ref)
                assert err < 1e-14, (m, n)
                assert abs(ref) < 1e-12 or err < 1e-10 * abs(ref), (m, n)

    def test_working_set_is_the_result(self):
        # each entry is written once with its phase and sign: no block-sized
        # temporary or (n_max+1) x s index array rides along with the result
        alphas = np.array([6.0 * complex(math.cos(0.4), math.sin(0.4))])
        tracemalloc.start()
        try:
            out = _displacement_batch(alphas, 1500, range(200))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * out.nbytes


class TestDisplacementMatrix:
    def test_identity_at_zero(self):
        np.testing.assert_array_equal(_dmatrix(0.0, 32), np.eye(33))

    def test_inverse_displacement(self):
        alpha = 0.9 + 0.2j
        prod = _dmatrix(alpha, 64) @ _dmatrix(-alpha, 64)
        certified = prod[:20, :20]
        np.testing.assert_allclose(certified, np.eye(20), atol=1e-10)

    def test_unitary_on_certified_columns(self):
        span = displacement_certified_span(1.3, 64)
        assert span > 5
        mat = _dmatrix(1.3, 64)
        norms = np.sum(np.abs(mat[:, : span + 1]) ** 2, axis=0)
        assert np.all(norms <= 1.0 + 1e-12)
        assert np.all(norms >= 1.0 - 1e-6)

    def test_leakage_shrinks_with_truncation_size(self):
        cols = np.arange(17)
        leaks = []
        for n_max in (32, 64, 128):
            block = _displacement_batch(np.array([3.5]), n_max, cols)[0]
            leaks.append(1.0 - np.min(np.sum(np.abs(block) ** 2, axis=0)))
        assert leaks[0] > leaks[1] > leaks[2]

    def test_rejects_leaky_truncation(self):
        # column 16 of D(3.5) at n_max = 64 loses ~1.2e-4 of its norm, far
        # above both the 1e-6 tolerance and roundoff
        block = _displacement_batch(np.array([3.5]), 64, np.arange(17))
        with pytest.raises(TruncationError, match="increase n_max") as err:
            _worst_leak(block, 17)
        assert isinstance(err.value.detail, int)  # worst column index
        assert 0 <= err.value.detail < 17

    def test_leakage_rejects_empty_certified_span(self):
        assert displacement_certified_span(3.0, 20) < 0
        with pytest.raises(TruncationError, match="certified only up to n=-1"):
            energy_distribution(FockState.vacuum().density(), 3.0, n_max=20)

    def test_rejects_undersized_truncation(self):
        # n_max = 16 is far below 2|alpha|^2 + 10|alpha| = 100 for |alpha| = 5;
        # the policy cutoff for the same displacement is accepted
        vac = FockState.vacuum().density()
        with pytest.raises(TruncationError, match="increase n_max"):
            energy_distribution(vac, 5.0, n_max=16)
        p = energy_distribution(vac, 5.0, n_max=default_cutoff(5.0))
        assert abs(np.sum(p) - 1.0) < EPS_TAIL

    def test_displace_rejects_uncertified_support(self):
        rho = FockState.fock(20, 20).density()
        with pytest.raises(TruncationError, match="state support reaches n=20") as err:
            energy_distribution(rho, 2.0, n_max=40)
        assert err.value.detail == 20


def _dense(rho):
    """The whole (n_max+1)^2 density matrix."""
    return rho.leading_block(rho.n_max + 1)


def _displace(rho, alpha, n_max):
    """D(alpha) rho D(alpha)^dagger with the full truncated kernel matrix."""
    mat = _dmatrix(alpha, n_max)
    work = _dense(rho.embedded(n_max))
    return mat @ work @ mat.conj().T


class TestDisplace:
    def test_identity_at_zero(self):
        rho = FockState.fock(2, 8).density()
        out = _displace(rho, 0.0, 32)
        np.testing.assert_allclose(out[:9, :9], _dense(rho), atol=1e-14)
        np.testing.assert_array_equal(out[9:, :], 0.0)

    def test_vacuum_becomes_coherent_projector(self):
        alpha = 1.1 - 0.5j
        n_max = default_cutoff(abs(alpha))
        moved = _displace(FockState.vacuum().density(), alpha, n_max)
        coh = coherent_amplitudes(alpha, n_max).amplitudes
        np.testing.assert_allclose(moved, np.outer(coh, coh.conj()), atol=1e-12)

    @pytest.mark.parametrize("alpha", [0.5, 1.5j, 2.0 - 1.0j])
    def test_trace_preserved(self, alpha):
        rho = coherent_amplitudes(1.0).density()
        n_max = default_cutoff(abs(alpha), math.sqrt(rho.top_occupied()))
        moved = _displace(rho, alpha, n_max)
        assert abs(np.trace(moved) - 1.0) < EPS_TAIL

    def test_roundtrip_returns_state(self):
        rho = FockState.fock(3, 16).density()
        alpha = 0.8 + 0.6j
        n_max = default_cutoff(abs(alpha), math.sqrt(3.0))
        there = _displace(rho, alpha, n_max)
        mat = _dmatrix(-alpha, n_max)
        back = mat @ there @ mat.conj().T
        np.testing.assert_allclose(back[:17, :17], _dense(rho), atol=10 * EPS_TAIL)


class TestEnergyDistribution:
    def test_vacuum_at_origin(self):
        p = energy_distribution(FockState.vacuum().density(), 0.0)
        assert p[0] == pytest.approx(1.0, abs=1e-14)
        assert np.all(p[1:] < 1e-14)

    @pytest.mark.parametrize("m", [0, 1, 4])
    def test_fock_delta_at_origin(self, m):
        p = energy_distribution(FockState.fock(m, 8).density(), 0.0)
        assert p[m] == pytest.approx(1.0, abs=1e-14)

    def test_displaced_vacuum_is_poisson(self):
        rho = FockState.vacuum().density()
        rng = np.random.default_rng(11)
        alphas = rng.uniform(-1, 1, size=(6, 2)) @ np.diag([2.0, 2.0])
        for re, im in alphas:
            alpha = complex(re, im)
            if abs(alpha) > 2.0:
                alpha *= 2.0 / abs(alpha)
            p = energy_distribution(rho, alpha)
            mu = abs(alpha) ** 2
            expected = np.array(
                [math.exp(-mu) * mu**k / float(math.factorial(k)) for k in range(21)]
            )
            assert np.max(np.abs(p[:21] - expected)) < 1e-10

    @pytest.mark.parametrize(
        "rho_builder, alpha",
        [
            (lambda: FockState.fock(1, 4).density(), 1.2),
            (lambda: coherent_amplitudes(1.5).density(), -0.7 + 0.9j),
            (
                lambda: DensityMatrix.mixture(
                    [(FockState.vacuum(4), 0.25), (FockState.fock(2, 4), 0.75)]
                ),
                0.4j,
            ),
        ],
    )
    def test_nonnegative_and_normalized(self, rho_builder, alpha):
        p = energy_distribution(rho_builder(), alpha)
        assert np.all(p >= 0.0)
        assert abs(p.sum() - 1.0) <= EPS_TAIL

    def test_row_sum_refuses_the_tightest_certified_truncation(self):
        # n_max = 101 is the first whose certified span holds the vacuum at
        # |alpha| = 7.097, and column 0 passes the 1e-6 leak check there, but the
        # Poisson tail past 101 (1.1e-10) exceeds the row-sum tolerance EPS_TAIL
        rho = FockState.vacuum().density()
        assert displacement_certified_span(7.097, 100) == -1
        assert displacement_certified_span(7.097, 101) == 0
        with pytest.raises(TruncationError, match=r"^displaced probabilities sum to "
                                                  r"0\.9999999998877931; increase n_max$"):
            energy_distribution(rho, 7.097, n_max=101)

    def test_blocks_freed_before_the_next(self, monkeypatch):
        # a block of D(alpha) support columns takes 16 * _CHUNK_ELEMS bytes;
        # holding the previous one while the next is built doubles the peak
        monkeypatch.setattr(fock, "_CHUNK_ELEMS", 1_000_000)
        rho = coherent_amplitudes(2.0).density()
        alphas = np.linspace(-6.0, 6.0, 100)
        support = rho.support[1].shape[0]  # cached before the traced call
        n_max = default_cutoff(6.0, math.sqrt(rho.top_occupied()))
        assert alphas.size > 2 * (fock._CHUNK_ELEMS // ((n_max + 1) * support))
        tracemalloc.start()
        try:
            _displaced_occupations(rho, alphas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 16 * fock._CHUNK_ELEMS


def _random_density(rng, size, rank, empty_tail=0):
    """Random rho = A A^dag / tr of the given rank with complex coherences, stored
    with ``empty_tail`` unoccupied levels after the last occupied one; built as
    the mixture of A's normalized columns weighted by their squared norms."""
    a = rng.normal(size=(size, rank)) + 1j * rng.normal(size=(size, rank))
    norms = np.linalg.norm(a, axis=0)
    return DensityMatrix(np.pad(a / norms, ((0, empty_tail), (0, 0))), norms**2)


class TestSupport:
    @pytest.mark.parametrize("size, rank, empty_tail", [
        (1, 1, 0), (3, 1, 2), (5, 3, 0), (8, 8, 4),
    ])
    def test_reconstructs_support_block(self, size, rank, empty_tail):
        rho = _random_density(np.random.default_rng(size), size, rank, empty_tail)
        weights, vectors = rho.support
        assert vectors.shape == (size, rank)
        np.testing.assert_allclose(
            (vectors * weights) @ vectors.conj().T, _dense(rho)[:size, :size],
            rtol=0, atol=1e-13,
        )

    def test_excludes_trailing_empty_levels(self):
        weights, vectors = FockState.fock(1, 5).density().support
        assert vectors.shape == (2, 1)
        assert weights[0] == pytest.approx(1.0, abs=1e-15)
        assert abs(vectors[1, 0]) == pytest.approx(1.0, abs=1e-15)
        assert not (weights.flags.writeable or vectors.flags.writeable)

    def test_holds_the_stored_weights_and_occupied_rows(self):
        amp = np.zeros((6, 2), dtype=complex)
        amp[[0, 3], 0] = 0.6, 0.8j
        amp[1, 1] = 1.0
        weights, vectors = DensityMatrix(amp, [2.0, 6.0]).support
        np.testing.assert_array_equal(weights, [0.25, 0.75])  # renormalized
        np.testing.assert_array_equal(vectors, amp[:4])  # up to the last occupied level
        assert not (weights.flags.writeable or vectors.flags.writeable)

    def test_parallel_components_stay_as_stored(self):
        coh = coherent_amplitudes(1.0 + 1.0j, 40)
        rho = DensityMatrix.mixture([
            (coh, 0.3), (FockState.fock(2, 40), 0.2), (FockState(1j * coh.amplitudes), 0.5),
        ])
        weights, vectors = rho.support
        assert vectors.shape == (41, 3)
        assert weights.sum() == pytest.approx(1.0, abs=1e-14)
        np.testing.assert_allclose(
            (vectors * weights) @ vectors.conj().T, _dense(rho), rtol=0, atol=1e-14
        )


class TestComponentStorage:
    def test_pure_states_build_no_dense_matrix(self):
        # the dense (n_max+1)**2 matrix alone takes 64 MB for fock:2000 and
        # 42 MB for coherent:20; the components take 32 kB and 26 kB
        tracemalloc.start()
        try:
            for rho in (FockState.fock(2000).density(), coherent_amplitudes(20.0).density()):
                assert rho.support[1].shape[1] == 1
                assert rho.top_occupied() > 400
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestDomainTypes:
    def test_density_rejects_bad_trace(self):
        # a component of squared norm 1/2 would leave rho with trace 1/2
        with pytest.raises(TruncationError, match="state norm misses 1"):
            DensityMatrix(np.array([[0.5], [0.5]]), [1.0])

    def test_density_rejects_negative_eigenvalue(self):
        # diag(1.5, -0.5) as a mixture of |0> and |1>
        with pytest.raises(ValidationError, match="nonnegative"):
            DensityMatrix(np.eye(2), [1.5, -0.5])

    @pytest.mark.parametrize("build, message", [
        (lambda: DensityMatrix.mixture([]), "at least one component"),
        (lambda: DensityMatrix(np.eye(2), [1.0]), "a weight each"),
        (lambda: DensityMatrix(np.ones(2) / math.sqrt(2.0), [1.0]), "a weight each"),
        (lambda: DensityMatrix(np.eye(2), [0.0, 0.0]), "positive sum"),
        (lambda: DensityMatrix(np.eye(2), [1.0, math.inf]), "finite"),
        (lambda: DensityMatrix(np.eye(2), [1e308, 1e308]), "sum past the largest double"),
    ], ids=["empty", "weight_count", "vector", "zero_sum", "infinite", "overflowing_sum"])
    def test_density_rejects_malformed_components(self, build, message):
        with pytest.raises(ValidationError, match=message):
            build()

    @pytest.mark.parametrize("build, message", [
        (lambda: FockState([[1.0]]), "amplitudes must be a non-empty 1-d vector"),
        (lambda: FockState.fock(-1), "Fock index must be nonnegative"),
        (lambda: FockState.fock(3, 1), "n_max 1 cannot hold Fock index 3"),
        (lambda: FockState.fock(2).density().embedded(1),
         "embedding may only enlarge the truncation"),
        (lambda: eigenfunction_stack(np.ones(3), [0.0]),
         "coefficients must be a (levels, columns) matrix"),
    ], ids=["matrix_amplitudes", "negative_index", "index_past_n_max", "shrinking_embed",
            "vector_coefficients"])
    def test_states_refuse_malformed_input(self, build, message):
        with pytest.raises(ValidationError) as err:
            build()
        assert str(err.value) == message

    def test_constructors_copy_their_input(self):
        # a state validated on the caller's array must not follow later writes to it
        base = np.eye(2, dtype=complex)
        state, rho = FockState(base[:, 1]), DensityMatrix(base, [1.0, 1.0])
        base[:] = 5.0
        np.testing.assert_array_equal(state.amplitudes, [0.0, 1.0])
        np.testing.assert_array_equal(_dense(rho), np.diag([0.5, 0.5]))

    def test_mixture_weights_renormalized(self):
        rho = DensityMatrix.mixture(
            [(FockState.vacuum(3), 2.0), (FockState.fock(1, 3), 2.0)]
        )
        assert np.trace(_dense(rho)) == pytest.approx(1.0, abs=1e-14)
        assert _dense(rho)[0, 0] == pytest.approx(0.5, abs=1e-14)

    def test_pure_state_is_its_own_density(self):
        # a FockState is the one-component DensityMatrix, so every route reads it
        st = FockState.fock(1)
        assert isinstance(st, DensityMatrix) and st.density() is st
        weights, vectors = st.support
        np.testing.assert_array_equal(weights, [1.0])
        np.testing.assert_array_equal(vectors[:, 0], st.amplitudes)
        assert not st.amplitudes.flags.writeable
        assert parity_sum(st, 0.0).value == pytest.approx(-2.0, abs=1e-14)
        grid = PhaseGrid(-2, 2, -2, 2, 3, 3)
        assert wigner_direct(st, grid).values[1, 1] == pytest.approx(-1 / math.pi, abs=1e-12)

    @pytest.mark.parametrize("build", [
        lambda: parity_sum(FockState.fock(1), complex(math.nan, 0.0)),
        lambda: parity_sum(FockState.fock(1), complex(math.nan, 0.0), n_max=80),
        lambda: energy_distribution(FockState.vacuum(), complex(0.0, math.inf)),
        lambda: coherent_amplitudes(1.0, math.nan),
        lambda: FockState.fock(1, math.nan),
        lambda: default_cutoff(math.nan),
    ], ids=["parity_sum", "parity_sum_n_max", "occupations_inf", "coherent_n_max",
            "fock_n_max", "default_cutoff"])
    def test_nan_refused_by_the_size_checks(self, build):
        with pytest.raises(ValidationError, match="must be finite|n_max=nan exceeds"):
            build()
        assert displacement_certified_span(math.nan, 80) == -1

    def test_state_norm_enforced(self):
        with pytest.raises(TruncationError):
            FockState(np.array([0.5, 0.5]))

    def test_default_cutoff_floor_and_growth(self):
        assert default_cutoff(0.0) == 64
        assert default_cutoff(3.0, 2.0) == max(64, math.ceil(4 * 25 + 20))

    @pytest.mark.parametrize("build", [
        lambda: coherent_amplitudes(0.0, n_max=-1),
        lambda: coherent_amplitudes(1.0, n_max=MAX_CUTOFF + 1),
        lambda: energy_distribution(FockState.vacuum().density(), 0.5, n_max=-5),
        lambda: energy_distribution(FockState.vacuum().density(), 0.5, n_max=MAX_CUTOFF + 1),
    ], ids=["coherent_negative", "coherent_above", "occupations_negative",
            "occupations_above"])
    def test_explicit_truncation_budget(self, build):
        # arithmetic only: refused before any vector or kernel block is allocated
        with pytest.raises(ValidationError, match=r"truncation n_max=-?\d+ .* limit of"):
            build()

    def test_default_cutoff_budget(self):
        # arithmetic only: the refused sizes are never allocated
        assert default_cutoff(49.0) == 4 * 49 * 49 + 20 <= MAX_CUTOFF
        for amplitudes in ((50.0,), (30.0, 20.0), (1e200,)):
            with pytest.raises(ValidationError, match=f"limit of {MAX_CUTOFF}"):
                default_cutoff(*amplitudes)
