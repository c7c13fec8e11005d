"""Oscillator eigenfunctions, displacement operators, displaced statistics."""

import math

import mpmath
import numpy as np
import pytest

from phasewave import (
    EPS_TAIL,
    DensityMatrix,
    FockState,
    PhasePoint,
    TruncationError,
    ValidationError,
    coherent_amplitudes,
    default_cutoff,
    displace,
    displacement_leakage,
    displacement_matrix,
    energy_distribution,
    oscillator_eigenfunction,
)
from phasewave.fock import _displacement_batch, displacement_certified_span


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


class TestEigenfunctions:
    def test_ground_state_at_origin(self):
        # closed form: pi**(-1/4)
        assert oscillator_eigenfunction(0, np.array([0.0]))[0] == pytest.approx(
            math.pi ** -0.25, abs=1e-15
        )

    def test_first_excited_odd_at_origin(self):
        assert oscillator_eigenfunction(1, np.array([0.0]))[0] == 0.0

    def test_high_order_matches_high_precision_oracle(self):
        xs = np.linspace(-8.0, 8.0, 10)
        vals = oscillator_eigenfunction(50, xs)
        assert np.all(np.isfinite(vals))
        for x, v in zip(xs, vals):
            ref = _psi_mpmath(50, x)
            assert v == pytest.approx(ref, rel=1e-12, abs=1e-15)

    def test_parity_exact(self):
        xs = np.linspace(0.1, 6.0, 40)
        for n in (0, 1, 2, 5, 17, 50):
            left = oscillator_eigenfunction(n, -xs)
            right = oscillator_eigenfunction(n, xs)
            assert np.array_equal(left, (-1.0) ** n * right)

    def test_rejects_large_index(self):
        with pytest.raises(ValidationError):
            oscillator_eigenfunction(10_001, np.array([0.0]))

    def test_rejects_nonfinite_grid(self):
        with pytest.raises(ValidationError):
            oscillator_eigenfunction(3, np.array([0.0, np.inf]))


class TestCoherentAmplitudes:
    def test_vacuum(self):
        st = coherent_amplitudes(0.0)
        assert st.amplitudes[0] == 1.0
        assert np.all(st.amplitudes[1:] == 0.0)

    def test_poisson_weights_beta_one(self):
        st = coherent_amplitudes(1.0)
        expected = np.array(
            [math.exp(-1.0) / float(math.factorial(k)) for k in range(25)]
        )
        np.testing.assert_allclose(np.abs(st.amplitudes[:25]) ** 2, expected, atol=1e-15)

    def test_matches_displacement_column_zero(self):
        beta = 0.7 - 0.4j
        st = coherent_amplitudes(beta, 64)
        col = displacement_matrix(beta, 64)[:, 0]
        np.testing.assert_allclose(col, st.amplitudes, atol=1e-14)

    @pytest.mark.parametrize("beta", [0.3, 1.0, 2.0, 1.5 + 1.5j])
    def test_normalization_within_tail(self, beta):
        st = coherent_amplitudes(beta)
        assert abs(np.sum(np.abs(st.amplitudes) ** 2) - 1.0) < EPS_TAIL

    def test_tail_violation_reports_mass(self):
        with pytest.raises(TruncationError) as err:
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
        cols = np.array([0, 1, n_max // 3, n_max // 2, n_max])
        rows = [0, 1, n_max // 4, n_max // 2, n_max - 1, n_max]
        batch = _displacement_batch(np.array([alpha, -alpha.conjugate()]), n_max, cols)
        kinds = set()
        for i, a in enumerate((alpha, -alpha.conjugate())):
            for m in rows:
                for j, n in enumerate(cols.tolist()):
                    kinds.add((m > n) - (m < n))
                    ref = _displacement_mpmath(a, m, n)
                    assert abs(batch[i, m, j] - ref) < 1e-13, (a, m, n)
        assert kinds == {-1, 0, 1}  # below, on and above the diagonal


class TestDisplacementMatrix:
    def test_identity_at_zero(self):
        mat = displacement_matrix(0.0, 32)
        np.testing.assert_array_equal(mat, np.eye(33))

    def test_inverse_displacement(self):
        alpha = 0.9 + 0.2j
        prod = displacement_matrix(alpha, 64) @ displacement_matrix(-alpha, 64)
        certified = prod[:20, :20]
        np.testing.assert_allclose(certified, np.eye(20), atol=1e-10)

    def test_unitary_on_certified_columns(self):
        span = displacement_certified_span(1.3, 64)
        assert span > 5
        mat = displacement_matrix(1.3, 64)
        norms = np.sum(np.abs(mat[:, : span + 1]) ** 2, axis=0)
        assert np.all(norms <= 1.0 + 1e-12)
        assert np.all(norms >= 1.0 - 1e-6)

    def test_leakage_shrinks_with_truncation_size(self):
        cols = np.arange(17)
        leaks = [displacement_leakage(3.5, n, cols)[0] for n in (32, 64, 128)]
        assert leaks[0] > leaks[1] > leaks[2]

    def test_rejects_leaky_truncation(self):
        with pytest.raises(TruncationError) as err:
            displacement_matrix(2.0, 64, leak_tol=1e-16)
        assert isinstance(err.value.detail, int)  # worst column index

    def test_rejects_undersized_truncation(self):
        with pytest.raises(ValidationError):
            displacement_matrix(5.0, 16)

    def test_displace_rejects_uncertified_support(self):
        rho = FockState.fock(20, 20).density()
        with pytest.raises(TruncationError):
            displace(rho, 2.0, n_max=40)


class TestDisplace:
    def test_identity_at_zero(self):
        rho = FockState.fock(2, 8).density()
        out = displace(rho, 0.0, n_max=32)
        np.testing.assert_allclose(out.entries[:9, :9], rho.entries, atol=1e-14)

    def test_vacuum_becomes_coherent_projector(self):
        alpha = 1.1 - 0.5j
        moved = displace(FockState.vacuum().density(), alpha)
        coh = coherent_amplitudes(alpha, moved.n_max).amplitudes
        np.testing.assert_allclose(moved.entries, np.outer(coh, coh.conj()), atol=1e-12)

    @pytest.mark.parametrize("alpha", [0.5, 1.5j, 2.0 - 1.0j])
    def test_trace_preserved(self, alpha):
        rho = coherent_amplitudes(1.0).density()
        moved = displace(rho, alpha)
        assert abs(np.trace(moved.entries) - 1.0) < EPS_TAIL

    def test_roundtrip_returns_state(self):
        rho = FockState.fock(3, 16).density()
        alpha = 0.8 + 0.6j
        back = displace(displace(rho, alpha), -alpha)
        np.testing.assert_allclose(
            back.entries[:17, :17], rho.entries, atol=10 * EPS_TAIL
        )


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


class TestDomainTypes:
    def test_phase_point_alpha_consistency(self):
        pt = PhasePoint(0.3, -1.2)
        assert pt.alpha == complex(0.3, -1.2)

    def test_phase_point_physical_adapter(self):
        pt = PhasePoint.from_physical(x=2.0, p=3.0, kappa=0.5, hbar=2.0)
        assert pt.u == pytest.approx(1.0)
        assert pt.v == pytest.approx(3.0)

    def test_density_rejects_nonhermitian(self):
        bad = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
        with pytest.raises(ValidationError):
            DensityMatrix(bad)

    def test_density_rejects_bad_trace(self):
        with pytest.raises(TruncationError):
            DensityMatrix(0.5 * np.eye(3, dtype=complex))

    def test_density_rejects_negative_eigenvalue(self):
        bad = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValidationError):
            DensityMatrix(bad)

    def test_mixture_weights_renormalized(self):
        rho = DensityMatrix.mixture(
            [(FockState.vacuum(3), 2.0), (FockState.fock(1, 3), 2.0)]
        )
        assert np.trace(rho.entries) == pytest.approx(1.0, abs=1e-14)
        assert rho.entries[0, 0] == pytest.approx(0.5, abs=1e-14)

    def test_state_norm_enforced(self):
        with pytest.raises(TruncationError):
            FockState(np.array([0.5, 0.5]))

    def test_default_cutoff_floor_and_growth(self):
        assert default_cutoff(0.0) == 64
        assert default_cutoff(3.0, 2.0) == max(64, math.ceil(4 * 25 + 20))
