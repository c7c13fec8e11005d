"""Truncated Fock-space numerics for the harmonic oscillator.

Everything is dimensionless: hbar = 1 and the oscillator length scale
kappa = 1, so position u = kappa*x and momentum v = p/(hbar*kappa) are
plain numbers.  Conversion from physical (x, p, kappa, hbar) is a pure
input adapter (:meth:`PhasePoint.from_physical`).

Factorial-sized prefactors are always built from log-factorial
differences (:func:`log_factorials`), never from raw factorials, so indices
in the thousands are safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TruncationError, ValidationError

#: Probability mass a truncated representation may lose before it is an error.
EPS_TAIL = 1e-10

#: Largest Fock index the eigenfunction recurrence is validated for.
MAX_EIGENFUNCTION_INDEX = 10_000

#: Diagonal entries of a displaced state in [-NEGATIVE_CLAMP, 0) are treated
#: as roundoff and clamped to zero; anything below is a truncation failure.
NEGATIVE_CLAMP = 1e-12


def default_cutoff(*amplitudes: float) -> int:
    """Truncation size that holds displaced states built from ``amplitudes``.

    Displaced Poisson tails decay super-exponentially past their mean, so
    ``4 * (sum of amplitude magnitudes)**2 + 20`` keeps the lost mass far
    below EPS_TAIL; 64 is the floor so small states get comfortable room.
    """
    total = sum(abs(a) for a in amplitudes)
    return max(64, math.ceil(4.0 * total * total + 20.0))


@dataclass(frozen=True)
class PhasePoint:
    """A point of the dimensionless phase plane."""

    u: float
    v: float

    @property
    def alpha(self) -> complex:
        """Complex coordinate u + i*v of the phase plane."""
        return complex(self.u, self.v)

    @classmethod
    def from_physical(cls, x: float, p: float, kappa: float, hbar: float) -> "PhasePoint":
        if kappa <= 0 or hbar <= 0:
            raise ValidationError("kappa and hbar must be positive")
        return cls(u=kappa * x, v=p / (hbar * kappa))


class FockState:
    """Pure state as a truncated vector of Fock amplitudes c_0..c_N."""

    def __init__(self, amplitudes, *, check: bool = True):
        amp = np.asarray(amplitudes, dtype=complex)
        if amp.ndim != 1 or amp.size == 0:
            raise ValidationError("amplitudes must be a non-empty 1-d vector")
        self._amp = amp
        self._amp.setflags(write=False)
        if check:
            tail = abs(1.0 - float(np.sum(np.abs(amp) ** 2)))
            if tail > EPS_TAIL:
                raise TruncationError(
                    f"state norm misses 1 by {tail:.3e} (allowed {EPS_TAIL:.0e})",
                    detail=tail,
                )

    @property
    def amplitudes(self) -> np.ndarray:
        return self._amp

    @property
    def n_max(self) -> int:
        return self._amp.size - 1

    def top_occupied(self, threshold: float = 1e-14) -> int:
        """Highest Fock index carrying more than ``threshold`` probability."""
        occ = np.abs(self._amp) ** 2 > threshold
        return int(np.max(np.nonzero(occ)[0])) if occ.any() else 0

    def density(self) -> "DensityMatrix":
        return DensityMatrix(np.outer(self._amp, self._amp.conj()))

    @classmethod
    def vacuum(cls, n_max: int = 0) -> "FockState":
        return cls.fock(0, n_max)

    @classmethod
    def fock(cls, n: int, n_max: int | None = None) -> "FockState":
        if n < 0:
            raise ValidationError("Fock index must be nonnegative")
        size = (n if n_max is None else n_max) + 1
        if size < n + 1:
            raise ValidationError(f"n_max {n_max} cannot hold Fock index {n}")
        amp = np.zeros(size, dtype=complex)
        amp[n] = 1.0
        return cls(amp)


class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite truncated operator."""

    def __init__(self, entries, *, check: bool = True):
        mat = np.asarray(entries, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] == 0:
            raise ValidationError("density matrix must be square and non-empty")
        self._mat = mat
        self._mat.setflags(write=False)
        if check:
            herm = float(np.max(np.abs(mat - mat.conj().T)))
            if herm > 1e-12:
                raise ValidationError(f"not Hermitian: elementwise deviation {herm:.3e}")
            tr = float(np.real(np.trace(mat)))
            if abs(tr - 1.0) > EPS_TAIL:
                raise TruncationError(
                    f"trace misses 1 by {abs(tr - 1.0):.3e}", detail=abs(tr - 1.0)
                )
            lo = float(np.min(np.linalg.eigvalsh(mat)))
            if lo < -1e-10:
                raise ValidationError(f"negative eigenvalue {lo:.3e} below roundoff band")

    @property
    def entries(self) -> np.ndarray:
        return self._mat

    @property
    def n_max(self) -> int:
        return self._mat.shape[0] - 1

    def top_occupied(self, threshold: float = 1e-14) -> int:
        occ = np.real(np.diag(self._mat)) > threshold
        return int(np.max(np.nonzero(occ)[0])) if occ.any() else 0

    def embedded(self, n_max: int) -> "DensityMatrix":
        """Same operator in a Fock space truncated at ``n_max`` >= current."""
        if n_max < self.n_max:
            raise ValidationError("embedding may only enlarge the truncation")
        if n_max == self.n_max:
            return self
        big = np.zeros((n_max + 1, n_max + 1), dtype=complex)
        big[: self._mat.shape[0], : self._mat.shape[1]] = self._mat
        return DensityMatrix(big, check=False)

    @classmethod
    def mixture(cls, states_and_weights) -> "DensityMatrix":
        """Convex mixture of (FockState, weight) pairs; weights renormalized."""
        pairs = list(states_and_weights)
        if not pairs:
            raise ValidationError("mixture needs at least one component")
        weights = np.array([w for _, w in pairs], dtype=float)
        if np.any(weights < 0) or weights.sum() <= 0:
            raise ValidationError("mixture weights must be nonnegative with positive sum")
        weights = weights / weights.sum()
        size = max(s.n_max for s, _ in pairs) + 1
        mat = np.zeros((size, size), dtype=complex)
        for (state, _), w in zip(pairs, weights):
            a = np.zeros(size, dtype=complex)
            a[: state.n_max + 1] = state.amplitudes
            mat += w * np.outer(a, a.conj())
        return cls(mat)


def eigenfunction_stack(n_max: int, xs) -> np.ndarray:
    """All oscillator eigenfunctions psi_0..psi_n_max on a grid, shape (n_max+1, len(xs)).

    Three-term recurrence on the orthonormal Hermite functions; each term
    carries its Gaussian factor, so there is no overflow for any n accepted.
    """
    if n_max < 0:
        raise ValidationError("Fock index must be nonnegative")
    if n_max > MAX_EIGENFUNCTION_INDEX:
        raise ValidationError(
            f"n={n_max} above validated recurrence range {MAX_EIGENFUNCTION_INDEX}"
        )
    x = np.asarray(xs, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValidationError("sample grid must be finite")
    out = np.empty((n_max + 1,) + x.shape, dtype=float)
    out[0] = np.pi ** -0.25 * np.exp(-0.5 * x * x)
    if n_max >= 1:
        out[1] = np.sqrt(2.0) * x * out[0]
    for k in range(1, n_max):
        out[k + 1] = np.sqrt(2.0 / (k + 1)) * x * out[k] - np.sqrt(k / (k + 1)) * out[k - 1]
    return out


def oscillator_eigenfunction(n: int, xs) -> np.ndarray:
    """Oscillator eigenfunction psi_n(x) with kappa = hbar = 1."""
    return eigenfunction_stack(n, xs)[n]


def position_wavefunction(state: FockState, xs) -> np.ndarray:
    """psi(x) of a pure state from its Fock amplitudes."""
    stack = eigenfunction_stack(state.n_max, xs)
    return np.tensordot(state.amplitudes, stack, axes=(0, 0))


def log_factorials(n: int) -> np.ndarray:
    """log(k!) for k = 0..n, from the standard library's log-gamma."""
    return np.array([math.lgamma(k + 1.0) for k in range(n + 1)])


def coherent_amplitudes(beta: complex, n_max: int | None = None) -> FockState:
    """Coherent state of amplitude ``beta`` as a truncated Fock vector.

    |c_n|^2 is the Poisson distribution of mean |beta|^2; the truncation is
    sized (or checked) so the lost tail stays below EPS_TAIL.
    """
    beta = complex(beta)
    if n_max is None:
        n_max = default_cutoff(abs(beta))
    n = np.arange(n_max + 1)
    if abs(beta) == 0.0:
        amp = np.zeros(n_max + 1, dtype=complex)
        amp[0] = 1.0
        return FockState(amp)
    logmag = -0.5 * abs(beta) ** 2 + n * math.log(abs(beta)) - 0.5 * log_factorials(n_max)
    amp = np.exp(logmag) * np.exp(1j * n * np.angle(beta))
    tail = abs(1.0 - float(np.sum(np.abs(amp) ** 2)))
    if tail > EPS_TAIL:
        raise TruncationError(
            f"coherent tail mass {tail:.3e} beyond n_max={n_max} (allowed {EPS_TAIL:.0e})",
            detail=tail,
        )
    return FockState(amp)


def _displacement_batch(alphas: np.ndarray, n_max: int, columns: np.ndarray) -> np.ndarray:
    """Selected columns of the displacement operator for a batch of amplitudes.

    Returns shape (len(alphas), n_max+1, len(columns)).  Entries are the
    closed form of Cahill & Glauber, Phys. Rev. 177, 1857 (1969),
        <m|D(a)|n> = sqrt(n!/m!) a^(m-n) e^(-|a|^2/2) L_n^(m-n)(|a|^2)
    for m >= n, and conj(<n|D(-a)|m>) below the diagonal.  At order k the
    normalized magnitudes T_n = sqrt(n!/(n+k)!) |a|^k e^(-|a|^2/2) L_n^(k)
    obey the Laguerre degree recurrence
        sqrt((n+1)(n+1+k)) T_(n+1) = (2n+1+k-|a|^2) T_n - sqrt(n(n+k)) T_(n-1),
    stepped over the degree n on arrays over (alpha, order); degree n fills
    column n from the diagonal down and row n right of the diagonal.  Only
    orders k <= n_max - n are carried.  As entries of a unitary the T_n stay
    in [-1, 1], so no truncation size overflows, and D(0) comes out as the
    exact identity.  Phases and signs are applied in place afterwards, so
    the working set beyond the result is a few arrays over (alpha, order).
    """
    al = np.asarray(alphas, dtype=complex).reshape(-1, 1)
    columns = np.asarray(columns, dtype=int)
    order = np.arange(n_max + 1)
    mag = np.abs(al)
    aa = mag * mag
    zero = mag[:, 0] == 0.0
    logmag = np.log(np.where(zero[:, None], 1.0, mag))
    cur = np.exp(order * logmag - 0.5 * log_factorials(n_max) - 0.5 * aa)
    cur[zero, 1:] = 0.0
    prev = np.zeros_like(cur)
    out = np.empty((al.shape[0], n_max + 1, columns.size), dtype=complex)
    for n in range(int(columns.max(initial=-1)) + 1):
        out[:, n:, columns == n] = cur[:, :, None]
        right = columns > n
        out[:, n, right] = cur[:, columns[right] - n]
        k = order[: cur.shape[1] - 1]
        nxt = (2 * n + 1 + k - aa) * cur[:, :-1]
        nxt -= np.sqrt(n * (n + k)) * prev[:, : k.size]
        nxt /= np.sqrt((n + 1) * (n + 1 + k))
        prev, cur = cur, nxt
    prev = cur = nxt = None  # free the recurrence state before the phase pass
    theta = np.angle(al)
    out *= np.exp(1j * order * theta)[:, :, None]
    out *= np.exp(-1j * columns * theta)[:, None, :]
    # <m|D(a)|n> = conj(<n|D(-a)|m>) carries (-1)^(n-m) below the diagonal
    diff = order[:, None] - columns
    np.negative(out, out=out, where=(diff < 0) & (diff % 2 == 1))
    return out


def displacement_leakage(alpha: complex, n_max: int, columns=None) -> tuple[float, int]:
    """Worst column-norm deficit of the truncated D(alpha) and its column.

    By default the certified span is inspected; columns near the truncation
    edge always leak and are not certified.
    """
    if columns is None:
        columns = np.arange(displacement_certified_span(alpha, n_max) + 1)
    columns = np.asarray(columns, dtype=int)
    mat = _displacement_batch(np.array([alpha]), n_max, columns)[0]
    leak = 1.0 - np.sum(np.abs(mat) ** 2, axis=0)
    worst = int(np.argmax(leak))
    return float(leak[worst]), int(columns[worst])


def displacement_certified_span(alpha: complex, n_max: int) -> int:
    """Largest column index whose displaced image provably fits below n_max.

    Column n displaced by alpha centers near n + |alpha|^2 with spread
    sqrt((2n+1))|alpha|; a six-sigma margin keeps the spilled mass far below
    the leak tolerance.  Returns -1 when not even the vacuum column fits.
    """
    a = abs(alpha)
    span = -1
    for n in range(n_max + 1):
        if n + a * a + 6.0 * a * math.sqrt(2.0 * n + 1.0) + 8.0 > n_max:
            break
        span = n
    return span


def displacement_matrix(
    alpha: complex, n_max: int, *, leak_tol: float = 1e-6
) -> np.ndarray:
    """Matrix of the displacement operator D(alpha) on the truncated space.

    The operator is certified on the columns reported by
    :func:`displacement_certified_span`: each must keep its norm within
    ``leak_tol`` of 1, otherwise a TruncationError carrying the worst column
    index is raised.  Columns near the truncation edge always leak and are
    returned uncertified.
    """
    if n_max < 0:
        raise ValidationError("n_max must be nonnegative")
    if n_max < 2.0 * abs(alpha) ** 2 + 10.0 * abs(alpha):
        raise ValidationError(
            f"n_max={n_max} too small for displacement |alpha|={abs(alpha):.3f}; "
            f"the policy default is {default_cutoff(abs(alpha))}"
        )
    cols = np.arange(n_max + 1)
    mat = _displacement_batch(np.array([alpha]), n_max, cols)[0]
    span = displacement_certified_span(alpha, n_max)
    if span < 0:
        raise TruncationError(
            f"n_max={n_max} cannot even hold the displaced vacuum for "
            f"|alpha|={abs(alpha):.3f}",
            detail=0,
        )
    leak = 1.0 - np.sum(np.abs(mat[:, : span + 1]) ** 2, axis=0)
    worst = int(np.argmax(leak))
    if leak[worst] > leak_tol:
        raise TruncationError(
            f"displacement truncation leaks {leak[worst]:.3e} in column {worst} "
            f"(allowed {leak_tol:.0e}); increase n_max",
            detail=worst,
        )
    return mat


def displace(rho: DensityMatrix, alpha: complex, n_max: int | None = None) -> DensityMatrix:
    """Conjugate ``rho`` by the displacement operator: D(alpha) rho D(alpha)^dag."""
    if n_max is None:
        n_max = default_cutoff(abs(alpha), math.sqrt(rho.top_occupied()))
    work = rho.embedded(max(n_max, rho.n_max))
    span = displacement_certified_span(alpha, work.n_max)
    support = work.top_occupied(1e-12)
    if support > span:
        raise TruncationError(
            f"state support reaches n={support} but displacement by "
            f"|alpha|={abs(alpha):.3f} is certified only up to n={span} at "
            f"n_max={work.n_max}; increase n_max",
            detail=support,
        )
    d = displacement_matrix(alpha, work.n_max)
    moved = d @ work.entries @ d.conj().T
    tr = float(np.real(np.trace(moved)))
    if abs(tr - 1.0) > EPS_TAIL:
        raise TruncationError(
            f"displacement lost {abs(tr - 1.0):.3e} of the trace", detail=abs(tr - 1.0)
        )
    return DensityMatrix(moved, check=False)


def energy_distribution(
    rho: DensityMatrix, alpha: complex, n_max: int | None = None
) -> np.ndarray:
    """Occupation probabilities P_n of the state displaced by ``alpha``.

    P_n is the n-th diagonal entry of D(alpha) rho D(alpha)^dag.  Entries in
    [-1e-12, 0) are clamped to zero; anything lower means the truncation
    failed and raises.  The sum must sit in [1 - EPS_TAIL, 1 + 1e-10].
    """
    moved = displace(rho, alpha, n_max)
    p = np.real(np.diag(moved.entries)).copy()
    lowest = float(p.min())
    if lowest < -NEGATIVE_CLAMP:
        raise TruncationError(
            f"displaced diagonal has entry {lowest:.3e} below the roundoff band",
            detail=lowest,
        )
    p[p < 0.0] = 0.0
    total = float(p.sum())
    if not (1.0 - EPS_TAIL <= total <= 1.0 + 1e-10):
        raise TruncationError(
            f"displaced probabilities sum to {total!r}", detail=abs(total - 1.0)
        )
    return p
