"""Truncated Fock-space numerics for the harmonic oscillator.

Everything is dimensionless: hbar = 1 and the oscillator length scale
kappa = 1, so position u = kappa*x and momentum v = p/(hbar*kappa) are
plain numbers.

Factorial-sized prefactors are always built from log-gamma differences,
never from raw factorials, so indices in the thousands are safe.

A state is kept as its normalized pure components and their weights (one for a
:class:`FockState`), and every route reads them as stored: nothing is factored.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import TruncationError, ValidationError

#: Probability mass a truncated representation may lose before it is an error.
EPS_TAIL = 1e-10

#: Largest truncation a state, a cutoff or a route accepts; it bounds sizes, not
#: accuracy.  The direct route's Hermite start exp(-x*x/2) is 0.0 beyond |x| ~
#: 38.6, so psi_n keeps unit norm only to n ~ 690; W(0) of fock:700 fails there.
MAX_CUTOFF = 10_000

#: Largest norm deficit a certified column of a truncated D(alpha) may show.
_LEAK_TOL = 1e-6

#: Elements per block of a batched displacement or chord evaluation.
_CHUNK_ELEMS = 8_000_000


def default_cutoff(*amplitudes: float) -> int:
    """Truncation size that holds displaced states built from ``amplitudes``.

    Displaced Poisson tails decay super-exponentially past their mean, so
    ``4 * (sum of amplitude magnitudes)**2 + 20`` keeps the lost mass far
    below EPS_TAIL; 64 is the floor so small states get comfortable room.
    A size above MAX_CUTOFF is refused before anything is allocated.
    """
    total = sum(abs(a) for a in amplitudes)
    size = 4.0 * total * total + 20.0  # inf, not OverflowError, for huge amplitudes
    _check_cutoff(size)
    return max(64, math.ceil(size))


def _check_cutoff(n_max) -> None:
    """ValidationError naming the limit unless 0 <= ``n_max`` <= MAX_CUTOFF; pure
    arithmetic, so every truncation is checked before anything is allocated."""
    if n_max < 0:
        raise ValidationError(f"truncation n_max={n_max} is below the limit of 0")
    if not n_max <= MAX_CUTOFF:  # nan too
        shown = f"{n_max:.6g}" if isinstance(n_max, float) else n_max
        raise ValidationError(f"truncation n_max={shown} exceeds the limit of {MAX_CUTOFF}")


class DensityMatrix:
    """Convex mixture rho = sum_i w_i |a_i><a_i| of normalized pure states, stored
    as the amplitude matrix A (one a_i per column) and the weights w (renormalized),
    so rho is Hermitian, unit-trace and positive by construction."""

    def __init__(self, amplitudes, weights):
        amp = np.array(amplitudes, dtype=complex)  # a copy: no caller can change it later
        w = np.asarray(weights, dtype=float)
        if amp.ndim != 2 or amp.shape[0] == 0 or w.shape != amp.shape[1:]:
            raise ValidationError("amplitudes must be (levels, components), a weight each")
        if w.size == 0:
            raise ValidationError("mixture needs at least one component")
        with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned about
            total = w.sum()
        if not np.all(np.isfinite(w)) or np.any(w < 0) or total <= 0:
            raise ValidationError(
                "mixture weights must be finite and nonnegative with positive sum"
            )
        if total == math.inf:
            raise ValidationError("mixture weights sum past the largest double")
        tail = float(np.max(np.abs(1.0 - np.sum(np.abs(amp) ** 2, axis=0))))
        if tail > EPS_TAIL:  # every component must have unit norm
            raise TruncationError(
                f"state norm misses 1 by {tail:.3e} (allowed {EPS_TAIL:.0e})", detail=tail
            )
        self._amp, self._w = amp, w / total
        for arr in (self._amp, self._w):  # shared by every route, so read-only
            arr.setflags(write=False)

    def leading_block(self, size: int) -> np.ndarray:
        """rho[:size, :size] = sum_i w_i outer(a_i[:size], conj(a_i[:size])), summed
        in component order; no row or column past ``size`` is built."""
        mat = np.zeros((size, size), dtype=complex)
        for a, w in zip(self._amp[:size].T, self._w):
            mat += w * np.outer(a, a.conj())
        return mat

    @property
    def n_max(self) -> int:
        return self._amp.shape[0] - 1

    def top_occupied(self, threshold: float = 1e-14) -> int:
        occ = np.zeros(self.n_max + 1)
        for a, w in zip(self._amp.T, self._w):  # the arithmetic of rho's diagonal
            occ += w * (a * a.conj()).real
        return int(np.flatnonzero(occ > threshold).max(initial=0))

    @property
    def support(self) -> tuple[np.ndarray, np.ndarray]:
        """The stored (weights, components) over levels 0..s-1, s - 1 the last
        nonzero occupation: the weights w and the first s rows of A, both
        read-only, so rho[:s, :s] = A[:s] diag(w) A[:s]^dag.  Every stored level
        counts, since amplitudes near sqrt(eps) still shift displaced
        probabilities at the 1e-8 level."""
        return self._w, self._amp[: self.top_occupied(0.0) + 1]

    def embedded(self, n_max: int) -> "DensityMatrix":
        """Same operator in a Fock space truncated at ``n_max`` >= current."""
        if n_max < self.n_max:
            raise ValidationError("embedding may only enlarge the truncation")
        _check_cutoff(n_max)
        return DensityMatrix(np.pad(self._amp, ((0, n_max - self.n_max), (0, 0))), self._w)

    @classmethod
    def mixture(cls, states_and_weights) -> "DensityMatrix":
        """Convex mixture of (DensityMatrix, weight) pairs: each state's stored
        components, each weighted by the pair's weight times its own; weights
        renormalized.  A FockState is one component of weight 1."""
        pairs = list(states_and_weights)
        if not pairs:
            raise ValidationError("mixture needs at least one component")
        given = np.asarray([w for _, w in pairs], dtype=float)  # read as __init__ reads weights
        n_max = max(state.n_max for state, _ in pairs)
        amp = np.hstack([np.pad(state._amp, ((0, n_max - state.n_max), (0, 0)))
                         for state, _ in pairs])
        weights = [w * own for (state, _), w in zip(pairs, given) for own in state._w]
        return DensityMatrix(amp, weights)


class FockState(DensityMatrix):
    """Pure state as a truncated vector of Fock amplitudes c_0..c_N: the
    DensityMatrix whose one component, of weight 1, is that vector."""

    def __init__(self, amplitudes):
        amp = np.asarray(amplitudes, dtype=complex)  # copied by DensityMatrix
        if amp.ndim != 1 or amp.size == 0:
            raise ValidationError("amplitudes must be a non-empty 1-d vector")
        super().__init__(amp[:, None], [1.0])

    @property
    def amplitudes(self) -> np.ndarray:
        return self._amp[:, 0]

    def density(self) -> "FockState":
        return self

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
        _check_cutoff(size - 1)
        amp = np.zeros(size, dtype=complex)
        amp[n] = 1.0
        return cls(amp)


def eigenfunction_stack(coeffs, xs) -> np.ndarray:
    """sum_n coeffs[n, e] psi_n(xs) per column e, shape (columns,) + xs.shape.

    The orthonormal Hermite functions psi_n follow the three-term recurrence
        psi_(n+1) = sqrt(2/(n+1)) x psi_n - sqrt(n/(n+1)) psi_(n-1);
    each carries its Gaussian factor, so there is no overflow for any n
    accepted.  The recurrence starts from psi_0, whose Gaussian underflows
    to 0.0 beyond |x| ~ 38.6, so there every psi_n reads 0.0, even where
    its true value is not small.  Each psi_n is added to the column sums when it is reached, so
    the working set is two recurrence rows and the sums, and no psi past the
    last coefficient row is computed.  The identity matrix gives the stack
    psi_0..psi_N itself.
    """
    c = np.asarray(coeffs)
    if c.ndim != 2 or c.shape[0] == 0:
        raise ValidationError("coefficients must be a (levels, columns) matrix")
    n_max = c.shape[0] - 1
    _check_cutoff(n_max)
    x = np.asarray(xs, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValidationError("sample grid must be finite")
    c = c.reshape(c.shape + (1,) * x.ndim)  # coefficient rows broadcast over the samples
    # every psi_n is 0.0 past |x| = 40 already (the Gaussian underflows beyond
    # 39); clipping keeps x * x finite
    x = np.clip(x, -40.0, 40.0)
    prev, cur = np.zeros_like(x), np.pi ** -0.25 * np.exp(-0.5 * x * x)
    out = c[0] * cur
    for n in range(n_max):
        prev, cur = cur, np.sqrt(2.0 / (n + 1)) * x * cur - np.sqrt(n / (n + 1)) * prev
        out += c[n + 1] * cur
    return out


def coherent_amplitudes(beta: complex, n_max: int | None = None) -> FockState:
    """Coherent state of amplitude ``beta`` as a truncated Fock vector.

    It is the displaced vacuum, column 0 of D(beta): its moduli are the start
    row T_0^(n)(|beta|) of :func:`_laguerre_degrees`, its phases e^(in arg beta).
    The truncation is sized (or checked) so the lost tail stays below EPS_TAIL.
    """
    beta = complex(beta)
    if not cmath.isfinite(beta):
        raise ValidationError(f"coherent amplitude {beta} must be finite")
    if n_max is None:
        n_max = default_cutoff(abs(beta))
    _check_cutoff(n_max)
    mag = next(_laguerre_degrees(np.array([abs(beta)]), n_max, 0))[0]
    # FockState's norm check refuses a truncation that loses the tail
    return FockState(mag * np.exp(1j * np.arange(n_max + 1) * np.angle(beta)))


def _laguerre_degrees(mag: np.ndarray, n_max: int, last: int, top: int = MAX_CUTOFF):
    """Yield, per degree n = 0..``last``, the moduli of <n+k|D(a)|n> at |a| = r,
        T_n^(k)(r) = sqrt(n!/(n+k)!) r^k e^(-r^2/2) L_n^(k)(r^2),
    over (r in ``mag``, order k = 0..min(``top``, n_max - n)), by the recurrence
        sqrt((n+1)(n+1+k)) T_(n+1) = (2n+1+k-r^2) T_n - sqrt(n(n+k)) T_(n-1),
    one per order, so a lower ``top`` keeps the bits of the orders it holds.
    As entries of a unitary they stay in [-1, 1], so no n_max overflows, and
    r = 0 gives exactly [k = 0].  Each array yielded is the recurrence's own
    state, to be read and never written.
    """
    mag = mag.reshape(-1, 1)
    order = np.arange(min(top, n_max) + 1)
    aa = mag * mag
    zero = mag[:, 0] == 0.0
    logmag = np.log(np.where(zero[:, None], 1.0, mag))
    log_fact = np.array([math.lgamma(k + 1.0) for k in order])
    cur = np.exp(order * logmag - 0.5 * log_fact - 0.5 * aa)
    cur[zero, 1:] = 0.0
    prev = np.zeros_like(cur)
    for n in range(last + 1):
        yield cur
        k = order[: n_max - n]
        nxt = (2 * n + 1 + k - aa) * cur[:, : k.size]
        nxt -= np.sqrt(n * (n + k)) * prev[:, : k.size]
        nxt /= np.sqrt((n + 1) * (n + 1 + k))
        prev, cur = cur, nxt


def _displacement_batch(alphas: np.ndarray, n_max: int, columns) -> np.ndarray:
    """Columns 0..s-1 of the displacement operator for a batch of amplitudes, s =
    len(``columns``) (callers pass range(s)), as shape (len(alphas), n_max+1, s).

    Entries are the closed form of Cahill & Glauber, Phys. Rev. 177, 1857 (1969),
        <m|D(a)|n> = sqrt(n!/m!) a^(m-n) e^(-|a|^2/2) L_n^(m-n)(|a|^2)
    for m >= n, and conj(<n|D(-a)|m>) right of the diagonal.  Degree n of
    :func:`_laguerre_degrees` fills column n from the diagonal down and row n
    right of it, each entry written once with its phase and sign, so D(0) is
    the exact identity and the working set beyond the result is a few (alpha,
    order) arrays.
    """
    al = np.asarray(alphas, dtype=complex).reshape(-1, 1)
    s = len(columns)
    k = np.arange(n_max + 1)
    below = np.exp(1j * k * np.angle(al))  # <n+k|D(a)|n> carries e^(ik arg a)
    above = below.conj() * (1.0 - 2.0 * (k % 2))  # <n|D(a)|n+k>: (-1)^k e^(-ik arg a)
    out = np.empty((al.shape[0], n_max + 1, s), dtype=complex)
    for n, cur in enumerate(_laguerre_degrees(np.abs(al), n_max, s - 1)):
        out[:, n:, n] = cur * below[:, : n_max + 1 - n]
        out[:, n, n + 1 :] = cur[:, 1 : s - n] * above[:, 1 : s - n]
    return out


def displacement_certified_span(alpha: complex, n_max: int) -> int:
    """Largest column index whose displaced image provably fits below n_max.

    Column n displaced by alpha centers near n + |alpha|^2 with spread
    sqrt((2n+1))|alpha|; a six-sigma margin keeps the spilled mass far below
    the leak tolerance.  Returns -1 when not even the vacuum column fits, as for
    a nan alpha.
    """
    a = abs(alpha)
    span = -1
    for n in range(n_max + 1):
        if not n + a * a + 6.0 * a * math.sqrt(2.0 * n + 1.0) + 8.0 <= n_max:
            break
        span = n
    return span


def _worst_leak(block, certified: int) -> None:
    """TruncationError, carrying the column, when any of the first ``certified``
    columns of a D(alpha) in ``block`` falls short of unit norm by over _LEAK_TOL."""
    head = block[:, :, :certified]
    leaks = 1.0 - np.vecdot(head, head, axis=1).real.min(axis=0)  # no block-sized temporary
    worst = int(np.argmax(leaks))
    if leaks[worst] > _LEAK_TOL:
        raise TruncationError(
            f"displacement truncation leaks {leaks[worst]:.3e} in column {worst} "
            f"(allowed {_LEAK_TOL:.0e}); increase n_max",
            detail=worst,
        )


def _displaced_occupations(rho: DensityMatrix, alphas, n_max=None) -> np.ndarray:
    """Occupations P_n of D(alpha) rho D(alpha)^dag, one row per alpha.

    P_n = sum_i w_i |<n|D(alpha)|a_i>|^2 over ``rho.support``, so only the
    support columns of D(alpha) are built, a block of points at a time; the
    default cutoff follows the largest |alpha|.  TruncationError unless the
    support lies in the certified span at that |alpha|, each certified
    column built leaks at most 1e-6 and each row sums to 1 within
    [-EPS_TAIL, 1e-10].
    """
    alphas = np.asarray(alphas, dtype=complex).ravel()
    if not np.isfinite(alphas).all():
        raise ValidationError("displacement amplitudes must be finite")
    largest = float(np.max(np.abs(alphas)))
    if n_max is None:
        n_max = default_cutoff(largest, math.sqrt(rho.top_occupied()))
    _check_cutoff(n_max)
    n_max = max(n_max, rho.n_max)
    span = displacement_certified_span(largest, n_max)
    reach = rho.top_occupied(1e-12)
    if reach > span:
        raise TruncationError(
            f"state support reaches n={reach} but displacement by "
            f"|alpha|={largest:.3f} is certified only up to n={span} at "
            f"n_max={n_max}; increase n_max",
            detail=reach,
        )
    weights, vectors = rho.support
    s = vectors.shape[0]
    certified = min(span + 1, s)
    out = np.empty((alphas.size, n_max + 1))
    step = max(1, int(_CHUNK_ELEMS // ((n_max + 1) * s)))
    for lo in range(0, alphas.size, step):
        block = _displacement_batch(alphas[lo : lo + step], n_max, range(s))
        _worst_leak(block, certified)
        moved = block @ vectors  # (chunk, n_max+1, components)
        del block  # each block is freed before the next is built
        out[lo : lo + step] = np.einsum("e,ame->am", weights, np.abs(moved) ** 2)
        del moved
    totals = out.sum(axis=1)
    bad = ~((totals >= 1.0 - EPS_TAIL) & (totals <= 1.0 + 1e-10))
    if bad.any():
        total = float(totals[bad][0])
        raise TruncationError(
            f"displaced probabilities sum to {total!r}; increase n_max",
            detail=abs(total - 1.0),
        )
    return out


def energy_distribution(
    rho: DensityMatrix, alpha: complex, n_max: int | None = None
) -> np.ndarray:
    """Occupation probabilities P_n of the state displaced by ``alpha``.

    The diagonal of D(alpha) rho D(alpha)^dag, as the one-point case of the
    occupation route; a TruncationError means n_max is too small.
    """
    return _displaced_occupations(rho, [alpha], n_max)[0]
