"""Wigner quasiprobability on the dimensionless phase plane.

Two independent evaluation routes are provided and cross-checked:

* :func:`wigner_direct` integrates the position-representation Fourier
  kernel over the chord coordinate y at every node; the kernel is the
  sum over the state's stored pure components phi_i and weights w_i
  (``rho.support``) of w_i phi_i(u + y/2) conj(phi_i(u - y/2)), each
  phi_i evaluated once per point of one abscissa lattice that holds every
  u +- y/2 of a refinement level, and only y >= 0 is summed, since the
  kernel at -y is the conjugate of that at y,
* :func:`parity_sum` forms twice the alternating sum of the occupation
  probabilities of the state displaced to the opposite phase point
  (``fock._displaced_occupations``); :func:`wigner_parity` evaluates the
  same sum on a grid as Royer's trace 2*Tr[rho D(2 alpha) Pi] over the
  state's support, summed as an angular Fourier series in arg(alpha)
  whose radial coefficients come from one Laguerre recurrence per distinct
  |alpha|, and applies the occupation route's truncation checks at the
  grid's four corners, whose values the grid must match within ROUTE_TOL.

Route agreement fixes the identification between the phase-plane
coordinate u + i*v and the displacement amplitude: the winning scale is
frozen in :data:`UV_TO_ALPHA` and re-derivable with
:func:`convention_check`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import fock
from .errors import (
    ContainmentError,
    NumericsError,
    QuadratureError,
    TruncationError,
    ValidationError,
)
from .field import PhaseGrid, WignerField  # noqa: F401  (re-exported, the same objects)

#: Displacement amplitude per unit of (u + i*v).  Fixed empirically by
#: convention_check: only alpha = (u + i*v)/sqrt(2) makes the alternating
#: parity sum equal 2*pi times the direct Fourier-integral value.
UV_TO_ALPHA = 1.0 / math.sqrt(2.0)

#: Largest grid rows x chord nodes of any level of the direct route's chord
#: quadrature, the nodes counted over the whole window, -y as well as y; the
#: complex (rows, nodes) integrand of y >= 0 then holds at most 16 MB.  A grid
#: whose first two levels exceed it is refused before anything is sampled; a
#: later level that would exceed it ends the refinement unconverged.  It also
#: bounds the kernel nodes of each level of :func:`rotated_quadrature`, whose
#: kernel is formed MAX_CHORD_SAMPLES // nodes points at a time.
MAX_CHORD_SAMPLES = 1_000_000
REL_TOL = 1e-10  #: chord levels agree once they differ by under REL_TOL / pi
MAX_REFINEMENTS = 8  #: chord levels the direct route evaluates before failing
#: Largest |W| by which two routes may differ at a node: the parity grid's corners
#: against the occupation sums, and ``wigner --method both``'s two fields.
ROUTE_TOL = 1e-6


class ContainmentWarning(UserWarning):
    """The sampled grid may not contain the state's classical support."""


def alpha_from_uv(u, v) -> np.ndarray:
    """Displacement amplitude matching phase-plane coordinates (u, v)."""
    return (np.asarray(u, dtype=float) + 1j * np.asarray(v, dtype=float)) * UV_TO_ALPHA


# -- direct Fourier-integral route ----------------------------------------


def _chord_lattice(u: np.ndarray, h: float, half_window: float, shared: bool):
    """One level's chord abscissae xs and their layout (pitch, stride, hy, nodes).

    Row i's nodes y_j = j * hy <= half_window + hy (j < nodes, hy <= h) put
    u_i +- y_j / 2 at xs[c_i +- j * stride], c_i = (nodes - 1) * stride +
    i * pitch.  A grid's rows share the lattice u_0 + k * delta, hy = 2 q delta:
    delta = du / m, q = 1 with m = ceil(du / (h/2)) when du >= h/2, else
    delta = du, q = floor(h / (2 du)).  Scattered points, and a grid with
    q > rows, whose lattice would outgrow its rows' own, take one lattice
    u_i + k * h/2 per row (h / (2 du) is inf for a subnormal du, so it does too).
    """
    rows = u.size
    if shared:
        du = float(u[-1] - u[0]) / (rows - 1)
        shared = h / (2.0 * du) < rows + 1  # q <= rows
    if shared:
        m, q = (math.ceil(2.0 * du / h), 1) if 2.0 * du >= h else (1, int(h / (2.0 * du)))
        hy = 2.0 * q * du / m
        nodes = math.ceil(half_window / hy) + 1
        span = (rows - 1) * m + 2 * (nodes - 1) * q + 1
        return u[0] + (du / m) * (np.arange(span) - (nodes - 1) * q), m, q, hy, nodes
    nodes = math.ceil(half_window / h) + 1
    xs = (u[:, None] + 0.5 * h * np.arange(1 - nodes, nodes)).ravel()
    return xs, 2 * nodes - 1, 1, h, nodes


def _chord_integrand(rho, xs, pitch, stride, nodes) -> np.ndarray:
    """F[i, j] = <xs[c_i + j * stride]| rho |xs[c_i - j * stride]> on a
    :func:`_chord_lattice` layout, for y_j >= 0 only: F(u, -y) = conj F(u, y).

    With rho.support = (w, A), F = sum_e w_e phi_e(x+) conj(phi_e(x-)), each
    phi_e = sum_n A_ne psi_n summed inside the Hermite recurrence, once per
    lattice point a block of rows reads; both factors are strided views of it.
    """
    weights, vectors = rho.support
    reach = (nodes - 1) * stride
    rows = (xs.size - 2 * reach - 1) // pitch + 1
    out = np.empty((rows, nodes), dtype=complex)
    step = max(1, int(fock._CHUNK_ELEMS // (vectors.shape[0] * nodes)))  # levels x nodes
    for lo in range(0, rows, step):
        hi = min(lo + step, rows)
        phi = fock.eigenfunction_stack(vectors, xs[lo * pitch : (hi - 1) * pitch + 2 * reach + 1])
        win = np.lib.stride_tricks.sliding_window_view(phi, 2 * reach + 1, axis=-1)[:, ::pitch]
        plus, minus = win[..., reach::stride], win[..., reach::-stride]
        out[lo:hi] = np.einsum("e,exy,exy->xy", weights, plus, minus.conj())
    return out


def _wigner_eval(rho, u_vec, v_vec, paired, min_points=None):
    """Trapezoid-with-halving evaluation of the chord integral.

    paired=False: full outer grid, result (len(u), len(v)).
    paired=True: pointwise, result (len(u),) with u_vec/v_vec zipped.
    Level npts asks for the step h = 2 * half_window / (npts - 1), and takes
    hy <= h over as wide a window.  As F(u, -y) = conj F(u, y), the trapezoid
    rule over j = -J..J is hy F_0 + 2 sum_(j>=1) h_j (Re F_j cos(v y_j) +
    Im F_j sin(v y_j)), h_j = hy but hy / 2 at j = J: two real sums.
    """
    n_max = rho.n_max
    u_vec = np.asarray(u_vec, dtype=float)
    v_vec = np.asarray(v_vec, dtype=float)
    half_window = 2.0 * (math.sqrt(2.0 * n_max + 1.0) + float(np.max(np.abs(u_vec)))) + 12.0
    v_scale = float(np.max(np.abs(v_vec))) if v_vec.size else 0.0
    chord_nodes = 6.0 * half_window * v_scale / math.pi
    need = max(chord_nodes, min_points or 0)
    rows = max(u_vec.size, v_vec.size)  # the integrand's and the phases' rows
    npts = 257
    if need <= MAX_CHORD_SAMPLES:  # false for inf and nan, which never end the doubling
        while npts < chord_nodes:
            npts = 2 * npts - 1
        npts = max(npts, int(min_points or 0))
    # convergence takes two levels; the second has 2 * npts - 1 nodes
    if not (need <= MAX_CHORD_SAMPLES and rows * (2 * npts - 1) <= MAX_CHORD_SAMPLES):
        raise ValidationError(
            f"{rows} rows x {max(need, 2 * npts - 1):.6g} chord nodes exceed the limit "
            f"of {MAX_CHORD_SAMPLES} chord samples"
        )
    tol = REL_TOL / math.pi
    prev = None
    for _ in range(MAX_REFINEMENTS):
        if rows * npts > MAX_CHORD_SAMPLES:
            break  # refused below, with the last level's Richardson estimate
        h = 2.0 * half_window / (npts - 1)
        xs, pitch, stride, hy, nodes = _chord_lattice(u_vec, h, half_window, not paired)
        fw = _chord_integrand(rho, xs, pitch, stride, nodes) * hy
        fw[:, 1:-1] *= 2.0  # the folded trapezoid's weights
        vy = v_vec[:, None] * (hy * np.arange(nodes))
        c, s = np.cos(vy), np.sin(vy)
        # a grid-wide dgemm would sum in an order that follows the BLAS thread
        # count; each row's matrix-vector products sum in one order for any count
        summed = (np.sum(fw.real * c + fw.imag * s, axis=1) if paired
                  else np.array([c @ fr + s @ fi for fr, fi in zip(fw.real, fw.imag)]))
        vals = summed / (2.0 * math.pi)
        if prev is not None:
            delta = np.abs(vals - prev)
            if float(delta.max()) < tol:
                return vals
        prev = vals
        npts = 2 * npts - 1
    worst = np.unravel_index(int(np.argmax(delta)), delta.shape)
    node = (float(u_vec[worst[0]]), float(v_vec[worst[-1]]))
    raise QuadratureError(
        f"chord quadrature not converged: Richardson estimate "
        f"{float(delta.max()) / 3.0:.3e} above tolerance at node {node}",
        worst_node=node,
    )


def wigner_direct(rho: fock.DensityMatrix, grid: PhaseGrid) -> WignerField:
    """Wigner function on a grid via the Fourier integral over the chord.

    Containment is not required, but a warning is emitted when the state's
    classical radius sticks out beyond 1.2 times the grid extent.
    """
    radius = math.sqrt(2.0 * rho.top_occupied())
    if radius > 1.2 * grid.max_extent:
        warnings.warn(
            f"state radius {radius:.2f} exceeds 1.2x grid extent "
            f"{grid.max_extent:.2f}; normalization will fall short",
            ContainmentWarning,
            stacklevel=2,
        )
    vals = _wigner_eval(rho, grid.u_axis, grid.v_axis, False)
    return WignerField(grid, vals)


def wigner_values(
    rho: fock.DensityMatrix, u, v, *, min_points: int | None = None
) -> np.ndarray:
    """Wigner function at paired scattered points (u[i], v[i])."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if u.shape != v.shape:
        raise ValidationError("u and v must have matching shapes")
    if u.size == 0:
        raise ValidationError("need at least one point")
    return _wigner_eval(rho, u, v, True, min_points)


# -- alternating parity-sum route ------------------------------------------


@dataclass(frozen=True)
class ParitySum:
    """Value of the alternating sum with its truncation diagnostic."""

    value: float
    last_term: float

    def __float__(self) -> float:
        return self.value


def _parity_sums(rho, alphas, n_max=None):
    """S(alpha) = 2 * sum_n (-1)^n P_n(-alpha) per point, and each last term.

    The one convergence check of the alternating sum: a last retained
    occupation probability above 1e-8 needs a larger n_max.
    """
    p = fock._displaced_occupations(rho, -np.asarray(alphas, dtype=complex), n_max)
    last = p[:, -1]
    worst = float(last.max())
    if worst > 1e-8:
        raise TruncationError(
            f"alternating sum not converged: last term {worst:.3e} above "
            "1e-08; increase n_max",
            detail=worst,
        )
    signs = 1.0 - 2.0 * (np.arange(p.shape[1]) % 2)
    return 2.0 * (p @ signs), last


def parity_sum(
    rho: fock.DensityMatrix, alpha: complex, n_max: int | None = None
) -> ParitySum:
    """S(alpha) = 2 * sum_n (-1)^n P_n(-alpha) over the truncated basis.

    Summed from the occupations themselves, so it is an independent
    reference for the grid route of :func:`wigner_parity`.  The last retained
    occupation probability is the truncation diagnostic; above 1e-8 a
    TruncationError asks for a larger n_max.
    """
    values, last = _parity_sums(rho, [alpha], n_max)
    return ParitySum(value=float(values[0]), last_term=float(last[0]))


def _royer_sums(rho: fock.DensityMatrix, alphas: np.ndarray) -> np.ndarray:
    """S(alpha) = 2 * sum_n (-1)^n P_n(-alpha) per point, as a trace.

    Royer, Phys. Rev. A 15, 449 (1977): D(alpha) Pi D(alpha)^dag = D(2 alpha) Pi
    for the parity Pi, so S = 2 Tr[rho D(2 alpha) Pi] over the s occupied levels.
    With 2 alpha = r e^(i theta) and <n+k|D(2 alpha)|n> = T_n^(k)(r) e^(ik theta)
    (the entries above the diagonal add the conjugate terms), S is the series
        S = 2 Re[c_0(r) + 2 sum_(k>=1) e^(ik theta) c_k(r)],
        c_k(r) = sum_n (-1)^n rho_(n,n+k) T_n^(k)(r),
    whose c_k come from one Laguerre recurrence (``fock._laguerre_degrees``)
    per distinct r, for blocks of _CHUNK_ELEMS / s^2 radii at a time; each
    node then sums its series by Horner's rule in e^(i theta).
    """
    s = rho.support[1].shape[0]
    signs = 1.0 - 2.0 * (np.arange(s) % 2)
    rows = rho.leading_block(s) * signs[:, None]  # rho_nm (-1)^n
    beta = 2.0 * alphas
    radii, inverse, counts = np.unique(
        np.abs(beta), return_inverse=True, return_counts=True
    )
    by_radius = np.argsort(inverse, kind="stable")  # the nodes of each radius in turn
    first = np.concatenate(([0], np.cumsum(counts)))  # radius i: first[i] to first[i+1]
    out = np.empty(alphas.size)
    step = max(1, fock._CHUNK_ELEMS // (s * s))
    for lo in range(0, radii.size, step):
        hi = min(lo + step, radii.size)
        coef = np.zeros((hi - lo, s), dtype=complex)  # c_k per radius of the block
        for n, mags in enumerate(fock._laguerre_degrees(radii[lo:hi], s - 1, s - 1)):
            coef[:, : s - n] += rows[n, n:] * mags
        nodes = by_radius[first[lo] : first[hi]]
        at = inverse[nodes] - lo
        turn = np.exp(1j * np.angle(beta[nodes]))
        acc = np.zeros(nodes.size, dtype=complex)
        for k in range(s - 1, 0, -1):  # Horner: sum_(k>=1) c_k turn^k
            acc += coef[at, k]
            acc *= turn
        out[nodes] = 2.0 * (coef[at, 0].real + 2.0 * acc.real)
    return out


def wigner_parity(
    rho: fock.DensityMatrix, grid: PhaseGrid, n_max: int | None = None
) -> WignerField:
    """Wigner function on a grid via the alternating parity sum, W = S/(2*pi).

    Every node's S(alpha) is Royer's trace over the state's support, summed
    as angular harmonics whose coefficients are computed once per distinct
    |alpha| (see :func:`_royer_sums`); it needs no truncation.  The truncation
    contract of :func:`parity_sum` (certified span, column leak, row sums,
    last alternating term, all at ``n_max``) is applied at the four
    corners: they hold the grid's largest |alpha| and, wherever the state
    sits, its largest |beta - alpha|.  A TruncationError there refuses the
    grid, and so does a NumericsError when the grid's own values at the
    corners differ from those sums by more than ROUTE_TOL.
    """
    u, v = np.asarray(grid.u_axis), np.asarray(grid.v_axis)
    iu, iv = [0, 0, -1, -1], [0, -1, 0, -1]
    occupation, _ = _parity_sums(rho, alpha_from_uv(u[iu], v[iv]), n_max)
    sums = _royer_sums(rho, alpha_from_uv(u[:, None], v).ravel())
    values = (sums / (2.0 * math.pi)).reshape(grid.n_u, grid.n_v)
    dev = np.abs(values[iu, iv] - occupation / (2.0 * math.pi))
    worst = int(np.argmax(dev))
    if dev[worst] > ROUTE_TOL:
        corner = (grid.u_axis[iu[worst]], grid.v_axis[iv[worst]])
        raise NumericsError(
            f"the Royer and occupation routes disagree at corner (u, v) = {corner!r}: "
            f"|dW| = {dev[worst]:.3e} exceeds {ROUTE_TOL:.0e}"
        )
    return WignerField(grid, values)


# -- convention discrimination ----------------------------------------------


@dataclass(frozen=True)
class ConventionReport:
    """Outcome of discriminating the alpha <-> (u, v) identification."""

    deviations: dict
    winner: str
    scale: float


def convention_check(rho: fock.DensityMatrix, points) -> ConventionReport:
    """Test both candidate identifications of alpha against 2*pi*W.

    ``points`` is an iterable of (u, v) pairs.  Exactly one candidate must
    reach max deviation below 1e-6 over the sample; anything else is an
    implementation bug (or a non-discriminating sample) and raises.
    """
    pts = np.asarray([(float(p[0]), float(p[1])) for p in points], dtype=float)
    if pts.size == 0:
        raise ValidationError("need at least one sample point")
    direct = 2.0 * math.pi * wigner_values(rho, pts[:, 0], pts[:, 1])
    candidates = {"u+iv": 1.0, "(u+iv)/sqrt(2)": UV_TO_ALPHA}
    deviations = {}
    for name, scale in candidates.items():
        alphas = (pts[:, 0] + 1j * pts[:, 1]) * scale
        vals, _ = _parity_sums(rho, alphas)
        deviations[name] = float(np.max(np.abs(vals - direct)))
    matching = [name for name, dev in deviations.items() if dev < 1e-6]
    if len(matching) != 1:
        raise QuadratureError(
            f"convention check did not single out one mapping: {deviations!r}"
        )
    winner = matching[0]
    return ConventionReport(
        deviations=deviations, winner=winner, scale=candidates[winner]
    )


# -- tomography -------------------------------------------------------------


def rotated_quadrature(
    psi: fock.FockState,
    theta: float,
    xs,
    *,
    oversample: int = 1,
) -> np.ndarray:
    """Probability density of the theta-rotated quadrature of a pure state.

    Applies the quadratic-phase integral kernel of fractional order theta
    to the position wavefunction; theta = 0 is the identity and theta =
    pi/2 the ordinary Fourier transform.  The result is checked by doubling
    the kernel sampling density, which must change it by at most 1e-9.  The
    node count grows as 1/|sin theta|; a level of more than MAX_CHORD_SAMPLES
    nodes, as near 0 and pi, is refused before it is built.
    """
    xs = np.asarray(xs, dtype=float)
    if not (math.isfinite(theta) and np.isfinite(xs).all() and oversample >= 1):
        raise ValidationError("theta and xs must be finite, and oversample at least 1")
    fine = _rotated_once(psi, theta, xs, 2 * oversample)  # the larger level, refused first
    coarse = _rotated_once(psi, theta, xs, oversample)
    err = float(np.max(np.abs(fine - coarse), initial=0.0))
    if err > 1e-9:
        raise QuadratureError(
            f"rotation kernel quadrature not converged: doubling changes the "
            f"density by {err:.3e}"
        )
    return fine


def _rotated_once(psi: fock.FockState, theta: float, xs, oversample: int) -> np.ndarray:
    st, ct = math.sin(theta), math.cos(theta)
    amp = psi.amplitudes[:, None]  # one column: psi(x) from the Fock amplitudes
    if abs(st) < 1e-12:
        return np.abs(fock.eigenfunction_stack(amp, math.copysign(1.0, ct) * xs)[0]) ** 2
    half = math.sqrt(2.0 * psi.n_max + 1.0) + 8.0
    cot, csc = ct / st, 1.0 / st
    freq = abs(cot) * half + abs(csc) * float(np.max(np.abs(xs), initial=1.0))
    dx = 2.0 * math.pi / (max(freq, 1.0) * 12.0 * oversample)
    npts = int(math.ceil(2.0 * half / dx)) + 1
    if npts > MAX_CHORD_SAMPLES:
        raise ValidationError(
            f"{npts} rotation kernel nodes exceed the limit of {MAX_CHORD_SAMPLES}"
        )
    xp = np.linspace(-half, half, npts)
    w = np.full(npts, xp[1] - xp[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    inner = np.exp(0.5j * cot * xp**2) * fock.eigenfunction_stack(amp, xp)[0] * w
    flat, step = xs.ravel(), MAX_CHORD_SAMPLES // npts
    summed = np.empty(flat.size, dtype=complex)
    for lo in range(0, flat.size, step):  # at most MAX_CHORD_SAMPLES kernel entries at once
        summed[lo : lo + step] = np.exp(-1j * csc * np.outer(flat[lo : lo + step], xp)) @ inner
    pref = np.sqrt((1.0 - 1j * cot) / (2.0 * math.pi))
    out = pref * np.exp(0.5j * cot * xs**2) * summed
    return np.abs(out) ** 2


def radon_slice(field: WignerField, theta: float, xs) -> np.ndarray:
    """Marginal density of ``field`` along the theta-rotated axis.

    Line integrals run perpendicular to the rotated axis with bilinear
    interpolation between nodes, sampled at half the smaller grid spacing.
    A line leaving the grid where |W| is still above 1e-6 raises, since the
    marginal would be wrong.
    """
    xs = np.asarray(xs, dtype=float)
    if not (math.isfinite(theta) and np.isfinite(xs).all()):
        raise ValidationError("theta and xs must be finite")
    g = field.grid
    u0, v0 = g.u_min, g.v_min
    du = (g.u_max - g.u_min) / (g.n_u - 1)
    dv = (g.v_max - g.v_min) / (g.n_v - 1)
    step = 0.5 * min(du, dv)
    diag = math.hypot(g.u_max - g.u_min, g.v_max - g.v_min)
    t = np.arange(-0.5 * diag, 0.5 * diag + step, step)
    ct, st = math.cos(theta), math.sin(theta)
    vals = field.values
    out = np.empty(xs.size)
    for i, s in enumerate(xs):
        uu = s * ct - t * st
        vv = s * st + t * ct
        fu = (uu - u0) / du
        fv = (vv - v0) / dv
        inside = (fu >= 0.0) & (fu <= g.n_u - 1) & (fv >= 0.0) & (fv <= g.n_v - 1)
        cu = np.clip(fu, 0.0, g.n_u - 1.0)
        cv = np.clip(fv, 0.0, g.n_v - 1.0)
        iu = np.minimum(cu.astype(int), g.n_u - 2)
        iv = np.minimum(cv.astype(int), g.n_v - 2)
        au = cu - iu
        av = cv - iv
        w = (
            vals[iu, iv] * (1 - au) * (1 - av)
            + vals[iu + 1, iv] * au * (1 - av)
            + vals[iu, iv + 1] * (1 - au) * av
            + vals[iu + 1, iv + 1] * au * av
        )
        if not inside.all():
            worst = float(np.max(np.abs(w[~inside])))
            if worst > 1e-6:
                raise ContainmentError(
                    f"integration line exits the grid where |W| = {worst:.3e} "
                    "exceeds 1e-06"
                )
        out[i] = float(np.sum(w[inside]) * step)
    return out
