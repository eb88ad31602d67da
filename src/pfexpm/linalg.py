"""Hermitian linear algebra: shifted solves, eigen-oracle, bounds.

Thin validated wrappers around LAPACK (through numpy and scipy) providing
exactly what the matrix-exponential engine consumes: complex shifted solves
with a residual contract, a Hermitian eigendecomposition used as the exp
oracle, spectral interval estimates, and 2-norms.  Everything here is pure
and all matrices are immutable once built; concurrent shifted solves on one
matrix are safe because each call factors its own shifted copy.

A HermitianMatrix builds everything that depends on A alone once, at
construction, from its own copy of the input:
  - entries, float64 for real input (including complex input whose
    imaginary parts are all zero) and complex128 otherwise;
  - the lower and upper bandwidth (kl, ku) of the nonzero pattern;
  - the Gershgorin interval, from the |a_ij| array that validation builds;
  - when A is narrow enough for the band LU to pay, A's band in LAPACK band
    storage, a read-only complex (2 kl + ku + 1) x d array.
A shifted solve factors A + theta I in band storage (_BandLU: gbtrf/gbtrs)
whenever _band_pays(d, kl, ku, nrhs) says the band LU is the cheaper of the
two by flop count, and densely (_DenseLU: getrf/getrs) otherwise.  The two
solvers share one interface, so every caller runs the same solve code.

solve(R, top=s) solves with the trailing factor from row s on; R holds the
rows from s on of a right-hand side that is zero above them.  Band LU pivots
move a row by at most kl, so for a right-hand side that is zero above row
j0 (a block of identity columns [j0, j1), say) the forward solve's steps
before row j0 - kl change nothing, and the solution's rows from j0 on depend
on the trailing factor alone.  first_row(j0) = max(j0 - max(kl, kl + ku - 1),
0) starts up to ku - 1 rows higher still, so that the back substitution
updates rows j0.. in BLAS calls of the same length as in the solve of all d
rows: they come out bit for bit the same.  A dense LU may move any row, so
its first_row is always 0.

For real A the inverse of A + theta I is complex symmetric, and its lower
triangle determines it: _solve_blocks walks BLOCK_COLUMNS-wide identity
blocks, solving each from its first_row, and _mirror_lower copies the
strict lower triangle into the upper one.  Per pole that is about
d^2/2 + d (kl + ku + BLOCK_COLUMNS/2) solved column-rows instead of d^2.

A real tridiagonal T needs no LU at all for a sum of inverses
sum_k Re(w_k (T + p_k I)^-1): _tridiagonal_pair_sum runs two pivot
recurrences per pole without pivoting (no pivot can vanish while
Im p_k != 0), reads each inverse's lower triangle off them as rank-1 row
blocks, and sums the blocks of all poles in one real GEMM per block row.
It checks the residual of each pole's implicit inverse at O(d) cost and
returns None, leaving the call to the band LU, when pivot growth spoils it.
_tridiagonal says which matrices it may take: real, bandwidth at most
(1, 1), an exactly symmetric band, and pivots that cannot overflow.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import zgbtrf, zgbtrs, zgetrf, zgetrs

from .errors import BadSpec, ConvergenceFailure, InvariantViolation, Overflow, SingularSystem

__all__ = [
    "HermitianMatrix",
    "SpectralBounds",
    "eig_hermitian",
    "exp_oracle",
    "gershgorin_bounds",
    "norm2",
    "shifted_inverse",
    "shifted_solve",
]

# Largest asymmetry max |A - A^H| that validation accepts, relative to max(1, max |a_ij|)
HERMITIAN_TOL = 1e-12

# Cost weights of the band path per complex flop, relative to the dense LU and
# its solves (LAPACK getrf/getrs through BLAS 3): the band factor runs at about
# half, and the band triangular solves at about a quarter, of the dense rate.
# Fitted to a sweep of one pole pair over d = 50..800 and half-bandwidths up to
# d/2 on a 2-CPU x86-64 host with OpenBLAS 0.3.31: the rule switches to dense
# at 0.3 to 1.3 times the measured crossover half-bandwidth, erring towards
# dense; the largest miss is action mode at d = 800, where the band LU stayed
# faster up to b = d/2.
BAND_FACTOR_WEIGHT = 2.0
BAND_SOLVE_WEIGHT = 4.0

# Identity columns per band solve when only the lower triangle of an inverse
# is needed (_solve_blocks): each block solves about kl + ku + BLOCK_COLUMNS/2
# rows per column above the diagonal that the mirror then overwrites, and
# each block is one gbtrs call
BLOCK_COLUMNS = 32

# The strict upper triangle of a BLOCK_COLUMNS-wide diagonal block (_mirror_lower)
_STRICT_UPPER = np.triu(np.ones((BLOCK_COLUMNS, BLOCK_COLUMNS), dtype=bool), 1)
_STRICT_UPPER.setflags(write=False)

_U = 2.0**-53  # unit roundoff of binary64

# Largest (rho + |p|)^2 / |Im p| for which _tridiagonal_pair_sum evaluates
# A + p I: it bounds the modulus of every pivot, so that none overflows
PIVOT_MAX = 1e300


@dataclass(frozen=True)
class SpectralBounds:
    """Interval [lo, hi] containing the spectrum of a Hermitian matrix.

    exact=True means the endpoints are the extreme eigenvalues themselves
    (construction-time knowledge or an eigendecomposition); exact=False
    means an enclosure such as Gershgorin discs.
    """

    lo: float
    hi: float
    exact: bool = False

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise InvariantViolation("bounds-order", f"lo = {self.lo} > hi = {self.hi}")

    def rho(self) -> float:
        """Upper bound on the spectral radius max |lambda|."""
        return max(abs(self.lo), abs(self.hi))

    def alpha(self) -> float:
        """Upper bound on the largest eigenvalue."""
        return self.hi


@dataclass(frozen=True)
class HermitianMatrix:
    """Validated dense Hermitian matrix, optionally carrying spectral bounds.

    The input is copied: entries is a read-only float64 array for real input
    (is_real() holds) and a read-only complex128 array otherwise.  The
    Gershgorin interval and, when the band LU can pay, A's band in LAPACK band
    storage ((2 kl + ku + 1) d complex entries, 16 (2 kl + ku + 1) d bytes)
    are built with it.
    """

    entries: np.ndarray
    bounds: SpectralBounds | None = field(default=None, compare=False)
    # (kl, ku): a_ij == 0 whenever i - j > kl or j - i > ku.  Both sides are
    # measured, since the Hermitian check tolerates HERMITIAN_TOL-sized asymmetry.
    bandwidth: tuple[int, int] = field(init=False, compare=False)
    _gershgorin: SpectralBounds = field(init=False, compare=False, repr=False)
    # LAPACK band storage of A (row kl + ku - k holds diagonal k), or None
    # when the band LU cannot pay for any number of right-hand sides
    _band: np.ndarray | None = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        a = np.asarray(self.entries)
        if np.iscomplexobj(a) and np.any(a.imag):
            a = np.array(a, dtype=complex)
        else:
            a = np.array(a.real, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise InvariantViolation("square", f"shape {a.shape}")
        if a.size == 0:
            raise BadSpec("matrix must have dimension d >= 1, got d = 0")
        mag = np.abs(a)
        amax = float(np.max(mag))  # NaN or inf when an entry is not finite
        if not np.isfinite(amax):
            raise BadSpec("matrix has non-finite entries")
        scale = max(1.0, amax)
        slack = HERMITIAN_TOL * scale
        # the exact test allocates only a bool array; max |A - A^H| builds
        # d x d temporaries, so it runs only for inexactly Hermitian input
        if not np.array_equal(a, a.conj().T):
            dev = float(np.max(np.abs(a - a.conj().T)))
            if dev > slack:
                raise InvariantViolation(
                    "hermitian",
                    f"max |A - A^H| = {dev:.3e} > {HERMITIAN_TOL:.1e} * {scale:.3e}",
                )
        diag = a.diagonal().real
        if self.bounds is not None:
            # each a_ii = e_i^H A e_i is a Rayleigh quotient, so lo <= a_ii <= hi
            if diag.min() < self.bounds.lo - slack or diag.max() > self.bounds.hi + slack:
                raise BadSpec(
                    f"diagonal [{diag.min()}, {diag.max()}] is not inside the attached "
                    f"spectral bounds [{self.bounds.lo}, {self.bounds.hi}]"
                )
        with np.errstate(over="ignore"):
            radii = np.sum(mag, axis=1) - mag.diagonal()
            lo, hi = float(np.min(diag - radii)), float(np.max(diag + radii))
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise Overflow(
                f"Gershgorin interval [{lo}, {hi}] overflows binary64 (max |a_ij| = {amax:.3e})"
            )
        gershgorin = SpectralBounds(lo=lo, hi=hi, exact=False)
        kl, ku = _bandwidth(mag != 0.0)
        d = a.shape[0]
        band = None
        # the band LU pays for some number of right-hand sides only if it pays
        # for one: a band solve is cheaper per right-hand side only when
        # 4 (2 kl + ku + 1) < d, and then the band factor costs below d^3 / 16
        if _band_pays(d, kl, ku, 1):
            band = np.zeros((2 * kl + ku + 1, d), dtype=complex, order="F")
            for k in range(-kl, ku + 1):
                band[kl + ku - k, max(k, 0) : d + min(k, 0)] = np.diagonal(a, k)
            band.setflags(write=False)
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)
        object.__setattr__(self, "bandwidth", (kl, ku))
        object.__setattr__(self, "_gershgorin", gershgorin)
        object.__setattr__(self, "_band", band)

    @property
    def d(self) -> int:
        return self.entries.shape[0]

    def is_real(self) -> bool:
        return not np.iscomplexobj(self.entries)


def _bandwidth(nonzero: np.ndarray) -> tuple[int, int]:
    """(kl, ku) of a square nonzero pattern: the farthest nonzero below and above the diagonal."""
    d = nonzero.shape[0]
    rows = np.flatnonzero(nonzero.any(axis=1))
    if rows.size == 0:
        return 0, 0
    first = nonzero[rows].argmax(axis=1)
    last = d - 1 - nonzero[rows, ::-1].argmax(axis=1)
    return max(0, int(np.max(rows - first))), max(0, int(np.max(last - rows)))


def _band_pays(d: int, kl: int, ku: int, nrhs: int) -> bool:
    """Whether the band LU of a d x d matrix with bandwidth (kl, ku) beats the dense one.

    Counts complex multiply-adds: the dense LU d^3/3 plus d^2 per right-hand
    side, the band LU d kl (kl + ku + 1) plus d (2 kl + ku + 1) per right-hand
    side (the factor's U has kl + ku superdiagonals after pivoting).  The band
    counts carry the weights BAND_FACTOR_WEIGHT and BAND_SOLVE_WEIGHT.  With
    kl = ku = b this chooses the band path up to about b = d/3.5 for one
    right-hand side and b = d/9 for d of them (a full inverse).
    """
    dense = d**3 / 3.0 + nrhs * d * d
    band = (
        BAND_FACTOR_WEIGHT * d * kl * (kl + ku + 1)
        + BAND_SOLVE_WEIGHT * nrhs * d * (2 * kl + ku + 1)
    )
    return band <= dense


def _band_path(A: HermitianMatrix, nrhs: int) -> bool:
    """Whether a shifted solve of A with nrhs right-hand sides runs the band LU."""
    return A._band is not None and _band_pays(A.d, *A.bandwidth, nrhs)


class _BandLU:
    """Partial-pivoted LU of A + pole I in LAPACK band storage (zgbtrf).

    Copies A's stored band, adds the pole to its diagonal row and factors it
    once; solve() then runs zgbtrs.  Each instance owns its copy and its
    factor.  scipy's zgbtrf/zgbtrs wrappers hold the GIL, so instances used
    from different threads would not overlap their work; the engine runs its
    pole pairs in one thread.
    """

    def __init__(self, A: HermitianMatrix, pole: complex):
        kl, ku = A.bandwidth
        ab = A._band.copy(order="F")
        ab[kl + ku] += pole
        lu, piv, info = zgbtrf(ab, kl, ku, overwrite_ab=True)
        _check_info("zgbtrf", info, pole)
        self._lu, self._piv, self._kl, self._ku = lu, piv, kl, ku

    def first_row(self, j0: int) -> int:
        """First row to solve from for right-hand sides that are zero above row j0.

        The forward solve needs rows from j0 - kl on.  Each step i of the
        back substitution (ztbsv) updates the min(i, kl + ku) rows above i in
        one call, so rows from j0 - (kl + ku - 1) on keep every update of
        rows j0.. at full length, and the BLAS repeats its operations on
        them bit for bit.
        """
        return max(j0 - max(self._kl, self._kl + self._ku - 1), 0)

    def solve(self, R: np.ndarray, trans: int = 0, top: int = 0) -> np.ndarray:
        """X with M X = R (trans=0) or M^H X = R (trans=2).

        With top = s > 0 (trans=0 only) the solve runs on the trailing
        factor: R holds the rows s.. of a right-hand side that is zero above
        row j0, s = first_row(j0), and the rows s.. of X are returned, those
        from j0 on bit for bit as in the solve of all d rows.  R is
        overwritten when it is a Fortran-ordered complex array.
        """
        lu, piv = self._lu, self._piv
        if top:
            if trans:
                raise InvariantViolation("solve-top", f"top = {top} needs trans = 0")
            lu, piv = lu[:, top:], piv[top:] - top
        x, info = zgbtrs(lu, self._kl, self._ku, R, piv, trans=trans, overwrite_b=True)
        _check_info("zgbtrs", info)
        return x


class _DenseLU:
    """Partial-pivoted LU of A + pole I in dense storage (zgetrf).

    The interface of _BandLU: copies A.entries as a Fortran-ordered complex
    array, adds the pole to its diagonal and factors it in place; solve()
    then runs zgetrs.
    """

    def __init__(self, A: HermitianMatrix, pole: complex):
        m = np.array(A.entries, dtype=complex, order="F")
        m[np.diag_indices(A.d)] += pole
        lu, piv, info = zgetrf(m, overwrite_a=True)
        _check_info("zgetrf", info, pole)
        self._lu, self._piv = lu, piv

    def first_row(self, j0: int) -> int:
        """Always 0: partial pivoting may move any row of a dense matrix to any other."""
        return 0

    def solve(self, R: np.ndarray, trans: int = 0, top: int = 0) -> np.ndarray:
        """X with M X = R (trans=0) or M^H X = R (trans=2).

        top must be 0 (see first_row).  R is overwritten when it is a
        Fortran-ordered complex array.
        """
        if top:
            raise InvariantViolation("solve-top", f"a dense LU solves all rows, got top = {top}")
        x, info = zgetrs(self._lu, self._piv, R, trans=trans, overwrite_b=True)
        _check_info("zgetrs", info)
        return x


def _check_info(routine: str, info: int, pole: complex | None = None) -> None:
    """Raise on a LAPACK info code: an illegal argument, or a zero pivot of U."""
    if info < 0:
        raise InvariantViolation("lapack-argument", f"{routine} argument {-info} is illegal")
    if info > 0:
        raise SingularSystem(f"{routine} at pole {pole!r}: U[{info - 1}, {info - 1}] = 0")


def _factor(A: HermitianMatrix, theta: complex, nrhs: int):
    """The LU of A + theta I, in band storage when _band_path says it pays for nrhs."""
    return (_BandLU if _band_path(A, nrhs) else _DenseLU)(A, theta)


def shifted_solve(A: HermitianMatrix, theta: complex, V: np.ndarray) -> np.ndarray:
    """Solve (A + theta I) y = v for one or more right-hand sides.

    V has shape (d,) or (d, k) and finite entries; it is not modified.
    Partial-pivoted LU on the complex shifted matrix, in band storage when
    _band_pays.  The system is nonsingular whenever Im(theta) != 0, since A
    has a real spectrum.
    """
    R = np.array(V, dtype=complex, order="F")
    if R.ndim not in (1, 2) or R.shape[0] != A.d:
        raise BadSpec(f"V must have shape ({A.d},) or ({A.d}, k), got {R.shape}")
    if not np.all(np.isfinite(R)):
        raise BadSpec("V has non-finite entries")
    return _factor(A, theta, 1 if R.ndim == 1 else R.shape[1]).solve(R)


def _solve_blocks(lu, d: int, scale: complex, width: int, buf: np.ndarray):
    """Yield (s, j0, j1, Y): Y = rows s.. of the solution for columns [j0, j1) of scale I.

    Walks blocks of `width` identity columns, each solved from its
    s = lu.first_row(j0); with width = d there is one block and s = 0.  Rows
    s.. cover the lower triangle of the block's columns.  buf, a flat complex
    array of at least d * width entries, holds each block's right-hand side
    and then its solution, so each Y is valid only until the next one is
    yielded.
    """
    for j0 in range(0, d, width):
        j1 = min(j0 + width, d)
        s = lu.first_row(j0)
        shape = (d - s, j1 - j0)
        R = buf[: shape[0] * shape[1]].reshape(shape, order="F")
        R.fill(0.0)
        np.fill_diagonal(R[j0 - s :], scale)
        yield s, j0, j1, lu.solve(R, top=s)


def _mirror_lower(M: np.ndarray) -> None:
    """Copy the strict lower triangle of the square M into its upper one, in place."""
    d = M.shape[0]
    for j0 in range(0, d, BLOCK_COLUMNS):
        j1 = min(j0 + BLOCK_COLUMNS, d)
        M[j0:j1, j1:] = M[j1:, j0:j1].T
        block = M[j0:j1, j0:j1]
        np.copyto(block, block.T, where=_STRICT_UPPER[: j1 - j0, : j1 - j0])


def _tridiagonal(A: HermitianMatrix, poles: np.ndarray):
    """(diag, off) of A when _tridiagonal_pair_sum may evaluate A + p I for every pole p, else None.

    A must be real, with bandwidth at most (1, 1) and an exactly symmetric
    band, and (rho + |p|)^2 / |Im p| <= PIVOT_MAX for every pole, rho the
    radius of A's Gershgorin interval: that bounds every pivot, and every
    entry of the kernel, below binary64 overflow (see _tridiagonal_pair_sum).
    diag and off are read-only views of A's entries.
    """
    if not A.is_real() or max(A.bandwidth) > 1:
        return None
    a = A.entries
    off = a.diagonal(-1)
    if not np.array_equal(off, a.diagonal(1)):
        return None
    reach = A._gershgorin.rho() + float(np.max(np.abs(poles)))
    if reach > math.sqrt(PIVOT_MAX * float(np.min(np.abs(poles.imag)))):
        return None
    return a.diagonal(), off


def _twisted_pivots(m: list, b2: list) -> tuple[list, list]:
    """Top-down and bottom-up pivots of a complex symmetric tridiagonal M, without pivoting.

    m is M's diagonal and b2 the squares of its off-diagonal, as Python
    numbers: sigma_0 = m_0, sigma_i = m_i - b2_{i-1} / sigma_{i-1}, and
    delta_{d-1} = m_{d-1}, delta_i = m_i - b2_i / delta_{i+1}.
    """
    d = len(m)
    sigma, delta = m.copy(), m.copy()
    s, e = m[0], m[-1]
    for i in range(1, d):
        s = sigma[i] = m[i] - b2[i - 1] / s
    for i in range(d - 2, -1, -1):
        e = delta[i] = m[i] - b2[i] / e
    return sigma, delta


def _defects_small(m: np.ndarray, off: np.ndarray, g: np.ndarray, c: np.ndarray) -> bool:
    """Whether every pole's residual defects are within gamma_{3d+6} of their terms.

    Row k of m, g and c holds the diagonal of M = T + p_k I, the diagonal g
    of its inverse and the ratios c as _tridiagonal_pair_sum computes them,
    and Y the symmetric matrix whose lower triangle they generate, with
    subdiagonal s_j = Y[j+1, j] = c_j g_j.  Row j of M Y - I, column j, is
        f_j = b_{j-1} s_{j-1} + m_j g_j + b_j s_j - 1,
    and row i of it, in every column j > i, is e_i Y[j, i+1] / g_{i+1} up to
    the rounding of Y's own entries, with
        e_i = b_{i-1} s_{i-1} c_i + m_i s_i + b_i g_{i+1}.
    Both vanish in exact arithmetic.  Each is checked against gamma_{3d+6}
    times the sum of its terms' moduli (plus 1 for f_j).
    """
    d = g.shape[1]
    tol = _gamma(3 * d + 6)
    s = c * g[:, :-1]
    bs = off * s
    terms = m * g
    f = terms - 1.0
    fmag = np.abs(terms) + 1.0
    for rows in (slice(1, None), slice(None, -1)):  # b_{j-1} s_{j-1} and b_j s_j
        f[:, rows] += bs
        fmag[:, rows] += np.abs(bs)
    if not np.all(np.abs(f) <= tol * fmag):
        return False
    t1 = np.zeros_like(s)
    t1[:, 1:] = bs[:, :-1] * c[:, 1:]
    t2 = m[:, :-1] * s
    t3 = off * g[:, 1:]
    return bool(np.all(np.abs(t1 + t2 + t3) <= tol * (np.abs(t1) + np.abs(t2) + np.abs(t3))))


def _gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u), the bound on k compounded binary64 roundings."""
    return k * _U / (1.0 - k * _U)


def _tridiagonal_pair_sum(diag: np.ndarray, off: np.ndarray, poles: np.ndarray, weights: np.ndarray):
    """S = sum_k Re(w_k (T + p_k I)^-1) for the real symmetric tridiagonal T = (diag, off).

    Returns (S, times): S a real, exactly symmetric d x d array, and times[k]
    the wall time of pole k's pivot recurrences, the only work done for one
    pole alone; or None when some pole fails the residual check
    (_defects_small) before the O(d^2) sweep.  Every pole needs
    Im p_k != 0.  Three steps:

    1. Per pole, the top-down pivots sigma_i and bottom-up pivots delta_i of
       M = T + p I (_twisted_pivots), in Python numbers (on numpy scalars the
       loop is about 12x slower), and then, for all poles at once, the
       diagonal of the inverse g_j = 1 / (sigma_j + delta_j - m_jj) and the
       ratios c_i = -b_i / delta_{i+1}.  No pivot vanishes: by induction,
       Im delta_i = Im p + b_i^2 Im delta_{i+1} / |delta_{i+1}|^2 has the sign
       of Im p and |Im delta_i| >= beta = |Im p|, and so do sigma_i and
       1 / g_j.  (Equivalently: every principal submatrix of a complex
       symmetric matrix with definite imaginary part is nonsingular, and
       the pivots are ratios of such determinants.)  Each delta_i is
       1 / [(M[i:, i:])^-1]_00, and the spectrum of M[i:, i:] - p I
       interlaces that of T, so |delta_i| <= (rho + |p|)^2 / beta; the same
       holds for sigma_i and 1 / g_j, and |c_i| <= rho / beta.  Without
       pivoting the pivots can still grow, and the diagonal and mirrored
       upper triangle then leave a large residual; _defects_small measures
       it, and the kernel declines.
    2. Rank-1 row blocks.  Below the diagonal, X = M^-1 has
       X[i+1, j] = c_i X[i, j] for i >= j.  Rows are walked in blocks
       [r0, r1) of BLOCK_COLUMNS: the block's lower triangle runs down each
       column from X[j, j] = g_j, one row at a time, and the block row left
       of it is q (x) X[r0, :r0], q_i = c_r0 ... c_{r0+i-1}, a product of
       fewer than BLOCK_COLUMNS factors.  Each q_i is a ratio
       X[r0+i, r0] / X[r0, r0] of entries of the inverse, at most
       (rho + |p|)^2 / beta^2 in modulus, so no long product under- or
       overflows.  X[r1, :r1], entries of the inverse, carries to the next
       block.
    3. One real GEMM for all poles per block: S[r0:r1, :r0] =
       Re(W Q)^T Re(Xrow) - Im(W Q)^T Im(Xrow), with W Q the weighted q of
       every pole, an inner product of 2 len(poles) terms per entry; the
       diagonal block is the same inner product with the weights.  Then
       _mirror_lower.

    Work per pole is O(d BLOCK_COLUMNS) instead of a solve with d
    right-hand sides; the O(d^2) part is the GEMM sweep, shared by all poles.
    """
    d, npoles = diag.size, poles.size
    t, b2 = diag.tolist(), (off * off).tolist()
    sigma = np.empty((npoles, d), dtype=complex)
    delta = np.empty((npoles, d), dtype=complex)
    times = []
    for k, p in enumerate(poles.tolist()):
        t0 = time.perf_counter()
        sigma[k], delta[k] = _twisted_pivots([ti + p for ti in t], b2)
        times.append(time.perf_counter() - t0)
    # g = 1 / (sigma + delta - m) and c = -b / delta[1:], in place of the pivots
    m = diag + poles[:, None]
    np.add(sigma, delta, out=sigma)
    sigma -= m
    g = np.divide(1.0, sigma, out=sigma)
    c = np.divide(-off, delta[:, 1:], out=delta[:, 1:])
    if not _defects_small(m, off, g, c):
        return None
    del m  # one npoles x d array fewer while the d x d sum is held
    S = np.empty((d, d), order="F")
    row = np.empty((npoles, d), dtype=complex, order="F")  # X[r0, :r0] of every pole
    stack = np.empty((2 * npoles, d))  # its real parts over its imaginary parts
    buf = np.empty(npoles * BLOCK_COLUMNS**2, dtype=complex)
    # the diagonal blocks' weighted sum is a real GEMM of Re and Im of the
    # weights with the blocks' real and imaginary parts, small enough for BLAS
    # to keep in one thread: OpenBLAS threads the complex GEMV weights @ P,
    # which doubled the kernel's CPU time at d = 300 for no gain in wall time
    wparts = np.stack([weights.real, weights.imag])
    parts = np.empty((2, 2 * BLOCK_COLUMNS**2))
    for r0 in range(0, d, BLOCK_COLUMNS):
        r1 = min(r0 + BLOCK_COLUMNS, d)
        h = r1 - r0
        P = buf[: npoles * h * h].reshape(npoles, h, h)
        # the lower triangle of X[r0:r1, r0:r1]: X[i+1, j] = c_i X[i, j] down from g_j
        P.fill(0.0)
        P.reshape(npoles, h * h)[:, :: h + 1] = g[:, r0:r1]
        for i in range(1, h):
            np.multiply(P[:, i - 1, :i], c[:, r0 + i - 1, None], out=P[:, i, :i])
        # q[:, i] = c_r0 ... c_{r0+i-1}, so that X[r0+i, :r0] = q_i X[r0, :r0]
        q = np.ones((npoles, h), dtype=complex)
        np.cumprod(c[:, r0 : r1 - 1], axis=1, out=q[:, 1:])
        R = np.matmul(wparts, P.reshape(npoles, h * h).view(float), out=parts[:, : 2 * h * h])
        S[r0:r1, r0:r1] = (R[0, 0::2] - R[1, 1::2]).reshape(h, h)
        if r0:
            wq = weights[:, None] * q
            np.matmul(np.concatenate([wq.real, -wq.imag]).T, stack[:, :r0], out=S[r0:r1, :r0])
        if r1 < d:
            step = c[:, r1 - 1 : r1]
            row[:, :r0] *= step * q[:, -1:]
            np.multiply(step, P[:, -1, :], out=row[:, r0:r1])
            stack[:npoles, :r1] = row[:, :r1].real
            stack[npoles:, :r1] = row[:, :r1].imag
    _mirror_lower(S)
    return S, tuple(times)


def shifted_inverse(A: HermitianMatrix, theta: complex) -> np.ndarray:
    """(A + theta I)^{-1} as a dense matrix.

    For real banded A the engine's full-mode solve runs with residue 1: the
    lower triangle is solved in column blocks (_solve_blocks) and mirrored,
    so the result is exactly complex symmetric.  Otherwise one solve runs in
    place over the whole identity, in one d x d complex buffer.
    """
    d = A.d
    lu = _factor(A, theta, d)
    if isinstance(lu, _BandLU) and A.is_real():
        X = np.empty((d, d), dtype=complex, order="F")
        buf = np.empty(d * BLOCK_COLUMNS, dtype=complex)
        for s, j0, j1, Y in _solve_blocks(lu, d, 1.0, BLOCK_COLUMNS, buf):
            X[s:, j0:j1] = Y
        _mirror_lower(X)
        return X
    _, _, _, X = next(_solve_blocks(lu, d, 1.0, d, np.empty(d * d, dtype=complex)))
    return X


def eig_hermitian(A: HermitianMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition A = U diag(w) U^H, eigenvalues ascending, U unitary."""
    try:
        w, U = np.linalg.eigh(A.entries)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigendecomposition failed: {exc}") from exc
    return w, U


def exp_oracle(A: HermitianMatrix) -> np.ndarray:
    """Reference exp(A) through the eigendecomposition, U e^Lambda U^H."""
    w, U = eig_hermitian(A)
    return (U * np.exp(w)) @ U.conj().T


def norm2(M) -> float:
    """Largest singular value; for a HermitianMatrix, max |eigenvalue|."""
    if isinstance(M, HermitianMatrix):
        w, _ = eig_hermitian(M)
        return float(np.max(np.abs(w))) if w.size else 0.0
    M = np.asarray(M)
    if M.size == 0:
        return 0.0
    return float(np.linalg.norm(M, ord=2))


def gershgorin_bounds(A: HermitianMatrix) -> SpectralBounds:
    """Cheap spectral enclosure from Gershgorin discs (centers are real).

    [min(a_ii - r_i), max(a_ii + r_i)] with r_i = sum_j |a_ij| - |a_ii|,
    computed once when A is built.
    """
    return A._gershgorin

