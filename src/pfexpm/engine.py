"""Evaluation of R_n(A) and R_n(A)v for Hermitian A.

R_n(A) = sum_k a_k (A + theta_k I)^{-1} turns the rational approximation of
exp(A) into n independent shifted solves.  Conjugate symmetry halves the
work: only one member of each root pair is factored, and the pair's
contribution is reconstituted as M + M^H (elementwise 2 Re(a M) in the
all-real case), so there are n/2 pole pairs.

Each pair factors its own shifted matrix with the solver that
linalg._band_path picks once per call.  When A is narrow-banded, _BandLU
copies the LAPACK band storage that A built once at construction, adds its
pole to the diagonal row and factors it with gbtrf; otherwise _DenseLU copies
A.entries as complex, adds its pole to the diagonal and factors it with getrf.
The rule (linalg._band_pays) compares the band and dense flop counts for d,
A's bandwidth (kl, ku) and the number of right-hand sides per pair (d in full
mode, 1 or 2 in action mode), weighting band flops 2x (factor) and 4x
(solves) for their lower speed.  ExpResult.bandwidth reports which path ran.

The pairs run one after another in the calling thread: scipy's LAPACK
wrappers (getrf/getrs as well as gbtrf/gbtrs) hold the GIL, so a thread pool
would not overlap their work.  Every pair solves against a right-hand side
that already carries its residue, and its pair term is added to the sum in
place, in ascending order, so a rerun at the same BLAS thread count is bit
for bit the same (band input matches at any count).  t_para reports the
slowest pair, run alone (it still shares the CPUs with the BLAS threads),
t_total the wall time of all of them.

Real band input in full mode needs only half the solve work: each pair term
Re(2 a_k (A + theta_k I)^-1) is symmetric, so the pair solves the lower
triangle alone, in linalg.BLOCK_COLUMNS-wide blocks of the identity, each
from the first row its solution can depend on (linalg._solve_blocks), and
adds Re of each block to the sum.  After the last pair the sum's strict lower
triangle is copied into the upper one, so the value is exactly symmetric and
its lower triangle is bit for bit that of full-width solves.  Dense input
(whose pivots may move any row) and complex input (Y + Y^H needs both
triangles) solve all d columns in one block.

Real tridiagonal input in full mode (bandwidth at most (1, 1), an exactly
symmetric band, on the band path) skips the LU altogether:
linalg._tridiagonal_pair_sum runs two pivot recurrences per pole, in O(d),
whose ratios generate each inverse's lower triangle one rank-1 row block at a
time, and sums all pairs' blocks in one real GEMM per block row, an inner
product over the n/2 pairs.  Its value is exactly symmetric too, but not bit
for bit that of the band solves.  The kernel checks the residual it relies on
(see _rounding_bound) and declines when a pole's pivots have grown too far;
the call then runs the band LU.  On this path per_term_times[k] is pair k's
pivot recurrences alone: the shared GEMM sweep counts in t_total only.

The reported error has two parts, both a priori and O(n) scalar work:
error_bound is the truncation term, a bound on ||exp(A) - R_n(A)||_2 in exact
arithmetic: the paper's err_n(-rho) = R_n(-rho) - e^-rho when n > 2 rho, else
M1 = 2^-n, the uniform error of R_n on the half-line (Cody, Meinardus and
Varga 1969).  rounding_bound bounds ||value - R_n(A)||_2, the binary64
rounding of the stored poles and residues, of the n/2 shifted solves and of
the reduction (see _rounding_bound).  Their sum bounds the error of the value
actually returned.  In action mode both are per unit ||v||_2.  A call has no
bound only when its (shifted) spectral interval reaches above 0.

Matrices whose spectrum reaches above 0 go through the shift method
exp(A) = e^c exp(A - cI) with c >= alpha(A) = max eigenvalue; the reported
bound then controls the relative error.  The shift only moves the poles,
(A - cI) + theta_k I = A + (theta_k - c) I, so A - cI is never formed:
`shift=` works with every entry point, and all of them share one path
(_evaluate) that reads A's spectral interval: the attached bounds, or the
Gershgorin interval A computed at construction.  Only normal (here:
Hermitian) matrices are supported; non-normal inputs would amplify the scalar
error by the eigenbasis conditioning and are rejected by HermitianMatrix
validation.
"""

from __future__ import annotations

import math
import os
import sys
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import BadSpec, InvariantViolation, OrderTooSmallWarning, Overflow
from .linalg import (
    BLOCK_COLUMNS,
    HermitianMatrix,
    SpectralBounds,
    _band_path,
    _BandLU,
    _DenseLU,
    _gamma,
    _mirror_lower,
    _solve_blocks,
    _tridiagonal,
    _tridiagonal_pair_sum,
    gershgorin_bounds,
)
from .roots import RootTable, check_order, default_table
from .scalar import approx_error, bound_m1

__all__ = [
    "MODE_ACTION",
    "MODE_FULL",
    "ExpOptions",
    "ExpResult",
    "apriori_bound",
    "matexp_action",
    "matexp_full",
    "matexp_shifted",
]

MODE_FULL = "full"
MODE_ACTION = "action"

# exp(c) overflows binary64 just above 709.78; refuse shifts beyond this
SHIFT_MAX = 709.0

# Spectral upper estimates this close to 0 (relative to the interval size)
# are treated as floating fuzz of an exactly-nonpositive spectrum: shifting
# A by its own Gershgorin end leaves hi ~ eps instead of 0.  The bound then
# gains an explicit (and utterly negligible) term for the [0, hi] sliver,
# where exp - R_n still vanishes to order n+1.  That term bounds it only
# while hi <= SLIVER_MAX (the ratio of the two is about e^(4 hi) / 2 <= 0.75),
# so the fuzz never exceeds SLIVER_MAX, however wide the interval.
POSITIVE_FUZZ = 1e-10
SLIVER_MAX = 0.1

# Growth-factor hypothesis g of the rounding bound: every shifted solve is
# assumed to leave a residual ||M Y - R||_2 <= g sqrt(2) gamma_{3d+6} ||M|| ||Y||
# (see _rounding_bound).
SOLVE_GROWTH = 1.0

_U = 2.0**-53  # unit roundoff of binary64
_SQRT2 = math.sqrt(2.0)

# Frames from files under this directory belong to the package (_warn_caller)
_PACKAGE_DIR = os.path.dirname(__file__) + os.sep


@dataclass(frozen=True)
class ExpOptions:
    """How to evaluate: order, full-matrix vs action, and shift policy.

    parallel and threads are accepted and validated for compatibility, but no
    longer change how a call runs: every call runs its pole pairs serially in
    the calling thread (see the module docstring).
    """

    n: int = 16
    mode: str = MODE_FULL
    shift: float | str | None = None  # None | "auto" | fixed real c
    parallel: bool = True
    threads: int | str = "auto"

    def __post_init__(self):
        check_order(self.n)
        if self.mode not in (MODE_FULL, MODE_ACTION):
            raise BadSpec(f"mode must be 'full' or 'action', got {self.mode!r}")
        if self.shift is not None and self.shift != "auto":
            if isinstance(self.shift, bool) or not isinstance(self.shift, (int, float)):
                raise BadSpec(f"shift must be None, 'auto', or a real, got {self.shift!r}")
            if not math.isfinite(self.shift):
                raise BadSpec(f"fixed shift must be finite, got {self.shift!r}")
        if self.threads != "auto":
            if isinstance(self.threads, bool) or not isinstance(self.threads, int):
                raise BadSpec(f"threads must be 'auto' or a positive int, got {self.threads!r}")
            if self.threads < 1:
                raise BadSpec(f"threads must be >= 1, got {self.threads}")

    def worker_count(self, tasks: int) -> int:
        """The number of threads a call with `tasks` pole pairs runs them on: always 1."""
        return 1


@dataclass(frozen=True)
class ExpResult:
    """Value plus certified bound (when available) and per-pair timings.

    error_bound is the truncation term: it bounds ||exp(A) - R_n(A)||_2 in
    exact arithmetic.  rounding_bound bounds ||value - R_n(A)||_2, the
    binary64 rounding of the evaluation.  Both are of kind bound_kind (for a
    shifted run, relative to ||exp(A)||_2; in action mode, per unit ||v||_2)
    and both are None exactly when the (shifted) spectral interval reaches
    above 0.  Their sum bounds the error of the returned value; error_bound
    alone does not.  rounding_bound may be inf (see _rounding_bound), and a
    shifted run's error_bound is inf too when e^(c - alpha) overflows for
    the lower estimate of alpha(A) at hand.

    bandwidth reports the solve path: (kl, ku) of A when the band path ran
    (every pole pair factored in LAPACK band storage, or, for real
    tridiagonal input in full mode, linalg._tridiagonal_pair_sum), None when
    the dense LU ran.  A full-mode
    value of real input on the band path is exactly symmetric (its upper
    triangle is a copy of the lower one).

    per_term_times[k] is the wall time of pole pair k in both modes: its
    factor, its solves and the addition of its term into the sum.  The pairs
    run one after another, and t_total is the wall time of all of them.  For
    real tridiagonal input in full mode (linalg._tridiagonal_pair_sum)
    per_term_times[k] covers only pair k's pivot recurrences, the work done
    for that pair alone; the GEMM sweep that builds and sums every pair's
    inverse at once, most of the call, is in t_total only, so there t_para is
    no longer a critical path of any parallel schedule.
    """

    value: np.ndarray
    error_bound: float | None
    bound_kind: str | None  # "absolute" | "relative", None iff no bound
    per_term_times: tuple  # one entry per pole pair, n/2 >= 1 of them
    t_total: float
    rounding_bound: float | None = None  # None iff error_bound is None
    c_applied: float | None = field(default=None, compare=False)
    bandwidth: tuple[int, int] | None = field(default=None, compare=False)

    @property
    def t_para(self) -> float:
        """The slowest pair run alone, max(per_term_times): a model of a
        parallel run's critical path, not a measured parallel time."""
        return max(self.per_term_times)

    def __post_init__(self):
        if (self.error_bound is None) != (self.bound_kind is None):
            raise InvariantViolation(
                "bound-kind", f"{self.error_bound!r} vs {self.bound_kind!r}"
            )
        if (self.error_bound is None) != (self.rounding_bound is None):
            raise InvariantViolation(
                "rounding-bound", f"{self.error_bound!r} vs {self.rounding_bound!r}"
            )


def apriori_bound(bounds: SpectralBounds, n: int) -> float:
    """Certified absolute bound on ||exp(A) - R_n(A)||_2 for Spec(A) in [-rho, 0].

    rho = bounds.rho(); A is Hermitian.  The bound is err_n(-rho) when
    n > 2 rho and M1 = 2^-n, the uniform bound on the half-line, otherwise.
    Raises BadSpec when the interval reaches above 0.
    """
    check_order(n)
    if bounds.hi > 0.0:
        raise BadSpec(f"spectrum not contained in the left half-line: hi = {bounds.hi}")
    rho = bounds.rho()
    return approx_error(n, -rho) if n > 2.0 * rho else bound_m1(n)


def _spectral_interval(A: HermitianMatrix) -> SpectralBounds:
    """The interval the engine works with: A's attached bounds, else Gershgorin."""
    return A.bounds if A.bounds is not None else gershgorin_bounds(A)


def _reaches_positive(bounds: SpectralBounds) -> bool:
    """Whether hi lies above 0 by more than min(POSITIVE_FUZZ max(1, |lo|), SLIVER_MAX)."""
    return bounds.hi > min(POSITIVE_FUZZ * max(1.0, abs(bounds.lo)), SLIVER_MAX)


def _warn_caller(message: str) -> None:
    """Warn OrderTooSmallWarning at the first frame outside the pfexpm package.

    warnings.warn's skip_file_prefixes would do this from Python 3.12 on.
    """
    frame, level = sys._getframe(1), 2  # stacklevel 2 names our caller
    while frame is not None and frame.f_code.co_filename.startswith(_PACKAGE_DIR):
        frame, level = frame.f_back, level + 1
    warnings.warn(message, OrderTooSmallWarning, stacklevel=level)


def _interval_bound(bounds: SpectralBounds, n: int):
    """Absolute bound on max |exp - R_n| over [lo, hi], or None + warning
    when the interval reaches above 0."""
    if _reaches_positive(bounds):
        _warn_caller(
            f"spectral upper estimate {bounds.hi:.3e} > 0: no certified bound "
            "(shift='auto' always has one)"
        )
        return None
    bound = apriori_bound(SpectralBounds(min(bounds.lo, 0.0), min(bounds.hi, 0.0)), n)
    if bounds.hi > 0.0:
        # sliver [0, hi]: |exp - R_n| ~ hi^(n+1)/(n+1)! there, same leading
        # term as on the negative side; factor 2 dominates the series tail
        bound += 2.0 * approx_error(n, -bounds.hi)
    return bound


def _rounding_bound(
    table: RootTable, bounds: SpectralBounds, c: float, d: int, width: float
) -> float:
    """A priori bound on ||S - R_n(B) R||_2 / ||R||_2 for the computed sum S.

    B = A - cI has its spectrum in `bounds`, R is I (full mode) or v (action
    mode), width is sqrt(d) for a matrix result and 1 for a vector, and table
    holds the n poles and residues of R_n.  Write
    rho = bounds.rho(), theta_k and a_k for the exact pole and residue of pair
    k, beta_k = |Im theta_k| and X_k = (B + theta_k I)^-1.  B is Hermitian, so
    ||X_k||_2 <= 1/beta_k and ||M_k||_2 <= rho + |theta_k| for M_k = B + theta_k I.
    The bound is the sum of three parts:

    1. Stored poles and residues.  The table's binary64 values carry relative
       error u each.  Forming the pole fl(theta_k - c) and the diagonal of
       A + p_k I moves the matrix that is factored to M_k + F_k with
       ||F_k|| <= phi_k = delta_k + u (rho + |theta_k| + delta_k), where
       delta_k = u ((2 + u)|theta_k| + |c|) is the error of the pole.  The
       residue error gives the term 2|a_k| u ||Y_k|| below.
    2. Solves.  Hypothesis, with growth factor g = SOLVE_GROWTH: each LU solve
       with M_k + F_k or its adjoint returns Y_k with residual at most
       g gt ||M_k + F_k|| ||Y_k||, gt = sqrt(2) gamma_{3d+6}.  That is the
       normwise form of the backward error |dM| <= gamma_{3d} |L||U| of
       partial-pivoted LU, with the constant of complex arithmetic; g is not
       checked at run time (a residual costs O(d^3) in full mode).  The same
       constant covers the band LU (gbtrf/gbtrs) of banded A: each entry of
       its L U and of its triangular solves is an inner product over at most
       m = min(d, kl + ku + 1) terms, so its backward-error constant is
       gamma_{3m}, which depends on kl + ku and not on d, and gamma_{3d}
       bounds it.  For real band input in full mode, Y_k is the mirrored
       solve: its lower triangle solved in column blocks and copied into the
       upper triangle (exact inverses of M_k are complex symmetric), the
       matrix whose real part is summed, and the hypothesis is stated for
       that Y_k.  For real tridiagonal input in full mode
       (linalg._tridiagonal_pair_sum) Y_k is the kernel's implicit
       approximate inverse: the symmetric matrix whose lower triangle the
       computed g_j and c_i generate, Y[j, j] = g_j, Y[i+1, j] = c_i Y[i, j].
       Below the diagonal the residual is local: row i of M_k Y_k is
       b_{i-1} Y[i-1, j] + m_i Y[i, j] + b_i Y[i+1, j], the computed c_i and
       pivots satisfy their recurrences up to a few roundings each, and the
       three terms cancel to within a small multiple of u times their
       moduli, however far the products have run.  The diagonal and the
       mirrored upper triangle depend on how well g agrees with c, and
       without pivoting that can drift when pivots grow (on random
       indefinite tridiagonals at scale 1e6 the residual reached 11 times
       the hypothesis).  So the kernel measures the two defects that carry
       that agreement (linalg._defects_small, O(d) per pole) and declines,
       falling back to the band LU, unless each is within gamma_{3d+6} of
       its terms' moduli: then every residual entry is within
       gamma_{3d+6} (|M_k| |Y_k| + I) plus the roundings of the products, a
       componentwise bound whose normwise form is the hypothesis, as for the
       LU.  Against the exact M_k the residual is at most
       eta_k ||Y_k|| with
       eta_k = g gt (rho + |theta_k| + phi_k) + phi_k.  Since
       Y_k - X_k R = X_k (M_k Y_k - R) and ||X_k|| <= 1/beta_k,
         s_k = ||Y_k - X_k R|| / ||R|| <= eta_k / (beta_k (beta_k - eta_k)),
       which is kappa_k gt g / beta_k to first order, kappa_k <=
       (rho + |theta_k|)/beta_k; and ||Y_k|| <= y_k ||R||, y_k = 1/beta_k + s_k.
    3. Residues, pair terms and the reduction.  Each pair folds the residue
       into the right-hand side, R' = fl(a' R) with a' = 2 a_k for real input
       and a' = a_k (and conj(a_k) for the adjoint solve) otherwise, and
       forms Re Y (exact) or Y + Y^H (one addition).  The tridiagonal
       kernel instead multiplies the weight a' = 2 a_k into the prefix
       products q (one complex product, within sqrt(2) gamma_2 of a' q).
       In full mode R = I and
       fl(a' 1) = a' is exact.  In action mode R' has entrywise error at most
       sqrt(2) gamma_2 |a'| |v_i|; carried through ||X_k|| <= 1/beta_k, and
       with the solve error s_k ||R'|| <= s_k (1 + sqrt(2) gamma_2) |a'| ||v||,
       the solution is within |a'| ||v|| (s_k + sqrt(2) gamma_2 y_k) of
       a' X_k v.  With eps_f = sqrt(2) gamma_2 + u (1 + sqrt(2) gamma_2), the
       terms s_k and eps_f width y_k below cover that and the addition.  Each
       pair term is formed once and has norm at most
       2|a_k| (1 + eps_f) y_k ||R||.  The reduction is a fused inner product
       over the n/2 pairs: each entry of the sum is the real part of
       sum_k a'_k Y_k[i, j], n real products and their sum, which carries
       gamma_n of the sum of the terms' moduli (|Re x Re y| + |Im x Im y| <=
       |x| |y|).  The tridiagonal kernel evaluates it so, in one GEMM; the
       solver loop adds the pair terms in ascending order, with
       gamma_{n/2 - 1} <= gamma_n per entry.  Entrywise errors reach the
       2-norm through the Frobenius norm, at a factor width.

    In total, sum_k 2|a_k| (u y_k + s_k + eps_f width y_k)
    + gamma_n width sum_k 2|a_k| (1 + eps_f) y_k.  The result is inf,
    never NaN, if eta_k >= beta_k for some k, which needs d (rho + |theta_k|)
    of order 1e15 (at d = 50, a scale of A near 1e13).  With g = 1 it is
    4e-11 to 3e-10 at n = 16 and 7e-9 to 5e-8 at n = 32 for rho = 4 and
    d = 50 to 400, against observed errors near 2e-13; the observed residuals
    on lap1d and random spectra stay below 0.02 gt ||M_k|| ||Y_k||, and those
    of the mirrored solves below 0.003 (lap1d, d = 300) and 0.006 (random
    real band matrices, d = 200) of it, as for full-width solves.  The
    implicit inverses the tridiagonal kernel accepts stayed below 0.06 of it
    on lap1d (d = 300, scales 1 to 1e6) and below 0.25 on random real
    tridiagonals (d <= 70, scales 1 to 1e6, with indefinite diagonals).
    """
    theta = table.thetas_f8()[::2]
    a2 = 2.0 * np.abs(table.coeffs_f8()[::2])
    mod = np.abs(theta)
    beta = np.abs(theta.imag)
    rho = bounds.rho()
    delta = _U * ((2.0 + _U) * mod + abs(c))
    phi = delta + _U * (rho + mod + delta)
    eta = SOLVE_GROWTH * _SQRT2 * _gamma(3 * d + 6) * (rho + mod + phi) + phi
    if np.any(eta >= beta):
        return math.inf
    s = eta / (beta * (beta - eta))
    y = 1.0 / beta + s
    eps_f = _SQRT2 * _gamma(2) + _U * (1.0 + _SQRT2 * _gamma(2))
    pairs = np.sum(a2 * (_U * y + s + eps_f * width * y))
    reduction = _gamma(table.n) * width * np.sum(a2 * (1.0 + eps_f) * y)
    return float(pairs + reduction)


def _run_tasks(A: HermitianMatrix, v, table: RootTable, c: float):
    """The pair loop: n/2 solves with A + (theta_k - c) I and their ordered sum.

    The pole pairs run one after another in the calling thread, with the
    solver that _band_path picks once per call.  pair(k) factors A + p_k I,
    solves against a right-hand side that already carries the residue
    (2 a_k I or a_k I in full mode; (2 a_k) v, or a_k v and conj(a_k) v with
    the adjoint solve) and yields Re Y or Y + Y^H with the view of the sum it
    belongs to.  Full mode solves in column blocks (_solve_blocks):
    BLOCK_COLUMNS wide, each covering its lower triangle, for real band input,
    whose sum is mirrored at the end; one block of all d columns otherwise.
    Every call reuses one block buffer (d x d for one block) plus one
    pair-term buffer for complex input, and holds one factor at a time: pair
    k's is freed when its generator ends.  Each term is added in place, in
    ascending order; a pair's time covers its factor, solves and additions.

    Real tridiagonal input in full mode runs linalg._tridiagonal_pair_sum
    instead, when linalg._tridiagonal admits A and the kernel does not
    decline; its per-pair times are the pivot recurrences alone.

    Returns (sum, per-pair times, wall time, A.bandwidth or None for dense).
    """
    poles = table.thetas_f8()[::2] - c
    coeffs = table.coeffs_f8()[::2]
    d = A.d
    action = v is not None
    real_path = A.is_real() and (not action or bool(np.isrealobj(v)))
    if action:
        v = np.asarray(v, dtype=complex)
        if v.shape != (d,):
            raise BadSpec(f"v must have shape ({d},), got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise BadSpec("v has non-finite entries")

    band = _band_path(A, (1 if real_path else 2) if action else d)
    t_start = time.perf_counter()
    tri = _tridiagonal(A, poles) if band and real_path and not action else None
    if tri is not None:
        kernel = _tridiagonal_pair_sum(*tri, poles, 2.0 * coeffs)
        if kernel is not None:
            return (*kernel, time.perf_counter() - t_start, A.bandwidth)
    solver = _BandLU if band else _DenseLU
    # real band full mode solves the lower triangle in column blocks and mirrors it
    mirror = band and real_path and not action
    width = BLOCK_COLUMNS if mirror else d
    acc = np.empty(d if action else (d, d), dtype=float if real_path else complex, order="F")
    work = None if action else np.empty(d * width, dtype=complex)
    pair_buf = None if action or real_path else np.empty((d, d), dtype=complex, order="F")

    def pair(k: int):
        a = coeffs[k]
        lu = solver(A, poles[k])
        if action and real_path:
            yield acc, lu.solve((2.0 * a) * v).real
        elif action:
            yield acc, lu.solve(a * v) + lu.solve(np.conj(a) * v, trans=2)
        else:
            for s, j0, j1, Y in _solve_blocks(lu, d, 2.0 * a if real_path else a, width, work):
                if real_path:
                    yield acc[s:, j0:j1], Y.real
                else:
                    yield acc[s:, j0:j1], np.add(Y, np.conjugate(Y.T, out=pair_buf), out=pair_buf)

    times = []
    for k in range(len(poles)):
        t0 = time.perf_counter()
        for out, term in pair(k):
            if k == 0:
                np.copyto(out, term)
            else:
                out += term
        times.append(time.perf_counter() - t0)
    if mirror:
        _mirror_lower(acc)
    return acc, tuple(times), time.perf_counter() - t_start, A.bandwidth if band else None


def _alpha_lower(A: HermitianMatrix) -> float:
    """Certified lower bound on the largest eigenvalue alpha(A)."""
    if A.bounds is not None and A.bounds.exact:
        return A.bounds.alpha()
    # Rayleigh quotient of the unit vector with the largest diagonal entry
    return float(np.max(np.real(np.diag(A.entries))))


def _evaluate(A: HermitianMatrix, v, opts: ExpOptions) -> ExpResult:
    """The one evaluation path: e^c R_n(A - cI) (v), c = 0 when unshifted.

    The pole table is looked up here, once, and serves both the pair loop
    (_run_tasks) and the rounding bound (_rounding_bound).  Warnings name the
    first caller outside the package (_warn_caller).

    error_bound is the truncation term on [lo - c, hi - c]: it bounds
    ||exp(A) - e^c R_n(A - cI)||_2 in exact arithmetic.  rounding_bound
    bounds ||value - e^c R_n(A - cI)||_2, the binary64 error of the returned
    value (_rounding_bound, plus the scaling by fl(e^c) when shifted).  Both
    are relative to e^alpha(A) when shifted and per unit ||v||_2 in action
    mode; their sum bounds the error of the value returned.
    """
    bounds = _spectral_interval(A)
    if opts.shift is None:
        if A.bounds is not None and _reaches_positive(bounds):
            raise BadSpec(
                f"spectrum certified to reach {bounds.hi} > 0; "
                "unshifted evaluation needs Spec(A) <= 0 (pass shift='auto')"
            )
        c = 0.0
    else:
        c = float(bounds.alpha() if opts.shift == "auto" else opts.shift)
        if c > SHIFT_MAX:
            raise Overflow(f"exp({c}) overflows binary64 (shift limit {SHIFT_MAX})")
    table = default_table(opts.n)
    value, times, t_total, bandwidth = _run_tasks(A, v, table, c)
    shifted = SpectralBounds(bounds.lo - c, bounds.hi - c, bounds.exact)
    bound = _interval_bound(shifted, opts.n)
    kind = rounding = None
    if bound is not None:
        kind = "absolute"
        width = 1.0 if v is not None else math.sqrt(A.d)
        rounding = _rounding_bound(table, shifted, c, A.d, width)
    if opts.shift is not None:
        # the relative bound e^(c - alpha(A)) times the truncation term,
        # alpha(A) from below
        value = math.exp(c) * value
        if bound is not None:
            # fl(e^c) (libm exp within 2u) times each entry adds gamma_3 of
            # ||S|| <= ||R_n(A - cI)|| + rounding, R_n <= e^max(hi', 0) + bound
            norm_s = math.exp(max(shifted.hi, 0.0)) + bound + rounding
            try:
                scale = math.exp(c - _alpha_lower(A))
            except OverflowError:  # alpha(A) known only to within ~709: both bounds void
                scale = math.inf
            rounding = scale * (rounding + _gamma(3) * width * norm_s)
            bound, kind = scale * bound, "relative"
    return ExpResult(
        value=value,
        error_bound=bound,
        bound_kind=kind,
        per_term_times=times,
        t_total=t_total,
        rounding_bound=rounding,
        c_applied=None if opts.shift is None else c,
        bandwidth=bandwidth,
    )


def matexp_full(A: HermitianMatrix, opts: ExpOptions) -> ExpResult:
    """R_n(A) as a dense matrix; see module docstring for the task layout."""
    if opts.mode != MODE_FULL:
        raise BadSpec(f"matexp_full called with mode {opts.mode!r}")
    return _evaluate(A, None, opts)


def matexp_action(A: HermitianMatrix, v: np.ndarray, opts: ExpOptions) -> ExpResult:
    """R_n(A) v without forming R_n(A); one factorization per root pair."""
    if opts.mode != MODE_ACTION:
        raise BadSpec(f"matexp_action called with mode {opts.mode!r}")
    return _evaluate(A, v, opts)


def matexp_shifted(A: HermitianMatrix, opts: ExpOptions, v=None) -> ExpResult:
    """exp(A) ~ e^c R_n(A - cI) for spectra that are not nonpositive.

    shift="auto" takes c = alpha(A) when exact bounds are attached, else the
    Gershgorin upper end, and always carries a bound.  The certified bound
    is relative: e^(c - alpha(A)) times apriori_bound on [lo - c, hi - c]
    (err_n(-rho') or 2^-n), with alpha(A) replaced by a certified lower bound
    when not exactly known.
    """
    if opts.shift is None:
        raise BadSpec("matexp_shifted needs shift='auto' or a fixed real shift")
    return _evaluate(A, v, opts)
