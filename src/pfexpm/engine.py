"""Parallel evaluation of R_n(A) and R_n(A)v for Hermitian A.

R_n(A) = sum_k a_k (A + theta_k I)^{-1} turns the rational approximation of
exp(A) into n independent shifted solves.  Conjugate symmetry halves the
work: only one member of each root pair is factored, and the pair's
contribution is reconstituted as M + M^H (elementwise 2 Re(a M) in the
all-real case), so there are n/2 tasks.

Tasks run on a thread pool, deposit into pre-assigned slots, and a single
sequential ascending-index pass reduces the slots.  Results are therefore
bit-identical for every thread count; t_para reports max over per-task wall
times (the idealized fully-parallel time), t_total the actual wall time.

Matrices whose spectrum reaches above 0 go through the shift method
exp(A) = e^c exp(A - cI) with c >= alpha(A) = max eigenvalue; the reported
bound then controls the relative error.  The shift only moves the poles,
(A - cI) + theta_k I = A + (theta_k - c) I, so A - cI is never formed:
`shift=` works with every entry point, and all of them share one path
(_evaluate) that reads A's spectral interval once.  Only normal (here:
Hermitian) matrices are supported; non-normal inputs would amplify the scalar
error by the eigenbasis conditioning and are rejected by HermitianMatrix
validation.
"""

from __future__ import annotations

import math
import os
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import (
    BadSpec,
    InvariantViolation,
    OrderTooSmall,
    OrderTooSmallWarning,
    Overflow,
)
from .linalg import HermitianMatrix, SpectralBounds, gershgorin_bounds
from .roots import check_order, default_table
from .scalar import approx_error

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
# where exp - R_n still vanishes to order n+1.
POSITIVE_FUZZ = 1e-10


@dataclass(frozen=True)
class ExpOptions:
    """How to evaluate: order, full-matrix vs action, shift policy, threads."""

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
        if not self.parallel:
            return 1
        if self.threads == "auto":
            return max(1, min(tasks, os.cpu_count() or 1))
        return max(1, min(tasks, self.threads))


@dataclass(frozen=True)
class ExpResult:
    """Value plus certified bound (when available) and task-level timings."""

    value: np.ndarray
    error_bound: float | None
    bound_kind: str | None  # "absolute" | "relative", None iff no bound
    per_term_times: tuple
    t_para: float
    t_total: float
    c_applied: float | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.per_term_times and self.t_para != max(self.per_term_times):
            raise InvariantViolation(
                "t-para", f"{self.t_para} != max{tuple(self.per_term_times)}"
            )
        if (self.error_bound is None) != (self.bound_kind is None):
            raise InvariantViolation(
                "bound-kind", f"{self.error_bound!r} vs {self.bound_kind!r}"
            )


def apriori_bound(bounds: SpectralBounds, n: int) -> float:
    """Certified absolute bound err_n(-rho) on ||exp(A) - R_n(A)||_2.

    Valid for Hermitian A with Spec(A) inside [-rho, 0], rho = bounds.rho(),
    provided n > 2 rho; raises OrderTooSmall when that hypothesis fails and
    BadSpec when the interval reaches above 0.
    """
    check_order(n)
    if bounds.hi > 0.0:
        raise BadSpec(f"spectrum not contained in the left half-line: hi = {bounds.hi}")
    rho = bounds.rho()
    if not n > 2.0 * rho:
        raise OrderTooSmall(f"n = {n} <= 2*rho = {2.0 * rho}")
    return approx_error(n, -rho)


def _positive_fuzz(bounds: SpectralBounds) -> float:
    return POSITIVE_FUZZ * max(1.0, abs(bounds.lo))


def _interval_bound(bounds: SpectralBounds, n: int, stacklevel: int):
    """Absolute bound on max |exp - R_n| over [lo, hi], or None + warning."""
    if bounds.hi > _positive_fuzz(bounds):
        warnings.warn(
            f"spectral upper estimate {bounds.hi:.3e} > 0: no certified bound "
            "(use the shift method for nonnegative spectra)",
            OrderTooSmallWarning,
            stacklevel=stacklevel,
        )
        return None
    try:
        bound = apriori_bound(SpectralBounds(min(bounds.lo, 0.0), min(bounds.hi, 0.0)), n)
    except OrderTooSmall as exc:
        warnings.warn(
            f"{exc}: bound hypothesis fails", OrderTooSmallWarning, stacklevel=stacklevel
        )
        return None
    if bounds.hi > 0.0:
        # sliver [0, hi]: |exp - R_n| ~ hi^(n+1)/(n+1)! there, same leading
        # term as on the negative side; factor 2 dominates the series tail
        bound += 2.0 * approx_error(n, -bounds.hi)
    return bound


def _run_tasks(A: HermitianMatrix, v, opts: ExpOptions, c: float):
    """Shared task fabric: n/2 solves with A + (theta_k - c) I, ordered reduction."""
    table = default_table(opts.n)
    poles = table.thetas_f8() - c
    coeffs = table.coeffs_f8()
    d = A.d
    action = v is not None
    real_path = A.is_real() and (not action or bool(np.isrealobj(v)))
    if action:
        v = np.asarray(v, dtype=complex)
        if v.shape != (d,):
            raise BadSpec(f"v must have shape ({d},), got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise BadSpec("v has non-finite entries")

    slots = [None] * (opts.n // 2)
    times = [0.0] * (opts.n // 2)

    def task(slot: int) -> None:
        t0 = time.perf_counter()
        a = coeffs[2 * slot]
        M = A.entries + poles[2 * slot] * np.eye(d)
        if action:
            if real_path:
                y = np.linalg.solve(M, v)
                out = 2.0 * (a * y).real
            else:
                lu = scipy.linalg.lu_factor(M, check_finite=False)
                y = scipy.linalg.lu_solve(lu, v, trans=0, check_finite=False)
                yc = scipy.linalg.lu_solve(lu, v, trans=2, check_finite=False)
                out = a * y + np.conj(a) * yc
        else:
            X = np.linalg.solve(M, np.eye(d, dtype=complex))
            if real_path:
                out = 2.0 * (a * X).real
            else:
                aX = a * X
                out = aX + aX.conj().T
        slots[slot] = out
        times[slot] = time.perf_counter() - t0

    t_start = time.perf_counter()
    workers = opts.worker_count(len(slots))
    if workers == 1:
        for i in range(len(slots)):
            task(i)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(task, range(len(slots))))
    # sequential ascending-index reduction: bit-determinism across thread counts
    acc = slots[0]
    for i in range(1, len(slots)):
        acc = acc + slots[i]
    t_total = time.perf_counter() - t_start
    return acc, tuple(times), t_total


def _alpha_lower(A: HermitianMatrix) -> float:
    """Certified lower bound on the largest eigenvalue alpha(A)."""
    if A.bounds is not None and A.bounds.exact:
        return A.bounds.alpha()
    # Rayleigh quotient of the unit vector with the largest diagonal entry
    return float(np.max(np.real(np.diag(A.entries))))


def _evaluate(A: HermitianMatrix, v, opts: ExpOptions) -> ExpResult:
    """The one evaluation path: e^c R_n(A - cI) (v), c = 0 when unshifted.

    Every public entry point calls this directly, so stacklevel=4 in
    _interval_bound attributes warnings to the entry point's caller.
    """
    bounds = A.bounds if A.bounds is not None else gershgorin_bounds(A)
    if opts.shift is None:
        if A.bounds is not None and bounds.hi > _positive_fuzz(bounds):
            raise BadSpec(
                f"spectrum certified to reach {bounds.hi} > 0; "
                "unshifted evaluation needs Spec(A) <= 0 (pass shift='auto')"
            )
        c = 0.0
    else:
        c = float(bounds.alpha() if opts.shift == "auto" else opts.shift)
        if c > SHIFT_MAX:
            raise Overflow(f"exp({c}) overflows binary64 (shift limit {SHIFT_MAX})")
    value, times, t_total = _run_tasks(A, v, opts, c)
    shifted = SpectralBounds(bounds.lo - c, bounds.hi - c, bounds.exact)
    bound = _interval_bound(shifted, opts.n, stacklevel=4)
    kind = None if bound is None else "absolute"
    if opts.shift is not None:
        # the relative bound e^(c - alpha(A)) err_n(-rho'), alpha(A) from below
        value = math.exp(c) * value
        if bound is not None:
            bound, kind = math.exp(c - _alpha_lower(A)) * bound, "relative"
    return ExpResult(
        value=value,
        error_bound=bound,
        bound_kind=kind,
        per_term_times=times,
        t_para=max(times),
        t_total=t_total,
        c_applied=None if opts.shift is None else c,
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
    Gershgorin upper end.  The certified bound is relative:
    e^(c - alpha(A)) * err_n(-rho'), rho' the radius of [lo - c, hi - c],
    with alpha(A) replaced by a certified lower bound when not exactly known.
    """
    if opts.shift is None:
        raise BadSpec("matexp_shifted needs shift='auto' or a fixed real shift")
    return _evaluate(A, v, opts)
