"""Scalar evaluation of R_n(z) = 1/exp_n(-z) and its binary64 error model.

exp_n is the degree-n Taylor polynomial of exp.  For even n the reciprocal
has no real poles and approximates exp on the closed left half-line with
uniform error at most 2^-n.  Two evaluation routes are provided:

* the reciprocal form, one Horner pass plus a division, and
* the partial-fraction form sum_k a_k/(z + theta_k), read from the binary64
  views of a validated roots.RootTable (usually default_table(n)), which is
  the route that parallelizes across shifted solves.

eval_reciprocal_mp and eval_pf_mp evaluate the same two routes at a real
point in the private 50-digit mpmath context of roots.py, the partial
fractions from the table's stored double-double values; they return an mpf.

The error model splits the observed binary64 error e1 (partial fractions vs
libm exp, the latter treated as a <= 1 ulp oracle) into the truncation part
e2 (reciprocal form vs exp) and the decomposition part e3 (the two routes
against each other), and provides the a priori bounds M1(n) = 2^-n and
M2(n, D) = (C1(D) + C2(n, D)) * sum_k |a_k| for D-decimal-digit tables.

All operations here are pure, and the tables they read are immutable, so
everything is shareable across threads.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import ConditionViolated, InvariantViolation, PoleHit
from .roots import SEPARATION, RootTable, check_order, default_table, eval_trunc_mp, to_mp

__all__ = [
    "GAMMA",
    "DigitModel",
    "ErrorBudget",
    "FnReport",
    "approx_error",
    "bound_m1",
    "bound_m2",
    "check_fn_inequalities",
    "err_max_location",
    "error_budget",
    "eval_pf",
    "eval_pf_mp",
    "eval_reciprocal",
    "eval_reciprocal_mp",
    "exp_trunc",
    "series_coefficients",
]

# Lower bound on the pairwise distance between the roots of exp_n over the
# whole admissible order range; it also bounds the distance from any root to
# the real axis from below by GAMMA/2.
GAMMA = SEPARATION

_EPS = sys.float_info.epsilon
_DBL_MIN = sys.float_info.min
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@lru_cache(maxsize=None)
def _inv_factorials(n: int) -> tuple[float, ...]:
    out = [1.0]
    f = 1.0
    for k in range(1, n + 1):
        f *= k
        out.append(1.0 / f)
    return tuple(out)


def _check_positive_int(name: str, value, minimum: int = 1) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


def exp_trunc(n: int, z):
    """Evaluate exp_n(z) = sum_{k=0}^n z^k/k! by Horner's scheme.

    Accepts float, complex, or ndarray z; the result matches the input kind.
    Exact at z = 0.
    """
    _check_positive_int("n", n, minimum=0)
    c = _inv_factorials(n)
    p = z * 0 + c[n]
    for k in range(n - 1, -1, -1):
        p = p * z + c[k]
    return p


def eval_reciprocal(n: int, z):
    """R_n(z) = 1/exp_n(-z).

    Raises PoleHit when |exp_n(-z)| underflows, which can only happen for
    non-real z near one of the (strictly complex, for even n) poles.
    """
    w = exp_trunc(n, -z)
    if isinstance(w, np.ndarray):
        if np.any(np.abs(w) < _DBL_MIN):
            raise PoleHit(f"exp_{n}(-z) underflows inside the input array")
        return 1.0 / w
    if abs(w) < _DBL_MIN:
        raise PoleHit(f"exp_{n}(-z) = {w!r} underflows at z = {z!r}")
    return 1 / w


# ----------------------------------------------------------------------
# partial fractions
# ----------------------------------------------------------------------


def eval_pf(table: RootTable, z):
    """Sum a_k/(z + theta_k) over the table, in ascending index order.

    Real z, and a complex scalar whose imaginary part is zero, take the
    paired route sum_l 2*Re(a_{2l}/(z + theta_{2l})): half the divisions, and
    the result is exactly real.  Any other complex z sums all n terms.  A
    scalar z gives a Python float or complex, an array z an array.

    Raises PoleHit if any |z + theta_k| underflows; on the real path this
    cannot happen because every root sits at distance >= GAMMA/2 from the
    real axis.
    """
    th = table.thetas_f8()
    a = table.coeffs_f8()
    array = isinstance(z, np.ndarray)
    if np.iscomplexobj(z) and (array or z.imag != 0.0):
        w = np.asarray(z, dtype=complex)
        s = np.zeros(w.shape, dtype=complex)
        for k in range(table.n):
            d = w + th[k]
            if np.any(np.abs(d) < _DBL_MIN):
                raise PoleHit(f"z + theta_{k} underflows at z = {z!r}")
            s = s + a[k] / d
        return s if array else complex(s)
    x = np.asarray(np.real(z), dtype=np.float64)
    s = np.zeros(x.shape, dtype=np.float64)
    for k in range(0, table.n, 2):
        s = s + 2.0 * (a[k] / (x + th[k])).real
    return s if array else float(s)


def eval_reciprocal_mp(table: RootTable, x: float):
    """R_n(x) at a real point, in the extended-precision context of roots."""
    return 1 / eval_trunc_mp(table.n, -float(x))


def eval_pf_mp(table: RootTable, x: float):
    """sum_k a_k/(x + theta_k) at a real point, in the same context.

    Ascending index order over all n terms; the imaginary parts cancel to
    the working precision and only the real part is returned.
    """
    x = float(x)
    return sum(to_mp(a) / (x + to_mp(t)) for t, a in zip(table.roots, table.coeffs)).real


# ----------------------------------------------------------------------
# a priori bounds
# ----------------------------------------------------------------------


def bound_m1(n: int) -> float:
    """Uniform bound 2^-n on |R_n(x) - exp(x)| over the whole half-line x <= 0."""
    _check_positive_int("n", n)
    return math.ldexp(1.0, -n)


@dataclass(frozen=True)
class DigitModel:
    """Rounding model for tables stored with D significant decimal digits.

    The roots are separated by at least GAMMA; the perturbation bounds below
    hold while that margin survives the rounding of n roots.
    """

    D: int

    def __post_init__(self):
        _check_positive_int("D", self.D)

    def eta(self) -> float:
        """Relative rounding unit 10^(1-D) of a D-digit value."""
        return 10.0 ** (1 - self.D)

    def admits(self, n: int) -> bool:
        """Whether the perturbed roots keep a positive separation margin."""
        return GAMMA > n * self.eta()

    def require(self, n: int) -> None:
        if not self.admits(n):
            raise ConditionViolated(
                f"gamma = {GAMMA} <= n*10^(1-D) = {n * self.eta():.6e} "
                f"for n = {n}, D = {self.D}"
            )

    def c1(self) -> float:
        e = self.eta()
        return 2.0 * e / (GAMMA * (1.0 - e))

    def c2(self, n: int) -> float:
        self.require(n)
        e = self.eta()
        return 4.0 * n * e / (GAMMA * (GAMMA - n * e))


def bound_m2(n: int, D: int = 16) -> float:
    """Decomposition-error bound (C1(D) + C2(n, D)) * sum_k |a_k|.

    Bounds |reciprocal - partial fractions| on the real half-line when roots
    and coefficients carry D significant decimal digits.  Raises
    ConditionViolated unless gamma > n*10^(1-D).
    """
    model = DigitModel(D)
    factor = model.c1() + model.c2(n)
    return factor * float(np.sum(np.abs(default_table(n).coeffs_f8())))


@dataclass(frozen=True)
class ErrorBudget:
    """Observed errors of both routes at one point, with their bounds."""

    n: int
    x: float
    e1: float
    e2: float
    e3: float
    m1: float
    m2: float

    def __post_init__(self):
        if self.e1 > self.e2 + self.e3 + 4.0 * _EPS:
            raise InvariantViolation(
                "budget-triangle",
                f"e1 = {self.e1:.6e} > e2 + e3 + 4eps = "
                f"{self.e2 + self.e3 + 4.0 * _EPS:.6e}",
            )
        if self.m1 != math.ldexp(1.0, -self.n):
            raise InvariantViolation("budget-m1", f"m1 = {self.m1!r} != 2^-{self.n}")


def error_budget(n: int, x: float, D: int = 16) -> ErrorBudget:
    """Split the binary64 error at x <= 0 into truncation and decomposition.

    e1 = |exp(x) - partial fractions|, e2 = |exp(x) - reciprocal form|,
    e3 = |reciprocal - partial fractions|; libm exp is the reference.
    """
    x = float(x)
    if x > 0.0:
        raise ValueError(f"x must be <= 0, got {x}")
    DigitModel(D).require(n)
    r_rec = float(eval_reciprocal(n, x))
    r_pf = eval_pf(default_table(n), x)
    ex = math.exp(x)
    return ErrorBudget(
        n=n,
        x=x,
        e1=abs(ex - r_pf),
        e2=abs(ex - r_rec),
        e3=abs(r_rec - r_pf),
        m1=bound_m1(n),
        m2=bound_m2(n, D),
    )


# ----------------------------------------------------------------------
# the true error curve err_n(x) = R_n(x) - exp(x)
# ----------------------------------------------------------------------


def approx_error(n: int, x):
    """err_n(x) = R_n(x) - exp(x) for real x <= 0, to near-full relative accuracy.

    The direct difference cancels catastrophically where the two terms are
    close (the interesting region around the maximum), so for y = -x < n+1
    it is evaluated through the all-positive identity

        err_n(x) = tail_n(y) * exp(-y) / exp_n(y),
        tail_n(y) = sum_{k>n} y^k/k!,

    and the direct difference is used only for y >= n+1, where
    exp_n(y)*exp(-y) < 1/2 keeps the subtraction benign.  Scalar or ndarray;
    a Python or numpy float takes the same steps on Python floats.
    """
    check_order(n)
    if isinstance(x, float):
        return _approx_error_float(n, x)
    scalar = np.isscalar(x) or (isinstance(x, np.ndarray) and x.ndim == 0)
    y = -np.asarray(x, dtype=np.float64)
    if np.any(y < 0.0):
        raise ValueError("x must be <= 0")
    y = np.atleast_1d(y)
    p = exp_trunc(n, y)  # exp_n(y) >= 1 for y >= 0
    out = np.empty_like(y)

    far = y >= n + 1.0
    if np.any(far):
        out[far] = 1.0 / p[far] - np.exp(-y[far])

    near = ~far
    if np.any(near):
        yn = y[near]
        t = np.ones_like(yn)
        for k in range(1, n + 2):
            t = t * yn / k
        # t = y^(n+1)/(n+1)!, the first tail term; ratios y/k < 1 from here on
        s = t.copy()
        k = n + 1
        while True:
            k += 1
            t = t * yn / k
            s = s + t
            if np.all(t <= 1e-20 * s) or k > n + 200:
                break
        out[near] = s * np.exp(-yn) / p[near]

    return float(out[0]) if scalar else out.reshape(np.shape(x))


def _approx_error_float(n: int, x: float) -> float:
    """approx_error for one float: the array route's steps on Python floats.

    exp is numpy's, as in the array route: libm's differs from it by an ulp
    at some points, which the subtraction for y >= n+1 can amplify.
    """
    y = -x
    if y < 0.0:
        raise ValueError("x must be <= 0")
    c = _inv_factorials(n)
    p = y * 0 + c[n]  # exp_trunc(n, y)
    for k in range(n - 1, -1, -1):
        p = p * y + c[k]
    if y >= n + 1.0:
        return 1.0 / p - float(np.exp(-y))
    t = 1.0
    for k in range(1, n + 2):
        t = t * y / k
    s = t
    k = n + 1
    while True:
        k += 1
        t = t * y / k
        s = s + t
        if t <= 1e-20 * s or k > n + 200:
            break
    return s * float(np.exp(-y)) / p


def err_max_location(n: int, tol: float = 1e-10) -> tuple[float, float]:
    """Locate the single interior maximum xi_n of err_n on [-(n+2), -n/2].

    Golden-section search; err_n increases up to xi_n and decreases after
    it, which makes the derivative-free bracketing reduction safe.  Returns
    (xi, err_n(xi)) with |xi - true location| <= tol.
    """
    check_order(n)
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    a, b = -(n + 2.0), -n / 2.0
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc = approx_error(n, c)
    fd = approx_error(n, d)
    while (b - a) > tol:
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = approx_error(n, d)
        else:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = approx_error(n, c)
    xi = 0.5 * (a + b)
    return xi, approx_error(n, xi)


# ----------------------------------------------------------------------
# series and product diagnostics
# ----------------------------------------------------------------------


def series_coefficients(n: int, K: int) -> list[Fraction]:
    """Exact Taylor coefficients c_0..c_K of 1/exp_n(-z) at the origin.

    Reciprocal-series recurrence c_m = -sum_{j=1}^{min(m,n)} d_j c_{m-j}
    against d_j = (-1)^j/j!.  The first n+1 coefficients must come out as
    exactly 1/m! (R_n matches exp to order n at 0); that is asserted, not
    assumed.  The tail weights are lambda_{n,m} = m! * c_m for m > n.
    """
    _check_positive_int("n", n)
    _check_positive_int("K", K, minimum=0)
    d = [Fraction((-1) ** j, math.factorial(j)) for j in range(n + 1)]
    c = [Fraction(1)]
    for m in range(1, K + 1):
        acc = Fraction(0)
        for j in range(1, min(m, n) + 1):
            acc += d[j] * c[m - j]
        c.append(-acc)
    for m in range(min(n, K) + 1):
        if c[m] != Fraction(1, math.factorial(m)):
            raise InvariantViolation(
                "series-interpolation", f"c_{m} != 1/{m}! for n = {n}"
            )
    return c


def _f(n: int, x: float) -> float:
    """f_n(x) = exp_n(x)*exp(-x); lies in (0, 1] for x >= 0 and decays."""
    return float(exp_trunc(n, x)) * math.exp(-x)


@dataclass(frozen=True)
class FnReport:
    """Margins of the two product inequalities used by the extremum proof."""

    n: int
    half_value: float  # f_n(n+1), required < 1/2
    half_ok: bool
    worst_margin: float  # min over xs of ((n+1)/n) f_{n-1} f_{n+1} - f_n^2
    worst_x: float
    ratio_ok: bool

    @property
    def ok(self) -> bool:
        return self.half_ok and self.ratio_ok


def check_fn_inequalities(n: int, xs) -> FnReport:
    """Check f_n(n+1) < 1/2 and the log-convexity-type ratio inequality.

    The ratio inequality f_n(x)^2 <= ((n+1)/n) f_{n-1}(x) f_{n+1}(x) is
    checked at each point of xs.  Diagnostic: failures are reported in the
    returned FnReport, never raised.
    """
    _check_positive_int("n", n)
    half_value = _f(n, n + 1.0)
    worst = math.inf
    worst_x = math.nan
    for x in xs:
        x = float(x)
        margin = (n + 1.0) / n * _f(n - 1, x) * _f(n + 1, x) - _f(n, x) ** 2
        if margin < worst:
            worst = margin
            worst_x = x
    return FnReport(
        n=n,
        half_value=half_value,
        half_ok=half_value < 0.5,
        worst_margin=worst,
        worst_x=worst_x,
        ratio_ok=worst >= 0.0,
    )
