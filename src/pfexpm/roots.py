"""Roots and partial-fraction coefficients of the truncated exponential series.

For even n, the degree-n Taylor polynomial of exp has n simple non-real roots
theta_k that come in conjugate pairs, with 1 <= |theta_k| <= n, pairwise
separation at least 0.29044, and none inside the parabola Im^2 < 4(Re + 1).
The reciprocal 1/exp_n(-z) then expands as sum_k a_k / (z + theta_k).

Pipeline: binary64 companion-matrix eigenvalues as initial guesses, a short
vectorized binary64 Newton polish, then per-root Newton in double-double
arithmetic.  Tables are deterministic bit-for-bit: pairs are stored with the
Im > 0 member first, the partner is the exact conjugate, and pairs are sorted
by ascending real part (ties by ascending |Im|).

The coefficients come from the product formula
  a_k = -n! / prod_{j != k} (theta_k - theta_j).
The derivative form -1/exp_{n-1}(theta_k) and the power form n!/theta_k^n
are equal in exact arithmetic; tests/test_roots.py keeps them as
cross-check references, and the table file records method=product.

A RootTable is immutable and validated when it is built: every invariant,
the residual of each root (evaluated once) and R_n(0) = 1 in binary64 are
checked before the table exists, and its read-only binary64 views are built
with it, so default_table(n) is one shared, validated table per order.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .ddreal import (
    DoubleDouble,
    DoubleDoubleComplex,
    format_limb,
    parse_limb,
)
from .errors import (
    InvariantViolation,
    IterationLimitExceeded,
    OrderOutOfRange,
    ParseError,
)

ORDER_MIN = 2
ORDER_MAX = 64

#: Lower bound on the pairwise distance between roots, valid for all even
#: orders up to ORDER_MAX.
SEPARATION = 0.29044

_RESIDUAL_TOL = 1e-10
_NEWTON_STEPS_F8 = 4
_NEWTON_STEPS_DD = 5

_FILE_MAGIC = "pfexpm-table"
_FILE_VERSION = 1
_FILE_METHOD = "product"

_EPS = float(np.finfo(np.float64).eps)


def check_order(n: int) -> None:
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise OrderOutOfRange(f"order must be an integer, got {n!r}")
    if n % 2 != 0 or not (ORDER_MIN <= n <= ORDER_MAX):
        raise OrderOutOfRange(
            f"order must be even and in [{ORDER_MIN}, {ORDER_MAX}], got {n}"
        )


@functools.lru_cache(maxsize=None)
def _inv_factorials_dd(n: int) -> tuple[DoubleDouble, ...]:
    return tuple(1 / DoubleDouble.from_int(math.factorial(k)) for k in range(n + 1))


def eval_trunc_dd(n: int, z: DoubleDoubleComplex) -> DoubleDoubleComplex:
    """exp_n(z) = sum_{k=0}^n z^k / k! by Horner, in double-double."""
    inv = _inv_factorials_dd(n)
    p = DoubleDoubleComplex(inv[n], DoubleDouble(0.0))
    for k in range(n - 1, -1, -1):
        p = p * z + inv[k]
    return p


def _pow_dd(z: DoubleDoubleComplex, n: int) -> DoubleDoubleComplex:
    r = DoubleDoubleComplex(1.0)
    b = z
    e = n
    while e:
        if e & 1:
            r = r * b
        b = b * b
        e >>= 1
    return r


def _initial_guesses(n: int) -> np.ndarray:
    # Companion-matrix eigenvalues of exp_n, highest-degree coefficient first.
    coeffs = np.array([1.0 / math.factorial(k) for k in range(n, -1, -1)])
    guesses = np.roots(coeffs)
    inv = np.array([1.0 / math.factorial(k) for k in range(n + 1)])
    for _ in range(_NEWTON_STEPS_F8):
        p = np.full_like(guesses, inv[n])
        dp = np.zeros_like(guesses)
        for k in range(n - 1, -1, -1):
            dp = dp * guesses + p
            p = p * guesses + inv[k]
        step = p / dp
        guesses = guesses - step
    return guesses


def _refine_dd(n: int, z0: complex) -> DoubleDoubleComplex:
    """Newton iteration in double-double; exp_n' = exp_{n-1} is read off the
    Horner value as exp_n(z) - z^n/n!."""
    inv_fact_n = _inv_factorials_dd(n)[n]
    z = DoubleDoubleComplex.from_complex(z0)
    best = z
    best_res2 = math.inf
    for _ in range(_NEWTON_STEPS_DD):
        p = eval_trunc_dd(n, z)
        dp = p - _pow_dd(z, n) * inv_fact_n
        res2 = p.abs2().hi
        if res2 < best_res2:
            best, best_res2 = z, res2
        if dp.abs2().hi == 0.0:
            break
        z = z - p / dp
    p = eval_trunc_dd(n, z)
    if p.abs2().hi < best_res2:
        best = z
    return best


def _residual_of(n: int, z: DoubleDoubleComplex) -> tuple[float, float]:
    """(|exp_n(z)|, |exp_{n-1}(z)|) in binary64, evaluated in double-double."""
    p = eval_trunc_dd(n, z)
    dp = eval_trunc_dd(n - 1, z)
    return math.sqrt(p.abs2().hi), math.sqrt(dp.abs2().hi)


def compute_roots(n: int) -> list[DoubleDoubleComplex]:
    """All n roots of exp_n, refined in double-double, in table order."""
    check_order(n)
    refined = [_refine_dd(n, complex(g)) for g in _initial_guesses(n)]

    pos = sorted(
        (z for z in refined if z.im.hi > 0.0),
        key=lambda z: (z.re.hi, z.im.hi),
    )
    neg = sorted(
        (z for z in refined if z.im.hi < 0.0),
        key=lambda z: (z.re.hi, -z.im.hi),
    )
    if len(pos) != n // 2 or len(neg) != n // 2:
        raise IterationLimitExceeded(
            f"refinement lost the conjugate split for n={n}: "
            f"{len(pos)} upper vs {len(neg)} lower roots"
        )

    roots: list[DoubleDoubleComplex] = []
    for p, q in zip(pos, neg):
        if abs(p.to_complex() - q.conj().to_complex()) > 0.5 * SEPARATION:
            raise IterationLimitExceeded(
                f"conjugate partners failed to match for n={n}"
            )
        rep = DoubleDoubleComplex((p.re + q.re) * 0.5, (p.im - q.im) * 0.5)
        roots.append(rep)
        roots.append(rep.conj())
    return roots


def compute_coeffs(
    n: int, roots: list[DoubleDoubleComplex]
) -> list[DoubleDoubleComplex]:
    """Partial-fraction coefficients a_k = -n! / prod_{j != k} (theta_k - theta_j).

    The Im > 0 representative of each pair is computed and the partner is set
    to its exact conjugate, which enforces conjugate closure bitwise.
    """
    check_order(n)
    fact_n = DoubleDoubleComplex(DoubleDouble.from_int(math.factorial(n)))
    coeffs: list[DoubleDoubleComplex] = []
    for k in range(0, n, 2):
        rep = roots[k]
        prod = DoubleDoubleComplex(1.0)
        for j, other in enumerate(roots):
            if j != k:
                prod = prod * (rep - other)
        a = -(fact_n / prod)
        coeffs.append(a)
        coeffs.append(a.conj())
    return coeffs


def _read_only(values) -> np.ndarray:
    out = np.array([z.to_complex() for z in values], dtype=complex)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class RootTable:
    """Double-double roots theta_k and coefficients a_k for one even order.

    Construction runs validate_table, so every RootTable satisfies every
    table invariant; residual is the largest |exp_n(theta_k)| it measured.
    The binary64 views returned by thetas_f8() and coeffs_f8() are built
    once, read-only, and shared by every caller.
    """

    n: int
    roots: tuple[DoubleDoubleComplex, ...]
    coeffs: tuple[DoubleDoubleComplex, ...]
    residual: float = field(init=False)
    _thetas: np.ndarray = field(init=False, compare=False, repr=False)
    _coeffs: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "roots", tuple(self.roots))
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        object.__setattr__(self, "_thetas", _read_only(self.roots))
        object.__setattr__(self, "_coeffs", _read_only(self.coeffs))
        object.__setattr__(self, "residual", validate_table(self))

    def thetas_f8(self) -> np.ndarray:
        return self._thetas

    def coeffs_f8(self) -> np.ndarray:
        return self._coeffs


def validate_table(table: RootTable) -> float:
    """Re-check every table invariant and return the largest root residual.

    Each root's residual is evaluated once.  Raises InvariantViolation.
    """
    check_order(table.n)
    n = table.n
    if len(table.roots) != n or len(table.coeffs) != n:
        raise InvariantViolation(
            "length", f"expected {n} roots and coefficients"
        )

    for k in range(0, n, 2):
        rep, mate = table.roots[k], table.roots[k + 1]
        if rep.im.hi <= 0.0:
            raise InvariantViolation(
                "pair-order", f"root {k} must have Im > 0, got {rep.to_complex()}"
            )
        if mate != rep.conj():
            raise InvariantViolation(
                "conjugate-closure", f"root {k + 1} is not conj(root {k})"
            )
        if table.coeffs[k + 1] != table.coeffs[k].conj():
            raise InvariantViolation(
                "conjugate-closure", f"coeff {k + 1} is not conj(coeff {k})"
            )

    reps = table.roots[::2]
    for a, b in zip(reps, reps[1:]):
        if (a.re.hi, a.im.hi) >= (b.re.hi, b.im.hi):
            raise InvariantViolation(
                "pair-sort", "pairs must ascend by (Re, |Im|)"
            )

    one = DoubleDouble(1.0)
    n_sq = DoubleDouble(float(n * n))
    for z in table.roots:
        if z.im.hi == 0.0:
            raise InvariantViolation("no-real-root", f"{z.to_complex()} is real")
        m2 = z.abs2()
        if m2 < one or n_sq < m2:
            raise InvariantViolation(
                "modulus", f"|theta|^2={m2.hi} outside [1, {n * n}]"
            )
        re, im = z.re.hi, z.im.hi
        if im * im < 4.0 * (re + 1.0):
            raise InvariantViolation(
                "parabola", f"{z.to_complex()} inside Im^2 < 4(Re+1)"
            )

    thetas, coeffs = table.thetas_f8(), table.coeffs_f8()
    dist = np.abs(thetas[:, None] - thetas[None, :])
    np.fill_diagonal(dist, np.inf)
    sep = float(dist.min())
    if not sep >= SEPARATION:
        raise InvariantViolation(
            "separation", f"min pairwise distance {sep} < {SEPARATION}"
        )

    worst = 0.0
    for z in reps:
        res, dabs = _residual_of(n, z)
        if res > _RESIDUAL_TOL * max(1.0, dabs):
            raise InvariantViolation(
                "residual", f"|exp_n(theta)| = {res:.3e} exceeds "
                f"{_RESIDUAL_TOL:.0e}*max(1, {dabs:.3e}) at {z.to_complex()}"
            )
        worst = max(worst, res)

    # R_n(0) = sum_k a_k/theta_k = 1, summed over pairs as scalar.eval_pf does.
    # The sum has condition number sum_k |a_k/theta_k|, which grows roughly
    # like 0.56*1.7^(n/2); 8n eps is only reachable below n ~ 28.
    r0 = 0.0
    for k in range(0, n, 2):
        r0 += 2.0 * float((coeffs[k] / thetas[k]).real)
    gap = abs(r0 - 1.0)
    cond = float(np.sum(np.abs(coeffs / thetas)))
    if gap > max(8.0 * n * _EPS, cond * _EPS):
        raise InvariantViolation("unit-at-zero", f"|R_n(0) - 1| = {gap:.3e}")
    return worst


def build_table(n: int) -> RootTable:
    roots = compute_roots(n)
    return RootTable(n=n, roots=roots, coeffs=compute_coeffs(n, roots))


@functools.lru_cache(maxsize=None)
def default_table(n: int) -> RootTable:
    """Process-wide cache: one shared, immutable table per order."""
    return build_table(n)


# -- persistence -------------------------------------------------------------


def _format_ddc(tag: str, z: DoubleDoubleComplex) -> str:
    return " ".join(
        (
            tag,
            format_limb(z.re.hi),
            format_limb(z.re.lo),
            format_limb(z.im.hi),
            format_limb(z.im.lo),
        )
    )


def _parse_ddc(line: str, tag: str, lineno: int) -> DoubleDoubleComplex:
    parts = line.split()
    if len(parts) != 5 or parts[0] != tag:
        raise ParseError(f"line {lineno}: expected '{tag} <4 limbs>', got {line!r}")
    try:
        vals = [parse_limb(p) for p in parts[1:]]
    except ValueError as exc:
        raise ParseError(f"line {lineno}: bad limb: {exc}") from exc
    return DoubleDoubleComplex(
        DoubleDouble(vals[0], vals[1]), DoubleDouble(vals[2], vals[3])
    )


def table_to_text(table: RootTable) -> str:
    lines = [
        f"{_FILE_MAGIC} v{_FILE_VERSION}",
        f"n={table.n}",
        f"method={_FILE_METHOD}",
    ]
    lines.extend(_format_ddc("theta", z) for z in table.roots)
    lines.extend(_format_ddc("a", z) for z in table.coeffs)
    return "\n".join(lines) + "\n"


def table_from_text(text: str) -> RootTable:
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty table file")
    header = lines[0].split()
    if len(header) != 2 or header[0] != _FILE_MAGIC:
        raise ParseError(f"bad header {lines[0]!r}")
    if header[1] != f"v{_FILE_VERSION}":
        raise ParseError(f"unsupported table version {header[1]!r}")
    if len(lines) < 3:
        raise ParseError("truncated header")
    if not lines[1].startswith("n="):
        raise ParseError(f"expected 'n=<int>', got {lines[1]!r}")
    try:
        n = int(lines[1][2:])
    except ValueError as exc:
        raise ParseError(f"bad order field {lines[1]!r}") from exc
    if not lines[2].startswith("method="):
        raise ParseError(f"expected 'method=<name>', got {lines[2]!r}")
    method = lines[2][len("method=") :]
    if method != _FILE_METHOD:
        raise ParseError(f"unknown method {method!r}")
    check_order(n)

    body = [ln for ln in lines[3:] if ln.strip()]
    if len(body) != 2 * n:
        raise ParseError(f"expected {2 * n} value lines, found {len(body)}")
    roots = [_parse_ddc(ln, "theta", i + 4) for i, ln in enumerate(body[:n])]
    coeffs = [_parse_ddc(ln, "a", i + 4 + n) for i, ln in enumerate(body[n:])]
    return RootTable(n=n, roots=roots, coeffs=coeffs)


def save_table(table: RootTable, path: str | os.PathLike) -> None:
    """Write the table; the round-trip is re-read and asserted lossless."""
    text = table_to_text(table)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    with open(path, "r", encoding="utf-8") as fh:
        back = table_from_text(fh.read())
    if back.roots != table.roots or back.coeffs != table.coeffs:
        raise InvariantViolation(
            "round-trip", f"saved table at {path} did not re-read bit-exactly"
        )


def load_table(path: str | os.PathLike) -> RootTable:
    with open(path, "r", encoding="utf-8") as fh:
        return table_from_text(fh.read())


# -- diagnostics -------------------------------------------------------------


@dataclass(frozen=True)
class ExclusionReport:
    """Root-location diagnostics for one table."""

    parabola_margin: float  # min over roots of Im^2 - 4(Re + 1)
    szego_max_dev: float  # max over roots of | |(theta/n) e^{1-theta/n}| - 1 |
    szego_min_dev: float


def check_exclusion_regions(table: RootTable) -> ExclusionReport:
    """Assert the parabola exclusion and report normalized-root curve proximity.

    Raises InvariantViolation when a root lies inside the parabola, so every
    report returned has parabola_margin >= 0.

    The normalized roots theta/n cluster, as n grows, near the curve
    |z e^{1-z}| = 1; the deviation is returned, not asserted.
    """
    thetas = table.thetas_f8()
    margin = float(np.min(thetas.imag**2 - 4.0 * (thetas.real + 1.0)))
    if margin < 0.0:
        raise InvariantViolation(
            "parabola", f"root inside Im^2 < 4(Re+1), margin {margin}"
        )
    w = thetas / table.n
    dev = np.abs(np.abs(w * np.exp(1.0 - w)) - 1.0)
    return ExclusionReport(
        parabola_margin=margin,
        szego_max_dev=float(dev.max()),
        szego_min_dev=float(dev.min()),
    )
