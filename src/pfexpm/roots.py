"""Roots and partial-fraction coefficients of the truncated exponential series.

For even n, the degree-n Taylor polynomial of exp has n simple non-real roots
theta_k that come in conjugate pairs, with 1 <= |theta_k| <= n, pairwise
separation at least 0.29044, and none inside the parabola Im^2 < 4(Re + 1).
The reciprocal 1/exp_n(-z) then expands as sum_k a_k / (z + theta_k).

Pipeline: binary64 companion-matrix eigenvalues as initial guesses, a short
vectorized binary64 Newton polish, then Newton on the n/2 guesses with Im > 0
in _MP, a private mpmath context at a fixed 50 digits.  The global mpmath.mp
belongs to the caller and is never read or set here.  At 50 digits the
stored limbs of every root up to n = 64 equal those of a 120-digit Newton
reference (40 digits leave 22 of the 32 lo limbs at n = 64 wrong: evaluating
exp_n near its smallest roots cancels about 17 digits).  Tables are
deterministic bit-for-bit: pairs are stored with the Im > 0 member first, the
partner is the exact conjugate, and pairs are sorted by ascending real part
(ties by ascending |Im|).

The coefficients come from the product formula over the stored roots
  a_k = -n! / prod_{j != k} (theta_k - theta_j).
The derivative form -1/exp_{n-1}(theta_k) and the power form n!/theta_k^n
are equal in exact arithmetic; tests/test_roots.py keeps them as
cross-check references, and the table file records method=product.

Each value is stored as the double-double pair that the table file writes:
limbs (hi, lo) of complex binary64 numbers with hi = fl(x) and lo = fl(x - hi)
in each part, so hi is the binary64 rounding of x and save_table/load_table
round-trip bit-exactly.  to_mp and to_limbs convert between limbs and _MP.

A RootTable is immutable and validated when it is built: every invariant,
the residual and the Newton step of each root (evaluated once, in _MP) and
R_n(0) = 1 in binary64 are checked before the table exists, and its
read-only binary64 views are built with it, so default_table(n) is one
shared, validated table per order.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, field

import mpmath
import numpy as np

from .errors import (
    InvariantViolation,
    IterationLimitExceeded,
    OrderOutOfRange,
    ParseError,
)

ORDER_MIN = 2
ORDER_MAX = 64

#: Lower bound on the pairwise distance between the roots, valid for all even
#: orders up to ORDER_MAX.
SEPARATION = 0.29044

_RESIDUAL_TOL = 1e-10
# Newton step of a stored root, relative to |theta|: a unit roundoff at most
_STEP_TOL = 2.0**-53
_NEWTON_STEPS_F8 = 4
_NEWTON_STEPS_MP = 20
# Newton converges quadratically: after a step below 1e-30 relative the error
# is far under the 50-digit noise floor, which reaches 1e-37 at n = 64.
_NEWTON_TOL = 1e-30

_FILE_MAGIC = "pfexpm-table"
_FILE_VERSION = 1
_FILE_METHOD = "product"

_EPS = float(np.finfo(np.float64).eps)

# Only read, never reconfigured, so sharing it across threads is safe.
_MP = mpmath.MPContext()
_MP.dps = 50

#: A stored value: (hi, lo) with hi + lo the value, hi its binary64 rounding.
Limbs = tuple[complex, complex]


def check_order(n: int) -> None:
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise OrderOutOfRange(f"order must be an integer, got {n!r}")
    if n % 2 != 0 or not (ORDER_MIN <= n <= ORDER_MAX):
        raise OrderOutOfRange(
            f"order must be even and in [{ORDER_MIN}, {ORDER_MAX}], got {n}"
        )


def to_mp(v: Limbs):
    """The value hi + lo of stored limbs as an _MP complex."""
    hi, lo = v
    return _MP.mpc(_MP.mpf(hi.real) + lo.real, _MP.mpf(hi.imag) + lo.imag)


def to_limbs(z) -> Limbs:
    """Split an _MP complex into hi = fl(z) and lo = fl(z - hi), per part."""
    hi = complex(float(z.real), float(z.imag))
    return hi, complex(float(z.real - hi.real), float(z.imag - hi.imag))


def _conj(v: Limbs) -> Limbs:
    return v[0].conjugate(), v[1].conjugate()


@functools.lru_cache(maxsize=None)
def _inv_factorials_mp(n: int) -> tuple:
    return tuple(_MP.one / math.factorial(k) for k in range(n + 1))


def eval_trunc_mp(n: int, z):
    """exp_n(z) = sum_{k=0}^n z^k / k! by Horner, in _MP."""
    inv = _inv_factorials_mp(n)
    p = inv[n]
    for k in range(n - 1, -1, -1):
        p = p * z + inv[k]
    return p


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


def _refine(n: int, z0: complex):
    """Newton's iteration in _MP from z0; exp_n' = exp_{n-1}."""
    z = _MP.mpc(z0)
    for _ in range(_NEWTON_STEPS_MP):
        step = eval_trunc_mp(n, z) / eval_trunc_mp(n - 1, z)
        z -= step
        if abs(step) <= _NEWTON_TOL * abs(z):
            return z
    raise IterationLimitExceeded(
        f"Newton did not converge in {_NEWTON_STEPS_MP} steps for n={n} from {z0}"
    )


def _residual_of(n: int, v: Limbs) -> tuple[float, float, float]:
    """(|exp_n(z)|, |exp_{n-1}(z)|, |Newton step exp_n/exp_{n-1}| / |z|) in
    binary64, evaluated in _MP.  The step estimates z's distance to the root."""
    z = to_mp(v)
    f, df = eval_trunc_mp(n, z), eval_trunc_mp(n - 1, z)
    return float(abs(f)), float(abs(df)), float(abs(f / df) / abs(z))


def compute_roots(n: int) -> list[Limbs]:
    """All n roots of exp_n, refined in _MP, in table order."""
    check_order(n)
    guesses = [complex(g) for g in _initial_guesses(n) if g.imag > 0.0]
    if len(guesses) != n // 2:
        raise IterationLimitExceeded(
            f"companion eigenvalues lost the conjugate split for n={n}: "
            f"{len(guesses)} upper roots, expected {n // 2}"
        )
    upper = []
    for g in guesses:
        z = _refine(n, g)
        if not z.imag > 0:
            raise IterationLimitExceeded(
                f"refinement lost the conjugate split for n={n}: {g} -> {complex(z)}"
            )
        upper.append(to_limbs(z))
    upper.sort(key=lambda v: (v[0].real, v[0].imag))
    return [v for rep in upper for v in (rep, _conj(rep))]


def compute_coeffs(n: int, roots: list[Limbs]) -> list[Limbs]:
    """Partial-fraction coefficients a_k = -n! / prod_{j != k} (theta_k - theta_j).

    The Im > 0 representative of each pair is computed in _MP from the stored
    roots, and the partner is set to its exact conjugate, which enforces
    conjugate closure bitwise.
    """
    check_order(n)
    zs = [to_mp(v) for v in roots]
    coeffs: list[Limbs] = []
    for k in range(0, n, 2):
        prod = _MP.one
        for j, other in enumerate(zs):
            if j != k:
                prod *= zs[k] - other
        # mpmath has no signed zero: negating the limbs gives the exact zero
        # real part of the n = 2 residues the sign -0.0 that v1 files record
        hi, lo = to_limbs(math.factorial(n) / prod)
        a = (-hi, -lo)
        coeffs += [a, _conj(a)]
    return coeffs


def _read_only(values) -> np.ndarray:
    out = np.array([hi for hi, _ in values], dtype=complex)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class RootTable:
    """Double-double roots theta_k and coefficients a_k for one even order.

    roots and coeffs hold Limbs.  Construction runs validate_table, so every
    RootTable satisfies every table invariant; residual is the largest
    |exp_n(theta_k)| it measured.  The binary64 views returned by thetas_f8()
    and coeffs_f8() are the hi limbs, built once, read-only, and shared by
    every caller.
    """

    n: int
    roots: tuple[Limbs, ...]
    coeffs: tuple[Limbs, ...]
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
        if rep[0].imag <= 0.0:
            raise InvariantViolation(
                "pair-order", f"root {k} must have Im > 0, got {rep[0]}"
            )
        if mate != _conj(rep):
            raise InvariantViolation(
                "conjugate-closure", f"root {k + 1} is not conj(root {k})"
            )
        if table.coeffs[k + 1] != _conj(table.coeffs[k]):
            raise InvariantViolation(
                "conjugate-closure", f"coeff {k + 1} is not conj(coeff {k})"
            )

    reps = table.roots[::2]
    for a, b in zip(reps, reps[1:]):
        if (a[0].real, a[0].imag) >= (b[0].real, b[0].imag):
            raise InvariantViolation(
                "pair-sort", "pairs must ascend by (Re, |Im|)"
            )

    for v in table.roots:
        re, im = v[0].real, v[0].imag
        if im == 0.0:
            raise InvariantViolation("no-real-root", f"{v[0]} is real")
        modulus = abs(to_mp(v))
        if not 1 <= modulus <= n:
            raise InvariantViolation(
                "modulus", f"|theta|={float(modulus)} outside [1, {n}]"
            )
        if im * im < 4.0 * (re + 1.0):
            raise InvariantViolation(
                "parabola", f"{v[0]} inside Im^2 < 4(Re+1)"
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
    for v in reps:
        res, dabs, step = _residual_of(n, v)
        if res > _RESIDUAL_TOL * max(1.0, dabs):
            raise InvariantViolation(
                "residual", f"|exp_n(theta)| = {res:.3e} exceeds "
                f"{_RESIDUAL_TOL:.0e}*max(1, {dabs:.3e}) at {v[0]}"
            )
        if step > _STEP_TOL:
            raise InvariantViolation(
                "newton-step", f"Newton step {step:.3e}*|theta| > 2^-53*|theta| at {v[0]}"
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


def format_limb(x: float) -> str:
    """Decimal scientific form with 36 significant digits.

    36 digits is far beyond the 17 needed for binary64 round-trip, so
    float(format_limb(x)) == x bit-for-bit for any finite x.
    """
    return f"{x:.35e}"


def parse_limb(s: str) -> float:
    return float(s)


def _format_value(tag: str, v: Limbs) -> str:
    hi, lo = v
    return " ".join([tag] + [format_limb(x) for x in (hi.real, lo.real, hi.imag, lo.imag)])


def _parse_value(line: str, tag: str, lineno: int) -> Limbs:
    parts = line.split()
    if len(parts) != 5 or parts[0] != tag:
        raise ParseError(f"line {lineno}: expected '{tag} <4 limbs>', got {line!r}")
    try:
        re_hi, re_lo, im_hi, im_lo = (parse_limb(p) for p in parts[1:])
    except ValueError as exc:
        raise ParseError(f"line {lineno}: bad limb: {exc}") from exc
    return complex(re_hi, im_hi), complex(re_lo, im_lo)


def table_to_text(table: RootTable) -> str:
    lines = [
        f"{_FILE_MAGIC} v{_FILE_VERSION}",
        f"n={table.n}",
        f"method={_FILE_METHOD}",
    ]
    lines.extend(_format_value("theta", z) for z in table.roots)
    lines.extend(_format_value("a", z) for z in table.coeffs)
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
    roots = [_parse_value(ln, "theta", i + 4) for i, ln in enumerate(body[:n])]
    coeffs = [_parse_value(ln, "a", i + 4 + n) for i, ln in enumerate(body[n:])]
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
