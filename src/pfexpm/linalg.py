"""Dense Hermitian linear algebra: shifted solves, eigen-oracle, bounds.

Thin validated wrappers around LAPACK (through numpy) providing exactly what
the matrix-exponential engine consumes: complex shifted solves with a
residual contract, a Hermitian eigendecomposition used as the exp oracle,
spectral interval estimates, and 2-norms.  Everything here is pure and all
matrices are treated as immutable once built; concurrent shifted solves on
one matrix are safe because each call factors its own shifted copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BadSpec, ConvergenceFailure, InvariantViolation, SingularSystem

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

# Residual safety factor: solves must satisfy
# ||(A + theta I) y - v||_2 <= RESIDUAL_FACTOR * d * eps * ||A + theta I||_F * ||y||_2
RESIDUAL_FACTOR = 10.0

_EPS = float(np.finfo(np.float64).eps)


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
    """Validated dense Hermitian matrix, optionally carrying spectral bounds."""

    entries: np.ndarray
    tol_herm: float = 1e-12
    bounds: SpectralBounds | None = field(default=None, compare=False)

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise InvariantViolation("square", f"shape {a.shape}")
        if a.size == 0:
            raise BadSpec("matrix must have dimension d >= 1, got d = 0")
        amax = float(np.max(np.abs(a)))  # NaN or inf when an entry is not finite
        if not np.isfinite(amax):
            raise BadSpec("matrix has non-finite entries")
        scale = max(1.0, amax)
        slack = self.tol_herm * scale
        dev = float(np.max(np.abs(a - a.conj().T)))
        if dev > slack:
            raise InvariantViolation(
                "hermitian", f"max |A - A^H| = {dev:.3e} > {self.tol_herm:.1e} * {scale:.3e}"
            )
        if self.bounds is not None:
            # each a_ii = e_i^H A e_i is a Rayleigh quotient, so lo <= a_ii <= hi
            diag = a.diagonal().real
            if diag.min() < self.bounds.lo - slack or diag.max() > self.bounds.hi + slack:
                raise BadSpec(
                    f"diagonal [{diag.min()}, {diag.max()}] is not inside the attached "
                    f"spectral bounds [{self.bounds.lo}, {self.bounds.hi}]"
                )
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)

    @property
    def d(self) -> int:
        return self.entries.shape[0]

    def is_real(self) -> bool:
        return bool(np.all(self.entries.imag == 0.0))


def shifted_solve(A: HermitianMatrix, theta: complex, V: np.ndarray) -> np.ndarray:
    """Solve (A + theta I) y = v for one or more right-hand sides.

    Partial-pivoted LU on the complex shifted matrix.  The system is
    nonsingular whenever Im(theta) != 0, since A has a real spectrum.
    """
    V = np.asarray(V, dtype=complex)
    M = A.entries + np.asarray(theta, dtype=complex) * np.eye(A.d)
    try:
        return np.linalg.solve(M, V)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"shifted solve at theta = {theta!r}: {exc}") from exc


def shifted_inverse(A: HermitianMatrix, theta: complex) -> np.ndarray:
    """(A + theta I)^{-1} as a dense matrix (identity right-hand sides)."""
    return shifted_solve(A, theta, np.eye(A.d, dtype=complex))


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
    """Cheap spectral enclosure from Gershgorin discs (centers are real)."""
    a = A.entries
    centers = np.real(np.diag(a))
    radii = np.sum(np.abs(a), axis=1) - np.abs(np.diag(a))
    return SpectralBounds(
        lo=float(np.min(centers - radii)),
        hi=float(np.max(centers + radii)),
        exact=False,
    )


def solve_residual_bound(A: HermitianMatrix, theta: complex, y: np.ndarray) -> float:
    """Right side of the residual contract for a shifted solve."""
    M = A.entries + np.asarray(theta, dtype=complex) * np.eye(A.d)
    normy = float(np.linalg.norm(y))
    return RESIDUAL_FACTOR * A.d * _EPS * float(np.linalg.norm(M, "fro")) * normy
