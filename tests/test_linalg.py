"""Shifted solves, eigen-oracle, spectral bounds: contracts and residuals."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import zgbtrf

from pfexpm import engine as E
from pfexpm import linalg as L
from pfexpm import roots as R
from pfexpm.errors import BadSpec, InvariantViolation, Overflow, SingularSystem


def lap1d(d):
    a = (
        np.diag(-2.0 * np.ones(d))
        + np.diag(np.ones(d - 1), 1)
        + np.diag(np.ones(d - 1), -1)
    )
    return L.HermitianMatrix(a)


def assert_solve_hypothesis(A, theta, y, v):
    """The solve hypothesis the engine's rounding bound relies on.

    ||M y - v||_2 <= g sqrt(2) gamma_{3d+6} ||M||_2 ||y||_2 for M = A + theta I
    and g = SOLVE_GROWTH (engine._rounding_bound, part 2).
    """
    M = A.entries + theta * np.eye(A.d)
    res = float(np.linalg.norm(M @ y - v))
    limit = (
        E.SOLVE_GROWTH * math.sqrt(2.0) * E._gamma(3 * A.d + 6)
        * float(np.linalg.norm(M, 2)) * float(np.linalg.norm(y))
    )
    assert res <= limit


def random_hermitian(rng, d):
    b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return L.HermitianMatrix((b + b.conj().T) / 2.0)


def random_banded_hermitian(rng, d, kl):
    """Complex Hermitian with kl nonzero sub- and superdiagonals."""
    b = np.tril(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    b = np.triu(b, -kl)
    return L.HermitianMatrix(b + b.conj().T)


class TestSpectralBounds:
    def test_interval_semantics(self):
        b = L.SpectralBounds(-4.0, 0.0, exact=False)
        assert b.rho() == 4.0
        assert b.alpha() == 0.0
        b = L.SpectralBounds(-1.0, 3.0, exact=True)
        assert b.rho() == 3.0

    def test_rejects_inverted_interval(self):
        with pytest.raises(InvariantViolation):
            L.SpectralBounds(1.0, -1.0)


class TestHermitianMatrix:
    def test_accepts_hermitian(self):
        a = np.array([[1.0, 2.0 + 1.0j], [2.0 - 1.0j, -3.0]])
        m = L.HermitianMatrix(a)
        assert m.d == 2
        assert not m.is_real()
        assert lap1d(4).is_real()

    def test_rejects_non_hermitian(self):
        with pytest.raises(InvariantViolation):
            L.HermitianMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_tolerance_is_relative_to_scale(self):
        a = 1e6 * np.eye(3)
        a[0, 1] = 1e-8  # 1e-14 relative to the 1e6 scale
        L.HermitianMatrix(a)
        a[0, 1] = 1.0
        with pytest.raises(InvariantViolation):
            L.HermitianMatrix(a)

    def test_rejects_non_square(self):
        with pytest.raises(InvariantViolation):
            L.HermitianMatrix(np.zeros((2, 3)))

    def test_entries_frozen(self):
        m = lap1d(3)
        with pytest.raises(ValueError):
            m.entries[0, 0] = 7.0

    def test_bandwidth_of_the_nonzero_pattern(self):
        assert lap1d(5).bandwidth == (1, 1)
        assert L.HermitianMatrix(np.zeros((3, 3))).bandwidth == (0, 0)
        assert L.HermitianMatrix(np.diag([1.0, 2.0])).bandwidth == (0, 0)
        assert L.HermitianMatrix(np.ones((4, 4))).bandwidth == (3, 3)
        a = np.eye(6)
        a[4, 1] = a[1, 4] = 0.5  # one far pair; rows 0 and 5 have only a diagonal
        assert L.HermitianMatrix(a).bandwidth == (3, 3)

    def test_bandwidth_sides_measured_separately(self):
        # asymmetry within HERMITIAN_TOL passes validation and widens one side only
        a = lap1d(6).entries.copy()
        a[4, 0] = 1e-14
        assert L.HermitianMatrix(a).bandwidth == (4, 1)
        assert L.HermitianMatrix(a.T.copy()).bandwidth == (1, 4)

    def test_input_is_copied(self):
        # a caller's complex view must neither be frozen nor reach the
        # validated matrix, its bandwidth, its Gershgorin interval or its band
        base = np.zeros((5, 5), dtype=complex)
        a = base[:4, :4]
        a[...] = -2.0 * np.eye(4)
        a[np.arange(3), np.arange(1, 4)] = 1j
        a[np.arange(1, 4), np.arange(3)] = -1j
        A = L.HermitianMatrix(a)
        want = A.entries.copy()
        assert A.entries is not a and a.flags.writeable
        base[0, 3] = base[3, 0] = 5.0
        assert np.array_equal(A.entries, want)
        assert A.bandwidth == (1, 1)
        assert (L.gershgorin_bounds(A).lo, L.gershgorin_bounds(A).hi) == (-4.0, 0.0)
        x = L.shifted_solve(A, 1j, np.ones(4))
        assert np.allclose((want + 1j * np.eye(4)) @ x, np.ones(4), rtol=0.0, atol=1e-14)

    def test_real_input_is_stored_real(self):
        assert lap1d(5).entries.dtype == np.float64
        zero_imag = L.HermitianMatrix(lap1d(5).entries.astype(complex))
        assert zero_imag.is_real() and zero_imag.entries.dtype == np.float64
        assert L.HermitianMatrix(np.eye(3, dtype=int)).entries.dtype == np.float64
        assert random_hermitian(np.random.default_rng(1), 4).entries.dtype == np.complex128

    def test_band_stored_whenever_it_can_pay(self):
        # the band storage is kept iff the band LU pays for one right-hand
        # side; no other right-hand-side count can then choose the band path
        kl = np.arange(0, 120)[:, None, None]
        ku = np.arange(0, 120)[None, :, None]
        nrhs = np.array([1, 2, 3, 10, 120, 10**6])[None, None, :]
        for d in range(1, 121):
            inside = (kl < d) & (ku < d)
            some = L._band_pays(d, kl, ku, nrhs) & inside
            assert np.all(L._band_pays(d, kl, ku, 1) | ~some)
        assert lap1d(40)._band is not None
        assert random_hermitian(np.random.default_rng(2), 40)._band is None


class TestShiftedSolve:
    def test_scalar_division(self):
        A = L.HermitianMatrix(np.zeros((1, 1)))
        y = L.shifted_solve(A, 1j, np.array([1.0]))
        assert np.allclose(y, [-1j], rtol=0.0, atol=1e-16)

    def test_diagonal_by_hand(self):
        A = L.HermitianMatrix(np.diag([-1.0, -2.0]))
        y = L.shifted_solve(A, complex(-1.0, 1.0), np.array([1.0, 0.0]))
        want = np.array([1.0 / complex(-2.0, 1.0), 0.0])
        assert np.allclose(y, want, rtol=1e-15, atol=0.0)

    def test_residual_bound_laplacian_all_shifts(self):
        A = lap1d(50)
        v = np.ones(50, dtype=complex)
        for theta in R.default_table(16).thetas_f8():
            y = L.shifted_solve(A, theta, v)
            assert_solve_hypothesis(A, theta, y, v)

    def test_multiple_right_hand_sides(self):
        A = lap1d(6)
        V = np.eye(6, dtype=complex)[:, :3]
        Y = L.shifted_solve(A, 2j, V)
        assert Y.shape == (6, 3)
        for j in range(3):
            assert np.allclose(Y[:, j], L.shifted_solve(A, 2j, V[:, j]))

    def test_singular_system(self):
        A = L.HermitianMatrix(np.zeros((2, 2)))
        with pytest.raises(SingularSystem):
            L.shifted_solve(A, 0.0, np.ones(2))

    def test_residual_property_random(self):
        # 100 random Hermitian matrices crossed with every shift of the
        # n=16 table; the partial-pivoted solve must meet the solve hypothesis
        rng = np.random.default_rng(1016)
        thetas = R.default_table(16).thetas_f8()
        for _ in range(100):
            d = int(rng.integers(2, 201))
            A = random_hermitian(rng, d)
            v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            theta = thetas[int(rng.integers(0, 16))]
            y = L.shifted_solve(A, theta, v)
            assert_solve_hypothesis(A, theta, y, v)

    def test_residual_property_random_banded(self):
        # the solve hypothesis of test_residual_property_random, on banded
        # matrices that the band LU factors
        rng = np.random.default_rng(2016)
        thetas = R.default_table(16).thetas_f8()
        for _ in range(100):
            d = int(rng.integers(20, 201))
            kl = int(rng.integers(0, 6))
            A = random_banded_hermitian(rng, d, kl)
            assert A.bandwidth == (kl, kl) and L._band_pays(d, kl, kl, 1)
            v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            theta = thetas[int(rng.integers(0, 16))]
            y = L.shifted_solve(A, theta, v)
            assert_solve_hypothesis(A, theta, y, v)

    def test_residual_bound_lap2d_all_shifts(self):
        m = 10
        b = lap1d(m).entries.real
        A = L.HermitianMatrix(np.kron(b, np.eye(m)) + np.kron(np.eye(m), b))
        assert A.bandwidth == (m, m)
        v = np.ones(m * m, dtype=complex)
        for theta in R.default_table(16).thetas_f8():
            y = L.shifted_solve(A, theta, v)
            assert_solve_hypothesis(A, theta, y, v)

    def test_band_matches_dense(self):
        rng = np.random.default_rng(7)
        A = random_banded_hermitian(rng, 60, 3)
        theta = complex(-2.0, 3.0)
        M = A.entries + theta * np.eye(60)
        V = rng.standard_normal((60, 2)) + 1j * rng.standard_normal((60, 2))
        assert L._band_pays(60, 3, 3, 2) and L._band_pays(60, 3, 3, 60)
        want = np.linalg.solve(M, V)
        assert np.allclose(L.shifted_solve(A, theta, V), want, rtol=0.0, atol=1e-14)
        assert np.allclose(L.shifted_inverse(A, theta), np.linalg.inv(M), rtol=0.0, atol=1e-14)
        lu = L._BandLU(A, theta)
        want_h = np.linalg.solve(M.conj().T, V[:, 0])
        assert np.allclose(lu.solve(V[:, 0].copy(), trans=2), want_h, rtol=0.0, atol=1e-14)

    def test_band_solve_leaves_the_right_hand_side(self):
        # both solvers overwrite the array they solve, so shifted_solve must copy V
        for A in (lap1d(40), random_hermitian(np.random.default_rng(3), 40)):
            V = np.asfortranarray(np.ones((40, 2), dtype=complex))
            L.shifted_solve(A, 1j, V)
            assert np.array_equal(V, np.ones((40, 2)))

    @pytest.mark.parametrize("banded", [True, False], ids=["band", "dense"])
    def test_bad_right_hand_side_rejected(self, banded):
        d = 40
        A = lap1d(d) if banded else random_hermitian(np.random.default_rng(3), d)
        assert L._band_path(A, 1) == banded
        nan, inf = np.ones(d), np.ones((d, 2))
        nan[3], inf[0, 1] = np.nan, np.inf
        for V in (np.ones(d - 1), np.ones((d + 1, 2)), np.ones((d, 2, 1)), np.ones(()), nan, inf):
            with pytest.raises(BadSpec):
                L.shifted_solve(A, 1j, V)

    def test_illegal_lapack_argument_raises(self):
        lu = L._BandLU(lap1d(40), 1j)
        with pytest.raises(InvariantViolation, match="zgbtrs argument"):
            lu.solve(np.ones(39, dtype=complex))

    def test_singular_band_system(self):
        A = L.HermitianMatrix(np.zeros((20, 20)))
        assert L._band_pays(20, 0, 0, 1)
        with pytest.raises(SingularSystem):
            L.shifted_solve(A, 0.0, np.ones(20))


def _general_band_lu(rng, d, kl, ku, diag):
    """A _BandLU of a random complex (kl, ku)-band matrix, not Hermitian: the real
    and imaginary parts of its entries lie in [-1, 1], on the diagonal in [-diag, diag]."""
    kl, ku = min(kl, d - 1), min(ku, d - 1)
    ab = np.zeros((2 * kl + ku + 1, d), dtype=complex, order="F")
    for k in range(-kl, ku + 1):
        size = d - abs(k)
        entries = rng.uniform(-1, 1, size) + 1j * rng.uniform(-1, 1, size)
        ab[kl + ku - k, max(k, 0) : d + min(k, 0)] = entries * (diag if k == 0 else 1.0)
    lu = object.__new__(L._BandLU)
    lu._lu, lu._piv, info = zgbtrf(ab, kl, ku, overwrite_ab=True)
    assert info == 0
    lu._kl, lu._ku = kl, ku
    return lu


class TestTrailingSolve:
    """solve(R, top=s) on the trailing factor: for R zero above row j0 and
    s = first_row(j0), the rows j0.. of the full solve, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        d=st.integers(2, 80),
        kl=st.integers(1, 14),
        ku=st.integers(0, 14),
        j0=st.integers(0, 79),
        cols=st.integers(1, 40),
        identity=st.booleans(),
    )
    def test_rows_from_first_row_match_full_solve(self, seed, d, kl, ku, j0, cols, identity):
        # lopsided bands, and a diagonal below 1e-3 against off-diagonal
        # entries near 1, so partial pivoting swaps rows
        rng = np.random.default_rng(seed)
        lu = _general_band_lu(rng, d, kl, ku, 1e-3)
        assert np.any(lu._piv != np.arange(d))
        j0 = j0 % d
        j1 = min(j0 + cols, d)
        # zero above row j0: columns of 2.5 I, or random entries from row j0 on
        R = np.zeros((d, j1 - j0), dtype=complex, order="F")
        if identity:
            np.fill_diagonal(R[j0:], 2.5)
        else:
            R[j0:] = rng.standard_normal((d - j0, j1 - j0))
        s = lu.first_row(j0)
        assert s == max(j0 - max(lu._kl, lu._kl + lu._ku - 1), 0)
        full = lu.solve(R.copy(order="F"))
        part = lu.solve(np.asfortranarray(R[s:]), top=s)
        assert part.shape == (d - s, j1 - j0)
        assert part[j0 - s :].tobytes() == full[j0:].tobytes()

    def test_top_needs_a_plain_band_solve(self):
        lu = L._BandLU(lap1d(40), 1j)
        with pytest.raises(InvariantViolation, match="trans"):
            lu.solve(np.ones((39, 1), dtype=complex, order="F"), trans=2, top=1)
        dense = L._DenseLU(random_hermitian(np.random.default_rng(3), 40), 1j)
        assert dense.first_row(20) == 0
        with pytest.raises(InvariantViolation, match="top"):
            dense.solve(np.ones((39, 1), dtype=complex, order="F"), top=1)

    @pytest.mark.parametrize("d", [31, 32, 33, 100])
    def test_shifted_inverse_mirrors_the_lower_triangle(self, d):
        """Real band input: the lower triangle of the one full-width solve,
        mirrored into a complex symmetric matrix."""
        A = L.HermitianMatrix(np.triu(np.tril(lap1d(d).entries + 0.3, 2), -2))
        theta = complex(-0.4, 0.7)
        assert L._band_path(A, d) and A.bandwidth == (min(2, d - 1),) * 2
        X = L.shifted_inverse(A, theta)
        R = np.zeros((d, d), dtype=complex, order="F")
        np.fill_diagonal(R, 1.0)
        full = L._BandLU(A, theta).solve(R)
        lower = np.tril_indices(d)
        assert X.dtype == complex and np.array_equal(X, X.T)
        assert X[lower].tobytes() == full[lower].tobytes()


class TestShiftedInverse:
    def test_zero_matrix(self):
        A = L.HermitianMatrix(np.zeros((2, 2)))
        inv = L.shifted_inverse(A, 1j)
        assert np.allclose(inv, -1j * np.eye(2), rtol=0.0, atol=1e-16)

    def test_diagonal_by_hand(self):
        A = L.HermitianMatrix(np.diag([-1.0]))
        inv = L.shifted_inverse(A, complex(-1.0, -1.0))
        assert np.allclose(inv, [[1.0 / complex(-2.0, -1.0)]], rtol=1e-15)

    def test_inverse_times_matrix_is_identity(self):
        A = lap1d(20)
        theta = complex(-1.5, 2.0)
        inv = L.shifted_inverse(A, theta)
        M = A.entries + theta * np.eye(20)
        assert np.allclose(inv @ M, np.eye(20), atol=1e-12)


class TestEigHermitian:
    def test_diagonal_sorted(self):
        w, U = L.eig_hermitian(L.HermitianMatrix(np.diag([3.0, 1.0, 2.0])))
        assert np.array_equal(w, [1.0, 2.0, 3.0])
        assert U.shape == (3, 3)

    def test_laplacian_closed_form(self):
        d = 30
        A = lap1d(d)
        w, U = L.eig_hermitian(A)
        k = np.arange(1, d + 1)
        want = np.sort(-4.0 * np.sin(k * np.pi / (2.0 * (d + 1))) ** 2)
        assert np.max(np.abs(w - want)) <= 10 * d * np.finfo(float).eps * 4.0

    def test_orthonormality_and_residual(self):
        rng = np.random.default_rng(7)
        A = random_hermitian(rng, 60)
        w, U = L.eig_hermitian(A)
        eps = np.finfo(float).eps
        assert np.linalg.norm(U.conj().T @ U - np.eye(60), "fro") <= 10 * 60 * eps
        fro = np.linalg.norm(A.entries, "fro")
        assert np.linalg.norm(A.entries @ U - U * w, "fro") <= 10 * 60 * eps * fro

    def test_real_eigenvalues_by_type(self):
        rng = np.random.default_rng(8)
        w, _ = L.eig_hermitian(random_hermitian(rng, 10))
        assert w.dtype == np.float64


class TestExpOracle:
    def test_real_input_runs_a_real_eigh(self):
        _, U = L.eig_hermitian(lap1d(30))
        assert U.dtype == np.float64
        assert L.exp_oracle(lap1d(30)).dtype == np.float64

    def test_zero_matrix(self):
        E = L.exp_oracle(L.HermitianMatrix(np.zeros((3, 3))))
        assert np.allclose(E, np.eye(3), rtol=0.0, atol=1e-15)

    def test_one_by_one(self):
        E = L.exp_oracle(L.HermitianMatrix(np.diag([-1.0])))
        assert abs(E[0, 0] - math.exp(-1.0)) <= 1e-16

    def test_laplacian_closed_form(self):
        d = 10
        E = L.exp_oracle(lap1d(d))
        i = np.arange(1, d + 1)
        V = np.sqrt(2.0 / (d + 1)) * np.sin(np.outer(i, i) * np.pi / (d + 1))
        lam = -4.0 * np.sin(i * np.pi / (2.0 * (d + 1))) ** 2
        want = (V * np.exp(lam)) @ V.T
        assert np.max(np.abs(E - want)) <= 1e-13

    def test_hermitian_positive_definite(self):
        rng = np.random.default_rng(9)
        A = random_hermitian(rng, 40)
        E = L.exp_oracle(A)
        scale = max(1.0, float(np.max(np.abs(E))))
        assert float(np.max(np.abs(E - E.conj().T))) <= 1e-12 * scale
        assert np.all(np.linalg.eigvalsh((E + E.conj().T) / 2) > 0.0)

    def test_shift_identity(self):
        rng = np.random.default_rng(10)
        A = random_hermitian(rng, 25)
        EA = L.exp_oracle(A)
        for c in (-5.0, -1.0, 2.5, 5.0):
            Ec = L.exp_oracle(L.HermitianMatrix(A.entries + c * np.eye(25)))
            scale = float(np.max(np.abs(Ec)))
            assert np.max(np.abs(Ec - math.exp(c) * EA)) <= 1e-12 * scale

    def test_norm_is_exp_alpha(self):
        rng = np.random.default_rng(11)
        A = random_hermitian(rng, 30)
        w, _ = L.eig_hermitian(A)
        got = L.norm2(L.exp_oracle(A))
        want = math.exp(float(w[-1]))
        assert abs(got - want) <= 1e-12 * want


class TestNormsAndGershgorin:
    def test_norm2_identity(self):
        assert L.norm2(np.eye(7)) == 1.0

    def test_norm2_diagonal(self):
        # the SVD route carries 1 ulp of rounding; the eigen route is exact
        assert math.isclose(L.norm2(np.diag([-3.0, 2.0])), 3.0, rel_tol=4e-16)
        assert L.norm2(L.HermitianMatrix(np.diag([-3.0, 2.0]))) == 3.0

    def test_gershgorin_laplacian_exact_interval(self):
        b = L.gershgorin_bounds(lap1d(40))
        assert b.lo == -4.0
        assert b.hi == 0.0
        assert not b.exact

    def test_gershgorin_diagonal_tight(self):
        b = L.gershgorin_bounds(L.HermitianMatrix(np.diag([-1.0, -7.0, 2.0])))
        assert b.lo == -7.0
        assert b.hi == 2.0

    def test_gershgorin_encloses_spectrum(self):
        rng = np.random.default_rng(12)
        A = random_hermitian(rng, 35)
        w, _ = L.eig_hermitian(A)
        b = L.gershgorin_bounds(A)
        assert b.lo <= w[0] and w[-1] <= b.hi

    def test_gershgorin_overflow_fails_at_construction(self):
        """Past the binary64 limit the interval is not finite: a typed error
        and no numpy warning; just inside it, every entry point evaluates."""
        lap = lap1d(50).entries
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(Overflow, match="Gershgorin"):
                L.HermitianMatrix(4.5e307 * lap)
            A = L.HermitianMatrix(4e307 * lap)
            b = L.gershgorin_bounds(A)
            assert math.isfinite(b.lo) and b.hi == 0.0
            v = np.ones(50)
            for shift in (None, "auto"):
                full = E.matexp_full(A, E.ExpOptions(n=16, shift=shift))
                action = E.matexp_action(A, v, E.ExpOptions(n=16, mode="action", shift=shift))
                for res in (full, action):
                    assert np.all(np.isfinite(res.value))
                    assert res.error_bound is not None and res.rounding_bound is not None
