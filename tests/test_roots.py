"""Root tables: values, invariants, persistence, cross-method agreement."""

import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pfexpm import roots as R
from pfexpm.engine import MODE_ACTION, ExpOptions, matexp_action, matexp_full
from pfexpm.errors import InvariantViolation, OrderOutOfRange, ParseError
from pfexpm.linalg import HermitianMatrix


def coeffs_derivative(n, roots):
    """Reference formula a_k = -1 / exp_{n-1}(theta_k) in the table's context."""
    out = []
    for rep in roots[::2]:
        a = -1 / R.eval_trunc_mp(n - 1, R.to_mp(rep))
        out += [a, a.conjugate()]
    return out


def coeffs_power(n, roots):
    """Reference formula a_k = n! / theta_k^n in the table's context."""
    out = []
    for rep in roots[::2]:
        a = math.factorial(n) / R.to_mp(rep) ** n
        out += [a, a.conjugate()]
    return out


class TestSmallOrderValues:
    """Hand-derived values for n = 2: roots -1 +- i, coefficients +- i."""

    def test_n2_roots_exact(self):
        t = R.build_table(2)
        assert t.roots[0][0] == complex(-1.0, 1.0)
        assert t.roots[1][0] == complex(-1.0, -1.0)
        # the quadratic 1 + z + z^2/2 has exactly representable roots
        assert t.roots[0][1] == 0.0

    def test_n2_coeffs_exact(self):
        t = R.build_table(2)
        assert t.coeffs[0][0] == complex(0.0, 1.0)
        assert t.coeffs[1][0] == complex(0.0, -1.0)

    def test_n2_modulus(self):
        t = R.build_table(2)
        for z in t.roots:
            assert 1.0 <= abs(R.to_mp(z)) <= 2.0

    def test_n4_two_conjugate_pairs_with_small_residual(self):
        t = R.build_table(4)
        assert len(t.roots) == 4
        assert t.roots[1] == R._conj(t.roots[0])
        assert t.roots[3] == R._conj(t.roots[2])
        assert t.residual < 1e-10

    def test_n4_roots_satisfy_integer_quartic_exactly(self):
        # 24*exp_4(z) = z^4 + 4z^3 + 12z^2 + 24z + 24; evaluate it in exact
        # rational arithmetic at the stored double-double roots.
        from fractions import Fraction

        t = R.build_table(4)
        for hi, lo in t.roots:
            re = Fraction(hi.real) + Fraction(lo.real)
            im = Fraction(hi.imag) + Fraction(lo.imag)
            pr, pi = Fraction(24), Fraction(0)  # accumulates the polynomial
            xr, xi = Fraction(1), Fraction(0)  # accumulates z^k
            for c in (24, 12, 4, 1):
                xr, xi = xr * re - xi * im, xr * im + xi * re
                pr += c * xr
                pi += c * xi
            assert abs(pr) < Fraction(1, 10**28)
            assert abs(pi) < Fraction(1, 10**28)


class TestSumIdentity:
    @pytest.mark.parametrize("n", [2, 8, 16, 32, 64])
    def test_sum_a_over_theta_is_one(self, n):
        t = R.default_table(n)
        # summed from the stored values in the table's context, then rounded
        # to binary64; the unrounded gap reaches 8e-27 at n = 64, the
        # condition number sum |a_k/theta_k| ~ 1e7 times the double-double
        # rounding of the values
        s = sum(R.to_mp(a) / R.to_mp(z) for a, z in zip(t.coeffs, t.roots))
        assert abs(complex(s) - 1.0) < 1e-28


class TestInvariants:
    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32])
    def test_validate_passes(self, n):
        R.validate_table(R.default_table(n))

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32])
    def test_ordering_convention(self, n):
        t = R.default_table(n)
        reps = t.roots[::2]
        for hi, _ in reps:
            assert hi.imag > 0.0
        keys = [(hi.real, hi.imag) for hi, _ in reps]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_separation_bound(self, n):
        th = R.default_table(n).thetas_f8()
        d = np.abs(th[:, None] - th[None, :])
        np.fill_diagonal(d, np.inf)
        assert d.min() >= R.SEPARATION

    @pytest.mark.parametrize("bad", [0, 3, 5, 66, -2, 2.0, True])
    def test_order_out_of_range(self, bad):
        with pytest.raises(OrderOutOfRange):
            R.build_table(bad)

    def test_determinism_bit_for_bit(self):
        a, b = R.build_table(16), R.build_table(16)
        assert a.roots == b.roots
        assert a.coeffs == b.coeffs
        assert a.residual == b.residual

    def test_scaled_coefficients_rejected(self):
        # building a RootTable runs validate_table; R_n(0) = 1 catches the scale
        t = R.default_table(8)
        scaled = [R.to_limbs(R.to_mp(a) * (1.0 + 1e-6)) for a in t.coeffs]
        with pytest.raises(InvariantViolation, match="unit-at-zero"):
            R.RootTable(8, t.roots, scaled)
        with pytest.raises(InvariantViolation, match="unit-at-zero"):
            dataclasses.replace(t, coeffs=scaled)

    def test_lower_member_first_rejected(self):
        # each pair must lead with its Im > 0 member
        t = R.default_table(8)
        swap = lambda xs: [xs[k ^ 1] for k in range(len(xs))]
        with pytest.raises(InvariantViolation, match="pair-order"):
            R.RootTable(8, swap(t.roots), swap(t.coeffs))

    @pytest.mark.parametrize("n", [40, 62])
    def test_root_hundreds_of_ulps_off_rejected(self, n):
        # a pair moved 7.6e-13 off its root keeps a residual that the
        # residual check accepts; its Newton step, 4-6e-14 |theta|, does not
        t = R.default_table(n)
        roots = list(t.roots)
        rep = (roots[2][0] + 7.6e-13, roots[2][1])
        roots[2:4] = [rep, R._conj(rep)]
        res, dabs, step = R._residual_of(n, rep)
        assert res <= R._RESIDUAL_TOL * max(1.0, dabs)
        assert step > 2.0**-53
        with pytest.raises(InvariantViolation, match="newton-step"):
            R.RootTable(n, roots, R.compute_coeffs(n, roots))

    def test_each_residual_evaluated_once(self, monkeypatch):
        calls = []
        residual_of = R._residual_of
        monkeypatch.setattr(
            R, "_residual_of", lambda n, z: calls.append(z) or residual_of(n, z)
        )
        t = R.build_table(16)
        assert calls == list(t.roots[::2])
        assert t.residual == max(residual_of(16, z)[0] for z in t.roots[::2])


class TestImmutability:
    """default_table(n) is shared by every caller, so nobody may write to it."""

    def test_cached_table_cannot_be_written(self):
        A = HermitianMatrix(np.diag(np.linspace(-3.0, 0.0, 6)))
        before = matexp_full(A, ExpOptions(n=8))
        t = R.default_table(8)
        assert R.default_table(8) is t
        assert t.thetas_f8() is t.thetas_f8() and t.coeffs_f8() is t.coeffs_f8()
        with pytest.raises(TypeError):
            t.coeffs[0] = t.coeffs[1]
        with pytest.raises(TypeError):
            t.roots[0] = t.roots[1]
        with pytest.raises(ValueError):
            t.thetas_f8()[0] = 0
        with pytest.raises(ValueError):
            t.coeffs_f8()[0] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            t.coeffs = ()
        after = matexp_full(A, ExpOptions(n=8))
        assert after.value.tobytes() == before.value.tobytes()
        assert (after.error_bound, after.rounding_bound) == (
            before.error_bound,
            before.rounding_bound,
        )

    def test_engine_converts_no_table_entries_per_call(self, monkeypatch):
        A = HermitianMatrix(np.diag(np.linspace(-3.0, 0.0, 6)))
        v = np.ones(6) / math.sqrt(6.0)
        full, action = ExpOptions(n=16), ExpOptions(n=16, mode=MODE_ACTION)
        matexp_full(A, full), matexp_action(A, v, action)  # warm-up builds the table
        conversions = []
        for name in ("to_mp", "to_limbs", "_read_only"):
            convert = getattr(R, name)
            monkeypatch.setattr(
                R, name, lambda v, convert=convert: conversions.append(v) or convert(v)
            )
        results = [matexp_action(A, v, action) for _ in range(2)]
        results += [matexp_full(A, full) for _ in range(2)]
        assert all(r.error_bound is not None for r in results[2:])
        assert conversions == []


class TestCoefficientMethods:
    @staticmethod
    def _rel_gap(xs, ys):
        return max(float(abs(R.to_mp(x) - y) / abs(R.to_mp(x))) for x, y in zip(xs, ys))

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_methods_agree_tightly_at_moderate_order(self, n):
        t = R.default_table(n)
        cp = R.compute_coeffs(n, t.roots)
        assert self._rel_gap(cp, coeffs_derivative(n, t.roots)) <= 1e-25
        assert self._rel_gap(cp, coeffs_power(n, t.roots)) <= 1e-25

    def test_methods_agree_at_n32(self):
        # The bound was set for the noise floor of double-double arithmetic,
        # ~ exp(|theta|) * 2^-104 / |exp_31(theta)| ~ 1e-24 at the
        # smallest-modulus roots of exp_32.  In the 50-digit context the gaps
        # come from the double-double rounding of the stored roots: 9e-32.
        t = R.default_table(32)
        cp = R.compute_coeffs(32, t.roots)
        assert list(cp) == list(t.coeffs)
        assert self._rel_gap(cp, coeffs_derivative(32, t.roots)) <= 1e-24
        assert self._rel_gap(cp, coeffs_power(32, t.roots)) <= 1e-24

    def test_power_formula_n2_by_hand(self):
        # a = 2!/theta^2 with theta = -1+i: theta^2 = -2i, so a = i.
        cw = coeffs_power(2, R.default_table(2).roots)
        assert complex(cw[0]) == complex(0.0, 1.0)

    def test_unknown_method_rejected(self, tmp_path):
        # only the product formula ships; a file naming another is refused
        p = tmp_path / "t.txt"
        R.save_table(R.build_table(2), p)
        p.write_text(p.read_text().replace("method=product", "method=derivative"))
        with pytest.raises(ParseError):
            R.load_table(p)


class TestBinary64CrossComputation:
    """A fresh all-binary64 pipeline (companion eigenvalues + Newton + product
    formula) against the double-double tables.

    Agreement is limited by the conditioning of the roots with respect to the
    rounded polynomial coefficients, ~ eps * sum|theta|^k/k! / |exp_n'(theta)|,
    which grows rapidly with n; measured gaps (2e-15 / 2e-13 / 2e-9 for
    n = 8 / 16 / 32) are frozen below with ~30x margin.
    """

    @staticmethod
    def _binary64_table(n):
        coeffs = np.array([1.0 / math.factorial(k) for k in range(n, -1, -1)])
        z = np.roots(coeffs)
        inv = np.array([1.0 / math.factorial(k) for k in range(n + 1)])
        for _ in range(6):
            p = np.full_like(z, inv[n])
            dp = np.zeros_like(z)
            for k in range(n - 1, -1, -1):
                dp = dp * z + p
                p = p * z + inv[k]
            z = z - p / dp
        a = np.empty_like(z)
        for k in range(n):
            pr = 1.0 + 0j
            for j in range(n):
                if j != k:
                    pr *= z[k] - z[j]
            a[k] = -math.factorial(n) / pr
        return z, a

    @pytest.mark.parametrize("n,root_tol,coeff_tol", [
        (8, 1e-13, 1e-13),
        (16, 1e-11, 1e-11),
        (32, 1e-7, 1e-7),
    ])
    def test_against_dd_tables(self, n, root_tol, coeff_tol):
        t = R.default_table(n)
        th_dd, a_dd = t.thetas_f8(), t.coeffs_f8()
        z, a = self._binary64_table(n)
        order = [int(np.argmin(np.abs(z - td))) for td in th_dd]
        assert sorted(order) == list(range(n))
        z, a = z[order], a[order]
        assert np.abs(z - th_dd).max() <= root_tol
        assert np.max(np.abs(a - a_dd) / np.abs(a_dd)) <= coeff_tol


def _bits(values) -> bytes:
    """Bytes of binary64 values; + 0.0 only drops the sign of a zero, which
    mpmath does not carry (the n = 2 residues are -0.0 + 1j and -0.0 - 1j)."""
    return (np.asarray(values, dtype=complex) + 0.0).tobytes()


def _rounded(zs) -> bytes:
    """_bits of the binary64 roundings of mpmath complex values."""
    return _bits([complex(float(z.real), float(z.imag)) for z in zs])


def _with_partners(upper):
    return [w for z in upper for w in (z, z.conjugate())]


class TestIndependentOracle:
    """Binary64 views against references computed apart from the builder."""

    @pytest.mark.parametrize("n", [2, 8, 16, 20])
    def test_polyroots_reference_rounds_to_the_table(self, n):
        # Durand-Kerner on n! exp_n (integer coefficients) at 60 digits, and
        # residues from the derivative form -1/exp_{n-1}(theta)
        ctx = mpmath.MPContext()
        ctx.dps = 60
        ints = [math.factorial(n) // math.factorial(k) for k in range(n, -1, -1)]
        found = ctx.polyroots(ints, maxsteps=200, extraprec=100)
        upper = sorted((z for z in found if z.imag > 0), key=lambda z: (z.real, z.imag))
        assert len(upper) == n // 2
        thetas = _with_partners(upper)
        coeffs = [-math.factorial(n) / ctx.polyval(ints[1:], z) for z in thetas]
        t = R.default_table(n)
        assert _bits(t.thetas_f8()) == _rounded(thetas)
        assert _bits(t.coeffs_f8()) == _rounded(coeffs)

    @pytest.mark.parametrize("n", [62, 64])
    def test_newton_reference_rounds_to_the_table(self, n):
        # Newton at 110 digits from the table's roots, residues from the
        # derivative form.  The hardest orders: at n = 62 a binary64 guess
        # lies 0.33 from its root, and near the smallest roots of exp_64 the
        # evaluation of exp_n cancels about 17 digits.
        ctx = mpmath.MPContext()
        ctx.dps = 110
        inv = [ctx.one / math.factorial(k) for k in range(n, -1, -1)]
        upper = []
        for z in R.default_table(n).thetas_f8()[::2]:
            z = ctx.mpc(z)
            for _ in range(60):
                p, dp = ctx.polyval(inv, z, derivative=True)
                z -= p / dp
                if abs(p / dp) < 1e-60 * abs(z):  # the next error is below 1e-90
                    break
            upper.append(z)
        thetas = _with_partners(upper)
        coeffs = [-1 / ctx.polyval(inv[1:], z) for z in thetas]
        t = R.default_table(n)
        assert _bits(t.thetas_f8()) == _rounded(thetas)
        assert _bits(t.coeffs_f8()) == _rounded(coeffs)

    def test_caller_mpmath_precision_left_alone(self):
        want = R.default_table(16)
        dps = mpmath.mp.dps
        try:
            mpmath.mp.dps = 5
            t = R.build_table(16)
            assert mpmath.mp.dps == 5
        finally:
            mpmath.mp.dps = dps
        assert t.thetas_f8().tobytes() == want.thetas_f8().tobytes()
        assert t.coeffs_f8().tobytes() == want.coeffs_f8().tobytes()


class TestLimbFormat:
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_round_trip_bit_exact(self, x):
        assert R.parse_limb(R.format_limb(x)) == x

    def test_36_significant_digits(self):
        s = R.format_limb(1.0 / 3.0)
        mantissa = s.split("e")[0].replace("-", "").replace(".", "")
        assert len(mantissa) == 36


class TestPersistence:
    def test_round_trip_bit_exact(self, tmp_path):
        t = R.build_table(8)
        p = tmp_path / "t8.txt"
        R.save_table(t, p)
        back = R.load_table(p)
        assert back.n == 8
        assert back.roots == t.roots
        assert back.coeffs == t.coeffs
        assert back.residual == t.residual

    def test_file_shape(self, tmp_path):
        t = R.build_table(4)
        p = tmp_path / "t4.txt"
        R.save_table(t, p)
        lines = p.read_text().splitlines()
        assert lines[0] == "pfexpm-table v1"
        assert lines[1] == "n=4"
        assert lines[2] == "method=product"
        assert sum(ln.startswith("theta ") for ln in lines) == 4
        assert sum(ln.startswith("a ") for ln in lines) == 4
        for ln in lines[3:]:
            for limb in ln.split()[1:]:
                mant = limb.split("e")[0].lstrip("-").replace(".", "")
                assert len(mant) == 36

    def test_unsupported_version(self, tmp_path):
        t = R.build_table(4)
        p = tmp_path / "t.txt"
        R.save_table(t, p)
        text = p.read_text().replace("pfexpm-table v1", "pfexpm-table v2", 1)
        p.write_text(text)
        with pytest.raises(ParseError):
            R.load_table(p)

    def test_malformed_line(self, tmp_path):
        t = R.build_table(4)
        p = tmp_path / "t.txt"
        R.save_table(t, p)
        lines = p.read_text().splitlines()
        lines[3] = "theta 1.0 2.0"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError):
            R.load_table(p)

    def test_tampered_real_root_rejected(self, tmp_path):
        t = R.build_table(4)
        p = tmp_path / "t.txt"
        R.save_table(t, p)
        lines = p.read_text().splitlines()
        parts = lines[3].split()
        zero = "0." + "0" * 35 + "e+00"
        lines[3] = " ".join(parts[:3] + [zero, zero])
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvariantViolation):
            R.load_table(p)


class TestExclusionRegions:
    @pytest.mark.parametrize("n", [2, 8, 16, 32, 64])
    def test_parabola_clear(self, n):
        rep = R.check_exclusion_regions(R.default_table(n))
        assert rep.parabola_margin > 0.0

    def test_szego_proximity_improves_with_order(self):
        lo = R.check_exclusion_regions(R.default_table(16))
        hi = R.check_exclusion_regions(R.default_table(64))
        assert hi.szego_min_dev < lo.szego_min_dev
        assert hi.szego_max_dev < lo.szego_max_dev

    def test_small_order_far_from_curve(self):
        rep = R.check_exclusion_regions(R.default_table(2))
        assert rep.szego_min_dev > 0.1
