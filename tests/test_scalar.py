"""Scalar rational approximation: evaluation routes, bounds, diagnostics."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pfexpm import roots as R
from pfexpm import scalar as S
from pfexpm.errors import (
    ConditionViolated,
    InvariantViolation,
    OrderOutOfRange,
    PoleHit,
)

EPS = sys.float_info.epsilon


def exp_trunc_fraction(n: int, x: float) -> Fraction:
    z = Fraction(x)
    acc = Fraction(0)
    for k in range(n, 0, -1):
        acc = (acc + Fraction(1, math.factorial(k))) * z
    return acc + 1


class TestExpTrunc:
    def test_unit_at_zero(self):
        for n in (0, 1, 2, 5, 64):
            assert S.exp_trunc(n, 0.0) == 1.0
            assert S.exp_trunc(n, 0j) == 1.0 + 0j

    def test_n2_at_minus_one(self):
        # 1 - 1 + 1/2, every step exact in binary64
        assert S.exp_trunc(2, -1.0) == 0.5

    def test_n2_at_its_complex_root(self):
        # 1 + z + z^2/2 vanishes at z = -1+i; Horner happens to be exact here
        assert S.exp_trunc(2, complex(-1.0, 1.0)) == 0.0

    def test_array_matches_scalar(self):
        xs = np.linspace(-3.0, 3.0, 7)
        vals = S.exp_trunc(8, xs)
        assert vals.dtype == np.float64
        for x, v in zip(xs, vals):
            assert v == S.exp_trunc(8, float(x))

    @given(
        st.integers(min_value=1, max_value=12),
        st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
    )
    def test_horner_close_to_exact_polynomial(self, n, x):
        got = S.exp_trunc(n, x)
        want = exp_trunc_fraction(n, x)
        # Horner rounding is below 2n eps on the sum of term magnitudes
        scale = float(sum(abs(Fraction(x)) ** k / math.factorial(k) for k in range(n + 1)))
        assert abs(Fraction(got) - want) <= 2 * n * EPS * scale

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            S.exp_trunc(-1, 0.5)
        with pytest.raises(ValueError):
            S.exp_trunc(True, 0.5)


class TestEvalReciprocal:
    def test_unit_at_zero(self):
        assert S.eval_reciprocal(4, 0.0) == 1.0

    def test_hand_value_n4(self):
        # exp_4(1) = 65/24, so R_4(-1) = 24/65; binary64 reproduces it exactly
        assert abs(S.eval_reciprocal(4, -1.0) - 24.0 / 65.0) <= 5e-17

    def test_pole_hit(self):
        # -z = -1+i is a root of exp_2 and the Horner value is exactly zero
        with pytest.raises(PoleHit):
            S.eval_reciprocal(2, complex(1.0, -1.0))

    def test_array_input(self):
        xs = np.linspace(-10.0, 0.0, 11)
        vals = S.eval_reciprocal(16, xs)
        for x, v in zip(xs, vals):
            assert v == S.eval_reciprocal(16, float(x))


class TestPartialFraction:
    """The binary64 partial-fraction form, read from the cached RootTable."""

    def test_pairing_and_conjugacy(self):
        t = R.default_table(16)
        th, a = t.thetas_f8(), t.coeffs_f8()
        assert th.shape == a.shape == (16,)
        for i in range(0, 16, 2):
            assert th[i + 1] == np.conj(th[i])
            assert a[i + 1] == np.conj(a[i])
            assert th[i].imag > 0.0

    def test_unit_at_zero_all_orders(self):
        # the growth of sum |a_k/theta_k| makes the budget n-dependent
        for n in (2, 8, 16, 32, 64):
            t = R.default_table(n)
            cond = float(np.sum(np.abs(t.coeffs_f8() / t.thetas_f8())))
            gap = abs(S.eval_pf(t, 0.0) - 1.0)
            assert gap <= max(8.0 * n * EPS, cond * EPS)


class TestEvalPf:
    def test_n2_unit_at_zero_exact(self):
        # i/(-1+i) + conj = (1-i)/2 + (1+i)/2; every binary64 step is exact
        pf = R.default_table(2)
        assert S.eval_pf(pf, 0.0) == 1.0

    def test_real_input_real_output(self):
        pf = R.default_table(16)
        v = S.eval_pf(pf, -3.0)
        assert isinstance(v, float)
        # a complex scalar carrying a zero imaginary part takes the real path
        assert S.eval_pf(pf, complex(-3.0, 0.0)) == v

    def test_against_reciprocal_within_m2(self):
        gap = abs(S.eval_pf(R.default_table(16), -5.0) - S.eval_reciprocal(16, -5.0))
        assert gap <= S.bound_m2(16, 16)

    def test_scalar_array_bitwise_agreement(self):
        pf = R.default_table(32)
        xs = np.linspace(-40.0, 0.0, 101)
        arr = S.eval_pf(pf, xs)
        assert arr.dtype == np.float64
        for x, v in zip(xs, arr):
            assert v == S.eval_pf(pf, float(x))

    def test_complex_array_matches_scalar(self):
        pf = R.default_table(8)
        zs = np.array([complex(-2.0, 1.5), complex(-0.5, -3.0)])
        arr = S.eval_pf(pf, zs)
        for z, v in zip(zs, arr):
            assert v == S.eval_pf(pf, complex(z))

    def test_pole_hit_at_exact_pole(self):
        pf = R.default_table(8)
        z = complex(-pf.thetas_f8()[3])
        with pytest.raises(PoleHit):
            S.eval_pf(pf, z)
        with pytest.raises(PoleHit):
            S.eval_pf(pf, np.array([0j, z]))

    @given(st.floats(min_value=-100.0, max_value=0.0, allow_nan=False))
    def test_real_path_has_no_imaginary_leak(self, x):
        pf = R.default_table(8)
        v = S.eval_pf(pf, x)
        assert isinstance(v, float)


class TestBounds:
    def test_m1_exact_values(self):
        assert S.bound_m1(8) == 0.00390625
        assert S.bound_m1(1) == 0.5
        assert S.bound_m1(32) == math.ldexp(1.0, -32)

    def test_m1_rejects_bad_order(self):
        with pytest.raises(ValueError):
            S.bound_m1(0)
        with pytest.raises(ValueError):
            S.bound_m1(True)

    def test_c1_hand_value(self):
        # 2*10^-15 / (0.29044 * (1 - 10^-15))
        want = Fraction(2, 10**15) / (Fraction("0.29044") * (1 - Fraction(1, 10**15)))
        got = S.DigitModel(16).c1()
        assert abs(got - float(want)) <= 4 * EPS * float(want)
        assert abs(got - 6.8861e-15) <= 1e-4 * 6.8861e-15

    def test_condition_violated(self):
        with pytest.raises(ConditionViolated):
            S.bound_m2(32, 2)
        with pytest.raises(ConditionViolated):
            S.DigitModel(16).require(10**15)
        assert S.DigitModel(16).admits(64)

    def test_m2_positive_and_finite(self):
        for n in (4, 16, 32):
            m2 = S.bound_m2(n, 16)
            assert 0.0 < m2 < math.inf


class TestErrorBudget:
    def test_zero_point(self):
        b = S.error_budget(8, 0.0)
        assert b.e2 <= EPS
        assert b.m1 == S.bound_m1(8)

    def test_hand_value_n4(self):
        b = S.error_budget(4, -1.0)
        want = float(Fraction(24, 65)) - math.exp(-1.0)
        assert abs(b.e2 - want) <= 1e-18
        assert b.e2 <= 0.0625
        assert abs(b.e2 - 1.35133e-3) <= 1e-7

    def test_triangle_holds_on_sample(self):
        for n in (4, 16, 32):
            for x in (-0.5, -5.0, -50.0, -100.0):
                b = S.error_budget(n, x)
                assert b.e1 <= b.e2 + b.e3 + 4 * EPS

    def test_condition_gate(self):
        with pytest.raises(ConditionViolated):
            S.error_budget(32, -1.0, D=2)

    def test_rejects_positive_x(self):
        with pytest.raises(ValueError):
            S.error_budget(8, 0.5)

    def test_budget_invariant_enforced(self):
        with pytest.raises(InvariantViolation):
            S.ErrorBudget(n=8, x=-1.0, e1=1.0, e2=0.1, e3=0.1, m1=S.bound_m1(8), m2=1.0)
        with pytest.raises(InvariantViolation):
            S.ErrorBudget(n=8, x=-1.0, e1=0.1, e2=0.1, e3=0.1, m1=0.004, m2=1.0)


class TestApproxError:
    def test_agrees_with_direct_difference_where_benign(self):
        # points chosen so the direct binary64 subtraction keeps >= 8 digits
        for n, xs in ((4, (-1.0, -3.0, -6.0, -8.0)), (8, (-3.0, -5.0, -9.0, -11.0))):
            for x in xs:
                direct = S.eval_reciprocal(n, x) - math.exp(x)
                e = S.approx_error(n, x)
                assert e > 0.0
                assert abs(e - direct) <= 1e-8 * e

    def test_branch_seam_is_smooth(self):
        # the two evaluation branches meet at x = -(n+1)
        for n in (4, 16):
            lo = S.approx_error(n, -(n + 1.0) - 1e-7)
            hi = S.approx_error(n, -(n + 1.0) + 1e-7)
            assert abs(lo - hi) <= 1e-6 * hi

    def test_scalar_and_array_forms(self):
        xs = np.linspace(-30.0, 0.0, 50)
        arr = S.approx_error(8, xs)
        assert arr.shape == xs.shape
        for x, v in zip(xs, arr):
            assert v == S.approx_error(8, float(x))

    @pytest.mark.parametrize("n", [2, 8, 16, 32, 64])
    def test_float_path_within_one_ulp_of_the_array_path(self, n):
        xs = np.linspace(-200.0, 0.0, 801)
        arr = S.approx_error(n, xs)
        floats = np.array([S.approx_error(n, float(x)) for x in xs])
        assert all(type(S.approx_error(n, float(x))) is float for x in xs[::100])
        assert np.all(np.abs(floats - arr) <= np.spacing(np.abs(arr)))

    def test_zero_at_origin_and_domain_guard(self):
        assert S.approx_error(8, 0.0) == 0.0
        with pytest.raises(ValueError):
            S.approx_error(8, 0.5)
        with pytest.raises(OrderOutOfRange):
            S.approx_error(7, -1.0)


class TestErrMaxLocation:
    def test_bracket_all_orders(self):
        for n in (2, 4, 8, 16, 32):
            xi, val = S.err_max_location(n)
            assert -(n + 2.0) < xi < -n / 2.0
            assert val > 0.0

    def test_grid_oracle_n4(self):
        xi, val = S.err_max_location(4, tol=1e-10)
        grid = np.linspace(-20.0, 0.0, 100000)
        errs = S.approx_error(4, grid)
        k = int(np.argmax(errs))
        # grid quantization: curvature times (spacing/2)^2 is about 5e-12
        assert abs(val - errs[k]) <= 2e-11
        assert val >= errs[k] - 1e-15
        assert abs(xi - grid[k]) <= grid[1] - grid[0]

    def test_tolerance_semantics(self):
        a, _ = S.err_max_location(16, tol=1e-4)
        b, _ = S.err_max_location(16, tol=1e-11)
        assert abs(a - b) <= 1e-4 + 1e-11

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            S.err_max_location(4, tol=0.0)
        with pytest.raises(OrderOutOfRange):
            S.err_max_location(5)


class TestSeriesCoefficients:
    def test_n2_exact_list(self):
        c = S.series_coefficients(2, 4)
        assert c == [
            Fraction(1),
            Fraction(1),
            Fraction(1, 2),
            Fraction(0),
            Fraction(-1, 4),
        ]
        assert math.factorial(4) * c[4] == -6

    def test_interpolation_order(self):
        # the first n+1 coefficients reproduce the exponential exactly
        for n in (2, 4, 8, 16, 32):
            c = S.series_coefficients(n, n)
            for m in range(n + 1):
                assert math.factorial(m) * c[m] == 1

    def test_tail_weights(self):
        for n in (2, 4, 8, 16):
            c = S.series_coefficients(n, n + 2)
            assert math.factorial(n + 1) * c[n + 1] == 0
            assert math.factorial(n + 2) * c[n + 2] == -2 * (n + 1)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            S.series_coefficients(0, 4)
        with pytest.raises(ValueError):
            S.series_coefficients(4, -1)


class TestFnInequalities:
    def test_half_bound_n4(self):
        rep = S.check_fn_inequalities(4, [5.0])
        assert rep.half_ok
        assert rep.half_value < 0.5

    def test_unit_point_margin_exact(self):
        # f_k(0) = 1 for every k, so the margin is 3/2 - 1 exactly
        rep = S.check_fn_inequalities(2, [0.0])
        assert rep.worst_margin == 0.5
        assert rep.ok

    def test_ratio_inequality_n10(self):
        rep = S.check_fn_inequalities(10, np.linspace(0.0, 30.0, 100))
        assert rep.ratio_ok
        assert rep.worst_margin >= 0.0

    def test_empty_points_vacuous(self):
        rep = S.check_fn_inequalities(4, [])
        assert rep.ratio_ok

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            S.check_fn_inequalities(0, [1.0])


class TestExtendedPrecisionRoutes:
    def test_routes_agree_to_1e20(self):
        # partial fractions are an identity; in the 50-digit context of the
        # tables both routes reproduce each other far below the 1e-20
        # contract, the stored double-double values limiting the gap
        rng = np.random.default_rng(20260816)
        worst = 0.0
        for n in (2, 8, 14, 20):
            t = R.default_table(n)
            for x in -50.0 * rng.random(25):
                gap = abs(float(S.eval_reciprocal_mp(t, float(x)) - S.eval_pf_mp(t, float(x))))
                worst = max(worst, gap)
        assert worst <= 1e-20
        assert worst <= 1e-27  # measured 3.8e-32; regression guard


class TestUniformProperties:
    GRID = np.linspace(-100.0, 0.0, 10000)

    def test_m1_bound_on_grid(self):
        for n in (4, 8, 16, 32):
            e2 = np.abs(np.exp(self.GRID) - S.eval_reciprocal(n, self.GRID))
            assert e2.max() <= S.bound_m1(n)

    def test_m2_bound_on_grid(self):
        for n in (4, 8, 16, 32):
            pf = R.default_table(n)
            e3 = np.abs(S.eval_reciprocal(n, self.GRID) - S.eval_pf(pf, self.GRID))
            assert e3.max() <= S.bound_m2(n, 16)

    def test_unimodality_of_true_error(self):
        for n in (2, 4, 8, 16):
            g = np.linspace(-4.0 * n, 0.0, 10000)
            e = S.approx_error(n, g)
            d = np.diff(e)
            d = d[d != 0.0]
            assert np.sum(np.diff(np.sign(d)) != 0) == 1

    def test_positivity_of_true_error(self):
        for n in (2, 4, 8, 16):
            g = np.linspace(-4.0 * n, 0.0, 10000)
            e = S.approx_error(n, g)
            assert np.all(e[g < 0.0] > 0.0)

    def test_binary64_error_floor_location(self):
        # in binary64 the uniform partial-fraction error stops improving
        # around n in the low/mid thirties and then degrades
        uniform = {}
        for n in range(2, 65, 2):
            pf = R.default_table(n)
            uniform[n] = float(np.abs(np.exp(self.GRID) - S.eval_pf(pf, self.GRID)).max())
        nmin = min(uniform, key=uniform.get)
        assert 28 <= nmin <= 44
        assert uniform[64] > uniform[nmin]
