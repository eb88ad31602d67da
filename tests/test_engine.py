"""Tests for the R_n(A) engine: reference examples, certified
bounds, shift method, thread-count determinism, and spectral properties."""

import dataclasses
import math
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import zgbtrf

import pfexpm.engine as engine
import pfexpm.linalg as linalg

from pfexpm.engine import (
    MODE_ACTION,
    MODE_FULL,
    SHIFT_MAX,
    SOLVE_GROWTH,
    ExpOptions,
    ExpResult,
    apriori_bound,
    matexp_action,
    matexp_full,
    matexp_shifted,
)
from pfexpm.errors import BadSpec, InvariantViolation, Overflow
from pfexpm.errors import OrderTooSmallWarning
from pfexpm.linalg import (
    HermitianMatrix,
    SpectralBounds,
    _band_pays,
    eig_hermitian,
    exp_oracle,
    gershgorin_bounds,
    norm2,
    shifted_inverse,
)
from pfexpm.roots import default_table
from pfexpm.scalar import approx_error, eval_pf, eval_reciprocal

EPS = float(np.finfo(np.float64).eps)


def lap1d(d: int) -> HermitianMatrix:
    A = np.zeros((d, d))
    idx = np.arange(d)
    A[idx, idx] = -2.0
    A[idx[:-1], idx[:-1] + 1] = 1.0
    A[idx[:-1] + 1, idx[:-1]] = 1.0
    return HermitianMatrix(A)


def lap2d(m: int) -> HermitianMatrix:
    B = lap1d(m).entries.real
    I = np.eye(m)
    return HermitianMatrix(np.kron(B, I) + np.kron(I, B))


def random_spectrum(d, lo, hi, seed, trial=0) -> HermitianMatrix:
    rng = np.random.default_rng([seed, trial])
    lam = np.sort(rng.uniform(lo, hi, d))
    Q, R = np.linalg.qr(rng.standard_normal((d, d)))
    Q = Q * np.sign(np.diag(R))
    A = (Q * lam) @ Q.T
    A = (A + A.T) / 2.0
    return HermitianMatrix(
        A, bounds=SpectralBounds(float(lam[0]), float(lam[-1]), exact=True)
    )


def complex_negative(d, seed) -> HermitianMatrix:
    """Complex Hermitian with spectrum in [-rho, 0], padded bounds attached.

    The lower end is padded by 1%: a certificate pinned exactly at the extreme
    eigenvalue makes the a priori bound attained to the last digit, and fp
    solve noise then breaks `err <= bound` at the 1e-6 relative level.
    """
    rng = np.random.default_rng(seed)
    C = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    A = -(C @ C.conj().T) / d
    A = (A + A.conj().T) / 2.0
    w = np.linalg.eigvalsh(A)
    return HermitianMatrix(
        A, bounds=SpectralBounds(float(1.01 * w[0]), min(float(w[-1]), 0.0), exact=False)
    )


class TestExpOptions:
    def test_defaults(self):
        opts = ExpOptions()
        assert opts.n == 16 and opts.mode == MODE_FULL and opts.shift is None
        assert opts.parallel and opts.threads == "auto"

    def test_bad_mode(self):
        with pytest.raises(BadSpec):
            ExpOptions(mode="banana")

    @pytest.mark.parametrize("shift", ["AUTO", float("inf"), float("nan"), True])
    def test_bad_shift(self, shift):
        with pytest.raises(BadSpec):
            ExpOptions(shift=shift)

    @pytest.mark.parametrize("threads", [0, -2, 1.5, True, "four"])
    def test_bad_threads(self, threads):
        with pytest.raises(BadSpec):
            ExpOptions(threads=threads)

    def test_odd_order_rejected(self):
        with pytest.raises(Exception):
            ExpOptions(n=7)

    def test_worker_count(self):
        """Every call runs its pole pairs in one thread, whatever the options."""
        for opts in (
            ExpOptions(parallel=False, threads=8),
            ExpOptions(threads=3),
            ExpOptions(threads=16),
            ExpOptions(threads="auto"),
            ExpOptions(),
        ):
            assert opts.worker_count(8) == 1
            assert opts.worker_count(4) == 1


class TestExpResult:
    def test_bound_and_kind_come_together(self):
        with pytest.raises(InvariantViolation):
            ExpResult(
                value=np.eye(2),
                error_bound=0.5,
                bound_kind=None,
                per_term_times=(1.0,),
                t_total=1.0,
            )
        with pytest.raises(InvariantViolation):
            ExpResult(
                value=np.eye(2),
                error_bound=None,
                bound_kind="absolute",
                per_term_times=(1.0,),
                t_total=1.0,
            )


class TestAprioriBound:
    def test_rho1_n4_hand_value(self):
        # R_4(-1) - e^{-1} with R_4(-1) = 24/65 exactly
        got = apriori_bound(SpectralBounds(-1.0, 0.0), 4)
        want = 24.0 / 65.0 - math.exp(-1.0)
        assert math.isclose(got, want, rel_tol=1e-12)
        assert math.isclose(got, 0.0013513280593269172, rel_tol=1e-12)

    def test_rho1_n2_order_too_small(self):
        # n = 2 <= 2 rho: the uniform bound M1 = 2^-n on the half-line
        assert apriori_bound(SpectralBounds(-1.0, 0.0), 2) == 2.0**-2
        assert apriori_bound(SpectralBounds(-8.0, -1.0), 16) == 2.0**-16

    def test_rho4_n16_below_2_pow_16(self):
        eps = apriori_bound(SpectralBounds(-4.0, 0.0), 16)
        assert 0.0 < eps <= 2.0**-16

    def test_positive_interval_rejected(self):
        with pytest.raises(BadSpec):
            apriori_bound(SpectralBounds(-1.0, 0.5), 16)


class TestMatexpFull:
    def test_zero_matrix_is_identity(self):
        d, n = 7, 8
        res = matexp_full(HermitianMatrix(np.zeros((d, d))), ExpOptions(n=n))
        assert np.max(np.abs(res.value - np.eye(d))) <= n * d * EPS
        assert res.bound_kind == "absolute" and res.error_bound == 0.0

    def test_diagonal_example(self):
        A = HermitianMatrix(np.diag([-1.0, 0.0]))
        res = matexp_full(A, ExpOptions(n=8))
        want = np.diag([eval_reciprocal(8, -1.0), 1.0])
        assert np.max(np.abs(res.value - want)) <= 1e-14

    def test_lap1d_d100_bound(self):
        A = lap1d(100)
        res = matexp_full(A, ExpOptions(n=16))
        err = norm2(res.value - exp_oracle(A))
        assert res.bound_kind == "absolute"
        assert err <= res.error_bound <= 2.0**-16
        # the reported bound is the scalar bound at the Gershgorin radius 4
        assert math.isclose(res.error_bound, approx_error(16, -4.0), rel_tol=1e-12)

    def test_mode_mismatch(self):
        A = lap1d(4)
        with pytest.raises(BadSpec):
            matexp_full(A, ExpOptions(mode=MODE_ACTION))
        with pytest.raises(BadSpec):
            matexp_action(A, np.ones(4), ExpOptions(mode=MODE_FULL))

    def test_certified_positive_spectrum_refused_unshifted(self):
        A = random_spectrum(10, 1.0, 2.0, seed=5)
        with pytest.raises(BadSpec):
            matexp_full(A, ExpOptions(n=8))

    def test_complex_hermitian_accuracy(self):
        A = complex_negative(30, seed=11)
        res = matexp_full(A, ExpOptions(n=24))
        err = norm2(res.value - exp_oracle(A))
        assert res.error_bound is not None and err <= res.error_bound


class TestMatexpAction:
    def test_zero_matrix_returns_v(self):
        d, n = 9, 8
        rng = np.random.default_rng(3)
        v = rng.standard_normal(d)
        res = matexp_action(
            HermitianMatrix(np.zeros((d, d))), v, ExpOptions(n=n, mode=MODE_ACTION)
        )
        assert np.max(np.abs(res.value - v)) <= n * d * EPS * np.max(np.abs(v))

    def test_diagonal_example(self):
        A = HermitianMatrix(np.diag([-1.0, -2.0]))
        res = matexp_action(A, np.array([1.0, 1.0]), ExpOptions(n=8, mode=MODE_ACTION))
        want = np.array([eval_reciprocal(8, -1.0), eval_reciprocal(8, -2.0)])
        assert np.max(np.abs(res.value - want)) <= 1e-14

    def test_lap2d_d400_action_bound(self):
        A = lap2d(20)  # d = 400, spectrum inside [-8, 0]
        rng = np.random.default_rng(17)
        v = rng.standard_normal(400)
        v /= np.linalg.norm(v)
        rho = norm2(A)  # exact spectral radius, tighter than Gershgorin's 8
        want = exp_oracle(A) @ v

        # n = 16 > 2 rho: truncation dominates fp noise and the scalar bound
        # at the exact radius holds outright; Gershgorin's rho = 8 gives
        # n <= 2 rho, so the engine reports the uniform bound 2^-16
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = matexp_action(A, v, ExpOptions(n=16, mode=MODE_ACTION))
        err = float(np.linalg.norm(res.value - want))
        assert err <= approx_error(16, -rho)
        assert res.error_bound == 2.0**-16 and res.bound_kind == "absolute"
        assert err <= res.error_bound + res.rounding_bound

        # n = 32: the scalar bound (~1e-14 at rho ~ 7.96) sinks below the
        # d = 400 solve noise floor, so only an fp-level guard is meaningful
        res32 = matexp_action(A, v, ExpOptions(n=32, mode=MODE_ACTION))
        err32 = float(np.linalg.norm(res32.value - want))
        assert math.isclose(res32.error_bound, approx_error(32, -8.0), rel_tol=1e-12)
        assert err32 <= 1e-12

    def test_shape_mismatch(self):
        A = lap1d(5)
        with pytest.raises(BadSpec):
            matexp_action(A, np.ones(4), ExpOptions(mode=MODE_ACTION))

    def test_complex_action_matches_full(self):
        A = complex_negative(25, seed=23)
        rng = np.random.default_rng(29)
        v = rng.standard_normal(25) + 1j * rng.standard_normal(25)
        opts_a = ExpOptions(n=16, mode=MODE_ACTION)
        res_a = matexp_action(A, v, opts_a)
        res_f = matexp_full(A, ExpOptions(n=16))
        assert np.linalg.norm(res_a.value - res_f.value @ v) <= 1e-11 * np.linalg.norm(v)

    def test_complex_v_real_matrix(self):
        A = lap1d(12)
        rng = np.random.default_rng(31)
        v = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        res = matexp_action(A, v, ExpOptions(n=16, mode=MODE_ACTION))
        full = matexp_full(A, ExpOptions(n=16))
        assert np.iscomplexobj(res.value)
        assert np.linalg.norm(res.value - full.value @ v) <= 1e-12 * np.linalg.norm(v)


class TestShifted:
    def test_auto_shift_zero_reduces_to_full(self):
        A = HermitianMatrix(np.diag([0.0, -1.0, -3.0]))
        res_s = matexp_shifted(A, ExpOptions(n=16, shift="auto"))
        res_f = matexp_full(A, ExpOptions(n=16))
        assert res_s.c_applied == 0.0
        # e^0 = 1.0 scaling is exact, so values agree bitwise
        assert np.array_equal(res_s.value, res_f.value)
        assert res_s.bound_kind == "relative"

    def test_positive_spectrum_relative_error(self):
        # spectrum in [0, 20] forces the shift; with exact bounds c = alpha(A)
        # and the observed relative error sits at the scalar level 2^-n
        A = random_spectrum(50, 0.0, 20.0, seed=0)
        res = matexp_shifted(A, ExpOptions(n=32, shift="auto"))
        E = exp_oracle(A)
        rel = norm2(res.value - E) / norm2(E)
        assert rel <= 2.0**-32
        # n = 32 <= 2 rho' ~ 40: the uniform bound 2^-32, scaled by e^(c - alpha)
        assert res.c_applied == A.bounds.hi
        assert res.bound_kind == "relative"
        assert res.error_bound == 2.0**-32 * math.exp(res.c_applied - A.bounds.hi)
        assert rel <= res.error_bound + res.rounding_bound

    def test_fixed_shift_value_and_bound(self):
        # a needlessly large shift degrades absolute accuracy by e^c, exactly
        # as the relative bound predicts; padded lo keeps the bound off the
        # knife edge (an eigenvalue exactly at -rho' attains it to fp noise)
        A = HermitianMatrix(
            np.diag([-1.0, 0.0]), bounds=SpectralBounds(-1.5, 0.0, exact=True)
        )
        res = matexp_shifted(A, ExpOptions(n=16, shift=5.0))
        want = np.diag([math.exp(-1.0), 1.0])
        assert res.c_applied == 5.0 and res.bound_kind == "relative"
        # bound = e^{c - alpha} * err_16(-rho'), rho' = |-1.5 - 5| = 6.5
        assert math.isclose(
            res.error_bound, math.exp(5.0) * approx_error(16, -6.5), rel_tol=1e-12
        )
        rel = norm2(res.value - want) / norm2(want)
        assert rel <= res.error_bound
        # attained error is e^5 * err_16(-6), about 6.4e-5
        assert np.max(np.abs(res.value - want)) <= 1e-4

    def test_relative_bound_holds_with_estimated_alpha(self):
        # no bounds attached: c from Gershgorin, alpha lower bound from the
        # largest diagonal entry (Rayleigh certificate)
        rng = np.random.default_rng(41)
        A0 = np.diag([1.0, 0.5, -0.3])
        N = rng.standard_normal((3, 3)) * 1e-3
        A = HermitianMatrix(A0 + (N + N.T) / 2.0)
        res = matexp_shifted(A, ExpOptions(n=8, shift="auto"))
        assert res.bound_kind == "relative"
        E = exp_oracle(A)
        rel = norm2(res.value - E) / norm2(E)
        assert rel <= res.error_bound

    def test_overflowing_shift_refused(self):
        A = HermitianMatrix(np.diag([0.0, -1.0]))
        with pytest.raises(Overflow):
            matexp_shifted(A, ExpOptions(n=8, shift=800.0))
        B = HermitianMatrix(
            np.diag([800.0, 0.0]), bounds=SpectralBounds(0.0, 800.0, exact=True)
        )
        with pytest.raises(Overflow):
            matexp_shifted(B, ExpOptions(n=8, shift="auto"))
        assert SHIFT_MAX < 709.78

    def test_shift_none_rejected(self):
        A = HermitianMatrix(np.diag([-1.0, 0.0]))
        with pytest.raises(BadSpec):
            matexp_shifted(A, ExpOptions(n=8, shift=None))

    def test_action_through_shift(self):
        A = random_spectrum(40, 0.0, 5.0, seed=9)
        rng = np.random.default_rng(10)
        v = rng.standard_normal(40)
        v /= np.linalg.norm(v)
        res = matexp_shifted(A, ExpOptions(n=32, mode=MODE_ACTION, shift="auto"), v=v)
        want = exp_oracle(A) @ v
        rel = float(np.linalg.norm(res.value - want) / np.linalg.norm(want))
        assert rel <= 1e-9
        assert res.bound_kind == "relative"


class TestDeterminism:
    @pytest.mark.parametrize("make", [lambda: lap1d(40), lambda: complex_negative(24, 7)])
    def test_full_thread_count_invariance(self, make):
        A = make()
        base = matexp_full(A, ExpOptions(n=16, threads=1)).value
        for threads in (2, 8):
            got = matexp_full(A, ExpOptions(n=16, threads=threads)).value
            assert np.array_equal(base, got)
        got = matexp_full(A, ExpOptions(n=16, parallel=False)).value
        assert np.array_equal(base, got)

    def test_action_thread_count_invariance(self):
        A = lap1d(60)
        rng = np.random.default_rng(13)
        v = rng.standard_normal(60)
        base = matexp_action(A, v, ExpOptions(n=32, mode=MODE_ACTION, threads=1)).value
        for threads in (2, 8):
            got = matexp_action(
                A, v, ExpOptions(n=32, mode=MODE_ACTION, threads=threads)
            ).value
            assert np.array_equal(base, got)

    def test_shifted_thread_count_invariance(self):
        A = random_spectrum(30, 0.0, 3.0, seed=21)
        base = matexp_shifted(A, ExpOptions(n=16, shift="auto", threads=1)).value
        got = matexp_shifted(A, ExpOptions(n=16, shift="auto", threads=8)).value
        assert np.array_equal(base, got)


class TestSpectralProperties:
    def test_diagonal_commutation(self):
        n = 16
        xs = np.linspace(-4.0, 0.0, 9)
        A = HermitianMatrix(np.diag(xs))
        res = matexp_full(A, ExpOptions(n=n))
        pf = default_table(n)
        want = np.array([eval_pf(pf, float(x)) for x in xs])
        assert np.max(np.abs(np.diag(res.value) - want)) <= 4.0 * EPS * n
        off = res.value - np.diag(np.diag(res.value))
        assert np.max(np.abs(off)) <= 4.0 * EPS

    def test_similarity_covariance(self):
        A = random_spectrum(25, -3.0, 0.0, seed=37)
        w, U = eig_hermitian(A)
        L = HermitianMatrix(np.diag(w), bounds=A.bounds)
        opts = ExpOptions(n=16)
        RA = matexp_full(A, opts).value
        RL = matexp_full(L, opts).value
        gap = norm2(RA - U @ RL @ U.conj().T)
        assert gap <= 1e-10 * norm2(RA)

    def test_real_closure(self):
        A = lap1d(20)
        res = matexp_full(A, ExpOptions(n=16))
        assert res.value.dtype.kind == "f"
        v = np.ones(20)
        res_a = matexp_action(A, v, ExpOptions(n=16, mode=MODE_ACTION))
        assert res_a.value.dtype.kind == "f"

    @pytest.mark.parametrize("d", [20, 50])
    @pytest.mark.parametrize("n", [10, 12, 16])
    def test_bound_validity_lap1d(self, d, n):
        # Gershgorin sees [-4, 0], so n must exceed 8; above n ~ 20 the
        # scalar bound sinks below the fp solve floor and stops being
        # observable, so the check is run where truncation dominates
        A = lap1d(d)
        res = matexp_full(A, ExpOptions(n=n))
        assert res.error_bound is not None
        err = norm2(res.value - exp_oracle(A))
        assert err <= res.error_bound

    def test_order_too_small_warns_and_withholds_bound(self):
        # n <= 2 rho no longer withholds the bound: Gershgorin [-8, 0], n = 16
        A = lap2d(6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = matexp_full(A, ExpOptions(n=16))
        assert res.error_bound == 2.0**-16 and res.bound_kind == "absolute"
        assert norm2(res.value - exp_oracle(A)) <= res.error_bound + res.rounding_bound
        # an interval reaching above 0 still warns and withholds it
        with pytest.warns(OrderTooSmallWarning):
            res = matexp_full(HermitianMatrix(A.entries + 0.5 * np.eye(A.d)), ExpOptions(n=16))
        assert res.error_bound is None and res.bound_kind is None

    def test_gershgorin_fuzz_keeps_bound(self):
        # a spectral estimate a hair above 0 (the typical residue of shifting
        # a matrix by its own Gershgorin end) must keep the bound, gaining an
        # explicit sliver term instead of vanishing with a warning
        Bp = lap1d(30).entries.real.copy()
        Bp[5, 5] += 1e-13  # interior row: Gershgorin hi becomes +1e-13
        B = HermitianMatrix(Bp)
        hi = gershgorin_bounds(B).hi
        assert 0.0 < hi <= 1e-10
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = matexp_full(B, ExpOptions(n=16))
        assert res.error_bound is not None
        err = norm2(res.value - exp_oracle(B))
        assert err <= res.error_bound

    def test_timing_fields(self):
        A = lap1d(30)
        res = matexp_full(A, ExpOptions(n=16))
        assert len(res.per_term_times) == 8
        assert all(t >= 0.0 for t in res.per_term_times)
        assert res.t_para == max(res.per_term_times)
        assert res.t_total >= 0.0


class TestWarningAttribution:
    @pytest.mark.parametrize("route", ["full", "action", "shifted", "full-shift-fixed"])
    def test_order_warning_points_at_caller(self, route):
        # unshifted, P's Gershgorin interval [-7.5, 0.5] reaches above 0; a
        # fixed shift c = -1 below the top 0 of lap2d's moves it to [-7, 1]
        A = lap2d(6)
        P = HermitianMatrix(A.entries + 0.5 * np.eye(A.d))
        v = np.ones(A.d)
        call = {
            "full": lambda: matexp_full(P, ExpOptions(n=16)),
            "action": lambda: matexp_action(P, v, ExpOptions(n=16, mode=MODE_ACTION)),
            "shifted": lambda: matexp_shifted(A, ExpOptions(n=16, shift=-1.0)),
            "full-shift-fixed": lambda: matexp_full(A, ExpOptions(n=16, shift=-1.0)),
        }[route]
        with pytest.warns(OrderTooSmallWarning) as record:
            call()
        assert [w.filename for w in record] == [__file__]


class TestBadInput:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: HermitianMatrix(np.diag([-1.0, np.nan])),
            lambda: HermitianMatrix(np.diag([-1.0, np.inf])),
            lambda: HermitianMatrix(np.zeros((0, 0))),
            lambda: matexp_action(
                lap1d(4), np.array([1.0, np.nan, 0.0, 0.0]), ExpOptions(n=16, mode=MODE_ACTION)
            ),
        ],
        ids=["nan-entry", "inf-entry", "d0", "nan-v"],
    )
    def test_rejected_early_with_badspec(self, make):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning on the way
            with pytest.raises(BadSpec):
                make()

    def test_bounds_must_contain_the_diagonal(self):
        # a_ii = e_i^H A e_i lies in the spectrum's hull: [-1, 0] cannot hold
        # diag(-10, -1), whose n = 4 error 1.5e-3 exceeds the bound 1.35e-3
        with pytest.raises(BadSpec):
            HermitianMatrix(np.diag([-10.0, -1.0]), bounds=SpectralBounds(-1.0, 0.0, exact=True))
        # rounding-level excursions stay within the Hermitian-check slack
        HermitianMatrix(np.diag([-1.0 - 1e-14, 1e-14]), bounds=SpectralBounds(-1.0, 0.0))


def _hermitian(seed: int, d: int, complex_: bool, lo: float, hi: float) -> np.ndarray:
    rng = np.random.default_rng(seed)
    lam = rng.uniform(lo, hi, d)
    Z = rng.standard_normal((d, d))
    if complex_:
        Z = Z + 1j * rng.standard_normal((d, d))
    Q, _ = np.linalg.qr(Z)
    A = (Q * lam) @ Q.conj().T
    return (A + A.conj().T) / 2.0, lam


class TestSinglePath:
    """shift= on matexp_full/matexp_action, matexp_shifted and an explicitly
    shifted matrix all describe one computation; the thread count never
    changes a bit of it."""

    @pytest.mark.parametrize("mode", [MODE_FULL, MODE_ACTION])
    @pytest.mark.parametrize("shift", [None, "auto", "fixed"])
    @pytest.mark.parametrize("attach", [False, True], ids=["gershgorin", "attached"])
    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    @settings(max_examples=8)
    @given(
        seed=st.integers(0, 2**16),
        d=st.integers(1, 6),
        lo=st.floats(-6.0, 0.0),
        width=st.floats(0.0, 4.0),
        delta=st.floats(0.0, 3.0),
        n=st.sampled_from([8, 16]),
    )
    def test_one_computation(self, complex_, attach, shift, mode, seed, d, lo, width, delta, n):
        entries, lam = _hermitian(seed, d, complex_, lo, lo + width)
        bounds = SpectralBounds(float(lam.min()), float(lam.max()), exact=True) if attach else None
        A = HermitianMatrix(entries, bounds=bounds)
        interval = bounds if attach else gershgorin_bounds(A)
        if shift == "fixed":
            shift = interval.hi + delta  # c >= alpha(A): the bound survives
        if shift is None and interval.hi > 0.0:
            shift = "auto"
        rng = np.random.default_rng(seed + 1)
        v = rng.standard_normal(d) + (1j * rng.standard_normal(d) if complex_ else 0.0)

        def run(entry, threads):
            opts = ExpOptions(n=n, mode=mode, shift=shift, threads=threads)
            if entry == "shifted":
                return matexp_shifted(A, opts, v=v if mode == MODE_ACTION else None)
            if mode == MODE_ACTION:
                return matexp_action(A, v, opts)
            return matexp_full(A, opts)

        res = run("plain", 1)
        assert np.array_equal(res.value, run("plain", 2).value)
        if shift is None:
            assert res.c_applied is None
            return
        shifted = run("shifted", 2)
        assert np.array_equal(res.value, shifted.value)
        assert res.c_applied == shifted.c_applied
        assert (res.error_bound, res.bound_kind) == (shifted.error_bound, shifted.bound_kind)

        # against exp(c) R_n(B) for the explicitly formed B = A - cI
        c = res.c_applied
        b_bounds = None
        if attach:
            b_bounds = SpectralBounds(bounds.lo - c, bounds.hi - c, exact=True)
        B = HermitianMatrix(entries - c * np.eye(d), bounds=b_bounds)
        opts = ExpOptions(n=n, mode=mode)
        ref = matexp_action(B, v, opts) if mode == MODE_ACTION else matexp_full(B, opts)
        want = math.exp(c) * ref.value
        assert np.linalg.norm(res.value - want) <= 1e-12 * np.linalg.norm(want)
        if ref.error_bound is None:
            assert res.error_bound is None and res.bound_kind is None
        else:
            alpha = bounds.hi if attach else float(np.max(np.diag(entries).real))
            scale = math.exp(c - alpha)
            # Gershgorin of the explicit B and the folded interval differ by a
            # few ulps, which moves err_n(-rho) by ~ (n+1) ulp / rho relative:
            # bounds below err_n(-0.1) are compared absolutely
            assert res.bound_kind == "relative"
            assert math.isclose(
                res.error_bound,
                scale * ref.error_bound,
                rel_tol=1e-12,
                abs_tol=scale * approx_error(n, -0.1),
            )


class TestRoundingBound:
    """error_bound + rounding_bound bounds the error of the value returned."""

    @staticmethod
    def total(res) -> float:
        return res.error_bound + res.rounding_bound

    def test_full_real(self):
        A = lap1d(100)
        res = matexp_full(A, ExpOptions(n=16))
        err = norm2(res.value - exp_oracle(A))
        assert res.bound_kind == "absolute" and 0.0 < res.rounding_bound < res.error_bound
        assert err <= self.total(res)

    def test_full_complex(self):
        A = complex_negative(30, seed=11)
        res = matexp_full(A, ExpOptions(n=24))
        assert norm2(res.value - exp_oracle(A)) <= self.total(res)

    def test_action_real_and_complex(self):
        rng = np.random.default_rng(43)
        for A in (lap1d(60), complex_negative(25, seed=23)):
            v = rng.standard_normal(A.d) + 1j * rng.standard_normal(A.d)
            if A.is_real():
                v = v.real
            res = matexp_action(A, v, ExpOptions(n=32, mode=MODE_ACTION))
            err = float(np.linalg.norm(res.value - exp_oracle(A) @ v))
            assert err <= self.total(res) * np.linalg.norm(v)

    @pytest.mark.parametrize("mode", [MODE_FULL, MODE_ACTION])
    def test_shifted_relative(self, mode):
        A = random_spectrum(40, 0.0, 3.0, seed=9)
        v = np.random.default_rng(10).standard_normal(40)
        E = exp_oracle(A)
        res = matexp_shifted(A, ExpOptions(n=32, mode=mode, shift="auto"),
                             v=v if mode == MODE_ACTION else None)
        assert res.bound_kind == "relative" and res.rounding_bound > 0.0
        if mode == MODE_ACTION:
            rel = np.linalg.norm(res.value - E @ v) / (norm2(E) * np.linalg.norm(v))
        else:
            rel = norm2(res.value - E) / norm2(E)
        assert rel <= self.total(res)

    def test_lap1d_n32_needs_the_rounding_term(self):
        # the truncation term (~3e-21) lies below binary64 resolution of
        # exp(A), whose entries are about 1; rounding covers the gap
        A = lap1d(100)
        res = matexp_full(A, ExpOptions(n=32))
        err = norm2(res.value - exp_oracle(A))
        assert err > res.error_bound
        assert err <= self.total(res)

    def test_grows_with_d_not_with_entries(self):
        # a priori: a function of the interval, n and d only
        r50 = matexp_full(lap1d(50), ExpOptions(n=16)).rounding_bound
        r100 = matexp_full(lap1d(100), ExpOptions(n=16)).rounding_bound
        B = HermitianMatrix(np.diag(np.linspace(-4.0, 0.0, 100)))
        assert r50 < r100 == matexp_full(B, ExpOptions(n=16)).rounding_bound

    def test_none_exactly_when_error_bound_none(self):
        P = HermitianMatrix(lap2d(6).entries + 0.5 * np.eye(36))  # Gershgorin hi = 0.5
        with pytest.warns(OrderTooSmallWarning):
            res = matexp_full(P, ExpOptions(n=16))
        assert res.error_bound is None and res.rounding_bound is None
        for bound, kind, rounding in ((0.5, "absolute", None), (None, None, 0.1)):
            with pytest.raises(InvariantViolation):
                ExpResult(
                    value=np.eye(2),
                    error_bound=bound,
                    bound_kind=kind,
                    per_term_times=(1.0,),
                    t_total=1.0,
                    rounding_bound=rounding,
                )

    @pytest.mark.parametrize("mode", [MODE_FULL, MODE_ACTION])
    @pytest.mark.parametrize("shift", [None, "auto"])
    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    @settings(max_examples=8)
    @given(
        seed=st.integers(0, 2**16),
        d=st.integers(1, 40),
        lo=st.floats(-6.0, 0.0),
        width=st.floats(0.0, 6.0),
        n=st.sampled_from([8, 16, 32]),
    )
    def test_sum_bounds_the_returned_value(self, complex_, shift, mode, seed, d, lo, width, n):
        entries, lam = _hermitian(seed, d, complex_, lo, lo + width)
        A = HermitianMatrix(entries)
        if shift is None and gershgorin_bounds(A).hi > 0.0:
            shift = "auto"
        v = np.random.default_rng(seed + 1).standard_normal(d)
        if mode == MODE_ACTION:
            res = matexp_action(A, v, ExpOptions(n=n, mode=mode, shift=shift))
        else:
            res = matexp_full(A, ExpOptions(n=n, shift=shift))
        assert (res.error_bound is None) == (res.rounding_bound is None)
        if res.error_bound is None:
            return
        E = exp_oracle(A)
        R = np.eye(d) if mode == MODE_FULL else v
        err = np.linalg.norm(res.value - E @ R, 2) / np.linalg.norm(R, 2)
        if res.bound_kind == "relative":
            err /= math.exp(lam.max())
        assert err <= self.total(res)


class TestUnconditionalBound:
    """A bound exists exactly when the shifted interval lies in (-inf, 0]: the
    truncation term is err_n(-rho) for n > 2 rho and 2^-n otherwise."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        d=st.integers(1, 40),
        complex_=st.booleans(),
        attach=st.booleans(),
        shift=st.sampled_from([None, "auto"]),
        mode=st.sampled_from([MODE_FULL, MODE_ACTION]),
        n=st.sampled_from([8, 12, 16]),
        rho=st.floats(0.5, 16.0),  # n/2 is 4, 6 or 8
        top=st.floats(-1.0, 0.5),
    )
    def test_bound_present_and_holds(self, seed, d, complex_, attach, shift, mode, n, rho, top):
        entries, lam = _hermitian(seed, d, complex_, -rho, max(top, -rho))
        bounds = SpectralBounds(float(lam.min()), float(lam.max()), exact=True) if attach else None
        A = HermitianMatrix(entries, bounds=bounds)
        interval = bounds if attach else gershgorin_bounds(A)
        rng = np.random.default_rng(seed + 1)
        v = rng.standard_normal(d) + (1j * rng.standard_normal(d) if complex_ else 0.0)
        opts = ExpOptions(n=n, mode=mode, shift=shift)
        if shift is None and attach and engine._reaches_positive(interval):
            with pytest.raises(BadSpec):
                matexp_full(A, opts) if mode == MODE_FULL else matexp_action(A, v, opts)
            return
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = matexp_full(A, opts) if mode == MODE_FULL else matexp_action(A, v, opts)
        c = 0.0 if res.c_applied is None else res.c_applied
        shifted = SpectralBounds(interval.lo - c, interval.hi - c)
        fuzz = min(engine.POSITIVE_FUZZ * max(1.0, abs(shifted.lo)), engine.SLIVER_MAX)
        assert (res.error_bound is not None) == (shifted.hi <= fuzz)
        assert bool(caught) == (res.error_bound is None)
        if shift == "auto":
            assert res.error_bound is not None
        if res.error_bound is None:
            return
        R = np.eye(d) if mode == MODE_FULL else v
        err = np.linalg.norm(res.value - exp_oracle(A) @ R, 2) / np.linalg.norm(R, 2)
        if res.bound_kind == "relative":
            err /= math.exp(lam.max())
        assert err <= res.error_bound + res.rounding_bound
        if shift is None and shifted.hi <= 0.0 and n <= 2.0 * shifted.rho():
            assert res.error_bound == 2.0**-n

    def test_huge_scale_rounding_bound_inf_not_nan(self):
        # 4e307 lap1d(50), the largest such scale that validates: Gershgorin
        # [-1.6e308, 0]; the solves' backward error outgrows every beta_k
        A = HermitianMatrix(4e307 * lap1d(50).entries)
        res = matexp_full(A, ExpOptions(n=16))
        assert np.all(np.isfinite(res.value))
        assert res.error_bound == 2.0**-16
        assert res.rounding_bound == math.inf

    def test_sliver_term_needs_a_short_sliver(self):
        # [-1e12, 50] has hi below 1e-10 |lo|, but [0, 50] is no rounding
        # sliver: the fuzz stops at SLIVER_MAX and the call is uncertified
        A = HermitianMatrix(np.diag([-1e12, 50.0]))
        with pytest.warns(OrderTooSmallWarning):
            res = matexp_full(A, ExpOptions(n=16))
        assert res.error_bound is None


def _banded(seed: int, d: int, b: int, complex_: bool, lopsided: bool) -> np.ndarray:
    """Hermitian, half-bandwidth b, Gershgorin interval inside [-2 sqrt(2) - 1/2, 0].

    Off-diagonal rows sum to r_i <= sqrt(2) in modulus (<= 1 when real) and
    a_ii = -r_i - s_i with s_i in [0, 1/2], so every disc lies in
    [-2 r_i - s_i, -s_i].  lopsided
    adds one entry of 1e-14 just below the band, inside the Hermitian check's
    tolerance, so that kl = b + 1 while ku = b.
    """
    rng = np.random.default_rng(seed)
    A = np.zeros((d, d), dtype=complex if complex_ else float)
    for k in range(1, min(b, d - 1) + 1):
        x = rng.uniform(-1.0, 1.0, d - k)
        if complex_:
            x = x + 1j * rng.uniform(-1.0, 1.0, d - k)
        idx = np.arange(d - k)
        A[idx, idx + k] = x / (2.0 * b)
        A[idx + k, idx] = np.conj(x) / (2.0 * b)
    r = np.sum(np.abs(A), axis=1)
    A[np.arange(d), np.arange(d)] = -r - rng.uniform(0.0, 0.5, d)
    if lopsided and b + 1 < d:
        A[b + 1, 0] = 1e-14
    return A


def _dense_reference(A: HermitianMatrix, v, n: int, c: float) -> np.ndarray:
    """e^c sum_k a_k (A + (theta_k - c) I)^-1 R over all n roots, by np.linalg.solve."""
    table = default_table(n)
    R = np.eye(A.d) if v is None else v
    total = sum(
        a * np.linalg.solve(A.entries + (theta - c) * np.eye(A.d), R)
        for theta, a in zip(table.thetas_f8(), table.coeffs_f8())
    )
    return math.exp(c) * total


class TestBandedPath:
    """Banded A is factored in band storage; the value is the dense one."""

    @pytest.mark.parametrize("mode", [MODE_FULL, MODE_ACTION])
    @pytest.mark.parametrize("shift", [None, "auto"])
    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        d=st.integers(1, 60),
        b=st.sampled_from([0, 1, 2, 5]),
        lopsided=st.booleans(),
        offset=st.floats(0.0, 3.0),
        n=st.sampled_from([12, 16]),
    )
    def test_matches_dense_and_is_bounded(
        self, complex_, shift, mode, seed, d, b, lopsided, offset, n
    ):
        entries = _banded(seed, d, b, complex_, lopsided)
        if shift == "auto":
            entries = entries + offset * np.eye(d)  # spectrum may reach above 0
        A = HermitianMatrix(entries)
        assert A.bandwidth[1] == min(b, d - 1)
        assert A.bandwidth[0] == (b + 1 if lopsided and b + 1 < d else min(b, d - 1))
        rng = np.random.default_rng(seed + 1)
        v = None
        if mode == MODE_ACTION:
            v = rng.standard_normal(d) + (1j * rng.standard_normal(d) if complex_ else 0.0)

        def run(threads):
            opts = ExpOptions(n=n, mode=mode, shift=shift, threads=threads)
            return matexp_action(A, v, opts) if v is not None else matexp_full(A, opts)

        res = run(1)
        assert np.array_equal(res.value, run(2).value)
        nrhs = d if v is None else (1 if not complex_ else 2)
        banded = _band_pays(d, *A.bandwidth, nrhs)
        assert res.bandwidth == (A.bandwidth if banded else None)

        c = 0.0 if res.c_applied is None else res.c_applied
        want = _dense_reference(A, v, n, c)
        assert np.linalg.norm(res.value - want) <= 1e-12 * np.linalg.norm(want)

        assert res.error_bound is not None  # rho <= 2 sqrt(2) + 1/2 < n/2
        E = exp_oracle(A)
        R = np.eye(d) if v is None else v
        err = np.linalg.norm(res.value - E @ R, 2) / np.linalg.norm(R, 2)
        if res.bound_kind == "relative":
            err /= math.exp(float(np.linalg.eigvalsh(entries).max()))
        assert err <= res.error_bound + res.rounding_bound

    def test_stencils_report_their_bandwidth(self):
        opts = ExpOptions(n=20, mode=MODE_ACTION)  # lap2d: rho = 8 < n/2
        v = np.ones(400) / 20.0
        assert matexp_full(lap1d(100), ExpOptions(n=16)).bandwidth == (1, 1)
        assert matexp_action(lap1d(100), v[:100], opts).bandwidth == (1, 1)
        assert matexp_action(lap2d(20), v, opts).bandwidth == (20, 20)
        assert matexp_full(lap2d(20), ExpOptions(n=20)).bandwidth == (20, 20)

    def test_dense_input_reports_none(self):
        entries, _ = _hermitian(3, 40, False, -2.0, 0.0)
        A = HermitianMatrix(entries)
        assert A.bandwidth == (39, 39)
        assert matexp_full(A, ExpOptions(n=16, shift="auto")).bandwidth is None
        v = np.ones(40)
        opts = ExpOptions(n=16, mode=MODE_ACTION, shift="auto")
        assert matexp_action(A, v, opts).bandwidth is None

    def test_no_evaluation_starts_a_thread(self, monkeypatch):
        """The LAPACK wrappers hold the GIL, so every pole pair runs in the
        calling thread, on band and dense input, whatever threads says."""

        def no_thread(self):
            raise AssertionError("thread started")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        entries, lam = _hermitian(3, 40, False, -2.0, 0.0)
        bounds = SpectralBounds(lam.min(), lam.max(), exact=True)
        band, dense = lap1d(100), HermitianMatrix(entries, bounds=bounds)
        v = np.ones(100) / 10.0
        for opts in (ExpOptions(n=16), ExpOptions(n=16, threads=2)):
            action = dataclasses.replace(opts, mode=MODE_ACTION)
            assert matexp_full(band, opts).bandwidth == (1, 1)
            assert matexp_action(band, v, action).bandwidth == (1, 1)
            assert matexp_full(dense, opts).bandwidth is None
            assert matexp_action(dense, v[:40], action).bandwidth is None

    @pytest.mark.parametrize(
        "make",
        [lambda: lap1d(300), lambda: HermitianMatrix(125.0 * lap2d(20).entries)],
        ids=["lap1d-300", "lap2d-400x125"],
    )
    @pytest.mark.parametrize("n", [16, 20, 32])
    def test_solve_growth_hypothesis_holds(self, make, n):
        """Evidence for SOLVE_GROWTH = 1 on the band LU: every pair's
        residual ||M X - I||_2 stays below 0.02 of the hypothesis
        g sqrt(2) gamma_{3d+6} ||M||_2 ||X||_2 that _rounding_bound assumes."""
        A = make()
        d = A.d
        assert _band_pays(d, *A.bandwidth, d)  # shifted_inverse runs the band LU
        gamma = (3 * d + 6) * 2.0**-53 / (1.0 - (3 * d + 6) * 2.0**-53)
        lam = np.linalg.eigvalsh(A.entries)
        for theta in default_table(n).thetas_f8()[::2]:
            X = shifted_inverse(A, theta)
            M = A.entries + theta * np.eye(d)
            resid = np.linalg.norm(M @ X - np.eye(d), 2)
            norm_m = float(np.max(np.abs(lam + theta)))  # M is normal
            allowed = 0.02 * SOLVE_GROWTH * math.sqrt(2.0) * gamma * norm_m
            assert resid <= allowed * np.linalg.norm(X, 2)

    def test_complex_band_full_mode_memory_per_call(self):
        """A complex band-path matexp_full holds the complex sum, one d x d
        complex block buffer and one pair-term buffer: no identity, slot or
        scaled copy per pole pair."""
        d = 300
        entries = lap1d(d).entries.astype(complex)
        idx = np.arange(d - 1)  # a small skew-Hermitian imaginary band
        entries[idx, idx + 1] += 0.05j
        entries[idx + 1, idx] -= 0.05j
        entries[idx, idx] -= 0.1  # keeps the Gershgorin interval <= 0
        res, peak = _full_mode_peak(HermitianMatrix(entries), ExpOptions(n=16))
        assert res.bandwidth == (1, 1)
        assert peak < 4 * 16 * d * d

    @pytest.mark.parametrize(
        "complex_, opts",
        [
            (False, ExpOptions(n=16, threads=1)),
            (True, ExpOptions(n=16, threads=1)),
            (False, ExpOptions(n=16)),
            (True, ExpOptions(n=16)),
        ],
        ids=["real", "complex", "real-default", "complex-default"],
    )
    def test_dense_full_mode_memory_per_call(self, complex_, opts):
        """A dense-path matexp_full also holds the complex shifted copy of A
        that the LU overwrites, and no slot per pole pair, for every thread
        setting."""
        d = 300
        entries, lam = _hermitian(5, d, complex_, -2.0, 0.0)
        A = HermitianMatrix(entries, bounds=SpectralBounds(lam.min(), lam.max(), exact=True))
        res, peak = _full_mode_peak(A, opts)
        assert res.bandwidth is None
        assert peak < (5 if complex_ else 3) * 16 * d * d

    def test_real_band_full_mode_memory_per_call(self):
        """Real tridiagonal full mode holds the real sum and O(n d
        BLOCK_COLUMNS) work arrays of the kernel: no d x d complex array."""
        d = 300
        res, peak = _full_mode_peak(lap1d(d), ExpOptions(n=16))
        assert res.bandwidth == (1, 1)
        assert peak < 1.6 * 8 * d * d


def _pair_sum_reference(A, n, solver, c=0.0):
    """The ascending sum of the pole pairs' terms, each from one full-width solve.

    solver is _BandLU or _DenseLU, and the poles are theta_k - c.  A pair
    term is Re Y with Y solved against 2 a_k I for real A, and Y + Y^H with Y
    solved against a_k I otherwise.
    """
    table = default_table(n)
    ref = None
    for theta, a in zip(table.thetas_f8()[::2] - c, table.coeffs_f8()[::2]):
        R = np.zeros((A.d, A.d), dtype=complex, order="F")
        np.fill_diagonal(R, 2.0 * a if A.is_real() else a)
        Y = solver(A, theta).solve(R)
        term = Y.real if A.is_real() else Y + Y.conj().T
        ref = term.copy() if ref is None else ref + term
    return ref


class TestFullModeSum:
    """Full mode sums each pole pair's solve of the residue times I, in
    ascending order; real band input solves and sums only the lower triangle."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: lap1d(300),
            lambda: HermitianMatrix(0.25 * lap2d(12).entries),
            lambda: HermitianMatrix(_banded(4, 75, 3, False, True)),
            lambda: HermitianMatrix(_banded(5, 33, 1, False, False)),
        ],
        ids=["lap1d-300", "lap2d-144", "lopsided-75", "tridiagonal-33"],
    )
    @pytest.mark.parametrize("n", [12, 16])
    def test_real_band_is_symmetric_lower_triangle_of_full_solves(self, make, n):
        """Bit for bit for b >= 2; tridiagonal input runs
        linalg._tridiagonal_pair_sum instead, within the rounding bound."""
        A = make()
        assert A.is_real() and linalg._band_path(A, A.d)
        res = matexp_full(A, ExpOptions(n=n))
        assert res.bandwidth == A.bandwidth
        assert np.array_equal(res.value, res.value.T)
        ref = _pair_sum_reference(A, n, linalg._BandLU)
        if max(A.bandwidth) <= 1:
            assert np.linalg.norm(res.value - ref, 2) <= res.rounding_bound
        else:
            lower = np.tril_indices(A.d)
            assert res.value[lower].tobytes() == ref[lower].tobytes()

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("kind", ["dense-real", "dense-complex", "band-complex"])
    def test_dense_and_complex_are_full_width_solves(self, kind, threads):
        if kind == "band-complex":
            A = HermitianMatrix(_banded(6, 70, 2, True, False))
            solver = linalg._BandLU
        else:
            entries, lam = _hermitian(7, 60, kind == "dense-complex", -3.0, 0.0)
            A = HermitianMatrix(entries, bounds=SpectralBounds(lam.min(), lam.max(), exact=True))
            solver = linalg._DenseLU
        assert linalg._band_path(A, A.d) == (solver is linalg._BandLU)
        res = matexp_full(A, ExpOptions(n=16, threads=threads))
        ref = _pair_sum_reference(A, 16, solver)
        assert res.value.dtype == ref.dtype
        assert res.value.tobytes() == ref.tobytes()


def _wild_tridiagonal(seed: int, d: int, scale: float) -> np.ndarray:
    """Real symmetric tridiagonal with standard normal entries times scale."""
    rng = np.random.default_rng(seed)
    off = scale * rng.standard_normal(d - 1)
    return np.diag(scale * rng.standard_normal(d)) + np.diag(off, 1) + np.diag(off, -1)


def _kernel_inputs(A: HermitianMatrix, n: int, c: float):
    """(diag, off, poles, weights) of the full-mode kernel call for A at order n and shift c."""
    table = default_table(n)
    a = A.entries
    poles = table.thetas_f8()[::2] - c
    return a.diagonal().copy(), a.diagonal(-1).copy(), poles, 2.0 * table.coeffs_f8()[::2]


_KERNEL_DIMS = st.sampled_from([1, 2, 31, 32, 33, 70])
_KERNEL_SCALES = st.sampled_from([1.0, 10.0, 1e3, 1e6])
_KERNEL_ORDERS = st.sampled_from([2, 8, 16, 32])


class TestTridiagonalKernel:
    """linalg._tridiagonal_pair_sum: real tridiagonal full mode without an LU."""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        d=_KERNEL_DIMS,
        scale=_KERNEL_SCALES,
        c=st.sampled_from([0.0, 0.5]),
        n=_KERNEL_ORDERS,
    )
    def test_matches_the_solves_within_the_rounding_bound(self, seed, d, scale, c, n):
        A = HermitianMatrix(scale * _banded(seed, d, 1, False, False))
        kernel = linalg._tridiagonal_pair_sum(*_kernel_inputs(A, n, c))
        assert kernel is not None
        S, times = kernel
        assert len(times) == n // 2
        assert np.all(np.isfinite(S)) and np.array_equal(S, S.T)
        solver = linalg._BandLU if A._band is not None else linalg._DenseLU
        ref = _pair_sum_reference(A, n, solver, c)
        g = gershgorin_bounds(A)
        bounds = SpectralBounds(g.lo - c, g.hi - c)
        bound = engine._rounding_bound(default_table(n), bounds, c, d, math.sqrt(d))
        assert np.linalg.norm(S - ref, 2) <= bound

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        d=_KERNEL_DIMS,
        scale=_KERNEL_SCALES,
        wild=st.booleans(),
        n=_KERNEL_ORDERS,
    )
    def test_every_accepted_pole_meets_the_solve_hypothesis(self, seed, d, scale, wild, n):
        """Y_k, read back from the weights 1 and i, leaves a residual within
        g sqrt(2) gamma_{3d+6} ||M|| ||Y_k|| whenever the kernel accepts the pole."""
        entries = _wild_tridiagonal(seed, d, scale) if wild else scale * _banded(seed, d, 1, False, False)
        A = HermitianMatrix(entries)
        diag, off, poles, _ = _kernel_inputs(A, n, 0.0)
        gamma = engine._gamma(3 * d + 6)
        accepted = 0
        for p in poles:
            re = linalg._tridiagonal_pair_sum(diag, off, np.array([p]), np.array([1.0 + 0j]))
            im = linalg._tridiagonal_pair_sum(diag, off, np.array([p]), np.array([1j]))
            assert (re is None) == (im is None)
            if re is None:
                continue
            accepted += 1
            Y = re[0] - 1j * im[0]  # Re(i Y) = -Im Y
            M = entries + p * np.eye(d)
            resid = np.linalg.norm(M @ Y - np.eye(d), 2)
            norm_m = np.linalg.norm(M, 2)
            allowed = SOLVE_GROWTH * math.sqrt(2.0) * gamma * norm_m * np.linalg.norm(Y, 2)
            assert resid <= allowed
        assert wild or accepted == len(poles)

    def test_declines_grown_pivots_and_the_call_runs_the_band_lu(self):
        """A random indefinite tridiagonal shifted to an exact spectral top of
        0: some pole's pivots grow, the kernel declines, and the value is
        the band solves' mirrored lower triangle, bit for bit."""
        entries = _wild_tridiagonal(0, 40, 1e4)
        lam = np.linalg.eigvalsh(entries)
        entries -= lam[-1] * np.eye(40)
        A = HermitianMatrix(entries, bounds=SpectralBounds(lam[0] - lam[-1], 0.0, exact=True))
        assert linalg._tridiagonal(A, default_table(16).thetas_f8()[::2]) is not None
        assert linalg._tridiagonal_pair_sum(*_kernel_inputs(A, 16, 0.0)) is None
        res = matexp_full(A, ExpOptions(n=16))
        assert res.bandwidth == (1, 1) and len(res.per_term_times) == 8
        ref = _pair_sum_reference(A, 16, linalg._BandLU)
        lower = np.tril_indices(40)
        assert res.value[lower].tobytes() == ref[lower].tobytes()
        assert np.array_equal(res.value, res.value.T)

    def test_admits_only_exactly_symmetric_real_tridiagonals(self):
        poles = default_table(16).thetas_f8()[::2]
        assert linalg._tridiagonal(lap1d(40), poles) is not None
        assert linalg._tridiagonal(HermitianMatrix(-np.eye(40)), poles) is not None
        assert linalg._tridiagonal(lap2d(6), poles) is None
        skew = lap1d(40).entries.astype(complex)
        skew[0, 1], skew[1, 0] = 1.0 + 0.1j, 1.0 - 0.1j
        assert linalg._tridiagonal(HermitianMatrix(skew), poles) is None
        inexact = lap1d(40).entries.copy()
        inexact[1, 0] += 1e-14  # inside the Hermitian check's tolerance
        assert linalg._tridiagonal(HermitianMatrix(inexact), poles) is None
        # (rho + |p|)^2 / |Im p| past PIVOT_MAX: the pivots could overflow
        assert linalg._tridiagonal(HermitianMatrix(1e150 * lap1d(40).entries), poles) is None

    def test_pair_times_are_the_recurrences_inside_the_total(self):
        res = matexp_full(lap1d(300), ExpOptions(n=16))
        assert len(res.per_term_times) == 8
        assert sum(res.per_term_times) < res.t_total
        assert res.t_para == max(res.per_term_times)


def _full_mode_peak(A, opts):
    """matexp_full's result and its peak traced allocation, after a warm-up call."""
    matexp_full(A, opts)  # root table and LAPACK wrappers warmed up
    tracemalloc.start()
    try:
        res = matexp_full(A, opts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return res, peak


class _CountingNumpy:
    """numpy, with the np.diagonal calls that extract a band counted."""

    def __init__(self):
        self.diagonals = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def diagonal(self, *args, **kwargs):
        self.diagonals += 1
        return np.diagonal(*args, **kwargs)


class _PerPairBandLU(linalg._BandLU):
    """Reference band LU: extracts A's band from A.entries for every pole pair."""

    def __init__(self, A, pole):
        kl, ku = A.bandwidth
        d = A.d
        ab = np.zeros((2 * kl + ku + 1, d), dtype=complex, order="F")
        for k in range(-kl, ku + 1):
            ab[kl + ku - k, max(k, 0) : d + min(k, 0)] = np.diagonal(A.entries, k)
        ab[kl + ku] += pole
        lu, piv, info = zgbtrf(ab, kl, ku, overwrite_ab=True)
        assert info == 0
        self._lu, self._piv, self._kl, self._ku = lu, piv, kl, ku


class TestOperatorData:
    """What depends on A alone is built once, with the operator."""

    def test_band_extracted_at_construction_only(self, monkeypatch):
        A2, A1 = lap2d(20), lap1d(100)
        counter = _CountingNumpy()
        monkeypatch.setattr(linalg, "np", counter)
        v = np.ones(400) / 20.0
        opts = ExpOptions(n=20, mode=MODE_ACTION)  # lap2d: rho = 8 < n/2
        first = matexp_action(A2, v, opts)
        again = matexp_action(A2, v, opts)
        full = matexp_full(A1, ExpOptions(n=16))
        assert counter.diagonals == 0
        assert (first.bandwidth, full.bandwidth) == ((20, 20), (1, 1))
        assert first.value.tobytes() == again.value.tobytes()
        assert full.value.tobytes() == matexp_full(A1, ExpOptions(n=16)).value.tobytes()
        HermitianMatrix(A2.entries)
        assert counter.diagonals == 41  # one copy per diagonal, kl + ku + 1
        assert A2._band.shape == (2 * 20 + 20 + 1, 400) and A1._band.shape == (4, 100)
        for A in (A1, A2):
            assert not A._band.flags.writeable and not A.entries.flags.writeable

    @pytest.mark.parametrize("mode", [MODE_FULL, MODE_ACTION])
    @pytest.mark.parametrize("attach", [False, True], ids=["gershgorin", "attached"])
    @pytest.mark.parametrize("kind", ["real", "complex", "zero-imag"])
    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        d=st.integers(1, 40),
        b=st.sampled_from([0, 1, 2, 5, 40]),
        lopsided=st.booleans(),
        n=st.sampled_from([12, 16]),
    )
    def test_same_as_per_pair_extraction(self, kind, attach, mode, seed, d, b, lopsided, n):
        entries = _banded(seed, d, b, kind == "complex", lopsided)
        if kind == "zero-imag":
            entries = entries.astype(complex)
        bounds = None
        if attach:
            lam = np.linalg.eigvalsh(entries)
            bounds = SpectralBounds(float(lam[0]), float(lam[-1]), exact=True)
        A = HermitianMatrix(entries, bounds=bounds)

        # the Gershgorin interval is the row-sum formula on the complex input
        a = np.asarray(entries, dtype=complex)
        centers = np.real(np.diag(a))
        radii = np.sum(np.abs(a), axis=1) - np.abs(np.diag(a))
        g = gershgorin_bounds(A)
        assert g.lo.hex() == float(np.min(centers - radii)).hex()
        assert g.hi.hex() == float(np.max(centers + radii)).hex()

        real = not np.any(np.imag(entries))  # "complex" draws are real when b = 0
        assert A.is_real() == (A.entries.dtype == np.float64) == real
        assert A.entries.dtype in (np.float64, np.complex128)

        rng = np.random.default_rng(seed + 1)
        v = None
        if mode == MODE_ACTION:
            v = rng.standard_normal(d)
            if kind == "complex":
                v = v + 1j * rng.standard_normal(d)
        opts = ExpOptions(n=n, mode=mode, threads=1)

        def run():
            return matexp_action(A, v, opts) if v is not None else matexp_full(A, opts)

        res = run()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "_BandLU", _PerPairBandLU)
            ref = run()
        assert res.value.dtype == ref.value.dtype
        assert res.value.tobytes() == ref.value.tobytes()
        assert (res.error_bound, res.rounding_bound) == (ref.error_bound, ref.rounding_bound)
        assert res.bandwidth == ref.bandwidth
