"""Tests for the parallel R_n(A) engine: reference examples, certified
bounds, shift method, thread-count determinism, and spectral properties."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfexpm.engine import (
    MODE_ACTION,
    MODE_FULL,
    SHIFT_MAX,
    ExpOptions,
    ExpResult,
    apriori_bound,
    matexp_action,
    matexp_full,
    matexp_shifted,
)
from pfexpm.errors import BadSpec, InvariantViolation, OrderTooSmall, Overflow
from pfexpm.errors import OrderTooSmallWarning
from pfexpm.linalg import (
    HermitianMatrix,
    SpectralBounds,
    eig_hermitian,
    exp_oracle,
    gershgorin_bounds,
    norm2,
)
from pfexpm.scalar import approx_error, eval_pf, eval_reciprocal, partial_fraction

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
        assert ExpOptions(parallel=False, threads=8).worker_count(8) == 1
        assert ExpOptions(threads=3).worker_count(8) == 3
        assert ExpOptions(threads=16).worker_count(4) == 4  # capped by tasks
        assert ExpOptions(threads="auto").worker_count(8) >= 1


class TestExpResult:
    def test_t_para_must_be_max(self):
        with pytest.raises(InvariantViolation):
            ExpResult(
                value=np.eye(2),
                error_bound=None,
                bound_kind=None,
                per_term_times=(1.0, 2.0),
                t_para=1.0,
                t_total=3.0,
            )

    def test_bound_and_kind_come_together(self):
        with pytest.raises(InvariantViolation):
            ExpResult(
                value=np.eye(2),
                error_bound=0.5,
                bound_kind=None,
                per_term_times=(1.0,),
                t_para=1.0,
                t_total=1.0,
            )
        with pytest.raises(InvariantViolation):
            ExpResult(
                value=np.eye(2),
                error_bound=None,
                bound_kind="absolute",
                per_term_times=(1.0,),
                t_para=1.0,
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
        with pytest.raises(OrderTooSmall):
            apriori_bound(SpectralBounds(-1.0, 0.0), 2)

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
        # at the exact radius holds outright (Gershgorin's rho = 8 fails the
        # order hypothesis, so the engine itself withholds its bound)
        with pytest.warns(OrderTooSmallWarning):
            res = matexp_action(A, v, ExpOptions(n=16, mode=MODE_ACTION))
        err = float(np.linalg.norm(res.value - want))
        assert err <= approx_error(16, -rho)
        assert res.error_bound is None

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
        with pytest.warns(OrderTooSmallWarning):
            res = matexp_shifted(A, ExpOptions(n=32, shift="auto"))
        E = exp_oracle(A)
        rel = norm2(res.value - E) / norm2(E)
        assert rel <= 2.0**-32
        # n = 32 <= 2 rho' ~ 40: theorem hypothesis fails, bound withheld
        assert res.error_bound is None and res.bound_kind is None
        assert res.c_applied == pytest.approx(A.bounds.hi)

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
        pf = partial_fraction(n)
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
        A = lap2d(6)  # Gershgorin interval [-8, 0]; n = 16 <= 2*8
        with pytest.warns(OrderTooSmallWarning):
            res = matexp_full(A, ExpOptions(n=16))
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
    @pytest.mark.parametrize("route", ["full", "action", "shifted", "full-shift-auto"])
    def test_order_warning_points_at_caller(self, route):
        A = lap2d(6)  # Gershgorin rho = 8, so n = 16 <= 2 rho
        v = np.ones(A.d)
        call = {
            "full": lambda: matexp_full(A, ExpOptions(n=16)),
            "action": lambda: matexp_action(A, v, ExpOptions(n=16, mode=MODE_ACTION)),
            "shifted": lambda: matexp_shifted(A, ExpOptions(n=16, shift="auto")),
            "full-shift-auto": lambda: matexp_full(A, ExpOptions(n=16, shift="auto")),
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
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", OrderTooSmallWarning)
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
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", OrderTooSmallWarning)
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
