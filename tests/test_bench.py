"""Tests for the benchmark harness: generators, suites, CSV round-trip."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from pfexpm.bench import (
    CSV_HEADER,
    FAMILY_LAP1D,
    FAMILY_LAP2D,
    FAMILY_RANDOM,
    BenchRecord,
    MatrixSpec,
    emit_csv,
    emit_plotdata,
    emit_scalar_csv,
    gen_matrix,
    parse_csv,
    run_matrix_suite,
    run_scalar_suite,
)
from pfexpm.engine import MODE_ACTION, MODE_FULL, ExpOptions, apriori_bound, matexp_full
from pfexpm.errors import BadSpec, OrderTooSmallWarning, ParseError
from pfexpm.linalg import SpectralBounds, eig_hermitian, gershgorin_bounds
from pfexpm.scalar import approx_error, bound_m1, bound_m2


class TestMatrixSpec:
    def test_valid_specs(self):
        MatrixSpec(FAMILY_LAP1D, 100)
        MatrixSpec(FAMILY_LAP2D, 36)
        MatrixSpec(FAMILY_RANDOM, 50, (-1.0, 0.0), seed=7)

    def test_unknown_family(self):
        with pytest.raises(BadSpec):
            MatrixSpec("toeplitz", 10)

    @pytest.mark.parametrize("d", [0, -3, 2.5, True])
    def test_bad_dimension(self, d):
        with pytest.raises(BadSpec):
            MatrixSpec(FAMILY_LAP1D, d)

    def test_lap2d_needs_square_d(self):
        with pytest.raises(BadSpec):
            MatrixSpec(FAMILY_LAP2D, 50)
        assert MatrixSpec(FAMILY_LAP2D, 49).grid_m == 7

    def test_range_only_for_random(self):
        with pytest.raises(BadSpec):
            MatrixSpec(FAMILY_LAP1D, 10, (-1.0, 0.0))

    def test_range_ordering(self):
        with pytest.raises(BadSpec):
            MatrixSpec(FAMILY_RANDOM, 10, (0.0, -1.0))

    def test_bad_seed(self):
        with pytest.raises(BadSpec):
            MatrixSpec(FAMILY_LAP1D, 10, seed=-1)


class TestGenMatrix:
    def test_lap1d_d3_stencil(self):
        A = gen_matrix(MatrixSpec(FAMILY_LAP1D, 3))
        want = np.array([[-2.0, 1.0, 0.0], [1.0, -2.0, 1.0], [0.0, 1.0, -2.0]])
        assert np.array_equal(A.entries.real, want)

    @pytest.mark.parametrize("d", [10, 100])
    def test_lap1d_spectrum_in_minus4_0(self, d):
        A = gen_matrix(MatrixSpec(FAMILY_LAP1D, d))
        w, _ = eig_hermitian(A)
        assert -4.0 < w[0] and w[-1] < 0.0
        gb = gershgorin_bounds(A)
        assert gb.lo == -4.0 and gb.hi == 0.0

    def test_lap2d_kronecker_sum_spectrum(self):
        # eigenvalues of the 5-point stencil are pairwise sums of two
        # tridiagonal factors' eigenvalues
        m = 7
        A2 = gen_matrix(MatrixSpec(FAMILY_LAP2D, m * m))
        A1 = gen_matrix(MatrixSpec(FAMILY_LAP1D, m))
        w1, _ = eig_hermitian(A1)
        w2, _ = eig_hermitian(A2)
        want = np.sort((w1[:, None] + w1[None, :]).ravel())
        assert np.max(np.abs(w2 - want)) <= 1e-12

    def test_random_recovers_spectrum(self):
        spec = MatrixSpec(FAMILY_RANDOM, 50, (-1.0, 0.0), seed=11)
        A = gen_matrix(spec)
        w, _ = eig_hermitian(A)
        rng = np.random.default_rng([11, 0])
        lam = np.sort(rng.uniform(-1.0, 0.0, 50))
        assert np.max(np.abs(w - lam)) <= 1e-12
        assert A.bounds.exact and A.bounds.lo == lam[0] and A.bounds.hi == lam[-1]

    def test_random_deterministic_per_seed_and_trial(self):
        spec = MatrixSpec(FAMILY_RANDOM, 20, (-1.0, 0.0), seed=5)
        assert np.array_equal(gen_matrix(spec, 3).entries, gen_matrix(spec, 3).entries)
        assert not np.array_equal(gen_matrix(spec, 3).entries, gen_matrix(spec, 4).entries)

    def test_random_without_range_refused(self):
        spec = MatrixSpec(FAMILY_RANDOM, 10)
        with pytest.raises(BadSpec):
            gen_matrix(spec)


class TestBenchRecord:
    def rec(self, **kw):
        base = dict(
            spec=MatrixSpec(FAMILY_LAP1D, 10),
            n=8,
            mode=MODE_FULL,
            shift=None,
            trial=0,
            error=1e-8,
            error_kind="absolute",
            t_seq=1.0,
            t_para=0.5,
            t_total=0.8,
            bound=1e-6,
        )
        base.update(kw)
        return BenchRecord(**base)

    def test_negative_error_rejected(self):
        with pytest.raises(BadSpec):
            self.rec(error=-1e-8)

    def test_unknown_error_kind(self):
        with pytest.raises(BadSpec):
            self.rec(error_kind="percent")

    def test_t_para_cannot_exceed_t_total(self):
        with pytest.raises(BadSpec):
            self.rec(t_para=2.0, t_total=1.0)


class TestMatrixSuite:
    def test_lap1d_records_and_bound(self):
        specs = [MatrixSpec(FAMILY_LAP1D, 30)]
        recs = run_matrix_suite(specs, [12, 16], trials=2, timing_repeats=1)
        assert len(recs) == 4
        for r in recs:
            assert r.error_kind == "absolute"
            # truncation dominates at these orders, so the certified bound
            # is observable: error <= apriori_bound at the Gershgorin radius
            assert r.bound is not None
            assert r.error <= r.bound
            assert math.isclose(r.bound, apriori_bound(SpectralBounds(-4.0, 0.0), r.n), rel_tol=1e-12)
            assert r.t_para <= r.t_total
        # same matrix every trial: identical errors, trial ids distinct
        assert recs[0].error == recs[1].error
        assert {r.trial for r in recs[:2]} == {0, 1}

    def test_action_mode_records(self):
        specs = [MatrixSpec(FAMILY_LAP1D, 40, seed=2)]
        recs = run_matrix_suite(specs, [16], mode=MODE_ACTION, trials=2, timing_repeats=1)
        for r in recs:
            assert r.mode == MODE_ACTION
            assert r.error <= r.bound
        # different random unit v per trial: errors differ
        assert recs[0].error != recs[1].error

    def test_random_shifted_relative(self):
        specs = [MatrixSpec(FAMILY_RANDOM, 25, (0.0, 5.0), seed=3)]
        recs = run_matrix_suite(specs, [16], trials=2, shift="auto", timing_repeats=1)
        for r in recs:
            assert r.error_kind == "relative"
            # exact bounds attached, so the applied shift is alpha itself
            assert r.shift is not None and 0.0 < r.shift <= 5.0
            assert r.error <= 2.0**-16

    def test_shifted_nonpositive_bound_converted_to_absolute(self):
        # shifting a negative-spectrum matrix is legal; the relative bound
        # is rescaled by e^c so the bound column matches error_kind
        specs = [MatrixSpec(FAMILY_LAP1D, 20)]
        recs = run_matrix_suite(specs, [16], shift=1.0, timing_repeats=1)
        (r,) = recs
        assert r.error_kind == "absolute" and r.shift == 1.0
        assert r.bound is not None
        assert r.error <= r.bound

    def test_rounding_column_is_the_rounding_bound(self):
        # lap1d at n=32: the truncation term alone (3.2e-21) is below the
        # observed error; bound + rounding covers it
        spec = MatrixSpec(FAMILY_LAP1D, 50)
        (r,) = run_matrix_suite([spec], [32], timing_repeats=1)
        res = matexp_full(gen_matrix(spec), ExpOptions(n=32))
        assert r.bound == res.error_bound and r.rounding == res.rounding_bound
        assert r.error > r.bound
        assert r.error <= r.bound + r.rounding

    def test_shifted_nonpositive_rounding_converted_to_absolute(self):
        spec = MatrixSpec(FAMILY_LAP1D, 20)
        (r,) = run_matrix_suite([spec], [16], shift=1.0, timing_repeats=1)
        res = matexp_full(gen_matrix(spec), ExpOptions(n=16, shift=1.0))
        assert res.bound_kind == "relative"
        assert r.rounding == res.rounding_bound * math.exp(1.0)
        assert r.error <= r.bound + r.rounding

    def test_err_over_errn_in_the_error_kind(self):
        # unshifted, exact lambda_min: the ratio is 1 where truncation dominates
        spec = MatrixSpec(FAMILY_RANDOM, 20, (-1.0, 0.0), seed=9)
        (r,) = run_matrix_suite([spec], [8], timing_repeats=1)
        assert r.err_over_errn == r.error / approx_error(8, gen_matrix(spec).bounds.lo)
        assert abs(r.err_over_errn - 1.0) < 1e-6
        # shifted, absolute error: e^c err_n(lo - c) on Gershgorin [-4, 0]
        (r,) = run_matrix_suite([MatrixSpec(FAMILY_LAP1D, 20)], [16], shift=1.0, timing_repeats=1)
        assert r.err_over_errn == r.error / (math.exp(1.0) * approx_error(16, -5.0))
        # relative error: e^(c - hi) err_n(lo - c)
        spec = MatrixSpec(FAMILY_RANDOM, 20, (0.0, 5.0), seed=3)
        (r,) = run_matrix_suite([spec], [16], shift="auto", timing_repeats=1)
        b = gen_matrix(spec).bounds
        assert r.error_kind == "relative"
        errn = math.exp(r.shift - b.hi) * approx_error(16, b.lo - r.shift)
        assert r.err_over_errn == r.error / errn
        # a fixed shift below lo leaves no truncation term at lo
        with pytest.warns(OrderTooSmallWarning):
            (r,) = run_matrix_suite(
                [MatrixSpec(FAMILY_LAP1D, 20)], [16], shift=-5.0, timing_repeats=1
            )
        assert math.isnan(r.err_over_errn)

    def test_reproducible_errors(self):
        specs = [MatrixSpec(FAMILY_RANDOM, 20, (-1.0, 0.0), seed=9)]
        a = run_matrix_suite(specs, [8], trials=3, timing_repeats=1)
        b = run_matrix_suite(specs, [8], trials=3, timing_repeats=1)
        assert [r.error for r in a] == [r.error for r in b]

    def test_bad_trials(self):
        with pytest.raises(BadSpec):
            run_matrix_suite([MatrixSpec(FAMILY_LAP1D, 5)], [8], trials=0)


class TestScalarSuite:
    GRID = np.linspace(-100.0, 0.0, 2001)

    def test_rows_and_bounds(self):
        rows = run_scalar_suite([8, 16, 32], self.GRID, D=16)
        assert [r.n for r in rows] == [8, 16, 32]
        for r in rows:
            assert r.max_e2 <= r.m1 == bound_m1(r.n)
            assert r.max_e3 <= r.m2 == bound_m2(r.n, 16)
            assert r.max_e1 <= r.max_e2 + r.max_e3 + 4e-16

    def test_positive_grid_refused(self):
        with pytest.raises(BadSpec):
            run_scalar_suite([8], np.array([-1.0, 0.5]))


class TestCsv:
    def make_records(self):
        specs = [MatrixSpec(FAMILY_LAP1D, 20), MatrixSpec(FAMILY_LAP1D, 40)]
        recs = run_matrix_suite(specs, [12, 16], trials=1, timing_repeats=1)
        recs += run_matrix_suite(
            [MatrixSpec(FAMILY_RANDOM, 15, (0.0, 3.0), seed=4)],
            [16],
            trials=2,
            shift="auto",
            timing_repeats=1,
        )
        return recs

    def test_header_and_roundtrip(self, tmp_path):
        recs = self.make_records()
        path = tmp_path / "bench.csv"
        emit_csv(recs, path)
        text = path.read_bytes().decode("utf-8")
        lines = text.split("\n")
        assert lines[0] == CSV_HEADER
        assert "\r" not in text  # LF endings only
        back = parse_csv(path)
        assert len(back) == len(recs)
        # exact round-trip for fully serializable specs; the random family's
        # spectrum_range is a generator parameter outside the schema
        for a, b in zip(recs, back):
            if a.spec.family == FAMILY_RANDOM:
                a = dataclasses.replace(
                    a, spec=dataclasses.replace(a.spec, spectrum_range=None)
                )
            assert dataclasses.replace(a, per_term_times=()) == b

    def test_empty_records_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], path)
        assert path.read_text(encoding="utf-8") == CSV_HEADER + "\n"
        assert parse_csv(path) == []

    def test_uncertified_bound_serialized_empty(self, tmp_path):
        with pytest.warns(OrderTooSmallWarning):
            recs = run_matrix_suite(
                [MatrixSpec(FAMILY_LAP2D, 16)], [8], shift=-1.0, timing_repeats=1
            )  # Gershgorin [-8, 0] shifted by c = -1 reaches 1 > 0: bound withheld
        assert recs[0].bound is None
        path = tmp_path / "nobound.csv"
        emit_csv(recs, path)
        # bound and rounding are the two columns before err_over_errn
        assert path.read_text(encoding="utf-8").splitlines()[1].split(",")[-3] == ""
        assert parse_csv(path)[0].bound is None
        assert recs[0].rounding is None
        assert path.read_text(encoding="utf-8").splitlines()[1].split(",")[-3:-1] == ["", ""]
        assert parse_csv(path)[0].rounding is None

    def test_order_warning_points_at_the_suite_caller(self):
        """The warning names the first frame outside the package, not bench.py."""
        with pytest.warns(OrderTooSmallWarning) as record:
            run_matrix_suite([MatrixSpec(FAMILY_LAP2D, 16)], [8], shift=-1.0, timing_repeats=1)
        assert record and {w.filename for w in record} == {__file__}

    def test_stiff_input_certified_by_the_uniform_bound(self):
        # Gershgorin rho = 8 >= n/2 = 4: the bound is M1 = 2^-8
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (r,) = run_matrix_suite([MatrixSpec(FAMILY_LAP2D, 16)], [8], timing_repeats=1)
        assert r.bound == 2.0**-8
        assert r.error <= r.bound + r.rounding

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
        with pytest.raises(ParseError):
            parse_csv(path)

    def test_scalar_csv(self, tmp_path):
        rows = run_scalar_suite([8], np.linspace(-10, 0, 101))
        path = tmp_path / "scalar.csv"
        emit_scalar_csv(rows, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "n,max_e1,max_e2,max_e3,m1,m2"
        assert lines[1].startswith("8,")

    def test_plotdata_blocks(self, tmp_path):
        recs = self.make_records()
        path = tmp_path / "plot.dat"
        emit_plotdata(recs, path)
        text = path.read_text(encoding="utf-8")
        blocks = text.strip().split("\n\n\n")
        # (lap1d, 12, full), (lap1d, 16, full), (random, 16, full)
        assert len(blocks) == 3
        first = blocks[0].splitlines()
        assert first[0] == "# family=lap1d n=12 mode=full"
        assert first[1].split()[-1] == "mean_err_over_errn"
        assert float(first[2].split()[-1]) == recs[0].err_over_errn
        # two dimensions, sorted ascending
        assert first[2].startswith("20 ") and first[3].startswith("40 ")
