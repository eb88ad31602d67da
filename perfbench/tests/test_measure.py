"""Tests for the benchmark's own arithmetic: percentiles, span self time, work models.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import measure  # noqa: E402


def test_min_samples_leaves_ten_beyond_p90():
    assert measure.min_samples(90) == 100
    assert measure.min_samples(99) == 1000
    assert measure.min_samples(50, beyond=10) == 20


@pytest.mark.parametrize("pct", [50, 75, 90, 95, 99])
def test_percentile_has_enough_samples_beyond(pct):
    n = measure.min_samples(pct)
    values = [float(v) for v in range(n)][::-1]  # distinct, unsorted
    p = measure.percentile(values, pct)
    assert measure.samples_beyond(values, p) >= 10
    # one sample fewer leaves fewer than ten beyond
    fewer = values[1:]
    assert measure.samples_beyond(fewer, measure.percentile(fewer, pct)) < 10


def test_percentile_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert measure.percentile(values, 50) == 3.0
    assert measure.percentile(values, 90) == 5.0
    assert measure.percentile(values, 100) == 5.0
    assert measure.percentile(values, 20) == 1.0
    with pytest.raises(ValueError):
        measure.percentile([], 50)


def test_median_even_and_odd():
    assert measure.median([3.0, 1.0, 2.0]) == 2.0
    assert measure.median([4.0, 1.0, 3.0, 2.0]) == 2.5


def test_samples_beyond_is_strict():
    assert measure.samples_beyond([1.0, 2.0, 2.0, 3.0], 2.0) == 1


def test_covered_length_merges_and_clips():
    assert measure.covered_length(0.0, 10.0, []) == 0.0
    assert measure.covered_length(0.0, 10.0, [(1.0, 3.0), (2.0, 4.0)]) == 3.0
    assert measure.covered_length(0.0, 10.0, [(-5.0, 1.0), (9.0, 12.0)]) == 2.0
    assert measure.covered_length(0.0, 10.0, [(1.0, 2.0), (5.0, 6.0)]) == 2.0
    assert measure.covered_length(0.0, 10.0, [(11.0, 12.0)]) == 0.0


def _fake_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_subtracts_children_only():
    # call [0, 10] holds ctor [1, 3] and engine [4, 9]; engine holds nothing
    tracer = measure.Tracer(clock=_fake_clock([0.0, 1.0, 3.0, 4.0, 9.0, 10.0, 20.0, 21.5]))
    with tracer.span("call", request=7):
        with tracer.span("ctor", request=7):
            pass
        with tracer.span("engine", request=7):
            pass
    with tracer.span("call", request=8):
        pass
    assert tracer.durations("call") == [10.0, 1.5]
    assert tracer.self_times("call") == [10.0 - 2.0 - 5.0, 1.5]
    assert tracer.self_times("ctor") == [2.0]
    assert tracer.self_times("engine") == [5.0]
    spans = tracer.to_json()
    assert [s["parent"] for s in spans] == [None, 0, 0, None]
    assert [s["request"] for s in spans] == [7, 7, 7, 8]


def test_self_time_of_nested_grandchild_counts_once():
    # a [0, 10] > b [2, 8] > c [3, 5]: c is not a direct child of a
    tracer = measure.Tracer(clock=_fake_clock([0.0, 2.0, 3.0, 5.0, 8.0, 10.0]))
    with tracer.span("a"):
        with tracer.span("b"):
            with tracer.span("c"):
                pass
    assert tracer.self_times("a") == [4.0]
    assert tracer.self_times("b") == [4.0]
    assert tracer.self_times("c") == [2.0]


def test_span_closes_on_exception():
    tracer = measure.Tracer(clock=_fake_clock([0.0, 1.0]))
    with pytest.raises(RuntimeError):
        with tracer.span("x"):
            raise RuntimeError
    assert tracer.durations("x") == [1.0]
    assert tracer._open == []


def test_pair_flops_by_hand():
    # complex LU of d=3: 8/3 * 27 = 72 flops; one column of substitution: 8 * 9 = 72
    assert measure.pair_flops(3, 1) == 144.0
    assert measure.pair_flops(3, 3) == 72.0 + 216.0


def test_call_models_by_hand():
    # d=2, n=4, one column: two pairs of 64/3 + 32 flops, one slot addition of 2*2
    assert measure.call_flops(2, 4, 1) == pytest.approx(2 * (64 / 3 + 32) + 4)
    # per pair 16 * (3*4 + 2*2) = 256 bytes; reduction 16 * 2 * (2 + 1) = 96
    assert measure.call_bytes(2, 4, 1) == 2 * 256 + 96


def test_full_mode_models_scale_with_d_cubed_and_squared():
    # full mode solves d right-hand sides: flops ~ d^3, bytes ~ d^2
    f1, f2 = measure.call_flops(100, 16, 100), measure.call_flops(200, 16, 200)
    b1, b2 = measure.call_bytes(100, 16, 100), measure.call_bytes(200, 16, 200)
    assert f2 / f1 == pytest.approx(8.0, rel=2e-3)
    assert b2 / b1 == pytest.approx(4.0)


def test_quality_fractions_and_vacuous_bound():
    import harness

    calls = [
        harness.Outcome(0, 16, 0.1, 0.2, failed=False, error=1e-9, bound=2e-9),
        harness.Outcome(1, 16, 0.1, 0.2, failed=False, error=3e-9, bound=2e-9),
        harness.Outcome(2, 16, 0.1, 0.2, failed=True),
        harness.Outcome(3, 16, 0.1, 0.2, failed=False, error=5e-9, order_warnings=1),
    ]
    q = harness.quality(calls)
    assert q["failed_frac"] == 0.25
    assert q["certified_frac"] == 0.5
    assert q["bound_violation_frac"] == 0.5
    assert q["order_warnings_per_call"] == 0.25
    assert q["err_max"] == 5e-9
    uncertified = harness.quality([calls[3]])
    assert uncertified["certified_frac"] == 0.0
    assert uncertified["bound_violation_frac"] == 0.0


class _Result:
    def __init__(self, value, c_applied=None):
        self.value = value
        self.c_applied = c_applied


def test_error_is_in_the_norm_of_the_bound():
    import math

    import numpy as np

    import workloads

    wl = workloads.Workload(seed=0)
    w = np.array([-3.0, -1.0, 0.5])
    A = np.diag(w)
    v = np.array([0.0, 3.0, 4.0])  # ||v|| = 5
    exact_v = np.exp(w) * v
    # absolute 2-norm error of the full matrix
    full = workloads.Call(0, 16, A=A)
    assert wl.error(full, _Result(np.diag(np.exp(w)) + 1e-6 * np.eye(3))) == pytest.approx(1e-6)
    # action, unshifted: divided by ||v||
    act = workloads.Call(0, 16, A=A, v=v)
    res = _Result(exact_v + np.array([1e-6, 0.0, 0.0]))
    assert wl.error(act, res) == pytest.approx(1e-6 / 5.0)
    # shifted: a relative bound certifies ||exp(A)||_2 <= e^c, so divide by e^c ||v||
    res = _Result(exact_v + np.array([1e-6, 0.0, 0.0]), c_applied=0.5)
    assert wl.error(act, res) == pytest.approx(1e-6 / (5.0 * math.exp(0.5)))
