"""The closed call loop shared by worker processes and the traced run.

Each call is timed (wall and process CPU), its OrderTooSmallWarning captured
and counted, and its result checked against the workload's oracle outside
the timed region.
"""

from __future__ import annotations

import sys
import time
import traceback
import warnings
from dataclasses import dataclass

import numpy as np

import workloads


@dataclass
class Outcome:
    """One timed call and its oracle check."""

    index: int
    n: int
    wall: float
    cpu: float
    failed: bool
    error: float = float("nan")
    bound: float | None = None
    order_warnings: int = 0
    t_total: float = float("nan")
    t_para: float = float("nan")
    per_term: tuple = ()
    traced: bool = False

    @property
    def certified(self) -> bool:
        return self.bound is not None

    @property
    def violated(self) -> bool:
        return self.certified and not self.error <= self.bound


def measure_call(pf, wl, call, tracer=None) -> Outcome:
    """Time one call (tracing it when a tracer is given), then check it against the oracle."""
    if tracer is None:
        span = workloads.no_span
    else:
        span = lambda name: tracer.span(name, call.index)  # noqa: E731
    res = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        c0 = time.process_time()
        t0 = time.perf_counter()
        with span("call"):
            try:
                res = wl.run(call, span=span)
            except Exception:  # a raising call is counted as failed, not fatal
                traceback.print_exc(file=sys.stderr)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
    order_warnings = sum(issubclass(w.category, pf.OrderTooSmallWarning) for w in caught)
    out = Outcome(call.index, call.n, wall, cpu, failed=True,
                  order_warnings=order_warnings, traced=tracer is not None)
    if res is None:
        return out
    out.bound = res.error_bound
    out.t_total, out.t_para, out.per_term = res.t_total, res.t_para, res.per_term_times
    if np.all(np.isfinite(res.value)):
        out.error = wl.error(call, res, span)
        out.failed = not out.error <= wl.envelope(call.n)
    return out


def deterministic(pf, wl) -> bool:
    """The first call at each order, repeated with threads=1, must be bitwise equal."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", pf.OrderTooSmallWarning)
        for i, n in enumerate(wl.orders):
            call = wl.draw(i)
            a = wl.run(call).value
            b = wl.run(call, opts=wl.with_threads(n, 1)).value
            if a.dtype != b.dtype or a.shape != b.shape or a.tobytes() != b.tobytes():
                print(f"perfbench: {wl.name} n={n}: threads=1 result differs", file=sys.stderr)
                return False
    return True


def call_loop(pf, wl, seconds: float, min_calls: int, first: int, tracer=None) -> list[Outcome]:
    """Closed loop over inputs first, first+1, ... until `seconds` of timed calls and min_calls.

    With a tracer, odd-indexed calls are traced and even-indexed ones are not,
    so the tracing overhead is measured on interleaved calls.
    """
    outcomes: list[Outcome] = []
    timed = 0.0
    wall_cap = 2.0 * seconds + 30.0
    start = time.perf_counter()
    i = first
    while timed < seconds or len(outcomes) < min_calls:
        if time.perf_counter() - start > wall_cap:
            break
        call = wl.draw(i)
        traced = tracer is not None and i % 2 == 1
        out = measure_call(pf, wl, call, tracer if traced else None)
        outcomes.append(out)
        timed += out.wall
        i += 1
    return outcomes


def quality(outcomes: list[Outcome]) -> dict:
    attempted = len(outcomes)
    failed = sum(o.failed for o in outcomes)
    certified = [o for o in outcomes if o.certified]
    violated = sum(o.violated for o in certified)
    return {
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "certified_frac": len(certified) / attempted,
        "bound_violation_frac": violated / len(certified) if certified else 0.0,
        "order_warnings_per_call": sum(o.order_warnings for o in outcomes) / attempted,
        "err_max": max((o.error for o in outcomes if not np.isnan(o.error)), default=float("nan")),
    }
