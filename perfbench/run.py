"""pfexpm benchmark: one workload per invocation, end-to-end metrics or a layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload full-lap1d --seed 1 --seconds 30 --trace 0

Workloads are defined in workloads.py, the call loop in harness.py and the
metric arithmetic in measure.py.  The load is a closed loop: one caller, each
call issued when the previous one returned.  Each result is checked against
an eigendecomposition oracle outside the timed region.

--trace 0 first measures set-up in SETUP_RUNS fresh processes
(setup_child.py), then warms this process up and times calls.  --trace 1
records spans around the benchmark's own calls into pfexpm.linalg, .roots,
.scalar and .engine and the oracle baselines, and reports the per-layer
metrics.

The last line of standard output is the result object; the line before it
holds the details (machine, counts, samples).  The exit code is non-zero when
a call fails, a result differs between thread counts, or src/pfexpm is
missing.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import scipy

import harness
import measure
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_RUNS = 7  # fresh processes per run; setup_s is their median
# The first few dozen calls of a process run slower (allocator and thread
# start-up); users with a long-lived process do not see that, so it is not timed.
WARMUP_SECONDS = 3.0
TIMED_FIRST = 10**6  # timed calls draw inputs from here; warm-up inputs lie below
TAIL_PCT = 90
MIN_CALLS = measure.min_samples(TAIL_PCT)  # at least ten samples beyond the p90
LAYER_REPEATS = 5  # isolated calls per layer in the traced run
COLD_REPEATS = 3  # cold root-table builds per order
LOOKUP_REPEATS = 1000  # warm table lookups timed as one span
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def load_pfexpm():
    """Import pfexpm from this checkout's src/, never from an installed copy."""
    init = SRC / "pfexpm" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: {init.relative_to(ROOT)} is missing; run from a checkout")
    sys.path.insert(0, str(SRC))
    import pfexpm

    if Path(pfexpm.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported pfexpm from {pfexpm.__file__}, not {init}")
    return pfexpm


def machine(pf, wl) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads_env": {
            k: os.environ.get(k, "unset → library default") for k in BLAS_ENV
        },
        "threadpoolctl_installed": importlib.util.find_spec("threadpoolctl") is not None,
        "engine_workers": {str(n): pf.ExpOptions(n=n).worker_count(n // 2) for n in wl.orders},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def labelled(values: dict, kind: str) -> tuple[dict, dict]:
    """Attach units from BENCHMARK.json; the computed metrics must match its list exactly."""
    spec = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]}
    if set(values) != set(spec):
        raise SystemExit(f"perfbench: {kind} metrics differ from BENCHMARK.json: "
                         f"{sorted(set(values) ^ set(spec))}")
    metrics = {k: {"value": v, "unit": spec[k]["unit"]} for k, v in values.items()}
    return metrics, {k: spec[k]["better"] for k in values}


def setup_samples(wl) -> list[dict]:
    samples = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_child.py"), wl.name, str(wl.seed), str(SRC)],
            cwd=ROOT, capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up process failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.splitlines()[-1]))
    return samples


def warmed_up(pf, wl, tracer=None) -> bool:
    """Prepare, check bit-determinism, then run untimed calls; False if any check fails."""
    wl.prepare(pf, tracer.span if tracer else workloads.no_span)
    same = harness.deterministic(pf, wl)
    warm = harness.call_loop(pf, wl, WARMUP_SECONDS, 0, len(wl.orders))
    return same and not any(o.failed for o in warm)


def end_to_end(pf, wl, seconds: float):
    setup = setup_samples(wl)
    ok = warmed_up(pf, wl)
    outcomes = harness.call_loop(pf, wl, seconds, MIN_CALLS, TIMED_FIRST)
    walls = [o.wall for o in outcomes]
    p90 = measure.percentile(walls, TAIL_PCT)
    q = harness.quality(outcomes)
    values = {
        "setup_s": measure.median([r["setup_s"] for r in setup]),
        "call_p50_s": measure.median(walls),
        "call_p90_s": p90,
        "throughput_calls_per_s": len(walls) / sum(walls),
        "cpu_per_call_s": sum(o.cpu for o in outcomes) / len(outcomes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "err_max": q["err_max"],
        "ok_frac": 1.0 - q["failed_frac"],
        "bound_held_frac": 1.0 - q["bound_violation_frac"],
    }
    metrics, better = labelled(values, "end_to_end")
    detail = dict(
        q, better=better, checks_passed=ok, calls=len(walls),
        p90_samples_beyond=measure.samples_beyond(walls, p90),
        setup_samples=[r["setup_s"] for r in setup],
        import_samples=[r["import_s"] for r in setup],
    )
    return outcomes, ok, metrics, detail


def layers(pf, wl, tracer) -> dict:
    """Isolated calls into each layer on the first input of every order, under spans."""
    span = tracer.span
    serial_reduce = []
    for i, n in enumerate(wl.orders):
        call = wl.draw(i)
        for _ in range(LAYER_REPEATS):
            wl.construct(call, span)
        H = wl.operator(call)
        rho = wl.interval_radius(H, call)
        for _ in range(LAYER_REPEATS):
            with span("linalg.gershgorin_bounds"):
                pf.gershgorin_bounds(H)
            wl.pair_solve(H, call, span)
            with span("scalar.approx_error"):
                pf.approx_error(n, -rho)
            wl.decompose(call, span)
            wl.baseline_expm_multiply(call, span)
        for _ in range(COLD_REPEATS):
            with span(f"roots.build_table[n={n}]"):
                pf.build_table(n)
        with span(f"roots.default_table[n={n}]x{LOOKUP_REPEATS}"):
            for _ in range(LOOKUP_REPEATS):
                pf.default_table(n)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", pf.OrderTooSmallWarning)
            for _ in range(LAYER_REPEATS):
                res = wl.run(call, opts=wl.serial(n))
                serial_reduce.append(res.t_total - sum(res.per_term_times))
    med = lambda name: measure.median(tracer.self_times(name))  # noqa: E731
    pair = "linalg.shifted_inverse" if wl.mode == "full" else "linalg.shifted_solve"
    return {
        "linalg.ctor_s": med("linalg.HermitianMatrix"),
        "linalg.entries_bytes": float(wl.operator(wl.draw(0)).entries.nbytes),
        "linalg.gershgorin_s": med("linalg.gershgorin_bounds"),
        "linalg.pair_solve_s": med(pair),
        "roots.build_cold_s": sum(med(f"roots.build_table[n={n}]") for n in wl.orders),
        "roots.lookup_warm_s": wl.per_call(
            lambda n: med(f"roots.default_table[n={n}]x{LOOKUP_REPEATS}") / LOOKUP_REPEATS
        ),
        "scalar.approx_error_s": med("scalar.approx_error"),
        "engine.reduce_serial_s": measure.median(serial_reduce),
        "oracle.eigh_s": med("oracle.eigh"),
        "oracle.expm_multiply_s": med("oracle.expm_multiply"),
    }


def traced(pf, wl, seconds: float):
    tracer = measure.Tracer()
    ok = warmed_up(pf, wl, tracer)
    values = layers(pf, wl, tracer)
    outcomes = harness.call_loop(pf, wl, seconds, MIN_CALLS, TIMED_FIRST, tracer)
    on = [o for o in outcomes if o.traced]
    off = [o for o in outcomes if not o.traced]
    call_s = measure.median(tracer.durations("call"))
    values.update({
        "engine.call_s": call_s,
        "engine.t_total_s": measure.median([o.t_total for o in on]),
        "engine.t_para_s": measure.median([o.t_para for o in on]),
        "engine.task_sum_s": measure.median([sum(o.per_term) for o in on]),
        "engine.outside_tasks_s": measure.median([o.wall - o.t_total for o in on]),
        "engine.task_inflation": measure.median([t for o in on for t in o.per_term])
        / values["linalg.pair_solve_s"],
        "engine.cpu_s": measure.median([o.cpu for o in on]),
        "engine.pairs": wl.pairs(),
        "engine.flops_computed": wl.flops(),
        "engine.bytes_computed": wl.bytes(),
        "oracle.apply_s": measure.median(tracer.self_times("oracle.apply")),
        "trace.overhead_frac": call_s / measure.median([o.wall for o in off]) - 1.0,
    })
    q = harness.quality(outcomes)
    for k in ("certified_frac", "bound_violation_frac", "failed_frac", "order_warnings_per_call"):
        values[f"engine.{k}"] = q[k]
    metrics, better = labelled(values, "per_layer")
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{wl.name}-seed{wl.seed}.json"
    trace_file.write_text(json.dumps(tracer.to_json()))
    detail = dict(
        q, better=better, checks_passed=ok, calls_traced=len(on), calls_untraced=len(off),
        trace_file=str(trace_file.relative_to(ROOT)),
        build_cold_s={
            n: measure.median(tracer.self_times(f"roots.build_table[n={n}]")) for n in wl.orders
        },
    )
    return outcomes, ok, metrics, detail


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    pf = load_pfexpm()
    wl = workloads.WORKLOADS[args.workload](args.seed)
    run = traced if args.trace else end_to_end
    outcomes, ok, metrics, detail = run(pf, wl, args.seconds)
    failed = sum(o.failed for o in outcomes)
    correct = ok and failed == 0
    detail.update(workload=wl.name, seed=args.seed, trace=args.trace, machine=machine(pf, wl))
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
