"""Benchmark harness: test-matrix generators, scalar and matrix suites, CSV.

Matrix families
---------------
lap1d   tridiagonal (1, -2, 1) stencil, unscaled (h = 1), spectrum in (-4, 0)
lap2d   5-point stencil as the Kronecker sum of two lap1d factors on an
        m x m grid (d = m^2 must be a perfect square), spectrum in (-8, 0)
random  Q diag(lambda) Q^T with lambda i.i.d. uniform on [lo, hi] and Q the
        sign-fixed QR factor of a seeded Gaussian matrix; exact spectral
        bounds are attached since the spectrum is known by construction

Unscaled stencils keep the spectral interval d-independent, so the observed
error tracks the order n and not the dimension, which is what the error-vs-
dimension experiments rely on.

Error convention: absolute 2-norm error when the spectral upper estimate is
nonpositive, relative (divided by ||exp(A)||_2) when positive eigenvalues
are present.  Action mode uses the corresponding vector norms.

Timing: every timed region runs `timing_repeats` times after one discarded
warm-up, and the median is reported; single-shot wall clocks are too noisy
for regression gating.  t_seq times the dense eigendecomposition oracle,
t_para is the engine's max per-task time, t_total its wall time.  All
durations in BenchRecord are milliseconds, matching the CSV columns.

CSV schema (header exactly):
  family,d,n,mode,shift,seed,trial,error,error_kind,t_seq_ms,t_para_ms,t_total_ms,bound
Floats are written in scientific notation with 17 significant digits (exact
binary64 round-trip); `bound` is empty when no certified bound exists and is
expressed in the same kind as `error_kind`; `shift` is the applied shift c
or the literal `none`.  UTF-8, LF endings.
The spectrum range of the random family is a generator parameter and is not
part of the schema, so parse_csv leaves it unset.
"""

from __future__ import annotations

import csv
import math
import statistics
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .engine import (
    MODE_ACTION,
    MODE_FULL,
    POSITIVE_FUZZ,
    ExpOptions,
    matexp_action,
    matexp_full,
)
from .errors import BadSpec, ParseError
from .linalg import HermitianMatrix, SpectralBounds, exp_oracle, gershgorin_bounds, norm2
from .scalar import bound_m1, bound_m2, eval_pf, eval_reciprocal, partial_fraction

__all__ = [
    "CSV_HEADER",
    "FAMILY_LAP1D",
    "FAMILY_LAP2D",
    "FAMILY_RANDOM",
    "BenchRecord",
    "MatrixSpec",
    "ScalarRow",
    "emit_csv",
    "emit_plotdata",
    "emit_scalar_csv",
    "gen_matrix",
    "parse_csv",
    "run_matrix_suite",
    "run_scalar_suite",
]

FAMILY_LAP1D = "lap1d"
FAMILY_LAP2D = "lap2d"
FAMILY_RANDOM = "random"
FAMILIES = (FAMILY_LAP1D, FAMILY_LAP2D, FAMILY_RANDOM)

CSV_HEADER = (
    "family,d,n,mode,shift,seed,trial,error,error_kind,"
    "t_seq_ms,t_para_ms,t_total_ms,bound"
)

ERROR_ABSOLUTE = "absolute"
ERROR_RELATIVE = "relative"


@dataclass(frozen=True)
class MatrixSpec:
    """One benchmark matrix: family, size, and (random only) spectrum range."""

    family: str
    d: int
    spectrum_range: tuple[float, float] | None = None
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise BadSpec(f"unknown family {self.family!r}, expected one of {FAMILIES}")
        if not isinstance(self.d, int) or isinstance(self.d, bool) or self.d < 1:
            raise BadSpec(f"d must be a positive integer, got {self.d!r}")
        if self.family == FAMILY_LAP2D:
            m = int(round(self.d**0.5))
            if m * m != self.d:
                raise BadSpec(f"lap2d needs a perfect-square d (m x m grid), got {self.d}")
        if self.spectrum_range is not None:
            if self.family != FAMILY_RANDOM:
                raise BadSpec(f"{self.family} does not take a spectrum_range")
            lo, hi = self.spectrum_range
            if not lo <= hi:
                raise BadSpec(f"spectrum_range must have lo <= hi, got {self.spectrum_range}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or self.seed < 0:
            raise BadSpec(f"seed must be a nonnegative integer, got {self.seed!r}")

    @property
    def grid_m(self) -> int:
        if self.family != FAMILY_LAP2D:
            raise BadSpec("grid_m is only defined for lap2d")
        return int(round(self.d**0.5))


@dataclass(frozen=True)
class BenchRecord:
    """One benchmark row; durations are milliseconds (median of repeats)."""

    spec: MatrixSpec
    n: int
    mode: str
    shift: float | None  # applied shift c, None when unshifted
    trial: int
    error: float
    error_kind: str
    t_seq: float
    t_para: float
    t_total: float
    bound: float | None
    per_term_times: tuple = field(default=(), compare=False)

    def __post_init__(self):
        if not self.error >= 0.0:
            raise BadSpec(f"error must be >= 0, got {self.error!r}")
        if self.error_kind not in (ERROR_ABSOLUTE, ERROR_RELATIVE):
            raise BadSpec(f"unknown error_kind {self.error_kind!r}")
        if self.mode not in (MODE_FULL, MODE_ACTION):
            raise BadSpec(f"unknown mode {self.mode!r}")
        # the max per-task time can never exceed the enclosing wall time
        if self.t_para > self.t_total:
            raise BadSpec(f"t_para {self.t_para} > t_total {self.t_total}")


def _lap1d_entries(d: int) -> np.ndarray:
    A = np.zeros((d, d))
    idx = np.arange(d)
    A[idx, idx] = -2.0
    A[idx[:-1], idx[:-1] + 1] = 1.0
    A[idx[:-1] + 1, idx[:-1]] = 1.0
    return A


def gen_matrix(spec: MatrixSpec, trial: int = 0) -> HermitianMatrix:
    """Materialize a benchmark matrix; deterministic in (spec.seed, trial)."""
    if spec.family == FAMILY_LAP1D:
        return HermitianMatrix(_lap1d_entries(spec.d))
    if spec.family == FAMILY_LAP2D:
        m = spec.grid_m
        B = _lap1d_entries(m)
        I = np.eye(m)
        return HermitianMatrix(np.kron(B, I) + np.kron(I, B))
    if spec.spectrum_range is None:
        raise BadSpec("generating a random-family matrix needs a spectrum_range")
    lo, hi = spec.spectrum_range
    rng = np.random.default_rng([spec.seed, trial])
    lam = np.sort(rng.uniform(lo, hi, spec.d))
    Q, R = np.linalg.qr(rng.standard_normal((spec.d, spec.d)))
    Q = Q * np.sign(np.diag(R))  # sign-fixed so Q is unique given the draw
    A = (Q * lam) @ Q.T
    A = (A + A.T) / 2.0
    return HermitianMatrix(
        A, bounds=SpectralBounds(float(lam[0]), float(lam[-1]), exact=True)
    )


def _unit_vector(spec: MatrixSpec, trial: int) -> np.ndarray:
    rng = np.random.default_rng([spec.seed, trial, 1])
    v = rng.standard_normal(spec.d)
    return v / np.linalg.norm(v)


def _spectrum_reaches_positive(A: HermitianMatrix) -> bool:
    bounds = A.bounds if A.bounds is not None else gershgorin_bounds(A)
    return bounds.hi > POSITIVE_FUZZ * max(1.0, abs(bounds.lo))


def _median_timed(fn, repeats: int):
    """(last result, median duration in ms) over `repeats` runs, one warm-up."""
    fn()  # warm-up, discarded
    durations = []
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        durations.append((time.perf_counter() - t0) * 1e3)
    return result, statistics.median(durations)


def _run_one(
    spec: MatrixSpec,
    n: int,
    mode: str,
    trial: int,
    threads,
    shift,
    timing_repeats: int,
) -> BenchRecord:
    A = gen_matrix(spec, trial)
    v = _unit_vector(spec, trial) if mode == MODE_ACTION else None
    opts = ExpOptions(n=n, mode=mode, shift=shift, threads=threads)

    if mode == MODE_ACTION:
        run = lambda: matexp_action(A, v, opts)
    else:
        run = lambda: matexp_full(A, opts)

    # the engine clocks itself per run, so the warm-up/median protocol reads
    # t_para and t_total straight off the result objects
    run()  # warm-up, discarded
    results = [run() for _ in range(timing_repeats)]
    res = results[-1]
    t_para = statistics.median(r.t_para for r in results) * 1e3
    t_total = statistics.median(r.t_total for r in results) * 1e3

    if mode == MODE_ACTION:
        oracle = lambda: exp_oracle(A) @ v
        want, t_seq = _median_timed(oracle, timing_repeats)
        err = float(np.linalg.norm(res.value - want))
        scale = float(np.linalg.norm(want))
    else:
        oracle = lambda: exp_oracle(A)
        want, t_seq = _median_timed(oracle, timing_repeats)
        err = norm2(res.value - want)
        scale = norm2(want)

    if _spectrum_reaches_positive(A):
        kind = ERROR_RELATIVE
        err = err / scale
    else:
        kind = ERROR_ABSOLUTE

    bound = res.error_bound
    if bound is not None and res.bound_kind == "relative" and kind == ERROR_ABSOLUTE:
        # shifted run on a nonpositive spectrum: the certified bound is
        # relative, the error column absolute.  ||exp(A)||_2 = e^alpha <= e^c
        # (a bound only survives the shift when alpha <= c), so scaling by
        # e^c converts rigorously.
        bound = bound * math.exp(res.c_applied)

    return BenchRecord(
        spec=spec,
        n=n,
        mode=mode,
        shift=res.c_applied,
        trial=trial,
        error=err,
        error_kind=kind,
        t_seq=t_seq,
        t_para=t_para,
        t_total=t_total,
        bound=bound,
        per_term_times=res.per_term_times,
    )


def run_matrix_suite(
    spec_list,
    n_list,
    mode: str = MODE_FULL,
    trials: int = 1,
    threads="auto",
    shift=None,
    timing_repeats: int = 3,
) -> list[BenchRecord]:
    """One BenchRecord per (spec, n, trial); sequential to keep timings honest."""
    if trials < 1:
        raise BadSpec(f"trials must be >= 1, got {trials}")
    if timing_repeats < 1:
        raise BadSpec(f"timing_repeats must be >= 1, got {timing_repeats}")
    records = []
    for spec in spec_list:
        for n in n_list:
            for trial in range(trials):
                records.append(
                    _run_one(spec, n, mode, trial, threads, shift, timing_repeats)
                )
    return records


@dataclass(frozen=True)
class ScalarRow:
    """Uniform-norm error decomposition of one order over a grid."""

    n: int
    max_e1: float  # partial fractions vs libm exp
    max_e2: float  # reciprocal truncated series vs libm exp
    max_e3: float  # the two routes against each other
    m1: float  # truncation bound 2^-n
    m2: float  # floating-point route-gap bound at D digits


def run_scalar_suite(n_list, x_grid, D: int = 16) -> list[ScalarRow]:
    """Error decomposition rows over x_grid (must lie in the left half-line)."""
    x = np.asarray(x_grid, dtype=float)
    if x.size == 0 or np.any(x > 0.0):
        raise BadSpec("x_grid must be nonempty with x <= 0")
    true = np.exp(x)
    rows = []
    for n in n_list:
        pf = partial_fraction(n)
        via_pf = eval_pf(pf, x)
        via_rec = eval_reciprocal(n, x)
        rows.append(
            ScalarRow(
                n=n,
                max_e1=float(np.max(np.abs(via_pf - true))),
                max_e2=float(np.max(np.abs(via_rec - true))),
                max_e3=float(np.max(np.abs(via_pf - via_rec))),
                m1=bound_m1(n),
                m2=bound_m2(n, D),
            )
        )
    return rows


def _fmt(x: float) -> str:
    return f"{x:.16e}"


def emit_csv(records, path) -> None:
    """Write BenchRecords to the flat schema; bound empty when uncertified."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER.split(","))
        for r in records:
            writer.writerow(
                [
                    r.spec.family,
                    r.spec.d,
                    r.n,
                    r.mode,
                    "none" if r.shift is None else _fmt(r.shift),
                    r.spec.seed,
                    r.trial,
                    _fmt(r.error),
                    r.error_kind,
                    _fmt(r.t_seq),
                    _fmt(r.t_para),
                    _fmt(r.t_total),
                    "" if r.bound is None else _fmt(r.bound),
                ]
            )


def parse_csv(path) -> list[BenchRecord]:
    """Read a bench CSV back; the random family's range is not serialized."""
    records = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != CSV_HEADER.split(","):
            raise ParseError(f"unexpected CSV header {reader.fieldnames!r}")
        for row in reader:
            spec = MatrixSpec(
                family=row["family"],
                d=int(row["d"]),
                spectrum_range=None,
                seed=int(row["seed"]),
            )
            records.append(
                BenchRecord(
                    spec=spec,
                    n=int(row["n"]),
                    mode=row["mode"],
                    shift=None if row["shift"] == "none" else float(row["shift"]),
                    trial=int(row["trial"]),
                    error=float(row["error"]),
                    error_kind=row["error_kind"],
                    t_seq=float(row["t_seq_ms"]),
                    t_para=float(row["t_para_ms"]),
                    t_total=float(row["t_total_ms"]),
                    bound=None if row["bound"] == "" else float(row["bound"]),
                )
            )
    return records


def emit_scalar_csv(rows, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["n", "max_e1", "max_e2", "max_e3", "m1", "m2"])
        for r in rows:
            writer.writerow(
                [r.n, _fmt(r.max_e1), _fmt(r.max_e2), _fmt(r.max_e3), _fmt(r.m1), _fmt(r.m2)]
            )


def emit_plotdata(records, path) -> None:
    """Gnuplot-style blocks: one per (family, n, mode), x = d, trial means.

    Columns: d, mean error, mean bound (nan when any row is uncertified),
    mean t_seq_ms, mean t_para_ms, mean t_total_ms.  Blocks are separated by
    two blank lines for gnuplot's `index` addressing.
    """
    groups: dict[tuple, dict[int, list[BenchRecord]]] = {}
    for r in records:
        by_d = groups.setdefault((r.spec.family, r.n, r.mode), {})
        by_d.setdefault(r.spec.d, []).append(r)
    blocks = []
    for (family, n, mode), by_d in sorted(groups.items()):
        lines = [
            f"# family={family} n={n} mode={mode}",
            "# d mean_error mean_bound mean_t_seq_ms mean_t_para_ms mean_t_total_ms",
        ]
        for d in sorted(by_d):
            rs = by_d[d]
            mean = lambda vals: sum(vals) / len(vals)
            bound = (
                float("nan")
                if any(r.bound is None for r in rs)
                else mean([r.bound for r in rs])
            )
            lines.append(
                f"{d} {_fmt(mean([r.error for r in rs]))} {_fmt(bound)} "
                f"{_fmt(mean([r.t_seq for r in rs]))} {_fmt(mean([r.t_para for r in rs]))} "
                f"{_fmt(mean([r.t_total for r in rs]))}"
            )
        blocks.append("\n".join(lines))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n\n\n".join(blocks) + "\n")
