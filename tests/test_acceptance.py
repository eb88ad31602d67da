"""Acceptance gate: one check per shipped guarantee, one verdict line each.

Run with `pytest -s tests/test_acceptance.py` to see every verdict line.
The root-invariant check runs first so that table generation for every order
is charged against its own time budget; later checks reuse the cached
tables.

A binary64 result carries two errors: truncation, bounded by the paper's
term R_n(-rho) - e^-rho (the engine's error_bound), and rounding, bounded by
the engine's rounding_bound.  Two checks are about that split:

* criterion 09 holds the n = 16 rows to the paper's truncation term alone,
  since truncation (~2e-8) dominates there, and every row, n = 32 included,
  to error_bound + rounding_bound.  At n = 32 the truncation term (~3e-21)
  lies far below any binary64 value of exp(A), whose entries are about 1;
  the observed ~2e-13 is partial-fraction rounding.
* criterion 10 checks what the method promises about dimension: the error
  is set by the spectrum, not by d.  At n = 8 truncation dominates and
  ||R_8(A) - exp(A)|| = err_8(lambda_min), so the mean of err / err_8(lo),
  lo the exact smallest eigenvalue, must be flat over d.  The raw means
  drift because the sampled lambda_min moves toward -1 as d grows, and at
  n = 16 the error is binary64 rounding of engine and oracle, which grows
  with d; those n = 16 errors are held to error_bound + rounding_bound.
"""

import math
import os
import statistics
import subprocess
import sys
import time

import numpy as np

import pfexpm
from pfexpm.bench import (
    FAMILY_LAP1D,
    FAMILY_RANDOM,
    MatrixSpec,
    gen_matrix,
    parse_csv,
    run_matrix_suite,
)
from pfexpm.cli import main as cli_main
from pfexpm.engine import MODE_ACTION, ExpOptions, matexp_full, matexp_shifted
from pfexpm.linalg import exp_oracle, norm2
from pfexpm.roots import SEPARATION, default_table
from pfexpm.scalar import (
    approx_error,
    bound_m2,
    check_fn_inequalities,
    err_max_location,
    eval_pf,
    eval_pf_mp,
    eval_reciprocal,
    eval_reciprocal_mp,
    series_coefficients,
)

GRID_10K = np.linspace(-100.0, 0.0, 10**4)


def check(name: str, cond: bool, detail: str = "") -> None:
    line = f"[{'PASS' if cond else 'FAIL'}] {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert cond, line


def note(text: str) -> None:
    print(f"       {text}")


def test_criterion_04_root_invariants():
    t0 = time.perf_counter()
    worst_sep = math.inf
    worst_mod_lo = math.inf
    worst_mod_hi = 0.0
    worst_parab = math.inf
    for n in range(2, 65, 2):
        table = default_table(n)  # builds and validates in extended precision
        th = table.thetas_f8()
        dist = np.abs(th[:, None] - th[None, :])
        np.fill_diagonal(dist, np.inf)
        worst_sep = min(worst_sep, float(dist.min()))
        worst_mod_lo = min(worst_mod_lo, float(np.min(np.abs(th))))
        worst_mod_hi = max(worst_mod_hi, float(np.max(np.abs(th)) / n))
        assert np.all(th.imag != 0.0), f"real root at n={n}"
        worst_parab = min(
            worst_parab, float(np.min(th.imag**2 - 4.0 * (th.real + 1.0)))
        )
    elapsed = time.perf_counter() - t0
    check(
        "criterion 04: root invariants, all even n <= 64",
        worst_sep >= SEPARATION
        and worst_mod_lo >= 1.0
        and worst_mod_hi <= 1.0
        and worst_parab > 0.0
        and elapsed < 60.0,
        f"min sep {worst_sep:.5f}, |theta| in [{worst_mod_lo:.3f}, {worst_mod_hi:.3f}*n], "
        f"parabola margin {worst_parab:.3f}, {elapsed:.1f}s",
    )


def test_criterion_01_truncation_bound_m1():
    t0 = time.perf_counter()
    worst_ratio = 0.0
    for n in (4, 8, 16, 32):
        e2 = float(np.max(np.abs(eval_reciprocal(n, GRID_10K) - np.exp(GRID_10K))))
        worst_ratio = max(worst_ratio, e2 / 2.0**-n)
    elapsed = time.perf_counter() - t0
    check(
        "criterion 01: |R_n - exp| <= 2^-n on [-100, 0], n in {4,8,16,32}",
        worst_ratio <= 1.0 and elapsed < 5.0,
        f"worst e2 / 2^-n = {worst_ratio:.4f}, {elapsed:.1f}s",
    )


def test_criterion_02_float_route_bound_m2():
    t0 = time.perf_counter()
    worst_ratio = 0.0
    for n in (8, 16, 32):
        pf = default_table(n)
        e3 = float(np.max(np.abs(eval_pf(pf, GRID_10K) - eval_reciprocal(n, GRID_10K))))
        worst_ratio = max(worst_ratio, e3 / bound_m2(n, 16))
    elapsed = time.perf_counter() - t0
    check(
        "criterion 02: route gap e3 <= M2(n, 16), n in {8,16,32}",
        worst_ratio <= 1.0 and elapsed < 5.0,
        f"worst e3 / M2 = {worst_ratio:.2e}, {elapsed:.1f}s",
    )


def test_criterion_03_u_shape_of_e1():
    t0 = time.perf_counter()
    true = np.exp(GRID_10K)
    orders = list(range(2, 65, 2))
    e1 = []
    for n in orders:
        pf = default_table(n)
        e1.append(float(np.max(np.abs(eval_pf(pf, GRID_10K) - true))))
    nmin = orders[int(np.argmin(e1))]
    elapsed = time.perf_counter() - t0
    check(
        "criterion 03: uniform e1 minimizer in [28, 44] and e1(64) > e1(min)",
        28 <= nmin <= 44 and e1[-1] > min(e1) and elapsed < 30.0,
        f"minimizer n={nmin} (e1={min(e1):.3e}), e1(64)={e1[-1]:.3e}, {elapsed:.1f}s",
    )


def test_criterion_05_partial_fraction_identity_dd():
    rng = np.random.default_rng(0)
    pts = rng.uniform(-50.0, 0.0, 100)
    worst = 0.0
    for n in range(2, 21, 2):
        table = default_table(n)
        for x in pts:
            gap = abs(float(eval_pf_mp(table, float(x)) - eval_reciprocal_mp(table, float(x))))
            worst = max(worst, gap)
    check(
        "criterion 05: extended-precision route identity <= 1e-20, n <= 20",
        worst <= 1e-20,
        f"worst gap {worst:.3e} at 100 points in [-50, 0]",
    )


def test_criterion_06_series_interpolation_weights():
    ok = True
    details = []
    for n in (2, 4, 8, 16):
        c = series_coefficients(n, n + 2)
        interp = all(
            math.factorial(m) * c[m] == 1 for m in range(n + 1)
        )
        w1 = math.factorial(n + 1) * c[n + 1]
        w2 = math.factorial(n + 2) * c[n + 2]
        ok = ok and interp and w1 == 0 and w2 == -2 * (n + 1)
        details.append(f"n={n}: w_{{n+1}}={w1}, w_{{n+2}}={w2}")
    check(
        "criterion 06: m! c_m = 1 (m <= n), tail weights 0 and -2(n+1)",
        ok,
        "; ".join(details),
    )


def test_criterion_07_extremum_localization():
    ok = True
    details = []
    for n in (4, 8, 16, 32):
        xi, _ = err_max_location(n)
        lo, hi = -(n + 2.0), -n / 2.0
        grid = np.linspace(lo, hi, 10**5)
        spacing = grid[1] - grid[0]
        k = int(np.argmax(approx_error(n, grid)))
        ok = ok and lo <= xi <= hi and abs(xi - grid[k]) <= spacing
        details.append(f"xi_{n}={xi:.6f} (grid gap {abs(xi - grid[k]):.2e})")
    check(
        "criterion 07: err_n extremum in [-(n+2), -n/2], matches 1e5-point grid",
        ok,
        "; ".join(details),
    )


def test_criterion_08_fn_inequalities():
    ok = True
    worst_half = 0.0
    worst_margin = math.inf
    for n in range(2, 21, 2):
        xs = np.linspace(0.0, 4.0 * n, 100)
        report = check_fn_inequalities(n, xs)
        ok = ok and report.half_value < 0.5 and report.ok
        worst_half = max(worst_half, report.half_value)
        worst_margin = min(worst_margin, report.worst_margin)
    check(
        "criterion 08: f_n(n+1) < 1/2 and product inequality on [0, 4n], n <= 20",
        ok,
        f"max f_n(n+1) = {worst_half:.6f}, min margin {worst_margin:.2e}",
    )


def test_criterion_09_matrix_error_bound_lap1d():
    t0 = time.perf_counter()
    rows = []
    all_ok = True
    for d in (50, 100, 400):
        A = gen_matrix(MatrixSpec(FAMILY_LAP1D, d))
        E = exp_oracle(A)
        for n in (16, 32):
            res = matexp_full(A, ExpOptions(n=n))
            err = norm2(res.value - E)
            paper = approx_error(n, -4.0)
            total = res.error_bound + res.rounding_bound
            ok = math.isclose(res.error_bound, paper, rel_tol=1e-12) and err <= total
            if n == 16:
                ok = ok and err <= paper
            all_ok = all_ok and ok
            rows.append(
                f"d={d} n={n}: err {err:.3e} vs truncation {paper:.3e} "
                f"+ rounding {res.rounding_bound:.3e} {'ok' if ok else 'EXCEEDED'}"
            )
    elapsed = time.perf_counter() - t0
    for row in rows:
        note(row)
    note("n=16 rows are held to the truncation term alone; at n=32 it (~3e-21)")
    note("lies below binary64 resolution, and the rounding term covers the error.")
    check(
        "criterion 09: Lap1D error within R_n(-4) - e^-4 (n=16) and within "
        "truncation + rounding (n in {16,32}), d in {50,100,400}",
        all_ok and elapsed < 60.0,
        f"{elapsed:.1f}s",
    )


def test_criterion_10_dimension_flatness():
    dims = (20, 50, 100, 200, 400)

    def mean_errors(n):
        """Mean error and mean error / err_n(lambda_min) per d; bound verdict."""
        means, ratios = [], []
        bound_ok = True
        for d in dims:
            errs, rats = [], []
            for trial in range(10):
                A = gen_matrix(MatrixSpec(FAMILY_RANDOM, d, (-1.0, 0.0), seed=0), trial)
                res = matexp_full(A, ExpOptions(n=n))
                err = norm2(res.value - exp_oracle(A))
                bound_ok = bound_ok and err <= res.error_bound + res.rounding_bound
                errs.append(err)
                rats.append(err / approx_error(n, A.bounds.lo))  # exact lambda_min
            means.append(float(np.mean(errs)))
            ratios.append(float(np.mean(rats)))
        return means, ratios, bound_ok

    means16, _, bound16 = mean_errors(16)
    note("n=16 mean error by d: " + ", ".join(f"{d}: {m:.3e}" for d, m in zip(dims, means16)))
    means8, ratios8, _ = mean_errors(8)
    spread8 = (max(means8) - min(means8)) / float(np.mean(means8))
    flat8 = (max(ratios8) - min(ratios8)) / float(np.mean(ratios8))
    note("n=8  mean error by d: " + ", ".join(f"{d}: {m:.3e}" for d, m in zip(dims, means8)))
    note("n=8  mean err / err_8(lambda_min) by d: "
         + ", ".join(f"{d}: {r:.6f}" for d, r in zip(dims, ratios8)))
    note(f"n=8 raw spread {spread8:.3f} follows the sampled lambda_min; normalized")
    note("it is flat.  n=16 errors are binary64 rounding, held to truncation + rounding.")
    check(
        "criterion 10: random [-1,0] n=8 mean err / err_8(lambda_min) flat within 10% "
        "over d; every n=16 error within truncation + rounding",
        flat8 < 0.10 and bound16,
        f"normalized spread (max-min)/mean = {flat8:.3e}, "
        f"n=16 bound {'held' if bound16 else 'EXCEEDED'}",
    )


def test_criterion_11_shift_method():
    dims = (20, 50, 100, 200, 400)
    means = []
    bound_ok = True
    for d in dims:
        rels = []
        for trial in range(10):
            A = gen_matrix(MatrixSpec(FAMILY_RANDOM, d, (0.0, 20.0), seed=0), trial)
            res = matexp_shifted(A, ExpOptions(n=32, shift="auto"))
            E = exp_oracle(A)
            rel = norm2(res.value - E) / norm2(E)
            # exact bounds: c = alpha(A), so the scaled threshold is 2^-32; with
            # n = 32 <= 2 rho' ~ 40 the certified bound is that threshold, M1
            threshold = 2.0**-32 * math.exp(res.c_applied - A.bounds.hi)
            bound_ok = bound_ok and rel <= threshold and res.error_bound == threshold
            rels.append(rel)
        means.append(float(np.mean(rels)))
    flat = (max(means) - min(means)) / float(np.mean(means))
    note("n=32 mean relative error by d: " + ", ".join(f"{d}: {m:.3e}" for d, m in zip(dims, means)))
    check(
        "criterion 11: shifted random [0,20] n=32 rel err <= 2^-32 e^(c-alpha) = error_bound, "
        "flat within 10%",
        bound_ok and flat < 0.10,
        f"spread (max-min)/mean = {flat:.3f}",
    )


# The two benchmark inputs, each evaluated in a child process; one sha256 of
# `value` per line.  Band input solves with gbtrf/gbtrs, whose results do not
# depend on the BLAS thread count.
_DIGEST_CHILD = """
import hashlib
import numpy as np
from pfexpm.bench import MatrixSpec, gen_matrix
from pfexpm.engine import MODE_ACTION, ExpOptions, matexp_action, matexp_full
from pfexpm.linalg import HermitianMatrix

lap1d = HermitianMatrix(0.7 * gen_matrix(MatrixSpec("lap1d", 300)).entries)
lap2d = HermitianMatrix(125.0 * gen_matrix(MatrixSpec("lap2d", 400)).entries)
def unit(d):
    v = np.random.default_rng(12).standard_normal(d)
    return v / np.linalg.norm(v)
for res in (
    matexp_full(lap1d, ExpOptions(n=16)),
    matexp_action(lap1d, unit(300), ExpOptions(n=16, mode=MODE_ACTION)),
    matexp_action(lap2d, unit(400), ExpOptions(n=20, mode=MODE_ACTION)),
):
    print(hashlib.sha256(np.ascontiguousarray(res.value).tobytes()).hexdigest())
"""


def _value_digests(blas_threads: int) -> list[str]:
    src = os.path.dirname(os.path.dirname(pfexpm.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _DIGEST_CHILD],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    return out.split()


def test_criterion_12_determinism(tmp_path):
    # band input: bit-identical values at 1 and 2 BLAS threads.  The CLI's
    # error column is not compared across thread counts: it includes the
    # eigh oracle, whose bits change with the thread count.
    one, two = _value_digests(1), _value_digests(2)
    engine_ok = len(one) == 3 and one == two

    args = ["bench", "--family", "random", "--d", "15", "--range", "-1:0",
            "--n", "8,16", "--trials", "3", "--seed", "7"]
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    code1 = cli_main(args + ["--out", out1])
    code2 = cli_main(args + ["--out", out2])
    ra, rb = parse_csv(out1), parse_csv(out2)
    cli_ok = (
        code1 == 0
        and code2 == 0
        and [(r.error, r.bound) for r in ra] == [(r.error, r.bound) for r in rb]
    )
    check(
        "criterion 12: band values bit-identical at 1 and 2 BLAS threads; "
        "CLI reruns match error columns",
        engine_ok and cli_ok,
        f"engine {'ok' if engine_ok else 'MISMATCH'}, cli {'ok' if cli_ok else 'MISMATCH'}",
    )


def test_criterion_13_timing_ordinality():
    recs = run_matrix_suite(
        [MatrixSpec(FAMILY_LAP1D, 1000)], [16], mode=MODE_ACTION, trials=3
    )
    t_para = statistics.median(r.t_para for r in recs)
    t_seq = statistics.median(r.t_seq for r in recs)
    check(
        "criterion 13: Lap1D d=1000 action, median t_para < median t_seq",
        t_para < t_seq,
        f"t_para {t_para:.1f} ms vs t_seq {t_seq:.1f} ms",
    )
