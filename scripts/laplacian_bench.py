#!/usr/bin/env python3
"""Benchmark the partial-fraction exponential on discrete Laplacians.

Runs matexp_full or matexp_action on 1-D (or 2-D) grid Laplacians over a
list of dimensions and orders, comparing against a dense eigendecomposition
oracle.  Prints one row per (d, n) with the measured error, the certified
a priori bound (truncation term and rounding term) when available, and the
three timing columns:

  t_seq    oracle wall time (median of repeats)
  t_para   slowest single shifted solve (critical path if run in parallel)
  t_total  whole approximation, solves run back to back

All durations are milliseconds.  With --out the raw records go to CSV in
the same schema as `pfexpm bench`; with --plot-out a whitespace table per
(family, n, mode) block is written for plotting tools.

Usage:
  python scripts/laplacian_bench.py --dims 100,200,400 --n 16,32
  python scripts/laplacian_bench.py --family lap2d --dims 400,900 --mode action
"""

import argparse
import sys

from pfexpm.bench import (
    FAMILY_LAP1D,
    FAMILY_LAP2D,
    MatrixSpec,
    emit_csv,
    emit_plotdata,
    run_matrix_suite,
)
from pfexpm.engine import MODE_ACTION, MODE_FULL


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--family", choices=[FAMILY_LAP1D, FAMILY_LAP2D], default=FAMILY_LAP1D)
    ap.add_argument("--dims", default="100,200,400", help="comma-separated dimensions")
    ap.add_argument("--n", default="16,32", help="comma-separated even orders")
    ap.add_argument("--mode", choices=[MODE_FULL, MODE_ACTION], default=MODE_FULL)
    ap.add_argument("--trials", type=int, default=1, help="repeats per (d, n) pair")
    ap.add_argument("--timing-repeats", type=int, default=3, help="timed runs per record")
    ap.add_argument("--out", default=None, help="write raw records as CSV")
    ap.add_argument("--plot-out", default=None, help="write aggregated plot blocks")
    args = ap.parse_args(argv)

    dims = [int(s) for s in args.dims.split(",")]
    n_list = [int(s) for s in args.n.split(",")]
    specs = [MatrixSpec(args.family, d) for d in dims]
    records = run_matrix_suite(
        specs, n_list, mode=args.mode, trials=args.trials,
        timing_repeats=args.timing_repeats,
    )

    print(
        f"{'d':>6} {'n':>4} {'error':>12} {'bound':>12} {'rounding':>12} "
        f"{'t_seq_ms':>10} {'t_para_ms':>10} {'t_total_ms':>10}"
    )
    for r in records:
        bound = f"{r.bound:.4e}" if r.bound is not None else "-"
        rounding = f"{r.rounding:.4e}" if r.rounding is not None else "-"
        print(
            f"{r.spec.d:>6} {r.n:>4} {r.error:>12.4e} {bound:>12} {rounding:>12} "
            f"{r.t_seq:>10.2f} {r.t_para:>10.2f} {r.t_total:>10.2f}"
        )

    if args.out:
        emit_csv(records, args.out)
        print(f"wrote {len(records)} records to {args.out}")
    if args.plot_out:
        emit_plotdata(records, args.plot_out)
        print(f"wrote plot blocks to {args.plot_out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
