"""Command-line interface: the one front end for the paper's experiments.

Subcommands
-----------
bench   run the matrix suite on one family over a list of dimensions and
        orders: print one table row per record (error, bound, rounding,
        err/err_n(lo), t_seq, t_para, t_total in ms), write the CSV and,
        with --plot-out, the gnuplot blocks of bench.emit_plotdata; over
        more than one d, print the flatness over d of each order; print one
        stderr line per record without a certified bound
scalar  scalar error decomposition (max e1/e2/e3 with bounds) over a grid:
        print one table row per order and the order that minimizes max e1,
        write the CSV
tables  generate, persist, and re-validate root tables

Exit codes: 0 ok, 2 bad arguments (including infeasible configurations),
3 invariant violation or numerical failure, 4 I/O error.

Reruns with the same arguments produce identical error and bound columns;
only the timing columns move.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import warnings

import numpy as np

from .bench import (
    FAMILIES,
    FAMILY_RANDOM,
    MatrixSpec,
    emit_csv,
    emit_plotdata,
    emit_scalar_csv,
    run_matrix_suite,
    run_scalar_suite,
)
from .engine import MODE_ACTION, MODE_FULL
from .errors import (
    BadSpec,
    ConditionViolated,
    OrderOutOfRange,
    OrderTooSmallWarning,
    Overflow,
    PfexpmError,
)
from .roots import build_table, check_exclusion_regions, load_table, save_table

EXIT_OK = 0
EXIT_BAD_ARGS = 2
EXIT_INVARIANT = 3
EXIT_IO = 4


def _parse_int_list(text: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma list of ints, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("empty list")
    return values


def _parse_range(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"--range expects lo:hi, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"--range expects reals, got {text!r}")
    return lo, hi


def _parse_grid(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"--grid expects lo:hi:count, got {text!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(f"--grid expects lo:hi:count, got {text!r}")
    if count < 2:
        raise argparse.ArgumentTypeError("--grid count must be >= 2")
    if not lo <= hi:
        raise argparse.ArgumentTypeError("--grid needs lo <= hi")
    return np.linspace(lo, hi, count)


def _parse_shift(text: str):
    if text == "none":
        return None
    if text == "auto":
        return "auto"
    if text.startswith("c="):
        try:
            return float(text[2:])
        except ValueError:
            pass
    raise argparse.ArgumentTypeError(f"--shift expects none, auto, or c=<real>, got {text!r}")


def _parse_seed(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"--seed expects an unsigned int, got {text!r}")
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("--seed must fit in 64 bits")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pfexpm",
        description="Rational (partial-fraction) matrix exponential benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bench", help="run matrix experiments, write a CSV")
    b.add_argument("--family", required=True, choices=FAMILIES)
    b.add_argument("--d", required=True, type=_parse_int_list, metavar="d1,d2,...",
                   help="matrix dimensions, run in the order given")
    b.add_argument("--range", type=_parse_range, default=None, metavar="lo:hi",
                   help="spectrum interval (random family only)")
    b.add_argument("--n", type=_parse_int_list, default=[16], metavar="n1,n2,...")
    b.add_argument("--mode", choices=(MODE_FULL, MODE_ACTION), default=MODE_FULL)
    b.add_argument("--trials", type=int, default=None,
                   help="rows per (spec, n); default 10 for random, else 1")
    b.add_argument("--seed", type=_parse_seed, default=0)
    b.add_argument("--shift", type=_parse_shift, default=None, metavar="{none|auto|c=<real>}")
    b.add_argument("--out", required=True, help="output CSV path")
    b.add_argument("--plot-out", default=None, metavar="PATH",
                   help="also write one gnuplot block per (family, n, mode)")

    s = sub.add_parser("scalar", help="scalar error decomposition over a grid")
    s.add_argument("--n", type=_parse_int_list, default=[4, 8, 16, 32], metavar="n1,n2,...")
    s.add_argument("--grid", type=_parse_grid, default=None, metavar="lo:hi:count",
                   help="evaluation grid, default -100:0:10000")
    s.add_argument("--digits", type=int, default=16,
                   help="working-precision digits D of the route-gap bound m2")
    s.add_argument("--out", required=True, help="output CSV path")

    t = sub.add_parser("tables", help="generate and validate root tables")
    t.add_argument("--n", type=_parse_int_list, required=True, metavar="n1,n2,...")
    t.add_argument("--dir", required=True, help="directory for table files")
    return parser


def _cmd_bench(args) -> int:
    if (args.family == FAMILY_RANDOM) != (args.range is not None):
        raise BadSpec("--range is required for --family random and refused otherwise")
    trials = args.trials
    if trials is None:
        trials = 10 if args.family == FAMILY_RANDOM else 1
    specs = [MatrixSpec(args.family, d, args.range, seed=args.seed) for d in args.d]
    with warnings.catch_warnings():
        # reported below, one fixed line per uncertified record
        warnings.simplefilter("ignore", OrderTooSmallWarning)
        records = run_matrix_suite(specs, args.n, mode=args.mode, trials=trials, shift=args.shift)
    for r in records:
        if r.bound is None:
            print(
                f"pfexpm: d={r.spec.d} n={r.n}: no certified bound: "
                "the spectral interval reaches above 0 (try --shift auto)",
                file=sys.stderr,
            )
    print(
        f"{'d':>6} {'n':>4} {'error':>12} {'bound':>12} {'rounding':>12} {'err/err_n':>12} "
        f"{'t_seq_ms':>10} {'t_para_ms':>10} {'t_total_ms':>10}"
    )
    for r in records:
        bound = f"{r.bound:.4e}" if r.bound is not None else "-"
        rounding = f"{r.rounding:.4e}" if r.rounding is not None else "-"
        print(
            f"{r.spec.d:>6} {r.n:>4} {r.error:>12.4e} {bound:>12} {rounding:>12} "
            f"{r.err_over_errn:>12.4e} {r.t_seq:>10.2f} {r.t_para:>10.2f} {r.t_total:>10.2f}"
        )
    emit_csv(records, args.out)
    print(f"wrote {len(records)} records to {args.out}")
    if args.plot_out is not None:
        emit_plotdata(records, args.plot_out)
        print(f"wrote plot blocks to {args.plot_out}")
    for n in args.n if len(args.d) > 1 else ():
        flat = []  # (max - min) / mean of the per-d trial means
        for col in ("error", "err_over_errn"):
            per_d = ([getattr(r, col) for r in records if (r.n, r.spec.d) == (n, d)] for d in args.d)
            means = [statistics.fmean(xs) for xs in per_d]
            flat.append((max(means) - min(means)) / statistics.fmean(means))
        print(f"n={n} flatness over d: error {flat[0]:.4g}, err/err_n(lo) {flat[1]:.4g}")
    return EXIT_OK


def _cmd_scalar(args) -> int:
    grid = args.grid if args.grid is not None else np.linspace(-100.0, 0.0, 10000)
    rows = run_scalar_suite(args.n, grid, D=args.digits)
    print(f"{'n':>4} {'max_e1':>12} {'max_e2':>12} {'max_e3':>12} {'m1':>12} {'m2':>12}")
    for r in rows:
        print(
            f"{r.n:>4} {r.max_e1:>12.4e} {r.max_e2:>12.4e} {r.max_e3:>12.4e} "
            f"{r.m1:>12.4e} {r.m2:>12.4e}"
        )
    best = min(rows, key=lambda r: r.max_e1)
    print(f"uniform e1 minimizer: n={best.n} (e1={best.max_e1:.4e})")
    emit_scalar_csv(rows, args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def _cmd_tables(args) -> int:
    os.makedirs(args.dir, exist_ok=True)
    for n in args.n:
        table = build_table(n)
        check_exclusion_regions(table)  # raises InvariantViolation on a parabola breach
        path = os.path.join(args.dir, f"pfexpm-table-n{n:02d}.txt")
        save_table(table, path)
        load_table(path)  # parses and re-validates every invariant
        print(f"n={n:2d} ok: {path} (residual {table.residual:.3e})")
    return EXIT_OK


def _merge_dash_values(argv):
    """Join `--grid -100:0:10` into `--grid=-100:0:10`.

    argparse lexes a dash-leading value as an option flag; these two flags
    routinely take negative-number values, so their separated form is merged
    before parsing.
    """
    out = []
    it = iter(argv)
    for tok in it:
        if tok in ("--grid", "--range"):
            val = next(it, None)
            out.append(tok if val is None else f"{tok}={val}")
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_merge_dash_values(argv))
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass both through
        return int(exc.code or 0)
    try:
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "scalar":
            return _cmd_scalar(args)
        return _cmd_tables(args)
    except (BadSpec, OrderOutOfRange, ConditionViolated, Overflow) as exc:
        print(f"pfexpm: bad arguments: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS
    except OSError as exc:
        print(f"pfexpm: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except PfexpmError as exc:
        print(f"pfexpm: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
