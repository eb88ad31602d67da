"""Command-line interface.

Subcommands
-----------
bench   generate one benchmark matrix family, run the matrix suite, write CSV
scalar  scalar error decomposition (max e1/e2/e3 with bounds) over a grid
tables  generate, persist, and re-validate root tables

Exit codes: 0 ok, 2 bad arguments (including infeasible configurations),
3 invariant violation or numerical failure, 4 I/O error.

Reruns with the same arguments produce identical error and bound columns;
only the timing columns move.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .bench import (
    FAMILIES,
    FAMILY_RANDOM,
    MatrixSpec,
    emit_csv,
    emit_scalar_csv,
    run_matrix_suite,
    run_scalar_suite,
)
from .engine import MODE_ACTION, MODE_FULL
from .errors import (
    BadSpec,
    ConditionViolated,
    InvariantViolation,
    OrderOutOfRange,
    Overflow,
    PfexpmError,
)
from .roots import build_table, check_exclusion_regions, load_table, save_table
from .scalar import DigitModel

EXIT_OK = 0
EXIT_BAD_ARGS = 2
EXIT_INVARIANT = 3
EXIT_IO = 4


def _parse_n_list(text: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"--n expects a comma list of ints, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("--n list is empty")
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


def _parse_threads(text: str):
    if text == "auto":
        return "auto"
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"--threads expects an int or 'auto', got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError("--threads must be >= 1")
    return value


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
    b.add_argument("--d", required=True, type=int, help="matrix dimension")
    b.add_argument("--range", type=_parse_range, default=None, metavar="lo:hi",
                   help="spectrum interval (random family only)")
    b.add_argument("--n", type=_parse_n_list, default=[16], metavar="n1,n2,...")
    b.add_argument("--mode", choices=(MODE_FULL, MODE_ACTION), default=MODE_FULL)
    b.add_argument("--trials", type=int, default=None,
                   help="rows per (spec, n); default 10 for random, else 1")
    b.add_argument("--threads", type=_parse_threads, default="auto",
                   help="accepted for compatibility; no longer changes how a call "
                   "runs (every pole pair runs in the calling thread)")
    b.add_argument("--seed", type=_parse_seed, default=0)
    b.add_argument("--digits", type=int, default=16,
                   help="decimal digits of the float model, must admit every n")
    b.add_argument("--shift", type=_parse_shift, default=None, metavar="{none|auto|c=<real>}")
    b.add_argument("--out", required=True, help="output CSV path")

    s = sub.add_parser("scalar", help="scalar error decomposition over a grid")
    s.add_argument("--n", type=_parse_n_list, default=[4, 8, 16, 32], metavar="n1,n2,...")
    s.add_argument("--grid", type=_parse_grid, default=None, metavar="lo:hi:count",
                   help="evaluation grid, default -100:0:10000")
    s.add_argument("--digits", type=int, default=16)
    s.add_argument("--out", required=True, help="output CSV path")

    t = sub.add_parser("tables", help="generate and validate root tables")
    t.add_argument("--n", type=_parse_n_list, required=True, metavar="n1,n2,...")
    t.add_argument("--dir", required=True, help="directory for table files")
    return parser


def _cmd_bench(args) -> int:
    if (args.family == FAMILY_RANDOM) != (args.range is not None):
        raise BadSpec("--range is required for --family random and refused otherwise")
    model = DigitModel(D=args.digits)
    for n in args.n:
        model.require(n)
    trials = args.trials
    if trials is None:
        trials = 10 if args.family == FAMILY_RANDOM else 1
    spec = MatrixSpec(args.family, args.d, args.range, seed=args.seed)
    records = run_matrix_suite(
        [spec], args.n, mode=args.mode, trials=trials,
        threads=args.threads, shift=args.shift,
    )
    emit_csv(records, args.out)
    print(f"wrote {len(records)} records to {args.out}")
    return EXIT_OK


def _cmd_scalar(args) -> int:
    grid = args.grid if args.grid is not None else np.linspace(-100.0, 0.0, 10000)
    rows = run_scalar_suite(args.n, grid, D=args.digits)
    emit_scalar_csv(rows, args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def _cmd_tables(args) -> int:
    os.makedirs(args.dir, exist_ok=True)
    for n in args.n:
        table = build_table(n)
        report = check_exclusion_regions(table)
        if not report.parabola_ok:
            raise InvariantViolation("parabola", f"n={n} margin {report.parabola_margin}")
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
