#!/usr/bin/env python3
"""Measure how the approximation error varies with matrix dimension.

Draws random Hermitian matrices with i.i.d. uniform spectra in a fixed
interval, runs the partial-fraction exponential at a fixed order, and
prints the mean error per dimension together with the linear flatness
ratio (max - min) / mean.

When truncation dominates (low order relative to the interval) the error
is set by the spectrum alone and the means agree across dimensions on a
log scale.  When the order is high enough that truncation falls below the
linear-solver floating-point floor, the floor's slow growth with d is
what the measurement sees instead; the script prints both the means and
the ratio so either regime is visible.

Spectra with positive parts are handled through the shift method
(exp(A) = e^c exp(A - cI)); errors are then relative.

Usage:
  python scripts/dimension_flatness.py --range -1:0 --n 8
  python scripts/dimension_flatness.py --range 0:20 --n 32 --shift auto
"""

import argparse
import sys
import warnings

import numpy as np

from pfexpm.bench import FAMILY_RANDOM, MatrixSpec, gen_matrix
from pfexpm.engine import ExpOptions, matexp_full
from pfexpm.linalg import exp_oracle, norm2


def _merge_dash_values(argv):
    # join "--range -1:0" into "--range=-1:0" so the value is not lexed as a flag
    out = []
    it = iter(argv)
    for tok in it:
        if tok == "--range":
            out.append(tok + "=" + next(it, ""))
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--range", default="-1:0", help="spectrum interval lo:hi")
    ap.add_argument("--n", type=int, default=16, help="approximation order (even)")
    ap.add_argument("--dims", default="20,50,100,200,400", help="comma-separated dimensions")
    ap.add_argument("--trials", type=int, default=10, help="matrices per dimension")
    ap.add_argument("--seed", type=int, default=0, help="base RNG seed")
    ap.add_argument("--shift", default=None, help="'auto' or 'c=<real>' to use the shift method")
    args = ap.parse_args(_merge_dash_values(sys.argv[1:] if argv is None else argv))

    lo, hi = (float(s) for s in args.range.split(":"))
    dims = [int(s) for s in args.dims.split(",")]
    if args.shift is None and hi > 0.0:
        ap.error("spectra reaching above 0 need --shift (try --shift auto)")

    shift = None
    if args.shift is not None:
        shift = "auto" if args.shift == "auto" else float(args.shift.removeprefix("c="))
    opts = ExpOptions(n=args.n, shift=shift)

    means = []
    for d in dims:
        errs = []
        for trial in range(args.trials):
            A = gen_matrix(MatrixSpec(FAMILY_RANDOM, d, (lo, hi), seed=args.seed), trial)
            E = exp_oracle(A)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # certified bound may be withheld here
                res = matexp_full(A, opts)
            err = norm2(res.value - E)
            if hi > 0.0:
                err /= norm2(E)
            errs.append(err)
        means.append(float(np.mean(errs)))
        kind = "rel" if hi > 0.0 else "abs"
        print(f"d={d:>5}  mean {kind} error {means[-1]:.6e}  ({args.trials} trials)")

    flat = (max(means) - min(means)) / float(np.mean(means))
    print(f"\nflatness (max - min) / mean = {flat:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
