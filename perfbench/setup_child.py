"""One set-up sample in a fresh process: import pfexpm, then the first call at each order.

Usage: python3 perfbench/setup_child.py <workload> <seed> <src-dir>

Prints {"setup_s": ..., "import_s": ...}.  setup_s is the wall time of
`import pfexpm` plus the workload's one-time preparation and its first call
at every order it uses.  Drawing those inputs (numpy only) happens in between
and is not counted.
"""

import json
import sys
import time
import warnings


def main() -> int:
    name, seed, src = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import pfexpm

    t_import = time.perf_counter() - t0

    import workloads

    wl = workloads.WORKLOADS[name](seed)
    calls = [wl.draw(i) for i in range(len(wl.orders))]

    t1 = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", pfexpm.OrderTooSmallWarning)
        wl.prepare(pfexpm)
        for call in calls:
            wl.run(call)
    setup_s = t_import + time.perf_counter() - t1
    print(json.dumps({"setup_s": setup_s, "import_s": t_import}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
