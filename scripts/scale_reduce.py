#!/usr/bin/env python3
"""Time the reduce-and-lift colorers from 10^3 to 10^5 vertices.

Prints one line per colorer and size: vertex count, seconds for one
colorer call (graph generation excluded; the best of as many calls as fit
in one second, at least one), the median and the maximum of those calls,
and microseconds per vertex of the best.  The sparse rows add the seconds
of color_sparse's class gate alone (mad_below_12_5, one max-density
decision, timed the same way) and its share of the best colorer call.
The best alone does not compare two commits on a shared machine; a median
far above it, or a wide maximum, says that the row moved with the
machine's load.
Inputs are fixed-seed ttone.instances graphs:

  planar           random_apollonian (a stacked triangulation)
  outerplanar      random_maximal_outerplanar
  sparse           random_subdivided with 3 extra edges, as
                   `ttone gen --random subdivided` makes it: mostly tree,
                   so degree-1 stripping does most of the reduction
  sparse-threads   random_subdivided with one extra edge per ten base
                   vertices, so color_sparse picks about n / 50 threads

Sizes are 1 000, 3 000, 10 000, 30 000 and 100 000 vertices (for sparse,
the base has a fifth of that, and the subdivided graph comes out near it).
Each colorer has its own flag for its largest size, so a slow one can be
cut short without dropping the others; 0 skips the colorer.  The default
is 10^5.

    PYTHONPATH=src python scripts/scale_reduce.py
    PYTHONPATH=src python scripts/scale_reduce.py --planar-max 10000

Each sparse graph is generated in under a second, 10^5 included: their
bases are 2-degenerate, so random_subdivided runs no class check
(mad_below_12_5) on them.  The colorer calls at 10^5 take seconds each.
"""

import argparse
import random
import statistics
import sys
import time

from ttone.constructions import color_outerplanar, color_planar, color_sparse
from ttone.graphs import mad_below_12_5
from ttone.instances import (random_apollonian, random_maximal_outerplanar,
                             random_subdivided)

SIZES = (1_000, 3_000, 10_000, 30_000, 100_000)

# name: (colorer, graph of about n vertices from a seeded rng)
COLORERS = {
    "planar": (color_planar, lambda rng, n: random_apollonian(rng, n - 3)),
    "outerplanar": (color_outerplanar, random_maximal_outerplanar),
    "sparse": (color_sparse, lambda rng, n: random_subdivided(rng, n // 5, 3)),
    "sparse-threads": (color_sparse,
                       lambda rng, n: random_subdivided(rng, n // 5, n // 50)),
}


def timed(call) -> list:
    """Seconds of each call of call() that fit in one second, at least one."""
    calls = []
    while sum(calls) < 1.0:
        start = time.perf_counter()
        call()
        calls.append(time.perf_counter() - start)
    return calls


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    for name in COLORERS:
        parser.add_argument(f"--{name}-max", type=int, default=SIZES[-1],
                            help=f"largest size for {name} (default %(default)s)")
    args = parser.parse_args()

    print(f"{'colorer':<15} {'n':>7} {'seconds':>9} {'median':>9} {'max':>9} "
          f"{'us/vertex':>10} {'gate':>9} {'share':>6}")
    for name, (colorer, make) in COLORERS.items():
        largest = getattr(args, f"{name.replace('-', '_')}_max")
        for size in SIZES:
            if size > largest:
                break
            g = make(random.Random(f"1/{name}/{size}"), size)
            calls = timed(lambda: colorer(g))
            best = min(calls)
            gate = ""
            if colorer is color_sparse:
                gate = min(timed(lambda: mad_below_12_5(g)))
                gate = f" {gate:>9.4f} {gate / best:>6.1%}"
            print(f"{name:<15} {g.n:>7} {best:>9.3f} "
                  f"{statistics.median(calls):>9.3f} {max(calls):>9.3f} "
                  f"{best / g.n * 1e6:>10.1f}{gate}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
