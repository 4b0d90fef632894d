#!/usr/bin/env python3
"""Long-budget refutation attempt: 9-cycle, tone 5, 16 colors.

The counting certificate already proves 17 colors are necessary; this run
asks the backtracking search for independent confirmation.  Exhaustion at
desk scale is not guaranteed, so a timeout is a reported outcome, not a
failure.  Exit codes: 0 infeasible (confirmed), 3 timeout, 1 unexpected
coloring (would contradict the certificate).
"""

import argparse
import sys
import time

from ttone.exact import SearchBudget, exact_decide
from ttone.graphs import gen_cycle


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-nodes", type=int, default=2_000_000_000,
                        help="node budget")
    parser.add_argument("--wall-limit", type=float, default=None,
                        help="wall-clock limit in seconds")
    args = parser.parse_args()

    budget = SearchBudget(max_nodes=args.max_nodes, wall_limit=args.wall_limit)
    start = time.monotonic()
    result = exact_decide(gen_cycle(9), 5, 16, budget)
    elapsed = time.monotonic() - start
    print(f"status={result.status} nodes={result.nodes} elapsed={elapsed:.0f}s")
    if result.status == "infeasible":
        print("search confirms: no 16-color tone-5 coloring of the 9-cycle")
        return 0
    if result.status == "timeout":
        print("budget exhausted before the tree was; the counting "
              "certificate stands as the evidence for the bound of 17")
        return 3
    print("unexpected coloring found; this contradicts the counting "
          "certificate and needs investigation")
    print(result.coloring.to_json())
    return 1


if __name__ == "__main__":
    sys.exit(main())
