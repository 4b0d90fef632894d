#!/usr/bin/env python3
"""Regenerate the stored cycle-coloring fixtures with the exact solver.

Emits Python literals for the tone-2 block table (cycle lengths 5, 6, 8, 9
sharing the prefix (1,2),(3,4) with 5 colors) and for the exceptional cycle
witnesses that have no published coloring.  The output is what lives in
ttone/blocks.py; tests/test_blocks.py runs this script and checks that its
output still equals the stored tables.
"""

import sys

from ttone.coloring import Coloring, label_mask, label_stream, verify
from ttone.exact import exact_decide
from ttone.graphs import gen_cycle


def prefix_cycle_coloring(n: int, t: int, k: int, prefix):
    """Lex-least tone-t k-coloring of the n-cycle with prescribed first labels.

    Backtracks over the vertices in index order; each vertex draws its
    labels from label_stream, constrained by the earlier vertices within
    cycle distance t.
    """
    masks = [label_mask(lab) for lab in prefix]
    out = [tuple(lab) for lab in prefix]

    def dfs(v):
        if v == n:
            return True
        cons = []
        for u in range(v):
            sep = min(v - u, n - (v - u))
            if sep <= t:
                cons.append((masks[u], sep - 1))
        for m, lab, _ in label_stream(k, t, cons):
            masks.append(m)
            out.append(lab)
            if dfs(v + 1):
                return True
            masks.pop()
            out.pop()
        return False

    if not dfs(len(prefix)):
        raise SystemExit(f"no prefix-compatible coloring for n={n}, t={t}, k={k}")
    col = Coloring(t, k, dict(enumerate(out)))
    assert not verify(gen_cycle(n), col)
    return out


def solved_witness(n: int, t: int, k: int):
    res = exact_decide(gen_cycle(n), t, k)
    assert res.status == "colored", (n, t, k, res.status)
    return [res.coloring.labels[v] for v in range(n)]


def fmt(seq):
    return "(" + ", ".join(str(tuple(lab)) for lab in seq) + ")"


def main():
    print("# tone-2 blocks, 5 colors, shared prefix (1,2),(3,4)")
    for n in (5, 6, 8, 9):
        seq = prefix_cycle_coloring(n, 2, 5, [(1, 2), (3, 4)])
        print(f"  {n}: {fmt(seq)},")
    print()
    print("# exceptional cycle witnesses (tone, n, colors)")
    for t, n, k in [(2, 3, 6), (2, 4, 6), (2, 7, 6),
                    (3, 3, 9), (3, 4, 10), (3, 5, 10), (3, 7, 9),
                    (4, 3, 12), (4, 4, 14), (4, 5, 15), (4, 7, 13),
                    (5, 3, 15), (5, 4, 18), (5, 5, 20), (5, 6, 18), (5, 7, 17)]:
        seq = solved_witness(n, t, k)
        print(f"  ({t}, {n}): {fmt(seq)},")


if __name__ == "__main__":
    sys.exit(main())
