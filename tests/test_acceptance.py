"""Acceptance suite: one test per criterion, each printing a PASS line.

Run `pytest tests/test_acceptance.py -v` for the per-criterion report.
"""

import random
import time
from fractions import Fraction

from conftest import (degeneracy_order, degenerate_palette,
                      greedy_2tone_palette, sample_small_graphs)
from ttone.blocks import BLOCK_TABLES, cycle_value
from ttone.bounds import (best_lower_bound, c9_t5_counting, certificates,
                          cycle_counting_t3, h_t_bounds, path_tau, star_lower)
from ttone.coloring import greedy_color, verify
from ttone.constructions import (color_cycle, color_fat_triangle, color_grid,
                                 color_outerplanar, color_planar,
                                 color_sparse, outerplanar_palette,
                                 planar_palette)
from ttone.exact import exact_decide, tau
from ttone.graphs import gen_cycle, gen_fat_triangle, gen_grid, gen_path, mad
from ttone.instances import (random_apollonian, random_maximal_outerplanar,
                             random_subdivided)


def report(num, text):
    print(f"[criterion {num:2d}] PASS: {text}")


def test_c01_small_cycle_exact_values():
    # with the exceptional lengths: tone 3 at 5, 10, 13, tone 4 at 5, 7 and
    # tone 5 at 5, 6, 7, 9
    cases = [(2, 3, 6), (2, 4, 6), (2, 5, 5), (2, 7, 6), (2, 8, 5),
             (3, 3, 9), (3, 4, 10), (3, 5, 10), (3, 7, 9), (3, 10, 9),
             (3, 13, 9),
             (4, 3, 12), (4, 4, 14), (4, 5, 15), (4, 7, 13),
             (5, 3, 15), (5, 4, 18), (5, 5, 20), (5, 6, 18), (5, 7, 17),
             (5, 9, 17)]
    for t, n, want in cases:
        res = tau(gen_cycle(n), t)
        assert res.status == "resolved"
        assert res.value == want, (t, n, res.value, want)
        assert verify(gen_cycle(n), res.coloring) == []
    report(1, f"{len(cases)} small-cycle tone chromatic numbers exact")


def test_c02_cycle_constructions_to_300():
    checked = 0
    for t in (3, 4, 5):
        for n in range(3, 301):
            col = color_cycle(n, t)   # verified on construction
            used = len(col.colors_used())
            assert used == cycle_value(n, t), (t, n, used)
            checked += 1
    report(2, f"{checked} cycle colorings use the exact published values")


def test_c03_block_glue_suite():
    from ttone.graphs import gen_path as path_gen
    pairs = 0
    for t, table in BLOCK_TABLES.items():
        window_graph = path_gen(2 * t)
        for a in table.lengths:
            for b in table.lengths:
                assert verify(window_graph, table.glue_window(a, b)) == []
                pairs += 1
    report(3, f"{pairs} ordered block pairs glue cleanly")


def test_c04_grid_family():
    want = {2: 6, 3: 10, 4: 14}
    grids = 0
    for m in range(2, 25):
        for n in range(2, 25):
            g = gen_grid(m, n)
            for t in (2, 3, 4, 5):
                # color_grid returns only colorings that verify passed
                # (test_each_colorer_verifies_once pins that one call)
                col = color_grid(m, n, t)
                used = len(col.colors_used())
                if t == 5:
                    assert used <= 22, (m, n, used)
                else:
                    assert used == want[t], (m, n, t, used)
            lb3 = best_lower_bound(g, 3)
            lb4 = best_lower_bound(g, 4)
            assert (lb3.kind, lb3.bound) == ("C4Subgraph", 10)
            assert (lb4.kind, lb4.bound) == ("C4Subgraph", 14)
            grids += 1
    report(4, f"{grids} grids: 6/10/14 exact, tone 5 within 22, "
              "values pinned by the 4-cycle bound")


def test_c05_counting_certificates():
    fired = [n for n in range(3, 41) if cycle_counting_t3(n) is not None]
    assert fired == [10, 13]
    assert all(cycle_counting_t3(n).bound == 9 for n in fired)
    cert = c9_t5_counting()
    assert cert.bound == 17
    witness = color_cycle(9, 5)
    assert len(witness.colors_used()) == 17
    report(5, "tone-3 counting fires exactly at 10 and 13; the 9-cycle "
              "tone-5 system is infeasible and the 17-color witness verifies")


def test_c06_path_formula_vs_search():
    cases = 0
    for n in range(1, 7):
        for t in range(1, 5):
            assert tau(gen_path(n), t).value == path_tau(n, t), (n, t)
            cases += 1
    report(6, f"search matches the path formula on {cases} cases")


def test_c07_sparse_classes_200_each():
    rng = random.Random(20250810)
    for _ in range(200):
        g = random_subdivided(rng, n_base=rng.randint(4, 10),
                              extra_edges=rng.randint(0, 4))
        assert mad(g).fraction < Fraction(12, 5)
        col = color_sparse(g)   # verified on construction
        assert col.k <= max(7, star_lower(g.max_degree()))
    for _ in range(200):
        g = random_maximal_outerplanar(rng, rng.randint(3, 40))
        col = color_outerplanar(g)
        assert col.k <= outerplanar_palette(g.max_degree())
    for _ in range(200):
        g = random_apollonian(rng, rng.randint(1, 60))
        col = color_planar(g)
        assert col.k <= planar_palette(g.max_degree())
    report(7, "600 randomized sparse/outerplanar/planar instances colored "
              "within their palette bounds, zero violations")


def test_c08_fat_triangle_family():
    for t in range(2, 41):
        col = color_fat_triangle(t)
        assert verify(gen_fat_triangle(t), col) == []
        lo, hi = h_t_bounds(t)
        assert len(col.colors_used()) <= hi, t
        if t >= 33:
            assert hi - lo <= 1, (t, lo, hi)
    report(8, "fat triangles for t=2..40 color within the upper bound; "
              "bounds differ by at most 1 from t=33")


def test_c09_oracle_cross_check():
    graphs = sample_small_graphs(target=500)
    assert len(graphs) >= 500
    for g in graphs:
        for t in (2, 3):
            res = tau(g, t)
            assert res.status == "resolved"
            assert verify(g, res.coloring) == []
            for cert in certificates(g, t):
                assert res.value >= cert.bound, (g.edges(), t, cert.kind)
            if g.n and t == 2:
                k = max(2, greedy_2tone_palette(g.max_degree()))
                assert verify(g, greedy_color(g, 2, k)) == []
            if g.n and t == 3:
                order, degen = degeneracy_order(g)
                k = max(3, degenerate_palette(max(degen, 1), 3,
                                              max(g.max_degree(), 1)))
                assert verify(g, greedy_color(g, 3, k, order)) == []
    report(9, f"{len(graphs)} small graphs: witnesses verify, greedy "
              "colorings verify, every certificate below the exact value")


def test_c10_c9_tone5_search_exhausts_16_colors():
    t0 = time.time()
    res = exact_decide(gen_cycle(9), 5, 16)
    elapsed = time.time() - t0
    assert (res.status, res.nodes) == ("infeasible", 20_762_256)
    report(10, f"search refuted 16 colors on the 9-cycle at tone 5 "
               f"({res.nodes} nodes, {elapsed:.2f}s)")


def test_c11_cycle_values_are_tight_below():
    cases = 0
    for n in range(3, 61):
        for t in range(2, 6):
            k = cycle_value(n, t) - 1
            assert exact_decide(gen_cycle(n), t, k).status == "infeasible", \
                (n, t, k)
            cases += 1
    report(11, f"search refutes one color below the published value on "
               f"{cases} cycles, n 3..60 at tones 2..5")
