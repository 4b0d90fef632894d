import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (count_verifies, graphs, hub_heap_planar_picks,
                      isolated_first_pick, ring_walk_extend, ring_walk_labels)
from ttone import coloring, constructions
from ttone.blocks import cycle_value
from ttone.bounds import h_t_bounds, path_tau, star_lower
from ttone.coloring import Coloring, greedy_color, verify
from ttone.constructions import (ClassPreconditionError, color_cycle,
                                 color_fat_triangle, color_grid,
                                 color_outerplanar, color_path, color_planar,
                                 color_sparse, decompose, outerplanar_palette,
                                 planar_palette)
from ttone.graphs import (Graph, gen_cycle, gen_fat_triangle, gen_grid,
                          gen_path, mad)
from ttone.instances import (random_apollonian, random_maximal_outerplanar,
                             random_subdivided, subdivide)


def test_color_path_examples():
    assert color_path(1, 4).labels[0] == (1, 2, 3, 4)
    assert len(color_path(3, 3).colors_used()) == 8
    assert len(color_path(6, 2).colors_used()) == 5


def test_color_path_matches_formula():
    for n in range(1, 51):
        for t in range(1, 9):
            col = color_path(n, t)   # verifies and counts internally
            assert len(col.colors_used()) == path_tau(n, t)


def test_color_path_is_greedy_in_id_order():
    # the window cache changes no label: greedy_color on the same palette
    for n in [*range(1, 41), 64, 97, 150, 211, 300]:
        for t in range(1, 9):
            want = greedy_color(gen_path(n), t, path_tau(n, t))
            assert color_path(n, t) == want, (n, t)


def test_decompose_examples():
    assert decompose(13, {4, 5}) == (4, 4, 5)
    assert decompose(7, {6, 8, 9, 11}) is None
    assert decompose(19, {6, 8, 9, 11}) == (8, 11)
    assert decompose(12, {6, 8, 9, 11}) == (6, 6)
    assert decompose(0, {6, 8}) == ()
    with pytest.raises(ValueError):
        decompose(-1, {6, 8})


@given(st.integers(1, 400))
def test_decompose_sums_and_membership(n):
    lengths = (6, 8, 9, 11)
    parts = decompose(n, lengths)
    if parts is not None:
        assert sum(parts) == n
        assert all(p in lengths for p in parts)
    else:
        assert n in (1, 2, 3, 4, 5, 7, 10, 13)


def _least_multiset(n, lengths):
    """Fewest blocks, then the lexicographically least sorted multiset, by
    trying every multiset of each size in turn."""
    lengths = sorted(set(lengths))
    for r in range(n // lengths[0] + 1):
        sums = [c for c in combinations_with_replacement(lengths, r)
                if sum(c) == n]
        if sums:
            return min(sums)
    return None


@given(st.integers(0, 60), st.sets(st.integers(1, 20), min_size=1, max_size=4))
@settings(max_examples=200, deadline=None)
def test_decompose_matches_bruteforce(n, lengths):
    assert decompose(n, lengths) == _least_multiset(n, lengths)


def test_color_cycle_examples():
    assert len(color_cycle(13, 3).colors_used()) == 9
    assert len(color_cycle(14, 3).colors_used()) == 8
    assert len(color_cycle(9, 5).colors_used()) == 17
    assert len(color_cycle(100, 5).colors_used()) == 16
    with pytest.raises(ValueError):
        color_cycle(2, 3)
    with pytest.raises(ValueError):
        color_cycle(10, 6)


def test_color_cycle_sample_all_tones():
    for t in (2, 3, 4, 5):
        for n in list(range(3, 30)) + [59, 100, 131]:
            col = color_cycle(n, t)
            assert len(col.colors_used()) == cycle_value(n, t), (n, t)


def test_color_cycle_agrees_with_exact_search():
    from ttone.exact import tau
    for t in (2, 3):
        for n in range(3, 13):
            assert tau(gen_cycle(n), t).value == cycle_value(n, t), (n, t)


@pytest.mark.parametrize("call, match", [
    (lambda: color_path(4, 2.0), "need n, t >= 1"),
    (lambda: color_cycle(5, 2.0), "covers tones 2..5"),
    (lambda: color_grid(3, 3, 2.0), "covers tones 2..5"),
    (lambda: color_grid(3, 3, 6), "covers tones 2..5"),
    (lambda: color_fat_triangle(0), "need t >= 1"),
    (lambda: decompose(5, [0]), "lengths must be positive"),
    (lambda: color_fat_triangle(True), "need t >= 1"),
    (lambda: color_fat_triangle(2.0), "need t >= 1"),
    (lambda: color_cycle(9.0, 3), "need n >= 3"),
    (lambda: color_grid(3.0, 3, 2), "need m, n >= 2"),
    (lambda: decompose(10.0, [3, 4]), "n must be nonnegative"),
    (lambda: decompose(10, [3.0, 4]), "lengths must be positive"),
], ids=["path-2.0", "cycle-2.0", "grid-2.0", "grid-6", "fat-triangle-0",
        "decompose-0", "fat-triangle-true", "fat-triangle-2.0", "cycle-n-9.0",
        "grid-m-3.0", "decompose-n-10.0", "decompose-length-3.0"])
def test_constructions_refuse_out_of_range_arguments(call, match):
    # a float or bool is refused before any work where an int is meant, as
    # a value out of range is: True would color the t = 1 hexagon
    with pytest.raises(ValueError, match=match):
        call()


def test_color_grid_examples():
    col = color_grid(2, 2, 3)
    assert verify(gen_grid(2, 2), col) == []
    assert col.k == 10
    col = color_grid(3, 4, 3)
    assert col.labels[(2 - 1) * 4 + (3 - 1)] == (3, 6, 10)
    col = color_grid(4, 7, 5)
    assert verify(gen_grid(4, 7), col) == []
    assert len(col.colors_used()) <= 22
    with pytest.raises(ValueError):
        color_grid(1, 5, 3)


def test_color_grid_counts_small_sample():
    want = {2: 6, 3: 10, 4: 14}
    for t in (2, 3, 4):
        for m, n in ((2, 2), (2, 5), (3, 3), (5, 4), (9, 6)):
            col = color_grid(m, n, t)
            assert verify(gen_grid(m, n), col) == []
            assert len(col.colors_used()) == want[t]


def test_color_grid_checks_its_output(monkeypatch):
    monkeypatch.setattr(constructions, "_grid_label", lambda i, j, t: (1, 2))
    with pytest.raises(AssertionError):
        color_grid(3, 3, 2)


@pytest.mark.parametrize("color", [
    lambda: color_path(12, 3),
    lambda: color_cycle(9, 5),          # a stored witness
    lambda: color_cycle(23, 4),         # concatenated blocks
    lambda: color_grid(3, 4, 5),
    lambda: color_fat_triangle(1),
    lambda: color_fat_triangle(3),
    lambda: color_sparse(random_subdivided(random.Random(1))),
    lambda: color_outerplanar(random_maximal_outerplanar(random.Random(2), 12)),
    lambda: color_planar(random_apollonian(random.Random(3), 12)),
], ids=["path", "cycle-witness", "cycle-blocks", "grid", "fat-triangle-1",
        "fat-triangle-3", "sparse", "outerplanar", "planar"])
def test_each_colorer_verifies_once(monkeypatch, color):
    calls = count_verifies(monkeypatch)
    color()
    assert len(calls) == 1


def test_color_fat_triangle():
    assert color_fat_triangle(2).k == 7
    for t in (1, 2, 3, 7, 33):
        col = color_fat_triangle(t)
        assert verify(gen_fat_triangle(t), col) == []
        assert len(col.colors_used()) <= h_t_bounds(t)[1]
    col = color_fat_triangle(3)
    assert col.labels[0] == (1, 2) and col.labels[1] == (3, 4)


def test_color_sparse_examples():
    col = color_sparse(gen_cycle(20))
    assert col.k == 7
    star7 = Graph(8, [(0, i) for i in range(1, 8)])   # a tree with max degree 7
    assert color_sparse(star7).k == 7
    sub = subdivide(star7, lambda u, v: 5)
    assert color_sparse(sub).k == 7
    with pytest.raises(ClassPreconditionError):
        color_sparse(gen_grid(3, 3))   # mad = 8/3, above the 12/5 gate
    c5_chord = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
    assert mad(c5_chord).fraction == Fraction(12, 5)
    with pytest.raises(ClassPreconditionError):
        color_sparse(c5_chord)         # exactly 12/5 is not below 12/5


@given(graphs(max_n=9))
@settings(max_examples=80, deadline=None)
def test_sparse_gate_matches_mad(g):
    dense = mad(g).fraction >= Fraction(12, 5)
    try:
        color_sparse(g)
    except ClassPreconditionError:
        assert dense
    else:
        assert not dense


def test_color_sparse_subdivided_star():
    star = Graph(21, [(0, i) for i in range(1, 21)])
    g = subdivide(star, lambda u, v: 5)
    col = color_sparse(g)
    assert col.k == max(7, star_lower(20)) == 9


def test_color_sparse_three_thread_case():
    # theta graph made of 3-threads drives the middle reduction case
    edges = []
    nid = 2
    for _ in range(3):
        chain = list(range(nid, nid + 3))
        nid += 3
        edges.append((0, chain[0]))
        edges.extend(zip(chain, chain[1:]))
        edges.append((chain[-1], 1))
    g = Graph(nid, edges)
    assert color_sparse(g).k == 7


def test_color_sparse_two_thread_only_instances():
    # uniform double subdivision: every thread has exactly two interior
    # vertices, so the recolor-and-retry case carries the whole reduction
    rng = random.Random(11)
    for _ in range(10):
        base = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0),
                         (0, 3)])
        g = subdivide(base, lambda u, v: 2)
        assert mad(g).fraction < Fraction(12, 5)
        assert color_sparse(g).k == 7


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_color_sparse_random_instances(seed):
    rng = random.Random(seed)
    g = random_subdivided(rng, n_base=rng.randint(4, 9),
                          extra_edges=rng.randint(0, 4))
    assert mad(g).fraction < Fraction(12, 5)
    col = color_sparse(g)
    assert col.k <= max(7, star_lower(g.max_degree()))


def test_color_outerplanar_examples():
    assert color_outerplanar(gen_path(10)).k == 8
    fan = Graph(8, [(i, i + 1) for i in range(6)] + [(7, i) for i in range(7)])
    col = color_outerplanar(fan)
    assert col.k == outerplanar_palette(7)
    with pytest.raises(ClassPreconditionError):
        color_outerplanar(Graph(4, [(i, j) for i in range(4)
                                    for j in range(i + 1, 4)]))


@st.composite
def _outerplanar_unions(draw):
    """Disjoint unions of random maximal outerplanar graphs, single vertices
    and single edges, sometimes with a K4 (not outerplanar), plus isolated
    vertices, with ids shuffled."""
    def outerplanar(seed):
        rng = random.Random(seed)
        return random_maximal_outerplanar(rng, rng.randint(3, 30))

    pieces = draw(st.lists(st.one_of(
        st.integers(0, 10 ** 6).map(outerplanar), st.just(Graph(1, [])),
        st.just(Graph(2, [(0, 1)]))), min_size=1, max_size=4))
    if draw(st.integers(0, 3)) == 0:
        pieces.append(Graph(4, [(i, j) for i in range(4) for j in range(i)]))
    pieces += [Graph(1, [])] * draw(st.integers(0, 3))
    n = sum(p.n for p in pieces)
    ids = draw(st.permutations(range(n)))
    edges, base = [], 0
    for p in pieces:
        edges += [(ids[base + u], ids[base + v]) for u, v in p.edges()]
        base += p.n
    return Graph(n, edges)


def _outcome(colorer, g):
    try:
        return colorer(g)
    except ClassPreconditionError as exc:
        return str(exc)


@given(_outerplanar_unions())
@settings(max_examples=120, deadline=None)
def test_outerplanar_isolated_vertices_picked_in_id_order(g):
    # outerplanar_edge_at gives (x, None) for isolated x, so color_outerplanar
    # deletes each isolated vertex in id order among its contractions, where
    # it used to delete them all first: the colorings and errors are the same.
    def isolated_first(red):
        while (step := isolated_first_pick(red)) is not None:
            yield step
        raise ClassPreconditionError("input not outerplanar: no reducible edge")

    def old(g):
        return constructions._reduce_and_lift(
            g, outerplanar_palette(g.max_degree()), isolated_first)

    assert _outcome(color_outerplanar, g) == _outcome(old, g)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_color_outerplanar_random_triangulations(seed):
    rng = random.Random(seed)
    g = random_maximal_outerplanar(rng, rng.randint(3, 30))
    col = color_outerplanar(g)
    assert col.k <= outerplanar_palette(g.max_degree())


def test_color_planar_examples():
    assert color_planar(gen_grid(10, 10)).k == 41   # base case, max degree 4
    star = Graph(1001, [(0, i) for i in range(1, 1001)])
    assert color_planar(star).k == 75


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_color_planar_random_apollonian(seed):
    rng = random.Random(seed)
    g = random_apollonian(rng, rng.randint(1, 40))
    col = color_planar(g)
    assert col.k <= planar_palette(g.max_degree())


def test_color_planar_picks_match_the_hub_heap(monkeypatch):
    # color_planar asks "is a vertex of degree >= 13 left?" of a set kept
    # from the Reduction's touched list; the steps and the colorings are
    # those of the LeastLive heap it replaced.
    real = constructions._reduce_and_lift
    taken = []

    def recorded(g, k, picks):
        def steps(red):
            for step in picks(red):
                taken[-1].append(step)
                yield step
        return real(g, k, steps)

    monkeypatch.setattr(constructions, "_reduce_and_lift", recorded)
    contracted = 0
    for seed in range(50):
        rng = random.Random(seed)
        g = random_apollonian(rng, rng.randint(17, 397))
        taken.append([])
        got = color_planar(g)
        taken.append([])
        want = recorded(g, planar_palette(g.max_degree()), hub_heap_planar_picks)
        assert taken[-2] == taken[-1]
        assert got == want
        contracted += len(taken[-1])
    assert contracted > 0


def test_lifted_partials_verify_before_extension():
    # contract-then-lift keeps the partial coloring valid: distances never
    # increase under contraction, so checked pairs only get tighter
    rng = random.Random(7)
    for _ in range(20):
        g = random_maximal_outerplanar(rng, rng.randint(4, 16))
        col = color_outerplanar(g)
        assert verify(g, col) == []


# Twelve seeded inputs per reduce-and-lift colorer; the planar ones grow
# hubs of degree 13 or more, so color_planar contracts before it colors.
LIFT_CASES = {
    "sparse": (color_sparse, lambda rng: random_subdivided(
        rng, rng.randint(6, 14), rng.randint(2, 8))),
    "outerplanar": (color_outerplanar,
                    lambda rng: random_maximal_outerplanar(rng, rng.randint(8, 80))),
    "planar": (color_planar, lambda rng: random_apollonian(rng, rng.randint(40, 160))),
}


def _lift_inputs(name):
    color, make = LIFT_CASES[name]
    return color, [make(random.Random(f"lift/{name}/{seed}")) for seed in range(12)]


@pytest.mark.parametrize("name", sorted(LIFT_CASES))
def test_colorers_lift_as_the_ring_walk(monkeypatch, name):
    # the tone-2 extension from two masks against the ring walk it replaced,
    # in the lifts, the greedy coloring and the 2-thread recolor alike
    color, inputs = _lift_inputs(name)
    want = [color(g).labels for g in inputs]
    monkeypatch.setattr(coloring, "greedy_extend", ring_walk_extend)
    monkeypatch.setattr(constructions, "greedy_extend", ring_walk_extend)
    monkeypatch.setattr(constructions, "available_labels",
                        lambda g, partial, v: list(ring_walk_labels(g, partial, v)))
    assert [color(g).labels for g in inputs] == want


def test_two_thread_finish_retries_then_exhausts(monkeypatch):
    # v1 = 0 is the deleted 2-thread vertex and v2 = 1 its kept neighbor.
    # With 1 at (2, 3), 0 sees 1, 2, 3 and 6 at distance 1 and (4, 5) at
    # distance 2, so it has no label; 1 retries its next option, (1, 2),
    # and 0 takes (3, 4).
    real_extend, outcomes = constructions.greedy_extend, []

    def counted(g, partial, v):
        label = real_extend(g, partial, v)
        outcomes.append(label)
        return label

    monkeypatch.setattr(constructions, "greedy_extend", counted)
    g = Graph(5, [(0, 1), (0, 2), (1, 3), (2, 4)])
    partial = Coloring(2, 6, {1: (2, 3), 2: (1, 6), 3: (4, 6), 4: (4, 5)})
    constructions._finish_two_thread(g, partial, 0, 1)
    assert (partial.labels[1], partial.labels[0]) == ((1, 2), (3, 4))
    assert outcomes == [None, (3, 4)]
    assert verify(g, partial) == []
    # Here 1 may take (2, 5) or (3, 5); either leaves 0 only the colors 1
    # and 4, which 3 holds at distance 2.
    g = Graph(4, [(0, 1), (0, 2), (1, 3)])
    partial = Coloring(2, 5, {1: (2, 5), 2: (2, 3), 3: (1, 4)})
    with pytest.raises(AssertionError, match="exhausted its guaranteed options"):
        constructions._finish_two_thread(g, partial, 0, 1)


@pytest.mark.parametrize("name, vertices, recolors", [
    ("sparse", 561, 11), ("outerplanar", 528, 0), ("planar", 1267, 0)])
def test_greedy_extend_calls_are_n_plus_retries(monkeypatch, name, vertices,
                                                recolors):
    # Every vertex is extended once, by greedy_color or by its lift step;
    # only a 2-thread's deleted vertex is extended again, once per label of
    # its recolored neighbor that left it none.  Those retries are the only
    # failed calls, so the call count is n plus them.  None of these inputs
    # needs one, so the count is n; the 2-threads recolored are pinned too.
    color, inputs = _lift_inputs(name)
    real_extend, outcomes = coloring.greedy_extend, []
    real_finish, finished = constructions._finish_two_thread, []

    def counted(g, partial, v):
        label = real_extend(g, partial, v)
        outcomes.append(label is not None)
        return label

    def finish(*args):
        finished.append(args)
        return real_finish(*args)

    monkeypatch.setattr(coloring, "greedy_extend", counted)
    monkeypatch.setattr(constructions, "greedy_extend", counted)
    monkeypatch.setattr(constructions, "_finish_two_thread", finish)
    for g in inputs:
        color(g)
    retries = outcomes.count(False)
    assert len(outcomes) == sum(g.n for g in inputs) + retries
    assert (len(outcomes), len(finished), retries) == (vertices, recolors, 0)
