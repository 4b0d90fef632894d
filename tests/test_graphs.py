import math
import re
from fractions import Fraction
from itertools import combinations, compress

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (ThreadConfig, augmenting_path_cut, bfs_distances,
                      brute_densest_witness, brute_mad, constraint_pairs,
                      degeneracy_order, edge_node_density_exceeds,
                      find_outerplanar_edge, find_planar_reducible,
                      find_thread_config, graphs, greedy_2tone_palette,
                      induced, mad_at_least_12_5, random_steps,
                      scan_effective_diameter, threaded_graphs,
                      vertex_network_density_exceeds)
from ttone.coloring import greedy_color
from ttone import constructions, instances
from ttone import graphs as graphs_mod
from ttone.graphs import (OUTERPLANAR_HIGH, PLANAR_HIGH, Density, Graph,
                          GraphError, LeastLive, Reduction, _core, _run,
                          components, cycle_order, degree_crossings,
                          distances_within,
                          effective_diameter, gen_cycle, gen_fat_triangle,
                          gen_grid, gen_path, gen_star, mad, mad_below_12_5,
                          outerplanar_edge_at, path_order,
                          planar_reducible_at, read_edge_list, thread_at,
                          thread_runs, write_edge_list)
from ttone.instances import (random_apollonian, random_maximal_outerplanar,
                             random_subdivided, random_tree, subdivide)
import random


def test_build_graph_basics():
    g = Graph(2, [(0, 1)])
    assert g.n == 2 and g.m == 1
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert c4 == gen_cycle(4)
    dedup = Graph(3, [(0, 1), (0, 1)])
    assert dedup.m == 1 and dedup.degree(2) == 0


def test_build_graph_rejects_bad_input():
    with pytest.raises(GraphError):
        Graph(3, [(0, 3)])
    with pytest.raises(GraphError):
        Graph(3, [(1, 1)])


def test_build_graph_rejects_non_int_ids():
    # True indexes as 1 but would be written as "True", which
    # read_edge_list refuses; 1.0 used to fail as a bare TypeError
    for n, edges in [(2, [(0, True)]), (2, [(False, 1)]), (True, []),
                     (3, [(0, 1.0)]), (3, [(1.0, 0)]), (2.0, []),
                     (3, [("0", 1)]), (3, [(None, 1)])]:
        with pytest.raises(GraphError):
            Graph(n, edges)
    g = Graph(2, [(0, 1)])
    assert read_edge_list(write_edge_list(g)) == g


@pytest.mark.parametrize("edge", [(0, 1, 2), (0,), 5, None, ()])
def test_build_graph_rejects_an_edge_that_is_not_a_pair(edge):
    # these used to fail unpacking, as a bare ValueError or TypeError
    with pytest.raises(GraphError, match=re.escape(f"edge {edge!r} is not")):
        Graph(3, [(0, 1), edge])


def test_generators():
    assert gen_grid(2, 3).n == 6 and gen_grid(2, 3).m == 7
    assert gen_cycle(3) == Graph(3, [(0, 1), (1, 2), (0, 2)])
    star = gen_star(7)
    assert star.n == 8 and star.max_degree() == 7
    with pytest.raises(GraphError):
        gen_cycle(2)
    with pytest.raises(GraphError):
        gen_grid(0, 3)


@pytest.mark.parametrize("call, match", [
    (lambda: read_edge_list("2 1\n0 x\n"), "bad edge line: '0 x'"),
    (lambda: gen_path(0), "path needs n >= 1"),
    (lambda: gen_star(0), "star needs d >= 1"),
    (lambda: gen_fat_triangle(0), "fat triangle needs t >= 1"),
    (lambda: gen_fat_triangle(True), "fat triangle needs t >= 1"),
    (lambda: gen_star(True), "star needs d >= 1"),
    (lambda: gen_cycle(5.0), "cycle needs n >= 3"),
    (lambda: gen_grid(2, 2.0), "grid needs m, n >= 1"),
    (lambda: gen_path(2.0), "path needs n >= 1"),
], ids=["edge-line", "path-0", "star-0", "fat-triangle-0", "fat-triangle-true",
        "star-true", "cycle-5.0", "grid-2.0", "path-2.0"])
def test_graph_readers_and_generators_refuse_bad_input(call, match):
    with pytest.raises(GraphError, match=match):
        call()


def test_random_maximal_outerplanar_needs_three_vertices():
    with pytest.raises(ValueError, match="need n >= 3"):
        random_maximal_outerplanar(random.Random(0), 2)


@pytest.mark.parametrize("call, match", [
    (lambda rng: random_tree(rng, 5.0), "need n >= 0"),
    (lambda rng: random_tree(rng, -1), "need n >= 0"),
    (lambda rng: random_maximal_outerplanar(rng, 12.0), "need n >= 3"),
    (lambda rng: random_subdivided(rng, 8.0), "need n_base >= 1"),
    (lambda rng: random_subdivided(rng, True), "need n_base >= 1"),
    (lambda rng: random_subdivided(rng, 0), "need n_base >= 1"),
    (lambda rng: random_subdivided(rng, 4, -1), "extra_edges >= 0"),
    (lambda rng: random_subdivided(rng, 4, 1.0), "extra_edges >= 0"),
    (lambda rng: random_apollonian(rng, 5.0), "need inserts >= 0"),
    (lambda rng: random_apollonian(rng, -1), "need inserts >= 0"),
    (lambda rng: random_apollonian(rng, True), "need inserts >= 0"),
], ids=["tree-5.0", "tree-minus-1", "outerplanar-12.0", "subdivided-8.0",
        "subdivided-true", "subdivided-0", "subdivided-extra-minus-1",
        "subdivided-extra-1.0", "apollonian-5.0", "apollonian-minus-1",
        "apollonian-true"])
def test_random_generators_refuse_bad_sizes(call, match):
    # refused before the first draw, so every seeded graph stays as it was;
    # unchecked, -1 or True inserts would make a triangle or K4, and -1
    # extra edges would add none
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(ValueError, match=match):
        call(rng)
    assert rng.getstate() == state


def test_fat_triangle_shape():
    h1 = gen_fat_triangle(1)
    assert (h1.n, h1.m) == (6, 6)
    assert bfs_distances(h1, 0)[1:] == [2, 2, 1, 3, 1]   # a hexagon
    h2 = gen_fat_triangle(2)
    assert (h2.n, h2.m) == (9, 12)
    h3 = gen_fat_triangle(3)
    assert h3.max_degree() == 6
    assert sorted(h3.degree(v) for v in range(h3.n)) == [2] * 9 + [6] * 3


def test_bfs_distances():
    assert bfs_distances(gen_cycle(5), 0) == [0, 1, 2, 2, 1]
    assert bfs_distances(gen_path(4), 0) == [0, 1, 2, 3]
    two = Graph(4, [(0, 1), (2, 3)])
    d = bfs_distances(two, 0)
    assert d[1] == 1 and d[2] == math.inf and d[3] == math.inf


def test_cycle_order():
    # ids shuffled around the cycle: the walk leaves 0 toward 3, not 4
    g = Graph(6, [(0, 4), (4, 2), (2, 5), (5, 1), (1, 3), (3, 0)])
    assert cycle_order(g) == [0, 3, 1, 5, 2, 4]
    assert path_order(g) is None
    assert cycle_order(gen_cycle(7)) == list(range(7))
    assert cycle_order(Graph(0, [])) is None
    assert cycle_order(gen_path(7)) is None
    # ids shuffled along the path: the walk starts at the lesser end, 1
    g = Graph(6, [(4, 0), (0, 5), (5, 2), (2, 3), (3, 1)])
    assert path_order(g) == [1, 3, 2, 5, 0, 4]
    assert cycle_order(g) is None
    assert path_order(gen_path(7)) == list(range(7))
    assert path_order(Graph(1, [])) == [0]
    assert path_order(Graph(2, [(0, 1)])) == [0, 1]
    assert path_order(Graph(0, [])) is None
    assert path_order(Graph(2, [])) is None
    assert path_order(gen_star(3)) is None
    # relabeled: the cycle from 0 toward its lesser neighbor, the path
    # from its lesser end
    rnd = random.Random(5)
    for n in range(3, 40):
        ids = rnd.sample(range(n), n)
        ring = Graph(n, [(ids[i], ids[(i + 1) % n]) for i in range(n)])
        line = Graph(n, list(zip(ids, ids[1:])))
        at = ids.index(0)
        around = ids[at:] + ids[:at]
        if around[-1] < around[1]:
            around = around[:1] + around[:0:-1]
        assert cycle_order(ring) == around
        assert path_order(line) == (ids if ids[0] < ids[-1] else ids[::-1])
    # not connected, with 0 in each component in turn: two cycles, a
    # cycle beside a path, a path beside an isolated vertex, two paths
    for sizes in ((3, 3), (3, 5), (5, 3)):
        edges, offset = [], 0
        for n in sizes:
            edges += [(offset + i, offset + (i + 1) % n) for i in range(n)]
            offset += n
        assert cycle_order(Graph(offset, edges)) is None
        assert path_order(Graph(offset, edges)) is None
    for n, edges in ((5, [(0, 1), (1, 2), (2, 0), (3, 4)]),
                     (5, [(0, 1), (2, 3), (3, 4), (4, 2)]),
                     (3, [(1, 2)]), (3, [(0, 1)]), (4, [(0, 1), (2, 3)]),
                     (5, [(0, 1), (1, 2), (3, 4)])):
        g = Graph(n, edges)
        assert cycle_order(g) is None and path_order(g) is None


def test_constraint_pairs():
    assert len(constraint_pairs(gen_cycle(6), 2)) == 12
    assert len(constraint_pairs(gen_cycle(9), 5)) == 36
    assert constraint_pairs(gen_path(2), 3) == [(0, 1, 1)]


@given(graphs())
@settings(max_examples=150)
def test_components_match_a_plain_bfs(g):
    # Each vertex once; each root its component's vertex of largest degree
    # (ties by smallest id), roots in that order; each reach the BFS
    # distances from its root.
    walked = list(components(g))
    seen = [v for root, reach in walked for v in (root, *reach)]
    assert sorted(seen) == list(range(g.n))
    keys = [(-g.degree(root), root) for root, _ in walked]
    assert keys == sorted(keys)
    for root, reach in walked:
        dist = bfs_distances(g, root)
        comp = [v for v in range(g.n) if dist[v] < math.inf]
        assert min(comp, key=lambda v: (-g.degree(v), v)) == root
        assert reach == {v: dist[v] for v in comp if v != root}


@given(graphs(max_n=7))
@settings(max_examples=60)
def test_bfs_symmetric_and_triangle(g):
    dist = [bfs_distances(g, v) for v in range(g.n)]
    for u in range(g.n):
        for v in range(g.n):
            assert dist[u][v] == dist[v][u]
            for w in range(g.n):
                assert dist[u][v] <= dist[u][w] + dist[w][v]


def test_contract_examples():
    red = Reduction(gen_path(3))
    red.contract(2, 1)                   # merges into the lower id
    assert red.vertices() == [0, 1] and red.adj[:2] == [{1}, {0}]
    assert induced(red, red.vertices()) == gen_path(2)
    red = Reduction(gen_cycle(4))
    red.contract(0, 1)
    assert induced(red, red.vertices()) == gen_cycle(3)
    red = Reduction(gen_cycle(3))
    red.contract(0, 1)                   # parallel edges collapse
    assert red.live == 2 and red.adj[0] == {2} and red.adj[2] == {0}
    with pytest.raises(GraphError):
        Reduction(gen_path(3)).contract(0, 2)


@given(graphs(max_n=7, min_n=2))
@settings(max_examples=60)
def test_contract_never_increases_distances(g):
    edges = g.edges()
    if not edges:
        return
    u, w = edges[0]
    red = Reduction(g)
    red.contract(w, u)

    def merged(x):
        return u if x == w else x

    for x in range(g.n):
        before = bfs_distances(g, x)
        after = distances_within(red, merged(x), g.n)
        for y in range(g.n):
            if merged(x) != merged(y):
                assert after.get(merged(y), math.inf) <= before[y]


@given(graphs(max_n=9), st.randoms(use_true_random=False))
@settings(max_examples=80)
def test_reduction_undo_restores_each_step(g, rnd):
    red = Reduction(g)
    seen = random_steps(red, rnd, rnd.randint(0, g.n + 1))
    live = red.vertices()
    assert red.live == len(live)
    for v in range(g.n):
        assert v not in red.adj[v]
        assert all(v in red.adj[u] and red.alive[u] for u in red.adj[v])
    for adj, live in reversed(seen):
        red.undo()
        assert red.adj == adj and red.vertices() == live
    assert red.adj == [set(a) for a in g.adj] and red.live == g.n


def _subdivided(seed: int) -> Graph:
    rng = random.Random(seed)
    return random_subdivided(rng, n_base=rng.randint(3, 7),
                             extra_edges=rng.randint(0, 4))


@given(st.one_of(graphs(max_n=13), st.integers(0, 10 ** 6).map(_subdivided)),
       st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_searches_on_reduction_match_compacted_rebuild(g, rnd):
    # The reduce-and-lift colorers are byte-identical to rebuilding a
    # compacted Graph at every step only because of this correspondence.
    red = Reduction(g)
    random_steps(red, rnd, rnd.randint(0, g.n // 2))
    ids = red.vertices()
    h = induced(red, ids)

    def back(found):
        return None if found is None else \
            tuple(None if x is None else ids[x] for x in found)

    assert find_outerplanar_edge(red) == back(find_outerplanar_edge(h))
    assert find_planar_reducible(red) == back(find_planar_reducible(h))
    k = max(2, greedy_2tone_palette(h.max_degree()))
    assert greedy_color(red, 2, k).labels == {
        ids[v]: lab for v, lab in greedy_color(h, 2, k).labels.items()}
    while low := [v for v in red.vertices() if len(red.adj[v]) <= 1]:
        red.delete(*low)
    ids = red.vertices()
    cfg = find_thread_config(induced(red, ids))
    assert find_thread_config(red) == (None if cfg is None else ThreadConfig(
        cfg.kind, back(cfg.internal), back(cfg.endpoints)))


def _thread_by_definition(g):
    """find_thread_config written from the definition: every ordered path
    of distinct degree-2 vertices, with the neighbors before its first and
    after its last vertex as endpoints, that passes the kind's end-degree
    test; 4- and 3-threads outside 2-regular components; the least internal
    tuple of the first kind in preference order that has one."""
    twos = {v for v in g.vertices() if len(g.adj[v]) == 2}
    regular, seen = set(), set()
    for s in g.vertices():
        if s in seen:
            continue
        comp, stack = {s}, [s]
        while stack:
            for w in g.adj[stack.pop()]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        if comp <= twos:
            regular |= comp

    def paths(path, width):
        if len(path) == width:
            yield tuple(path)
            return
        for w in g.adj[path[-1]]:
            if w in twos and w not in path:
                yield from paths(path + [w], width)

    tests = (("FourThread", 4, lambda d0, d1: True),
             ("ThreeThread", 3, lambda d0, d1: d1 <= 5),
             ("TwoThread", 2, lambda d0, d1: d0 <= 3 and d1 <= 5))
    for kind, width, ends_ok in tests:
        found = []
        for x in twos - (regular if width > 2 else set()):
            for internal in paths([x], width):
                e0 = next(u for u in g.adj[internal[0]] if u != internal[1])
                e1 = next(u for u in g.adj[internal[-1]] if u != internal[-2])
                if ends_ok(len(g.adj[e0]), len(g.adj[e1])):
                    found.append(ThreadConfig(kind, internal, (e0, e1)))
        if found:
            return min(found, key=lambda c: c.internal)
    return None


@st.composite
def _cycle_unions(draw):
    """Disjoint cycles with random ids, with or without chords."""
    lengths = draw(st.lists(st.integers(3, 9), min_size=1, max_size=4))
    n = sum(lengths)
    ids = draw(st.permutations(range(n)))
    edges, off = [], 0
    for length in lengths:
        edges += [(ids[off + i], ids[off + (i + 1) % length])
                  for i in range(length)]
        off += length
    chords = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                     st.integers(0, n - 1)), max_size=3))
    return Graph(n, edges + [(u, v) for u, v in chords if u != v])


def _hub_threads(seed: int) -> Graph:
    """Hubs joined by threads of 1 to 4 vertices, with random ids, so that
    thread ends take every degree; the longest thread length is drawn first,
    so that each kind is sometimes the first one present."""
    rng = random.Random(seed)
    hubs, longest = rng.randint(1, 3), rng.randint(1, 4)
    edges, n = [], hubs
    for _ in range(rng.randint(3, 14)):
        length = rng.randint(1, longest)
        chain = [rng.randrange(hubs), *range(n, n + length), rng.randrange(hubs)]
        n += length
        edges += zip(chain, chain[1:])
    ids = rng.sample(range(n), n)
    return Graph(n, [(ids[u], ids[v]) for u, v in edges])


def _thread_search_agrees(g: Graph, rnd) -> None:
    def strip(red):
        while low := [v for v in red.vertices() if len(red.adj[v]) <= 1]:
            red.delete(*low)
        return red

    red = strip(Reduction(g))
    stripped = induced(red, red.vertices())
    assert find_thread_config(stripped) == _thread_by_definition(stripped)
    # and on a random reduction state, read on its own vertex ids
    red = Reduction(g)
    random_steps(red, rnd, rnd.randint(0, g.n // 2))
    strip(red)
    assert find_thread_config(red) == _thread_by_definition(red)


@given(st.one_of(_cycle_unions(), graphs(max_n=12),
                 st.integers(0, 10 ** 6).map(_subdivided),
                 st.integers(0, 10 ** 6).map(_hub_threads)),
       st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_thread_search_matches_definition(g, rnd):
    _thread_search_agrees(g, rnd)


def test_thread_search_matches_definition_at_every_end_degree():
    # a fixed sample, so that each end-degree test is always exercised
    for seed in range(300):
        _thread_search_agrees(_hub_threads(seed), random.Random(seed))


def test_mad_examples():
    assert mad(gen_star(4)).fraction == Fraction(8, 5)   # tree on 5 vertices
    assert mad(gen_cycle(6)).fraction == 2
    pendant = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)])
    assert mad(pendant) == Density(*brute_mad(pendant)) == Density(10, 5)
    assert mad(Graph(1, [])).fraction == 0


@given(graphs(max_n=10))
@settings(max_examples=60, deadline=None)
def test_mad_flow_matches_bruteforce(g):
    # the witness too: the largest densest subgraph, with unreduced counts
    got = mad(g)
    assert (got.numerator, got.denominator) == brute_mad(g)


def test_mad_flow_calls(monkeypatch):
    calls, networks = [], []
    exceeds, min_cut = graphs_mod._density_exceeds, graphs_mod._min_cut

    def counted(g, p, q):
        calls.append((p, q))
        return exceeds(g, p, q)

    def recorded(size, arcs, s, t):
        networks.append((size, arcs))
        return min_cut(size, arcs, s, t)

    monkeypatch.setattr(graphs_mod, "_density_exceeds", counted)
    monkeypatch.setattr(graphs_mod, "_min_cut", recorded)
    k4_tail = Graph(7, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                        (3, 4), (4, 5), (5, 6)])
    for g, want in [(gen_star(4), 1), (gen_cycle(6), 1), (gen_grid(3, 3), 1),
                    (k4_tail, 2)]:
        calls.clear()
        got = mad(g)
        assert len(calls) == want, (g, calls)
    assert got == Density(12, 4)
    # 9 edges on 7 vertices, then K4's 6 on 4, passed unreduced; the flow
    # runs on the reduced threshold 3/2, so each edge's arc pair carries 2
    assert calls == [(9, 7), (6, 4)]
    # the tail leaves the 2-core, so the network is K4's four branch nodes,
    # one arc pair per K4 edge, a thread of no vertex: w = q = 2 each way
    size, arcs = networks[-1]
    edge_arcs = {(u, v): (c, back) for u, v, c, back in arcs
                 if u < size - 2 and v < size - 2}
    assert size == 6
    assert edge_arcs == {e: (2, 2) for e in combinations(range(4), 2)}
    # a theta graph of threads of 0, 1 and 3 vertices between 0 and 1, at
    # 8/7: w = q(s+1) - ps is 7, 6 and 4, one arc pair each, and each end's
    # excess 17 - 2p = 1
    networks.clear()
    theta = Graph(6, [(0, 1), (0, 2), (2, 1), (0, 3), (3, 4), (4, 5), (5, 1)])
    assert exceeds(theta, 8, 7) == set(range(6))
    assert networks == [(4, [(2, 0, 1, 0), (2, 1, 1, 0), (0, 1, 7, 7),
                             (0, 1, 6, 6), (0, 1, 4, 4)])]


@st.composite
def networks(draw):
    """(size, arcs) on 2..8 nodes: arcs (u, v, c, back) with u != v,
    parallel and antiparallel arcs allowed, capacities 0..6 each way."""
    size = draw(st.integers(2, 8))
    node = st.integers(0, size - 1)
    cap = st.integers(0, 6)
    arcs = draw(st.lists(st.tuples(node, node, cap, cap).filter(
        lambda a: a[0] != a[1]), max_size=16))
    return size, arcs


@given(networks(), st.data())
@settings(max_examples=200, deadline=None)
def test_min_cut_matches_augmenting_paths(net, data):
    # s's residual reach is the same for every maximum flow, so the two
    # algorithms agree on the side as well as on the flow
    size, arcs = net
    s, t = data.draw(st.lists(st.integers(0, size - 1), min_size=2,
                              max_size=2, unique=True))
    assert graphs_mod._min_cut(size, arcs, s, t) == \
        augmenting_path_cut(size, arcs, s, t)


@given(graphs(max_n=9), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_density_gate_matches_edge_node_network(g, rnd):
    # At the density of a random subgraph (a tie for that subgraph) and just
    # below it: subgraph densities are fractions with denominator <= n, so
    # no density lies strictly between the two thresholds but the tie.
    sub = set(rnd.sample(range(g.n), rnd.randint(1, g.n)))
    inside = sum(1 for u, v in g.edges() if u in sub and v in sub)
    tie = Fraction(inside, len(sub))
    for threshold in {tie, max(0, tie - Fraction(1, g.n * g.n + 1))}:
        got = graphs_mod._density_exceeds(g, threshold.numerator,
                                          threshold.denominator)
        assert got == edge_node_density_exceeds(g, threshold)
        assert got == brute_densest_witness(g, threshold)


def test_mad_on_long_chains():
    # K4 with a 4 500-vertex tail, which the density decision peels off
    lollipop = Graph(4504, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)] +
                     [(v, v + 1) for v in range(3, 4503)])
    assert mad(lollipop) == Density(12, 4)
    # one augmenting path of 3 001 arcs, more than Python's recursion limit
    # would allow a search with a frame per arc
    arcs = [(v, v + 1, 1, 0) for v in range(3001)]
    assert graphs_mod._min_cut(3002, arcs, 0, 3001) == (1, {0})
    # below threshold 1, decided by components without flow
    perm = list(range(1500))
    random.Random(0).shuffle(perm)
    path = Graph(1500, [(perm[i], perm[i + 1]) for i in range(1499)])
    assert mad(path) == Density(2 * 1499, 1500)


def _branch_count(g: Graph) -> int:
    """The vertices of degree >= 3 in g's 2-core, the core found by deleting
    vertices of degree <= 1 until none is left."""
    core = set(range(g.n))
    while low := [v for v in core if len(core.intersection(g.adj[v])) < 2]:
        core.difference_update(low)
    return sum(1 for v in core if len(core.intersection(g.adj[v])) > 2)


def test_density_gate_network_is_on_the_vertices(monkeypatch):
    # the branch vertices of the 2-core, plus source and sink
    sizes = []
    min_cut = graphs_mod._min_cut

    def counted(size, arcs, s, t):
        sizes.append(size)
        return min_cut(size, arcs, s, t)

    monkeypatch.setattr(graphs_mod, "_min_cut", counted)
    k4_tail = Graph(7, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                        (3, 4), (4, 5), (5, 6)])
    for g, branch in [(gen_grid(3, 3), 5), (k4_tail, 4)]:
        sizes.clear()
        mad(g)
        assert _branch_count(g) == branch
        assert sizes and set(sizes) == {branch + 2}, (g, sizes)
    for g in [gen_star(4),      # density 4/5: below 1, decided without flow
              gen_cycle(6)]:    # 2-regular: no branch vertex, no flow
        sizes.clear()
        mad(g)
        assert sizes == []
    g = random_subdivided(random.Random(0), 30, 8)
    sizes.clear()
    constructions.color_sparse(g)
    assert sizes == [_branch_count(g) + 2] and sizes[0] < g.n // 2


@given(st.one_of(threaded_graphs(), graphs(max_n=12)),
       st.lists(st.tuples(st.integers(0, 24), st.integers(1, 8)), min_size=1,
                max_size=6),
       st.randoms(use_true_random=False))
@example(Graph(7, list(combinations(range(6), 2)) + [(0, 6), (6, 1)]),
         [(2, 1)], random.Random(0))    # K6 and a 1-vertex thread, w = 0
@settings(max_examples=200, deadline=None)
def test_density_gate_matches_vertex_network(g, thresholds, rnd):
    # The folded network against the one on every vertex: the same witness
    # at thresholds on both sides of 1, among them w = 0 at (s+1)/s, and at
    # the density of a random subgraph, a tie for it; the same mad.
    sub = set(rnd.sample(range(g.n), rnd.randint(1, g.n)))
    inside = sum(1 for u, v in g.edges() if u in sub and v in sub)
    for p, q in thresholds + [(inside, len(sub))]:
        assert graphs_mod._density_exceeds(g, p, q) == \
            vertex_network_density_exceeds(g, p, q), (p, q)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graphs_mod, "_density_exceeds",
                      vertex_network_density_exceeds)
        want = mad(g)
    assert mad(g) == want


def _theta(threads: int, length: int) -> Graph:
    """Vertices 0 and 1 joined by the given number of threads of length
    vertices each."""
    edges, n = [], 2
    for _ in range(threads):
        chain = [0, *range(n, n + length), 1]
        n += length
        edges += zip(chain, chain[1:])
    return Graph(n, edges)


@pytest.mark.parametrize("g", [
    _theta(3, 1000),
    Graph(3000, [(v, (v + 1) % 3000) for v in range(3000)] + [(0, 1500)])],
    ids=["theta-3002", "cycle-3000-chord"])
def test_long_chains_fold_to_their_branch_vertices(g, monkeypatch):
    # Not a timing test: each long thread is one arc pair between the two
    # branch vertices, so the flow runs on 4 nodes where the vertex network
    # had n + 2 and a Dinic phase per step along a thread.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graphs_mod, "_density_exceeds",
                      vertex_network_density_exceeds)
        want = mad(g)
    sizes = []
    min_cut = graphs_mod._min_cut

    def counted(size, arcs, s, t):
        sizes.append(size)
        return min_cut(size, arcs, s, t)

    monkeypatch.setattr(graphs_mod, "_min_cut", counted)
    assert mad(g) == want == Density(2 * g.m, g.n)
    assert sizes and max(sizes) <= 4


def test_thread_config_on_cycles():
    cfg = find_thread_config(gen_cycle(5))
    assert cfg.kind == "TwoThread"
    assert cfg.internal == (0, 1)
    cfg3 = find_thread_config(gen_cycle(3))
    assert cfg3.kind == "TwoThread"
    assert cfg3.endpoints[0] == cfg3.endpoints[1]


def test_thread_config_four_thread():
    # two degree-3 hubs joined by three 4-threads
    edges = []
    nid = 2
    for _ in range(3):
        chain = list(range(nid, nid + 4))
        nid += 4
        edges.append((0, chain[0]))
        edges.extend(zip(chain, chain[1:]))
        edges.append((chain[-1], 1))
    g = Graph(nid, edges)
    cfg = find_thread_config(g)
    assert cfg.kind == "FourThread"


def test_thread_config_three_thread():
    # theta graph: two degree-3 hubs joined by three 3-threads
    edges = []
    nid = 2
    for _ in range(3):
        chain = list(range(nid, nid + 3))
        nid += 3
        edges.append((0, chain[0]))
        edges.extend(zip(chain, chain[1:]))
        edges.append((chain[-1], 1))
    g = Graph(nid, edges)
    cfg = find_thread_config(g)
    assert cfg.kind == "ThreeThread"
    assert g.degree(cfg.endpoints[1]) <= 5


def test_thread_config_none_on_k4():
    k4 = Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert find_thread_config(k4) is None


def test_thread_config_requires_min_degree_two():
    with pytest.raises(ValueError):
        find_thread_config(gen_path(5))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_thread_config_valid_on_sparse_graphs(seed):
    rng = random.Random(seed)
    g = random_subdivided(rng, n_base=rng.randint(4, 9),
                          extra_edges=rng.randint(1, 4))
    # strip degree<=1 vertices so the precondition holds
    while True:
        keep = [v for v in range(g.n) if g.degree(v) > 1]
        if len(keep) == g.n:
            break
        g = induced(g, keep)
    if g.n == 0:
        return
    assert mad(g).fraction < Fraction(12, 5)
    cfg = find_thread_config(g)
    assert cfg is not None   # guaranteed below density 12/5


def test_find_planar_reducible():
    tree = gen_path(5)
    v, w = find_planar_reducible(tree)
    assert tree.degree(v) <= 5 and w in tree.adj[v]
    # icosahedron: 5-regular planar
    ico = Graph(12, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (2, 3),
                     (3, 4), (4, 5), (5, 1), (1, 6), (2, 6), (2, 7), (3, 7),
                     (3, 8), (4, 8), (4, 9), (5, 9), (5, 10), (1, 10), (6, 7),
                     (7, 8), (8, 9), (9, 10), (10, 6), (6, 11), (7, 11),
                     (8, 11), (9, 11), (10, 11)])
    assert all(ico.degree(v) == 5 for v in range(12))
    v, w = find_planar_reducible(ico)
    assert ico.degree(w) <= 10
    # a 12-regular graph has no vertex of degree <= 5
    kreg = Graph(13, [(i, j) for i in range(13) for j in range(i + 1, 13)])
    assert find_planar_reducible(kreg) is None
    iso = Graph(1, [])
    assert find_planar_reducible(iso) == (0, None)


def test_find_outerplanar_edge():
    x, y = find_outerplanar_edge(gen_path(5))
    assert gen_path(5).degree(x) == 1
    # maximal outerplanar fan: apex + path
    fan = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (5, 0), (5, 1), (5, 2),
                    (5, 3), (5, 4)])
    x, y = find_outerplanar_edge(fan)
    assert fan.degree(x) <= 2 and fan.degree(y) <= 4
    k4 = Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert find_outerplanar_edge(k4) is None


def test_grid_distance_formula():
    for m, n in ((2, 2), (3, 5), (8, 8)):
        g = gen_grid(m, n)
        for i1 in range(1, m + 1):
            for j1 in range(1, n + 1):
                d = bfs_distances(g, (i1 - 1) * n + (j1 - 1))
                for i2 in range(1, m + 1):
                    for j2 in range(1, n + 1):
                        v = (i2 - 1) * n + (j2 - 1)
                        assert d[v] == abs(i1 - i2) + abs(j1 - j2)


@given(st.one_of(graphs(max_n=14), st.integers(0, 10 ** 6).map(_subdivided)),
       st.integers(1, 8))
@settings(max_examples=300, deadline=None)
def test_effective_diameter_matches_scan(g, cap):
    assert effective_diameter(g, cap) == scan_effective_diameter(g, cap)


def test_effective_diameter_on_large_stars_and_paths():
    # iFUB: one BFS from the center, one from the first leaf; the scan
    # from every vertex would take ~10^10 steps on this star
    star = gen_star(10 ** 5)
    assert [effective_diameter(star, cap) for cap in (1, 2, 3, 8)] == \
        [1, 2, 2, 2]
    path = gen_path(10 ** 5)
    assert effective_diameter(path, 8) == 8
    assert effective_diameter(Graph(0, []), 3) == 0
    assert effective_diameter(Graph(3, []), 3) == 0


def test_edge_list_round_trip():
    g = gen_grid(3, 4)
    text = write_edge_list(g)
    assert text.splitlines()[0] == "12 17"
    assert read_edge_list(text) == g
    commented = "c a comment\n3 1\nc another\n0 2\n"
    assert 2 in read_edge_list(commented).adj[0]
    with pytest.raises(GraphError):
        read_edge_list("3 2\n0 1\n")


def test_edge_list_header_limit():
    # one past the limit, refused before any per-vertex allocation
    over = graphs_mod.MAX_EDGE_LIST_VERTICES + 1
    with pytest.raises(GraphError, match="limit"):
        read_edge_list(f"{over} 0\n")


def test_subdivide_helper():
    g = subdivide(gen_path(2), lambda u, v: 3)
    assert (g.n, g.m) == (5, 4)
    assert sorted(g.degree(v) for v in range(5)) == [1, 1, 2, 2, 2]
    assert bfs_distances(g, 0)[1] == 4   # the old endpoints sit 4 apart


@given(graphs(max_n=7), st.randoms(use_true_random=False))
@settings(max_examples=120, deadline=None)
def test_two_degenerate_base_subdivided_twice_is_below_12_5(base, rnd):
    # random_subdivided's shortcut, against the exact mad: at least two
    # interior vertices per edge of a 2-degenerate base keep mad < 12/5
    two_degenerate = not any(_core(base.adj, 3))
    assert two_degenerate == (degeneracy_order(base)[1] <= 2)
    g = subdivide(base, lambda u, v: rnd.choice((2, 2, 3, 6)))
    if two_degenerate:
        assert mad(g).fraction < Fraction(12, 5)


def test_two_degenerate_bound_is_tight():
    # K5 is 4-degenerate, and subdivided twice per edge it reaches 12/5:
    # 30 edges on 25 vertices
    k5 = Graph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
    assert all(_core(k5.adj, 3))
    assert mad(subdivide(k5, lambda u, v: 2)).fraction == Fraction(12, 5)


@given(graphs(max_n=7), st.integers(0, 4))
@settings(max_examples=150, deadline=None)
def test_core_is_the_largest_subgraph_of_min_degree_k(g, k):
    # the k-core by its definition: the union of the vertex sets whose
    # induced subgraphs have minimum degree >= k, which is one itself; its
    # adjacency keeps adj's order, and a vertex outside it gets (), as an
    # isolated vertex inside the 0-core does
    core = set()
    for size in range(g.n + 1):
        for keep in map(set, combinations(range(g.n), size)):
            if all(len(keep.intersection(g.adj[v])) >= k for v in keep):
                core |= keep
    assert _core(g.adj, k) == [
        tuple(u for u in g.adj[v] if u in core) if v in core else ()
        for v in range(g.n)]


@given(st.integers(0, 10 ** 6), st.integers(2, 40), st.integers(0, 12))
@example(78346, 8, 10)      # uniformly 2, 14 base edges on 7 vertices: 12/5
@settings(max_examples=60, deadline=None)
def test_random_subdivided_is_below_12_5(seed, n_base, extra):
    g = random_subdivided(random.Random(seed), n_base, extra)
    assert mad(g).fraction < Fraction(12, 5)


def test_mad_below_12_5_matches_exact_mad_on_gnp():
    # seeded G(n, p) with average degree about 1 to 4, around 12/5
    rng = random.Random(12)
    at = 0
    for _ in range(1000):
        n = rng.randint(1, 40)
        p = rng.uniform(1, 4) / n
        g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])
        exact = mad(g).fraction
        assert mad_below_12_5(g) == (exact < Fraction(12, 5))
        at += exact == Fraction(12, 5)
    assert at == 22
    assert mad_below_12_5(Graph(0, []))


def test_random_subdivided_draws_the_graphs_of_the_exact_check(monkeypatch):
    # the same seeded draws under the class predicate and under the exact
    # mad it replaced, with enough extra edges that the resample fires
    fired = []

    def counted(g):
        below = mad_below_12_5(g)
        fired[-1] += not below
        return below

    def parent(g):
        return not mad_at_least_12_5(g)

    check = [None]
    monkeypatch.setattr(instances, "mad_below_12_5", lambda g: check[0](g))
    for n_base, extra in ((6, 12), (10, 20), (12, 40)):
        fired.append(0)
        for seed in range(400):
            check[0] = counted
            got = random_subdivided(random.Random(seed), n_base, extra)
            check[0] = parent
            assert got == random_subdivided(random.Random(seed), n_base, extra)
    assert fired == [7, 64, 110]


def test_mixed_subdivided_draw_skips_mad(monkeypatch):
    # A mixed-mode draw of 10 791 vertices, whose exact mad took 16 s.  Its
    # base is 2-degenerate, so the class check is never called.
    calls = []
    monkeypatch.setattr(instances, "mad_below_12_5",
                        lambda g: calls.append(g) or mad_below_12_5(g))
    g = random_subdivided(random.Random(3), 2000, 200)
    base_edges = g.m - (g.n - 2000)     # each interior vertex adds one edge
    assert g.n == 10_791 and g.n - 2000 not in (2 * base_edges, 3 * base_edges)
    assert calls == []


def _scan(red, test):
    return next((v for v in red.vertices() if test(v)), None)


def _on_cycle(red, v):
    """Whether v's component is 2-regular: v's run closes on v."""
    return len(red.adj[v]) == 2 and \
        list(_run(red.adj, v, min(red.adj[v])))[-1] == v


def _indexes(red):
    """(LeastLive index, the same predicate) pairs for each rule the
    colorers index, with its feed, plus a low threshold that small graphs
    reach.  The thread rules test 2-regularity directly, where color_sparse
    keeps a set of the cycles it has met."""
    rules = [
        (lambda v: len(red.adj[v]) <= 1, None),
        (lambda v: len(red.adj[v]) == 0, None),
        (lambda v: len(red.adj[v]) >= 13, None),
        (lambda v: len(red.adj[v]) >= 3, None),
        (lambda v: outerplanar_edge_at(red, v) is not None,
         degree_crossings(red, OUTERPLANAR_HIGH)),
        (lambda v: planar_reducible_at(red, v) is not None,
         degree_crossings(red, PLANAR_HIGH)),
    ]
    rules += [(lambda v, w=w: thread_at(red, v, w) is not None and
               (w == 2 or not _on_cycle(red, v)),
               thread_runs(red)) for w in (4, 3, 2)]
    return [(LeastLive(red, test, feed), test) for test, feed in rules]


def _indexes_agree(red, indexes):
    for index, test in indexes:
        assert index() == _scan(red, test)
        # each id queued at most once, and flagged exactly while queued
        assert len(set(index.heap)) == len(index.heap)
        assert set(compress(range(len(index.queued)), index.queued)) == \
            set(index.heap)


def _apollonian(seed: int) -> Graph:
    rng = random.Random(seed)
    return random_apollonian(rng, rng.randint(0, 40))


def _outerplanar(seed: int) -> Graph:
    rng = random.Random(seed)
    return random_maximal_outerplanar(rng, rng.randint(3, 40))


@given(st.one_of(graphs(max_n=13), st.integers(0, 10 ** 6).map(_subdivided),
                 st.integers(0, 10 ** 6).map(_apollonian),
                 st.integers(0, 10 ** 6).map(_outerplanar), _cycle_unions(),
                 st.integers(0, 10 ** 6).map(_hub_threads)),
       st.randoms(use_true_random=False))
@settings(max_examples=120, deadline=None)
def test_least_live_matches_scan_along_steps_and_undos(g, rnd):
    red = Reduction(g)
    indexes = _indexes(red)
    _indexes_agree(red, indexes)
    steps = 0
    for _ in range(rnd.randint(0, g.n)):
        if red.log and rnd.random() < 0.25:
            red.undo()
            steps -= 1
        elif random_steps(red, rnd, 1):
            steps += 1
        _indexes_agree(red, indexes)
    for _ in range(steps):
        red.undo()
        _indexes_agree(red, indexes)
    assert red.adj == [set(a) for a in g.adj]


def test_thread_indexes_see_a_cycle_open_far_away():
    # Deleting the pendant vertices 20..23 leaves a 2-regular 20-cycle, where
    # no 4- or 3-thread is reducible.  Undoing the four steps at once gives
    # vertex 10 degree 6 again, and the least 4-thread then starts at 0, ten
    # steps away.
    g = Graph(24, [(i, (i + 1) % 20) for i in range(20)] +
              [(10, p) for p in range(20, 24)])
    red = Reduction(g)
    indexes = _indexes(red)
    for p in range(20, 24):
        red.delete(p)
    _indexes_agree(red, indexes)
    for _ in range(4):
        red.undo()
    _indexes_agree(red, indexes)
    assert indexes[-3][0]() == 0


def _scan_pick(kind, red):
    """The step each colorer took by scanning every live vertex, before
    its picks were indexed; None where the colorer stops."""
    if kind == "sparse":
        low = next((v for v in red.vertices() if len(red.adj[v]) <= 1), None)
        if low is not None:
            return [low], None, None
        cfg = find_thread_config(red)
        if cfg.kind == "FourThread":
            return [cfg.internal[1], cfg.internal[2]], None, None
        if cfg.kind == "ThreeThread":
            return [cfg.internal[2], cfg.internal[1]], None, None
        return [cfg.internal[0]], None, cfg.internal[1]
    if kind == "outerplanar":
        x, y = find_outerplanar_edge(red)
        return [x], y, None
    if max(len(red.adj[v]) for v in red.vertices()) <= 12:
        return None
    v, w = find_planar_reducible(red)
    return [v], w, None


@pytest.mark.parametrize("kind", ["sparse", "outerplanar", "planar"])
def test_colorer_picks_match_scans(kind, monkeypatch):
    real = constructions._reduce_and_lift
    taken = []

    def checked(g, k, picks):
        def compared(red):
            for step in picks(red):
                assert step == _scan_pick(kind, red)
                taken.append(step)
                yield step
            assert _scan_pick(kind, red) is None
        return real(g, k, compared)

    monkeypatch.setattr(constructions, "_reduce_and_lift", checked)
    colorer = {"sparse": constructions.color_sparse,
               "outerplanar": constructions.color_outerplanar,
               "planar": constructions.color_planar}[kind]
    for seed in range(12):
        rng = random.Random(seed)
        if kind == "sparse":
            g = random_subdivided(rng, n_base=rng.randint(3, 30),
                                  extra_edges=rng.randint(0, 8))
        elif kind == "outerplanar":
            g = random_maximal_outerplanar(rng, rng.randint(3, 120))
        else:
            g = random_apollonian(rng, rng.randint(0, 150))
        colorer(g)
    assert taken


def _count_rule_evaluations(monkeypatch) -> list:
    """Make constructions' LeastLive count its test calls, in the one-item
    list returned."""
    evaluations = [0]

    class Counted(LeastLive):
        def __init__(self, red, test, feed=None):
            def counted(v):
                evaluations[0] += 1
                return test(v)
            super().__init__(red, counted, feed)

    monkeypatch.setattr(constructions, "LeastLive", Counted)
    return evaluations


def test_outerplanar_index_work_is_linear(monkeypatch):
    # Counts predicate evaluations, not time: a scan of the live vertices
    # at every step would make about n^2 / 2 of them.
    evaluations = _count_rule_evaluations(monkeypatch)
    g = random_maximal_outerplanar(random.Random(5), 2000)
    constructions.color_outerplanar(g)
    assert 0 < evaluations[0] <= 8 * (g.n + g.m)


def test_planar_index_work_is_linear(monkeypatch):
    # The same count for color_planar, on 2 000 vertices; it measures about
    # 1.3 (n + m).
    evaluations = _count_rule_evaluations(monkeypatch)
    g = random_apollonian(random.Random(5), 1997)
    assert g.n == 2000
    constructions.color_planar(g)
    assert 0 < evaluations[0] <= 4 * (g.n + g.m)


@pytest.mark.parametrize("make", [
    lambda: random_subdivided(random.Random(5), 2000, 200),
    lambda: gen_cycle(20_000)], ids=["sparse-threads", "cycle"])
def test_thread_index_work_is_linear(monkeypatch, make):
    # Counts thread_at calls and _run steps, not time.  The whole-graph scan
    # made about n / 50 passes over the live vertices on the sparse-threads
    # graph (8 597 vertices; seed 5 subdivides every edge three times, which
    # skips random_subdivided's mad check, 16 s at this size); without
    # color_sparse's set of cycles each vertex of the cycle would walk all
    # of it, about n^2 steps.
    work = 0
    real_at, real_run = thread_at, _run

    def counted_at(g, x, width):
        nonlocal work
        work += 1
        return real_at(g, x, width)

    def counted_run(adj, x, y):
        nonlocal work
        for v in real_run(adj, x, y):
            work += 1
            yield v

    monkeypatch.setattr(constructions, "thread_at", counted_at)
    monkeypatch.setattr(constructions, "_run", counted_run)
    monkeypatch.setattr(graphs_mod, "_run", counted_run)
    g = make()
    constructions.color_sparse(g)
    assert 0 < work <= 8 * g.n
