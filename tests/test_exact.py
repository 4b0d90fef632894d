import random
import sys
import tracemalloc
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (count_verifies, earlier_lists, graphs, pairs_layout,
                      rescan_search_order, walk_dfs_compiled)
from ttone.bounds import Certificate, path_tau
from ttone.coloring import Coloring, label_mask, label_stream, verify
from ttone import exact
from ttone.exact import (SearchBudget, _Searcher, exact_decide,
                         search_layout, search_order, tau)
from ttone.graphs import Graph, gen_cycle, gen_path, gen_star


def _searcher(g, t, k):
    """A _Searcher of g, t and k with a one-node cap and no deadline."""
    return _Searcher(search_layout(g, t)[1], t, k, 1, None)


def test_search_order_starts_at_max_degree():
    assert search_order(gen_star(4))[0] == 0
    two = Graph(5, [(0, 1), (2, 3), (3, 4)])
    order = search_order(two)
    assert order[0] == 3 and sorted(order) == list(range(5))


@st.composite
def several_components(draw):
    """A disjoint union of 2..4 random graphs with shuffled ids."""
    parts = draw(st.lists(graphs(max_n=6), min_size=2, max_size=4))
    n = sum(p.n for p in parts)
    ids = draw(st.permutations(range(n)))
    edges, base = [], 0
    for p in parts:
        edges += [(ids[base + u], ids[base + v]) for u, v in p.edges()]
        base += p.n
    return Graph(n, edges)


@given(several_components())
@settings(max_examples=200, deadline=None)
def test_search_order_matches_its_definition(g):
    assert search_order(g) == rescan_search_order(g)


def test_search_order_on_many_components():
    # one presort, not one scan per component: 10^5 singletons
    assert search_order(Graph(100_000, [])) == list(range(100_000))


def test_decide_c4():
    assert exact_decide(gen_cycle(4), 2, 5).status == "infeasible"
    res = exact_decide(gen_cycle(4), 2, 6)
    assert res.status == "colored"
    assert verify(gen_cycle(4), res.coloring) == []


def test_decide_c7_tone3():
    assert exact_decide(gen_cycle(7), 3, 8).status == "infeasible"
    assert exact_decide(gen_cycle(7), 3, 9).status == "colored"


def test_decide_p2_tone3():
    assert exact_decide(gen_path(2), 3, 5).status == "infeasible"
    res = exact_decide(gen_path(2), 3, 6)
    assert res.status == "colored"
    a, b = res.coloring.labels[0], res.coloring.labels[1]
    assert not set(a) & set(b)


def test_decide_small_palette_and_tiny_graphs():
    assert exact_decide(gen_path(2), 3, 2).status == "infeasible"
    res = exact_decide(Graph(1, []), 4, 4)
    assert res.coloring.labels[0] == (1, 2, 3, 4)
    # the empty coloring fits every palette k >= 0, k < t included
    for t in (1, 2, 4):
        for k in range(t + 1):
            res = exact_decide(Graph(0, []), t, k)
            assert (res.status, res.coloring) == ("colored", Coloring(t, k))
    assert exact_decide(Graph(0, []), 2, -1).status == "infeasible"
    assert tau(Graph(0, []), 3).value == 0


@pytest.mark.parametrize("g, t, k", [
    (gen_path(2), 3, 6), (gen_cycle(7), 3, 9), (gen_star(4), 2, 9),
    (Graph(3, []), 2, 2), (gen_cycle(9), 4, 13)])
def test_colored_decision_verifies_once(monkeypatch, g, t, k):
    calls = count_verifies(monkeypatch)
    assert exact_decide(g, t, k).status == "colored"
    assert calls == [g.n]


def test_first_vertex_canonical():
    res = exact_decide(gen_cycle(6), 3, 8)
    first = search_order(gen_cycle(6))[0]
    assert res.coloring.labels[first] == (1, 2, 3)


def test_tau_examples():
    assert tau(gen_cycle(5), 4).value == 15
    assert tau(gen_cycle(3), 5).value == 15
    assert tau(gen_path(5), 2).value == 5
    assert tau(gen_cycle(7), 2).value == 6


def test_tau_lower_certificate_kinds():
    res = tau(gen_cycle(4), 4)
    assert res.value == 14
    assert isinstance(res.lower_certificate, Certificate)
    assert res.lower_certificate.kind == "C4Subgraph"
    res = tau(gen_cycle(7), 2)
    # the search refuted 5 colors in 26 nodes (see the budget test below)
    assert res.lower_certificate == \
        Certificate("Exhaustion", {"colors": 5, "nodes": 26}, 6)


def test_tau_c9_tone5_resolves_at_counting_floor():
    res = tau(gen_cycle(9), 5)
    assert res.value == 17
    assert res.lower_certificate.kind == "C9T5Counting"
    assert verify(gen_cycle(9), res.coloring) == []


def test_witness_always_verifies_and_deterministic():
    r1 = tau(gen_cycle(6), 3)
    r2 = tau(gen_cycle(6), 3)
    assert r1.value == r2.value == 8
    assert r1.coloring.labels == r2.coloring.labels


def test_pinned_node_counts():
    # Search nodes are deterministic; these pin the tree the candidate
    # streams walk, refutations and finds alike.
    assert exact_decide(gen_cycle(7), 3, 8).nodes == 84
    assert exact_decide(gen_cycle(4), 2, 5).nodes == 2
    res = exact_decide(gen_cycle(13), 3, 9)
    assert res.status == "colored" and res.nodes == 23
    res = exact_decide(gen_cycle(9), 5, 16, SearchBudget(max_nodes=2000))
    assert res.status == "timeout" and res.nodes == 2001
    assert tau(gen_cycle(6), 5).nodes == 7702
    assert tau(gen_cycle(7), 2).nodes == 31
    # an edgeless graph searches under the first second-vertex label only
    res = exact_decide(Graph(5, []), 2, 4, SearchBudget(max_nodes=1))
    assert res.status == "timeout" and res.nodes == 2
    res = exact_decide(Graph(3, []), 2, 4)
    assert res.status == "colored" and res.nodes == 1
    # forward checking cuts here: the search without it took 150 nodes to
    # refute k = 16, 362 to refute k = 17 and 527 in all for tau
    g = Graph(6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (1, 5), (2, 4),
                  (3, 4), (3, 5)])
    assert exact_decide(g, 4, 16).nodes == 6
    res = exact_decide(g, 4, 17)
    assert res.status == "infeasible" and res.nodes == 298
    res = tau(g, 4)
    assert res.value == 18 and res.nodes == 319
    # a label that empties a domain leaves the others as it found them
    # (149 nodes without forward checking)
    g = Graph(7, [(0, 3), (0, 5), (0, 6), (1, 3), (2, 3), (2, 5), (3, 4),
                  (3, 5), (3, 6), (4, 5), (5, 6)])
    assert exact_decide(g, 2, 7) == ("infeasible", None, 93)
    # the first two labels already empty the last vertex's domain (4 nodes
    # without forward checking)
    g = Graph(4, [(0, 2), (0, 3), (1, 3), (2, 3)])
    assert exact_decide(g, 4, 11) == ("infeasible", None, 0)


def test_deep_search_leaves_recursion_limit_alone():
    limit = sys.getrecursionlimit()
    assert exact_decide(gen_path(5000), 2, 5).status == "colored"
    assert sys.getrecursionlimit() == limit


@given(graphs(max_n=8, min_n=2), st.integers(1, 5), st.integers(0, 10))
@settings(max_examples=60, deadline=None)
def test_second_vertex_has_at_most_one_branch(g, t, extra):
    # On a graph with an edge the second vertex in search order is adjacent
    # to the first, whose label is (1..t), so canonical introduction leaves
    # only (t+1..2t); on an edgeless graph it has no constraint, and its
    # first candidate is (1..t).  exact_decide fixes the second label to
    # that first candidate.
    k = t + extra
    cons = earlier_lists(_searcher(g, t, k).later)[1]
    first = label_mask(range(1, t + 1))
    seconds = list(label_stream(k, t, [(first, cap) for _, cap in cons], t))
    if g.m == 0:
        assert cons == []
        assert seconds[0][1] == tuple(range(1, t + 1))
        return
    assert cons == [(0, 0)]
    assert len(seconds) <= 1
    if seconds:
        assert seconds[0][1] == tuple(range(t + 1, 2 * t + 1))


def test_budget_timeout():
    res = exact_decide(gen_cycle(9), 5, 16, SearchBudget(max_nodes=2000))
    assert res.status == "timeout"
    out = tau(gen_cycle(9), 4, SearchBudget(max_nodes=50))
    if out.status == "timeout":
        assert out.lower_bound >= 12
    with pytest.raises(ValueError):
        SearchBudget(max_nodes=0)


@pytest.mark.parametrize("wall_limit", [0, -1.0, float("nan"), float("-inf")])
def test_budget_rejects_nonpositive_wall_limit(wall_limit):
    with pytest.raises(ValueError, match="wall_limit"):
        SearchBudget(wall_limit=wall_limit)
    assert SearchBudget(wall_limit=0.5).wall_limit == 0.5


def test_tau_matches_path_formula():
    for n in range(1, 6):
        for t in range(1, 4):
            assert tau(gen_path(n), t).value == path_tau(n, t)


def _both_paths(g, t, k, budget=None):
    """exact_decide compiled, and with the guard at 0, so that every
    candidate comes from label_stream and nothing is forward-checked."""
    compiled = exact_decide(g, t, k, budget)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exact, "_COMPILE_BITS", 0)
        lazy = exact_decide(g, t, k, budget)
    return compiled, lazy


def _labels(res):
    return None if res.coloring is None else res.coloring.labels


def _decision(res):
    return res.status, res.nodes, _labels(res)


@given(graphs(max_n=8), st.integers(1, 5), st.integers(0, 10),
       st.sampled_from([1, 2, 5, 20, 200, 5_000]))
@settings(max_examples=80, deadline=None)
def test_compiled_search_prunes_the_label_stream_tree(g, t, extra, max_nodes):
    # Forward checking cuts only prefixes that cannot extend, so the
    # compiled path walks part of the lazy path's tree in the same order:
    # it decides as the lazy one does, and never needs more nodes.
    compiled, lazy = _both_paths(g, t, t + extra, SearchBudget(max_nodes))
    assert compiled.nodes <= lazy.nodes
    if compiled.status == "timeout":
        assert lazy.status == "timeout"
    if lazy.status != "timeout":
        assert compiled.status == lazy.status
        assert _labels(compiled) == _labels(lazy)


@pytest.mark.parametrize("g, t, ks", [
    (gen_cycle(7), 3, (8, 9)),
    (gen_cycle(6), 5, (14, 15)),
    (gen_path(5), 3, (5, 6, 7)),
    (Graph(6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (1, 5), (2, 4), (3, 4),
               (3, 5)]), 4, (15, 16, 17, 18)),
])
def test_compiled_and_lazy_agree_without_budget(g, t, ks):
    for k in ks:
        compiled, lazy = _both_paths(g, t, k)
        assert compiled.status == lazy.status != "timeout"
        assert _labels(compiled) == _labels(lazy)
        assert compiled.nodes <= lazy.nodes


@given(graphs(max_n=8, min_n=2), st.integers(1, 5), st.integers(0, 10),
       st.randoms(use_true_random=False))
@settings(max_examples=120, deadline=None)
def test_compiled_candidates_equal_label_stream(g, t, extra, rng):
    # A position's compiled candidates, canonical[mx] ANDed with the allowed
    # sets of its constraints to random labels, decoded top bit first, are
    # label_stream's labels under the same caps and reach bound.
    k = t + extra
    s = _searcher(g, t, k)
    pal = s.palette
    assert pal is not None
    masks = [label_mask(rng.sample(range(1, k + 1), t)) for _ in range(g.n)]
    i = rng.randrange(g.n)
    mx = rng.randint(t, k)
    cons = [(masks[j], cap) for j, cap in earlier_lists(s.later)[i]]
    cand = pal.canonical[mx]
    for m, cap in cons:
        cand &= pal.allowed[cap][m]
    compiled = []
    while cand:
        x = cand.bit_length() - 1
        cand ^= 1 << x
        m, label, last = pal.decoded[x]
        compiled.append((m, label, max(last, mx)))
    assert compiled == list(label_stream(k, t, cons, mx))


def test_counted_subtrees_match_the_walk(monkeypatch):
    # The compiled search adds the node count of a sibling's subtree where
    # the two are isomorphic; the walk of every node must decide alike, with
    # the same nodes, under budgets that run out inside a counted subtree.
    jumps = []
    budget = _Searcher._budget

    def spy(self, nodes):
        if nodes > self.max_nodes + 1:      # the walk steps one node at a time
            jumps.append(nodes)
        return budget(self, nodes)

    monkeypatch.setattr(_Searcher, "_budget", spy)
    rng = random.Random(18)
    gs = [gen_cycle(n) for n in range(3, 12)]
    for n in (rng.randint(2, 8) for _ in range(30)):
        gs.append(Graph(n, [e for e in combinations(range(n), 2)
                            if rng.random() < 0.45]))
    cases = 0
    for g in gs:
        for t in range(1, 6):
            for k in range(t, min(g.n * t, 3 * t + 3) + 1):
                for max_nodes in (50, 777, 3_000, 20_000):
                    b = SearchBudget(max_nodes)
                    counted = exact_decide(g, t, k, b)
                    with monkeypatch.context() as mp:
                        mp.setattr(_Searcher, "_dfs_compiled",
                                   walk_dfs_compiled)
                        walked = exact_decide(g, t, k, b)
                    assert _decision(counted) == _decision(walked), \
                        (g.edges(), t, k, max_nodes)
                    cases += 1
    assert cases > 6000 and len(jumps) >= 40


def test_frame_stack_agrees_with_the_walk_at_the_last_node(monkeypatch):
    # Each decision of at most 20 000 nodes, unbudgeted count N, is run by
    # the compiled loop and by the walk at max_nodes N - 1 (one node short:
    # a timeout) and N (just enough); both decide alike.  An infeasible
    # compiled decision pops every frame it pushed: out holds the two fixed
    # labels again.
    compiled = _Searcher._dfs_compiled
    after = []

    def spy(self, out):
        fixed = list(out)
        found = compiled(self, out)
        after.append((found, fixed, list(out)))
        return found

    monkeypatch.setattr(_Searcher, "_dfs_compiled", spy)
    rng = random.Random(18)
    gs = [gen_cycle(n) for n in range(3, 12)]
    for n in (rng.randint(2, 8) for _ in range(30)):
        gs.append(Graph(n, [e for e in combinations(range(n), 2)
                            if rng.random() < 0.45]))
    statuses = set()
    refuted = 0
    for g in gs:
        for t in range(1, 6):
            for k in range(t, min(g.n * t, 3 * t + 3) + 1):
                full = exact_decide(g, t, k, SearchBudget(20_000))
                if full.status == "timeout" or full.nodes < 2:
                    continue
                for max_nodes in (full.nodes - 1, full.nodes):
                    b = SearchBudget(max_nodes)
                    counted = exact_decide(g, t, k, b)
                    with monkeypatch.context() as mp:
                        mp.setattr(_Searcher, "_dfs_compiled",
                                   walk_dfs_compiled)
                        walked = exact_decide(g, t, k, b)
                    assert _decision(counted) == _decision(walked), \
                        (g.edges(), t, k, max_nodes)
                    want = "timeout" if max_nodes < full.nodes else full.status
                    assert counted.status == want
                    statuses.add(counted.status)
                for found, fixed, out in after:
                    if not found:
                        assert out == fixed and len(fixed) == 2
                        refuted += 1
                del after[:]
    assert statuses == {"timeout", "colored", "infeasible"} and refuted > 100


def test_deadline_is_read_when_a_count_jumps_past_2048(monkeypatch):
    # C9/t5/k16 first passes 2048 nodes by adding a counted subtree, from
    # below 2048 to 2049; a fake clock that reads past the deadline from its
    # second read on stops the search there.
    reads = []

    def clock():
        reads.append(None)
        return 0.0 if len(reads) == 1 else 100.0

    monkeypatch.setattr(exact.time, "monotonic", clock)
    res = exact_decide(gen_cycle(9), 5, 16, SearchBudget(wall_limit=1))
    assert (res.status, res.nodes, len(reads)) == ("timeout", 2049, 2)
    # a clock that never passes the deadline lets the same search end
    monkeypatch.setattr(exact.time, "monotonic", lambda: 0.0)
    res = exact_decide(gen_cycle(9), 5, 16, SearchBudget(wall_limit=1))
    assert (res.status, res.nodes) == ("infeasible", 20_762_256)


def test_tau_wall_limit_is_one_deadline(monkeypatch):
    # A fake clock that each decision advances by one second: the limit
    # covers the whole call, as one deadline that every k receives.
    now = [0.0]
    deadlines = []
    decide = exact._decide

    def one_second_decide(g, t, k, max_nodes, deadline, layout):
        deadlines.append(deadline)
        try:
            return decide(g, t, k, max_nodes, deadline, layout)
        finally:
            now[0] += 1.0

    monkeypatch.setattr(exact.time, "monotonic", lambda: now[0])
    monkeypatch.setattr(exact, "_decide", one_second_decide)
    # tau(C7, 2): k = 5 is refuted, k = 6 colors
    res = tau(gen_cycle(7), 2, SearchBudget(wall_limit=10))
    assert (res.status, res.value) == ("resolved", 6)
    assert deadlines == [10.0, 10.0]
    deadlines.clear()
    now[0] = 0.0
    res = tau(gen_cycle(7), 2, SearchBudget(wall_limit=0.5))
    assert (res.status, res.lower_bound) == ("timeout", 6)
    assert deadlines == [0.5]
    # max_nodes still holds per k: 26 nodes refute k = 5, 5 more color k = 6
    now[0] = 0.0
    res = tau(gen_cycle(7), 2, SearchBudget(max_nodes=26, wall_limit=10))
    assert res.status == "resolved" and res.nodes == 31


def test_tau_builds_the_layout_once(monkeypatch):
    calls = []
    build = exact.search_layout
    monkeypatch.setattr(exact, "search_layout",
                        lambda g, t: calls.append(t) or build(g, t))
    res = tau(gen_cycle(7), 2)
    assert res.lower_certificate.parameters["colors"] == 5 and calls == [2]


def test_answers_that_need_no_search_build_no_layout(monkeypatch):
    # No vertex, k < t, one vertex, and 2t > k on a graph with an edge are
    # answered without a layout, which costs O(n) balls on a long path.
    def refuse(g, t):
        raise AssertionError("search layout built")

    monkeypatch.setattr(exact, "search_layout", refuse)
    path = gen_path(100)
    assert exact_decide(Graph(0, []), 3, 0) == ("colored", Coloring(3, 0), 0)
    assert exact_decide(path, 3, 2) == ("infeasible", None, 0)
    assert exact_decide(Graph(1, []), 3, 4) == \
        ("colored", Coloring(3, 4, {0: (1, 2, 3)}), 1)
    assert exact_decide(path, 3, 5) == ("infeasible", None, 0)
    # an edgeless graph takes (1..t) twice, so 2t > k alone settles nothing
    with pytest.raises(AssertionError, match="layout built"):
        exact_decide(Graph(2, []), 3, 5)


def test_decide_takes_no_layout():
    # A layout is taken on trust (one of C7 would decide P7, where tau_3 is
    # 8, wrongly), so only tau hands one over.
    with pytest.raises(TypeError):
        exact_decide(gen_path(7), 3, 8, layout=search_layout(gen_cycle(7), 3))
    assert exact_decide(gen_path(7), 3, 8).status == "colored"


@pytest.mark.parametrize("t", [0, -3])
def test_tone_below_one_is_refused(t):
    for g in (Graph(0, []), gen_cycle(5)):
        with pytest.raises(ValueError, match="need t >= 1"):
            exact_decide(g, t, 5)
        with pytest.raises(ValueError, match="need t >= 1"):
            tau(g, t)


@pytest.mark.parametrize("entry, n, args", [
    ("tau", 5, (True,)), ("tau", 5, (2.0,)), ("tau", 5, ("2",)),
    ("tau", 0, (True,)), ("exact_decide", 5, (2, 6.0)),
    ("exact_decide", 5, (2.0, 6)), ("exact_decide", 5, (2, "6")),
    ("exact_decide", 1, (1, True)), ("exact_decide", 0, (True, 3)),
])
def test_non_int_arguments_are_refused(entry, n, args, monkeypatch):
    # A bool, float or str t or k is refused before any table or search:
    # True would run as tone 1 or palette 1, and 2.0 fail inside the search.
    g = gen_cycle(n) if n > 2 else Graph(n, [])
    monkeypatch.setattr(exact, "search_layout", None)
    monkeypatch.setattr(exact, "best_lower_bound", None)
    with pytest.raises(ValueError, match="need t >= 1"):
        getattr(exact, entry)(g, *args)


@given(graphs(), st.integers(1, 5))
@settings(max_examples=150, deadline=None)
def test_search_layout_matches_the_constraint_pairs(g, t):
    # The one-ball-per-position layout against the one built from
    # constraint_pairs: the same order and equal later lists.
    assert search_layout(g, t) == pairs_layout(g, t)


def test_search_above_the_guard_walks_lazily():
    # K5 at tone 8 needs 40 pairwise disjoint colors; compiling C(40, 8)
    # labels would take ~3e9 bits, the lazy walk three nodes.
    k5 = Graph(5, list(combinations(range(5), 2)))
    assert _searcher(k5, 8, 40).palette is None
    res = exact_decide(k5, 8, 40, SearchBudget(wall_limit=10))
    assert res.status == "colored" and res.nodes == 3
    assert verify(k5, res.coloring) == []


def test_color_sets_build_no_row_that_cannot_reach_t():
    # At k close to t, the rows of sizes that cannot reach t colors
    # any more are not built: their middle rows would hold C(k, k/2) bits
    # per color, 72.6 MiB at (24, 22), for a table of 276 labels.
    tracemalloc.start()
    try:
        has = exact._color_sets(24, 22)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    labels = list(combinations(range(1, 25), 22))
    top = len(labels) - 1           # label x sits at bit top - x
    assert has[1:] == [sum(1 << top - x for x, label in enumerate(labels)
                           if c in label) for c in range(1, 25)]


def _masks(k, t):
    """Each label mask of the t-subsets of [1..k], mapped to its label."""
    labels = combinations(range(1, k + 1), t)
    return {label_mask(label): label for label in labels}


def test_palette_tables_match_their_definitions():
    for k, t in ((1, 1), (6, 1), (7, 3), (9, 4), (12, 5)):
        exact._palette.cache_clear()
        exact_decide(gen_cycle(7), t, k, SearchBudget(max_nodes=200))
        pal = exact._palette(k, t)
        labels = list(combinations(range(1, k + 1), t))
        top = len(labels) - 1       # label x sits at bit top - x
        assert pal.full == (1 << len(labels)) - 1
        for x, label in enumerate(labels):
            assert pal.decoded[top - x] == \
                (label_mask(label), label, label[-1])
            for c in range(1, k + 1):
                assert (pal.has[c] >> top - x & 1) == (c in label)
        for mx in range(k + 1):
            # canonical[mx]: the colors above mx are mx+1..mx+j
            above = [{c for c in label if c > mx} for label in labels]
            want = sum(1 << top - x for x, a in enumerate(above)
                       if a == set(range(mx + 1, mx + 1 + len(a))))
            assert pal.canonical[mx] == want
        # allowed[cap][mask]: the labels sharing at most cap colors with
        # the mask's label, for the entries the decision filled and for
        # every other label mask (the (1, 1) decision is refuted at 0 nodes
        # before it fills any)
        masks = _masks(k, t)
        assert len(pal.allowed) == t
        for cap, memo in enumerate(pal.allowed):
            for mask in masks:
                memo[mask]          # a _Memo fills a missing entry
            for mask, value in memo.items():
                colors = set(masks[mask])
                assert value == sum(1 << top - x
                                    for x, label in enumerate(labels)
                                    if len(colors.intersection(label)) <= cap)
    # two large tone-5 palettes, (24, 5) the largest compiled, at seeded
    # label indices
    rng = random.Random(29)
    for k, t in ((20, 5), (24, 5)):
        pal = exact._palette(k, t)
        labels = list(combinations(range(1, k + 1), t))
        top = len(labels) - 1
        for x in [0, top, *rng.sample(range(len(labels)), 200)]:
            label = labels[x]
            assert pal.decoded[top - x] == \
                (label_mask(label), label, label[-1])


def _mixed_decisions():
    """Budgeted decisions over 45 (k, t) pairs, more than _palette keeps,
    each pair on two graphs, in a seeded shuffle."""
    gs = [gen_cycle(5), gen_cycle(6), gen_cycle(7), gen_cycle(9),
          gen_path(5), gen_star(3),
          Graph(6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (1, 5), (2, 4),
                    (3, 4), (3, 5)])]
    rng = random.Random(14)
    out = [(rng.choice(gs), t, k) for t in range(1, 6)
           for k in range(2 * t, 2 * t + 9) for _ in range(2)]
    rng.shuffle(out)
    return out


def _outcome(g, t, k):
    return _decision(exact_decide(g, t, k, SearchBudget(max_nodes=60)))


def test_shared_palettes_change_no_decision():
    # Each decision cold, on an emptied cache, then all of them in a new
    # order on a warm one that hits, misses and evicts.
    decisions = _mixed_decisions()
    cold = {}
    for d in decisions:
        exact._palette.cache_clear()
        cold[d] = _outcome(*d)
    exact._palette.cache_clear()
    random.Random(41).shuffle(decisions)
    warm = {d: _outcome(*d) for d in decisions}
    info = exact._palette.cache_info()
    assert info.hits and info.currsize == exact._PALETTES
    assert warm == cold
    assert {status for status, _, _ in cold.values()} == {
        "colored", "infeasible", "timeout"}


def test_compile_guard_holds_on_a_warm_palette(monkeypatch):
    g = Graph(6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (1, 5), (2, 4),
                  (3, 4), (3, 5)])
    assert exact_decide(g, 4, 17) == ("infeasible", None, 298)
    monkeypatch.setattr(exact, "_COMPILE_BITS", 0)
    assert _searcher(g, 4, 17).palette is None
    assert exact_decide(g, 4, 17) == ("infeasible", None, 362)


def _kept_bits(pal):
    """The bits of allowed sets pal keeps, each checked against a fresh
    _allowed and each keyed by a mask of pal's palette."""
    k, t = len(pal.has) - 1, len(pal.allowed)
    masks = _masks(k, t)
    for cap, memo in enumerate(pal.allowed):
        for mask, value in memo.items():
            assert mask in masks
            assert value == exact._allowed(pal.has, pal.full, cap, mask)
    return sum(map(len, pal.allowed)) * comb(k, t)


def test_palette_memos_are_bounded(monkeypatch):
    # The cache holds at most 32 palettes.  A palette keeps the allowed
    # sets its decisions filled, for caps 0..t-1 and keyed by masks, while
    # they hold at most _MEMO_BITS bits; a decision that leaves more,
    # ending normally or timing out, drops them all.
    assert exact._palette.cache_info().maxsize == exact._PALETTES == 32
    assert exact._MEMO_BITS == 1 << 20
    for g, t, k, budget, status in (
            (gen_cycle(7), 3, 8, None, "infeasible"),
            (gen_cycle(9), 5, 16, SearchBudget(max_nodes=50), "timeout")):
        exact._palette.cache_clear()
        assert exact_decide(g, t, k, budget).status == status
        pal = exact._palette(k, t)
        assert len(pal.allowed) == t
        bits = _kept_bits(pal)
        assert 0 < bits <= exact._MEMO_BITS
        for cap, kept in ((bits, bits), (bits - 1, 0)):
            monkeypatch.setattr(exact, "_MEMO_BITS", cap)
            exact._palette.cache_clear()
            assert exact_decide(g, t, k, budget).status == status
            assert _kept_bits(exact._palette(k, t)) == kept
        monkeypatch.undo()
    exact._palette.cache_clear()


def test_allowed_sets_are_filled_once_per_key(monkeypatch):
    # Budgeted decisions over 30 palettes, fewer than _palette keeps, on a
    # cleared cache: each (k, t, cap, mask) is filled once, whatever graph
    # or decision asks for it, and a second run fills nothing.
    real = exact._allowed
    fills = []

    def counted(has, full, cap, mask):
        fills.append((len(has) - 1, full.bit_length(), cap, mask))
        return real(has, full, cap, mask)

    monkeypatch.setattr(exact, "_allowed", counted)
    decisions = [d for d in _mixed_decisions() if d[2] <= 2 * d[1] + 5]
    assert len({(k, t) for _, t, k in decisions}) == 30 <= exact._PALETTES
    exact._palette.cache_clear()
    try:
        first = [_outcome(*d) for d in decisions]
        assert len(fills) == len(set(fills)) > 0
        count = len(fills)
        assert [_outcome(*d) for d in decisions] == first
        assert len(fills) == count
    finally:
        exact._palette.cache_clear()
