import json
import os
import subprocess
import sys
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (ball_verify_partial, degeneracy_order,
                      degenerate_palette, greedy_2tone_palette, graphs,
                      induced, random_steps, ring_walk_extend, stream_at)
from ttone import coloring, constructions
from ttone.coloring import (Coloring, ColoringError, StructuralError,
                            Violation, available_labels, greedy_color,
                            greedy_extend, label_mask, label_stream, verify,
                            verify_partial)
from ttone.graphs import (Graph, Reduction, distances_within, gen_cycle,
                          gen_grid, gen_path, gen_star)
from ttone.instances import random_apollonian, random_subdivided
import random


def test_verify_adjacent_overlap():
    col = Coloring(2, 3, {0: (1, 2), 1: (1, 3)})
    bad = verify(gen_path(2), col)
    assert len(bad) == 1
    assert bad[0].shared == 1 and bad[0].distance == 1


def test_verify_c4_ok():
    col = Coloring(2, 6, {0: (1, 2), 1: (3, 4), 2: (1, 5), 3: (3, 6)})
    assert verify(gen_cycle(4), col) == []


def test_verify_published_c13_block_coloring():
    seq = [(5, 7, 10), (2, 4, 9), (1, 7, 8), (4, 5, 6), (1, 2, 3),
           (4, 9, 10), (1, 7, 8), (4, 5, 6), (1, 2, 3), (4, 9, 10),
           (1, 7, 8), (4, 5, 6), (1, 2, 3)]
    col = Coloring(3, 10, dict(enumerate(seq)))
    assert verify(gen_cycle(13), col) == []


def test_verify_structural_errors():
    with pytest.raises(StructuralError):
        verify(gen_path(2), Coloring(2, 3, {0: (1, 4), 1: (2, 3)}))
    with pytest.raises(StructuralError):
        verify(gen_path(2), Coloring(2, 3, {0: (1,), 1: (2, 3)}))
    with pytest.raises(StructuralError):
        verify(gen_path(2), Coloring(2, 3, {0: (1, 2)}))   # not total
    assert verify_partial(gen_path(2), Coloring(2, 3, {0: (1, 2)})) == []


def test_verify_palette_smaller_than_tone():
    # k < t is well-formed when nothing is labeled (the empty graph's
    # witness), and a structural error as soon as a label needs t colors
    assert verify(Graph(0, []), Coloring(3, 0)) == []
    assert verify_partial(gen_path(2), Coloring(3, 2)) == []
    for t, k, label in [(3, 2, (1, 2, 3)), (2, 0, (1, 2)), (2, 1, (1, 1))]:
        with pytest.raises(StructuralError):
            verify(Graph(1, []), Coloring(t, k, {0: label}))
    for t, k in [(0, 3), (-1, 3), (2, -1)]:
        with pytest.raises(StructuralError):
            verify(Graph(0, []), Coloring(t, k))


@pytest.mark.parametrize("t, k, labels, message", [
    (2.0, 5, {0: (1, 2), 1: (3, 4)}, "need integers"),
    (True, 5, {0: (1,), 1: (2,)}, "need integers"),
    (2, 5.5, {0: (1, 2), 1: (3, 4)}, "need integers"),
    (2, 5, {0: 5, 1: (3, 4)}, "vertex 0: label 5 is not a 2-set"),
    (2, 5, {0: (1, 2), 1: None}, "vertex 1: label None is not a 2-set")])
def test_verify_takes_no_coercion_from_the_api(t, k, labels, message):
    # what Coloring.from_json refuses, the API's Coloring gets no further
    # with: a float or bool t or k, or a label that is no collection
    with pytest.raises(StructuralError, match=message):
        verify(Graph(2, [(0, 1)]), Coloring(t, k, labels))


@pytest.mark.parametrize("label", [(5, 1), (3, 0), (1.5, 2), (True, 2),
                                   (2, True), (2.0, 3), ("1", "2")])
def test_verify_rejects_colors_outside_the_palette(label):
    # a label of the API's Coloring need not be sorted, so every color is
    # checked; and a bool or a float is no color, even where it equals one
    with pytest.raises(StructuralError, match=r"outside \[1,4\]"):
        verify(Graph(1, []), Coloring(2, 4, {0: label}))
    with pytest.raises(StructuralError, match=r"vertex 2: label .* outside"):
        verify_partial(gen_path(3), Coloring(2, 4, {0: (1, 2), 2: label}))


def test_verify_names_the_first_bad_label():
    # the checks run vertex by vertex, in label order, each in the order
    # range, size, palette, so a coloring with several faults always gets
    # the message of its first one
    g = gen_path(3)
    for labels, message in [
            ({0: (1, 9), 1: (1,)}, r"vertex 0: label \(1, 9\) outside \[1,4\]"),
            ({1: (1,), 0: (1, 9)}, r"vertex 1: label \(1,\) is not a 2-set"),
            ({0: (3, 4), 1: (2, 2), 2: (0, 1)}, "vertex 1: .* not a 2-set"),
            ({0: (0, 1), 5: (1, 2)}, r"vertex 0: label \(0, 1\) outside"),
            ({5: (1, 2), 0: (0, 1)}, "label on unknown vertex 5"),
            ({-1: (1, 2)}, "label on unknown vertex -1"),
            ({0: (1, 2), True: (3, 4)}, "label on unknown vertex True"),
            ({0.0: (1, 2)}, "label on unknown vertex 0.0")]:
        with pytest.raises(StructuralError, match=message):
            verify_partial(g, Coloring(2, 4, labels))


@pytest.mark.parametrize("labels", [
    {0: (1, 2), 1: (3, 4), 2: (1, 3), 3: (2, 4)},
    {3: (2, 4), 0: (1, 2, 3), 1: (3, 4), 2: (1, 3)}])
def test_verify_refuses_a_label_on_vertex_id_n(labels):
    # id 3 on the 3-vertex path, one past the last vertex: with every label
    # well-formed (check_structure's fast path), and with a bad label listed
    # after it (its slow path, which checks the id first)
    with pytest.raises(StructuralError,
                       match=r"^label on unknown vertex 3$"):
        verify(gen_path(3), Coloring(2, 4, labels))


def test_verify_memory_independent_of_color_values():
    # colors come from untrusted JSON; masks one bit per color value would
    # need 2^value bits (keep the value small enough for that to finish)
    big = 10**8
    small = {0: (1, 2), 1: (2, 3), 2: (1, 3)}
    shifted = {v: tuple(c + big for c in lab) for v, lab in small.items()}
    tracemalloc.start()
    try:
        bad = verify(gen_path(3), Coloring(2, big + 3, shifted))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert bad == verify(gen_path(3), Coloring(2, 3, small)) == [
        Violation(0, 1, 1, 1), Violation(1, 2, 1, 1)]


@given(graphs(max_n=10), st.integers(1, 5), st.integers(0, 6),
       st.sampled_from([0.0, 0.5, 0.9, 1.0]), st.booleans(),
       st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_verify_partial_matches_ball_oracle(g, t, spare, p, force, rnd):
    # small palettes make violations common; the offset and stride spread
    # the colors so that the rank masks differ from the value masks
    k = t + spare
    offset, stride = rnd.choice([(0, 1), (0, 3), (10**6, 7)])
    col = Coloring(t, offset + stride * k)
    for v in range(g.n):
        if rnd.random() < p:
            col.assign(v, [offset + stride * c
                           for c in rnd.sample(range(1, k + 1), t)])
    if force:
        # copy a neighbor's label onto a vertex: a distance-1 violation
        edges = g.edges()
        if edges:
            u, w = rnd.choice(edges)
            col.labels[u] = col.labels.setdefault(w, tuple(
                offset + stride * c for c in range(1, t + 1)))
    got = verify_partial(g, col)
    assert got == ball_verify_partial(g, col)
    assert all(type(bad) is Violation for bad in got)
    if force and g.m:
        assert got


def _wheel(rim: int) -> Graph:
    """Hub 0 joined to every vertex of the cycle 1..rim."""
    return Graph(rim + 1, [(0, i) for i in range(1, rim + 1)] +
                 [(i, i % rim + 1) for i in range(1, rim + 1)])


def _double_star(m: int) -> Graph:
    """K_{2,m}: vertices 0 and 1 have the m common neighbors 2..m+1."""
    return Graph(m + 2, [(h, i) for h in (0, 1) for i in range(2, m + 2)])


@given(st.one_of(graphs(max_n=10), st.integers(25, 35).map(gen_star),
                 st.integers(25, 35).map(_wheel),
                 st.integers(2, 6).map(_double_star)),
       st.integers(1, 2), st.integers(0, 3), st.sampled_from([0.3, 0.8, 1.0]),
       st.sampled_from(["twins", "twins-middle-unassigned", "adjacent", "none"]),
       st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_low_tone_verify_matches_ball_oracle(g, t, spare, p, case, rnd):
    # verify_partial takes no ball walk at t <= 2.  Each case plants twins
    # (equal labels): two neighbors a, b of a middle vertex x, at distance 2
    # when not adjacent (on a wheel or K_{2,m} with several common
    # neighbors), with x unassigned or not, or the two ends of an edge.
    k = t + spare
    offset, stride = rnd.choice([(0, 1), (10**6, 7)])

    def label():
        return tuple(offset + stride * c
                     for c in sorted(rnd.sample(range(1, k + 1), t)))

    col = Coloring(t, offset + stride * k,
                   {v: label() for v in range(g.n) if rnd.random() < p})
    middles = [x for x in range(g.n) if g.degree(x) >= 2]
    if case.startswith("twins") and middles:
        x = rnd.choice(middles)
        a, b = rnd.sample(g.adj[x], 2)
        col.labels[a] = col.labels[b] = col.labels.get(a) or label()
        if case == "twins-middle-unassigned":
            col.labels.pop(x, None)
    elif case == "adjacent" and g.m:
        a, b = rnd.choice(g.edges())
        col.labels[a] = col.labels[b] = label()
    else:
        a = b = None
    got = verify_partial(g, col)
    assert got == ball_verify_partial(g, col)
    assert len({(bad.u, bad.v) for bad in got}) == len(got)    # each pair once
    if a is not None and t == 2:
        u, v = sorted((a, b))
        d = 1 if v in g.adj[u] else 2
        assert Violation(u, v, d, 2) in got


def test_low_tone_verify_examples():
    c3 = Coloring(2, 6, {0: (1, 2), 1: (1, 2), 2: (3, 4), 3: (5, 6)})
    # K_{2,2}: the twins 0 and 1 have two common neighbors, reported once
    assert verify(_double_star(2), c3) == [Violation(0, 1, 2, 2)]
    # the middle vertex of a path unassigned: still distance 2
    assert verify_partial(gen_path(3), Coloring(2, 4, {0: (1, 2), 2: (1, 2)})) \
        == [Violation(0, 2, 2, 2)]
    # adjacent twins in a triangle: distance 1 only
    tri = Graph(3, [(0, 1), (1, 2), (0, 2)])
    assert verify(tri, Coloring(2, 6, {0: (1, 2), 1: (1, 2), 2: (3, 4)})) == \
        [Violation(0, 1, 1, 2)]
    # a star's leaves may share one color at tone 2, and anything at tone 1
    assert verify(gen_star(3), Coloring(2, 5, {0: (1, 2), 1: (3, 4),
                                               2: (3, 5), 3: (4, 5)})) == []
    assert verify(gen_star(3), Coloring(1, 2, {0: (1,), 1: (2,), 2: (2,),
                                               3: (2,)})) == []


def test_available_labels_examples():
    part = Coloring(2, 5, {1: (1, 2), 2: (3, 4)})
    assert available_labels(gen_path(3), part, 0) == [(3, 5), (4, 5)]
    lone = Coloring(2, 4)
    assert len(available_labels(Graph(1, []), lone, 0)) == 6
    blocked = Coloring(2, 2, {1: (1, 2)})
    assert available_labels(gen_path(2), blocked, 0) == []


@given(graphs(max_n=7), st.integers(1, 3), st.integers(1, 8),
       st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_available_labels_matches_bruteforce(g, t, k, rnd):
    if k < t or g.n == 0:
        return
    partial = Coloring(t, k)
    for v in rnd.sample(range(g.n), g.n // 2):
        lab = tuple(sorted(rnd.sample(range(1, k + 1), t)))
        partial.assign(v, lab)
    target = next(v for v in range(g.n) if v not in partial.labels)
    got = available_labels(g, partial, target)
    want = []
    for combo in combinations(range(1, k + 1), t):
        trial = Coloring(t, k, dict(partial.labels))
        trial.assign(target, combo)
        clashes = [bad for bad in verify_partial(g, trial)
                   if target in (bad.u, bad.v)]
        if not clashes:
            want.append(combo)
    assert got == want

    # The same constraints through label_stream; then with random masks and
    # caps added (cap 0 included, and masks may hold colors above k, which
    # no label has), with and without the search's reach bound: colors
    # above mx may only be mx+1, mx+2, ...
    cons = [(label_mask(partial.labels[u]), d - 1)
            for u, d in distances_within(g, target, t).items()
            if u in partial.labels]
    assert list(label_stream(k, t, cons)) == [(label_mask(c), c, k) for c in want]
    cons += [(rnd.getrandbits(k + 2), rnd.randint(0, t))
             for _ in range(rnd.randint(0, 6))]
    want = [c for c in want
            if all((label_mask(c) & m).bit_count() <= cap for m, cap in cons)]
    assert list(label_stream(k, t, cons)) == [(label_mask(c), c, k) for c in want]
    mx = rnd.randint(0, k)
    bounded = []
    for combo in want:
        new = [c for c in combo if c > mx]
        if new == list(range(mx + 1, mx + 1 + len(new))):
            bounded.append((label_mask(combo), combo, mx + len(new)))
    assert list(label_stream(k, t, cons, mx)) == bounded


@given(graphs(max_n=12), st.integers(1, 5), st.integers(0, 14),
       st.booleans(), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_greedy_extend_matches_label_stream(g, t, extra, reduce, rnd):
    # On the Graph, or on a Reduction after random deletions, contractions
    # and undos, with a partial coloring mixing greedy labels and random
    # t-sets, so the ball holds labels at every distance up to t.
    k = t + extra
    if reduce:
        g = Reduction(g)
        random_steps(g, rnd, rnd.randint(0, g.live))
        for _ in range(rnd.randint(0, len(g.log))):
            g.undo()
    live = list(g.vertices())
    if not live:
        return
    partial = Coloring(t, k)
    for v in rnd.sample(live, rnd.randint(0, len(live) - 1)):
        if rnd.random() < 0.5:
            partial.assign(v, rnd.sample(range(1, k + 1), t))
        else:
            greedy_extend(g, partial, v)
    # _labels_at is a generator: both callers draw from it at once, so an
    # assigned vertex raises through each; a label is stored as yielded,
    # with no sort, so it must already be the sorted tuple.
    for v in live:
        if v in partial.labels:
            with pytest.raises(StructuralError):
                greedy_extend(g, partial, v)
            with pytest.raises(StructuralError):
                available_labels(g, partial, v)
            continue
        assert available_labels(g, partial, v) == list(stream_at(g, partial, v))
        want = next(stream_at(g, partial, v), None)
        before = dict(partial.labels)
        assert greedy_extend(g, partial, v) == want
        if want is None:
            assert partial.labels == before
        else:
            assert partial.labels[v] == want


@st.composite
def tone2_cases(draw):
    """A graph whose distance-2 rings hold many labels (a star, a wheel,
    K_{2,m} or a random graph), as a Graph or as a Reduction after random
    steps and undos, with a palette of 4 to 2 * max_degree + 4 colors, so
    the first free pairs are often banned."""
    kind = draw(st.sampled_from(["graph", "star", "wheel", "k2m"]))
    m = draw(st.integers(1, 10))
    if kind == "graph":
        g = draw(graphs(max_n=12))
    elif kind == "star":
        g = gen_star(m)
    elif kind == "wheel":
        m += 2
        g = Graph(m + 1, [(0, i) for i in range(1, m + 1)]
                  + [(i, i % m + 1) for i in range(1, m + 1)])
    else:
        g = Graph(m + 2, [(h, i) for h in (0, 1) for i in range(2, m + 2)])
    k = draw(st.integers(4, 2 * g.max_degree() + 4))
    rnd = draw(st.randoms(use_true_random=False))
    if draw(st.booleans()):
        g = Reduction(g)
        random_steps(g, rnd, rnd.randint(0, g.live))
        for _ in range(rnd.randint(0, len(g.log))):
            g.undo()
    return g, k, rnd


@given(tone2_cases())
@settings(max_examples=200, deadline=None)
def test_tone2_greedy_extend_matches_label_stream(case):
    # Labels come greedily or as random 2-sets, in a random order, so a
    # vertex meets many labels at distance 2; each unassigned vertex is
    # then extended in turn, against the stream over its whole ball.
    g, k, rnd = case
    live = list(g.vertices())
    if not live:
        return
    partial = Coloring(2, k)
    rnd.shuffle(live)
    for v in live[:rnd.randint(0, len(live) - 1)]:
        if rnd.random() < 0.3:
            partial.assign(v, rnd.sample(range(1, k + 1), 2))
        else:
            greedy_extend(g, partial, v)
    for v in live:
        if v in partial.labels:
            continue
        assert available_labels(g, partial, v) == list(stream_at(g, partial, v))
        want = next(stream_at(g, partial, v), None)
        before = dict(partial.labels)
        assert greedy_extend(g, partial, v) == want
        if want is None:
            assert partial.labels == before


def test_tone2_least_label_skips_banned_pairs():
    # v = 0 meets (1, 2), (1, 3) and (1, 4) at distance 2, each through its
    # own neighbor: at k = 5 the least label is (1, 5); at k = 4 color 1
    # has no partner left, so the label starts at 2.
    g = Graph(7, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 6)])
    for k, want in ((5, (1, 5)), (4, (2, 3))):
        partial = Coloring(2, k, {4: (1, 2), 5: (1, 3), 6: (1, 4)})
        assert available_labels(g, partial, 0)[0] == want
        assert greedy_extend(g, partial, 0) == want
        assert partial.labels[0] == want


def test_tone2_no_label_left_keeps_the_partial():
    # the neighbor holds 1 and 2, and the one pair of the free colors 3
    # and 4 is held at distance 2
    g = gen_path(3)
    partial = Coloring(2, 4, {1: (1, 2), 2: (3, 4)})
    assert available_labels(g, partial, 0) == []
    assert greedy_extend(g, partial, 0) is None
    assert partial.labels == {1: (1, 2), 2: (3, 4)}


def test_tone2_malformed_neighbor_label_reads_as_before():
    # a neighbor label of three colors, one above k, bans all three; an
    # unsorted label at distance 2 equals no candidate
    g = gen_path(4)
    for labels in ({1: (1, 2, 9), 2: (3, 4)}, {1: (1, 2, 3), 2: (4, 5)},
                   {1: (1, 2), 2: (4, 3)}):
        partial = Coloring(2, 6, dict(labels))
        oracle = Coloring(2, 6, dict(labels))
        assert greedy_extend(g, partial, 0) == ring_walk_extend(g, oracle, 0)
        assert partial == oracle
        assert greedy_extend(g, partial, 3) == ring_walk_extend(g, oracle, 3)
        assert partial == oracle
    assert partial.labels[0] == (3, 4)


def test_tone2_lifts_stream_no_labels(monkeypatch):
    # Tone 2 has no constraint between cap 0 and the label at distance t,
    # so greedy extension and the 2-thread recolor list the free colors'
    # pairs; tone 3 paths have distance-2 caps, which take label_stream.
    streams = recolors = 0
    real_stream, real_recolor = coloring.label_stream, constructions._finish_two_thread

    def counted_stream(*args):
        nonlocal streams
        streams += 1
        return real_stream(*args)

    def counted_recolor(*args):
        nonlocal recolors
        recolors += 1
        return real_recolor(*args)

    monkeypatch.setattr(coloring, "label_stream", counted_stream)
    monkeypatch.setattr(constructions, "_finish_two_thread", counted_recolor)
    for seed in range(3):
        constructions.color_planar(random_apollonian(random.Random(seed), 200))
        constructions.color_sparse(random_subdivided(random.Random(seed), 30, 8))
    assert streams == 0 and recolors > 0
    constructions.color_path(20, 3)
    assert streams > 0


def test_greedy_extend():
    part = Coloring(2, 5, {1: (1, 2), 2: (3, 4)})
    assert greedy_extend(gen_path(3), part, 0) == (3, 5)
    assert part.labels[0] == (3, 5)
    lone = Coloring(2, 4)
    assert greedy_extend(Graph(1, []), lone, 0) == (1, 2)
    blocked = Coloring(2, 2, {1: (1, 2)})
    assert greedy_extend(gen_path(2), blocked, 0) is None
    assert 0 not in blocked.labels


def test_greedy_color_reports_stuck_vertex():
    with pytest.raises(ColoringError) as exc:
        greedy_color(gen_path(3), 2, 4)
    assert exc.value.vertex == 2


@pytest.mark.parametrize("order", [[0], [0, 0], [1, 2], [0, 1, 2]])
def test_greedy_color_refuses_an_order_that_is_no_permutation(order):
    with pytest.raises(ValueError, match="order must be a permutation"):
        greedy_color(gen_path(2), 2, 5, order)


@pytest.mark.parametrize("k", [5.0, True])
def test_greedy_color_refuses_a_k_that_is_no_int(k):
    # 5.0 failed as a bare TypeError, and True ran as k = 1
    with pytest.raises(ValueError, match=f"k must be an int, got {k!r}"):
        greedy_color(gen_path(2), 2, k)


def test_greedy_color_k1():
    col = greedy_color(Graph(1, []), 4, 4)
    assert col.labels[0] == (1, 2, 3, 4)


@given(graphs(max_n=9), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_greedy_2tone_never_fails_at_constant_palette(g, rnd):
    # palette ceil((2+sqrt2)*max_degree) always extends, any order
    if g.n == 0:
        return
    k = max(2, greedy_2tone_palette(g.max_degree()))
    order = list(range(g.n))
    rnd.shuffle(order)
    col = greedy_color(g, 2, k, order)
    assert verify(g, col) == []


@given(st.integers(0, 100_000), st.integers(2, 3))
@settings(max_examples=30, deadline=None)
def test_greedy_degenerate_palette_never_fails(seed, t):
    rng = random.Random(seed)
    n = rng.randint(2, 12)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < 0.35]
    g = Graph(n, edges)
    if g.max_degree() > 6:
        return
    order, degen = degeneracy_order(g)
    if degen < 2:
        return
    k = degenerate_palette(degen, t, g.max_degree())
    col = greedy_color(g, t, k, order)
    assert verify(g, col) == []


def test_degeneracy_values():
    assert degeneracy_order(gen_path(5))[1] == 1
    assert degeneracy_order(gen_cycle(9))[1] == 2
    assert degeneracy_order(gen_grid(3, 3))[1] == 2
    order, _ = degeneracy_order(gen_grid(3, 3))
    assert sorted(order) == list(range(9))


@given(graphs(max_n=7), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_valid_colorings_restrict_to_induced_subgraphs(g, rnd):
    # vertex deletion never shrinks distances, so the restriction of a
    # valid coloring to an induced subgraph stays valid
    if g.n < 2:
        return
    k = max(2, greedy_2tone_palette(g.max_degree()))
    col = greedy_color(g, 2, k)
    keep = sorted(rnd.sample(range(g.n), max(1, g.n - 2)))
    sub = induced(g, keep)
    restricted = Coloring(2, k, {i: col.labels[v] for i, v in enumerate(keep)})
    assert verify(sub, restricted) == []


def test_coloring_json_round_trip():
    col = Coloring(3, 10, {0: (1, 2, 3), 5: (4, 5, 6)})
    text = col.to_json()
    back = Coloring.from_json(text)
    assert back == col
    payload = json.loads(text)
    assert payload["labels"]["0"] == [1, 2, 3]
    with pytest.raises(StructuralError):
        Coloring.from_json("{}")


@pytest.mark.parametrize("t, k", [(2, "true"), (2, "5.0"), ("false", 5),
                                  ("2.0", 5), ("true", "false")])
def test_from_json_refuses_a_bool_or_float_t_or_k(t, k):
    # one of t and k a JSON integer and the other not is refused as well
    text = f'{{"t":{t},"k":{k},"labels":{{}}}}'
    with pytest.raises(StructuralError, match="must be integers"):
        Coloring.from_json(text)


@pytest.mark.parametrize("call", [
    "greedy_color(g, 0, 3)", "greedy_color(g, -1, 3)",
    "greedy_color(g, 1.5, 3)", "greedy_extend(g, Coloring(0, 3), 0)",
    "available_labels(g, Coloring(0, 4), 0)", "next(label_stream(4, 0, []))",
    "greedy_color(g, 2.0, 5)", "greedy_extend(g, Coloring(2.0, 4), 0)",
    "greedy_color(Graph(0, []), 2.0, 5)", "greedy_color(Graph(0, []), 0, 5)"],
    ids=["color-0", "color-minus-1", "color-1.5", "extend-0", "available-0",
         "stream-0", "color-2.0", "extend-2.0", "color-empty-2.0",
         "color-empty-0"])
def test_a_tone_below_1_or_no_int_is_refused(call):
    # label_stream found no label of such a tone, and no end either: each
    # call runs in a child with a timeout, so that a loop fails the test.
    # With no vertex no label is drawn, so greedy_color checks t itself.
    src = os.path.dirname(os.path.dirname(os.path.abspath(coloring.__file__)))
    script = ("from ttone.coloring import (Coloring, available_labels, "
              "greedy_color, greedy_extend, label_stream)\n"
              "from ttone.graphs import Graph\n"
              "g = Graph(2, [(0, 1)])\n"
              f"try:\n    {call}\nexcept ValueError as exc:\n    print(exc)\n")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         timeout=30, env=dict(os.environ, PYTHONPATH=src))
    assert (out.returncode, out.stderr) == (0, b"")
    assert out.stdout.decode().startswith("tone must be an int >= 1, got ")
