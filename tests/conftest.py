"""Shared strategies and brute-force oracles for the suite."""

from __future__ import annotations

import math
import random
from collections import deque, namedtuple
from fractions import Fraction
from itertools import combinations, filterfalse, islice
from math import isqrt

from hypothesis import strategies as st

from ttone import blocks, coloring, exact
from ttone.coloring import (StructuralError, Violation, check_structure,
                            label_mask, label_stream)
from ttone.constructions import ClassPreconditionError
from ttone.graphs import (PLANAR_HIGH, Graph, LeastLive, _min_cut, _run,
                          components, degree_crossings, mad,
                          outerplanar_edge_at, planar_reducible_at)


@st.composite
def graphs(draw, max_n=8, min_n=1):
    """Random simple graph with edge density drawn uniformly."""
    n = draw(st.integers(min_n, max_n))
    pairs = list(combinations(range(n), 2))
    p = draw(st.floats(0.0, 1.0))
    picks = draw(st.lists(st.floats(0.0, 1.0), min_size=len(pairs),
                          max_size=len(pairs)))
    edges = [e for e, r in zip(pairs, picks) if r < p]
    return Graph(n, edges)


@st.composite
def threaded_graphs(draw):
    """A random simple graph on up to 6 vertices, often dense, plus threads
    of 1..6 new vertices between its vertices, loops (2..6 vertices) and
    parallel threads included; then pendant trees hung anywhere and pure
    cycles beside it, with the ids shuffled."""
    base = draw(graphs(max_n=6))
    end = st.integers(0, base.n - 1)
    edges, n = base.edges(), base.n
    for u, z, s in draw(st.lists(st.tuples(end, end, st.integers(1, 6)),
                                 max_size=8)):
        s = max(s, 2) if u == z else s
        chain = [u, *range(n, n + s), z]
        n += s
        edges += zip(chain, chain[1:])
    for _ in range(draw(st.integers(0, 4))):
        edges.append((draw(st.integers(0, n - 1)), n))
        n += 1
    for length in draw(st.lists(st.integers(3, 7), max_size=2)):
        edges += [(n + i, n + (i + 1) % length) for i in range(length)]
        n += length
    ids = draw(st.permutations(range(n)))
    return Graph(n, [(ids[u], ids[v]) for u, v in edges])


def induced(g, keep) -> Graph:
    """The subgraph of g (a Graph or a Reduction) induced on the vertices in
    keep, rebuilt with ids compacted in id order."""
    keep = sorted(keep)
    index = {v: i for i, v in enumerate(keep)}
    return Graph(len(keep), [(i, index[w]) for i, v in enumerate(keep)
                             for w in g.adj[v] if w in index and v < w])


def random_steps(red, rnd, count: int) -> list:
    """Apply up to count random deletions and contractions to a Reduction;
    returns the adjacency and live vertices seen before each step."""
    seen = []
    for _ in range(count):
        live = red.vertices()
        if not live:
            break
        seen.append(([set(a) for a in red.adj], live))
        edges = [(u, w) for u in live for w in sorted(red.adj[u])]
        if edges and rnd.random() < 0.6:
            red.contract(*rnd.choice(edges))
        else:
            red.delete(*rnd.sample(live, min(len(live), rnd.randint(1, 2))))
    return seen


def brute_mad(g: Graph) -> tuple:
    """(2|E(S)|, |S|) for the largest vertex set S of maximum density,
    by exhaustion over nonempty subsets; (0, 1) when g has no edges."""
    if g.m == 0:
        return 0, 1
    best, witness = Fraction(0), None
    edges = g.edges()
    for r in range(1, g.n + 1):
        for sub in combinations(range(g.n), r):
            s = set(sub)
            inside = sum(1 for u, v in edges if u in s and v in s)
            if Fraction(inside, r) >= best:
                best, witness = Fraction(inside, r), (2 * inside, r)
    return witness


def edge_node_density_exceeds(g: Graph, threshold: Fraction):
    """graphs._density_exceeds on the network it used before Goldberg's:
    source -> edge node (capacity q), edge node -> each of its two vertex
    nodes (unbounded), vertex node -> sink (capacity p), for threshold
    p/q >= 0.  A cut costs q*m - max_S (q|E(S)| - p|S|), so the strict test
    is max_flow < q*m; the witness is the vertex nodes on the residual
    source side, or None."""
    p, q = threshold.numerator, threshold.denominator
    m, n = g.m, g.n
    src, snk = 0, 1 + m + n
    big = q * m + p * n + 1
    arcs = [(1 + m + v, snk, p, 0) for v in range(n)]
    for i, (u, v) in enumerate(g.edges()):
        arcs += [(src, 1 + i, q, 0), (1 + i, 1 + m + u, big, 0),
                 (1 + i, 1 + m + v, big, 0)]
    flow, side = _min_cut(m + n + 2, arcs, src, snk)
    if flow >= q * m:
        return None
    return {v for v in range(n) if 1 + m + v in side}


def vertex_network_density_exceeds(g: Graph, p: int, q: int):
    """graphs._density_exceeds on Goldberg's network over every vertex, as
    it ran before the network was folded onto the 2-core's branch vertices:
    n + 2 nodes, one arc of capacity q each way per edge, s -> v of capacity
    max(0, q*d(v) - 2p) and v -> sink of capacity max(0, 2p - q*d(v)), so
    the strict test is flow < the sum of the s -> v capacities and the
    witness is the residual source side without s.  Below threshold 1 the
    components denser than p/q, without flow."""
    n = g.n
    d = math.gcd(p, q)
    p, q = p // d, q // d
    if p < q:
        side = set()
        for root, reach in components(g):
            comp = [root, *reach]
            if q * sum(len(g.adj[u]) for u in comp) > 2 * p * len(comp):
                side.update(comp)
        return side or None
    src, snk = n, n + 1
    excess = [q * len(a) - 2 * p for a in g.adj]
    arcs = [(src, v, x, 0) if x > 0 else (v, snk, -x, 0)
            for v, x in enumerate(excess) if x]
    arcs += [(u, v, q, q) for u, v in g.edges()]
    flow, side = _min_cut(n + 2, arcs, src, snk)
    if flow >= sum(x for x in excess if x > 0):
        return None
    side.discard(src)
    return side


def augmenting_path_cut(size: int, arcs, s: int, t: int):
    """graphs._min_cut by Edmonds and Karp: augment along a shortest path
    of the residual network, found by BFS, until t is out of reach; return
    the flow and the nodes s reaches in the residual network.  Capacities
    live in a dict per node, so parallel arcs merge and an arc's reverse
    is read by its endpoints."""
    res = [{} for _ in range(size)]
    for u, v, c, back in arcs:
        res[u][v] = res[u].get(v, 0) + c
        res[v][u] = res[v].get(u, 0) + back
    flow = 0
    while True:
        parent = {s: None}
        queue = deque([s])
        while queue and t not in parent:
            u = queue.popleft()
            for v, c in res[u].items():
                if c and v not in parent:
                    parent[v] = u
                    queue.append(v)
        if t not in parent:
            return flow, set(parent)
        path = []
        v = t
        while parent[v] is not None:
            path.append((parent[v], v))
            v = parent[v]
        pushed = min(res[u][v] for u, v in path)
        for u, v in path:
            res[u][v] -= pushed
            res[v][u] += pushed
        flow += pushed


def brute_densest_witness(g: Graph, threshold: Fraction):
    """The smallest vertex set S maximizing |E(S)| - threshold*|S|, by
    exhaustion over subsets, when that maximum is positive; else None.
    The maximizers are closed under intersection, so the smallest one is
    the intersection of them all."""
    edges = g.edges()
    best, witness = Fraction(0), None
    for r in range(1, g.n + 1):
        for sub in combinations(range(g.n), r):
            s = set(sub)
            gain = sum(1 for u, v in edges if u in s and v in s) - threshold * r
            if gain > best:
                best, witness = gain, s
            elif gain == best and witness is not None:
                witness &= s
    return witness


def stream_at(g, partial, v):
    """The labels assignable to v by their definition: one label_stream cap
    d - 1 for each labeled vertex at distance d <= t, read from the suite's
    own bfs_distances, so it shares no ball walk with greedy extension."""
    if v in partial.labels:
        raise StructuralError(f"vertex {v} already assigned")
    dist = bfs_distances(g, v)
    cons = [(label_mask(lab), dist[u] - 1)
            for u, lab in partial.labels.items() if dist[u] <= partial.t]
    return (label for _, label, _ in label_stream(partial.k, partial.t, cons))


def ring_walk_labels(g, partial, v):
    """The labels assignable to v at tone 2 as greedy extension listed them
    before it took the least one from two masks: a ring walk over a seen
    set, near from the neighbors' label masks, banned from the labels met
    one ring further out, and the 2-combinations of the colors outside near
    less the banned ones."""
    labels, k, adj = partial.labels, partial.k, g.adj
    if v in labels:
        raise StructuralError(f"vertex {v} already assigned")
    near = 0
    seen = {v}
    ring = []
    for w in adj[v]:
        seen.add(w)
        ring.append(w)
        if w in labels:
            near |= label_mask(labels[w])
    banned = {labels[w] for u in ring for w in adj[u]
              if w not in seen and w in labels}
    free = [c for c in range(1, k + 1) if not near >> (c - 1) & 1]
    return filterfalse(banned.__contains__, combinations(free, 2))


def ring_walk_extend(g, partial, v):
    """coloring.greedy_extend at tone 2 on ring_walk_labels."""
    label = next(ring_walk_labels(g, partial, v), None)
    if label is not None:
        partial.assign(v, label)
    return label


def sample_small_graphs(target=500, seed=20250810, max_n=7, reps=25):
    """Deterministic sample of distinct small graphs, one per degree
    sequence first, then filled with further distinct graphs."""
    rng = random.Random(seed)
    by_seq = {}
    extras = []
    seen = set()
    for n in range(1, max_n + 1):
        pairs = list(combinations(range(n), 2))
        for m in range(len(pairs) + 1):
            for _ in range(reps):
                rng.shuffle(pairs)
                edges = tuple(sorted(pairs[:m]))
                if (n, edges) in seen:
                    continue
                seen.add((n, edges))
                g = Graph(n, edges)
                seq = (n, tuple(sorted(g.degree(v) for v in range(n))))
                if seq not in by_seq:
                    by_seq[seq] = g
                else:
                    extras.append(g)
    out = list(by_seq.values())
    for g in extras:
        if len(out) >= target:
            break
        out.append(g)
    return out


def bfs_distances(g: Graph, v: int, radius=math.inf) -> list:
    """Exact shortest-path distances from v in g (a Graph or a Reduction)
    up to radius; math.inf for unreachable vertices and farther ones."""
    dist = [math.inf] * len(g.adj)
    dist[v] = 0
    queue = deque([v])
    while queue:
        u = queue.popleft()
        if dist[u] >= radius:
            break
        du = dist[u] + 1
        for w in g.adj[u]:
            if dist[w] > du:
                dist[w] = du
                queue.append(w)
    return dist


def degeneracy_order(g: Graph) -> tuple:
    """(order, degeneracy): repeatedly strip a minimum-degree vertex and
    output the reverse removal order, so each vertex has at most
    `degeneracy` earlier neighbors."""
    deg = [g.degree(v) for v in range(g.n)]
    alive = set(range(g.n))
    removal = []
    degeneracy = 0
    while alive:
        v = min(alive, key=lambda u: (deg[u], u))
        degeneracy = max(degeneracy, deg[v])
        removal.append(v)
        alive.discard(v)
        for u in g.adj[v]:
            if u in alive:
                deg[u] -= 1
    return removal[::-1], degeneracy


def greedy_2tone_palette(delta: int) -> int:
    """ceil((2 + sqrt 2) * delta), exactly: greedy always succeeds here."""
    sq = isqrt(2 * delta * delta)
    return 2 * delta + (sq if sq * sq == 2 * delta * delta else sq + 1)


def least_k(pred, lo: int = 0) -> int:
    """The smallest k >= lo with pred(k), for pred monotone in k, as the
    palette roots were found before bounds._least_pairs: gallop up from lo
    by doubling steps, then bisect the last step."""
    k = lo
    step = 1
    while not pred(k):
        k += step
        step *= 2
    hi, lo2 = k, max(lo, k - step // 2)
    while lo2 < hi:
        mid = (lo2 + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo2 = mid + 1
    return hi


def mad_at_least_12_5(g: Graph) -> bool:
    """The class check random_subdivided made before graphs.mad_below_12_5:
    the exact mad by Dinkelbach, compared as a Fraction."""
    return mad(g).fraction >= Fraction(12, 5)


def degenerate_palette(degeneracy: int, t: int, delta: int) -> int:
    """k*t + ceil(k*t^2 * delta^(1 - 1/t)) for a k-degenerate graph, exactly:
    the ceiling of the t-th root of (k*t^2)^t * delta^(t-1)."""
    k = degeneracy
    power = (k * t * t) ** t * delta ** (t - 1)
    root = round(power ** (1.0 / t))
    while root ** t > power:
        root -= 1
    while root ** t < power:
        root += 1
    return k * t + root


def pairwise_contains_c4(g: Graph) -> bool:
    """4-cycle detection by brute force: two vertices with two common
    neighbors, by ANDing every pair of adjacency bit rows."""
    rows = [0] * g.n
    for u in range(g.n):
        for v in g.adj[u]:
            rows[u] |= 1 << v
    for u in range(g.n):
        ru = rows[u]
        for v in range(u + 1, g.n):
            if (ru & rows[v]).bit_count() >= 2:
                return True
    return False


def rescan_search_order(g: Graph) -> list:
    """exact.search_order by its definition: each component is a BFS from
    the unseen vertex of maximum degree (ties by smallest id), found by a
    scan over all vertices."""
    seen = [False] * g.n
    order = []
    while len(order) < g.n:
        start = max((v for v in range(g.n) if not seen[v]),
                    key=lambda v: (g.degree(v), -v))
        seen[start] = True
        queue = deque([start])
        while queue:
            u = queue.popleft()
            order.append(u)
            for w in g.adj[u]:
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
    return order


def ball_verify_partial(g: Graph, coloring) -> list:
    """coloring.verify_partial as one bfs_distances ball per assigned
    vertex: every pair u < v at distance d <= t, by u then v, that shares at
    least d colors (counted on masks over the ranks of the colors in use)."""
    check_structure(g, coloring)
    t = coloring.t
    rank = {c: i for i, c in enumerate(sorted(coloring.colors_used()), 1)}
    masks = {v: label_mask(rank[c] for c in lab)
             for v, lab in coloring.labels.items()}
    bad = []
    for u in sorted(masks):
        mu = masks[u]
        for v, d in enumerate(bfs_distances(g, u, t)):
            if v > u and v in masks and d <= t:
                shared = (mu & masks[v]).bit_count()
                if shared >= d:
                    bad.append(Violation(u, v, d, shared))
    return bad


def scan_effective_diameter(g: Graph, cap: int) -> int:
    """graphs.effective_diameter by its definition: a BFS capped at cap from
    every vertex, the largest eccentricity found, cap once it is reached."""
    best = 0
    for v in range(g.n):
        reach = bfs_distances(g, v, cap)
        best = max(best, max(d for d in reach if d <= cap))
        if best >= cap:
            return cap
    return best


def find_planar_reducible(g) -> tuple:
    """graphs.planar_reducible_at for the least vertex that has one, or None:
    the scan color_planar made at every step before its picks were indexed."""
    return next(filter(None, (planar_reducible_at(g, v) for v in g.vertices())),
                None)


def find_outerplanar_edge(g) -> tuple:
    """graphs.outerplanar_edge_at for the least vertex that has one,
    isolated vertices included, or None: color_outerplanar's pick, by a
    scan of every live vertex."""
    return next(filter(None, (outerplanar_edge_at(g, x) for x in g.vertices())),
                None)


def hub_heap_planar_picks(red):
    """color_planar's steps as it took them while a LeastLive heap, not a
    set kept from touched, answered whether a live vertex of degree >= 13
    is left."""
    hub = LeastLive(red, lambda v: len(red.adj[v]) >= 13)
    low = LeastLive(red, lambda v: planar_reducible_at(red, v),
                    degree_crossings(red, PLANAR_HIGH))
    while hub() is not None:
        v = low()
        if v is None:
            raise ClassPreconditionError("input not planar: no reducible vertex")
        yield [v], low.found[1], None


def isolated_first_pick(red) -> tuple:
    """The step color_outerplanar took before outerplanar_edge_at accepted
    isolated vertices: delete the least isolated vertex, else contract
    what find_outerplanar_edge finds; None when there is neither."""
    iso = next((v for v in red.vertices() if not red.adj[v]), None)
    if iso is not None:
        return [iso], None, None
    found = find_outerplanar_edge(red)
    return None if found is None else ([found[0]], found[1], None)


class ThreadConfig(namedtuple("ThreadConfig", "kind internal endpoints")):
    """A thread found by find_thread_config: internal lists its vertices in
    path order; endpoints[0] is adjacent to internal[0] and endpoints[1] to
    internal[-1]."""

    __slots__ = ()


def find_thread_config(g):
    """The reducible thread color_sparse removes, by one scan of the whole
    graph, or None: the scan it made at every thread step before its picks
    were indexed.

    Requires minimum degree 2.  Preference order is 4-threads, 3-threads
    whose far end has degree <= 5, then 2-threads with end degrees <= 3 and
    <= 5, ties broken by the smallest internal vertex tuple; 4- and
    3-threads lie outside 2-regular components.  So each kind is one scan
    of the degree-2 vertices x in id order and of their neighbors y in
    sorted order, and the first window x, y, ... that passes is the answer.
    The vertices of a 2-regular component are recorded the first time the
    4- or 3-thread scan meets the component.
    """
    vs = g.vertices()
    if any(len(g.adj[v]) < 2 for v in vs):
        raise ValueError("find_thread_config requires minimum degree 2")
    twos = [v for v in vs if len(g.adj[v]) == 2]
    cyclic = set()
    for kind, width in (("FourThread", 4), ("ThreeThread", 3),
                        ("TwoThread", 2)):
        for x in twos:
            if width > 2 and x in cyclic:
                continue
            for y in sorted(g.adj[x]):
                walk = list(islice(_run(g.adj, x, y), width))
                if len(walk) < width:
                    continue
                start = next(u for u in g.adj[x] if u != y)
                d0, d1 = len(g.adj[start]), len(g.adj[walk[-1]])
                if kind == "ThreeThread" and d1 > 5 or \
                        kind == "TwoThread" and (d0 > 3 or d1 > 5):
                    continue
                if width > 2:
                    run = list(_run(g.adj, x, y))
                    if run[-1] == x:
                        cyclic.update(run)
                        break
                return ThreadConfig(kind, (x, *walk[:-1]), (start, walk[-1]))
    return None


def count_verifies(monkeypatch) -> list:
    """Validate the block tables, then record every later call of
    coloring.verify_partial: returns the list that gets one vertex count per
    call."""
    blocks.ensure_validated()
    real = coloring.verify_partial
    calls = []

    def counted(g, col):
        calls.append(g.n)
        return real(g, col)

    monkeypatch.setattr(coloring, "verify_partial", counted)
    return calls


def constraint_pairs(g: Graph, t: int) -> list:
    """All unordered pairs (u, v, d) with u < v and 1 <= d = d(u,v) <= t."""
    pairs = []
    for u in range(g.n):
        for v, d in enumerate(bfs_distances(g, u, t)):
            if v > u and d <= t:
                pairs.append((u, v, d))
    return pairs


def pairs_layout(g: Graph, t: int) -> tuple:
    """exact.search_layout built from constraint_pairs: (order, later),
    where each pair (u, v, d) goes to the earlier of its two positions as
    (later position, d - 1), and each later list is sorted by position."""
    order = exact.search_order(g)
    pos = {v: i for i, v in enumerate(order)}
    later = [[] for _ in range(g.n)]
    for u, v, d in constraint_pairs(g, t):
        i, j = sorted((pos[u], pos[v]))
        later[i].append((j, d - 1))
    for lst in later:
        lst.sort()
    return order, later


def earlier_lists(later: list) -> list:
    """The backward lists of a layout's later table: earlier[i] holds the
    (j, cap) pairs of every j < i with (i, cap) in later[j], j increasing."""
    earlier = [[] for _ in later]
    for j, lst in enumerate(later):
        for i, cap in lst:
            earlier[i].append((j, cap))
    return earlier


def walk_dfs_compiled(self, out: list) -> bool:
    """exact._Searcher._dfs_compiled as it was before it counted the
    subtrees of symmetric siblings: it walks every node.  Forward
    checking over one stack of candidate bitsets, with tops (the mx of
    each open position) beside it.  later[i] holds (j, allowed[cap]) per
    constraint from i to a later j, all of them in dom[i+1:span[i]];
    saved[i] is that slice as it was before i's label narrowed it.
    Every domain starts as full, and each label of out ANDs its allowed
    sets into the positions along its later list.  Candidates are drawn
    top bit first, lex order in the palette's layout.  It starts at
    position len(out) with the reach bound out[-1][-1].  Bound to a
    _Searcher, it decides as exact_decide did then."""
    n, start, mx = len(self.later), len(out), out[-1][-1]
    later = [[(j, self.palette.allowed[cap]) for j, cap in lst]
             for lst in self.later]
    span = [max((j for j, _ in lst), default=i) + 1
            for i, lst in enumerate(later)]
    dom = [self.palette.full] * n
    for p, label in enumerate(out):
        m = label_mask(label)
        for j, allowed in later[p]:
            dom[j] &= allowed[m]
    if not all(dom[start:]):
        return False
    canonical, decoded = self.palette.canonical, self.palette.decoded
    saved = [None] * n
    cands = [canonical[mx] & dom[start]]
    tops = [mx]
    nodes = self.nodes
    check = nodes + 1
    i = start
    while True:
        cand = cands[-1]
        if not cand:
            cands.pop()
            tops.pop()
            if not cands:
                self.nodes = nodes
                return False
            out.pop()
            i -= 1
            dom[i + 1:span[i]] = saved[i]
            continue
        x = cand.bit_length() - 1
        cands[-1] = cand ^ (1 << x)
        nodes += 1
        if nodes >= check:
            check = self._budget(nodes)
        m, label, last = decoded[x]
        hi = span[i]
        saved[i] = dom[i + 1:hi]
        for j, allowed in later[i]:
            d = dom[j] & allowed[m]
            if not d:
                dom[i + 1:hi] = saved[i]
                break
            dom[j] = d
        else:
            out.append(label)
            i += 1
            if i == n:
                self.nodes = nodes
                return True
            top = tops[-1]
            tops.append(last if last > top else top)
            cands.append(canonical[tops[-1]] & dom[i])
