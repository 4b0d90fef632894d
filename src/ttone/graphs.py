"""Simple undirected graphs: builders, generators, distances, a reduction
with vertex deletion and edge contraction undone step by step, exact maximum
average degree, and the reducible-configuration rules LeastLive indexes."""

from __future__ import annotations

from collections import namedtuple
from heapq import heapify, heappop, heappush
from itertools import compress, islice
from math import gcd


class GraphError(ValueError):
    """Malformed graph input: bad vertex id, self-loop, unreadable file."""


class Graph:
    """Immutable simple graph on vertex ids 0..n-1 with sorted adjacency."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, edges):
        # ids are ints, not bools: True would index as 1 but print as "True"
        if type(n) is not int or n < 0:
            raise GraphError(f"vertex count must be a nonnegative int, got {n!r}")
        nbrs = [set() for _ in range(n)]
        for edge in edges:
            try:
                u, v = edge
            except (TypeError, ValueError):
                raise GraphError(
                    f"edge {edge!r} is not a pair of vertex ids") from None
            if type(u) is not int or type(v) is not int:
                raise GraphError(f"edge ({u!r},{v!r}) has a non-int endpoint")
            if not (0 <= u < n) or not (0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            nbrs[u].add(v)
            nbrs[v].add(u)
        self.n = n
        self.adj = tuple(tuple(sorted(s)) for s in nbrs)

    @property
    def m(self) -> int:
        return sum(len(a) for a in self.adj) // 2

    def vertices(self) -> range:
        return range(self.n)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def max_degree(self) -> int:
        return max((len(a) for a in self.adj), default=0)

    def edges(self) -> list:
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"

    def __eq__(self, other):
        return isinstance(other, Graph) and self.adj == other.adj

    def __hash__(self):
        return hash(self.adj)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def gen_path(n: int) -> Graph:
    if type(n) is not int or n < 1:
        raise GraphError("path needs n >= 1")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def gen_cycle(n: int) -> Graph:
    if type(n) is not int or n < 3:
        raise GraphError("cycle needs n >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def gen_grid(m: int, n: int) -> Graph:
    """Grid with rows 1..m, columns 1..n; (i,j) has id (i-1)*n + (j-1)."""
    if type(m) is not int or type(n) is not int or m < 1 or n < 1:
        raise GraphError("grid needs m, n >= 1")
    edges = []
    for i in range(m):
        for j in range(n):
            v = i * n + j
            if j + 1 < n:
                edges.append((v, v + 1))
            if i + 1 < m:
                edges.append((v, v + n))
    return Graph(m * n, edges)


def gen_star(d: int) -> Graph:
    """Star with center 0 and d leaves."""
    if type(d) is not int or d < 1:
        raise GraphError("star needs d >= 1")
    return Graph(d + 1, [(0, i) for i in range(1, d + 1)])


def gen_fat_triangle(t: int) -> Graph:
    """Three hubs (ids 0,1,2), each hub pair joined through t degree-2 vertices.

    The result has 3t+3 vertices, 6t edges, and maximum degree 2t.
    """
    if type(t) is not int or t < 1:
        raise GraphError("fat triangle needs t >= 1")
    edges = []
    mid = 3
    for a, b in ((0, 1), (1, 2), (2, 0)):
        for _ in range(t):
            edges.append((a, mid))
            edges.append((mid, b))
            mid += 1
    return Graph(3 * t + 3, edges)


# ---------------------------------------------------------------------------
# Distances
# ---------------------------------------------------------------------------

def distances_within(g: Graph, v: int, radius: int) -> dict:
    """Vertices at distance <= radius from v (v itself excluded), with
    distances; the keys come in breadth-first discovery order."""
    dist = {v: 0}
    frontier = [v]
    d = 0
    while frontier and d < radius:
        d += 1
        nxt = []
        for u in frontier:
            for w in g.adj[u]:
                if w not in dist:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    del dist[v]
    return dist


def components(g: Graph):
    """Yield (root, reach) for each component of g: root is its vertex of
    largest degree (ties by smallest id), reach is distances_within(g,
    root, g.n), and the roots come in that order."""
    seen, adj = [False] * g.n, g.adj
    for root in sorted(range(g.n), key=lambda v: -len(adj[v])):
        if not seen[root]:
            reach = distances_within(g, root, g.n)
            seen[root] = True
            for v in reach:
                seen[v] = True
            yield root, reach


def effective_diameter(g: Graph, cap: int) -> int:
    """max over vertices of min(eccentricity, cap), ignoring unreachable pairs.

    iFUB (Crescenzi et al. 2013) per component: the BFS from its root (see
    components), then capped BFSs from its vertices in reverse breadth-first
    order, farthest first, until one reaches cap or best >= 2i at a vertex
    of level i (it and the vertices left have eccentricity at most
    max(2i, best))."""
    best = 0
    for _, reach in components(g):
        ecc = max(reach.values(), default=0)
        if ecc >= cap:
            return cap
        best = max(best, ecc)
        for v in reversed(reach):
            if best >= 2 * reach[v]:
                break
            best = max(best, max(distances_within(g, v, cap).values()))
            if best >= cap:
                return cap
    return best


# ---------------------------------------------------------------------------
# Degree-2 runs and cores
# ---------------------------------------------------------------------------

def _run(adj, x: int, y: int):
    """The vertices met walking from x through its neighbor y along
    degree-2 vertices, up to the first one of another degree or x again:
    the one walk along degree-2 vertices.  adj is a Graph's or Reduction's
    adjacency (sorted tuples or sets) or a core from _core."""
    prev, cur = x, y
    while True:
        yield cur
        if cur == x or len(adj[cur]) != 2:
            return
        a, b = adj[cur]
        prev, cur = cur, b if a == prev else a


def cycle_order(g: Graph):
    """The vertices of g in cycle order, from 0 toward its lesser neighbor,
    when g is connected and 2-regular; else None."""
    adj = g.adj
    if g.n < 3 or any(len(a) != 2 for a in adj):
        return None
    order = [0, *_run(adj, 0, adj[0][0])]
    order.pop()                         # the run closes back at 0
    return order if len(order) == g.n else None


def path_order(g: Graph):
    """The vertices of g in path order, from the lesser of its two ends,
    when g is a path (one vertex included); else None.  The run from the
    least vertex of degree 1 meets every vertex only when g is a path."""
    adj = g.adj
    if g.n == 1:
        return [0]
    end = next((v for v, a in enumerate(adj) if len(a) == 1), None)
    if end is None:
        return None
    order = [end, *_run(adj, end, adj[end][0])]
    return order if len(order) == g.n else None


def _core(adj, k: int) -> list:
    """The k-core's adjacency: for each vertex its neighbors inside the
    largest subgraph of minimum degree >= k, in adj order, () if outside;
    for k >= 1 a vertex is inside exactly when its tuple is nonempty.  Each
    vertex is peeled once, when its degree falls below k: the one core peel."""
    deg = [len(a) for a in adj]
    inside = [d >= k for d in deg]
    peel = [v for v, up in enumerate(inside) if not up]
    while peel:
        for u in adj[peel.pop()]:
            if inside[u]:
                deg[u] -= 1
                if deg[u] < k:
                    inside[u] = False
                    peel.append(u)
    return [tuple(u for u in a if inside[u]) if up else ()
            for a, up in zip(adj, inside)]


# ---------------------------------------------------------------------------
# Deletion and contraction with undo
# ---------------------------------------------------------------------------

class Reduction:
    """A graph shrunk in place by vertex deletion and edge contraction, on
    the vertex ids of the Graph it starts from, with each step undoable.

    A contraction merges into the lower id, so the live ids keep the order
    a Graph rebuilt with compacted ids would give them.  A search that reads
    a graph only through vertices() and adj, and takes neighbors in order
    only by min() or sorted() (adj holds sets here, sorted tuples on a
    Graph), therefore finds the same vertices here as on that rebuild.

    touched is append-only: every step and undo appends the ids whose
    neighbor sets it changed, so LeastLive can catch up from where it last
    read.  Each removed or restored vertex is logged with its neighbors:
    a contraction changes no neighbor set beyond those of the vertex it
    removes and of that vertex's neighbors.
    """

    __slots__ = ("adj", "alive", "live", "log", "touched")

    def __init__(self, g: Graph):
        self.adj = [set(a) for a in g.adj]
        self.alive = [True] * g.n
        self.live = g.n
        # one entry per step: (removed (vertex, neighbor set) pairs,
        # merge target, neighbors the merge newly joined to it)
        self.log = []
        self.touched = []

    def vertices(self) -> list:
        return list(compress(range(len(self.alive)), self.alive))

    def _remove(self, v: int) -> set:
        nbrs = self.adj[v]
        for u in nbrs:
            self.adj[u].discard(v)
        self.adj[v] = set()
        self.alive[v] = False
        self.live -= 1
        self.touched.append(v)
        self.touched.extend(nbrs)
        return nbrs

    def delete(self, *vs) -> None:
        """Delete the given live vertices, as one step."""
        self.log.append(([(v, self._remove(v)) for v in vs], None, ()))

    def contract(self, v: int, w: int) -> None:
        """Contract edge vw into the lower of its two ids, as one step.
        Parallel edges collapse (the graph stays simple)."""
        if w not in self.adj[v]:
            raise GraphError(f"({v},{w}) is not an edge")
        keep, drop = min(v, w), max(v, w)
        nbrs = self._remove(drop)
        added = [u for u in nbrs if u != keep and u not in self.adj[keep]]
        for u in added:
            self.adj[u].add(keep)
        self.adj[keep].update(added)
        self.log.append(([(drop, nbrs)], keep, added))

    def undo(self) -> None:
        """Restore the graph as it was before the last step."""
        removed, keep, added = self.log.pop()
        for u in added:
            self.adj[u].discard(keep)
            self.adj[keep].discard(u)
        for v, nbrs in reversed(removed):
            self.adj[v] = nbrs
            for u in nbrs:
                self.adj[u].add(v)
            self.alive[v] = True
            self.touched.append(v)
            self.touched.extend(nbrs)
        self.live += len(removed)


class LeastLive:
    """The least live id of a Reduction that passes test, kept up to date
    from the Reduction's touched list.

    A min-heap holds every live id that may pass, with lazy deletion: a call
    first pushes each live id u touched since the last call and the ids
    feed(u) names, then pops until the top is alive and passes, and returns
    it (None when the heap runs dry).  Every live id that passes is in the
    heap, so the answer is a scan's in id order, if test(v) reads only v's
    neighbor set or feed(u) names every id whose test can turn true when
    u's neighbor set changes: degree_crossings and thread_runs do so.
    Each id is queued at most once: queued[v] is set exactly while v is in
    the heap, and a push of a queued id is skipped, since the id will be
    tested when it comes to the top anyway.
    found keeps what test returned for the id last returned, so a rule that
    returns its configuration is run once per pick.
    """

    __slots__ = ("red", "test", "feed", "heap", "queued", "read", "found")

    def __init__(self, red: Reduction, test, feed=None):
        self.red, self.test, self.feed = red, test, feed
        self.heap = [v for v, up in enumerate(red.alive) if up]
        heapify(self.heap)
        self.queued = bytearray(red.alive)
        self.read = len(red.touched)
        self.found = None

    def __call__(self):
        heap, test, feed, queued = self.heap, self.test, self.feed, self.queued
        alive, touched = self.red.alive, self.red.touched
        for u in set(touched[self.read:]):
            if alive[u]:
                if not queued[u]:
                    queued[u] = 1
                    heappush(heap, u)
                if feed is not None:
                    for w in feed(u):
                        if not queued[w]:
                            queued[w] = 1
                            heappush(heap, w)
        self.read = len(touched)
        while heap:
            v = heap[0]
            if alive[v]:
                found = test(v)
                if found:
                    self.found = found
                    return v
            heappop(heap)
            queued[v] = 0
        return None


def degree_crossings(red: Reduction, near: int):
    """A LeastLive feed for a test that reads v's neighbor set and, of each
    neighbor, only whether its degree is >= near: the neighbors of u when
    u's degree has crossed near since u was last fed."""
    big = [len(a) >= near for a in red.adj]

    def feed(u):
        if big[u] == (len(red.adj[u]) >= near):
            return ()
        big[u] = not big[u]
        return red.adj[u]
    return feed


# ---------------------------------------------------------------------------
# Maximum average degree, exactly
# ---------------------------------------------------------------------------

class Density(namedtuple("Density", "numerator denominator")):
    """Exact density 2|E(H)|/|V(H)| of a witness subgraph H."""

    __slots__ = ()

    @property
    def fraction(self):
        from fractions import Fraction      # here, so import ttone skips it
        return Fraction(self.numerator, self.denominator)


def _min_cut(size: int, arcs, s: int, t: int):
    """Maximum flow from s to t and the source side of the smallest minimum
    cut, as (flow, side).  arcs: (u, v, c, back) for an arc u -> v of
    capacity c whose reverse arc, index ^ 1 in the arc arrays, has capacity
    back; integer capacities, exact as Python ints.

    Dinic: a BFS ring by ring up to t's ring gives the level graph, then a
    blocking flow saturates it, until t is out of reach.  That last BFS
    runs until its ring is empty, so the nodes it levels are those s
    reaches in the residual network: the side returned."""
    head = [[] for _ in range(size)]
    to, cap = [], []
    for u, v, c, back in arcs:
        head[u].append(len(to))
        head[v].append(len(to) + 1)
        to += (v, u)
        cap += (c, back)
    flow = 0
    while True:
        level = [-1] * size
        level[s] = 0
        ring, d = [s], 0
        while ring and level[t] < 0:
            d += 1
            nxt = []
            for u in ring:
                for e in head[u]:
                    if cap[e] and level[to[e]] < 0:
                        level[to[e]] = d
                        nxt.append(to[e])
            ring = nxt
        if level[t] < 0:
            return flow, {v for v, lv in enumerate(level) if lv >= 0}
        flow += _blocking_flow(head, to, cap, s, t, level)


def _blocking_flow(head, to, cap, s, t, level) -> int:
    """Saturate the level graph by a DFS on an explicit path: advance
    along arcs one level up, retreat past dead ends (moving the tail's
    arc pointer on), and after each push resume from the tail of the
    first arc it saturated.  No recursion, so paths may be long."""
    it = [0] * len(head)
    path = []
    total = 0
    u = s
    while True:
        if u == t:
            pushed = min(cap[e] for e in path)
            total += pushed
            for e in path:
                cap[e] -= pushed
                cap[e ^ 1] += pushed
            j = next(j for j, e in enumerate(path) if not cap[e])
            u = to[path[j] ^ 1]
            del path[j:]
            continue
        arcs, i, up = head[u], it[u], level[u] + 1
        end = len(arcs)
        while i < end and not (cap[arcs[i]] and level[to[arcs[i]]] == up):
            i += 1
        it[u] = i
        if i < end:
            path.append(arcs[i])
            u = to[arcs[i]]
        elif path:
            u = to[path.pop() ^ 1]
            it[u] += 1
        else:
            return total


def _density_exceeds(g: Graph, p: int, q: int):
    """Does some nonempty subgraph H satisfy |E(H)|/|V(H)| > p/q?

    The threshold is two ints, p >= 0 and q >= 1, reduced here by gcd, so
    the capacities are those of the reduced fraction.
    Returns a witness vertex set, the smallest maximizer of
    q|E(S)| - p|S| when that maximum is positive, or None when the answer
    is no.  mad's witnesses rest on that set.

    From threshold 1 on (p >= q) the smallest maximizer S lies on the
    2-core's branch vertices (degree >= 3 there) and on whole threads, the
    maximal paths of degree-2 vertices between two of them:
    - a vertex of degree <= 1 in S adds at most q - p <= 0, so S has none,
      and lies in the 2-core;
    - so S holds a thread's s vertices all or none, and all only with both
      of its ends u and z (u = z for a loop), when they add
      w = q(s+1) - ps; S holds them exactly when w > 0, and, since a
      2-regular component of L vertices adds L(q - p) <= 0, no such
      component.
    The branch vertices and the threads with w > 0 are thus a multigraph
    with edge weights w whose smallest maximizer of (sum of w inside) -
    p|B| is S's branch part, and S is that part plus the threads with both
    ends in it.  Goldberg's (1984) network on the branch vertices: an arc
    pair of capacity w each way per thread, and the excess x(v) = D(v) - 2p,
    D(v) the sum of w over the threads at v (a loop counts twice), on an
    arc s -> v of capacity x(v) when x(v) > 0, else v -> sink of capacity
    -x(v).  The cut that puts B on the source side costs the sum of the
    positive excesses less twice B's value, so the strict test is flow <
    that sum.  The residual source side of a maximum flow, which
    _min_cut's last BFS levels, is the smallest minimum cut: B, without s.
    The fold reads the 2-core from _core: a branch vertex has more than two
    neighbors there, and each thread is walked once by _run along the core,
    from an end u to its far end z, the walk's last vertex.

    Below threshold 1 (p < q) no flow is run: a vertex joined to S by an
    edge adds at least 1 - p/q > 0 to |E(S)| - (p/q)|S|, so the maximizers
    are unions of components, and the smallest is the union of those denser
    than p/q.  There every vertex of degree 2 has excess, so on a long
    path the flow would carry it to the ends, Dinic one phase per step.
    """
    n = g.n
    d = gcd(p, q)
    p, q = p // d, q // d
    adj = g.adj
    if p < q:
        side = set()
        for root, reach in components(g):
            comp = [root, *reach]
            if q * sum(len(adj[u]) for u in comp) > 2 * p * len(comp):
                side.update(comp)
        return side or None
    core = _core(adj, 2)
    branch = [v for v in range(n) if len(core[v]) > 2]
    if not branch:
        return None
    node = {v: i for i, v in enumerate(branch)}
    excess = [-2 * p] * len(branch)
    pairs, threads = [], []
    walked = [False] * n
    for u in branch:
        for y in core[u]:
            if walked[y] or y < u and y in node:
                continue
            *inner, z = _run(core, u, y)
            if inner:
                walked[inner[-1]] = True
            w = q * (len(inner) + 1) - p * len(inner)
            if w > 0:
                excess[node[u]] += w
                excess[node[z]] += w
                if u != z:
                    pairs.append((node[u], node[z], w, w))
                if inner:
                    threads.append((u, z, inner))
    src = len(branch)
    arcs = [(src, i, x, 0) if x > 0 else (i, src + 1, -x, 0)
            for i, x in enumerate(excess) if x]
    flow, side = _min_cut(src + 2, arcs + pairs, src, src + 1)
    if flow >= sum(x for x in excess if x > 0):
        return None
    witness = {branch[i] for i in side if i < src}
    for u, z, inner in threads:
        if u in witness and z in witness:
            witness.update(inner)
    return witness


def mad(g: Graph) -> Density:
    """Exact maximum average degree, max over subgraphs H of 2|E(H)|/|V(H)|.

    Dinkelbach's iteration on the flow test: starting from H = G, ask for a
    subgraph denser than H; each witness becomes the next H, until none is
    denser.  A witness is the smallest maximizer of |E(S)| - lambda|S| at
    the threshold lambda, so the last one, taken at a threshold below the
    optimum, is the largest densest subgraph (G itself when no witness is
    found).  The returned Density carries its (unreduced) edge and vertex
    counts.
    """
    if g.n < 1:
        raise GraphError("mad needs a nonempty graph")
    if g.m == 0:
        return Density(0, 1)
    size, edges_in = g.n, g.m
    while True:
        denser = _density_exceeds(g, edges_in, size)
        if denser is None:
            return Density(2 * edges_in, size)
        size = len(denser)
        edges_in = sum(1 for u, v in g.edges() if u in denser and v in denser)


def mad_below_12_5(g: Graph) -> bool:
    """Whether mad(g) < 12/5, the class of color_sparse, by one max-density
    decision: subgraph densities |E|/|V| are fractions with denominator at
    most n, so one is at least 6/5 exactly when it exceeds
    6/5 - 1/(5n+1) = (30n+1)/(25n+5).  True on the empty graph."""
    return _density_exceeds(g, 30 * g.n + 1, 25 * g.n + 5) is None


# ---------------------------------------------------------------------------
# Reducible configurations
# ---------------------------------------------------------------------------
# The rules read g only through adj, a degree as len(adj[v]) and the least
# neighbor by min() or sorted(), so g may be a Graph or a Reduction.  From
# PLANAR_HIGH a neighbor counts as high for planar_reducible_at, and from
# OUTERPLANAR_HIGH it is too high for outerplanar_edge_at: the one neighbor
# fact each rule reads, so the threshold of its index's degree_crossings
# feed.  From THREAD_HIGH a thread's end fails every end test of thread_at.
PLANAR_HIGH = 11
OUTERPLANAR_HIGH = 5
THREAD_HIGH = 6


def thread_at(g: Graph, x: int, width: int):
    """The internal vertices (x, ...) of a reducible thread of width 4, 3 or
    2 read from degree-2 x, or None.  A thread is a path of distinct degree-2
    vertices; its ends, the neighbors before its first and after its last
    vertex, may coincide.  A 3-thread needs a far end of degree < THREAD_HIGH,
    a 2-thread also a near end of degree <= 3.  The first window x, y, ...
    that passes, y in sorted order, is the answer.  4- and 3-threads in
    2-regular components are not reducible; the caller excludes them."""
    adj = g.adj
    if len(adj[x]) != 2:
        return None
    for y in sorted(adj[x]):
        walk = list(islice(_run(adj, x, y), width))
        if len(walk) < width:
            continue
        far = width == 4 or len(adj[walk[-1]]) < THREAD_HIGH
        near = width > 2 or len(adj[next(u for u in adj[x] if u != y)]) <= 3
        if far and near:
            return (x, *walk[:-1])
    return None


def thread_runs(red: Reduction):
    """The LeastLive feed of thread_at: the degree-2 runs that leave u, up to
    3 vertices each when d(u) < THREAD_HIGH, and whole when u had degree 2
    at its last feed and no longer has.  thread_at(g, x, w) reads vertices
    within 3 steps of x along its runs, and of a run's end only whether its
    degree is < THREAD_HIGH (or <= 3).  A component stops being 2-regular
    only when one of its vertices leaves degree 2, so a rule that also asks
    whether x's run closes is fed too."""
    adj = red.adj
    two = [len(a) == 2 for a in adj]

    def feed(u):
        d = len(adj[u])
        left, two[u] = two[u] and d != 2, d == 2
        if d >= THREAD_HIGH and not left:
            return []
        reach = None if left else 3
        return [w for y in adj[u] for w in islice(_run(adj, u, y), reach)]
    return feed


def planar_reducible_at(g: Graph, v: int):
    """(v, w) if d(v) <= 5 and at most two neighbors of v have degree >=
    11, with contraction partner w (None for isolated v); else None.

    For d(v) >= 3 the partner is the least neighbor of degree <= 10, so
    contraction cannot raise the maximum degree.
    """
    adj = g.adj
    nbrs = adj[v]
    if len(nbrs) > 5 or sum(1 for u in nbrs if len(adj[u]) >= PLANAR_HIGH) > 2:
        return None
    if len(nbrs) >= 3:
        return v, min(u for u in nbrs if len(adj[u]) < PLANAR_HIGH)
    return v, min(nbrs, default=None)


def outerplanar_edge_at(g: Graph, x: int):
    """(x, y) with y the one neighbor of x if d(x) = 1, or the least
    neighbor of degree <= 4 if d(x) = 2; (x, None) for isolated x, as
    planar_reducible_at gives it; else None."""
    adj = g.adj
    if len(adj[x]) == 2:
        low = [y for y in adj[x] if len(adj[y]) < OUTERPLANAR_HIGH]
        return (x, min(low)) if low else None
    return (x, min(adj[x], default=None)) if len(adj[x]) < 2 else None


# ---------------------------------------------------------------------------
# Edge-list text format
# ---------------------------------------------------------------------------

def write_edge_list(g: Graph) -> str:
    """First line "n m", then one sorted "u v" line per edge."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


# Largest vertex count an edge-list header may declare: the reader builds
# one neighbor set per vertex before it reads an edge.
MAX_EDGE_LIST_VERTICES = 10 ** 6


def read_edge_list(text: str) -> Graph:
    """Parse the edge-list format; lines starting with 'c' are comments."""
    rows = [ln for ln in text.splitlines()
            if ln.strip() and not ln.lstrip().startswith("c")]
    if not rows:
        raise GraphError("empty edge-list input")
    try:
        n, m = map(int, rows[0].split())
    except ValueError as exc:
        raise GraphError(f"bad header line: {rows[0]!r}") from exc
    if n > MAX_EDGE_LIST_VERTICES:
        raise GraphError(f"header declares {n} vertices, more than the "
                         f"limit of {MAX_EDGE_LIST_VERTICES}")
    if len(rows) - 1 != m:
        raise GraphError(f"expected {m} edge lines, found {len(rows) - 1}")
    edges = []
    for ln in rows[1:]:
        try:
            u, v = map(int, ln.split())
        except ValueError as exc:
            raise GraphError(f"bad edge line: {ln!r}") from exc
        edges.append((u, v))
    return Graph(n, edges)
