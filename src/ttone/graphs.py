"""Simple undirected graphs: builders, generators, distances, a reduction
with vertex deletion and edge contraction undone step by step, exact maximum
average degree, and searches for reducible configurations."""

from __future__ import annotations

from collections import deque, namedtuple
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import compress, islice


class GraphError(ValueError):
    """Malformed graph input: bad vertex id, self-loop, unreadable file."""


class Graph:
    """Immutable simple graph on vertex ids 0..n-1 with sorted adjacency."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, edges):
        if n < 0:
            raise GraphError(f"vertex count must be nonnegative, got {n}")
        nbrs = [set() for _ in range(n)]
        for u, v in edges:
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

    def neighbors(self, v: int) -> tuple:
        return self.adj[v]

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
    if n < 1:
        raise GraphError("path needs n >= 1")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def gen_cycle(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle needs n >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def gen_grid(m: int, n: int) -> Graph:
    """Grid with rows 1..m, columns 1..n; (i,j) has id (i-1)*n + (j-1)."""
    if m < 1 or n < 1:
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
    if d < 1:
        raise GraphError("star needs d >= 1")
    return Graph(d + 1, [(0, i) for i in range(1, d + 1)])


def gen_fat_triangle(t: int) -> Graph:
    """Three hubs (ids 0,1,2), each hub pair joined through t degree-2 vertices.

    The result has 3t+3 vertices, 6t edges, and maximum degree 2t.
    """
    if t < 1:
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
    """Vertices at distance <= radius from v (v itself excluded), with distances."""
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


def constraint_pairs(g: Graph, t: int) -> list:
    """All unordered pairs (u, v, d) with u < v and 1 <= d = d(u,v) <= t."""
    pairs = []
    for u in range(g.n):
        for v, d in sorted(distances_within(g, u, t).items()):
            if v > u:
                pairs.append((u, v, d))
    return pairs


def effective_diameter(g: Graph, cap: int) -> int:
    """max over vertices of min(eccentricity, cap), ignoring unreachable pairs.

    iFUB (Crescenzi et al. 2013) per component: a BFS from its vertex of
    largest degree (ties by smallest id), then capped BFSs from its levels,
    farthest first, until one reaches cap or best >= 2i at level i (nearer
    vertices then have eccentricity at most max(2i, best))."""
    best = 0
    done = [False] * g.n
    for root in sorted(range(g.n), key=lambda v: (-g.degree(v), v)):
        if done[root]:
            continue
        done[root] = True
        reach = distances_within(g, root, g.n)
        ecc = max(reach.values(), default=0)
        if ecc >= cap:
            return cap
        best = max(best, ecc)
        levels = [[] for _ in range(ecc + 1)]
        for v, d in reach.items():
            done[v] = True
            levels[d].append(v)
        for i in range(ecc, 0, -1):
            for v in levels[i]:
                if best >= 2 * i:
                    break
                best = max(best, max(distances_within(g, v, cap).values()))
                if best >= cap:
                    return cap
    return best


# ---------------------------------------------------------------------------
# Deletion and contraction with undo
# ---------------------------------------------------------------------------

class Reduction:
    """A graph shrunk in place by vertex deletion and edge contraction, on
    the vertex ids of the Graph it starts from, with each step undoable.

    A contraction merges into the lower id, so the live ids keep the order
    a Graph rebuilt with compacted ids would give them.  A search that reads
    a graph only through vertices(), degree(), neighbors() (sorted) and adj
    therefore finds the same vertices here as on that rebuild.

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

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def neighbors(self, v: int) -> list:
        return sorted(self.adj[v])

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
    first pushes the ids touched since the last call, then pops until the
    top is alive and passes, and returns it (None when the heap runs dry).
    Every live id that passes is in the heap, so the answer is the one a
    scan in id order would give.  test(v) must read only v's neighbor set
    and, when near is set, whether each neighbor has degree >= near; then
    a touched id whose side of near changed also pushes its neighbors.
    """

    __slots__ = ("red", "test", "near", "heap", "read", "big")

    def __init__(self, red: Reduction, test, near: int = None):
        self.red, self.test, self.near = red, test, near
        self.heap = [v for v, up in enumerate(red.alive) if up]
        heapify(self.heap)
        self.read = len(red.touched)
        if near is not None:
            self.big = [len(a) >= near for a in red.adj]

    def __call__(self):
        heap, test, near = self.heap, self.test, self.near
        adj, alive, touched = self.red.adj, self.red.alive, self.red.touched
        for u in set(touched[self.read:]):
            if alive[u]:
                heappush(heap, u)
            if near is not None and self.big[u] != (len(adj[u]) >= near):
                self.big[u] = not self.big[u]
                for w in adj[u]:
                    heappush(heap, w)
        self.read = len(touched)
        while heap:
            v = heap[0]
            if alive[v] and test(v):
                return v
            heappop(heap)
        return None


# ---------------------------------------------------------------------------
# Maximum average degree, exactly
# ---------------------------------------------------------------------------

class Density(namedtuple("Density", "numerator denominator")):
    """Exact density 2|E(H)|/|V(H)| of a witness subgraph H."""

    __slots__ = ()

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)


class _Dinic:
    """Max-flow with arbitrary integer capacities (Python ints stay exact)."""

    def __init__(self, size: int):
        self.size = size
        self.head = [[] for _ in range(size)]
        # edge arrays: to, capacity; reverse edge is index ^ 1
        self.to = []
        self.cap = []

    def add(self, u: int, v: int, c: int):
        self.head[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(c)
        self.head[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(0)

    def max_flow(self, s: int, t: int) -> int:
        flow = 0
        while True:
            level = [-1] * self.size
            level[s] = 0
            queue = deque([s])
            while queue:
                u = queue.popleft()
                for e in self.head[u]:
                    if self.cap[e] > 0 and level[self.to[e]] < 0:
                        level[self.to[e]] = level[u] + 1
                        queue.append(self.to[e])
            if level[t] < 0:
                return flow
            it = [0] * self.size
            while True:
                pushed = self._dfs(s, t, None, level, it)
                if pushed == 0:
                    break
                flow += pushed

    def _dfs(self, u, t, limit, level, it):
        if u == t:
            return limit
        while it[u] < len(self.head[u]):
            e = self.head[u][it[u]]
            v = self.to[e]
            if self.cap[e] > 0 and level[v] == level[u] + 1:
                cap = self.cap[e] if limit is None else min(limit, self.cap[e])
                pushed = self._dfs(v, t, cap, level, it)
                if pushed:
                    self.cap[e] -= pushed
                    self.cap[e ^ 1] += pushed
                    return pushed
            it[u] += 1
        return 0

    def source_side(self, s: int) -> set:
        """Vertices reachable from s in the residual network (a min cut side)."""
        seen = {s}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for e in self.head[u]:
                if self.cap[e] > 0 and self.to[e] not in seen:
                    seen.add(self.to[e])
                    queue.append(self.to[e])
        return seen


def _density_exceeds(g: Graph, threshold: Fraction):
    """Does some nonempty subgraph H satisfy |E(H)|/|V(H)| > threshold?

    Returns a witness vertex set, or None when the answer is no.
    Standard source / edge-node / vertex-node / sink construction: with
    threshold p/q, cut capacity q*m - max_S (q|E(S)| - p|S|), so the strict
    test is max_flow < q*m.
    """
    p, q = threshold.numerator, threshold.denominator
    m, n = g.m, g.n
    src, snk = 0, 1 + m + n
    net = _Dinic(m + n + 2)
    big = q * m + abs(p) * n + 1
    for i, (u, v) in enumerate(g.edges()):
        net.add(src, 1 + i, q)
        net.add(1 + i, 1 + m + u, big)
        net.add(1 + i, 1 + m + v, big)
    for v in range(n):
        net.add(1 + m + v, snk, p)
    flow = net.max_flow(src, snk)
    if flow >= q * m:
        return None
    side = net.source_side(src)
    return {v for v in range(n) if 1 + m + v in side}


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
        denser = _density_exceeds(g, Fraction(edges_in, size))
        if denser is None:
            return Density(2 * edges_in, size)
        size = len(denser)
        edges_in = sum(1 for u, v in g.edges() if u in denser and v in denser)


# ---------------------------------------------------------------------------
# Reducible configurations
# ---------------------------------------------------------------------------
# The searches read g only through vertices(), degree(), neighbors() and adj,
# so g may be a Graph or a Reduction.

class ThreadConfig(namedtuple("ThreadConfig", "kind internal endpoints")):
    """A degree-2 chain with its two (possibly equal) endpoint vertices.

    internal lists the chain in path order; endpoints[0] is adjacent to
    internal[0] and endpoints[1] to internal[-1].  For ThreeThread the
    second endpoint has degree <= 5; for TwoThread the first endpoint has
    degree <= 3 and the second degree <= 5.
    """

    __slots__ = ()


_THREAD_LEN = {"FourThread": 4, "ThreeThread": 3, "TwoThread": 2}


def check_thread_config(g: Graph, cfg: ThreadConfig) -> None:
    """Re-verify the kind-specific degree conditions; raises on breach."""
    want = _THREAD_LEN[cfg.kind]
    if len(cfg.internal) != want:
        raise ValueError(f"{cfg.kind} needs {want} internal vertices")
    for v in cfg.internal:
        if g.degree(v) != 2:
            raise ValueError(f"internal vertex {v} has degree {g.degree(v)}")
    chain = [cfg.endpoints[0], *cfg.internal, cfg.endpoints[1]]
    for a, b in zip(chain, chain[1:]):
        if b not in g.adj[a]:
            raise ValueError(f"({a},{b}) missing from thread")
    d0, d1 = g.degree(cfg.endpoints[0]), g.degree(cfg.endpoints[1])
    if cfg.kind == "ThreeThread" and d1 > 5:
        raise ValueError("ThreeThread needs an endpoint of degree <= 5")
    if cfg.kind == "TwoThread" and (d0 > 3 or d1 > 5):
        raise ValueError("TwoThread needs endpoints of degree <= 3 and <= 5")


def _run(g: Graph, x: int, y: int):
    """The vertices met walking from x through its neighbor y along
    degree-2 vertices, up to the first one of another degree or x again."""
    prev, cur = x, y
    while True:
        yield cur
        if cur == x or g.degree(cur) != 2:
            return
        prev, cur = cur, next(u for u in g.adj[cur] if u != prev)


def find_thread_config(g: Graph):
    """Find a reducible thread: a 4-thread, a 3-thread ending at a vertex of
    degree <= 5, or a 2-thread with endpoint degrees <= 3 and <= 5.

    Requires minimum degree 2.  A thread is a path of distinct degree-2
    vertices read in one direction; its endpoints are the neighbors before
    its first and after its last vertex, and may coincide.  4- and
    3-threads lie outside 2-regular components.  Preference order is
    FourThread, ThreeThread, TwoThread, ties broken by the smallest internal
    vertex tuple.  So each kind is one scan of the degree-2 vertices x in
    id order and of their neighbors y in sorted order, and the first window
    x, y, ... that passes is the answer: x and y fix the rest of it.  The
    vertices of a 2-regular component are recorded the first time the 4-
    or 3-thread scan meets the component.  Returns None when no
    configuration exists.
    """
    vs = g.vertices()
    if any(g.degree(v) < 2 for v in vs):
        raise ValueError("find_thread_config requires minimum degree 2")
    twos = [v for v in vs if g.degree(v) == 2]
    cyclic = set()
    for kind, width in _THREAD_LEN.items():   # in preference order
        for x in twos:
            if width > 2 and x in cyclic:
                continue
            for y in g.neighbors(x):
                walk = list(islice(_run(g, x, y), width))
                if len(walk) < width:
                    continue
                start = next(u for u in g.adj[x] if u != y)
                d0, d1 = g.degree(start), g.degree(walk[-1])
                if kind == "ThreeThread" and d1 > 5 or \
                        kind == "TwoThread" and (d0 > 3 or d1 > 5):
                    continue
                if width > 2:
                    run = list(_run(g, x, y))
                    if run[-1] == x:
                        cyclic.update(run)
                        break
                cfg = ThreadConfig(kind, (x, *walk[:-1]), (start, walk[-1]))
                check_thread_config(g, cfg)
                return cfg
    return None


# Degree from which a neighbor counts as high for planar_reducible_at, and
# from which it is too high for outerplanar_edge_at: the one neighbor fact
# each rule reads, so the near threshold of its LeastLive index.
PLANAR_HIGH = 11
OUTERPLANAR_HIGH = 5


def planar_reducible_at(g: Graph, v: int):
    """(v, w) if d(v) <= 5 and at most two neighbors of v have degree >=
    11, with contraction partner w (None for isolated v); else None.

    For d(v) >= 3 the partner is the least neighbor of degree <= 10, so
    contraction cannot raise the maximum degree.
    """
    if g.degree(v) > 5:
        return None
    if sum(1 for u in g.adj[v] if g.degree(u) >= PLANAR_HIGH) > 2:
        return None
    if g.degree(v) == 0:
        return v, None
    nbrs = g.neighbors(v)
    if g.degree(v) >= 3:
        return v, next(u for u in nbrs if g.degree(u) < PLANAR_HIGH)
    return v, nbrs[0]


def outerplanar_edge_at(g: Graph, x: int):
    """(x, y) with y the one neighbor of x if d(x) = 1, or the least
    neighbor of degree <= 4 if d(x) = 2; else None."""
    if g.degree(x) == 1:
        return x, g.neighbors(x)[0]
    if g.degree(x) == 2:
        for y in g.neighbors(x):
            if g.degree(y) < OUTERPLANAR_HIGH:
                return x, y
    return None


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
