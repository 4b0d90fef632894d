"""Seeded random instance generators for the sparse-class colorers and tests."""

from __future__ import annotations

import random

from .graphs import Graph, _core, mad_below_12_5


def random_tree(rng: random.Random, n: int) -> Graph:
    if type(n) is not int or n < 0:
        raise ValueError("need n >= 0")
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    return Graph(n, edges)


def subdivide(g: Graph, times) -> Graph:
    """Replace each edge uv with a path of times(u, v) interior vertices."""
    edges = []
    nid = g.n
    for u, v in g.edges():
        prev = u
        for _ in range(times(u, v)):
            edges.append((prev, nid))
            prev = nid
            nid += 1
        edges.append((prev, v))
    return Graph(nid, edges)


def random_subdivided(rng: random.Random, n_base: int = 8,
                      extra_edges: int = 3) -> Graph:
    """A sparse graph with maximum average degree provably below 12/5.

    A random tree plus a few extra edges, subdivided in one of three modes:
    per-edge 2..6 interior vertices (long threads dominate), uniformly 3
    (every maximal thread has exactly three interior vertices), or uniformly
    2 (all short threads).  Each mode resamples with 5+ subdivisions per
    edge, which is always below 12/5, in the rare case the class check,
    mad_below_12_5, fails: a base with a subgraph of average degree 4 (6
    when uniformly 3) reaches 12/5, and enough extra edges make one.

    The class check runs only when the base is not 2-degenerate, that is
    when its 3-core is not empty, because a 2-degenerate base subdivided at
    least twice per edge has mad < 12/5.
    Proof: if some subgraph has average degree at least 12/5 > 2, stripping
    its vertices of degree at most 1 keeps that so, which gives one, H, of
    minimum degree 2.  An interior vertex in H has both
    path neighbors in H, so H is a set U of base vertices plus the whole
    paths of a set F of base edges between them.  With s_e interior
    vertices on e, |V(H)| = |U| + sum s_e and |E(H)| = sum (s_e + 1), and
    5|E(H)| >= 6|V(H)| reads sum (5 - s_e) >= 6|U|.  But s_e >= 2 gives
    sum (5 - s_e) <= 3|F|, and (U, F) is a subgraph of a 2-degenerate
    graph, so |F| < 2|U| and 3|F| < 6|U|.  Skipping the check draws
    nothing from rng, so the graphs are those the check would pass.
    """
    if type(n_base) is not int or n_base < 1 or \
            type(extra_edges) is not int or extra_edges < 0:
        raise ValueError("need n_base >= 1 and extra_edges >= 0")
    base = random_tree(rng, n_base)
    edges = set(base.edges())
    for _ in range(extra_edges):
        u, v = rng.randrange(n_base), rng.randrange(n_base)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    base = Graph(n_base, sorted(edges))
    mode = rng.random()
    if mode < 0.2:
        g = subdivide(base, lambda u, v: 3)
    elif mode < 0.4 and n_base >= 4:
        g = subdivide(base, lambda u, v: 2)
    else:
        g = subdivide(base, lambda u, v: rng.randint(2, 6))
    if any(_core(base.adj, 3)) and not mad_below_12_5(g):
        g = subdivide(base, lambda u, v: rng.randint(5, 7))
    return g


def random_maximal_outerplanar(rng: random.Random, n: int) -> Graph:
    """A random triangulation of an n-gon (maximal outerplanar graph)."""
    if type(n) is not int or n < 3:
        raise ValueError("need n >= 3")
    edges = [(i, (i + 1) % n) for i in range(n)]

    def fill(lo, hi):
        if hi - lo < 2:
            return
        mid = rng.randint(lo + 1, hi - 1)
        if mid - lo > 1:
            edges.append((lo, mid))
        if hi - mid > 1:
            edges.append((mid, hi))
        fill(lo, mid)
        fill(mid, hi)

    fill(0, n - 1)
    return Graph(n, edges)


def random_apollonian(rng: random.Random, inserts: int) -> Graph:
    """A stacked triangulation: repeatedly subdivide a face with a new vertex."""
    if type(inserts) is not int or inserts < 0:
        raise ValueError("need inserts >= 0")
    edges = [(0, 1), (1, 2), (0, 2)]
    faces = [(0, 1, 2)]
    nid = 3
    for _ in range(inserts):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        edges.extend([(a, nid), (b, nid), (c, nid)])
        faces.extend([(a, b, nid), (a, c, nid), (b, c, nid)])
        nid += 1
    return Graph(nid, edges)
