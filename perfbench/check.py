"""Output checks that share no code with ttone.

Every coloring a job returns is checked here by plain breadth-first search
from each vertex, so a defect in `ttone.verify` (one of the measured layers)
cannot pass a wrong coloring.
"""

from __future__ import annotations

import hashlib
import json
from math import comb


def adjacency(n: int, edges) -> list:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def parse_edge_list(text: str) -> tuple:
    """(n, edges) from the edge-list format; comment lines start with 'c'."""
    rows = [ln.split() for ln in text.splitlines()
            if ln.strip() and not ln.lstrip().startswith("c")]
    n, m = int(rows[0][0]), int(rows[0][1])
    edges = [(int(a), int(b)) for a, b in rows[1:]]
    if len(edges) != m:
        raise ValueError(f"edge list says {m} edges, has {len(edges)}")
    return n, edges


def coloring_errors(adj: list, t: int, k: int, labels: dict) -> list:
    """Reasons a tone-t coloring with palette 1..k is wrong; empty if valid.

    labels maps every vertex to a collection of t distinct colors.  Vertices
    at distance d <= t must share fewer than d colors.
    """
    n = len(adj)
    if set(labels) != set(range(n)):
        return [f"labels cover {len(labels)} of {n} vertices"]
    sets = {}
    for v, lab in labels.items():
        s = frozenset(lab)
        if len(s) != t or len(lab) != t or min(s) < 1 or max(s) > k:
            return [f"vertex {v}: {list(lab)} is not a {t}-set of 1..{k}"]
        sets[v] = s
    errors = []
    for src in range(n):
        seen = {src}
        frontier = [src]
        for d in range(1, t + 1):
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
                        if w > src and len(sets[src] & sets[w]) >= d:
                            errors.append(f"{src},{w} at distance {d} share "
                                          f"{len(sets[src] & sets[w])}")
            frontier = nxt
        if errors:
            return errors
    return errors


def labels_from_json(text: str) -> tuple:
    """(t, k, labels) of the coloring JSON format, with integer vertex ids."""
    payload = json.loads(text)
    labels = {int(v): tuple(lab) for v, lab in payload["labels"].items()}
    return payload["t"], payload["k"], labels


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def edges_digest(n: int, edges) -> str:
    """Digest of a graph as its sorted edge-list text."""
    norm = sorted((min(u, v), max(u, v)) for u, v in edges)
    return sha256(f"{n} {len(norm)}\n" + "".join(f"{u} {v}\n" for u, v in norm))


# Palette sizes each reduce-and-lift colorer promises, from its degree bound.

def _least(pred, lo: int) -> int:
    k = lo
    while not pred(k):
        k += 1
    return k


def planar_palette(max_degree: int) -> int:
    return max(41, _least(lambda k: comb(max(k - 10, 0), 2) > 2 * max_degree + 25, 10))


def outerplanar_palette(max_degree: int) -> int:
    return _least(lambda k: comb(max(k - 4, 0), 2) > max_degree + 2, 4)


def sparse_palette(max_degree: int) -> int:
    return max(7, _least(lambda k: comb(max(k - 2, 0), 2) >= max_degree, 2))


PALETTES = {"planar": planar_palette, "outerplanar": outerplanar_palette,
            "sparse": sparse_palette}
