"""Seeded inputs and job lists for the three workloads.

Everything here is made by the benchmark itself, never by `ttone.instances`,
so editing or deleting a generator in the program cannot change a workload.
A job list is one pass; a run repeats the pass a fixed number of times.
"""

from __future__ import annotations

import json
import os
import random

from check import PALETTES, edges_digest

HERE = os.path.dirname(os.path.abspath(__file__))

# Search budget per subtree, in nodes; no wall-clock limits anywhere.
TAU_MAX_NODES = 10_000
C9_MAX_NODES = 3_000
POOL_FIXED = 12


def load_expected() -> dict:
    with open(os.path.join(HERE, "expected.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Graph classes, each with its precondition asserted as it is generated
# ---------------------------------------------------------------------------

def _relabel(rng, n, edges):
    perm = list(range(n))
    rng.shuffle(perm)
    return sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges)


def _assert_simple(n, edges):
    norm = {(min(u, v), max(u, v)) for u, v in edges}
    assert len(norm) == len(edges), "duplicate edge"
    assert all(0 <= u < v < n for u, v in norm), "loop or bad vertex id"


def stacked_triangulation(rng, n):
    """Planar: each new vertex goes into a face and joins its three corners,
    so the graph stays a triangulation with 3n - 6 edges."""
    edges = [(0, 1), (1, 2), (0, 2)]
    present = set(edges)
    faces = [(0, 1, 2)]
    for v in range(3, n):
        i = rng.randrange(len(faces))
        faces[i], faces[-1] = faces[-1], faces[i]
        a, b, c = faces.pop()
        assert {(a, b), (a, c), (b, c)} <= present, "face lost an edge"
        new = [(a, v), (b, v), (c, v)]
        edges += new
        present.update(new)
        faces += [(a, b, v), (a, c, v), (b, c, v)]
    _assert_simple(n, edges)
    assert len(edges) == 3 * n - 6
    return edges


def _assert_outerplanar(n, edges):
    """Edges of a maximal outerplanar graph drawn on the convex n-gon 0..n-1:
    2n - 3 edges and no two chords cross (the spans are laminar)."""
    _assert_simple(n, edges)
    assert len(edges) == 2 * n - 3
    ends = []
    for a, b in sorted(((min(e), max(e)) for e in edges), key=lambda e: (e[0], -e[1])):
        while ends and ends[-1] <= a:
            ends.pop()
        assert not ends or b <= ends[-1], f"chords cross at ({a},{b})"
        ends.append(b)


def maximal_outerplanar(rng, n):
    """A random triangulation of the n-gon 0..n-1."""
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    stack = [(0, n - 1)]
    while stack:
        lo, hi = stack.pop()
        if hi - lo < 2:
            continue
        mid = rng.randint(lo + 1, hi - 1)
        if mid - lo > 1:
            edges.append((lo, mid))
        if hi - mid > 1:
            edges.append((mid, hi))
        stack += [(lo, mid), (mid, hi)]
    _assert_outerplanar(n, edges)
    return edges


def subdivided_sparse(rng, n):
    """n vertices: each edge of a maximal outerplanar graph on n // 8
    vertices becomes a path with 2..6 interior vertices.  Maximum average
    degree is below 12/5: a subgraph made of base vertices U and whole
    threads has sum(5 - s_e) <= 3|E(U)| < 6|U| (outerplanar, so |E(U)| <
    2|U|), which is |E|/|V| < 6/5; partial threads only add pendant paths of
    ratio 1."""
    n_base = n // 8
    base = maximal_outerplanar(rng, n_base)
    inner = [rng.randint(2, 6) for _ in base]
    while sum(inner) != n - n_base:     # move to exactly n vertices
        i = rng.randrange(len(inner))
        step = 1 if sum(inner) < n - n_base else -1
        if 2 <= inner[i] + step <= 6:
            inner[i] += step
    edges = []
    nid = n_base
    for (u, v), s in zip(base, inner):
        chain = [u] + list(range(nid, nid + s)) + [v]
        nid += s
        edges += list(zip(chain, chain[1:]))
    assert nid == n and min(inner) >= 2
    _assert_simple(n, edges)
    return edges


# ---------------------------------------------------------------------------
# reduce-lift
# ---------------------------------------------------------------------------

# Per colorer: vertex counts of one pass.  Cost is quadratic in n today,
# so the 240- and 480-vertex jobs set the tail.
REDUCE_SIZES = (120,) * 8 + (240,) * 4 + (480,)


def reduce_lift_jobs(seed: int) -> list:
    rng = random.Random(f"reduce-lift/{seed}")
    jobs = []
    for n in REDUCE_SIZES:
        jobs.append(("planar", n, stacked_triangulation(rng, n)))
        jobs.append(("outerplanar", n, maximal_outerplanar(rng, n)))
        jobs.append(("sparse", n, subdivided_sparse(rng, n)))
    out = []
    for kind, n, edges in jobs:
        edges = _relabel(rng, n, edges)
        deg = [0] * n
        for u, v in edges:
            deg[u] += 1
            deg[v] += 1
        out.append({"kind": kind, "n": n, "edges": edges,
                    "palette": PALETTES[kind](max(deg)),
                    "digest": edges_digest(n, edges)})
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# exact-search
# ---------------------------------------------------------------------------

def _cycle_edges(n):
    return [(i, (i + 1) % n) for i in range(n)]


def exact_search_jobs(seed: int, expected: dict) -> list:
    """tau on C5..C8 at tones 3..5, tau on graphs of the frozen random pool,
    and one budgeted decide of C9, t=5, k=16.

    The POOL_FIXED costliest pool graphs run for every seed, so the slowest
    jobs, which set the tail, are the same on every seed.  The rest of the
    pool is paired by the time tau took on it when frozen, and the seed picks
    one graph of each pair, so every seed's pass costs about the same.
    """
    rng = random.Random(f"exact-search/{seed}")
    jobs = []
    for entry in expected["cycles"]:
        n = entry["n"]
        jobs.append({"kind": "tau", "n": n, "edges": _cycle_edges(n),
                     "t": entry["t"], "tau": entry["tau"],
                     "may_timeout": entry["may_timeout"],
                     "max_nodes": TAU_MAX_NODES})
    pool = sorted(expected["pool"], key=lambda e: (-e["seconds"], e["digest"]))
    picks = pool[:POOL_FIXED]
    for i in range(POOL_FIXED, len(pool) - 1, 2):
        picks.append(pool[i + rng.randrange(2)])
    for entry in picks:
        jobs.append({"kind": "tau", "n": entry["n"], "edges": entry["edges"],
                     "t": entry["t"], "tau": entry["tau"], "may_timeout": False,
                     "max_nodes": TAU_MAX_NODES})
    jobs.append({"kind": "decide", "n": 9, "edges": _cycle_edges(9),
                 "t": 5, "k": 16, "max_nodes": C9_MAX_NODES})
    for job in jobs:
        job["digest"] = edges_digest(job["n"], job["edges"])
    rng.shuffle(jobs)
    return jobs


def random_small_graph(rng, n, p):
    """Connected G(n, p), resampled until connected."""
    while True:
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < p]
        adj = {v: set() for v in range(n)}
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        seen, stack = {0}, [0]
        while stack:
            for w in adj[stack.pop()] - seen:
                seen.add(w)
                stack.append(w)
        if len(seen) == n:
            return edges


# ---------------------------------------------------------------------------
# cli-pipeline
# ---------------------------------------------------------------------------

# The seed picks one size per slot; the choices in a slot cost about the same.
CLI_SLOTS = {
    "cycle_big": (9900, 9950, 10000),
    "cycle_mid": (997, 1000, 1003),
    "grid_big": ((100, 100), (98, 102), (102, 98)),
    "grid_small": ((50, 50), (49, 51), (51, 49)),
    "path": (4990, 5000, 5010),
    "fat": (38, 40, 42),
    "star": (18, 20, 22),
    "cycle_tiny": (5, 6, 7),
}


def cli_sizes(seed: int) -> dict:
    rng = random.Random(f"cli-pipeline/{seed}")
    return {slot: rng.choice(options) for slot, options in CLI_SLOTS.items()}


def corrupt_grid_coloring(rows: int, cols: int) -> str:
    """The tone-2 grid formula coloring with vertex 1 given vertex 0's label,
    so `verify` must report violations and exit 1."""
    labels = {}
    for i in range(1, rows + 1):
        for j in range(1, cols + 1):
            labels[str((i - 1) * cols + (j - 1))] = [(i - j) % 3 + 1, (i + j) % 3 + 4]
    labels["1"] = labels["0"]
    return json.dumps({"k": 6, "labels": labels, "t": 2},
                      sort_keys=True, separators=(",", ":")) + "\n"


def cli_jobs(sizes: dict) -> tuple:
    """(jobs, files): jobs run in order with the work directory as cwd.

    A job is {"argv", "save", "exit", "check"}: `save` names the file its
    stdout is written to for later jobs, `exit` the expected exit code, and
    `check` the graph file and tone of a coloring it prints.  Its key for the
    frozen digests is " ".join(argv); file names carry the sizes.
    `files` are inputs the benchmark writes before timing.
    """
    cb, cm, ct = sizes["cycle_big"], sizes["cycle_mid"], sizes["cycle_tiny"]
    gb, gs = sizes["grid_big"], sizes["grid_small"]
    graphs = {
        "cb": (f"cycle-{cb}.el", ["--cycle", str(cb)]),
        "cm": (f"cycle-{cm}.el", ["--cycle", str(cm)]),
        "gb": (f"grid-{gb[0]}x{gb[1]}.el", ["--grid", str(gb[0]), str(gb[1])]),
        "gs": (f"grid-{gs[0]}x{gs[1]}.el", ["--grid", str(gs[0]), str(gs[1])]),
        "p": (f"path-{sizes['path']}.el", ["--path", str(sizes["path"])]),
        "f": (f"fat-{sizes['fat']}.el", ["--fat-triangle", str(sizes["fat"])]),
        "s": (f"star-{sizes['star']}.el", ["--star", str(sizes["star"])]),
        "ct": (f"cycle-{ct}.el", ["--cycle", str(ct)]),
    }
    jobs = [{"argv": ["gen", *args], "save": name, "exit": 0, "check": None}
            for name, args in graphs.values()]
    colorings = [("cb", "cycle", 5), ("cm", "cycle", 2), ("cm", "cycle", 3),
                 ("cm", "cycle", 4), ("cm", "auto", 5), ("gb", "grid", 4),
                 ("gs", "grid", 2), ("gs", "grid", 3), ("gs", "grid", 5),
                 ("p", "path", 3), ("p", "path", 5), ("p", "auto", 4),
                 ("f", "fat-triangle", 2)]
    verifies = []
    for g, family, t in colorings:
        graph = graphs[g][0]
        out = f"{graph[:-3]}.{family}-t{t}.json"
        jobs.append({"argv": ["color", "--family", family, "--t", str(t),
                              "--in", graph],
                     "save": out, "exit": 0, "check": {"graph": graph, "t": t}})
        verifies.append({"argv": ["verify", "--graph", graph, "--in", out],
                         "save": None, "exit": 0, "check": None})
    jobs += verifies
    bad = f"{graphs['gs'][0][:-3]}.corrupt.json"
    jobs.append({"argv": ["verify", "--graph", graphs["gs"][0], "--in", bad],
                 "save": None, "exit": 1, "check": None})
    for g, t in (("gb", 3), ("cm", 4), ("f", 2)):
        jobs.append({"argv": ["bounds", "--t", str(t), "--in", graphs[g][0]],
                     "save": None, "exit": 0, "check": None})
    jobs.append({"argv": ["mad", "--in", graphs["s"][0]],
                 "save": None, "exit": 0, "check": None})
    jobs.append({"argv": ["tau", "--t", "3", "--in", graphs["ct"][0]],
                 "save": None, "exit": 0, "check": None})
    files = {bad: corrupt_grid_coloring(*gs)}
    return jobs, files


def make_jobs(workload: str, seed: int) -> dict:
    """The pass for one workload and seed, plus anything written up front."""
    if workload == "reduce-lift":
        return {"jobs": reduce_lift_jobs(seed)}
    expected = load_expected()
    if workload == "exact-search":
        return {"jobs": exact_search_jobs(seed, expected)}
    sizes = cli_sizes(seed)
    jobs, files = cli_jobs(sizes)
    for job in jobs:
        key = " ".join(job["argv"])
        frozen = expected["cli"].get(key)
        if frozen is None:
            raise KeyError(f"no frozen output for cli job {key!r}")
        job["sha256"] = frozen["sha256"]
        job["k"] = frozen.get("k")
    return {"jobs": jobs, "files": files, "sizes": sizes}


WORKLOADS = ("reduce-lift", "exact-search", "cli-pipeline")
