"""Write perfbench/expected.json: the answers runs are checked against.

    python3 perfbench/freeze.py        (from the root of a ttone checkout)

Run once, when a workload is defined or changed, never to make a failing
run pass: a later change that alters an output must show up as a failure.
It records tau for C5..C8 at tones 3..5, a pool of small random graphs with
their tau, and the stdout digest, exit code and palette of every cli-pipeline
job for every size choice.  Palettes and cycle values are also asserted
against closed forms here.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
import time
from math import comb

import check
import workloads

POOL_SIZE = 128
POOL_SEED = "exact-pool"
# Pool graphs must resolve with this many nodes in total, a quarter of one
# subtree's budget, so a search that spends nodes differently still fits.
POOL_MAX_NODES = workloads.TAU_MAX_NODES // 4
CYCLE_TAU = {(5, 3): 10, (5, 4): 15, (5, 5): 20, (6, 3): 8, (6, 4): 12, (6, 5): 18,
             (7, 3): 9, (7, 4): 13, (7, 5): 17, (8, 3): 8, (8, 4): 12, (8, 5): 16}


def _tau_seconds(ttone, n, edges, t, budget) -> float:
    """Median time of five tau calls; pairs the pool by cost."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        ttone.tau(ttone.Graph(n, edges), t, budget)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def freeze_exact(ttone) -> dict:
    budget = ttone.SearchBudget(max_nodes=workloads.TAU_MAX_NODES)
    cycles = []
    for (n, t), want in sorted(CYCLE_TAU.items()):
        full = ttone.tau(ttone.gen_cycle(n), t)
        assert full.status == "resolved" and full.value == want, (n, t, full)
        budgeted = ttone.tau(ttone.gen_cycle(n), t, budget)
        cycles.append({"n": n, "t": t, "tau": want,
                       "may_timeout": budgeted.status == "timeout"})
    rng = random.Random(POOL_SEED)
    pool, seen = [], set()
    while len(pool) < POOL_SIZE:
        n, t = rng.randint(5, 8), rng.choice((3, 4))
        edges = workloads.random_small_graph(rng, n, rng.uniform(0.25, 0.6))
        digest = check.edges_digest(n, edges)
        if (digest, t) in seen:
            continue
        seen.add((digest, t))
        g = ttone.Graph(n, edges)
        lower = ttone.best_lower_bound(g, t).bound
        res = ttone.tau(g, t, budget)
        if res.status != "resolved" or res.value <= lower or res.nodes > POOL_MAX_NODES:
            continue
        assert not check.coloring_errors(check.adjacency(n, edges), t, res.value,
                                         res.coloring.labels)
        pool.append({"n": n, "edges": edges, "t": t, "tau": res.value,
                     "lower_bound": lower, "nodes": res.nodes, "digest": digest,
                     "seconds": _tau_seconds(ttone, n, edges, t, budget)})
    return {"cycles": cycles, "pool": pool}


def closed_form_palette(argv, n_of) -> int:
    """Palette each structured family should get, from the paper's values."""
    family, t = argv[argv.index("--family") + 1], int(argv[argv.index("--t") + 1])
    graph = argv[argv.index("--in") + 1]
    kind = graph.split("-")[0]
    if kind == "cycle":
        return {2: 5, 3: 8, 4: 12, 5: 16}[t]        # all sizes used are >= 13
    if kind == "grid":
        return {2: 6, 3: 10, 4: 14, 5: 22}[t]
    if kind == "path":
        return sum(max(0, t - comb(i, 2)) for i in range(n_of(graph)))
    assert family == "fat-triangle" and t == 2
    param = (n_of(graph) - 3) // 3
    k = 6
    while comb(k, 2) - comb(6, 2) < 3 * param:
        k += 1
    return k


def freeze_cli(root: str) -> dict:
    work = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out", "freeze")
    os.makedirs(work, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    frozen = {}
    for choice in range(3):
        sizes = {slot: options[choice] for slot, options in workloads.CLI_SLOTS.items()}
        jobs, files = workloads.cli_jobs(sizes)
        for name, text in files.items():
            with open(os.path.join(work, name), "w") as fh:
                fh.write(text)

        def n_of(graph):
            with open(os.path.join(work, graph)) as fh:
                return int(fh.readline().split()[0])

        for job in jobs:
            key = " ".join(job["argv"])
            proc = subprocess.run([sys.executable, "-m", "ttone.cli", *job["argv"]],
                                  cwd=work, env=env, capture_output=True,
                                  stdin=subprocess.DEVNULL)
            assert proc.returncode == job["exit"], (key, proc.stderr)
            if job["save"]:
                with open(os.path.join(work, job["save"]), "wb") as fh:
                    fh.write(proc.stdout)
            entry = {"sha256": check.sha256(proc.stdout)}
            if job["check"]:
                t, k, labels = check.labels_from_json(proc.stdout.decode())
                with open(os.path.join(work, job["check"]["graph"])) as fh:
                    n, edges = check.parse_edge_list(fh.read())
                assert not check.coloring_errors(check.adjacency(n, edges), t, k, labels)
                assert k == closed_form_palette(job["argv"], n_of), (key, k)
                entry["k"] = k
            frozen[key] = entry
            print(f"froze {key}", file=sys.stderr)
    return frozen


def main() -> None:
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    import ttone
    expected = freeze_exact(ttone)
    expected["cli"] = freeze_cli(root)
    path = os.path.join(workloads.HERE, "expected.json")
    with open(path, "w") as fh:
        json.dump(expected, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
