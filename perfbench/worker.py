"""Run passes of one workload's job list: one process, one job in flight.

    python3 perfbench/worker.py SPEC.json RESULT.json

`run.py` starts this with PYTHONPATH set to the checkout's src/ and reads
RESULT.json when it exits.  Each job is timed alone; its output is checked
after the clock stops, with the checks in check.py.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time

import check
import tracing

SHIM = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_shim.py")
SETUP_CODE = """\
import time
start = time.perf_counter()
import ttone
import ttone.blocks
ttone.blocks.ensure_validated()
print(time.perf_counter() - start)
"""


def _grid_edges(rows: int, cols: int) -> list:
    return ([(v, v + 1) for v in range(rows * cols) if (v + 1) % cols]
            + [(v, v + cols) for v in range(rows * cols - cols)])


PROBE_N = 24 * 24
PROBE_EDGES = _grid_edges(24, 24)


def probe() -> float:
    """Seconds a fixed kernel takes right now: the adjacency building,
    sorting and edge relabelling that dominate graph rebuilds.

    The machine's speed drifts by a quarter or more over minutes; run.py
    scales each pass's times by the probe times taken beside its jobs.
    The kernel is the benchmark's own, so no change to ttone can move it.
    """
    start = time.perf_counter()
    for _ in range(3):
        nbrs = [set() for _ in range(PROBE_N)]
        for u, v in PROBE_EDGES:
            nbrs[u].add(v)
            nbrs[v].add(u)
        adj = tuple(tuple(sorted(s)) for s in nbrs)
        edges = [(u, v) for u in range(PROBE_N) for v in adj[u] if u < v]
        shift = [u - (u > PROBE_N // 2) for u in range(PROBE_N)]
        sorted((shift[u], shift[v]) for u, v in edges if shift[u] != shift[v])
    return time.perf_counter() - start


def probe_start() -> float:
    """Seconds a bare interpreter takes to start and exit right now: the
    speed that the CLI jobs, most of whose time is process start, follow."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-S", "-c", "pass"], check=True)
    return time.perf_counter() - start


def measure_setup(root: str) -> float:
    """Seconds a fresh interpreter takes to import ttone and run its
    start-up self-check."""
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=root,
                          capture_output=True, text=True, check=True)
    return float(proc.stdout)


class ReduceLift:
    """color_planar / color_outerplanar / color_sparse library calls."""

    def __init__(self, spec, ttone):
        self.ttone = ttone
        self.adj = [check.adjacency(job["n"], job["edges"]) for job in spec["jobs"]]
        self.seen = {}

    def run(self, i, job):
        color = getattr(self.ttone, "color_" + job["kind"])
        start = time.perf_counter()
        coloring = color(self.ttone.Graph(job["n"], job["edges"]))
        elapsed = time.perf_counter() - start
        return elapsed, self.check(i, job, coloring)

    def check(self, i, job, coloring):
        got = (coloring.t, coloring.k, coloring.labels)
        if self.seen.get(i) == got:
            return []
        if coloring.t != 2 or coloring.k != job["palette"]:
            return [f"t={coloring.t} k={coloring.k}, expected t=2 k={job['palette']}"]
        errors = check.coloring_errors(self.adj[i], 2, coloring.k, coloring.labels)
        if not errors:
            self.seen[i] = (coloring.t, coloring.k, dict(coloring.labels))
        return errors


class ExactSearch:
    """tau and exact_decide library calls under node budgets, jobs=1."""

    def __init__(self, spec, ttone):
        self.ttone = ttone
        self.adj = [check.adjacency(job["n"], job["edges"]) for job in spec["jobs"]]

    def run(self, i, job):
        ttone = self.ttone
        budget = ttone.SearchBudget(max_nodes=job["max_nodes"])
        start = time.perf_counter()
        g = ttone.Graph(job["n"], job["edges"])
        if job["kind"] == "tau":
            result = ttone.tau(g, job["t"], budget)
        else:
            result = ttone.exact_decide(g, job["t"], job["k"], budget)
        elapsed = time.perf_counter() - start
        return elapsed, self.check(i, job, result)

    def check(self, i, job, result):
        if job["kind"] == "decide":
            # tau(C9, 5) = 17, so 16 colors can only be refuted or run out.
            ok = result.status in ("infeasible", "timeout")
            return [] if ok else [f"decide returned {result.status}"]
        if result.status == "timeout":
            return [] if job["may_timeout"] else ["tau ran out of budget"]
        if result.status != "resolved" or result.value != job["tau"]:
            return [f"tau {result.status} {result.value}, expected {job['tau']}"]
        col = result.coloring
        if col.t != job["t"] or col.k != result.value:
            return [f"witness t={col.t} k={col.k} for tau {result.value}"]
        return check.coloring_errors(self.adj[i], col.t, col.k, col.labels)


class CliPipeline:
    """One `python -m ttone.cli` child per job, run in the work directory."""

    def __init__(self, spec, spans):
        self.work = spec["work"]
        self.spans = spans
        self.traced = spec["trace"]
        self.env = dict(os.environ, PYTHONPATH=os.path.join(spec["root"], "src"))
        self.checked = {}
        self.graphs = {}
        os.makedirs(self.work, exist_ok=True)
        for name, text in spec["files"].items():
            with open(os.path.join(self.work, name), "w") as fh:
                fh.write(text)
        self.span_file = os.path.join(self.work, "child-spans.jsonl")

    def run(self, i, job):
        argv = job["argv"]
        if self.traced:
            launch = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
            cmd = [sys.executable, SHIM, self.span_file, str(launch), *argv]
        else:
            cmd = [sys.executable, "-m", "ttone.cli", *argv]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=self.work, env=self.env,
                              stdin=subprocess.DEVNULL, capture_output=True)
        elapsed = time.perf_counter() - start
        if self.traced and os.path.exists(self.span_file):
            self.spans.extend(tracing.load(self.span_file, i, len(self.spans)))
            os.remove(self.span_file)
        if job["save"]:
            with open(os.path.join(self.work, job["save"]), "wb") as fh:
                fh.write(proc.stdout)
        return elapsed, self.check(job, proc)

    def check(self, job, proc):
        key = " ".join(job["argv"])
        if proc.returncode != job["exit"]:
            tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
            return [f"{key}: exit {proc.returncode}, expected {job['exit']} {tail}"]
        digest = check.sha256(proc.stdout)
        if digest != job["sha256"]:
            return [f"{key}: stdout sha256 {digest[:12]} differs from the frozen one"]
        if job["check"] is None:
            return []
        if digest not in self.checked:
            self.checked[digest] = self.check_coloring(job, proc.stdout.decode())
        return self.checked[digest]

    def check_coloring(self, job, text):
        graph = job["check"]["graph"]
        if graph not in self.graphs:
            with open(os.path.join(self.work, graph)) as fh:
                n, edges = check.parse_edge_list(fh.read())
            self.graphs[graph] = check.adjacency(n, edges)
        t, k, labels = check.labels_from_json(text)
        if t != job["check"]["t"] or k != job["k"]:
            return [f"coloring t={t} k={k}, expected t={job['check']['t']} k={job['k']}"]
        return check.coloring_errors(self.graphs[graph], t, k, labels)


def main(spec_path: str, result_path: str) -> None:
    with open(spec_path) as fh:
        spec = json.load(fh)
    import ttone
    import ttone.blocks
    src = os.path.realpath(os.path.join(spec["root"], "src"))
    ttone_path = os.path.realpath(ttone.__file__)
    if not ttone_path.startswith(src + os.sep):
        sys.exit(f"ttone was imported from {ttone_path}, not from {src}")

    tracer = tracing.Tracer()
    missing = []
    if spec["trace"] and spec["workload"] != "cli-pipeline":
        missing = tracing.install(tracer, ttone)
        tracer.job = "setup"
    ttone.blocks.ensure_validated()

    if spec["workload"] == "reduce-lift":
        runner = ReduceLift(spec, ttone)
    elif spec["workload"] == "exact-search":
        runner = ExactSearch(spec, ttone)
    else:
        runner = CliPipeline(spec, tracer.spans)

    # Set-up samples are spread over the run, between passes, so that one
    # slow spell of the machine does not set them all.
    setup = []
    if spec["setup_per_pass"]:
        measure_setup(spec["root"])     # may compile the bytecode cache
    speed = probe_start if spec["workload"] == "cli-pipeline" else probe
    latencies, probes, errors, failed, pass_s = [], [], [], 0, []
    begin = time.perf_counter()
    while True:
        p = len(latencies)
        pass_start = time.perf_counter()
        row, probe_row = [], []
        for i, job in enumerate(spec["jobs"]):
            probe_row.append(speed())
            tracer.job = i
            start = time.perf_counter()
            try:
                elapsed, problems = runner.run(i, job)
            except Exception as exc:    # a job that raises is a failed job
                elapsed = time.perf_counter() - start
                problems = [f"{type(exc).__name__}: {exc}"]
            row.append(elapsed)
            if problems:
                failed += 1
                errors += [f"pass {p} job {i}: {msg}" for msg in problems[:3]]
        latencies.append(row)
        probes.append(probe_row)
        pass_s.append(time.perf_counter() - pass_start)
        setup.append([measure_setup(spec["root"]) for _ in range(spec["setup_per_pass"])])
        # Whole passes only, at least min_passes of them, until `seconds`
        # have gone; past cap_s a run stops after its current pass.
        elapsed = time.perf_counter() - begin
        if elapsed > spec["cap_s"] or (len(latencies) >= spec["min_passes"]
                                       and elapsed >= spec["seconds"]):
            break

    # Probe and set-up children load less than any CLI child, so they never
    # hold the children's peak.
    who = (resource.RUSAGE_CHILDREN if spec["workload"] == "cli-pipeline"
           else resource.RUSAGE_SELF)
    result = {
        "workload": spec["workload"],
        "ttone": ttone_path,
        "missing_spans": missing,
        "latencies": latencies,
        "probes": probes,
        "failed": failed,
        "errors": errors[:50],
        "pass_s": pass_s,
        "setup_s": setup,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    if spec["trace"]:
        result["summary"] = tracing.summarize(tracer.spans)
        tracer.dump(spec["spans_out"])
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(*sys.argv[1:])
