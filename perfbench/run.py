"""ttone benchmark: one workload, one seed, printed as one JSON line.

    python3 perfbench/run.py --workload reduce-lift --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: ttone is imported and launched from its
src/, never from an installed copy.  --trace 0 prints the end-to-end metrics;
--trace 1 prints the per-layer metrics of a traced run.  A record of the run
goes to perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))

# A run repeats the pass until --seconds have gone, and at least this many
# times, so that each job's latency is a median of three or more.
MIN_PASSES = 3
# Stop repeating passes after 100 s, and stop a worker that is still
# running 30 s after that, so that every run ends within 180 s.
CAP_S = 100
WORKER_GRACE_S = 30
SETUP_PER_PASS = 4
# Seconds the speed probe takes on the reference machine at full speed:
# worker.probe (a compute kernel) for the library workloads, and
# worker.probe_start (a bare interpreter start) for cli-pipeline.  Times are
# reported at that speed: each pass's raw times are multiplied by this over
# the pass's median probe time.  Raw figures go to the record.
PROBE_NOMINAL_S = {"reduce-lift": 0.0030, "exact-search": 0.0030,
                   "cli-pipeline": 0.015}


class BenchError(Exception):
    pass


def run_worker(root, out, workload, pass_spec, seconds, trace, tag):
    """One worker process.  seconds=0 makes exactly one pass."""
    spec = dict(pass_spec, root=root, workload=workload, trace=trace,
                seconds=seconds, min_passes=MIN_PASSES if seconds else 1,
                cap_s=CAP_S, setup_per_pass=0 if trace else SETUP_PER_PASS,
                work=os.path.join(out, f"work-{workload}"),
                spans_out=os.path.join(out, f"spans-{workload}-{tag}.jsonl"))
    spec_path = os.path.join(out, f"spec-{workload}.json")
    result_path = os.path.join(out, f"result-{workload}-{tag}.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    if os.path.exists(result_path):
        os.remove(result_path)
    # The worker and every process it starts import ttone from src/, with
    # the bytecode cache on, as an installed package has it, whatever
    # PYTHONDONTWRITEBYTECODE says; the first import of a run fills it.
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    # Its own session, so that a worker past its time can be stopped with
    # every CLI child it started.
    with subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"),
                           spec_path, result_path],
                          cwd=root, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            _, err = proc.communicate(timeout=CAP_S + WORKER_GRACE_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{workload} worker ran past {CAP_S + WORKER_GRACE_S} s")
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker failed: {err.strip()[-2000:]}")
    with open(result_path) as fh:
        return json.load(fh)


def speed_factors(res) -> list:
    """Per pass: the probe's nominal time over its median time in the pass."""
    nominal = PROBE_NOMINAL_S[res["workload"]]
    return [nominal / statistics.median(row) for row in res["probes"]]


def job_latencies(res, scaled=True) -> list:
    """Each job's median latency over the passes of a run, in seconds at the
    probe's nominal speed (raw seconds when not scaled)."""
    factors = speed_factors(res) if scaled else [1.0] * len(res["latencies"])
    rows = [[x * f for x in row] for row, f in zip(res["latencies"], factors)]
    return [statistics.median(col) for col in zip(*rows)]


def rate(res, scaled=True) -> float:
    """Checked jobs per second of job time."""
    attempted = sum(len(row) for row in res["latencies"])
    lat = job_latencies(res, scaled)
    return len(lat) * (1 - res["failed"] / attempted) / sum(lat)


def tail(latencies) -> tuple:
    """(value, percentile, samples beyond): the highest percentile with at
    least 10 samples beyond it, by nearest rank."""
    lat = sorted(latencies)
    n = len(lat)
    if n <= 10:
        return lat[-1], 100.0, 0
    return lat[n - 11], 100.0 * (n - 10) / n, 10


def end_to_end(res, scaled=True) -> tuple:
    lat = job_latencies(res, scaled)
    value, pct, beyond = tail(lat)
    metrics = {
        # Not scaled: neither probe follows import time any better than
        # the raw clock does.
        "setup_s": (statistics.median(x for row in res["setup_s"] for x in row), "s"),
        "jobs_per_s": (rate(res, scaled), "1/s"),
        "job_p50_s": (statistics.median(lat), "s"),
        "job_tail_s": (value, "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    attempted = sum(len(row) for row in res["latencies"])
    notes = {"job_tail_percentile": pct, "job_tail_samples_beyond": beyond,
             "samples": len(lat), "passes": len(res["latencies"]),
             "job_latencies_s": lat,
             "failed_ratio": res["failed"] / attempted,
             "speed_factors": speed_factors(res)}
    return metrics, notes


def count_name(span: str) -> str:
    return "graphs.Graph.builds" if span == "graphs.Graph" else f"{span}.calls"


def per_layer(base, runs) -> tuple:
    """Per-layer metrics from two traced passes, each in a fresh process.
    Counts must agree exactly between them; times are their mean."""
    sums = [r["summary"] for r in runs]
    counts = [{**{count_name(n): s["calls"] for n, s in sm["spans"].items()},
               **sm["counters"]} for sm in sums]
    mismatched = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
    metrics = {}
    for name in tracing.SPAN_NAMES:
        metrics[count_name(name)] = (counts[0][count_name(name)], "count")
        metrics[f"{name}.self_s"] = (
            statistics.mean(sm["spans"][name]["self_s"] for sm in sums), "s")
    c = counts[0]
    extend_calls = c["coloring.greedy_extend.calls"]
    metrics["coloring.greedy_extend.hit_ratio"] = (
        c["coloring.greedy_extend.hits"] / extend_calls if extend_calls else 0.0, "ratio")
    for key in ("exact.nodes", "exact.nodes_refute", "exact.nodes_found",
                "exact.timeouts"):
        metrics[key] = (c[key], "count")
    decide_s = statistics.mean(sm["spans"]["exact.exact_decide"]["total_s"] for sm in sums)
    metrics["exact.nodes_per_s"] = (c["exact.nodes"] / decide_s if decide_s else 0.0, "1/s")
    decides = c["exact.exact_decide.calls"]
    metrics["exact.decided_ratio"] = (
        c["exact.decided"] / decides if decides else 0.0, "ratio")
    untraced = rate(base)
    traced = statistics.mean(rate(r) for r in runs)
    metrics["trace.jobs_per_s_untraced"] = (untraced, "1/s")
    metrics["trace.jobs_per_s_traced"] = (traced, "1/s")
    metrics["trace.slowdown"] = (untraced / traced, "ratio")
    notes = {"counts": counts[0], "count_mismatches": mismatched,
             "missing_spans": runs[0]["missing_spans"]}
    return metrics, notes


def run_record(root, workload, seed, trace, ttone_path) -> dict:
    src = os.path.join(root, "src", "ttone")
    lines, digest = 0, hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    data = fh.read()
                lines += data.count(b"\n")
                digest.update(name.encode() + b"\0" + data)
    return {"workload": workload, "seed": seed, "trace": trace,
            "commit": git_commit(root), "src_sha256": digest.hexdigest(),
            "src_ttone_lines": lines, "ttone": ttone_path,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def git_commit(root: str):
    """HEAD of the checkout when it is a git work tree, else None."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              cwd=root, capture_output=True, text=True)
    except OSError:
        return None
    lines = proc.stdout.split()
    if proc.returncode or os.path.realpath(lines[0]) != os.path.realpath(root):
        return None
    return lines[1]


def run_workload(root, out, workload, seed, seconds, trace) -> dict:
    pass_spec = workloads.make_jobs(workload, seed)
    if trace:
        base = run_worker(root, out, workload, pass_spec, 0, False, "untraced")
        runs = [run_worker(root, out, workload, pass_spec, 0, True, f"traced{i}")
                for i in (1, 2)]
        metrics, notes = per_layer(base, runs)
        results = [base, *runs]
    else:
        res = run_worker(root, out, workload, pass_spec, seconds, False, "run")
        metrics, notes = end_to_end(res)
        notes["raw_metrics"] = {k: v for k, (v, _) in end_to_end(res, False)[0].items()}
        results = [res]
    attempted = sum(len(row) for r in results for row in r["latencies"])
    failed = sum(r["failed"] for r in results)
    errors = [e for r in results for e in r["errors"]]
    mismatches = notes.get("count_mismatches", [])
    if mismatches:
        errors.append(f"counts differ between the two traced passes: {mismatches}")
    record = run_record(root, workload, seed, trace, results[0]["ttone"])
    record.update(jobs_per_pass=len(pass_spec["jobs"]),
                  pass_s=[r["pass_s"] for r in results],
                  inputs=[job.get("digest") or " ".join(job["argv"])
                          for job in pass_spec["jobs"]],
                  cli_sizes=pass_spec.get("sizes"),
                  attempted=attempted, failed=failed, errors=errors,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                  notes=notes)
    path = os.path.join(out, f"{workload}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ttone", "__init__.py")):
        print(f"no src/ttone under {root}: run from the root of a ttone checkout",
              file=sys.stderr)
        return 2
    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    try:
        for name in names:
            records.append(run_workload(root, out, name, args.seed, args.seconds,
                                        bool(args.trace)))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for rec in records:
        for key, m in rec["metrics"].items():
            print(f"{rec['workload']:<13} {key:<40} {m['value']:.6g} {m['unit']}")
        if not args.trace:
            n = rec["notes"]
            print(f"{rec['workload']:<13} job_tail_s is p{n['job_tail_percentile']:.1f} "
                  f"of {n['samples']} jobs, {n['job_tail_samples_beyond']} beyond; "
                  f"failed_ratio {n['failed_ratio']:.3g}")
        for err in rec["errors"][:10]:
            print(f"{rec['workload']:<13} FAILED {err}")
    single = len(records) == 1
    summary = {
        "correct": all(not rec["errors"] for rec in records),
        "attempted": sum(rec["attempted"] for rec in records),
        "failed": sum(rec["failed"] for rec in records),
        "metrics": {(key if single else f"{rec['workload']}/{key}"): m
                    for rec in records for key, m in rec["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
