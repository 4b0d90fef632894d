"""Spans around calls into ttone's public functions, recorded from outside.

`install` wraps each target in its defining module and in every ttone module
that imported the same object by name, so calls between modules are seen
too.  Spans stay in memory; `dump` writes them when the pass ends.  Nothing
under src/ is changed on disk.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, attribute path): the span is named "<module>.<attribute path>",
# except that Graph.__init__ is "graphs.Graph" and counts builds.
TARGETS = [
    ("graphs", "Graph.__init__"),
    ("graphs", "Graph.delete_vertices"),
    ("graphs", "contract"),
    ("graphs", "mad"),
    ("graphs", "find_thread_config"),
    ("graphs", "find_planar_reducible"),
    ("graphs", "find_outerplanar_edge"),
    ("graphs", "distances_within"),
    ("graphs", "constraint_pairs"),
    ("graphs", "read_edge_list"),
    ("graphs", "write_edge_list"),
    ("coloring", "verify"),
    ("coloring", "Coloring.from_json"),
    ("coloring", "Coloring.to_json"),
    ("coloring", "greedy_extend"),
    ("constructions", "color_planar"),
    ("constructions", "color_outerplanar"),
    ("constructions", "color_sparse"),
    ("constructions", "color_cycle"),
    ("constructions", "decompose"),
    ("constructions", "color_grid"),
    ("exact", "tau"),
    ("exact", "exact_decide"),
    ("bounds", "best_lower_bound"),
    ("bounds", "certificates"),
    ("blocks", "ensure_validated"),
]

CLI_VERBS = ("gen", "color", "verify", "tau", "bounds", "mad")


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr[:-len('.__init__')]}" if attr.endswith(".__init__") \
        else f"{module}.{attr}"


SPAN_NAMES = [span_name(m, a) for m, a in TARGETS] + \
    [f"cli.run.{verb}" for verb in CLI_VERBS] + ["cli.child_start"]


def _decide_outcome(result):
    return [result.status, result.nodes]


def _label_found(result):
    return result is not None


# Results kept beside the span, for counters the return value carries.
RESULT_HOOKS = {"exact.exact_decide": _decide_outcome,
                "coloring.greedy_extend": _label_found}


class Tracer:
    """Spans (name, start, end, parent index, job id, outcome) of one process."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = None

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        hook = RESULT_HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, tracer.job,
                              hook(result) if hook and result is not None else None)

        return traced

    def add(self, name: str, start: float, end: float) -> None:
        """A span measured outside this process's calls (child start)."""
        self.spans.append((name, start, end, -1, self.job, None))

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def install(tracer: Tracer, package) -> list:
    """Wrap every target found; returns the span names that are missing."""
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == package.__name__
                                     or name.startswith(package.__name__ + "."))]
    missing = []
    for module_name, attr in TARGETS:
        name = span_name(module_name, attr)
        module = sys.modules.get(f"{package.__name__}.{module_name}")
        owner_name, _, leaf = attr.rpartition(".")
        owner = module
        for part in filter(None, owner_name.split(".")):
            owner = getattr(owner, part, None)
        if owner is None or leaf not in vars(owner):
            missing.append(name)
            continue
        raw = vars(owner)[leaf]
        if owner is not module:             # a method of a class
            if isinstance(raw, classmethod):
                setattr(owner, leaf, classmethod(tracer.wrap(name, raw.__func__)))
            else:
                setattr(owner, leaf, tracer.wrap(name, raw))
            continue
        wrapped = tracer.wrap(name, raw)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is raw:
                    setattr(mod, key, wrapped)
    return missing


def load(path: str, job, base: int) -> list:
    """Spans another process dumped, tagged with a job id, with parent
    indices moved to follow `base` spans already held."""
    out = []
    with open(path) as fh:
        for line in fh:
            name, start, end, parent, _, extra = json.loads(line)
            out.append((name, start, end, parent + base if parent >= 0 else -1,
                        job, extra))
    return out


def summarize(spans: list) -> dict:
    """Per span name: calls, self seconds, total seconds; plus counters taken
    from results.  Spans of one process are nested, so a span's self time is
    its duration minus its direct children's durations."""
    child = [0.0] * len(spans)
    for i, (_, start, end, parent, *_rest) in enumerate(spans):
        if parent >= 0:
            child[parent] += end - start
    stats = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0}
             for name in SPAN_NAMES}
    extra = {"exact.nodes": 0, "exact.nodes_refute": 0, "exact.nodes_found": 0,
             "exact.timeouts": 0, "exact.decided": 0, "coloring.greedy_extend.hits": 0}
    for i, (name, start, end, parent, job, outcome) in enumerate(spans):
        s = stats.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        s["calls"] += 1
        s["self_s"] += (end - start) - child[i]
        s["total_s"] += end - start
        if name == "exact.exact_decide" and outcome:
            status, nodes = outcome
            extra["exact.nodes"] += nodes
            extra["exact.nodes_found" if status == "colored"
                  else "exact.nodes_refute"] += nodes
            extra["exact.timeouts"] += status == "timeout"
            extra["exact.decided"] += status in ("colored", "infeasible")
        elif name == "coloring.greedy_extend" and outcome:
            extra["coloring.greedy_extend.hits"] += 1
    return {"spans": stats, "counters": extra}
