"""Golden corpus for the colorers and the CLI.

Every case stores the sha256 of one output: the coloring JSON of
color_sparse, color_outerplanar or color_planar (or the text of the
ClassPreconditionError it raises), the unreduced "numerator denominator"
of mad (or the text of the GraphError it raises), the coloring JSON of
color_cycle(n, t), or the exit code, stdout and stderr of one CLI run:
`ttone color` and `ttone mad` on a `ttone gen` graph, `color --family path`
at tones 1, 4 and 5, `bounds`, `mad` and `tau --t 3` on small cycles, and
`color --family cycle|auto` and `bounds` on cycles with shuffled ids.  The
mad cases pin the witness as well as the value: on mix, mix-dense and some
subdivided graphs the densest subgraph is a proper one.
Any byte drift fails.  After an intended and recorded output change, rewrite the table with

    PYTHONPATH=src python tests/test_golden.py > tests/golden_sha256.json
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from ttone import cli
from ttone.constructions import (ClassPreconditionError, color_cycle,
                                 color_outerplanar, color_planar, color_sparse)
from ttone.graphs import (Graph, GraphError, gen_cycle, gen_path, gen_star, mad,
                          write_edge_list)
from ttone.instances import (random_apollonian, random_maximal_outerplanar,
                             random_subdivided, subdivide)

GOLDEN = Path(__file__).with_name("golden_sha256.json")
COLORERS = {"sparse": color_sparse, "outerplanar": color_outerplanar,
            "planar": color_planar}


def _relabeled(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _union(*parts) -> Graph:
    edges, offset = [], 0
    for g in parts:
        edges.extend((u + offset, v + offset) for u, v in g.edges())
        offset += g.n
    return Graph(offset, edges)


def _graphs() -> dict:
    rng = random.Random(20261018)
    seeded = {}
    for i in range(8):
        seeded[f"subdivided{i}"] = random_subdivided(
            rng, n_base=rng.randint(4, 20), extra_edges=rng.randint(0, 5))
        seeded[f"outerplanar{i}"] = random_maximal_outerplanar(
            rng, rng.randint(3, 100))
        seeded[f"apollonian{i}"] = random_apollonian(rng, rng.randint(1, 110))
    k4 = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    seeded["k4-threads2"] = subdivide(k4, lambda u, v: 2)
    seeded["k4-threads3"] = subdivide(k4, lambda u, v: 3)
    seeded["star20-threads5"] = subdivide(gen_star(20), lambda u, v: 5)
    graphs = {
        "empty": Graph(0, []),
        "single": Graph(1, []),
        "star400": gen_star(400),
        "mix": _union(gen_cycle(7), Graph(1, []), gen_path(4), gen_star(5),
                      random_subdivided(rng)),
        "mix-dense": _union(random_apollonian(rng, 20), gen_cycle(5),
                            Graph(2, []), random_maximal_outerplanar(rng, 9)),
    }
    for name, g in seeded.items():
        graphs[name] = g
        graphs[name + "-relabeled"] = _relabeled(g, rng)
    return graphs


def _run_cli(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(argv)
    return f"{code}\n{out.getvalue()}\n{err.getvalue()}"


def outputs():
    """(case name, output text) for every golden case."""
    for name, g in _graphs().items():
        for family, color in COLORERS.items():
            try:
                text = color(g).to_json()
            except ClassPreconditionError as exc:
                text = f"ClassPreconditionError: {exc}"
            yield f"{family}/{name}", text
        try:
            dens = mad(g)
            text = f"{dens.numerator} {dens.denominator}"
        except GraphError as exc:
            text = str(exc)
        yield f"mad/{name}", text
    gens = [["subdivided"], ["outerplanar", "--size", "25"],
            ["apollonian", "--size", "40"]]
    with tempfile.TemporaryDirectory() as tmp:
        for gen in gens:
            for seed in (1, 2):
                path = os.path.join(tmp, f"{gen[0]}{seed}.el")
                _run_cli(["gen", "--random", *gen, "--seed", str(seed),
                          "-o", path])
                for family in (*COLORERS, "auto"):
                    yield (f"cli/{gen[0]}{seed}/{family}",
                           _run_cli(["color", "--family", family, "--in", path]))
                yield f"cli/{gen[0]}{seed}/mad", _run_cli(["mad", "--in", path])
        shapes = [["--path", "1"], ["--path", "7"], ["--cycle", "4"],
                  ["--cycle", "9"], ["--grid", "1", "5"], ["--grid", "2", "2"],
                  ["--grid", "3", "4"], ["--grid", "4", "3"], ["--star", "4"],
                  ["--fat-triangle", "1"], ["--fat-triangle", "3"]]
        for shape in shapes:
            name = "".join(shape).lstrip("-")
            path = os.path.join(tmp, f"{name}.el")
            _run_cli(["gen", *shape, "-o", path])
            for family in ("path", "cycle", "grid", "fat-triangle", "auto"):
                for t in ("2", "3"):
                    yield (f"cli/{name}/{family}/t{t}",
                           _run_cli(["color", "--family", family, "--t", t,
                                     "--in", path]))
        path = os.path.join(tmp, "path40.el")
        _run_cli(["gen", "--path", "40", "-o", path])
        for name in ("path7", "path40"):
            path = os.path.join(tmp, f"{name}.el")
            for t in ("1", "4", "5"):
                yield (f"cli/{name}/path/t{t}",
                       _run_cli(["color", "--family", "path", "--t", t,
                                 "--in", path]))
        # cycles with shuffled ids: the recognizer walks them, where the
        # generator layout would read in id order
        shuffle = random.Random(1009)
        for n in (9, 10):
            path = os.path.join(tmp, f"c{n}-relabeled.el")
            Path(path).write_text(
                write_edge_list(_relabeled(gen_cycle(n), shuffle)))
            for family in ("cycle", "auto"):
                for t in ("2", "3", "4", "5"):
                    yield (f"cli/c{n}-relabeled/{family}/t{t}",
                           _run_cli(["color", "--family", family, "--t", t,
                                     "--in", path]))
            for t in ("3", "5"):
                yield f"cli/c{n}-relabeled/bounds/t{t}", _run_cli(
                    ["bounds", "--t", t, "--in", path])
        for n in (5, 6, 7):
            path = os.path.join(tmp, f"c{n}.el")
            _run_cli(["gen", "--cycle", str(n), "-o", path])
            for t in ("2", "3", "4", "5"):
                yield f"cli/c{n}/bounds/t{t}", _run_cli(
                    ["bounds", "--t", t, "--in", path])
            yield f"cli/c{n}/mad", _run_cli(["mad", "--in", path])
            yield f"cli/c{n}/tau/t3", _run_cli(["tau", "--t", "3", "--in", path])
    for t in (2, 3, 4, 5):
        for n in (*range(3, 61), 997, 998, 999, 1000, 1001):
            yield f"cycle/{n}/t{t}", color_cycle(n, t).to_json()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_outputs_match_golden():
    got = {name: _sha(text) for name, text in outputs()}
    want = json.loads(GOLDEN.read_text())
    drift = sorted(n for n in want.keys() | got.keys()
                   if want.get(n) != got.get(n))
    assert not drift, f"golden outputs drifted: {drift}"


if __name__ == "__main__":
    table = {name: _sha(text) for name, text in outputs()}
    json.dump(table, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
