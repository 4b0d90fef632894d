import io
import json
import os
import random
import re
import resource
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ball_verify_partial, count_verifies
import ttone
from ttone import blocks, cli, constructions, instances
from ttone.cli import run
from ttone.coloring import Coloring, ColoringError
from ttone.graphs import (MAX_EDGE_LIST_VERTICES, Graph, gen_cycle,
                          gen_fat_triangle, gen_grid, gen_path, read_edge_list,
                          write_edge_list)


def invoke(argv, capsys, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io
        import sys
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_families(tmp_path, capsys):
    code, out, _ = invoke(["gen", "--cycle", "5"], capsys)
    assert code == 0
    assert read_edge_list(out) == gen_cycle(5)
    code, out, _ = invoke(["gen", "--grid", "2", "3"], capsys)
    assert code == 0 and out.splitlines()[0] == "6 7"
    dest = tmp_path / "g.el"
    code, _, _ = invoke(["gen", "--star", "4", "-o", str(dest)], capsys)
    assert code == 0 and dest.read_text().splitlines()[0] == "5 4"
    code, out, _ = invoke(["gen", "--random", "apollonian", "--size", "5",
                           "--seed", "9"], capsys)
    assert code == 0 and read_edge_list(out).n == 8


def test_gen_random_size(capsys):
    def gen(family, *size):
        return invoke(["gen", "--random", family, *size, "--seed", "3"], capsys)

    for family, below in [("subdivided", "0"), ("outerplanar", "2"),
                          ("apollonian", "-1")]:
        code, out, err = gen(family, "--size", below)
        assert code == 2 and out == "" and "needs --size >= " in err, family
    assert read_edge_list(gen("apollonian", "--size", "0")[1]).n == 3
    assert read_edge_list(gen("outerplanar", "--size", "3")[1]).n == 3
    assert gen("outerplanar") == gen("outerplanar", "--size", "12")
    assert gen("apollonian") == gen("apollonian", "--size", "12")
    # subdivided: --size is the base tree's vertex count, 8 when absent
    assert gen("subdivided") == gen("subdivided", "--size", "8")
    assert read_edge_list(gen("subdivided", "--size", "1")[1]).n == 1
    sizes = [read_edge_list(gen("subdivided", "--size", s)[1]).n
             for s in ("3", "50")]
    assert sizes[0] < sizes[1] and sizes[1] >= 50


def test_gen_takes_exactly_one_family(capsys):
    for argv in (["--cycle", "4", "--random", "apollonian", "--size", "2"],
                 ["--path", "3", "--star", "2"],
                 [],
                 ["--star", "2", "--size", "-5"],
                 ["--cycle", "4", "--size", "3"]):
        code, out, err = invoke(["gen", *argv], capsys)
        assert code == 2 and out == "" and err, argv


def test_gen_seed_determinism(capsys):
    a = invoke(["gen", "--random", "subdivided", "--seed", "4"], capsys)
    b = invoke(["gen", "--random", "subdivided", "--seed", "4"], capsys)
    assert a == b


def test_color_cycle_pipeline(capsys, monkeypatch):
    graph_text = write_edge_list(gen_cycle(13))
    code, out, _ = invoke(["color", "--family", "cycle", "--t", "3"],
                          capsys, stdin=graph_text, monkeypatch=monkeypatch)
    assert code == 0
    col = Coloring.from_json(out)
    assert col.t == 3 and len(col.colors_used()) == 9


def test_color_output_byte_identical(capsys, monkeypatch):
    graph_text = write_edge_list(gen_grid(3, 3))
    runs = [invoke(["color", "--family", "grid", "--t", "4"], capsys,
                   stdin=graph_text, monkeypatch=monkeypatch)
            for _ in range(2)]
    assert runs[0] == runs[1] and runs[0][0] == 0


def test_round_trip_all_families(tmp_path, capsys, monkeypatch):
    cases = [
        (["gen", "--path", "9"], "path", [2, 3, 4, 5]),
        (["gen", "--cycle", "11"], "cycle", [2, 3, 4, 5]),
        (["gen", "--grid", "3", "5"], "grid", [2, 3, 4, 5]),
        (["gen", "--fat-triangle", "4"], "fat-triangle", [2]),
        (["gen", "--random", "subdivided", "--seed", "1"], "sparse", [2]),
        (["gen", "--random", "outerplanar", "--size", "10", "--seed", "2"],
         "outerplanar", [2]),
        (["gen", "--random", "apollonian", "--size", "12", "--seed", "3"],
         "planar", [2]),
    ]
    for gen_argv, family, tones in cases:
        gfile = tmp_path / f"{family}.el"
        code, _, _ = invoke(gen_argv + ["-o", str(gfile)], capsys)
        assert code == 0
        for t in tones:
            cfile = tmp_path / f"{family}.{t}.json"
            code, _, err = invoke(
                ["color", "--family", family, "--t", str(t),
                 "--in", str(gfile), "-o", str(cfile)], capsys)
            assert code == 0, (family, t, err)
            code, out, _ = invoke(
                ["verify", "--graph", str(gfile), "--in", str(cfile)], capsys)
            assert code == 0 and json.loads(out) == {"ok": True}, (family, t)


def test_verify_detects_tampering(tmp_path, capsys):
    gfile = tmp_path / "g.el"
    cfile = tmp_path / "c.json"
    invoke(["gen", "--grid", "3", "3", "-o", str(gfile)], capsys)
    invoke(["color", "--family", "grid", "--t", "3", "--in", str(gfile),
            "-o", str(cfile)], capsys)
    col = Coloring.from_json(cfile.read_text())
    col.labels[1] = col.labels[0]   # copy a label onto a neighbor
    cfile.write_text(col.to_json())
    code, out, _ = invoke(["verify", "--graph", str(gfile), "--in", str(cfile)],
                          capsys)
    assert code == 1
    lines = out.strip().splitlines()
    assert lines and all("shared" in ln for ln in lines)


def test_verify_structural_error(tmp_path, capsys):
    gfile = tmp_path / "g.el"
    invoke(["gen", "--path", "2", "-o", str(gfile)], capsys)
    cfile = gfile.with_suffix(".json")
    cfile.write_text(json.dumps(
        {"t": 2, "k": 3, "labels": {"0": [1, 9], "1": [1, 2]}}))
    code, _, err = invoke(["verify", "--graph", str(gfile), "--in", str(cfile)],
                          capsys)
    assert code == 2
    # A coloring is taken exactly as written or refused: none of these
    # near-valid C4 colorings may be coerced into one that verifies.
    invoke(["gen", "--cycle", "4", "-o", str(gfile)], capsys)
    good = {"0": [1, 2], "1": [3, 4], "2": [1, 5], "3": [3, 6]}
    cfile.write_text(json.dumps({"t": 2, "k": 6, "labels": good}))
    assert invoke(["verify", "--graph", str(gfile), "--in", str(cfile)],
                  capsys)[:2] == (0, '{"ok":true}\n')
    for text in [
        '{"t":2.5,"k":6,"labels":{"0":[1.9,2],"1":[3,4],"2":[1,5],"3":[3,6]}}',
        json.dumps({"t": True, "k": 6, "labels": good}),
        json.dumps({"t": 2, "k": 6.0, "labels": good}),
        json.dumps({"t": 2, "k": "6", "labels": good}),
        json.dumps({"t": 2, "k": 6, "labels": {**good, "0": [True, 2]}}),
        json.dumps({"t": 2, "k": 6, "labels": {**good, "0": "12"}}),
        json.dumps({"t": 2, "k": 6, "labels": {**good, "00": [1, 2]}}),
        json.dumps({"t": 2, "k": 6, "labels": {**good, "+1": [3, 4]}}),
        '{"t":2,"k":6,"labels":{"0":[1,2],"0":[1,2],"1":[3,4],"2":[1,5],"3":[3,6]}}',
        json.dumps({"t": 2, "k": 6, "labels": [[1, 2]]}),
    ]:
        cfile.write_text(text)
        code, out, err = invoke(["verify", "--graph", str(gfile), "--in", str(cfile)],
                                capsys)
        assert (code, out) == (2, "") and err.startswith("error: "), text


@pytest.mark.parametrize("labels", [
    {"0": [1, 2], "1": [3, 4], "2": [1, 3], "3": [2, 4]},
    {"3": [2, 4], "0": [1, 2, 3], "1": [3, 4], "2": [1, 3]}])
def test_verify_refuses_a_label_on_vertex_id_n(tmp_path, capsys, labels):
    # id 3 on the 3-vertex path, with every label well-formed and with
    # another label bad after it: one error line, no traceback
    gfile = tmp_path / "p3.el"
    gfile.write_text(write_edge_list(gen_path(3)))
    cfile = tmp_path / "c.json"
    cfile.write_text(json.dumps({"t": 2, "k": 4, "labels": labels}))
    code, out, err = invoke(["verify", "--graph", str(gfile), "--in", str(cfile)],
                            capsys)
    assert (code, out, err) == (2, "", "error: label on unknown vertex 3\n")


@pytest.mark.parametrize("label", [5, "ab", {"a": 1}, None, [1, True]])
def test_verify_refuses_a_label_that_is_no_list_of_ints(tmp_path, capsys,
                                                          label):
    # a label of each JSON type but a list of integers is refused by the
    # reader, with one error line and no traceback
    gfile = tmp_path / "p2.el"
    gfile.write_text(write_edge_list(gen_path(2)))
    cfile = tmp_path / "c.json"
    cfile.write_text(json.dumps(
        {"t": 2, "k": 4, "labels": {"0": label, "1": [3, 4]}}))
    code, out, err = invoke(["verify", "--graph", str(gfile), "--in", str(cfile)],
                            capsys)
    assert (code, out) == (2, "")
    assert err == (f"error: bad coloring JSON: vertex 0: label {label!r} "
                   "is not a list of integers\n")


def test_verify_deeply_nested_json(tmp_path, capsys):
    # deeper than the JSON parser's stack: refused as malformed (exit 2),
    # not a traceback under the exit code of violations
    gfile = tmp_path / "one.el"
    gfile.write_text("1 0\n")
    cfile = tmp_path / "deep.json"
    cfile.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = invoke(["verify", "--graph", str(gfile), "--in", str(cfile)],
                            capsys)
    assert (code, out) == (2, "") and err.startswith("error: ")
    assert "Traceback" not in err


def test_verify_refuses_two_inputs_from_stdin(tmp_path, capsys, monkeypatch):
    text = write_edge_list(gen_cycle(4))
    for argv in (["verify", "--graph", "-"],
                 ["verify", "--graph", "-", "--in", "-"]):
        code, out, err = invoke(argv, capsys, stdin=text, monkeypatch=monkeypatch)
        assert (code, out) == (2, "") and "both come from stdin" in err, argv
    # one of the two from stdin still works
    gfile = tmp_path / "c4.el"
    gfile.write_text(text)
    good = '{"k":6,"labels":{"0":[1,2],"1":[3,4],"2":[1,5],"3":[3,6]},"t":2}'
    code, out, _ = invoke(["verify", "--graph", str(gfile)], capsys,
                          stdin=good, monkeypatch=monkeypatch)
    assert (code, out) == (0, '{"ok":true}\n')


def test_edge_list_header_over_limit_exits_2(capsys, monkeypatch):
    code, out, err = invoke(["mad"], capsys,
                            stdin=f"{MAX_EDGE_LIST_VERTICES + 1} 0\n",
                            monkeypatch=monkeypatch)
    assert (code, out) == (2, "") and "limit" in err


def test_gen_refuses_graphs_over_the_edge_list_limit(capsys, monkeypatch):
    # every generator is replaced, so a missed refusal exits 5, not slowly 0
    def unbuilt(*args):
        raise AssertionError("gen built a graph above the limit")

    for name in ("gen_path", "gen_cycle", "gen_grid", "gen_star"):
        monkeypatch.setattr(cli, name, unbuilt)
    for family, (_, size, least, most) in list(cli._RANDOM.items()):
        monkeypatch.setitem(cli._RANDOM, family, (unbuilt, size, least, most))
    over = MAX_EDGE_LIST_VERTICES + 1
    for argv in (["--path", over], ["--cycle", over], ["--grid", over, 1],
                 ["--star", over - 1],
                 ["--random", "outerplanar", "--size", over],
                 ["--random", "apollonian", "--size", over - 3]):
        code, out, err = invoke(["gen", *map(str, argv)], capsys)
        assert (code, out) == (2, "") and f"up to {over} vertices" in err, argv


def test_gen_subdivided_vertex_bound():
    _, _, _, most = cli._RANDOM["subdivided"]
    for seed in range(40):
        for size in (1, 2, 5, 30):
            g = instances.random_subdivided(random.Random(seed), size)
            assert g.n <= most(size), (seed, size)


def test_tau_verb(tmp_path, capsys):
    gfile = tmp_path / "c4.el"
    invoke(["gen", "--cycle", "4", "-o", str(gfile)], capsys)
    wfile = tmp_path / "w.json"
    code, out, _ = invoke(["tau", "--t", "4", "--in", str(gfile),
                           "--emit-witness", str(wfile)], capsys)
    assert code == 0
    assert json.loads(out)["value"] == 14
    witness = Coloring.from_json(wfile.read_text())
    assert len(witness.colors_used()) == 14


def test_tau_budget_exhaustion(tmp_path, capsys):
    gfile = tmp_path / "c9.el"
    invoke(["gen", "--cycle", "9", "-o", str(gfile)], capsys)
    code, out, _ = invoke(["tau", "--t", "4", "--in", str(gfile),
                           "--max-nodes", "10"], capsys)
    assert code == 3
    assert json.loads(out)["status"] == "timeout"


def capped_cli(cap: int, *argv, stdin=""):
    """`python -m ttone.cli argv` in a child whose address space is capped
    at cap bytes (RLIMIT_AS), on the src/ under test."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ttone.__file__)))

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    return subprocess.run([sys.executable, "-m", "ttone.cli", *argv],
                          input=stdin, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src),
                          preexec_fn=limit)


def test_tau_near_the_tone_runs_in_one_gib():
    # tau --t 40 on three isolated vertices compiles the palette k = t = 40,
    # whose tables must stay small where C(40, 20) bits would not fit
    out = capped_cli(1 << 30, "tau", "--t", "40", stdin="3 0\n")
    assert out.returncode == 0, out.stderr
    assert '"value":40' in out.stdout


def test_out_of_memory_exits_3():
    # a million-vertex cycle does not fit in 200 MiB: a resource bound, like
    # the search budget, reported on one line with no traceback
    out = capped_cli(200 << 20, "gen", "--cycle", "1000000")
    assert (out.returncode, out.stdout) == (3, "")
    assert out.stderr == "error: out of memory\n"


def test_bounds_verb(tmp_path, capsys):
    gfile = tmp_path / "g.el"
    invoke(["gen", "--grid", "4", "4", "-o", str(gfile)], capsys)
    code, out, _ = invoke(["bounds", "--t", "3", "--in", str(gfile)], capsys)
    assert code == 0
    certs = [json.loads(ln) for ln in out.strip().splitlines()]
    assert {"C4Subgraph", "PathFormula"} <= {c["kind"] for c in certs}
    assert max(c["bound"] for c in certs) == 10


def test_mad_verb(tmp_path, capsys):
    gfile = tmp_path / "g.el"
    invoke(["gen", "--star", "4", "-o", str(gfile)], capsys)
    code, out, _ = invoke(["mad", "--in", str(gfile)], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["reduced"] == [8, 5]


def test_class_precondition_exit_code(tmp_path, capsys):
    gfile = tmp_path / "k4.el"
    gfile.write_text("4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    code, _, err = invoke(["color", "--family", "outerplanar", "--t", "2",
                           "--in", str(gfile)], capsys)
    assert code == 4 and "outerplanar" in err
    gfile.write_text("5 6\n0 1\n0 2\n0 4\n1 2\n2 3\n3 4\n")  # mad 12/5
    code, out, err = invoke(["color", "--family", "sparse", "--in", str(gfile)],
                            capsys)
    assert (code, out) == (4, "") and "12/5" in err


def _out_of_memory(g):
    raise MemoryError


_K14 = "14 91\n" + "".join(f"{u} {v}\n" for u in range(14)
                           for v in range(u + 1, 14))
_C5 = "5 5\n0 1\n1 2\n2 3\n3 4\n0 4\n"


@pytest.mark.parametrize("argv, graph, sparse, code, err", [
    (["--family", "cycle", "--t", "1"], _C5, None, 2,
     "error: family cycle colors tones 2..5\n"),
    (["--family", "planar"], _K14, None, 4,
     "error: input not planar: no reducible vertex\n"),
    (["--family", "sparse"], _C5, _out_of_memory, 3, "error: out of memory\n"),
], ids=["cycle-tone-1", "planar-k14", "out-of-memory"])
def test_color_refusals_exit_codes(tmp_path, capsys, monkeypatch, argv, graph,
                                   sparse, code, err):
    if sparse is not None:
        monkeypatch.setattr(constructions, "color_sparse", sparse)
    gfile = tmp_path / "g.el"
    gfile.write_text(graph)
    assert invoke(["color", *argv, "--in", str(gfile)], capsys) == \
        (code, "", err)


@pytest.mark.parametrize("error", [AssertionError("invariant broke"),
                                   ColoringError(3)])
def test_internal_failure_exit_code(tmp_path, capsys, monkeypatch, error):
    def broken(g):
        raise error

    monkeypatch.setattr(constructions, "color_sparse", broken)
    gfile = tmp_path / "c5.el"
    invoke(["gen", "--cycle", "5", "-o", str(gfile)], capsys)
    code, out, err = invoke(["color", "--family", "sparse", "--in", str(gfile)],
                            capsys)
    assert (code, out) == (5, "")
    assert err == f"error: internal: {error}\n"


def test_grid_job_exits_5_on_an_invalid_grid_coloring(capsys, monkeypatch):
    monkeypatch.setattr(constructions, "_grid_label", lambda i, j, t: (1, 2))
    code, out, err = invoke(["color", "--family", "grid"], capsys,
                            stdin=write_edge_list(gen_grid(3, 3)),
                            monkeypatch=monkeypatch)
    assert (code, out) == (5, "")
    assert err.startswith("error: internal: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_grid_job_exits_5_under_python_O():
    # the check of every emitted coloring is an explicit raise, which -O
    # keeps; a bare assert would be stripped and the job would exit 0
    probe = ("import sys; from ttone import cli, constructions; "
             "constructions._grid_label = lambda i, j, t: (1, 2); "
             "sys.exit(cli.run(['color', '--family', 'grid', '--t', '2']))")
    src = os.path.dirname(os.path.dirname(os.path.abspath(ttone.__file__)))
    out = subprocess.run([sys.executable, "-O", "-c", probe],
                         input=write_edge_list(gen_grid(3, 3)),
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True)
    assert (out.returncode, out.stdout) == (5, "")
    assert out.stderr.startswith("error: internal: ")
    assert "Traceback" not in out.stderr


def test_corrupt_block_table_exits_5(capsys, monkeypatch):
    # the blocks self-check raises RuntimeError, an internal failure
    seq = list(blocks._BLOCKS_T2[5])
    seq[1] = seq[0]
    monkeypatch.setitem(blocks._BLOCKS_T2, 5, tuple(seq))
    blocks.ensure_validated.cache_clear()
    code, out, err = invoke(["color", "--family", "cycle", "--t", "2"], capsys,
                            stdin=write_edge_list(gen_cycle(9)),
                            monkeypatch=monkeypatch)
    assert (code, out) == (5, "")
    assert err.startswith("error: internal: tone-2 block 5 fails")
    assert err.count("\n") == 1 and "Traceback" not in err


# (family, tone, graph): one color job per family, each also run with auto
_JOBS = [
    ("path", 3, gen_path(7)),
    ("cycle", 5, gen_cycle(9)),
    ("cycle", 2, gen_cycle(23)),
    ("grid", 2, gen_grid(3, 4)),
    ("fat-triangle", 2, gen_fat_triangle(1)),
    ("fat-triangle", 2, gen_fat_triangle(3)),
    ("sparse", 2, instances.random_subdivided(random.Random(1))),
    ("outerplanar", 2,
     instances.random_maximal_outerplanar(random.Random(2), 12)),
    ("planar", 2, instances.random_apollonian(random.Random(3), 12)),
]


@pytest.mark.parametrize("family", [*cli._FAMILIES, "auto"])
def test_color_job_verifies_once(capsys, monkeypatch, family):
    calls = count_verifies(monkeypatch)
    jobs = [job for job in _JOBS if family in (job[0], "auto")]
    assert jobs
    for _, t, g in jobs:
        calls.clear()
        code, _, err = invoke(["color", "--family", family, "--t", str(t)],
                              capsys, stdin=write_edge_list(g),
                              monkeypatch=monkeypatch)
        assert code == 0, err
        assert len(calls) == 1, (family, t, g.n, calls)


@st.composite
def relabeled_lines(draw):
    """(graph, tone): a path or cycle on at most 40 vertices with permuted
    ids, at a tone its family colors."""
    cycle = draw(st.booleans())
    n = draw(st.integers(3 if cycle else 1, 40))
    t = draw(st.integers(2 if cycle else 1, 5))
    perm = draw(st.permutations(range(n)))
    line = gen_cycle(n) if cycle else gen_path(n)
    return Graph(n, [(perm[u], perm[v]) for u, v in line.edges()]), t


@settings(max_examples=80, deadline=None)
@given(relabeled_lines(), st.sampled_from(["line", "auto"]))
def test_path_and_cycle_colorings_are_valid_on_the_input(case, family):
    # color trusts _along to keep the coloring valid on g; check it there
    # with an oracle that shares no code with verify
    g, t = case
    if family == "line":
        family = "cycle" if g.m == g.n else "path"
    out = io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(write_edge_list(g))
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = run(["color", "--family", family, "--t", str(t)])
    finally:
        sys.stdin = saved
    assert code == 0
    col = Coloring.from_json(out.getvalue())
    assert col.t == t and sorted(col.labels) == list(range(g.n))
    assert ball_verify_partial(g, col) == []


def test_auto_family_dispatch(tmp_path, capsys):
    gfile = tmp_path / "g.el"
    invoke(["gen", "--grid", "3", "4", "-o", str(gfile)], capsys)
    code, out, _ = invoke(["color", "--family", "auto", "--t", "3",
                           "--in", str(gfile)], capsys)
    assert code == 0 and Coloring.from_json(out).k == 10
    k4 = tmp_path / "k4.el"
    k4.write_text("4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    code, out, _ = invoke(["color", "--family", "auto", "--t", "2",
                           "--in", str(k4)], capsys)
    assert code == 0   # dense input falls through to the planar colorer
    code, _, _ = invoke(["color", "--family", "auto", "--t", "4",
                         "--in", str(k4)], capsys)
    assert code == 4   # no construction for tone 4 on this graph
    empty = tmp_path / "empty.el"
    empty.write_text("0 0\n")
    for family in ("auto", "sparse"):
        # auto tries the sparse colorer first, so the empty graph gets its
        # 7-color palette
        assert invoke(["color", "--family", family, "--in", str(empty)],
                      capsys) == (0, '{"k":7,"labels":{},"t":2}\n', "")
    code, _, err = invoke(["color", "--family", "grid", "--in", str(empty)],
                          capsys)
    assert code == 2 and "not a generator-layout grid" in err


def test_grid_recognition():
    for m in range(1, 7):
        for n in range(1, 7):
            g = gen_grid(m, n)
            assert cli._as_grid_dims(g) == ((m, n) if m >= 2 and n >= 2
                                            else None)
            # one more vertex, or ids 0 and 1 swapped, is not a grid
            assert cli._as_grid_dims(Graph(g.n + 1, g.edges())) is None
            if g.n > 1:
                swap = {0: 1, 1: 0}
                h = Graph(g.n, [(swap.get(u, u), swap.get(v, v))
                                for u, v in g.edges()])
                assert h == g or cli._as_grid_dims(h) is None
    assert cli._as_grid_dims(Graph(0, [])) is None


@pytest.mark.parametrize("shape", [["--path", "6"], ["--cycle", "8"],
                                   ["--grid", "3", "4"], ["--star", "5"],
                                   ["--fat-triangle", "3"]])
def test_auto_recognizes_each_shape_once(tmp_path, capsys, monkeypatch, shape):
    calls = []

    def counted(family, recognize):
        def wrapper(g):
            calls.append(family)
            return recognize(g)
        return wrapper

    monkeypatch.setattr(cli, "_FAMILIES", {
        family: (counted(family, recognize), *rest)
        for family, (recognize, *rest) in cli._FAMILIES.items()})
    gfile = tmp_path / "g.el"
    invoke(["gen", *shape, "-o", str(gfile)], capsys)
    code, _, _ = invoke(["color", "--family", "auto", "--in", str(gfile)], capsys)
    assert code == 0 and calls and len(calls) == len(set(calls))


def test_usage_errors(tmp_path, capsys, monkeypatch):
    code, _, _ = invoke(["color", "--family", "nope"], capsys)
    assert code == 2
    code, _, err = invoke(["color", "--family", "cycle", "--t", "3"],
                          capsys, stdin="4 3\n0 1\n1 2\n2 3\n",
                          monkeypatch=monkeypatch)
    assert code == 2 and "not a cycle" in err
    code, _, _ = invoke(["nonsense"], capsys)
    assert code == 2
    code, _, _ = invoke(["tau", "--t", "3", "--jobs", "2"], capsys)
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["gen", "--cycle", "5", "-o"],
    ["color", "--family", "cycle", "--t", "3", "-o"],
    ["tau", "--t", "2", "--emit-witness"],
])
def test_unwritable_output_exits_2(tmp_path, capsys, monkeypatch, argv):
    dest = str(tmp_path / "missing" / "out")
    code, out, err = invoke([*argv, dest], capsys,
                            stdin=write_edge_list(gen_cycle(5)),
                            monkeypatch=monkeypatch)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err and "No such file" in err


def test_unreadable_input_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "missing.el")
    for argv in (["color", "--in", missing], ["mad", "--in", missing],
                 ["verify", "--graph", missing],
                 ["verify", "--graph", "-", "--in", missing],
                 ["mad", "--in", str(tmp_path)]):
        code, out, err = invoke(argv, capsys)
        assert (code, out) == (2, "") and err.startswith("error: "), argv


def test_tone_below_one_exits_2(tmp_path, capsys):
    cycle = tmp_path / "c5.el"
    cycle.write_text(write_edge_list(gen_cycle(5)))
    star = tmp_path / "star.el"
    star.write_text("4 3\n0 1\n0 2\n0 3\n")
    for verb in ("color", "tau", "bounds"):
        for path in (cycle, star):
            for t in ("0", "-1"):
                code, out, err = invoke([verb, "--t", t, "--in", str(path)],
                                        capsys)
                assert (code, out) == (2, "") and "tone must be >= 1" in err


def test_tau_rejects_nonpositive_wall_limit(tmp_path, capsys):
    gfile = tmp_path / "c5.el"
    gfile.write_text(write_edge_list(gen_cycle(5)))
    for limit in ("nan", "0", "-1"):
        code, out, err = invoke(["tau", "--t", "3", "--in", str(gfile),
                                 "--wall-limit", limit], capsys)
        assert (code, out) == (2, "") and "wall_limit" in err, limit


def test_verify_accepts_empty_graph_witness(tmp_path, capsys):
    gfile = tmp_path / "empty.el"
    gfile.write_text("0 0\n")
    wfile = tmp_path / "w.json"
    code, out, _ = invoke(["tau", "--t", "3", "--in", str(gfile),
                           "--emit-witness", str(wfile)], capsys)
    assert code == 0 and json.loads(out)["value"] == 0
    assert wfile.read_text() == '{"k":0,"labels":{},"t":3}\n'
    code, out, _ = invoke(["verify", "--graph", str(gfile), "--in", str(wfile)],
                          capsys)
    assert (code, out) == (0, '{"ok":true}\n')
    # a labeled vertex still needs t distinct colors in 1..k
    gfile.write_text("1 0\n")
    wfile.write_text('{"k":2,"labels":{"0":[1,2,3]},"t":3}')
    code, out, err = invoke(["verify", "--graph", str(gfile), "--in", str(wfile)],
                            capsys)
    assert (code, out) == (2, "") and "outside [1,2]" in err


def test_exit_codes_documented_once():
    """FORMATS.md's table, the cli docstring and cli.EXIT_* name one set."""
    formats = (Path(__file__).parents[1] / "FORMATS.md").read_text()
    table = formats.split("## Exit codes", 1)[1]
    in_table = {int(c) for c in re.findall(r"^\| (\d+) \|", table, re.M)}
    doc = cli.__doc__.split("Exit codes:", 1)[1]
    in_doc = {int(c) for c in re.findall(r"(?:^|,)\s*(\d+) [a-z]", doc)}
    in_code = {v for name, v in vars(cli).items() if name.startswith("EXIT_")}
    assert in_table == in_doc == in_code == set(range(6))


def test_entry_point_processes(tmp_path, capsys):
    """`python -m ttone.cli` goes through `main()`, which the in-process
    tests skip: each job's bytes and exit code equal what `run()` gives."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ttone.__file__)))

    def ttone_process(*argv, stdin=""):
        out = subprocess.run([sys.executable, "-m", "ttone.cli", *argv],
                             input=stdin.encode(), capture_output=True,
                             env=dict(os.environ, PYTHONPATH=src))
        return out.returncode, out.stdout, out.stderr

    gfile, cfile = tmp_path / "c12.el", tmp_path / "c12.json"
    assert ttone_process("gen", "--cycle", "12", "-o", str(gfile)) \
        == (0, b"", b"")
    assert gfile.read_text() == write_edge_list(gen_cycle(12))
    code, out, err = ttone_process("color", "--t", "3", "--in", str(gfile))
    assert (code, err) == (0, b"")
    assert out.decode() == invoke(["color", "--t", "3", "--in", str(gfile)],
                                  capsys)[1]
    cfile.write_bytes(out)
    verify = ("verify", "--graph", str(gfile), "--in", str(cfile))
    assert ttone_process(*verify) == (0, b'{"ok":true}\n', b"")
    # the graph piped through stdin: the same coloring
    assert ttone_process("color", "--t", "3", stdin=gfile.read_text()) \
        == (0, out, b"")
    # a corrupted coloring: the same violation lines as in-process
    col = Coloring.from_json(out.decode())
    col.labels[1] = col.labels[0]
    cfile.write_text(col.to_json())
    code, out, err = ttone_process(*verify)
    assert (code, out.decode(), err.decode()) == invoke(list(verify), capsys)
    assert code == 1 and out
    assert all("shared" in ln for ln in out.decode().splitlines())
    # a usage error
    code, out, err = ttone_process("color", "--bogus")
    assert (code, out) == (2, b"") and b"error:" in err
