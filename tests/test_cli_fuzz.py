"""Fuzz `cli.run` with random verbs, flags and small stdin texts.

No exception may escape, the exit code is one of 0..5, exit 1 comes only
from `verify` with violation lines on stdout, and exit 3 only from `tau`.
Every size is bounded: graphs have at most 12 vertices, generator sizes are
at most 10, tones at most 5, and `tau` always runs with at most 10**4 nodes
per k.  Numbers in garbage texts are whole tokens, so no large header `n`
can form.
"""

from __future__ import annotations

import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from ttone import cli

# hypothesis favors the first entries of sampled_from, so the lists below
# put the likely useful values first and the invalid ones last
SIZES = st.sampled_from(["4", "3", "5", "2", "1", "6", "8", "10", "0", "-1",
                         "-2"])
TONES = st.sampled_from(["2", "3", "1", "4", "5", "0", "-1"])
TOKENS = ["0", "1", "2", "5", "12", "13", "-1", "1.5", "nan", "x", "c", "{",
          "}", "[", "]", ":", ",", '"t"', '"k"', '"labels"', '"0"', "true",
          "null", "\n", "\t", "é", "\x00"]
GARBAGE = st.lists(st.sampled_from(TOKENS), max_size=12).map(" ".join)
# paths are templates; {tmp} becomes the run's scratch directory
INPUTS = st.sampled_from(["-", "{tmp}/graph.el", "{tmp}/coloring.json",
                          "{tmp}/missing/x", "{tmp}"])
OUTPUTS = st.sampled_from(["{tmp}/out", "-", "{tmp}/missing/out", "{tmp}"])


@st.composite
def edge_lists(draw, n):
    pairs = list(combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), max_size=20, unique=True)
                 if pairs else st.just([]))
    return [f"{n} {len(edges)}", *(f"{u} {v}" for u, v in edges)]


@st.composite
def mutated_lines(draw, lines):
    """lines with a few lines dropped, repeated or with a token replaced."""
    lines = list(lines)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines)))
        kind = draw(st.sampled_from(["drop", "repeat", "token", "comment"]))
        if kind == "comment" or i == len(lines):
            lines.insert(i, "c " + draw(GARBAGE).replace("\n", " "))
        elif kind == "drop":
            del lines[i]
        elif kind == "repeat":
            lines.insert(i, lines[i])
        else:
            tokens = lines[i].split() or [""]
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(
                st.sampled_from(TOKENS))
            lines[i] = " ".join(tokens)
    return lines


@st.composite
def colorings(draw, n):
    t = draw(st.integers(1, 4))
    if draw(st.booleans()):     # all colors distinct: valid on any graph
        k = n * t
        labels = {str(v): list(range(v * t + 1, v * t + t + 1))
                  for v in range(n)}
    else:
        k = draw(st.integers(t, 2 * t + 2))
        labels = {str(v): sorted(draw(st.sets(st.integers(1, k), min_size=t,
                                              max_size=t)))
                  for v in range(n)}
    payload = {"t": t, "k": k, "labels": labels}
    bad = st.sampled_from([-1, 0, 2, 20, 1.5, "2", True, None, [], {}])
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        kind = draw(st.sampled_from(["t", "k", "labels", "label", "key",
                                     "drop"]))
        if kind in ("t", "k", "labels"):
            payload[kind] = draw(bad)
        elif not isinstance(payload["labels"], dict):
            pass
        elif kind == "label":
            payload["labels"][str(draw(st.integers(0, 12)))] = draw(
                st.sampled_from([[], [0], [1, 1], [1, 2, 3, 4, 5], "12",
                                 [1.5, 2], [True, 2], [-1, 2]]))
        elif kind == "key":
            payload["labels"][draw(st.sampled_from(["00", "+1", "-1", "x",
                                                    "12", ""]))] = [1, 2]
        else:
            payload["labels"].pop(str(draw(st.integers(0, 12))), None)
    text = json.dumps(payload, sort_keys=True)
    if draw(st.sampled_from([False] * 4 + [True])):
        text = text[:draw(st.integers(0, len(text)))]
    return text


def _flags(draw, options, names):
    """Each flag of names with values drawn from options."""
    argv = []
    for flag in names:
        argv += [flag, *(draw(s) for s in options[flag])]
    return argv


# per verb: the flags a run needs (one of each list of alternatives), then
# the strategies of every flag's values
FAMILY_FLAGS = ["--path", "--cycle", "--grid", "--star", "--fat-triangle",
                "--random"]
NEEDED = {"gen": [FAMILY_FLAGS], "color": [], "verify": [["--graph"]],
          "tau": [["--t"]], "bounds": [["--t"]], "mad": [], "nope": []}
OPTIONS = {
    "gen": {"--path": [SIZES], "--cycle": [SIZES], "--grid": [SIZES, SIZES],
            "--star": [SIZES], "--fat-triangle": [SIZES],
            "--random": [st.sampled_from(["subdivided", "outerplanar",
                                          "apollonian", "nope"])],
            "--size": [SIZES], "--seed": [st.integers(0, 3).map(str)],
            "-o": [OUTPUTS]},
    "color": {"--family": [st.sampled_from(["auto", "path", "cycle", "grid",
                                            "fat-triangle", "sparse",
                                            "outerplanar", "planar", "nope"])],
              "--t": [TONES], "--in": [INPUTS], "-o": [OUTPUTS]},
    "verify": {"--graph": [st.sampled_from(["{tmp}/graph.el", "-",
                                            "{tmp}/missing/x"])],
               "--in": [INPUTS]},
    "tau": {"--t": [TONES], "--in": [INPUTS], "--emit-witness": [OUTPUTS],
            "--wall-limit": [st.sampled_from(["nan", "0", "-1", "0.5", "inf",
                                              "x"])]},
    "bounds": {"--t": [TONES], "--in": [INPUTS]},
    "mad": {"--in": [INPUTS]},
    "nope": {"--in": [INPUTS]},
}


@st.composite
def invocations(draw):
    """(argv, stdin text, {file name: text}) for one `cli.run` call."""
    n = draw(st.integers(0, 12))
    graph = draw(edge_lists(n))
    if draw(st.sampled_from([False, False, True])):
        graph = draw(mutated_lines(graph))
    graph = "\n".join(graph) + "\n"
    coloring = draw(colorings(n))
    verb = draw(st.sampled_from(list(OPTIONS)))
    # verify reads the coloring from stdin unless --in is given
    likely = coloring if verb == "verify" else graph
    stdin = draw(st.sampled_from([likely, graph, coloring, draw(GARBAGE)]))
    needed = [draw(st.sampled_from(alternatives))
              for alternatives in NEEDED[verb]]
    if draw(st.sampled_from([False] * 9 + [True])):
        needed = []
    extra = draw(st.lists(st.sampled_from(sorted(OPTIONS[verb])), max_size=3))
    argv = [verb, *_flags(draw, OPTIONS[verb], [*needed, *extra])]
    if verb == "tau":
        argv += ["--max-nodes", str(draw(st.sampled_from([1, 100, 10_000])))]
    if draw(st.sampled_from([False] * 9 + [True])):
        argv.append(draw(st.sampled_from(["--bogus", "--t", "-o", "--in"])))
    return argv, stdin, {"graph.el": graph, "coloring.json": coloring}


@settings(max_examples=300, deadline=None)
@given(invocations())
def test_cli_run_never_escapes_and_keeps_exit_meanings(case):
    argv, stdin, files = case
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            Path(tmp, name).write_text(text)
        argv = [arg.replace("{tmp}", tmp) for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        saved, sys.stdin = sys.stdin, io.StringIO(stdin)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.run(argv)
        finally:
            sys.stdin = saved
    assert code in range(6), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        lines = out.getvalue().splitlines()
        assert argv[0] == "verify" and lines
        for line in lines:
            assert json.loads(line).keys() == {"u", "v", "distance", "shared"}
    if code == 3:
        assert argv[0] == "tau"
