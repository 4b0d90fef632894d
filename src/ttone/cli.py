"""Command-line front end: generate, color, verify, solve, bound, measure.

Exit codes: 0 success, 1 verification violations, 2 usage or structural
error (an unreadable or unwritable file, a tone below 1), 3 a resource
bound was reached (the search budget or memory), 4 class precondition
failed, 5 internal failure (a construction broke one of its own
invariants, or the block tables failed their self-check). `run` is the
one place that maps exceptions to them.

`color` emits what its colorer verified and does not verify it again; for
paths and cycles `_along` says why that check holds on the input graph.
"""

from __future__ import annotations

import argparse
import functools
import gc
import sys
from math import gcd

from . import bounds as bounds_mod
from . import constructions
from .coloring import Coloring, _json_line, verify
from .exact import SearchBudget, tau
from .graphs import (MAX_EDGE_LIST_VERTICES, Graph, cycle_order, gen_cycle,
                     gen_fat_triangle, gen_grid, gen_path, gen_star, mad,
                     path_order, read_edge_list, write_edge_list)

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_CLASS = 4
EXIT_INTERNAL = 5


class UsageError(Exception):
    pass


def _standard(path) -> bool:
    """No path and "-" both name stdin for a read, stdout for a write."""
    return path is None or path == "-"


def _emit(text: str, path=None) -> None:
    if _standard(path):
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _read(path) -> str:
    if _standard(path):
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def _instance(name: str):
    """generate(rng, size): ttone.instances.<name>, imported on the first
    call, since only gen --random needs that module and random."""
    def generate(rng, size):
        from . import instances
        return getattr(instances, name)(rng, size)
    return generate


# random family: (generator, --size when absent, least --size, the most
# vertices it can make from a --size).  A subdivided graph is a tree plus
# at most 3 extra edges, each edge subdivided at most 7 times.
_RANDOM = {
    "subdivided": (_instance("random_subdivided"), 8, 1, lambda s: 8 * s + 14),
    "outerplanar": (_instance("random_maximal_outerplanar"), 12, 3,
                    lambda s: s),
    "apollonian": (_instance("random_apollonian"), 12, 0, lambda s: s + 3),
}


def cmd_gen(args) -> int:
    if args.size is not None and args.random is None:
        raise UsageError("gen: --size applies only to --random")
    # (generator, its arguments, the most vertices it can make)
    if args.path is not None:
        make, sizes, n = gen_path, [args.path], args.path
    elif args.cycle is not None:
        make, sizes, n = gen_cycle, [args.cycle], args.cycle
    elif args.grid is not None:
        rows, cols = args.grid
        # a side below 1 is left for gen_grid to refuse
        make, sizes, n = gen_grid, args.grid, max(rows, 0) * cols
    elif args.star is not None:
        make, sizes, n = gen_star, [args.star], args.star + 1
    elif args.fat_triangle is not None:
        t = args.fat_triangle
        make, sizes, n = gen_fat_triangle, [t], 3 * t + 3
    else:
        import random
        generator, size, least, most = _RANDOM[args.random]
        if args.size is not None:
            size = args.size
        if size < least:
            raise UsageError(f"gen --random {args.random} needs --size >= {least}")
        make = functools.partial(generator, random.Random(args.seed))
        sizes, n = [size], most(size)
    # refuse before building what no reader of edge lists would accept
    if n > MAX_EDGE_LIST_VERTICES:
        raise UsageError(f"gen: the graph can have up to {n} vertices, more "
                         f"than the edge-list limit of {MAX_EDGE_LIST_VERTICES}")
    g = make(*sizes)
    _emit(write_edge_list(g), args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# color
# ---------------------------------------------------------------------------

def _as_grid_dims(g: Graph):
    # in the generator layout with m, n >= 2, vertex 0 is a corner whose
    # neighbors are 1 and n, so one candidate grid is enough
    if g.n == 0 or g.degree(0) != 2:
        return None
    n = g.adj[0][1]
    m = g.n // n
    return (m, n) if m >= 2 and g == gen_grid(m, n) else None


def _as_fat_triangle_param(g: Graph):
    if g.n < 6 or (g.n - 3) % 3:
        return None
    t = (g.n - 3) // 3
    return t if g == gen_fat_triangle(t) else None


def _along(color, order, t: int) -> Coloring:
    """color(n, t) of the line 0..n-1, moved onto the vertices of order.

    color verified it on gen_path(n) or gen_cycle(n), and it stays valid on
    g: the recognizer returns order only when g's edges are exactly the
    pairs of consecutive entries of order (and the last with the first, for
    a cycle), so i -> order[i] is an isomorphism that keeps every distance."""
    coloring = color(len(order), t)
    return Coloring(t, coloring.k,
                    {v: coloring.labels[i] for i, v in enumerate(order)})


def _whole(g: Graph) -> Graph:
    return g


# family: (recognizer, colorer of what the recognizer returned at tone t,
# tones colored, what the input must be), in the order auto tries them
_FAMILIES = {
    "path": (path_order,
             lambda order, t: _along(constructions.color_path, order, t),
             range(1, sys.maxsize), "a path"),      # every tone
    "cycle": (cycle_order,
              lambda order, t: _along(constructions.color_cycle, order, t),
              range(2, 6), "a cycle"),
    "grid": (_as_grid_dims, lambda dims, t: constructions.color_grid(*dims, t),
             range(2, 6), "a generator-layout grid"),
    "fat-triangle": (_as_fat_triangle_param,
                     lambda p, t: constructions.color_fat_triangle(p),
                     (2,), "a generator-layout fat triangle"),
    "sparse": (_whole, lambda g, t: constructions.color_sparse(g), (2,), None),
    "outerplanar": (_whole, lambda g, t: constructions.color_outerplanar(g),
                    (2,), None),
    "planar": (_whole, lambda g, t: constructions.color_planar(g), (2,), None),
}


def _color_family(g: Graph, family: str, t: int) -> Coloring:
    recognize, color, tones, what = _FAMILIES[family]
    if t not in tones:
        which = (f"tone {tones[0]} only" if len(tones) == 1
                 else f"tones {tones[0]}..{tones[-1]}")
        raise UsageError(f"family {family} colors {which}")
    shape = recognize(g)
    if shape is None:
        raise UsageError(f"input graph is not {what}")
    return color(shape, t)


def _color_auto(g: Graph, t: int) -> Coloring:
    failure = None
    for recognize, color, tones, _ in _FAMILIES.values():
        shape = recognize(g) if t in tones else None
        if shape is not None:
            try:
                return color(shape, t)
            except constructions.ClassPreconditionError as exc:
                failure = exc
    raise failure or constructions.ClassPreconditionError(
        f"no construction applies to this graph at tone {t}")


def cmd_color(args) -> int:
    g = read_edge_list(_read(args.input))
    if args.family == "auto":
        coloring = _color_auto(g, args.t)
    else:
        coloring = _color_family(g, args.family, args.t)
    _emit(coloring.to_json(), args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    if _standard(args.graph) and _standard(args.input):
        raise UsageError("verify: the graph and the coloring cannot both come "
                         "from stdin; give --in a file")
    g = read_edge_list(_read(args.graph))
    coloring = Coloring.from_json(_read(args.input))
    violations = verify(g, coloring)
    if not violations:
        _emit(_json_line({"ok": True}))
        return EXIT_OK
    for v in violations:
        _emit(_json_line({"u": v.u, "v": v.v, "distance": v.distance,
                          "shared": v.shared}))
    return EXIT_VIOLATIONS


# ---------------------------------------------------------------------------
# tau / bounds / mad
# ---------------------------------------------------------------------------

def cmd_tau(args) -> int:
    g = read_edge_list(_read(args.input))
    budget = SearchBudget(max_nodes=args.max_nodes, wall_limit=args.wall_limit)
    result = tau(g, args.t, budget)
    if result.status == "timeout":
        _emit(_json_line({"status": "timeout", "lower_bound": result.lower_bound,
                          "nodes": result.nodes}))
        return EXIT_BUDGET
    if args.emit_witness:
        _emit(result.coloring.to_json(), args.emit_witness)
    _emit(_json_line({"status": "resolved", "value": result.value, "t": args.t,
                      "nodes": result.nodes}))
    return EXIT_OK


def cmd_bounds(args) -> int:
    g = read_edge_list(_read(args.input))
    for cert in bounds_mod.certificates(g, args.t):
        _emit(_json_line(cert._asdict()))
    return EXIT_OK


def cmd_mad(args) -> int:
    g = read_edge_list(_read(args.input))
    dens = mad(g)
    d = gcd(dens.numerator, dens.denominator)
    _emit(_json_line({"numerator": dens.numerator,
                      "denominator": dens.denominator,
                      "reduced": [dens.numerator // d, dens.denominator // d]}))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _tone(text: str) -> int:
    t = int(text)
    if t < 1:
        raise argparse.ArgumentTypeError(f"tone must be >= 1, got {t}")
    return t


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ttone",
        description="multi-tone graph coloring toolkit")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("gen", help="emit an edge list for a generator family")
    family = p.add_mutually_exclusive_group(required=True)
    family.add_argument("--path", type=int, metavar="N")
    family.add_argument("--cycle", type=int, metavar="N")
    family.add_argument("--grid", type=int, nargs=2, metavar=("M", "N"))
    family.add_argument("--star", type=int, metavar="D")
    family.add_argument("--fat-triangle", type=int, metavar="T")
    family.add_argument("--random", choices=list(_RANDOM))
    p.add_argument("--size", type=int,
                   help="random families: the vertex count of the base tree "
                        "before subdivision for subdivided (default 8, at "
                        "least 1), the vertex count for outerplanar (default "
                        "12, at least 3), the vertices stacked into the "
                        "starting triangle for apollonian (default 12, at "
                        "least 0)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for random families (others are deterministic)")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("color", help="color a graph read from stdin or --in")
    p.add_argument("--family", default="auto", choices=[*_FAMILIES, "auto"])
    p.add_argument("--t", type=_tone, default=2)
    p.add_argument("--in", dest="input", default=None)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_color)

    p = sub.add_parser("verify", help="check a coloring JSON against a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--in", dest="input", default=None,
                   help="coloring JSON (default stdin)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("tau", help="exact tone chromatic number")
    p.add_argument("--t", type=_tone, required=True)
    p.add_argument("--in", dest="input", default=None)
    p.add_argument("--max-nodes", type=int,
                   default=SearchBudget().max_nodes, help="search nodes per k")
    p.add_argument("--wall-limit", type=float, default=None,
                   help="seconds for the whole call, above 0")
    p.add_argument("--emit-witness", default=None, metavar="PATH")
    p.set_defaults(func=cmd_tau)

    p = sub.add_parser("bounds", help="print applicable lower-bound certificates")
    p.add_argument("--t", type=_tone, required=True)
    p.add_argument("--in", dest="input", default=None)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("mad", help="exact maximum average degree")
    p.add_argument("--in", dest="input", default=None)
    p.set_defaults(func=cmd_mad)

    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except constructions.ClassPreconditionError as exc:
        code, message = EXIT_CLASS, exc
    except (UsageError, ValueError, OSError) as exc:
        code, message = EXIT_USAGE, exc
    except (AssertionError, RuntimeError) as exc:
        code, message = EXIT_INTERNAL, f"internal: {exc}"
    except MemoryError:
        code, message = EXIT_BUDGET, "out of memory"
    print(f"error: {message}", file=sys.stderr)
    return code


def main() -> None:
    # start-up's objects live until exit: keep collections from walking them
    gc.freeze()
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
