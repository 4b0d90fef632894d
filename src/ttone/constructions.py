"""Constructive colorers: paths, cycles by block concatenation, grids by
modular formulas, fat triangles, and the reduce-and-extend algorithms for
bounded-density, outerplanar, and planar graphs."""

from __future__ import annotations

from itertools import combinations
from math import inf

from .blocks import BLOCK_TABLES, cycle_value, ensure_validated, exceptional_witness
from .bounds import _least_pairs, h_t_bounds, path_tau, star_lower
from .coloring import (Coloring, ColoringError, _checked, available_labels,
                       greedy_color, greedy_extend)
from .graphs import (OUTERPLANAR_HIGH, PLANAR_HIGH, Graph, LeastLive, Reduction,
                     _run, degree_crossings, gen_cycle, gen_fat_triangle,
                     gen_grid, gen_path, mad_below_12_5, outerplanar_edge_at,
                     planar_reducible_at, thread_at, thread_runs)


class ClassPreconditionError(ValueError):
    """Input graph is outside the class a colorer is guaranteed for."""


# ---------------------------------------------------------------------------
# Paths
# ---------------------------------------------------------------------------

def color_path(n: int, t: int) -> Coloring:
    """Color the n-vertex path with exactly path_tau(n, t) colors.

    Walks the path assigning each vertex the lexicographically least label
    that fits, against the formula palette: the least label reuses colors of
    earlier vertices up to each pair's sharing cap and only then touches
    fresh colors, so the palette is consumed exactly when the formula says a
    fresh color is due.  Color count and validity are checked on the way
    out; checked for n <= 50, t <= 8 in the suite.

    In id order the labeled vertices within distance t of v are v-t..v-1,
    so v's label is a function of theirs: a dict from that window to the
    label it gave calls greedy_extend only on a window not seen before.
    At n = 5000 that is 11, 22 and 23 calls at tones 3, 4 and 5, and the
    labels are those of greedy_color in id order.
    """
    k = path_tau(n, t)      # raises ValueError unless n, t >= 1
    g = gen_path(n)
    coloring = Coloring(t, k)
    labels = coloring.labels
    after = {}
    for v in range(n):
        window = tuple(map(labels.__getitem__, range(max(0, v - t), v)))
        label = after.get(window)
        if label is None:
            label = after[window] = greedy_extend(g, coloring, v)
            if label is None:
                raise ColoringError(v)
        else:
            labels[v] = label
    if len(coloring.colors_used()) != k:
        raise AssertionError(f"path coloring misses its {k} colors")
    return _checked(g, coloring)


# ---------------------------------------------------------------------------
# Cycles
# ---------------------------------------------------------------------------

def decompose(n: int, lengths):
    """Write n as a nonnegative combination of the given lengths.

    Ties prefer fewer blocks, then the lexicographically smallest sorted
    multiset.  A dynamic program counts the fewest blocks of every partial
    sum; the walk down from n then takes, each time, the smallest piece that
    keeps the count optimal.  That piece is the smallest one in any optimal
    multiset for the rest, so the pieces come out sorted and the multiset is
    the least.  Returns a sorted tuple of block lengths, or None.
    """
    lengths = sorted(set(lengths))
    if any(type(x) is not int or x < 1 for x in lengths):
        raise ValueError("lengths must be positive")
    if type(n) is not int or n < 0:
        raise ValueError("n must be nonnegative")
    count = [0] + [inf] * n
    for total in range(1, n + 1):
        count[total] = 1 + min((count[total - p] for p in lengths if p <= total),
                               default=inf)
    if count[n] == inf:
        return None
    parts = []
    while n:
        piece = next(p for p in lengths
                     if p <= n and count[n - p] == count[n] - 1)
        parts.append(piece)
        n -= piece
    return tuple(parts)


def color_cycle(n: int, t: int) -> Coloring:
    """Optimal cycle coloring for tones 2..5.

    Exceptional lengths come from stored witnesses; all other lengths are a
    concatenation of table blocks laid around the cycle in sorted order.
    """
    if type(n) is not int or n < 3:
        raise ValueError("need n >= 3")
    if type(t) is not int or t not in BLOCK_TABLES:
        raise ValueError("cycle construction covers tones 2..5")
    ensure_validated()
    stored = exceptional_witness(n, t)
    if stored is not None:
        coloring = Coloring(t, cycle_value(n, t), dict(enumerate(stored)))
        return _checked(gen_cycle(n), coloring)
    table = BLOCK_TABLES[t]
    parts = decompose(n, table.lengths)
    if parts is None:
        raise AssertionError(f"n={n} not representable over {table.lengths}")
    labels = {}
    v = 0
    for piece in parts:
        for lab in table.blocks[piece]:
            labels[v] = lab
            v += 1
    coloring = Coloring(t, table.k, labels)
    return _checked(gen_cycle(n), coloring)


# ---------------------------------------------------------------------------
# Grids
# ---------------------------------------------------------------------------

def _grid_label(i: int, j: int, t: int) -> tuple:
    parts = [(i - j) % 3,
             (i + j) % 3 + 3,
             (2 * i + j) % 4 + 6,
             (i + 2 * j) % 4 + 10,
             (i + 3 * j) % 8 + 14]
    return tuple(c + 1 for c in parts[:t])


def color_grid(m: int, n: int, t: int) -> Coloring:
    """Modular-formula grid coloring: 6, 10, 14, or at most 22 colors for
    tones 2..5.  Rows i in 1..m, columns j in 1..n, id (i-1)*n + (j-1)."""
    if type(m) is not int or type(n) is not int or m < 2 or n < 2:
        raise ValueError("need m, n >= 2")
    if type(t) is not int or t not in (2, 3, 4, 5):
        raise ValueError("grid construction covers tones 2..5")
    k = {2: 6, 3: 10, 4: 14, 5: 22}[t]
    labels = {}
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            labels[(i - 1) * n + (j - 1)] = _grid_label(i, j, t)
    return _checked(gen_grid(m, n), Coloring(t, k, labels))


# ---------------------------------------------------------------------------
# Fat triangles
# ---------------------------------------------------------------------------

def color_fat_triangle(t: int) -> Coloring:
    """2-tone coloring of the fat triangle with the upper-bound palette.

    Hubs take (1,2), (3,4), (5,6).  Each degree-2 vertex gets a distinct
    2-set avoiding all pairs from the six hub colors, except that labels
    meeting a hub's pair go only on the side not adjacent to that hub.
    """
    if type(t) is not int or t < 1:
        raise ValueError("need t >= 1")
    g = gen_fat_triangle(t)
    if t == 1:
        # the hexagon block laid on hub/middle ids around the hexagon
        table = BLOCK_TABLES[2]
        labels = dict(zip((0, 3, 1, 4, 2, 5), table.blocks[6]))
        return _checked(g, Coloring(2, table.k, labels))
    k = h_t_bounds(t)[1]
    labels = {0: (1, 2), 1: (3, 4), 2: (5, 6)}
    shared = iter(combinations(range(7, k + 1), 2))
    # middle ids 3..3t-1 by side; side s lies between hubs s and (s+1)%3,
    # so its dedicated labels reuse the colors of the opposite hub
    for side, far_hub in ((0, 2), (1, 0), (2, 1)):
        far = (2 * far_hub + 1, 2 * far_hub + 2)
        dedicated = iter((a, c) for a in far for c in range(7, k + 1))
        for idx in range(t):
            v = 3 + side * t + idx
            lab = next(dedicated, None)
            if lab is None:
                lab = next(shared)
            labels[v] = lab
    return _checked(g, Coloring(2, k, labels))


# ---------------------------------------------------------------------------
# Reduce-and-extend colorers
# ---------------------------------------------------------------------------

def _finish_two_thread(g: Graph, partial: Coloring, v1: int, v2: int) -> None:
    """Extend across a deleted 2-thread interior vertex.

    v2 kept its label from the reduced graph, but may now clash with the far
    endpoint at distance 2 through v1; recolor it if so, and retry its other
    valid labels until v1 can also be colored (the palette analysis
    guarantees some choice works)."""
    current = partial.labels.pop(v2)
    options = available_labels(g, partial, v2)
    if current in options:
        options.remove(current)
        options.insert(0, current)
    for lab in options:
        partial.assign(v2, lab)
        if greedy_extend(g, partial, v1) is not None:
            return
        del partial.labels[v2]
    raise AssertionError("2-thread extension exhausted its guaranteed options")


def _reduce_and_lift(g: Graph, k: int, picks) -> Coloring:
    """The one reduce-and-lift loop of the sparse-class colorers.

    picks(red) is a generator of steps (doomed, w, recolor) on red; each
    step is applied before the next is asked for, and the loop stops when
    the generator ends or no vertex is left.  With w None the doomed
    vertices are deleted, otherwise doomed[0] is contracted with its
    neighbor w.  The rest is colored greedily with palette k.  Then each
    step is undone in reverse and the doomed vertices are extended in
    order, or, when recolor is set, the 2-thread vertex doomed[0] is
    finished by recoloring its neighbor recolor as needed.
    """
    red = Reduction(g)
    pick = picks(red)
    steps = []
    while red.live:
        step = next(pick, None)
        if step is None:
            break
        doomed, w, _ = step
        if w is None:
            red.delete(*doomed)
        else:
            red.contract(doomed[0], w)
        steps.append(step)
    colored = greedy_color(red, 2, k)
    for doomed, w, recolor in reversed(steps):
        red.undo()
        if w is not None and doomed[0] < w:
            # the merged vertex kept the lower id; its label belongs to w
            colored.labels[w] = colored.labels.pop(doomed[0])
        if recolor is None:
            for v in doomed:
                if greedy_extend(red, colored, v) is None:
                    raise AssertionError(
                        f"guaranteed extension failed at vertex {v}")
        else:
            _finish_two_thread(red, colored, doomed[0], recolor)
    return _checked(g, colored)


def color_sparse(g: Graph) -> Coloring:
    """2-tone coloring of a graph with maximum average degree below 12/5,
    using max(7, star_lower(max_degree)) colors.

    Strips vertices of degree at most 1, otherwise removes a reducible
    thread, colors the rest, and extends back; a 2-thread may force one
    recoloring round on its surviving interior vertex.  The class gate is
    mad_below_12_5, one max-density decision.
    """
    if not mad_below_12_5(g):
        raise ClassPreconditionError("maximum average degree is not below 12/5")

    def picks(red):
        low = LeastLive(red, lambda v: len(red.adj[v]) <= 1)
        # vertices of the 2-regular components met so far: exact, since a
        # cycle component changes only by its own 2-thread step, and then
        # stripping removes all of it
        cycles = set()

        def thread(x, width):
            found = None if width > 2 and x in cycles else \
                thread_at(red, x, width)
            if found and width > 2:
                run = list(_run(red.adj, x, found[1]))
                if run[-1] == x:
                    cycles.update(run)
                    return None
            return found

        threads = [(w, LeastLive(red, lambda x, w=w: thread(x, w),
                                 thread_runs(red))) for w in (4, 3, 2)]
        while True:
            v = low()
            if v is not None:
                yield [v], None, None
                continue
            for width, index in threads:
                x = index()
                if x is not None:
                    break
            else:
                raise AssertionError("no reducible thread despite the density gate")
            internal = index.found
            if width == 4:
                yield [internal[1], internal[2]], None, None
            elif width == 3:
                yield [internal[2], internal[1]], None, None
            else:
                yield [x], None, internal[1]

    return _reduce_and_lift(g, max(7, star_lower(g.max_degree())), picks)


def outerplanar_palette(max_degree: int) -> int:
    """Least k >= 4 with C(k-4, 2) > max_degree + 2."""
    if type(max_degree) is not int or max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    return 4 + _least_pairs(max_degree + 3)


def color_outerplanar(g: Graph) -> Coloring:
    """2-tone coloring of an outerplanar graph by repeated edge contraction.

    At the least vertex x that outerplanar_edge_at accepts, deletes x if it
    is isolated, else contracts its edge xy, with d(x) = 1, or d(x) = 2 and
    d(y) <= 4; colors what is left, and extends back to x.  An isolated
    vertex lies in no other vertex's ball and lifts to (1, 2), so deleting
    it earlier or later changes no other step.  Raises when no vertex is
    accepted (the input is then not outerplanar).
    """
    def picks(red):
        low = LeastLive(red, lambda x: outerplanar_edge_at(red, x),
                        degree_crossings(red, OUTERPLANAR_HIGH))
        while True:
            x = low()
            if x is None:
                raise ClassPreconditionError(
                    "input not outerplanar: no reducible edge")
            yield [x], low.found[1], None

    return _reduce_and_lift(g, outerplanar_palette(g.max_degree()), picks)


def planar_palette(max_degree: int) -> int:
    """max(41, least k >= 10 with C(k-10, 2) > 2*max_degree + 25)."""
    if type(max_degree) is not int or max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    return max(41, 10 + _least_pairs(2 * max_degree + 26))


def color_planar(g: Graph) -> Coloring:
    """2-tone coloring of a planar graph within max(41, planar_palette).

    While the maximum degree is at least 13, contracts a low-degree vertex
    with few high-degree neighbors into a degree-at-most-10 partner; the
    remaining graph is colored greedily (41 colors always suffice at
    maximum degree 12).  Raises when no reducible vertex exists.
    """
    def picks(red):
        adj, touched = red.adj, red.touched
        # the live ids of degree >= 13, kept from touched; a removed id's
        # neighbor set is empty, so it leaves as it is read
        hubs = {v for v, a in enumerate(adj) if len(a) >= 13}
        read = len(touched)
        low = LeastLive(red, lambda v: planar_reducible_at(red, v),
                        degree_crossings(red, PLANAR_HIGH))
        while True:
            fresh = touched[read:]
            read += len(fresh)
            hubs.difference_update(fresh)
            hubs.update(u for u in fresh if len(adj[u]) >= 13)
            if not hubs:               # maximum degree <= 12
                return
            v = low()
            if v is None:
                raise ClassPreconditionError(
                    "input not planar: no reducible vertex")
            yield [v], low.found[1], None

    return _reduce_and_lift(g, planar_palette(g.max_degree()), picks)
