"""Exact decision and tone chromatic number by canonicalized backtracking."""

from __future__ import annotations

import time
from collections import namedtuple
from functools import lru_cache, partial
from math import comb

from .bounds import Certificate, best_lower_bound
from .coloring import Coloring, _checked, label_mask, label_stream
from .graphs import Graph, components, distances_within


class SearchBudget(namedtuple("SearchBudget", "max_nodes wall_limit")):
    """Limits for one exact_decide or tau call: max_nodes, a positive int,
    bounds the nodes of each decision (each k, for tau), and the optional
    wall_limit, a positive int or float, the seconds of the whole call.
    A bool is neither: True would pass for a 1-node or 1-second limit."""

    __slots__ = ()

    def __new__(cls, max_nodes: int = 200_000_000, wall_limit: float = None):
        if not isinstance(max_nodes, int) or isinstance(max_nodes, bool):
            raise ValueError("max_nodes must be an int")
        if max_nodes <= 0:
            raise ValueError("max_nodes must be positive")
        if isinstance(wall_limit, bool):
            raise ValueError("wall_limit must be a number, not a bool")
        if wall_limit is not None and not wall_limit > 0:   # NaN too
            raise ValueError("wall_limit must be positive")
        return super().__new__(cls, max_nodes, wall_limit)


# DecideResult.status: "colored" | "infeasible" | "timeout"; TauResult.status:
# "resolved" | "timeout", lower_certificate: a Certificate, the starting bound
# or Exhaustion (the search refuted "colors" = value - 1 in "nodes" nodes)
DecideResult = namedtuple("DecideResult", "status coloring nodes",
                          defaults=(None, 0))
TauResult = namedtuple("TauResult", "status value coloring lower_certificate "
                       "lower_bound nodes", defaults=(None, None, None, 0, 0))


def search_order(g: Graph) -> list:
    """Breadth-first order from a maximum-degree vertex; further components
    are appended the same way (max degree first, ties by smallest id)."""
    return [v for root, reach in components(g) for v in (root, *reach)]


def search_layout(g: Graph, t: int) -> tuple:
    """(order, later), the tables of a search that depend on g and t alone,
    so that tau builds them once for every k.  order is search_order(g);
    later[j] holds position j's constraints to later positions as (i, cap)
    pairs, i increasing, cap being the most colors the two labels may
    share (distance minus 1).  One distances_within ball per position in
    search order gives every list; each search loop derives the index it
    reads from later."""
    order = search_order(g)
    pos = [0] * g.n
    for i, v in enumerate(order):
        pos[v] = i
    later = [[] for _ in range(g.n)]
    for i, v in enumerate(order):
        for w, d in distances_within(g, v, t).items():
            j = pos[w]
            if j < i:
                later[j].append((i, d - 1))
    return order, later


class _Timeout(Exception):
    pass


class _Memo(dict):
    """A dict that fills a missing key with fn(key)."""

    def __init__(self, fn):
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


# Largest k * C(k, t) compiled to label bitsets; above it, label_stream.
_COMPILE_BITS = 1 << 20


def _color_sets(k: int, t: int) -> list:
    """has[c] for c in 1..k: the bitset of the t-subsets of [1..k] holding
    c, bit C(k, t) - 1 - x standing for the x-th subset in lex order, so
    the lex-first is the top bit.  Built for a = k down to 1 by the lex
    recursion: the s-subsets of [a..k] are a plus the (s-1)-subsets of
    [a+1..k], followed by the s-subsets of [a+1..k], whose C(k-a, s) bits
    go below."""
    count = [1] + [0] * t               # C(k-a+1, s) for s = 0..t
    rows = [[0] * (k + 1) for _ in range(t + 1)]
    for a in range(k, 0, -1):
        lo = max(1, t - a + 1)          # a smaller s cannot reach t colors
        rows = rows[:1] + [None] * (lo - 1) + [
            [0] * a + [((1 << count[s - 1]) - 1) << count[s]]
            + [rows[s - 1][c] << count[s] | rows[s][c]
               for c in range(a + 1, k + 1)]
            for s in range(lo, t + 1)]
        count = [1] + [count[s - 1] + count[s] for s in range(1, t + 1)]
    return rows[t]


# Palettes _palette keeps at once: a fixed bound on a long-lived process,
# and above the 26 (k, t) that one pass of perfbench's exact-search decides.
_PALETTES = 32

# Most bits of allowed sets (entries * C(k, t)) a palette keeps between
# decisions: with _PALETTES, at most 32 * 2**20 bits (4 MiB) plus dict
# overhead in all.
_MEMO_BITS = 1 << 20


class _Palette:
    """The tables of the t-subsets of [1..k] that a compiled search reads,
    shared by every decision on that palette: has (from _color_sets), full
    (every label), canonical[mx] for mx in 0..k (the reach bound: the
    labels that hold c-1 whenever they hold a color c > mx+1, so that
    their colors above mx are mx+1..mx+j), decoded, a memo from a bit of
    has (the lex-first label at the top) to (mask, label, last color)
    read off has (see _decode), and allowed[cap] for cap in 0..t-1, a
    memo from a mask to _allowed(has, full, cap, mask).  An allowed set
    depends on (k, t, cap, mask) alone, never on the graph, so the
    decisions on a palette share them.  They are the only memos keyed by
    label masks; trim, called after every compiled decision, drops them
    when they hold more than _MEMO_BITS bits."""

    __slots__ = ("has", "full", "canonical", "decoded", "allowed")

    def __init__(self, k: int, t: int):
        self.has = has = _color_sets(k, t)
        self.full = full = (1 << comb(k, t)) - 1
        canonical = [full] * (k + 1)
        for mx in range(k - 2, -1, -1):
            canonical[mx] = canonical[mx + 1] & (~has[mx + 2] | has[mx + 1])
        self.canonical = canonical
        self.decoded = _Memo(partial(_decode, has))
        self.allowed = [_Memo(partial(_allowed, has, full, cap))
                        for cap in range(t)]

    def trim(self) -> None:
        """Drop the allowed memos if they hold more than _MEMO_BITS bits."""
        if sum(map(len, self.allowed)) * self.full.bit_length() > _MEMO_BITS:
            for memo in self.allowed:
                memo.clear()


# The _Palette of (k, t), built once and shared.
_palette = lru_cache(maxsize=_PALETTES)(_Palette)


def _decode(has: list, x: int) -> tuple:
    """(mask, label, last color) of the label at bit x, read off the color
    sets: its colors are the c whose has[c] holds bit x."""
    label = tuple(c for c, h in enumerate(has) if h >> x & 1)
    return label_mask(label), label, label[-1]


def _allowed(has: list, full: int, cap: int, mask: int) -> int:
    """The labels sharing at most cap colors with mask: all labels minus
    conflict(mask, cap), the OR over (cap+1)-subsets of mask's colors of
    the AND of their has[], built as at_least[j] (the labels holding j of
    the colors seen so far) over the set bits of mask."""
    at_least = [full] + [0] * (cap + 1)
    while mask:
        low = mask & -mask
        mask ^= low
        h = has[low.bit_length()]
        for j in range(cap + 1, 0, -1):
            at_least[j] |= at_least[j - 1] & h
    return full & ~at_least[cap + 1]


class _Searcher:
    """Backtracking over label assignments in a fixed vertex order.

    Symmetry breaking: the first vertex gets colors 1..t, and any label may
    introduce new colors only as the next unused ones in increasing order
    (color-introduction canonicalization), applied as label_stream's reach
    bound.  exact_decide fixes the first two labels by that rule and passes
    them as out to one of two loops, _dfs_compiled or _dfs_lazy, which
    builds its state from them and searches from position len(out), with
    the reach bound out[-1][-1].  Both loops are iterative, so the depth of
    the search never touches the interpreter's recursion limit.  A searcher
    is built whole, with later, t, k, max_nodes and monotonic deadline
    (None for none); only nodes changes after that.

    later, the one table of (g, t) alone, comes from the layout (see
    search_layout), which the caller builds: exact_decide for its one
    decision, tau once for all its k; each loop derives from it the index
    it reads.  When k * C(k, t) <= _COMPILE_BITS the labels are compiled
    to bits, the lex-first at the top bit (see _color_sets), and the
    tables that depend on (k, t) alone come from _palette, built once per
    palette and shared by the decisions on it, so a decision binds only
    its palette.
    A position's domain is the AND of allowed(mask, cap), the labels
    sharing at most cap colors with mask, over its constraints to labeled
    positions; L is in it iff L passes label_stream's caps, and in
    canonical[mx] iff it passes label_stream's reach bound.  The allowed
    memos are the palette's, kept across decisions up to _MEMO_BITS (see
    _Palette).  The search forward-checks (Haralick and Elliott 1980): it
    keeps the domain of every open position, and giving position i a
    label ANDs one allowed set into the domain of each later position i
    constrains.  A label that empties a domain is counted as a node and
    rejected; one that does not pushes one frame, and the frame popped on
    backtrack restores the domains it narrowed (see _dfs_compiled).
    A position's candidates are canonical[mx] & its domain, read top bit
    first, which is lex order.  A candidate whose subtree is isomorphic to
    that of an earlier sibling, which failed, is not walked: the sibling's
    node count is added in its place (see _dfs_compiled).  The nodes are
    those of the same tree, some counted by isomorphism, and the witness
    is the same.

    Above the guard _dfs_lazy draws the candidates from label_stream,
    unpruned.  Both paths read candidates in lex order, and forward
    checking cuts only prefixes that cannot be extended, so both reach the
    same first witness: with no budget, the same status and witness; the
    compiled path's nodes are a subset of the lazy path's, so it never
    needs more.
    """

    def __init__(self, later: list, t: int, k: int, max_nodes: int,
                 deadline: float):
        self.later = later
        self.t = t
        self.k = k
        self.max_nodes = max_nodes
        self.deadline = deadline
        self.nodes = 0
        self.palette = None
        if k * comb(k, t) <= _COMPILE_BITS:
            self.palette = _palette(k, t)

    def _budget(self, nodes: int) -> int:
        """Record nodes and raise _Timeout past max_nodes, or past the
        deadline on a clock read each time the count reaches or jumps past
        a multiple of 2048; else return the next node count at which the
        search must call again.  A count that jumps past max_nodes is
        recorded as max_nodes + 1, where a walk one node at a time stops."""
        last, self.nodes = self.nodes, nodes
        stop = self.max_nodes + 1
        if nodes >= stop:
            self.nodes = stop
            raise _Timeout
        if self.deadline is None:
            return stop
        if nodes >> 11 != last >> 11 and time.monotonic() > self.deadline:
            raise _Timeout
        return min(stop, nodes - nodes % 2048 + 2048)

    def _dfs_lazy(self, out: list) -> bool:
        """One label_stream per open position, over its caps to the label
        masks of the earlier positions (masks, seeded from out), read off
        later as earlier[i]; label_stream yields the same labels in any
        order of the caps."""
        n, k, t, start = len(self.later), self.k, self.t, len(out)
        earlier = [[] for _ in range(n)]
        for j, lst in enumerate(self.later):
            for i, cap in lst:
                earlier[i].append((j, cap))
        masks = [label_mask(label) for label in out] + [0] * (n - start)

        def stream(i, top):
            return label_stream(
                k, t, [(masks[j], cap) for j, cap in earlier[i]], top)

        streams = [stream(start, out[-1][-1])]
        nodes = self.nodes
        check = nodes + 1
        i = start
        while True:
            nxt = next(streams[-1], None)
            if nxt is None:
                streams.pop()
                if not streams:
                    self.nodes = nodes
                    return False
                out.pop()
                i -= 1
                continue
            nodes += 1
            if nodes >= check:
                check = self._budget(nodes)
            m, combo, top = nxt
            masks[i] = m
            out.append(combo)
            i += 1
            if i == n:
                self.nodes = nodes
                return True
            streams.append(stream(i, top))

    def _dfs_compiled(self, out: list) -> bool:
        """Forward checking on one frame stack.  The open position i keeps
        its undrawn candidates cand, reach bound top (its mx) and orbit map
        seen in locals.  A label with mask m at i ANDs the palette's
        allowed[cap][m] into dom[j] for each (j, cap) of later[i], all in
        dom[i+1:span[i]], span[i] being one past the last j (i + 1 when
        there is none); saved is that slice before the AND.  Every domain
        starts as full, and each label of out ANDs its allowed sets into
        the positions along its later list.  Each draw takes the top bit x
        of cand by bit_length, and decoded[x] is its label, so candidates
        come in lex order.  A label that empties no domain pushes the frame
        (cand, top, seen, saved, key, before) of i, key being its orbit key
        and before the node count before it, and opens i + 1; when cand is
        empty, popping that frame restores i's locals and domains.

        sig[c] is the bitset of the assigned positions whose labels hold c,
        and a candidate's orbit key is the sorted tuple of its colors' sig.
        seen maps each key tried at the open position to the nodes counted
        under the first label with it (1 when forward checking rejected it,
        else nodes - before at the pop), and a later candidate with a key in
        it adds that count in place of its walk.  Two candidates with one
        key differ by a swap of colors of equal sig, which fixes the partial
        assignment.  Constraints read only intersection sizes, so the swap
        maps one subtree onto the other.  The colors above mx all have sig
        0, and both labels' new colors are the next unused ones, so the swap
        can fix every color above mx, and with them top and the reach bound.
        Forward checking reads only the partial assignment, so the skipped
        subtree fails, as its image did, with the same count; a jump past
        max_nodes or a multiple of 2048 is checked as one step is (_budget)."""
        later = self.later
        n, start, mx = len(later), len(out), out[-1][-1]
        span = [lst[-1][0] + 1 if lst else i + 1 for i, lst in enumerate(later)]
        allowed = self.palette.allowed
        dom = [self.palette.full] * n
        for p, label in enumerate(out):
            m = label_mask(label)
            for j, cap in later[p]:
                dom[j] &= allowed[cap][m]
        if not all(dom[start:]):
            return False
        canonical, decoded = self.palette.canonical, self.palette.decoded
        sig = [0] * (self.k + 1)
        for p, label in enumerate(out):
            for c in label:
                sig[c] |= 1 << p
        cand, top, seen = canonical[mx] & dom[start], mx, {}
        stack = []
        sig_at = sig.__getitem__
        nodes = self.nodes
        check = nodes + 1
        i = start
        while True:
            if not cand:
                if not stack:
                    self.nodes = nodes
                    return False
                i -= 1
                bit = 1 << i
                for c in out.pop():
                    sig[c] ^= bit
                cand, top, seen, saved, key, before = stack.pop()
                dom[i + 1:span[i]] = saved
                seen[key] = nodes - before
                continue
            x = cand.bit_length() - 1
            cand ^= 1 << x
            m, label, last = decoded[x]
            key = tuple(sorted(map(sig_at, label)))
            count = seen.get(key)
            if count is not None:
                nodes += count
                if nodes >= check:
                    check = self._budget(nodes)
                continue
            nodes += 1
            if nodes >= check:
                check = self._budget(nodes)
            hi = span[i]
            saved = dom[i + 1:hi]
            for j, cap in later[i]:
                d = dom[j] & allowed[cap][m]
                if not d:
                    dom[i + 1:hi] = saved
                    seen[key] = 1
                    break
                dom[j] = d
            else:
                out.append(label)
                bit = 1 << i
                for c in label:
                    sig[c] ^= bit
                stack.append((cand, top, seen, saved, key, nodes - 1))
                i += 1
                if i == n:
                    self.nodes = nodes
                    return True
                if last > top:
                    top = last
                cand, seen = canonical[top] & dom[i], {}


def _limits(budget: SearchBudget, t: int, *ks) -> tuple:
    """Check that t and each of ks are ints, not bools, with t >= 1, and
    return budget (SearchBudget() when None) as (max_nodes, deadline), the
    deadline on time.monotonic, or None without a wall_limit."""
    if any(type(x) is not int for x in (t, *ks)) or t < 1:
        raise ValueError("need t >= 1, with t and k ints")
    if budget is None:
        budget = SearchBudget()
    if budget.wall_limit is None:
        return budget.max_nodes, None
    return budget.max_nodes, time.monotonic() + budget.wall_limit


def exact_decide(g: Graph, t: int, k: int,
                 budget: SearchBudget = None) -> DecideResult:
    """Complete search for a tone-t coloring of g with k colors.

    Returns a verified coloring, "infeasible" after exhausting the
    canonicalized tree, or "timeout".  t and k must be ints, t >= 1 (a
    negative k is infeasible); anything else raises ValueError before any
    table or search.  The budget becomes one node cap and one deadline.
    The answers that need no search come from _settled, before any table;
    else the search layout of g and t is built for this one decision.

    The first vertex gets (1..t).  The second gets (t+1..2t) when it has a
    constraint to the first, and (1..t) when it has none; the search, with
    one budget, runs over the rest.  Fixing the second label loses nothing.
    In breadth-first order from a maximum-degree vertex, the second vertex
    is adjacent to the first exactly when g has an edge, and then canonical
    introduction leaves it only (t+1..2t), a label that needs 2t <= k.  On
    an edgeless graph every label extends.  Nodes count the labels tried
    from the third vertex on, those that forward checking rejects included,
    and some counted by isomorphism rather than walked (see _Searcher).
    Where 2t > k on a graph with an edge, or the first two labels already
    empty a domain, "infeasible" comes at 0 nodes.
    """
    max_nodes, deadline = _limits(budget, t, k)
    return _settled(g, t, k) or \
        _decide(g, t, k, max_nodes, deadline, search_layout(g, t))


def _settled(g: Graph, t: int, k: int):
    """The DecideResult of the cases that need no search, else None: no
    vertex, k < t, one vertex, and 2t > k on a graph with an edge, where
    the second label (t+1..2t) does not fit (see exact_decide)."""
    if g.n == 0 and k >= 0:     # the empty coloring fits any palette
        return DecideResult("colored", Coloring(t, k))
    if k < t or 2 * t > k and any(g.adj):
        return DecideResult("infeasible")
    if g.n == 1:
        base = tuple(range(1, t + 1))
        return DecideResult("colored", Coloring(t, k, {0: base}), 1)


def _decide(g: Graph, t: int, k: int, max_nodes: int, deadline: float,
            layout: tuple) -> DecideResult:
    """exact_decide past its checks and _settled: at most max_nodes nodes,
    stopping past the monotonic deadline unless it is None, on layout =
    search_layout(g, t), which the caller builds.  The layout is taken on
    trust, since one of another graph or tone decides wrongly; only
    exact_decide and tau call this, each with the layout of its g and t.
    Position 0 has maximum degree, so later[0] is empty iff g has no edge."""
    order, later = layout
    searcher = _Searcher(later, t, k, max_nodes, deadline)
    base = tuple(range(1, t + 1))
    second = tuple(range(t + 1, 2 * t + 1)) if later[0] else base
    loop = searcher._dfs_lazy if searcher.palette is None \
        else searcher._dfs_compiled
    out = [base, second]
    try:
        found = g.n == 2 or loop(out)
    except _Timeout:
        return DecideResult("timeout", nodes=searcher.nodes)
    finally:
        if searcher.palette is not None:
            searcher.palette.trim()
    if not found:
        return DecideResult("infeasible", nodes=searcher.nodes)
    coloring = Coloring(t, k, {order[i]: out[i] for i in range(g.n)})
    return DecideResult("colored", _checked(g, coloring), searcher.nodes)


def tau(g: Graph, t: int, budget: SearchBudget = None) -> TauResult:
    """The tone chromatic number by upward search from the best certificate.

    Starts at the largest applicable lower bound and increments k until the
    decision search succeeds; the infeasibility evidence for value-1 is the
    starting certificate (when the first k works) or an Exhaustion
    certificate of the search that refuted value-1.
    t must be an int >= 1, else ValueError before any table or search.
    The search layout is built once for every k.  The budget's max_nodes
    holds per k; its wall_limit becomes one deadline for the whole call,
    which every k receives as it is.
    """
    max_nodes, deadline = _limits(budget, t)
    if g.n == 0:
        return TauResult("resolved", value=0, coloring=Coloring(t, 0))
    cert = best_lower_bound(g, t)
    k0 = max(t, cert.bound)
    layout = search_layout(g, t)
    total = 0
    lower = cert
    for k in range(k0, g.n * t + 1):
        if deadline is not None and time.monotonic() >= deadline:
            return TauResult("timeout", lower_bound=k, nodes=total)
        res = _settled(g, t, k) or \
            _decide(g, t, k, max_nodes, deadline, layout)
        total += res.nodes
        if res.status == "colored":
            return TauResult("resolved", value=k, coloring=res.coloring,
                             lower_certificate=lower, lower_bound=k, nodes=total)
        if res.status == "timeout":
            return TauResult("timeout", lower_bound=k, nodes=total)
        lower = Certificate("Exhaustion", {"colors": k, "nodes": res.nodes},
                            k + 1)
    raise AssertionError("search exceeded the trivial palette n*t")
