"""Labels, colorings, the multi-tone distance verifier, and greedy extension."""

from __future__ import annotations

from collections import namedtuple
from functools import reduce
from itertools import chain, combinations
from operator import or_

from .graphs import Graph, distances_within


class StructuralError(ValueError):
    """Coloring is malformed (bad label size, color out of palette, bad id)."""


class ColoringError(RuntimeError):
    """Greedy coloring got stuck; .vertex names the blocked vertex."""

    def __init__(self, vertex: int):
        super().__init__(f"no label available for vertex {vertex}")
        self.vertex = vertex


def label_mask(label) -> int:
    """Bitmask of a label; color c occupies bit c-1."""
    m = 0
    for c in label:
        m |= 1 << (c - 1)
    return m


class Coloring:
    """A (possibly partial) assignment of t-sets from [1..k] to vertices."""

    __slots__ = ("t", "k", "labels")

    def __init__(self, t: int, k: int, labels: dict = None):
        self.t = t
        self.k = k
        self.labels = {} if labels is None else labels

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.t, self.k, self.labels) == (other.t, other.k, other.labels)

    def __repr__(self):
        return f"Coloring(t={self.t!r}, k={self.k!r}, labels={self.labels!r})"

    def assign(self, v: int, label) -> None:
        self.labels[v] = tuple(sorted(label))

    def colors_used(self) -> set:
        return set(chain.from_iterable(self.labels.values()))

    def to_json(self) -> str:
        return _json_line({
            "t": self.t,
            "k": self.k,
            "labels": {str(v): list(lab) for v, lab in sorted(self.labels.items())},
        })

    @classmethod
    def from_json(cls, text: str) -> "Coloring":
        """Parse without coercion: t, k and colors must be JSON integers,
        labels lists, and vertex keys the canonical decimal of their id."""
        import json
        try:
            payload = json.loads(text, object_pairs_hook=_unique_keys)
            t, k, raw = payload["t"], payload["k"], payload["labels"]
            items = raw.items()
        except (AttributeError, KeyError, TypeError, ValueError,
                RecursionError) as exc:     # nesting deeper than the parser's stack
            raise StructuralError(f"bad coloring JSON: {exc}") from exc
        if type(t) is not int or type(k) is not int:     # bools are not ints here
            raise StructuralError(f"bad coloring JSON: t={t!r}, k={k!r} must be integers")
        labels = {}
        for key, lab in items:
            try:
                v = int(key)
            except ValueError:
                v = None
            if v is None or str(v) != key:
                raise StructuralError(f"bad coloring JSON: vertex key {key!r}")
            if type(lab) is not list or any(type(c) is not int for c in lab):
                raise StructuralError(f"bad coloring JSON: vertex {key}: "
                                      f"label {lab!r} is not a list of integers")
            labels[v] = tuple(sorted(lab))
        return cls(t, k, labels)


def _json_line(obj) -> str:
    """The one JSON writer: obj as one line with sorted keys and no spaces,
    and a newline, as every ttone output in JSON is written."""
    import json     # on first use, so import ttone does not load it
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _unique_keys(pairs) -> dict:
    obj = dict(pairs)
    if len(obj) != len(pairs):
        raise ValueError("duplicate key")
    return obj


class Violation(namedtuple("Violation", "u v distance shared")):
    """A pair sharing at least as many colors as its distance allows."""

    __slots__ = ()


def check_structure(g: Graph, coloring: Coloring) -> list:
    """Raise StructuralError unless t and k are ints (not bools) and every
    assigned label is a valid t-set (t distinct colors, each an int, not a
    bool, in 1..k, in any order) on an int vertex id in 0..n-1.

    Returns the label masks over the ranks of the colors in use, so their
    width does not grow with the color values (0 where unassigned; a label
    is a nonempty t-set).  The sizes of the labels, the types of the colors
    and of the ids are taken in one pass each, the colors' range over the
    set in use and each label's distinct colors on its mask; only a
    coloring that fails is walked again vertex by vertex, to name its first
    bad label."""
    t, k = coloring.t, coloring.k
    if type(t) is not int or type(k) is not int or t < 1 or k < 0:
        raise StructuralError("need integers t >= 1 and k >= 0, "
                              f"got t={t!r}, k={k!r}")
    n, labels = g.n, coloring.labels
    try:    # a label with no size, or a color that is no set member
        sizes = set(map(len, labels.values()))
        used = coloring.colors_used()
    except TypeError:
        sizes = None
    # types per color and id: True or 2.0 hides in a set that holds 1 or 2
    if sizes is not None and sizes <= {t} and \
            set(map(type, chain.from_iterable(labels.values()))) <= {int} and \
            set(map(type, labels)) <= {int} and \
            all(1 <= c <= k for c in used) and \
            (not labels or min(labels) >= 0 and max(labels) < n):
        bit = {c: 1 << i for i, c in enumerate(sorted(used))}
        masks = [0] * n
        for v, lab in labels.items():
            m = 0
            for c in lab:
                m |= bit[c]
            if m.bit_count() != t:
                break
            masks[v] = m
        else:
            return masks
    for v, lab in labels.items():
        if type(v) is not int or not (0 <= v < n):
            raise StructuralError(f"label on unknown vertex {v!r}")
        try:
            sized = len(lab) == t == len(set(lab))
        except TypeError:           # not a sized collection of hashables
            sized = False
        if not sized:
            raise StructuralError(f"vertex {v}: label {lab} is not a {t}-set")
        if not all(type(c) is int and 1 <= c <= k for c in lab):
            raise StructuralError(f"vertex {v}: label {lab} outside [1,{k}]")


def verify_partial(g: Graph, coloring: Coloring) -> list:
    """Violations among assigned pairs at distance <= t, sorted; an empty
    list means ok.

    For t <= 2 no ball is walked.  Distance 1 is each edge u < w with both
    ends assigned.  Labels are t-sets, so at t = 2 a pair shares at least 2
    colors exactly when its labels are equal, and the pairs at distance 2
    are the non-adjacent pairs with a common neighbor: grouping each vertex's
    assigned neighbors by label finds them, each pair reported once however
    many common neighbors it has.  That is O(m) on a valid coloring, where a
    ball walk costs the sum of the squared degrees.  For t >= 3, one BFS of
    radius t per assigned vertex u, over a seen list stamped with u, tests
    each w > u as it is reached; u's violations are sorted by w.  Shared
    counts are taken on check_structure's rank masks."""
    masks = check_structure(g, coloring)
    t = coloring.t
    adj = g.adj
    if t <= 2:
        return _verify_low_tone(adj, masks, t)
    seen = [-1] * g.n
    bad = []
    for u in sorted(coloring.labels):
        mu = masks[u]
        seen[u] = u
        frontier = [u]
        found = []
        for d in range(1, t + 1):
            nxt = []
            for x in frontier:
                for w in adj[x]:
                    if seen[w] != u:
                        seen[w] = u
                        nxt.append(w)
                        if w > u:
                            shared = (mu & masks[w]).bit_count()
                            if shared >= d:
                                found.append(Violation(u, w, d, shared))
            if not nxt:
                break
            frontier = nxt
        if found:
            found.sort()
            bad += found
    return bad


def _verify_low_tone(adj, masks, t: int) -> list:
    """verify_partial's violations at t <= 2, from the edges and, at t = 2,
    the assigned neighbors each vertex shares (masks: 0 when unassigned)."""
    bad = []
    twins = set()
    for x, nbrs in enumerate(adj):
        if not nbrs:
            continue
        ms = list(map(masks.__getitem__, nbrs))
        mx = masks[x]
        if mx & reduce(or_, ms):
            for w, m in zip(nbrs, ms):
                if mx & m and w > x:
                    bad.append(Violation(x, w, 1, (mx & m).bit_count()))
        if t == 1 or len(set(ms)) == len(ms):
            continue                # no mask twice among x's neighbors
        groups = {}
        for w, m in zip(nbrs, ms):
            if m:
                groups.setdefault(m, []).append(w)
        for group in groups.values():
            for a, b in combinations(group, 2):     # a < b: nbrs is sorted
                if b not in adj[a]:
                    twins.add((a, b))
    bad += (Violation(a, b, 2, 2) for a, b in twins)
    bad.sort()
    return bad


def verify(g: Graph, coloring: Coloring) -> list:
    """Violations of a total coloring; raises StructuralError if not total."""
    missing = next((v for v in range(g.n) if v not in coloring.labels), None)
    if missing is not None:
        raise StructuralError(f"coloring is not total (vertex {missing} unassigned)")
    return verify_partial(g, coloring)


def _checked(g: Graph, coloring: Coloring) -> Coloring:
    """coloring, once verify(g, coloring) finds nothing; the one check of
    every coloring a colorer or the search emits (a raise, kept under -O)."""
    bad = verify(g, coloring)
    if bad:
        raise AssertionError(f"built an invalid coloring: {bad[0]}")
    return coloring


# ---------------------------------------------------------------------------
# Label enumeration and extension
# ---------------------------------------------------------------------------

def label_stream(k: int, t: int, cons, mx: int = None):
    """Lazy lexicographic stream of the t-sets of [1..k] that respect cons.

    Yields (mask, label, top) for each label L with popcount(mask & L) <= cap
    for every (mask, cap) in cons.  Colors are chosen in increasing order
    with running sharing counters, pruning any prefix that exceeds a cap.
    Each constraint's colors are scattered once into a hit table (color ->
    indices of the constraints holding it), O(t*len(cons)) for label masks;
    a cap-0 constraint is an ordinary one whose remaining count is 0, and a
    color above k in a mask is never tried, so it is harmless.

    With mx (the largest color used so far) the stream applies the search's
    canonical color introduction as a reach bound: new colors above mx may
    appear only as mx+1, mx+2, ... in that order, and top is mx plus the new
    colors the label brings.  Without mx every color counts as introduced
    and top is k.  One generator frame walks an explicit stack of chosen
    colors, so deep labels cost no nested generator resumes.  A tone that
    is no int of at least 1 raises ValueError on the first draw.
    """
    if type(t) is not int or t < 1:     # else no label has t colors: no end
        raise ValueError(f"tone must be an int >= 1, got {t!r}")
    hits = {}
    rem = []
    for i, (mask, cap) in enumerate(cons):
        rem.append(cap)
        while mask:
            low = mask & -mask
            mask ^= low
            hits.setdefault(low.bit_length(), []).append(i)
    if mx is None:
        mx = k
    chosen = []
    mask = 0
    above = 0               # colors of the prefix that are above mx
    c = 0                   # last color tried at the current depth
    last = t - 1
    while True:
        d = len(chosen)
        hi = k - last + d   # leave room for the colors still to choose
        if mx + above + 1 < hi:
            hi = mx + above + 1
        c += 1
        while c <= hi:
            h = hits.get(c, ())
            for i in h:
                if not rem[i]:
                    break
            else:
                break
            c += 1
        if c > hi:
            if not d:
                return
            c = chosen.pop()
            mask ^= 1 << (c - 1)
            for i in hits.get(c, ()):
                rem[i] += 1
            if c > mx:
                above -= 1
            continue
        if d == last:
            yield (mask | 1 << (c - 1), (*chosen, c),
                   mx + above + (c > mx))
            continue
        chosen.append(c)
        mask |= 1 << (c - 1)
        for i in h:
            rem[i] -= 1
        if c > mx:
            above += 1


def _labels_at(g: Graph, partial: Coloring, v: int):
    """The labels assignable to v, lazily and in lexicographic order, each a
    sorted tuple; an assigned v raises StructuralError on the first draw.

    Each labeled vertex w at distance d <= t from v may share at most d - 1
    colors with v's label.  At t = 2 no label stream is built: near, the OR
    of the neighbors' label masks over every color of each label, and
    banned, the labels one step beyond a neighbor, read without seen marks,
    leave the pairs (a, b), a < b, of free colors (outside near) that are
    not banned; they come off the complement of near lowest bit first.  v
    has no label, and each neighbor's label lies inside near, so neither
    equals such a pair.  Other tones, and a t that is no int (which
    label_stream refuses), stream label_stream over one cap per labeled
    vertex of the ball distances_within(g, v, t) (g a Graph or a
    Reduction).
    """
    labels, t, k = partial.labels, partial.t, partial.k
    if v in labels:
        raise StructuralError(f"vertex {v} already assigned")
    if t != 2 or type(t) is not int:
        cons = [(label_mask(labels[w]), d - 1)
                for w, d in distances_within(g, v, t).items() if w in labels]
        for _, label, _ in label_stream(k, t, cons):
            yield label
        return
    adj, get = g.adj, labels.get
    near = 0
    for w in adj[v]:
        lab = get(w)
        if lab is not None:
            for c in lab:
                near |= 1 << (c - 1)
    banned = {get(w) for u in adj[v] for w in adj[u]}
    free = ~near & ((1 << k) - 1) if k > 0 else 0
    while free:
        low = free & -free
        free ^= low
        a = low.bit_length()
        rest = free             # the free colors above a
        while rest:
            high = rest & -rest
            rest ^= high
            label = (a, high.bit_length())
            if label not in banned:
                yield label


def available_labels(g: Graph, partial: Coloring, v: int) -> list:
    """All labels assignable to v without any violation, in lexicographic
    order: every label of _labels_at."""
    return list(_labels_at(g, partial, v))


def greedy_extend(g: Graph, partial: Coloring, v: int):
    """Assign the lexicographically least available label to v, the first
    label of _labels_at, stored as yielded (already sorted).

    Returns the label, or None when no label is available (the partial
    coloring is left untouched in that case).
    """
    label = next(_labels_at(g, partial, v), None)
    if label is not None:
        partial.labels[v] = label
    return label


def greedy_color(g: Graph, t: int, k: int, order=None) -> Coloring:
    """Color vertices in the given order (default: id order) by greedy
    extension; g may be a Graph or a Reduction.

    Raises ColoringError naming the first stuck vertex.  For t=2 this always
    succeeds when k >= ceil((2+sqrt(2)) * max_degree).  A t or k that is
    no int, or t < 1, raises ValueError first, even with no vertex to draw.
    """
    if type(t) is not int or t < 1:
        raise ValueError(f"tone must be an int >= 1, got {t!r}")
    if type(k) is not int:
        raise ValueError(f"k must be an int, got {k!r}")
    if order is None:
        order = g.vertices()
    order = list(order)
    if sorted(order) != list(g.vertices()):
        raise ValueError("order must be a permutation of the vertices")
    coloring = Coloring(t, k)
    for v in order:
        if greedy_extend(g, coloring, v) is None:
            raise ColoringError(v)
    return coloring

