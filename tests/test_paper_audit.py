"""The paper's tone-2 results against exact values on small families.

For graphs with mad < 12/5 and for maximal outerplanar graphs, the exact
tau is compared with the star lower bound and with the palette the class's
colorer uses, and each palette's excess over the largest tau at each
maximum degree is pinned, so that a palette change shows up.  networkx
supplies the atlas of every graph on at most 7 vertices; without it the
module is skipped."""

from fractions import Fraction

import pytest

from ttone.bounds import star_lower
from ttone.constructions import (color_outerplanar, color_sparse,
                                 outerplanar_palette)
from ttone.exact import tau
from ttone.graphs import Graph, mad

nx = pytest.importorskip("networkx")


def _tau2(g: Graph) -> int:
    result = tau(g, 2)
    assert result.status == "resolved"
    return result.value


def _excess(values: dict, palette) -> dict:
    """max_degree -> palette(max_degree) minus the largest tau at it."""
    return {d: palette(d) - max(taus) for d, taus in sorted(values.items())}


def sparse_palette(max_degree: int) -> int:
    return max(7, star_lower(max_degree))


def test_sparse_palette_against_tau_on_the_atlas():
    # the connected atlas graphs (one vertex up to 7) with mad < 12/5
    taus = {}
    for h in nx.graph_atlas_g()[1:]:
        if not nx.is_connected(h):
            continue
        g = Graph(h.number_of_nodes(), list(h.edges()))
        if mad(g).fraction >= Fraction(12, 5):
            continue
        d = g.max_degree()
        value = _tau2(g)
        assert star_lower(d) <= value <= sparse_palette(d)
        assert color_sparse(g).k == sparse_palette(d)
        taus.setdefault(d, []).append(value)
    assert {d: len(v) for d, v in taus.items()} == \
        {0: 1, 1: 1, 2: 10, 3: 55, 4: 31, 5: 7, 6: 2}
    # tau = 6 at every degree from 2 to 6: the palette has one color more
    assert {d: max(v) for d, v in taus.items()} == \
        {0: 2, 1: 4, 2: 6, 3: 6, 4: 6, 5: 6, 6: 6}
    assert _excess(taus, sparse_palette) == \
        {0: 5, 1: 3, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1}


def _triangulations(lo: int, hi: int) -> list:
    """The chord sets that triangulate the convex polygon lo..hi, each with
    its side (lo, hi): the triangle on that side has an apex between."""
    if hi - lo < 2:
        return [frozenset()]
    return [left | right | {(lo, apex), (apex, hi)}
            for apex in range(lo + 1, hi)
            for left in _triangulations(lo, apex)
            for right in _triangulations(apex, hi)]


def maximal_outerplanar_graphs(n: int) -> list:
    """Every maximal outerplanar graph on n >= 3 vertices, one per class of
    triangulations of the n-gon under the dihedral group."""
    sides = {(i, i + 1) for i in range(n - 1)} | {(0, n - 1)}
    seen, out = set(), []
    for chords in _triangulations(0, n - 1):
        edges = chords | sides
        key = min(tuple(sorted(tuple(sorted(((s * u + r) % n, (s * w + r) % n)))
                               for u, w in edges))
                  for r in range(n) for s in (1, -1))
        if key not in seen:
            seen.add(key)
            out.append(Graph(n, sorted(edges)))
    return out


def test_outerplanar_palette_against_tau():
    taus = {}
    counts = []
    for n in range(4, 10):
        family = maximal_outerplanar_graphs(n)
        counts.append(len(family))
        for g in family:
            d = g.max_degree()
            value = _tau2(g)
            assert value == 7 and star_lower(d) <= value
            assert color_outerplanar(g).k == outerplanar_palette(d)
            taus.setdefault(d, []).append(value)
    assert counts == [1, 1, 3, 4, 12, 27]
    assert _excess(taus, outerplanar_palette) == \
        {3: 1, 4: 2, 5: 2, 6: 2, 7: 2, 8: 3}
