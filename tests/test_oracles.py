"""networkx as an independent oracle for distances and the random instance
families, and its graph atlas as a corpus for the class predicate.
networkx is a test-only dependency; without it this module is skipped."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bfs_distances, graphs
from ttone.graphs import Graph, mad, mad_below_12_5
from ttone.instances import random_apollonian, random_maximal_outerplanar

nx = pytest.importorskip("networkx")


def _nx(g: Graph):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


@given(graphs(max_n=10))
@settings(max_examples=60, deadline=None)
def test_bfs_distances_match_networkx(g):
    h = _nx(g)
    for v in range(g.n):
        got = {u: d for u, d in enumerate(bfs_distances(g, v)) if d != math.inf}
        assert got == nx.single_source_shortest_path_length(h, v)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=30, deadline=None)
def test_random_apollonian_is_planar(seed):
    rng = random.Random(seed)
    g = random_apollonian(rng, rng.randint(1, 80))
    assert nx.check_planarity(_nx(g))[0]
    assert g.m == 3 * g.n - 6              # a triangulation


@given(st.integers(0, 10 ** 6))
@settings(max_examples=30, deadline=None)
def test_random_maximal_outerplanar_is_outerplanar(seed):
    rng = random.Random(seed)
    g = random_maximal_outerplanar(rng, rng.randint(3, 80))
    h = _nx(g)
    h.add_edges_from((g.n, v) for v in range(g.n))
    assert nx.check_planarity(h)[0]        # planar with an apex on every vertex
    assert g.m == 2 * g.n - 3              # maximal outerplanar


def test_mad_below_12_5_matches_exact_mad_on_the_atlas():
    at = 0
    for h in nx.graph_atlas_g()[1:]:
        if not nx.is_connected(h):
            continue
        g = Graph(h.number_of_nodes(), list(h.edges()))
        exact = mad(g).fraction
        assert mad_below_12_5(g) == (exact < Fraction(12, 5))
        at += exact == Fraction(12, 5)
    assert at == 36
