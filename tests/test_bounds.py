import random
from inspect import signature
from itertools import product
from math import comb, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttone.bounds import (_least_pairs, best_lower_bound, c4_lower,
                          c9_t5_counting, c9_t5_feasible_tuple, certificates,
                          contains_c4, cycle_counting_t3, h_t_bounds,
                          path_tau, star_lower)
from ttone.coloring import _json_line
from ttone.constructions import outerplanar_palette, planar_palette
from conftest import (degenerate_palette, graphs, greedy_2tone_palette,
                      least_k, pairwise_contains_c4)
from ttone.graphs import Graph, gen_cycle, gen_grid, gen_path, gen_star


def ceil_star_formula(delta):
    # ceil(sqrt(2*delta + 0.25) + 2.5) = ceil((5 + sqrt(8*delta + 1)) / 2)
    m = 8 * delta + 1
    s = isqrt(m)
    if s * s == m:
        return (5 + s + 1) // 2 if (5 + s) % 2 else (5 + s) // 2
    return (5 + s) // 2 + 1


def test_least_pairs_matches_a_scan():
    m = 0
    for b in range(-5, 10 ** 4 + 1):
        while comb(m, 2) < b:
            m += 1
        assert _least_pairs(b) == m


def _roots_sample(seed: int) -> list:
    """Seeded values up to 10**30: a few at each order of magnitude, and
    C(m, 2) and its neighbors for m at each, where a root moves."""
    rng = random.Random(seed)
    out = []
    for e in range(31):
        out += [rng.randrange(10 ** e, 10 ** (e + 1)) for _ in range(3)]
        m = rng.randrange(isqrt(2 * 10 ** e) + 2, isqrt(2 * 10 ** (e + 1)) + 3)
        out += [comb(m, 2) - 1, comb(m, 2), comb(m, 2) + 1]
    return out


def test_palette_roots_match_the_search_they_replaced():
    # the six least-k searches, by the galloping oracle, where a scan
    # cannot finish
    values = _roots_sample(29)
    for d in values:
        assert star_lower(d) == least_k(
            lambda k: comb(max(k - 2, 0), 2) >= d, lo=2)
        assert h_t_bounds(d) == (
            least_k(lambda k: comb(k, 2) >= 3 * d, lo=2),
            least_k(lambda k: comb(k, 2) - comb(6, 2) >= 3 * d, lo=6))
        # the PathFormula cap of certificates
        assert _least_pairs(d) == least_k(lambda i: comb(i, 2) >= d)
    for d in [0, *values]:
        assert outerplanar_palette(d) == least_k(
            lambda k: comb(max(k - 4, 0), 2) > d + 2, lo=4)
        assert planar_palette(d) == max(41, least_k(
            lambda k: comb(max(k - 10, 0), 2) > 2 * d + 25, lo=10))
    # no graph has a degree below 0: refused, as star_lower refuses it
    for d in [*range(-40, 0), -10 ** 30, -10 ** 6]:
        for palette in (outerplanar_palette, planar_palette):
            with pytest.raises(ValueError, match="must be nonnegative"):
                palette(d)


def test_star_lower_examples():
    assert star_lower(7) == 7
    assert star_lower(1) == 4
    assert star_lower(0) == 2


@given(st.integers(1, 10 ** 6))
@settings(max_examples=300)
def test_star_lower_matches_ceiling_formula(delta):
    got = star_lower(delta)
    assert got == ceil_star_formula(delta)
    assert comb(got - 2, 2) >= delta > comb(got - 3, 2)


def test_path_tau_examples():
    assert path_tau(3, 3) == 8
    assert path_tau(4, 5) == 16
    for n in range(4, 12):
        assert path_tau(n, 2) == 5


@given(st.integers(1, 12), st.integers(1, 40), st.integers(1, 40))
def test_path_tau_stabilizes(t, n1, n2):
    stab = next(i for i in range(1, 50) if comb(i, 2) >= t) + 1
    if n1 >= stab and n2 >= stab:
        assert path_tau(n1, t) == path_tau(n2, t)


def test_c4_and_grid_lower():
    assert c4_lower(3) == 10
    assert c4_lower(4) == 14
    assert c4_lower(5) == 18

    def p2p3_lower(t):
        # tone chromatic number of the 2x3 grid, 6t - 10, valid for t >= 5
        if t < 5:
            raise ValueError("formula only holds for t >= 5")
        return 6 * t - 10

    assert p2p3_lower(5) == 20
    assert p2p3_lower(6) == 26
    with pytest.raises(ValueError):
        p2p3_lower(4)


def test_cycle_counting_t3():
    assert cycle_counting_t3(10).bound == 9
    assert cycle_counting_t3(13).bound == 9
    assert cycle_counting_t3(16) is None
    fired = [n for n in range(3, 41) if cycle_counting_t3(n) is not None]
    assert fired == [10, 13]


def test_c9_t5_counting():
    cert = c9_t5_counting()
    assert cert.bound == 17
    assert c9_t5_feasible_tuple() is None
    # relaxing the distance-2 capacity to 12 makes the system feasible
    s1, s2, s3p, s3pp, s4 = c9_t5_feasible_tuple(distance2_cap=12)
    assert s1 + s2 + s3p + s3pp + s4 == 16
    assert s1 + 2 * s2 + 3 * (s3p + s3pp) + 4 * s4 == 45


def test_c9_t5_feasible_tuple_matches_brute_force():
    # the same integer system, every tuple of counts 0..16 tried: nonnegative
    # counts of 16 colors filling 45 label slots, within the distance-2 cap
    # (3*s4 + s3' <= cap) and the distance-3 capacity (s3' + 3*s3'' <= 18)
    def fits(counts, cap):
        s1, s2, s3p, s3pp, s4 = counts
        return (sum(counts) == 16
                and s1 + 2 * s2 + 3 * (s3p + s3pp) + 4 * s4 == 45
                and 3 * s4 + s3p <= cap and s3p + 3 * s3pp <= 18)

    loose = [c for c in product(range(17), repeat=5) if fits(c, 48)]  # no cap
    for cap in range(19):
        feasible = [c for c in loose if fits(c, cap)]
        found = c9_t5_feasible_tuple(cap)
        assert (found is None) == (not feasible) == (cap <= 10), cap
        if found is not None:
            assert found in feasible and fits(found, cap), cap
    assert c9_t5_feasible_tuple(11) == (0, 3, 11, 2, 0)
    # the certificate names the cap its default refutes
    default = signature(c9_t5_feasible_tuple).parameters["distance2_cap"]
    assert c9_t5_counting().parameters["distance2_cap"] == default.default


def test_bound_argument_guards():
    for call in (lambda: path_tau(0, 3), lambda: path_tau(3, 0),
                 lambda: c4_lower(0), lambda: certificates(Graph(0, []), 2),
                 lambda: certificates(gen_path(2), 0)):
        with pytest.raises(ValueError):
            call()
    assert c4_lower(1) == 2
    assert path_tau(1, 1) == 1


@pytest.mark.parametrize("call, match", [
    (lambda: path_tau(3, 2.5), "need n, t >= 1"),
    (lambda: path_tau(3, True), "need n, t >= 1"),
    (lambda: c4_lower(2.5), "need t >= 1"),
    (lambda: c4_lower(True), "need t >= 1"),
    (lambda: certificates(gen_cycle(5), 2.0), "graph and t >= 1"),
    (lambda: certificates(gen_cycle(5), True), "graph and t >= 1"),
    (lambda: star_lower(-1), "max_degree must be nonnegative"),
    (lambda: cycle_counting_t3(2), "need n >= 3"),
    (lambda: h_t_bounds(0), "need t >= 1"),
    (lambda: path_tau(True, 3), "need n, t >= 1"),
    (lambda: path_tau(2.5, 3), "need n, t >= 1"),
    (lambda: star_lower(True), "max_degree must be nonnegative"),
    (lambda: star_lower(2.0), "max_degree must be nonnegative"),
    (lambda: cycle_counting_t3(10.0), "need n >= 3"),
    (lambda: h_t_bounds(True), "need t >= 1"),
    (lambda: h_t_bounds(2.5), "need t >= 1"),
    (lambda: outerplanar_palette(True), "max_degree must be nonnegative"),
    (lambda: planar_palette(True), "max_degree must be nonnegative"),
    (lambda: outerplanar_palette(-5), "max_degree must be nonnegative"),
    (lambda: planar_palette(-100), "max_degree must be nonnegative"),
    (lambda: outerplanar_palette(3.0), "max_degree must be nonnegative"),
    (lambda: planar_palette(3.0), "max_degree must be nonnegative"),
], ids=["path-2.5", "path-true", "c4-2.5", "c4-true", "certificates-2.0",
        "certificates-true", "star-minus-1", "counting-t3-n2", "h-t-0",
        "path-n-true", "path-n-2.5", "star-true", "star-2.0",
        "counting-t3-10.0", "h-t-true", "h-t-2.5", "outerplanar-true",
        "planar-true", "outerplanar-minus-5", "planar-minus-100",
        "outerplanar-3.0", "planar-3.0"])
def test_bounds_refuse_out_of_range_arguments(call, match):
    # a float or bool is refused where an int is meant, as a value below
    # range is: 2.5 would give a fractional bound or a TypeError, 10.0 a
    # certificate with float parameters, and True would run as 1; a palette
    # below degree 0 would be that of degree 0
    with pytest.raises(ValueError, match=match):
        call()


def test_h_t_bounds():
    assert h_t_bounds(1)[0] == 3
    assert h_t_bounds(5) == (6, 9)
    assert h_t_bounds(2)[1] == 7
    for t in range(33, 60):
        lo, hi = h_t_bounds(t)
        assert hi - lo <= 1


def test_palette_helpers():
    assert greedy_2tone_palette(12) == 41
    assert greedy_2tone_palette(0) == 0
    assert degenerate_palette(2, 2, 4) == 4 + 16   # 2*2 + ceil(8*sqrt(4))
    assert degenerate_palette(2, 3, 6) >= 6


def test_contains_c4():
    assert contains_c4(gen_grid(2, 2))
    assert contains_c4(gen_grid(4, 7))
    assert not contains_c4(gen_cycle(5))
    assert not contains_c4(gen_path(9))
    assert contains_c4(Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]))


@given(graphs(max_n=10))
@settings(max_examples=300, deadline=None)
def test_contains_c4_matches_pairwise_oracle(g):
    assert contains_c4(g) == pairwise_contains_c4(g)


def test_contains_c4_on_large_sparse_graphs():
    # the pairwise oracle takes minutes at this size; the degree-order
    # scan touches each 2-path through an unfinished vertex once
    n = 100_000
    assert not contains_c4(gen_path(n))
    assert not contains_c4(gen_star(n))
    assert contains_c4(Graph(n, [(i, i + 1) for i in range(n - 1)]
                             + [(n - 1, n - 4)]))


def test_best_lower_bound_examples():
    assert best_lower_bound(gen_grid(4, 4), 3).bound == 10
    assert best_lower_bound(gen_grid(4, 4), 3).kind == "C4Subgraph"
    assert best_lower_bound(gen_star(7), 2).bound == 7
    assert best_lower_bound(gen_path(6), 3).bound == 8
    cert = best_lower_bound(gen_cycle(9), 5)
    assert cert.kind == "C9T5Counting" and cert.bound == 17
    cert = best_lower_bound(gen_cycle(10), 3)
    assert cert.bound == 9


def test_certificates_listing_and_json():
    certs = certificates(gen_grid(3, 3), 2)
    kinds = [c.kind for c in certs]
    assert kinds == ["Star", "C4Subgraph", "PathFormula"]
    line = _json_line(certs[0]._asdict())
    assert line.startswith('{"bound":') and line.endswith("}\n")
