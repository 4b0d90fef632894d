"""Closed-form lower bounds and counting-argument infeasibility certificates."""

from __future__ import annotations

from collections import namedtuple
from math import comb, isqrt

from .graphs import Graph, cycle_order, effective_diameter


class Certificate(namedtuple("Certificate", "kind parameters bound")):
    """A machine-checkable lower-bound witness for the tone chromatic number."""

    __slots__ = ()


def _least_pairs(b: int) -> int:
    """The least m >= 0 with C(m, 2) >= b: the palette root of every
    binomial bound here.  For b > 0 it is the ceiling of the positive root
    (1 + sqrt(8b + 1)) / 2 of m(m-1)/2 = b; (1 + isqrt(8b + 1)) // 2 is
    that ceiling or one less, and one test of C(m, 2) settles which.
    Integers only, so exact at any size."""
    if b <= 0:
        return 0
    m = (1 + isqrt(8 * b + 1)) // 2
    return m + (comb(m, 2) < b)


def star_lower(max_degree: int) -> int:
    """Least k with C(k-2, 2) >= max_degree; the 2-tone star lower bound,
    2 + _least_pairs(max_degree)."""
    if type(max_degree) is not int or max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    return 2 + _least_pairs(max_degree)


def path_tau(n: int, t: int) -> int:
    """Tone chromatic number of the n-vertex path: sum of max(0, t - C(i,2))."""
    if type(n) is not int or n < 1 or type(t) is not int or t < 1:
        raise ValueError("need n, t >= 1")
    return sum(max(0, t - comb(i, 2)) for i in range(n))


def c4_lower(t: int) -> int:
    """Tone chromatic number of the 4-cycle: 4t - 2."""
    if type(t) is not int or t < 1:
        raise ValueError("need t >= 1")
    return 4 * t - 2


def cycle_counting_t3(n: int):
    """Counting certificate that the n-cycle needs 9 colors at tone 3.

    Applies in the long-cycle regime (n >= 8) when n = 3s+1: an 8-coloring
    would force at least 2s+6 monochromatic distance-2 pairs, but the cycle
    has only 3s+1 such pairs, each able to host one shared color.  Fires
    exactly for n in {10, 13}; returns None otherwise.
    """
    if type(n) is not int or n < 3:
        raise ValueError("need n >= 3")
    if n < 8 or (n - 1) % 3 != 0:
        return None
    s = (n - 1) // 3
    forced = 2 * s + 6
    pairs = 3 * s + 1
    if forced <= pairs:
        return None
    return Certificate(
        "CycleCountingT3",
        {"n": n, "s": s, "forced_pairs": forced, "distance2_pairs": pairs},
        9,
    )


def c9_t5_feasible_tuple(distance2_cap: int = 9):
    """Search for color-multiplicity counts compatible with a 16-color,
    tone-5 coloring of the 9-cycle.

    Unknowns (s1, s2, s3', s3'', s4) count colors used on exactly i vertices,
    with the 3-vertex colors split by whether some pair sits at distance 2.
    Constraints: 16 colors total, 45 label slots, distance-2 pair capacity
    (3*s4 + s3' <= cap, default 9), distance-3 pair capacity
    (s3' + 3*s3'' <= 18).  Returns a satisfying tuple or None.
    """
    for s4 in range(17):
        for s3p in range(17 - s4):
            if 3 * s4 + s3p > distance2_cap:
                continue
            for s3pp in range(17 - s4 - s3p):
                if s3p + 3 * s3pp > 18:
                    continue
                for s2 in range(17 - s4 - s3p - s3pp):
                    s1 = 16 - s4 - s3p - s3pp - s2
                    if s1 + 2 * s2 + 3 * (s3p + s3pp) + 4 * s4 == 45:
                        return (s1, s2, s3p, s3pp, s4)
    return None


def c9_t5_counting() -> Certificate:
    """Certificate that the 9-cycle needs 17 colors at tone 5.

    Exhaustively confirms that no nonnegative multiplicity tuple satisfies
    the counting constraints a 16-color coloring would impose.
    """
    witness = c9_t5_feasible_tuple()
    if witness is not None:
        raise AssertionError(f"counting system unexpectedly feasible: {witness}")
    return Certificate(
        "C9T5Counting",
        {"colors": 16, "label_slots": 45, "distance2_cap": 9, "distance3_cap": 18},
        17,
    )


def h_t_bounds(t: int) -> tuple:
    """2-tone bounds for the fat triangle: (lower, upper) palette sizes.

    lower: least k with C(k,2) >= 3t (the 3t degree-2 vertices need distinct
    2-sets); upper: least k with C(k,2) - C(6,2) >= 3t (degree-2 vertices
    additionally avoid all 2-sets drawn from the six hub colors).  Both
    are _least_pairs roots, at 3t and 3t + 15.
    """
    if type(t) is not int or t < 1:
        raise ValueError("need t >= 1")
    return _least_pairs(3 * t), _least_pairs(3 * t + 15)


# ---------------------------------------------------------------------------
# Dispatch over a graph
# ---------------------------------------------------------------------------

def contains_c4(g: Graph) -> bool:
    """Exact 4-cycle detection by the degree-order scan of Chiba and
    Nishizeki (1985), O(a(G)*m) for arboricity a(G).  From each vertex v,
    by descending degree, mark the ends w of the 2-paths v-u-w through
    vertices not yet finished; a second mark on the same w closes a 4-cycle
    through v.  Each 4-cycle is found from its first-visited vertex, when
    its other three are still unfinished."""
    done = [False] * g.n
    mark = [-1] * g.n
    for v in sorted(range(g.n), key=g.degree, reverse=True):
        done[v] = True
        for u in g.adj[v]:
            if not done[u]:
                for w in g.adj[u]:
                    if not done[w]:
                        if mark[w] == v:
                            return True
                        mark[w] = v
    return False


def certificates(g: Graph, t: int) -> list:
    """Every applicable lower-bound certificate for (g, t)."""
    if g.n < 1 or type(t) is not int or t < 1:
        raise ValueError("need a nonempty graph and t >= 1")
    out = []
    if t == 2:
        delta = g.max_degree()
        out.append(Certificate("Star", {"max_degree": delta}, star_lower(delta)))
    if contains_c4(g):
        out.append(Certificate("C4Subgraph", {"t": t}, c4_lower(t)))
    # a longest shortest path is a path subgraph; its formula value stabilizes
    # once C(i,2) >= t, so a capped eccentricity scan suffices
    cap = _least_pairs(t)
    n_path = effective_diameter(g, cap) + 1
    out.append(Certificate(
        "PathFormula", {"path_vertices": n_path, "t": t}, path_tau(n_path, t)))
    if cycle_order(g) is not None:
        if t == 3:
            cert = cycle_counting_t3(g.n)
            if cert is not None:
                out.append(cert)
        if t == 5 and g.n == 9:
            out.append(c9_t5_counting())
    return out


def best_lower_bound(g: Graph, t: int) -> Certificate:
    """The certificate with the largest bound (first of that bound wins)."""
    certs = certificates(g, t)
    return max(certs, key=lambda c: c.bound)
