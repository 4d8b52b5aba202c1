"""Construction of finite linear Jaco graphs.

The infinite construction processes vertices 1, 2, 3, ... in order.  Vertex i
first receives arcs from every earlier vertex whose out-reach covers i, which
fixes its in-degree d-(v_i); its own out-reach is then r_i = 2i - d-(v_i), so
its out-neighbors form the contiguous interval [i+1, r_i].  The finite graph
on n vertices keeps only ids <= n, truncating each out-interval at n, which
gives vertex i the degree d-(v_i) + min(i - d-(v_i), n - i).

Closed form
-----------
The out-degree g(i) = i - d-(v_i) is Hofstadter's G-sequence (OEIS A005206),
g(i) = G(i) = floor((i+1)/phi) with phi the golden ratio.  Proof by strong
induction on i: an earlier vertex h covers i exactly when r_h = h + g(h) >= i,
so g(i) = 1 + #{h < i : h + g(h) <= i - 1}.  If g(h) = floor((h+1)/phi) for
every h < i, then h + g(h) = floor((h+1) phi) - 1 because 1/phi = phi - 1,
and with a = h + 1 the count becomes #{a >= 2 : floor(a phi) <= i}.  Since
floor(a phi) <= i means a < (i+1)/phi, an irrational bound, the Beatty count
#{a >= 1 : floor(a phi) <= i} is floor((i+1)/phi); a = 1 always counts, so
the count over a >= 2 is one less and g(i) = floor((i+1)/phi).  In exact
integers, with a = i + 1, G(i) = (isqrt(5 a^2) - a) // 2.

The same count gives the shape of every finite graph.  With
k = G(n+1) - 1, vertex i has i + G(i) <= n exactly when i <= k, so the
degree min(i, n - G(i)) is i on the head 1..k and n - G(i) < i on the tail
k+1..n.  The tail starts below k + 1 and never rises, so k is the maximum
degree and v_k, the last head vertex, is the prime Jaconian vertex.

Every degree query therefore comes straight from n with no stored data.
:func:`build_profile` still runs the construction itself, as an O(n)
interval sweep; it is the definition the closed form is tested against.
Adjacency is materialized only by :func:`underlying_graph`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .graphs import SimpleGraph

__all__ = [
    "JacoProfile",
    "build_profile",
    "out_degree",
    "underlying_degrees",
    "underlying_degree_counts",
    "underlying_graph",
    "prime_jaconian_index",
]

# underlying_graph refuses to materialize adjacency beyond this many edges;
# the edge count grows quadratically in n while degree queries stay O(n).
DEFAULT_EDGE_GUARD = 5_000_000


@dataclass(frozen=True)
class JacoProfile:
    """Immutable per-vertex data of the construction prefix 1..n_max.

    ``in_degrees[i-1]`` is d-(v_i) and ``out_reaches[i-1]`` is
    r_i = 2i - d-(v_i), the largest id that receives an arc from v_i in the
    infinite construction.  A fully built profile may be shared freely.
    """

    in_degrees: tuple[int, ...]
    out_reaches: tuple[int, ...]

    @property
    def n_max(self) -> int:
        return len(self.in_degrees)

    def _check(self, i: int) -> int:
        if not 1 <= i <= self.n_max:
            raise ValueError(f"vertex {i} out of profile range 1..{self.n_max}")
        return i

    def in_degree(self, i: int) -> int:
        return self.in_degrees[self._check(i) - 1]

    def out_reach(self, i: int) -> int:
        return self.out_reaches[self._check(i) - 1]

    def out_degree_unbounded(self, i: int) -> int:
        """Out-degree in the infinite construction: i - d-(v_i)."""
        return self._check(i) - self.in_degrees[i - 1]


def build_profile(n_max: int) -> JacoProfile:
    """Compute in-degrees and out-reaches for vertices 1..n_max in O(n_max).

    The sweep keeps a running count of out-reach intervals covering the
    current vertex: every vertex covers its successor (r_h >= h + 1 always),
    and intervals with out-reach exactly i - 1 stop covering at i.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    in_deg = []
    expiring = [0] * (n_max + 1)  # expiring[j]: count of vertices with out-reach j
    active = 0
    for i in range(1, n_max + 1):
        if i > 1:
            active += 1 - expiring[i - 1]
        in_deg.append(active)
        r = i + i - active
        if r <= n_max:
            expiring[r] += 1
    return JacoProfile(tuple(in_deg), tuple(i + i - d for i, d in enumerate(in_deg, 1)))


def out_degree(i: int) -> int:
    """Out-degree d+(v_i) = i - d-(v_i) in the infinite construction.

    This is G(i) = floor((i+1)/phi), computed exactly as
    (isqrt(5 a^2) - a) // 2 with a = i + 1; see the module docstring.
    """
    if i < 1:
        raise ValueError(f"vertex ids start at 1, got {i}")
    a = i + 1
    return (isqrt(5 * a * a) - a) // 2


# The loops below inline out_degree: a Python call per vertex would cost
# more than the formula itself.


def underlying_degrees(n: int) -> tuple[int, ...]:
    """Degree sequence of the underlying undirected graph on n vertices.

    Entry i-1 is min(i, n - G(i)): the head 1..k with k = G(n+1) - 1, then
    the tail n - G(i) for i = k+1..n.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    k = out_degree(n + 1) - 1
    return tuple(range(1, k + 1)) + tuple(
        n - (isqrt(5 * a * a) - a) // 2 for a in range(k + 2, n + 2)
    )


def underlying_degree_counts(n: int) -> list[int]:
    """Degree histogram of the underlying graph on n vertices.

    Entry d counts the vertices of degree d, for d = 0 up to the largest
    degree k = G(n+1) - 1.  The head 1..k adds one vertex to each degree
    1..k; only the tail degrees are counted one by one, and no per-vertex
    data is kept.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    k = out_degree(n + 1) - 1
    counts = [0] + [1] * k  # tail degrees are at most k (0 only when n = 1)
    for a in range(k + 2, n + 2):
        counts[n - (isqrt(5 * a * a) - a) // 2] += 1
    return counts


def underlying_graph(n: int, max_edges: int = DEFAULT_EDGE_GUARD) -> SimpleGraph:
    """Materialize the underlying undirected graph: edges {i, j} for i < j <= min(r_i, n).

    Raises ValueError when the edge count would exceed ``max_edges``; degree
    based computations should use :func:`underlying_degrees` instead.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    # O(1) pre-check: the head v_1..v_k has degrees 1..k, so the graph has
    # at least k(k+1)/4 edges; refuse before any O(n) work when that is over.
    k = out_degree(n + 1) - 1
    at_least = (k * (k + 1) + 3) // 4
    if at_least > max_edges:
        raise ValueError(
            f"underlying graph on {n} vertices has at least {at_least} edges, above "
            f"the guard of {max_edges}; use underlying_degrees for metric work"
        )
    reach = [0] * (n + 1)  # reach[i] = min(r_i, n), with r_i = i + G(i) > i
    total = 0
    for i in range(1, n + 1):
        a = i + 1
        hi = i + (isqrt(5 * a * a) - a) // 2
        if hi > n:
            hi = n
        reach[i] = hi
        total += hi - i
    if total > max_edges:
        raise ValueError(
            f"underlying graph on {n} vertices has {total} edges, above the "
            f"guard of {max_edges}; use underlying_degrees for metric work"
        )
    adj: list[list[int]] = [[] for _ in range(n + 1)]
    for i in range(1, n + 1):
        out = range(i + 1, reach[i] + 1)
        adj[i].extend(out)  # earlier in-neighbors are already in place, all < i
        for j in out:
            adj[j].append(i)
    return SimpleGraph._from_sorted_adjacency(adj)


def prime_jaconian_index(n: int) -> int:
    """Smallest vertex id attaining the maximum degree of the underlying graph.

    Defined for n >= 2; the single-vertex graph has no meaningful Jaconian
    vertex.  Equals G(n+1) - 1 = n - d-(v_{n+1}): exactly vertices k+1..n
    gain an edge when vertex n+1 arrives.
    """
    if n < 2:
        raise ValueError(f"prime Jaconian index needs n >= 2, got {n}")
    return out_degree(n + 1) - 1
