"""Construction of finite linear Jaco graphs.

The infinite construction processes vertices 1, 2, 3, ... in order.  Vertex i
first receives arcs from every earlier vertex whose out-reach covers i, which
fixes its in-degree d-(v_i); its own out-reach is then r_i = 2i - d-(v_i), so
its out-neighbors form the contiguous interval [i+1, r_i].  The finite graph
on n vertices keeps only ids <= n, truncating each out-interval at n, which
gives vertex i the degree d-(v_i) + min(i - d-(v_i), n - i).

:func:`build_profile` runs the construction as a single O(n) interval sweep
with no per-arc work; :func:`underlying_degree_counts` runs the same sweep
straight into a degree histogram, and adjacency is materialized only by
:func:`underlying_graph`.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from .graphs import SimpleGraph

__all__ = [
    "JacoProfile",
    "build_profile",
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


def _in_degrees(n_max: int) -> Iterator[int]:
    """Yield d-(v_i) for i = 1..n_max: the O(n_max) interval sweep.

    The sweep keeps a running count of out-reach intervals covering the
    current vertex: every vertex covers its successor (r_h >= h + 1 always),
    and intervals with out-reach exactly i - 1 stop covering at i.  It stores
    nothing per vertex beyond one expiry count per id.
    """
    expiring = [0] * (n_max + 1)  # expiring[j]: count of vertices with out-reach j
    active = 0
    for i in range(1, n_max + 1):
        if i > 1:
            active += 1 - expiring[i - 1]
        yield active
        r = i + i - active
        if r <= n_max:
            expiring[r] += 1


def build_profile(n_max: int) -> JacoProfile:
    """Compute in-degrees and out-reaches for vertices 1..n_max in O(n_max)."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    in_deg = tuple(_in_degrees(n_max))
    return JacoProfile(in_deg, tuple(i + i - d for i, d in enumerate(in_deg, 1)))


def _profile_for(n: int, profile: JacoProfile | None) -> JacoProfile:
    if profile is None:
        return build_profile(n)
    if profile.n_max < n:
        raise ValueError(f"profile covers 1..{profile.n_max}, need {n}")
    return profile


def _degrees(n: int, in_degrees: Iterable[int]) -> Iterator[int]:
    """Degrees of v_1..v_n in the graph on n vertices, from their in-degrees.

    Vertex i has degree d-(v_i) + min(i - d-(v_i), n - i), which is
    min(i, n - i + d-(v_i)); extra in-degrees past v_n are ignored.
    """
    for i, dminus in zip(range(1, n + 1), in_degrees):
        rest = n - i + dminus
        yield i if i < rest else rest


def underlying_degrees(n: int, profile: JacoProfile | None = None) -> tuple[int, ...]:
    """Degree sequence of the underlying undirected graph on n vertices.

    Entry i-1 is d-(v_i) plus the out-degree truncated at n, that is
    min(i - d-(v_i), n - i).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return tuple(_degrees(n, _profile_for(n, profile).in_degrees))


def underlying_degree_counts(n: int) -> list[int]:
    """Degree histogram of the underlying graph on n vertices.

    Entry d counts the vertices of degree d, for d = 0 up to the largest
    degree.  Runs the sweep of :func:`build_profile` and counts each
    vertex's degree as it passes, so no per-vertex data is kept.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    counts = [0] * n  # degrees are at most n - 1
    for d in _degrees(n, _in_degrees(n)):
        counts[d] += 1
    while not counts[-1]:
        counts.pop()
    return counts


def underlying_graph(
    n: int,
    profile: JacoProfile | None = None,
    max_edges: int = DEFAULT_EDGE_GUARD,
) -> SimpleGraph:
    """Materialize the underlying undirected graph: edges {i, j} for i < j <= min(r_i, n).

    Raises ValueError when the edge count would exceed ``max_edges``; degree
    based computations should use :func:`underlying_degrees` instead.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    reach = _profile_for(n, profile).out_reaches
    total = 0
    for i in range(1, n + 1):
        hi = reach[i - 1]
        if hi > n:
            hi = n
        if hi > i:
            total += hi - i
    if total > max_edges:
        raise ValueError(
            f"underlying graph on {n} vertices has {total} edges, above the "
            f"guard of {max_edges}; use underlying_degrees for metric work"
        )
    adj: list[list[int]] = [[] for _ in range(n + 1)]
    for i in range(1, n + 1):
        hi = reach[i - 1]
        if hi > n:
            hi = n
        if hi > i:
            out = range(i + 1, hi + 1)
            adj[i].extend(out)  # earlier in-neighbors are already in place, all < i
            for j in out:
                adj[j].append(i)
    return SimpleGraph._from_sorted_adjacency(adj)


def prime_jaconian_index(n: int, profile: JacoProfile | None = None) -> int:
    """Smallest vertex id attaining the maximum degree of the underlying graph.

    Defined for n >= 2; the single-vertex graph has no meaningful Jaconian
    vertex.  Satisfies k = n - d-(v_{n+1}): exactly vertices k+1..n gain an
    edge when vertex n+1 arrives.
    """
    if n < 2:
        raise ValueError(f"prime Jaconian index needs n >= 2, got {n}")
    degrees = underlying_degrees(n, profile)
    return degrees.index(max(degrees)) + 1
