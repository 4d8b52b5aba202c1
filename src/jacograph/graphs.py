"""Simple undirected graphs with 1-based vertex ids.

Graphs are immutable once constructed and safe to share across threads.
Provides the families the irregularity metrics are tested on (path, cycle,
star, complete bipartite), the disjoint union, the edge-joint (disjoint
union plus one bridging edge), and DOT / edge-list / JSON serialization,
whole or a block of consecutive vertices at a time.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator, Sequence

__all__ = [
    "SimpleGraph",
    "path",
    "cycle",
    "star",
    "complete_bipartite",
    "degree_sequence",
    "disjoint_union",
    "edge_joint",
    "to_dot",
    "to_edge_list",
    "from_edge_list",
    "dot_chunks",
    "edge_list_chunks",
    "json_chunks",
]

# Builders refuse a graph above this many edges (an edge-list file: a vertex
# id above it), since their memory grows with the graph, not with the input.
DEFAULT_EDGE_GUARD = 5_000_000


class SimpleGraph:
    """Undirected simple graph on vertices 1..n: no loops, no multi-edges."""

    __slots__ = ("_adj",)

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        adj: list[list[int]] = [[] for _ in range(n + 1)]
        seen: set[tuple[int, int]] = set()
        for i, j in edges:
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"edge ({i}, {j}) out of range 1..{n}")
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            key = (i, j) if i < j else (j, i)
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
            adj[i].append(j)
            adj[j].append(i)
        self._adj = tuple(tuple(sorted(nbrs)) for nbrs in adj)

    @classmethod
    def _from_sorted_adjacency(cls, adj: list[list[int]]) -> "SimpleGraph":
        # Trusted fast path for internal builders: adj[0] is ignored and every
        # adj[v] must already be strictly ascending and symmetric.
        g = object.__new__(cls)
        g._adj = tuple(map(tuple, adj))
        return g

    @property
    def n(self) -> int:
        return len(self._adj) - 1

    @property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self._adj) // 2

    def _check_vertex(self, v: int) -> int:
        if not 1 <= v <= self.n:
            raise ValueError(f"vertex {v} out of range 1..{self.n}")
        return v

    def degree(self, v: int) -> int:
        return len(self._adj[self._check_vertex(v)])

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[self._check_vertex(v)]

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (i, j) with i < j, in lexicographic order."""
        return [(v, w) for v in range(1, self.n + 1) for w in self._adj[v] if w > v]

    def validate(self) -> None:
        """Recheck the simple-graph invariants (used against trusted builders)."""
        adj = self._adj
        for v in range(1, self.n + 1):
            nbrs = adj[v]
            if list(nbrs) != sorted(set(nbrs)):
                raise ValueError(f"adjacency of {v} not strictly ascending")
            for w in nbrs:
                if w == v:
                    raise ValueError(f"self-loop at vertex {v}")
                if not 1 <= w <= self.n:
                    raise ValueError(f"neighbor {w} of {v} out of range")
                if v not in adj[w]:
                    raise ValueError(f"asymmetric edge ({v}, {w})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimpleGraph):
            return NotImplemented
        return self._adj == other._adj

    def __hash__(self) -> int:
        return hash(self._adj)

    def __repr__(self) -> str:
        return f"SimpleGraph(n={self.n}, edges={self.edge_count})"


def path(n: int) -> SimpleGraph:
    """Path v_1 - v_2 - ... - v_n; a single vertex for n = 1."""
    if n < 1:
        raise ValueError(f"path needs n >= 1, got {n}")
    if n == 1:
        return SimpleGraph._from_sorted_adjacency([(), ()])
    inner = zip(range(1, n - 1), range(3, n + 1))  # v_i has i - 1 and i + 1, for 1 < i < n
    return SimpleGraph._from_sorted_adjacency([(), (2,), *inner, (n - 1,)])


def cycle(n: int) -> SimpleGraph:
    """Cycle on n >= 3 vertices."""
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    inner = zip(range(1, n - 1), range(3, n + 1))
    return SimpleGraph._from_sorted_adjacency([(), (2, n), *inner, (1, n - 1)])


def star(n: int) -> SimpleGraph:
    """Star with center 1 and n >= 1 leaves (n + 1 vertices total).

    The leaves share one neighbor tuple, so the graph takes O(n) memory.
    """
    if n < 1:
        raise ValueError(f"star needs n >= 1 leaves, got {n}")
    return SimpleGraph._from_sorted_adjacency([(), tuple(range(2, n + 2))] + [(1,)] * n)


def complete_bipartite(n: int, m: int) -> SimpleGraph:
    """Complete bipartite graph with sides of n and m vertices, n >= m >= 1.

    Side vertices 1..n each have degree m; side vertices n+1..n+m each have
    degree n.  Every vertex of a side shares one neighbor tuple, so the graph
    takes O(n + m) memory.
    """
    if not n >= m >= 1:
        raise ValueError(f"complete bipartite needs n >= m >= 1, got ({n}, {m})")
    side_a = tuple(range(1, n + 1))
    side_b = tuple(range(n + 1, n + m + 1))
    return SimpleGraph._from_sorted_adjacency([()] + [side_b] * n + [side_a] * m)


def degree_sequence(g: SimpleGraph) -> tuple[int, ...]:
    """Degrees in vertex-id order: entry i-1 is the degree of vertex i."""
    return tuple(map(len, g._adj[1:]))


def disjoint_union(g: SimpleGraph, h: SimpleGraph) -> SimpleGraph:
    """Disjoint union; vertices of h are relabeled g.n + 1 .. g.n + h.n.

    Graphs are immutable, so the union shares g's neighbor tuples and builds
    only h's relabeled ones, each relabeled as a list, which
    ``_from_sorted_adjacency`` turns into a tuple of known size.
    """
    off = g.n
    return SimpleGraph._from_sorted_adjacency([*g._adj, *([w + off for w in nbrs] for nbrs in h._adj[1:])])


def edge_joint(g: SimpleGraph, v: int, h: SimpleGraph, u: int) -> SimpleGraph:
    """Disjoint union of g and h plus the single edge from v to (relabeled) u.

    The union's neighbor tuples are shared but the two the edge changes.
    """
    g._check_vertex(v)
    h._check_vertex(u)
    adj = list(disjoint_union(g, h)._adj)
    for a, b in ((v, u + g.n), (u + g.n, v)):
        at = bisect_left(adj[a], b)
        adj[a] = (*adj[a][:at], b, *adj[a][at:])
    return SimpleGraph._from_sorted_adjacency(adj)


def _later_neighbors(g: SimpleGraph) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(v, the neighbors w > v of v) for each vertex v that has one, by v: the edges in lexicographic order."""
    for v in range(1, g.n + 1):
        nbrs = g._adj[v]
        later = nbrs[bisect_right(nbrs, v) :]
        if later:
            yield v, later


# The chunk writers take a graph as its vertex count n and its edges in
# lexicographic order as runs: (v, the ascending neighbors w > v of v), for
# one vertex v that has one, as _later_neighbors yields them, or (vs, ws), two
# ranges of one length, the edges {vs[j], ws[j]}, for a block of vertices
# that have one later neighbor each, as a path's.  A run may be of any
# length: the writer cuts it into blocks.  A Jaco graph's runs, and a named
# family's, come from its shape.
LaterNeighbors = Iterable[tuple[int | range, Sequence[int]]]

# Each chunk holds about this many lines, a few dozen KB of text, whatever
# the vertex count: the runs of consecutive vertices up to this many edges,
# or this many of DOT's vertex lines.
_BLOCK_LINES = 4096


def _edge_blocks(runs: LaterNeighbors, lead: str, mid: str, end: str) -> Iterator[str]:
    """The line lead + v + mid + w + end of each edge, ``_BLOCK_LINES`` to twice that a block but the last.

    A run of any length is cut into pieces of at most ``_BLOCK_LINES``
    edges, so no block holds more than twice that many lines.  A vertex's
    piece is one join of its neighbors, a piece of a block of vertices one
    format per edge, each at C speed.
    """
    each = f"{lead}{{}}{mid}{{}}{end}".format
    texts: list[str] = []
    edges = 0
    for vs, ws in runs:
        for a in range(0, len(ws), _BLOCK_LINES):
            piece = ws[a : a + _BLOCK_LINES]
            if isinstance(vs, int):
                head = f"{lead}{vs}{mid}"
                texts.append(head + (end + head).join(map(str, piece)) + end)
            else:
                texts.append("".join(map(each, vs[a : a + _BLOCK_LINES], piece)))
            edges += len(piece)
            if edges >= _BLOCK_LINES:
                yield "".join(texts)
                texts, edges = [], 0
    if texts:
        yield "".join(texts)


def dot_chunks(n: int, later_neighbors: LaterNeighbors) -> Iterator[str]:
    """:func:`to_dot` a chunk at a time: the header, the vertices and the edges in blocks, the end."""
    yield "graph G {\n"
    for a in range(1, n + 1, _BLOCK_LINES):
        yield "  " + ";\n  ".join(map(str, range(a, min(a + _BLOCK_LINES, n + 1)))) + ";\n"
    yield from _edge_blocks(later_neighbors, "  ", " -- ", ";\n")
    yield "}\n"


def edge_list_chunks(n: int, later_neighbors: LaterNeighbors) -> Iterator[str]:
    """:func:`to_edge_list` a chunk at a time: the lines of a block of consecutive vertices' edges to later ones."""
    return _edge_blocks(later_neighbors, "", " ", "\n")


def json_chunks(n: int, later_neighbors: LaterNeighbors) -> Iterator[str]:
    """JSON text of the graph a chunk at a time, a block of consecutive vertices' edges to later ones in one.

    The chunks join to json.dumps({"n": n, "edges": [[v, w] for each edge
    v < w in lexicographic order]}, sort_keys=True) + "\\n".
    """
    yield '{"edges": ['
    skip = 2  # each edge is led by ", " but the first
    for block in _edge_blocks(later_neighbors, ", [", ", ", "]"):
        yield block[skip:]
        skip = 0
    yield f'], "n": {n}}}\n'


def to_dot(g: SimpleGraph) -> str:
    """DOT serialization: every vertex listed, edges in lexicographic order."""
    return "".join(dot_chunks(g.n, _later_neighbors(g)))


def to_edge_list(g: SimpleGraph) -> str:
    """Plain edge-list text: one "i j" line per edge, 1-based, i < j, sorted."""
    return "".join(edge_list_chunks(g.n, _later_neighbors(g)))


def from_edge_list(text: str) -> SimpleGraph:
    """Parse the edge-list format produced by :func:`to_edge_list`.

    The vertex count is the largest id seen, so trailing isolated vertices
    are not representable in this format.
    """
    return SimpleGraph(*_parse_edge_list(text))


def _parse_edge_list(text: str) -> tuple[int, list[tuple[int, int]]]:
    """The vertex count and the edges, in file order, of edge-list text, with no graph built.

    Refuses a malformed line, a pair that is not 1 <= i < j, an id above
    the guard and then the first duplicate edge in file order.
    """
    edges: list[tuple[int, int]] = []
    top = 0
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'i j', got {raw!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: non-integer vertex id in {raw!r}") from exc
        if not 1 <= i < j:
            raise ValueError(f"line {lineno}: require 1 <= i < j, got ({i}, {j})")
        top = max(top, j)
        edges.append((i, j))
    if top > DEFAULT_EDGE_GUARD:  # the graph holds a list per id up to top
        raise ValueError(f"vertex id {top} is above the guard of {DEFAULT_EDGE_GUARD}")
    seen: set[tuple[int, int]] = set()
    for edge in edges:
        if edge in seen:
            raise ValueError(f"duplicate edge {edge}")
        seen.add(edge)
    return top, edges
