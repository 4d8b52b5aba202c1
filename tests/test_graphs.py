"""Graph model, families, union, edge-joint, serialization."""

import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from jacograph import (
    SimpleGraph,
    complete_bipartite,
    cycle,
    degree_sequence,
    disjoint_union,
    edge_joint,
    from_edge_list,
    path,
    star,
    to_dot,
    to_edge_list,
)


@st.composite
def simple_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    pool = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    edges = [e for e in pool if draw(st.booleans())]
    return SimpleGraph(n, edges)


def test_path_degrees():
    assert degree_sequence(path(1)) == (0,)
    assert degree_sequence(path(2)) == (1, 1)
    assert degree_sequence(path(5)) == (1, 2, 2, 2, 1)


def test_star_and_cycle_and_biclique_degrees():
    assert degree_sequence(star(3)) == (3, 1, 1, 1)
    assert degree_sequence(star(4)) == (4, 1, 1, 1, 1)
    assert degree_sequence(cycle(4)) == (2, 2, 2, 2)
    assert degree_sequence(complete_bipartite(3, 2)) == (2, 2, 2, 3, 3)


def test_family_range_validation():
    with pytest.raises(ValueError):
        path(0)
    with pytest.raises(ValueError):
        cycle(2)
    with pytest.raises(ValueError):
        star(0)
    with pytest.raises(ValueError):
        complete_bipartite(2, 3)
    with pytest.raises(ValueError):
        complete_bipartite(1, 0)


def test_biclique_matches_the_validating_constructor():
    for n in range(1, 12):
        for m in range(1, n + 1):
            g = complete_bipartite(n, m)
            edges = [(a, b) for a in range(1, n + 1) for b in range(n + 1, n + m + 1)]
            assert g == SimpleGraph(n + m, edges)
            g.validate()


def test_biclique_takes_memory_linear_in_its_vertices():
    # 6 144 000 edges, held as one shared neighbor tuple per side
    tracemalloc.start()
    try:
        g = complete_bipartite(3000, 2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.edge_count == 3000 * 2048
    assert degree_sequence(g) == (2048,) * 3000 + (3000,) * 2048
    assert peak < 2**20


def test_path_cycle_star_match_the_validating_constructor():
    for n in range(1, 13):
        pairs = [
            (path(n), SimpleGraph(n, [(i, i + 1) for i in range(1, n)])),
            (star(n), SimpleGraph(n + 1, [(1, leaf) for leaf in range(2, n + 2)])),
        ]
        if n >= 3:
            pairs.append((cycle(n), SimpleGraph(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])))
        for g, reference in pairs:
            assert g == reference
            g.validate()


STAR = (
    "from jacograph import star; g = star({n})\n"
    "assert g.n == {n} + 1 and g.degree(1) == {n} and g.neighbors(g.n) == (1,)"
)


def test_star_takes_memory_linear_in_its_leaves(peak_rss_kb):
    # Peak RSS of a fresh process that builds the star, above that of one
    # that builds star(1) (about 15.5 MiB, CPython 3.11).  Measured 183 MiB:
    # the center's tuple and its 3 M int objects are most of it, the leaves
    # share one (1,) tuple.  With a fresh (1,) per leaf it was 321 MiB, and
    # through the validating constructor about 900 MB.
    floor = peak_rss_kb("-c", STAR.format(n=1))
    rc, peak = peak_rss_kb("-c", STAR.format(n=3_000_000))
    assert floor[0] == rc == 0
    assert peak - floor[1] < 240 * 1024


def test_constructor_validation():
    with pytest.raises(ValueError):
        SimpleGraph(2, [(1, 1)])  # self-loop
    with pytest.raises(ValueError):
        SimpleGraph(2, [(1, 2), (2, 1)])  # duplicate edge
    with pytest.raises(ValueError):
        SimpleGraph(2, [(1, 3)])  # out of range
    with pytest.raises(ValueError):
        SimpleGraph(-1)


def test_vertex_access_checks():
    g = path(3)
    assert g.neighbors(2) == (1, 3)
    assert g.degree(1) == 1
    with pytest.raises(ValueError):
        g.degree(0)
    with pytest.raises(ValueError):
        g.neighbors(4)


def test_disjoint_union_trivial():
    g = disjoint_union(SimpleGraph(1), SimpleGraph(1))
    assert g.n == 2
    assert g.edge_count == 0


def test_disjoint_union_relabels_second_operand():
    g = disjoint_union(path(2), path(3))
    assert degree_sequence(g) == (1, 1, 1, 2, 1)
    assert g.edges() == [(1, 2), (3, 4), (4, 5)]


def test_edge_joint_two_singletons_gives_one_edge():
    g = edge_joint(SimpleGraph(1), 1, SimpleGraph(1), 1)
    assert g == path(2)


def test_edge_joint_two_paths():
    g = edge_joint(path(2), 1, path(2), 1)
    assert g.edges() == [(1, 2), (1, 3), (3, 4)]
    assert sorted(degree_sequence(g)) == sorted(degree_sequence(path(4)))


def test_edge_joint_bumps_exactly_two_degrees():
    g, h = cycle(4), star(3)
    joined = edge_joint(g, 2, h, 3)
    before = degree_sequence(g) + degree_sequence(h)
    after = degree_sequence(joined)
    diffs = [after[i] - before[i] for i in range(len(before))]
    assert diffs.count(1) == 2 and diffs.count(0) == len(before) - 2
    assert diffs[1] == 1 and diffs[g.n + 2] == 1
    assert joined.edge_count == g.edge_count + h.edge_count + 1


def test_edge_joint_vertex_validation():
    with pytest.raises(ValueError):
        edge_joint(path(2), 3, path(2), 1)
    with pytest.raises(ValueError):
        edge_joint(path(2), 1, path(2), 0)


@given(simple_graphs(), simple_graphs())
def test_union_concatenates_degree_sequences(g, h):
    assert degree_sequence(disjoint_union(g, h)) == degree_sequence(g) + degree_sequence(h)


@given(simple_graphs())
def test_handshake(g):
    assert sum(degree_sequence(g)) == 2 * g.edge_count


@given(simple_graphs(), simple_graphs())
def test_trusted_builders_produce_valid_graphs(g, h):
    u = disjoint_union(g, h)
    u.validate()
    j = edge_joint(g, g.n, h, 1)
    j.validate()
    assert j.edge_count == u.edge_count + 1


def test_dot_export():
    assert to_dot(path(2)) == "graph G {\n  1;\n  2;\n  1 -- 2;\n}\n"


def test_edge_list_round_trip():
    g = complete_bipartite(3, 2)
    text = to_edge_list(g)
    assert from_edge_list(text) == g


def test_edge_list_of_edgeless_graph_is_empty():
    assert to_edge_list(SimpleGraph(1)) == ""


def test_edge_list_parse_errors():
    with pytest.raises(ValueError):
        from_edge_list("1\n")
    with pytest.raises(ValueError):
        from_edge_list("2 1\n")  # requires i < j
    with pytest.raises(ValueError):
        from_edge_list("1 1\n")
    with pytest.raises(ValueError):
        from_edge_list("a b\n")
    with pytest.raises(ValueError):
        from_edge_list("1 2\n1 2\n")


def test_graph_equality_and_hash():
    assert path(3) == path(3)
    assert path(3) != cycle(3)
    assert hash(path(3)) == hash(path(3))
