"""Jaco construction: profile sweep, closed form, truncated degrees, prime Jaconian index."""

import random
import tracemalloc
import warnings
from collections import Counter

import pytest

from jacograph import (
    build_profile,
    degree_sequence,
    out_degree,
    prime_jaconian_index,
    underlying_degree_counts,
    underlying_degrees,
    underlying_graph,
)

# First twelve rows of the construction table.
EXPECTED_IN_DEGREES = (0, 1, 1, 1, 2, 2, 3, 3, 3, 4, 4, 4)
EXPECTED_OUT_DEGREES = (1, 1, 2, 3, 3, 4, 4, 5, 6, 6, 7, 8)
EXPECTED_DEGREE_SEQUENCES = {
    1: (0,),
    2: (1, 1),
    3: (1, 2, 1),
    4: (1, 2, 2, 1),
    5: (1, 2, 3, 2, 2),
    6: (1, 2, 3, 3, 3, 2),
    7: (1, 2, 3, 4, 4, 3, 3),
    8: (1, 2, 3, 4, 5, 4, 4, 3),
    9: (1, 2, 3, 4, 5, 5, 5, 4, 3),
    10: (1, 2, 3, 4, 5, 6, 6, 5, 4, 4),
    11: (1, 2, 3, 4, 5, 6, 7, 6, 5, 5, 4),
    12: (1, 2, 3, 4, 5, 6, 7, 7, 6, 6, 5, 4),
}


def test_profile_first_twelve_vertices():
    prof = build_profile(12)
    assert tuple(prof.in_degree(i) for i in range(1, 13)) == EXPECTED_IN_DEGREES
    assert tuple(prof.out_degree_unbounded(i) for i in range(1, 13)) == EXPECTED_OUT_DEGREES


def test_profile_single_rows():
    prof = build_profile(12)
    assert (prof.in_degree(1), prof.out_degree_unbounded(1), prof.out_reach(1)) == (0, 1, 2)
    assert (prof.in_degree(5), prof.out_degree_unbounded(5)) == (2, 3)
    assert (prof.in_degree(12), prof.out_degree_unbounded(12)) == (4, 8)


def test_out_reach_definition():
    prof = build_profile(100)
    for i in range(1, 101):
        assert prof.out_reach(i) == 2 * i - prof.in_degree(i)
        assert prof.out_reach(i) >= i + 1  # every vertex reaches its successor


def test_in_degree_counts_covering_intervals():
    # d-(v_i) must equal the number of earlier vertices whose out-reach covers i
    prof = build_profile(300)
    for i in range(1, 301):
        covering = sum(1 for h in range(1, i) if prof.out_reach(h) >= i)
        assert prof.in_degree(i) == covering


def test_build_profile_validation():
    with pytest.raises(ValueError):
        build_profile(0)
    prof = build_profile(5)
    with pytest.raises(ValueError):
        prof.in_degree(6)


def test_underlying_degrees_first_twelve():
    for n, expected in EXPECTED_DEGREE_SEQUENCES.items():
        assert underlying_degrees(n) == expected


def test_out_degree_matches_sweep():
    prof = build_profile(10**5)
    for i in range(1, 10**5 + 1):
        assert out_degree(i) == prof.out_degree_unbounded(i), i
    for i in (0, -1):
        with pytest.raises(ValueError):
            out_degree(i)


def test_out_degree_beatty_bounds():
    # G(i) = floor(a / phi) with a = i + 1 means g phi < a < (g + 1) phi;
    # both sides squared in exact integers, without isqrt
    rng = random.Random(20261018)
    for i in [1, 2, 3, 10**18] + [rng.randint(1, 10**18) for _ in range(20_000)]:
        a, g = i + 1, out_degree(i)
        assert 5 * g * g < (2 * a - g) ** 2, i
        assert (2 * a - g - 1) ** 2 < 5 * (g + 1) ** 2, i


def histogram(degrees):
    counts = Counter(degrees)
    return [counts[d] for d in range(max(counts) + 1)]


def sweep_degrees(n, prof):
    # degree of v_i in the graph on n vertices, from the definitional sweep
    return tuple(min(i, n - i + d) for i, d in zip(range(1, n + 1), prof.in_degrees))


def test_underlying_degree_counts_match_degree_sequences():
    prof = build_profile(2000)
    for n in range(1, 2001):
        expected = sweep_degrees(n, prof)
        assert underlying_degrees(n) == expected, n
        assert underlying_degree_counts(n) == histogram(expected), n
    for n in (0, -3):
        with pytest.raises(ValueError):
            underlying_degree_counts(n)


def test_underlying_degree_counts_match_graphs():
    for n in range(1, 201):
        g = underlying_graph(n)
        assert underlying_degree_counts(n) == histogram(degree_sequence(g)), n


def test_underlying_graph_small():
    assert underlying_graph(2).edges() == [(1, 2)]
    assert underlying_graph(3).edges() == [(1, 2), (2, 3)]
    assert underlying_graph(5).edge_count == 5  # half of degree sum 10
    assert underlying_graph(6).edge_count == 7  # half of degree sum 14


def test_underlying_graph_degrees_match_formula_up_to_500():
    for n in range(1, 501):
        g = underlying_graph(n)
        assert degree_sequence(g) == underlying_degrees(n)


def test_underlying_graph_is_valid():
    underlying_graph(200).validate()


def test_underlying_graph_memory_guard():
    with pytest.raises(ValueError):
        underlying_graph(1000, max_edges=100)


def test_underlying_graph_refuses_in_constant_memory():
    for n in (2_000_000, 10**9):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="at least"):
                underlying_graph(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def test_underlying_graph_guard_boundary():
    # the O(1) bound k(k+1)/4 never exceeds the true edge count, so the guard
    # still admits a graph of exactly max_edges edges and refuses one more
    for n in range(1, 301):
        edges = underlying_graph(n).edge_count
        k = out_degree(n + 1) - 1
        assert 4 * edges >= k * (k + 1), n
        assert underlying_graph(n, max_edges=edges).edge_count == edges
        if edges:
            with pytest.raises(ValueError):
                underlying_graph(n, max_edges=edges - 1)


def test_prime_jaconian_examples():
    assert prime_jaconian_index(8) == 5
    assert prime_jaconian_index(9) == 5  # peak degree 5 attained at v_5, v_6, v_7
    assert prime_jaconian_index(11) == 7
    assert prime_jaconian_index(2) == 1


def test_prime_jaconian_rejects_single_vertex():
    with pytest.raises(ValueError):
        prime_jaconian_index(1)


def test_prime_jaconian_arrival_cross_check():
    # k = n - d-(v_{n+1}): the newcomer's in-neighbors are exactly v_{k+1}..v_n
    prof = build_profile(2001)
    for n in range(2, 2001):
        k = prime_jaconian_index(n)
        assert k == n - prof.in_degree(n + 1)
        degrees = sweep_degrees(n, prof)
        assert k == degrees.index(max(degrees)) + 1, n  # the definition


def test_degrees_below_prime_index_equal_index():
    # Observed structural fact, verified here; a violation is reported as a
    # warning rather than a failure (the fact is used by the growth
    # recursions only through quantities checked elsewhere).
    prof = build_profile(501)
    violations = []
    for n in range(2, 501):
        k = prime_jaconian_index(n)
        degrees = sweep_degrees(n, prof)
        violations.extend((n, i) for i in range(1, k + 1) if degrees[i - 1] != i)
    if violations:
        warnings.warn(f"degrees[i] = i broken at {violations[:5]}", stacklevel=1)


def test_in_degree_monotonicity_regression():
    # Observed, never claimed: d-(v_{i+1}) is d-(v_i) or d-(v_i) + 1.
    # Regression check only: report violations as a warning, do not abort.
    prof = build_profile(10**6)
    ind = prof.in_degrees
    violations = [i for i in range(1, len(ind)) if ind[i] - ind[i - 1] not in (0, 1)]
    if violations:
        warnings.warn(
            f"in-degree step outside {{0, 1}} at indices {violations[:5]}", stacklevel=1
        )
