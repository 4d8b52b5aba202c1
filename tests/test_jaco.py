"""Jaco construction: profile sweep, closed form, truncated degrees, prime Jaconian index."""

import random
import re
import tracemalloc
import warnings
from collections import Counter

import decimal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jacograph import (
    build_profile,
    degree_histogram,
    degree_sequence,
    fib,
    out_degree,
    pair_sum_histogram,
    prime_jaconian_index,
    underlying_degree_counts,
    underlying_degrees,
    underlying_graph,
    underlying_later_neighbors,
)
from jacograph.graphs import SimpleGraph
from jacograph.irregularity import pair_sum_by_rank
from jacograph.jaco import (
    _edge_count,
    _fibonacci_word,
    _floor_phi,
    _floor_sums,
    _poly_sum,
    _tail,
    underlying_metric,
    underlying_metrics,
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
    # The word-built histogram against the per-vertex formula up to 5000
    # vertices, and the formula against the definitional sweep up to 2000.
    prof = build_profile(2000)
    for n in range(1, 5001):
        degrees = underlying_degrees(n)
        if n <= 2000:
            assert degrees == sweep_degrees(n, prof), n
        counts = underlying_degree_counts(n)
        assert counts == degree_histogram(degrees), n
        if n >= 2:  # 1 below lo = n - G(n), and at most one degree above hi = n - G(k + 1)
            k, lo, hi = len(counts) - 1, n - out_degree(n), n - out_degree(len(counts))
            assert counts[1:lo] == [1] * (lo - 1) and k - hi in (0, 1), n
    for n in (0, -3):
        with pytest.raises(ValueError):
            underlying_degree_counts(n)


def test_underlying_degree_counts_match_graphs():
    for n in range(1, 201):
        g = underlying_graph(n)
        assert underlying_degree_counts(n) == histogram(degree_sequence(g)), n


def test_fibonacci_word_is_the_floor_difference_sequence():
    word = _fibonacci_word(20_000)
    assert all(word[j - 1] == _floor_phi(j + 1) - _floor_phi(j) for j in range(1, 20_001))
    phi = (1 + 5**0.5) / 2
    assert all(_floor_phi(x) == int(x * phi) for x in range(10_000))  # float is exact this far


def test_convergents_give_floor_m_phi_below_their_denominator():
    # floor(m phi) = floor(m F_{t+1} / F_t) for 0 <= m < F_t, as proved in
    # the jaco docstring.
    for t in range(1, 23):
        p, q = fib(t + 1), fib(t)
        assert all(_floor_phi(m) == m * p // q for m in range(q)), t


@given(
    st.integers(min_value=0, max_value=60),
    st.integers(min_value=0, max_value=60),
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=0, max_value=80),
)
@example(fib(91), 7, fib(90), 200)
@example(0, 59, 60, 80)
@example(60, 0, 1, 0)
def test_floor_sums_match_brute_sums(a, b, c, n):
    qs = [(a * x + b) // c for x in range(n + 1)]
    assert _floor_sums(a, b, c, n) == (sum(qs), sum(x * q for x, q in enumerate(qs)), sum(q * q for q in qs))


@given(
    st.tuples(*[st.integers(min_value=-(10**6), max_value=10**6)] * 3),
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=-3, max_value=60),
)
def test_poly_sum_matches_direct_summation(coeffs, lo, terms):
    c2, c1, c0 = coeffs

    def p(x):
        return (c2 * x + c1) * x + c0

    assert _poly_sum(p, lo, lo + terms - 1) == sum(p(x) for x in range(lo, lo + terms))


def test_closed_form_irr_matches_the_kernel():
    for n in range(1, 3001):
        assert underlying_metric(n, "irr") == pair_sum_histogram(underlying_degree_counts(n), "irr"), n


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=10**6))
@example(10**6)
def test_closed_form_irr_matches_the_kernel_up_to_a_million(n):
    assert underlying_metric(n, "irr") == pair_sum_histogram(underlying_degree_counts(n), "irr")


def test_unit_head_metrics_match_the_kernel():
    rng = random.Random(11)
    for n in [*range(1, 1501), *(rng.randint(1501, 200_000) for _ in range(3))]:
        counts = underlying_degree_counts(n)
        for kind in ("firr", "firrpm"):
            assert underlying_metric(n, kind) == pair_sum_histogram(counts, kind), (n, kind)


def test_unit_head_metrics_in_the_decimal_ring_equal_the_int_ring():
    exact = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, traps=[decimal.Inexact])
    for n in (1, 2, 3, 1656, 1657, 30_000):  # 30 000 splits its band into leaves
        for kind in ("irr", "firr", "firrpm"):
            with decimal.localcontext(exact):
                in_decimal = underlying_metric(n, kind, decimal.Decimal(1))
            assert str(in_decimal) == str(underlying_metric(n, kind)), (n, kind)


def test_underlying_metric_rejects_bad_arguments():
    for n in (0, -3):
        with pytest.raises(ValueError, match="n must be >= 1"):
            underlying_metric(n, "irr")
    with pytest.raises(ValueError, match="unknown metric kind"):
        underlying_metric(5, "sigma")


@pytest.mark.parametrize("kind", ["irr", "firr"])
def test_prefix_walk_matches_underlying_metric(kind):
    values = list(underlying_metrics(3000, kind))
    assert len(values) == 3000
    for n, value in enumerate(values, 1):
        assert value == underlying_metric(n, kind), n


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=5000), st.sampled_from(["irr", "firr"]))
@example(5000, "firr")
def test_prefix_walk_ends_at_the_rank_sum_of_the_isqrt_degrees(n_max, kind):
    # the oracle reads the per-vertex degrees from isqrt, not the Fibonacci word
    *_, last = underlying_metrics(n_max, kind)
    weight = int if kind == "irr" else fib
    assert last == pair_sum_by_rank(map(weight, underlying_degrees(n_max)))


def test_prefix_walk_refuses_an_unknown_kind_at_the_first_value():
    for kind in ("firrpm", "sigma"):
        with pytest.raises(ValueError, match="unknown metric kind"):
            next(underlying_metrics(5, kind))
    assert list(underlying_metrics(0, "irr")) == list(underlying_metrics(-2, "firr")) == []


def test_tail_counts_the_degrees_of_vertices_past_the_head():
    for n in range(1, 2001):
        k, lo, tail = _tail(n)
        degrees = underlying_degrees(n)
        assert degrees[:k] == tuple(range(1, k + 1)) and lo == degrees[-1], n
        expected = Counter(degrees[k:])
        assert {k - j: c for j, c in enumerate(tail) if c} == expected, n
        assert len(tail) == k - lo + 1 and tail[-1] > 0, n


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


def test_underlying_graph_matches_the_construction_sweep():
    # edges {i, j} for i < j <= min(r_i, n), r_i read off the sweep, through
    # the validating constructor
    prof = build_profile(200)
    for n in range(1, 201):
        edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, min(prof.out_reach(i), n) + 1)]
        assert underlying_graph(n) == SimpleGraph(n, edges), n


def test_edge_count_is_half_the_degree_sum():
    for n in [*range(1, 2001), 10**6, 10**6 + 3]:
        assert _edge_count(n) == sum(underlying_degrees(n)) // 2, n


def test_edge_count_matches_the_floor_sum_form():
    # E(n) = S(k) + T(n-k-1) with S(k) = sum_{a<=k+1} floor(a phi) - T(k+1),
    # the floor sum taken at a Fibonacci convergent as in _irr
    n = 10**18
    k = prime_jaconian_index(n)
    q, p = 1, 1
    while q <= k + 1:
        q, p = p, p + q
    tri = lambda x: x * (x + 1) // 2
    expected = _floor_sums(p, 0, q, k + 1)[0] - tri(k + 1) + tri(n - k - 1)
    assert _edge_count(n) == expected == 190983005625052575970655599692338669


def test_underlying_graph_memory_guard(monkeypatch):
    monkeypatch.setattr("jacograph.graphs.DEFAULT_EDGE_GUARD", 100)
    with pytest.raises(ValueError):
        underlying_graph(1000)


def test_underlying_graph_refuses_in_constant_memory():
    # the exact edge count, with no pass over the vertices: none could finish at 10^18
    for n, edges in (
        (2_000_000, 763932168399),
        (10**9, 190983005698001592),
        (10**18, 190983005625052575970655599692338669),
    ):
        message = f"underlying graph on {n} vertices has {edges} edges, above the guard of 5000000"
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=re.escape(message)):
                underlying_graph(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def test_underlying_graph_guard_boundary(monkeypatch):
    # the guard counts edges exactly, so it admits a graph of exactly
    # as many edges as the guard and refuses one more; k(k+1)/4 stays a
    # lower bound
    for n in range(1, 301):
        edges = underlying_graph(n).edge_count
        k = out_degree(n + 1) - 1
        assert 4 * edges >= k * (k + 1), n
        monkeypatch.setattr("jacograph.graphs.DEFAULT_EDGE_GUARD", edges)
        assert underlying_graph(n).edge_count == edges
        if edges:
            monkeypatch.setattr("jacograph.graphs.DEFAULT_EDGE_GUARD", edges - 1)
            with pytest.raises(ValueError):
                underlying_graph(n)
        monkeypatch.undo()


def test_later_neighbors_off_the_shape_match_the_construction_sweep(monkeypatch):
    # vertex i reaches i+1..min(r_i, n) in the graph on n vertices
    profile = build_profile(300)
    for n in range(1, 301):
        expected = [(i, tuple(range(i + 1, min(profile.out_reach(i), n) + 1))) for i in range(1, n)]
        assert [(i, tuple(later)) for i, later in underlying_later_neighbors(n)] == expected, n
    # refused above the guard as underlying_graph is, when called, before any pair
    for n in (5117, 10**18):
        with pytest.raises(ValueError, match="above the guard of 5000000"):
            underlying_later_neighbors(n)
    monkeypatch.setattr("jacograph.graphs.DEFAULT_EDGE_GUARD", 13)  # jaco:8 has 13 edges
    assert sum(len(later) for _, later in underlying_later_neighbors(8)) == 13
    with pytest.raises(ValueError, match="underlying graph on 9 vertices has 16 edges"):
        underlying_later_neighbors(9)


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
