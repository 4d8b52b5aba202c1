"""Fibonacci cache and weight maps."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from jacograph import FibCache, fib, signed_weight_of_degree, weight_of_degree
from jacograph.fibonacci import fib_pair


def iterative_fib(i):
    # independent oracle: plain two-variable recurrence
    a, b = 0, 1
    for _ in range(i):
        a, b = b, a + b
    return a


def test_base_values():
    assert fib(0) == 0
    assert fib(1) == 1
    assert fib(2) == 1
    assert fib(7) == 13


def test_fib_100_exact():
    assert fib(100) == 354224848179261915075
    assert len(str(fib(100))) == 21


def test_recurrence_up_to_500():
    for i in range(2, 501):
        assert fib(i) == fib(i - 1) + fib(i - 2)


def test_matches_independent_oracle():
    for i in (0, 1, 2, 3, 10, 93, 94, 250):
        assert fib(i) == iterative_fib(i)


def test_fib_1000_no_overflow():
    v = fib(1000)
    assert v == iterative_fib(1000)
    assert v.bit_length() > 64  # far beyond machine words, still exact


def test_monotone_gap_property():
    # f_{a+1} - f_{b+1} >= f_a - f_b for 1 <= b <= a; keeps the growth
    # recursion's absolute value exact.
    for a in range(1, 201):
        for b in range(1, a + 1):
            assert fib(a + 1) - fib(b + 1) >= fib(a) - fib(b)


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        fib(-1)


def test_fresh_cache_is_consistent_with_shared():
    cache = FibCache()
    assert [cache.fib(i) for i in range(50)] == [fib(i) for i in range(50)]
    # repeated calls hit the cache and stay consistent
    assert cache.fib(30) == cache.fib(30) == 832040


def test_fib_pair_matches_cache():
    cache = FibCache()
    for i in range(2001):
        assert fib_pair(i) == (cache.fib(i), cache.fib(i + 1))
    with pytest.raises(ValueError):
        fib_pair(-1)


def test_fib_pair_near_a_million_mod_p():
    p = 2**61 - 1
    wanted = {999_999, 10**6, 10**6 + 1}
    a, b, found = 0, 1, {}
    for i in range(max(wanted) + 1):
        if i in wanted:
            found[i] = (a, b)
        a, b = b, (a + b) % p
    for i, (f, g) in found.items():
        assert tuple(x % p for x in fib_pair(i)) == (f, g)


def test_weight_of_degree():
    assert weight_of_degree(0) == 0
    assert weight_of_degree(1) == 1
    assert weight_of_degree(6) == 8


def test_signed_weight_of_degree():
    assert signed_weight_of_degree(0) == 0
    assert signed_weight_of_degree(1) == -1
    assert signed_weight_of_degree(2) == 1
    assert signed_weight_of_degree(7) == -13


@given(st.integers(min_value=0, max_value=400))
def test_signed_weight_magnitude(d):
    assert abs(signed_weight_of_degree(d)) == weight_of_degree(d)
    assert (signed_weight_of_degree(d) < 0) == (d % 2 == 1 and fib(d) != 0)
