"""Fibonacci numbers and weight maps."""

import decimal

import pytest
from hypothesis import given
from hypothesis import strategies as st

from jacograph import fib, signed_weight_of_degree
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


def test_fib_is_the_first_value_of_fib_pair():
    for i in [*range(2001), 10**4, 10**5 + 1]:
        assert fib(i) == fib_pair(i)[0]


STAR_FIRR = "from jacograph import star_firr_closed; star_firr_closed({n})"


def test_fib_takes_memory_of_the_values_asked_for(peak_rss_kb):
    # Peak RSS of a fresh process that asks for f_30000 once, above one that
    # asks for f_1 (about 16 MiB, CPython 3.11).  f_30000 has about 20 800
    # bits; a cache that held all of f_0..f_30000 peaked 40 MiB above.
    floor = peak_rss_kb("-c", STAR_FIRR.format(n=1))
    rc, peak = peak_rss_kb("-c", STAR_FIRR.format(n=30_000))
    assert floor[0] == rc == 0
    assert peak - floor[1] < 4 * 1024


def test_fib_pair_matches_the_recurrence():
    exact = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, traps=[decimal.Inexact])
    a, b = 0, 1  # (f_i, f_{i+1}) by the plain two-variable recurrence
    for i in range(2001):
        assert fib_pair(i) == (a, b)
        with decimal.localcontext(exact):  # the same doubling in the decimal ring
            in_decimal = fib_pair(i, decimal.Decimal(1))
        assert all(type(x) is decimal.Decimal for x in in_decimal)
        assert tuple(map(str, in_decimal)) == (str(a), str(b))
        a, b = b, a + b
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


def test_signed_weight_of_degree():
    assert signed_weight_of_degree(0) == 0
    assert signed_weight_of_degree(1) == -1
    assert signed_weight_of_degree(2) == 1
    assert signed_weight_of_degree(7) == -13


@given(st.integers(min_value=0, max_value=400))
def test_signed_weight_magnitude(d):
    assert abs(signed_weight_of_degree(d)) == fib(d)
    assert (signed_weight_of_degree(d) < 0) == (d % 2 == 1 and fib(d) != 0)
