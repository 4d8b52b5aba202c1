"""Irregularity metrics: oracle vs histogram kernel, closed forms, characterizations."""

import decimal
import random
from itertools import combinations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from jacograph import (
    METHOD_NAIVE,
    METHOD_SORTED,
    add_histograms,
    biclique_firr_closed,
    complete_bipartite,
    cross_pair_sum,
    cycle,
    degree_histogram,
    degree_sequence,
    fib,
    firr_pm,
    firr_t,
    irr_t,
    is_f_regular,
    pair_sum_histogram,
    pair_sum_naive,
    path,
    signed_weight_of_degree,
    star,
    star_firr_closed,
    underlying_degree_counts,
    underlying_degrees,
)
from jacograph.irregularity import _LEAF

degree_sequences = st.lists(st.integers(min_value=0, max_value=120), max_size=40)

# Inputs where a histogram kernel can slip: zeros (f_0 = 0), degrees 1 and 2
# (f_1 = f_2), repeats, both parities, weights past 64 bits (d > 93), and
# sparse sequences with wide gaps between few distinct degrees.
kernel_sequences = st.one_of(
    st.lists(st.sampled_from([0, 1, 2]), max_size=12),
    st.lists(st.integers(min_value=0, max_value=120), max_size=30),
    st.lists(st.integers(min_value=90, max_value=130), max_size=12),
    st.lists(st.sampled_from([0, 1, 2, 93, 94, 699, 700]), max_size=8),
)


# The ring of the command line: maximal precision and exponent, and an error
# on any rounding.
EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, traps=[decimal.Inexact])


def brute(ws):
    return sum(abs(a - b) for a, b in combinations(list(ws), 2))


def test_irr_examples():
    assert irr_t(underlying_degrees(7)).value == 26
    assert irr_t([3, 3, 3, 3]).value == 0
    # pair sum over the 12-vertex degree sequence; the reported table value
    # 149 is off by one, the oracle is authoritative
    assert irr_t(underlying_degrees(12), method=METHOD_NAIVE).value == 148
    assert irr_t(underlying_degrees(12)).value == 148


def test_irr_degenerate_sequences():
    assert irr_t([]).value == 0
    assert irr_t([5]).value == 0


def test_firr_examples():
    assert firr_t(underlying_degrees(10)).value == 133
    # reported table value for n = 8 is 54; the pair sum over the row's own
    # weight sequence (1,1,2,3,5,3,3,2) is 42
    assert firr_t(underlying_degrees(8)).value == 42
    assert firr_t(underlying_degrees(8), method=METHOD_NAIVE).value == 42
    for n in range(2, 30):
        assert firr_t(degree_sequence(path(n))).value == 0


def test_firr_pm_examples():
    assert firr_pm(degree_sequence(path(6))).value == 16  # 4(n-2) with n=6
    assert firr_pm(degree_sequence(cycle(5))).value == 0
    assert firr_pm(degree_sequence(path(2))).value == 0


def test_method_tags():
    assert irr_t([1, 2]).method == METHOD_SORTED
    assert irr_t([1, 2], method=METHOD_NAIVE).method == METHOD_NAIVE
    assert star_firr_closed(4).method == "closed-form"
    with pytest.raises(ValueError):
        irr_t([1], method="guess")


def test_negative_degrees_rejected():
    for metric in (irr_t, firr_t, firr_pm, degree_histogram):
        with pytest.raises(ValueError):
            metric([2, -1])


def test_closed_forms_examples():
    assert star_firr_closed(4).value == 8  # 4 * (f_4 - 1) = 4 * 2
    assert star_firr_closed(1).value == 0
    assert biclique_firr_closed(5, 5).value == 0
    with pytest.raises(ValueError):
        biclique_firr_closed(3, 4)
    with pytest.raises(ValueError):
        star_firr_closed(0)


def test_closed_forms_match_graphs():
    for n in range(1, 61):
        assert firr_t(degree_sequence(star(n))).value == star_firr_closed(n).value
    for n in range(1, 41):
        for m in range(1, n + 1):
            got = firr_t(degree_sequence(complete_bipartite(n, m))).value
            assert got == biclique_firr_closed(n, m).value
    for n in range(3, 61):
        assert firr_pm(degree_sequence(path(n))).value == 4 * (n - 2)
        assert firr_pm(degree_sequence(cycle(n))).value == 0
        assert firr_t(degree_sequence(cycle(n))).value == 0
        assert irr_t(degree_sequence(cycle(n))).value == 0


def test_is_f_regular():
    assert is_f_regular(degree_sequence(path(7)))
    assert is_f_regular(degree_sequence(cycle(5)))
    assert not is_f_regular(degree_sequence(star(3)))
    assert is_f_regular([])
    assert is_f_regular([0])
    assert not is_f_regular([0, 1])  # f_0 = 0 differs from f_1 = 1


def test_sorted_prefix_identity_small():
    seq = [1, 2, 3, 4, 4, 3, 3]
    ws = sorted(seq)
    n = len(ws)
    assert irr_t(seq).value == sum(w * (2 * k - 1 - n) for k, w in enumerate(ws, 1))
    assert irr_t(seq).value == pair_sum_naive(seq) == brute(seq)
    weights = [fib(d) for d in seq]
    assert firr_t(seq).value == pair_sum_naive(weights) == brute(weights)


def test_histogram_examples():
    assert degree_histogram([]) == []
    assert degree_histogram([2, 0, 2]) == [1, 0, 2]
    assert degree_histogram(iter([3])) == [0, 0, 0, 1]
    for kind in ("irr", "firr", "firrpm"):
        assert pair_sum_histogram([], kind) == 0
    with pytest.raises(ValueError):
        pair_sum_histogram([1], "guess")


@given(kernel_sequences)
@example([])
@example([0])
@example([0, 700])
@example([1, 2, 2, 1])
def test_kernel_matches_naive_oracle(ds):
    expected = {
        "irr": pair_sum_naive(ds),
        "firr": pair_sum_naive([fib(d) for d in ds]),
        "firrpm": pair_sum_naive([signed_weight_of_degree(d) for d in ds]),
    }
    assert irr_t(ds).value == expected["irr"]
    assert firr_t(ds).value == expected["firr"]
    assert firr_pm(ds).value == expected["firrpm"]
    padded = degree_histogram(ds) + [0, 0, 0]  # trailing zero counts change nothing
    for kind, value in expected.items():
        assert pair_sum_histogram(padded, kind) == value


@pytest.mark.parametrize("top", [_LEAF - 1, _LEAF, _LEAF + 1, 2 * _LEAF, 2 * _LEAF + 1, 4 * _LEAF + 3])
def test_kernel_matches_naive_oracle_across_leaves(top):
    # Largest degree top gives a histogram of top + 1 entries: one leaf up to
    # _LEAF - 1, split from _LEAF on.  A few dozen vertices on sparse degrees.
    rng = random.Random(top)
    pool = [0, 1, 2, 3, 93, 94, top // 2, top // 2 + 1, _LEAF - 1, top - 1, top]
    pool = [d for d in pool if d <= top]
    ds = [top] + [rng.choice(pool) for _ in range(rng.randint(20, 40))] + rng.sample(range(top + 1), 8)
    counts = degree_histogram(ds)
    expected = {
        "firr": pair_sum_naive([fib(d) for d in ds]),
        "firrpm": pair_sum_naive([signed_weight_of_degree(d) for d in ds]),
    }
    # trailing zeros that push the length across the next leaf boundary, in
    # the int ring and in the exact decimal one
    for extra in (0, 1, _LEAF - len(counts) % _LEAF + 1, 3 * _LEAF):
        padded = counts + [0] * extra
        for kind, value in expected.items():
            assert pair_sum_histogram(padded, kind) == value
            with decimal.localcontext(EXACT):
                in_decimal = pair_sum_histogram(padded, kind, decimal.Decimal(1))
            assert type(in_decimal) is decimal.Decimal and in_decimal == value


@st.composite
def sparse_histograms(draw):
    """A histogram of 1 to 4 _LEAF + 3 entries, almost all of them zero."""
    size = draw(st.integers(min_value=1, max_value=4 * _LEAF + 3))
    degrees = st.integers(min_value=0, max_value=size - 1)
    occupied = draw(st.dictionaries(degrees, st.integers(min_value=1, max_value=50), max_size=12))
    return [occupied.get(d, 0) for d in range(size)]


@given(sparse_histograms())
@example([1])
@example([0] * _LEAF + [3])
@example([2] + [0] * (4 * _LEAF + 1) + [1])
def test_decimal_ring_equals_int_ring(counts):
    for kind in ("firr", "firrpm"):
        with decimal.localcontext(EXACT):
            in_decimal = pair_sum_histogram(counts, kind, decimal.Decimal(1))
        assert str(in_decimal) == str(pair_sum_histogram(counts, kind))


def test_decimal_ring_raises_rather_than_rounds():
    # The leaves of jaco:20000 already hold numbers of more than 50 digits.
    with decimal.localcontext(decimal.Context(prec=50, traps=[decimal.Inexact])):
        with pytest.raises(decimal.Inexact):
            pair_sum_histogram(underlying_degree_counts(20000), "firr", decimal.Decimal(1))


def test_small_histograms_stay_in_one_leaf(monkeypatch):
    # Up to _LEAF entries the kernel is one Horner pass and needs no shift, so
    # small graphs (jaco:1000 has 619 entries) run the loop the kernel ran
    # before it had a split.
    def refuse(*args):
        raise AssertionError("a histogram of one leaf was split")

    monkeypatch.setattr("jacograph.irregularity.fib_pair", refuse)
    rng = random.Random(1)
    for ds in ([_LEAF - 1], [0, _LEAF - 1, 5, 5, 700], [_LEAF - 1] + [rng.randint(0, _LEAF - 1) for _ in range(30)]):
        counts = degree_histogram(ds)
        assert len(counts) == _LEAF
        assert pair_sum_histogram(counts, "firr") == pair_sum_naive([fib(d) for d in ds])
        assert pair_sum_histogram(counts, "firrpm") == pair_sum_naive([signed_weight_of_degree(d) for d in ds])
    ds = underlying_degrees(1000)
    assert firr_t(ds).value == pair_sum_naive([fib(d) for d in ds])
    with pytest.raises(AssertionError, match="was split"):
        pair_sum_histogram(counts + [0], "firr")  # one entry more is two leaves


P61 = 2**61 - 1


def sorted_prefix_mod_p(counts):
    """firr_t and firr_pm mod 2^61 - 1 from a degree histogram, in O(D).

    Ranks the weights and sums w_(k) (2k - 1 - n) over ranks k, with f_d mod
    p from the recurrence.  The weights f_d rise with d; the signed ones put
    the odd degrees first, largest first, then the even degrees, smallest
    first.  The c_d tied weights at ranks a + 1..a + c_d contribute
    w_d c_d (2a + c_d - n).
    """
    n = sum(counts)
    n_odd = sum(counts[1::2])
    firr = pm = 0
    below = odd_upto = even_below = 0
    f, f_next = 0, 1
    for d, c in enumerate(counts):
        if c:
            firr += f * c * (2 * below + c - n)
            if d % 2:
                odd_upto += c
                pm -= f * c * (2 * (n_odd - odd_upto) + c - n)
            else:
                pm += f * c * (2 * (n_odd + even_below) + c - n)
                even_below += c
        below += c
        f, f_next = f_next, (f + f_next) % P61
    return firr % P61, pm % P61


def test_sorted_prefix_mod_p_matches_naive():
    rng = random.Random(3)
    for _ in range(50):
        ds = [rng.randint(0, 60) for _ in range(rng.randint(0, 25))]
        expected = (
            pair_sum_naive([fib(d) for d in ds]) % P61,
            pair_sum_naive([signed_weight_of_degree(d) for d in ds]) % P61,
        )
        assert sorted_prefix_mod_p(degree_histogram(ds)) == expected


def test_kernel_matches_mod_p_sum_at_a_million_vertices():
    counts = underlying_degree_counts(10**6)
    assert len(counts) > 600 * _LEAF
    firr, pm = sorted_prefix_mod_p(counts)
    assert pair_sum_histogram(counts, "firr") % P61 == firr
    assert pair_sum_histogram(counts, "firrpm") % P61 == pm


@given(kernel_sequences, kernel_sequences, st.integers(min_value=0, max_value=3))
@example([], [], 0)
@example([0, 0, 0], [0], 2)
@example([1, 2, 2], [2, 1], 0)
@example([90, 130, 111], [], 1)
@example([5], [120, 0], 3)
def test_cross_pair_sum_matches_bipartite_loop(a, b, pad):
    weights = {"irr": lambda d: d, "firr": fib, "firrpm": signed_weight_of_degree}
    counts_a = degree_histogram(a) + [0] * pad  # unequal lengths, trailing zeros
    counts_b = degree_histogram(b)
    for kind, weight in weights.items():
        expected = sum(abs(weight(x) - weight(y)) for x in a for y in b)
        assert cross_pair_sum(counts_a, counts_b, kind) == expected
        assert cross_pair_sum(counts_b, counts_a, kind) == expected
    both = add_histograms(counts_a, counts_b)
    union = degree_histogram(a + b)
    assert len(both) == max(len(counts_a), len(counts_b))
    assert both[: len(union)] == union and not any(both[len(union) :])


def test_kernel_leaves_fibonacci_cache_alone(monkeypatch):
    ds = underlying_degrees(10**4)
    n = len(ds)

    def sorted_prefix(weights):
        return sum(w * (2 * k - 1 - n) for k, w in enumerate(sorted(weights), 1))

    expected_firr = sorted_prefix(fib(d) for d in ds)
    expected_pm = sorted_prefix(signed_weight_of_degree(d) for d in ds)

    def refuse(*args):
        raise AssertionError("the metric kernel looked up a Fibonacci number")

    monkeypatch.setattr("jacograph.irregularity.fib", refuse)
    monkeypatch.setattr("jacograph.fibonacci.FibCache.fib", refuse)
    assert firr_t(ds).value == expected_firr
    assert firr_pm(ds).value == expected_pm


@given(degree_sequences)
def test_oracle_equivalence(ds):
    assert irr_t(ds, method=METHOD_NAIVE).value == irr_t(ds).value
    assert firr_t(ds, method=METHOD_NAIVE).value == firr_t(ds).value
    assert firr_pm(ds, method=METHOD_NAIVE).value == firr_pm(ds).value


@given(degree_sequences, st.randoms(use_true_random=False))
def test_permutation_invariance(ds, rnd):
    shuffled = list(ds)
    rnd.shuffle(shuffled)
    assert irr_t(shuffled).value == irr_t(ds).value
    assert firr_t(shuffled).value == firr_t(ds).value
    assert firr_pm(shuffled).value == firr_pm(ds).value
    assert irr_t(shuffled, method=METHOD_NAIVE).value == irr_t(ds).value


@given(degree_sequences)
def test_zero_characterizations(ds):
    assert (irr_t(ds).value == 0) == (len(set(ds)) <= 1)
    assert (firr_t(ds).value == 0) == is_f_regular(ds)


@given(degree_sequences)
def test_values_are_non_negative_ints(ds):
    for metric in (irr_t, firr_t, firr_pm):
        v = metric(ds).value
        assert isinstance(v, int) and v >= 0


def test_big_weights_stay_exact():
    # degrees near 100 push weights past 64-bit words
    ds = [95, 94, 93, 1]
    expected = brute([fib(d) for d in ds])
    assert firr_t(ds).value == expected == firr_t(ds, method=METHOD_NAIVE).value
    assert expected > 2**63


def test_random_equivalence_sample():
    rng = random.Random(7)
    for _ in range(300):
        ds = [rng.randint(0, 200) for _ in range(rng.randint(0, 60))]
        assert irr_t(ds).value == pair_sum_naive(ds) == brute(ds)
        ws = [fib(d) for d in ds]
        assert firr_t(ds).value == pair_sum_naive(ws) == brute(ws)
