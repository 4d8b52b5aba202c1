"""Exact irregularity metrics over degree sequences.

Three metrics, each a sum over unordered vertex pairs of absolute weight
differences:

* ``irr_t``   with weight d (the degree itself),
* ``firr_t``  with the Fibonacci weight f_d,
* ``firr_pm`` with the signed weight -f_d for odd d, +f_d for even d.

All three depend only on the degree histogram: c_d vertices of degree d,
n vertices in all, largest degree D.  Every metric can be evaluated two ways:
the quadratic pairwise oracle (``naive``) or one pass over the histogram
(``sorted-prefix``, a prefix count over the ascending degrees).  The two must
agree exactly on every input; all arithmetic is integer.

With L_d = #{degrees <= d}, exactly L_d (n - L_d) pairs straddle the step
from d to d + 1, and f_{d+1} - f_d = f_{d-1} (with f_{-1} = 1), so

    irr_t  = sum_{d<D} L_d (n - L_d)
    firr_t = sum_{d<D} f_{d-1} L_d (n - L_d).

Signed weights of equal parity have equal signs, and consecutive members d,
d + 2 of one parity class differ by f_{d+1}; degrees of opposite parity give
|w_a - w_b| = f_a + f_b.  Collecting the coefficient of each f_d,

    firr_pm = sum_d f_d (c_d m_d + Y_d (m_d - Y_d)),

where m_d counts the degrees of the parity opposite to d and Y_d those of
them below d.

Both Fibonacci sums are sum_d g_d f_{d+t} with integer coefficients g_d
(t = -1 for firr_t, 0 for firr_pm).  They are evaluated by binary splitting
(Haible and Papanikolaou, "Fast multiprecision evaluation of series of
rational numbers", 1998).  A segment [lo, hi) of degrees yields
(A, B) = (sum g_d f_{d-lo}, sum g_d f_{d-lo+1}); its halves, split at
lo + s, merge by f_{x+s} = f_{s-1} f_x + f_s f_{x+1}:

    A = A_low + f_{s-1} A_up + f_s B_up,
    B = B_low + f_s A_up + f_{s+1} B_up.

So the work goes into a few products of balanced size, O(M(bits) log D) in
all with M the cost of one multiplication, where D additions on numbers as
long as the result cost O(D bits).  The f_s come from the fast-doubling
:func:`~jacograph.fibonacci.fib_pair`, once per segment length.  A leaf of
at most ``_LEAF`` degrees is Horner's rule from its top down, a step
(p, q) -> (q + g_d, p + q) of big-integer additions, and a histogram of one
leaf runs only that loop.  The leaves run from the top down and pass the
prefix counts on, so no list of coefficients is built and memory stays O(D)
words plus the result.  The kernel never reads or fills the shared cache
of :mod:`jacograph.fibonacci`.

The pair sum over a union A + B is the pair sum inside A, plus the one
inside B, plus the cross sum over a in A, b in B of |w_a - w_b|, for any
weights.  So three kernel calls give that cross sum exactly
(:func:`cross_pair_sum`), with no second kernel.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from itertools import islice

from .fibonacci import fib, fib_pair, signed_weight_of_degree

__all__ = [
    "METHOD_NAIVE",
    "METHOD_SORTED",
    "METHOD_CLOSED",
    "IrrValue",
    "pair_sum_naive",
    "degree_histogram",
    "pair_sum_histogram",
    "add_histograms",
    "cross_pair_sum",
    "irr_t",
    "firr_t",
    "firr_pm",
    "star_firr_closed",
    "biclique_firr_closed",
    "is_f_regular",
]

METHOD_NAIVE = "naive"
METHOD_SORTED = "sorted-prefix"
METHOD_CLOSED = "closed-form"

# Histograms no longer than this run the Horner loop once; longer ones are
# split down to leaves of at most this many degrees.  Measured on the firr and
# firrpm histograms of jaco:10^5 and jaco:10^6 (CPython 3.11, 2-core VM),
# leaves of 256 to 1024 run equally fast and 4096 up to 30 % slower.  With
# 1024 the histogram of every Jaco graph up to 1656 vertices is one leaf.
_LEAF = 1024


@dataclass(frozen=True)
class IrrValue:
    """Exact metric value together with the evaluation path that produced it."""

    value: int
    method: str


def pair_sum_naive(weights: Sequence[int]) -> int:
    """Oracle: literal sum of |w_u - w_v| over all unordered pairs."""
    ws = list(weights)
    total = 0
    for idx, wi in enumerate(ws):
        for wj in ws[idx + 1 :]:
            total += abs(wi - wj)
    return total


def _checked_degrees(degrees: Iterable[int]) -> list[int]:
    ds = list(degrees)
    if ds and min(ds) < 0:
        raise ValueError(f"degrees must be non-negative, got {min(ds)}")
    return ds


def degree_histogram(degrees: Iterable[int]) -> list[int]:
    """Entry d counts the degrees equal to d, for d = 0..max; empty for no degrees."""
    ds = _checked_degrees(degrees)
    counts = [0] * (max(ds) + 1 if ds else 0)
    for d in ds:
        counts[d] += 1
    return counts


def pair_sum_histogram(counts: Sequence[int], kind: str) -> int:
    """Metric ``kind`` ("irr", "firr" or "firrpm") of a degree histogram.

    ``counts[d]`` is the number of vertices of degree d; trailing zeros are
    allowed.  One pass over ``counts`` from the top, so the cost grows with
    the largest degree, not with the number of vertices; the Fibonacci kinds
    split histograms longer than one leaf, as the module docstring says.
    """
    n = sum(counts)
    above = 0  # degrees > d, so L_d = n - above
    if kind == "irr":
        total = 0
        for c in reversed(counts):
            total += above * (n - above)
            above += c
        return total
    rest = reversed(counts)  # the leaves take their counts from here, top down
    # Each leaf is a Horner pass over its next ``size`` degrees, from the
    # state the leaf above left: p = sum g_e f_{e-d-1}, q = sum g_e f_{e-d}
    # over the leaf's e >= d, so its (A, B) is (q, p + q).
    if kind == "firr":

        def leaf(size: int) -> tuple[int, int]:
            nonlocal above
            p = q = 0
            for c in islice(rest, size):
                p, q = q + above * (n - above), p + q
                above += c
            return q, p + q

        a, b = _fibonacci_split(leaf, len(counts), {})
        return b - a  # f_{d+1} - f_d = f_{d-1}
    if kind == "firrpm":
        # "this" is the parity class of the current d, "that" the other one;
        # they swap at every step.
        n_odd = sum(islice(counts, 1, None, 2))
        this_n, that_n = (n_odd, n - n_odd) if len(counts) % 2 == 0 else (n - n_odd, n_odd)
        this_above = that_above = 0

        def leaf(size: int) -> tuple[int, int]:
            nonlocal this_n, that_n, this_above, that_above
            p = q = 0
            for c in islice(rest, size):
                p, q = q + c * that_n + that_above * (that_n - that_above), p + q
                this_above, that_above = that_above, this_above + c
                this_n, that_n = that_n, this_n
            return q, p + q

        return _fibonacci_split(leaf, len(counts), {})[0]
    raise ValueError(f"unknown metric kind {kind!r}")


def _fibonacci_split(
    leaf: Callable[[int], tuple[int, int]], size: int, shifts: dict[int, tuple[int, int, int]]
) -> tuple[int, int]:
    """(A, B) = (sum g_d f_{d-lo}, sum g_d f_{d-lo+1}) over d in [lo, lo + size).

    ``leaf(k)`` returns that pair for the next k degrees below those already
    visited, so the upper half goes first.  The halves [lo, lo + s) and
    [lo + s, lo + size) merge by f_{x+s} = f_{s-1} f_x + f_s f_{x+1}, in
    three products: with X = f_s (A_up + B_up),
    A = A_low + X - f_{s-2} A_up and B = B_low + X + f_{s-1} B_up.
    ``shifts`` memoizes (f_{s-2}, f_{s-1}, f_s) per s for one kernel call.
    """
    if size <= _LEAF:
        return leaf(size)
    s = size // 2
    a_up, b_up = _fibonacci_split(leaf, size - s, shifts)
    a_low, b_low = _fibonacci_split(leaf, s, shifts)
    if s not in shifts:
        f, g = fib_pair(s)
        shifts[s] = (2 * f - g, g - f, f)
    f2, f1, f0 = shifts[s]
    x = f0 * (a_up + b_up)
    return a_low + x - f2 * a_up, b_low + x + f1 * b_up


def add_histograms(counts_a: Sequence[int], counts_b: Sequence[int]) -> list[int]:
    """Histogram of the union of two multisets: the elementwise sum, as long as the longer."""
    if len(counts_a) < len(counts_b):
        counts_a, counts_b = counts_b, counts_a
    both = list(counts_a)
    for d, c in enumerate(counts_b):
        both[d] += c
    return both


def cross_pair_sum(counts_a: Sequence[int], counts_b: Sequence[int], kind: str) -> int:
    """Sum of |w_a - w_b| over a in A and b in B, for the histograms of A and B.

    The weights are those of ``kind``, as in :func:`pair_sum_histogram`.
    Equal to K(A + B) - K(A) - K(B) with K that kernel: O(D) and exact.
    """
    return (
        pair_sum_histogram(add_histograms(counts_a, counts_b), kind)
        - pair_sum_histogram(counts_a, kind)
        - pair_sum_histogram(counts_b, kind)
    )


def _check_method(method: str) -> None:
    if method not in (METHOD_NAIVE, METHOD_SORTED):
        raise ValueError(f"unknown method {method!r}")


def irr_t(degrees: Iterable[int], method: str = METHOD_SORTED) -> IrrValue:
    """Total irregularity: pair sum of absolute degree differences.

    Empty and single-entry sequences give 0.
    """
    _check_method(method)
    if method == METHOD_NAIVE:
        return IrrValue(pair_sum_naive(_checked_degrees(degrees)), METHOD_NAIVE)
    return IrrValue(pair_sum_histogram(degree_histogram(degrees), "irr"), METHOD_SORTED)


def firr_t(degrees: Iterable[int], method: str = METHOD_SORTED) -> IrrValue:
    """Total fibonaccian irregularity: pair sum over the weights f_d."""
    _check_method(method)
    if method == METHOD_NAIVE:
        return IrrValue(pair_sum_naive([fib(d) for d in _checked_degrees(degrees)]), METHOD_NAIVE)
    return IrrValue(pair_sum_histogram(degree_histogram(degrees), "firr"), METHOD_SORTED)


def firr_pm(degrees: Iterable[int], method: str = METHOD_SORTED) -> IrrValue:
    """Signed-weight irregularity: pair sum over -f_d (odd d) / +f_d (even d).

    The result is a non-negative integer.
    """
    _check_method(method)
    if method == METHOD_NAIVE:
        weights = [signed_weight_of_degree(d) for d in _checked_degrees(degrees)]
        return IrrValue(pair_sum_naive(weights), METHOD_NAIVE)
    return IrrValue(pair_sum_histogram(degree_histogram(degrees), "firrpm"), METHOD_SORTED)


def star_firr_closed(n: int) -> IrrValue:
    """Closed form for the star with n leaves: n * (f_n - 1)."""
    if n < 1:
        raise ValueError(f"star closed form needs n >= 1, got {n}")
    return IrrValue(n * (fib(n) - 1), METHOD_CLOSED)


def biclique_firr_closed(n: int, m: int) -> IrrValue:
    """Closed form for the complete bipartite graph, n >= m >= 1: nm * (f_n - f_m)."""
    if not n >= m >= 1:
        raise ValueError(f"biclique closed form needs n >= m >= 1, got ({n}, {m})")
    return IrrValue(n * m * (fib(n) - fib(m)), METHOD_CLOSED)


def is_f_regular(degrees: Iterable[int]) -> bool:
    """True when all Fibonacci weights are equal.

    Since f is injective except for f_1 = f_2, that means all degrees are
    equal or all degrees lie in {1, 2}.
    """
    ds = set(_checked_degrees(degrees))
    return len(ds) <= 1 or ds <= {1, 2}
