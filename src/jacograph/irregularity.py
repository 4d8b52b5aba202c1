"""Exact irregularity metrics over degree sequences.

Three metrics, each a sum over unordered vertex pairs of absolute weight
differences:

* ``irr_t``   with weight d (the degree itself),
* ``firr_t``  with the Fibonacci weight f_d,
* ``firr_pm`` with the signed weight -f_d for odd d, +f_d for even d.

All three depend only on the degree histogram: c_d vertices of degree d,
n vertices in all, largest degree D.  Every metric can be evaluated two ways:
the quadratic pairwise oracle (``naive``) or one pass over the histogram
(``sorted-prefix``, which carries a running count of the degrees above d from
the top degree down; the tag keeps the name of the first, ascending, pass).
The two must agree exactly on every input; all arithmetic is integer.

The verify checks recompute pair sums over per-vertex weights, with no
histogram, by :func:`pair_sum_by_rank`: sort the N weights and take
sum_j w_(j) (2j - N + 1), in O(N log N) where :func:`pair_sum_naive`, the
definition, takes O(N^2).  In the ascending order w_(j) is the larger member
of j pairs and the smaller of N - 1 - j, and a tie adds 0 whichever member
counts as larger, so the two are equal for any ints.  The command line's
metric of a degree table {d: c}, a named family's or an edge-list file's,
takes those ranks a group of equal weights at a time
(:func:`_pair_sum_by_table`), in O(K log K) for K distinct degrees, so a
star's two degrees cost two weights however many leaves it has.

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
:func:`~jacograph.fibonacci.fib_pair`, once per segment length.

The kernel is split in two.  What a metric contributes is a stream of its
coefficients from the top degree down, a generator that carries the prefix
counts from each degree to the next: the straddle counts L_d (n - L_d),
which irr_t sums and firr_t weights (one stream serves both), or the
firr_pm terms c_d m_d + Y_d (m_d - Y_d).  One binary splitting routine takes
either stream.  Its leaf, at most ``_LEAF`` degrees, is Horner's rule over
the stream's next terms, a step (p, q) -> (q + g_d, p + q) of big-integer
additions, and a histogram of one leaf runs only that loop.  For firr_t
:func:`pair_sum_histogram` runs that loop itself, with the straddle count
inline and no stream: per degree one Horner step and one count, the whole
cost of the small histograms the union checks hand it.  The leaves
draw their terms in order, top down, so no list of coefficients is built
and memory stays O(D) words plus the result.  The kernel makes no
per-degree :func:`~jacograph.fibonacci.fib` call.

Binary splitting only adds and multiplies, so it runs unchanged in any ring
that holds the integers; the Fibonacci kinds take its unit ``one``.  Each
leaf's Horner loop stays in int and ``one *`` lifts its (A, B); the merges,
and the f_s from ``fib_pair(s, one)``, run in the ring.  The command line
passes ``decimal.Decimal(1)`` in a context of maximal precision and exponent
with ``Inexact`` trapped, so no result can be rounded without an error.
There libmpdec multiplies numbers of a million digits several times faster
than CPython's Karatsuba method, and the value prints with no base
conversion.  The library keeps int, the default: converting such a Decimal
to int takes time quadratic in its digits (85.6 s for the 1 291 623 digits
of firr_t of J*_{10^7}, CPython 3.11), and so does converting an int to
Decimal, which is why the doublings themselves run in the ring.

The Jaco graphs leave the kernel below their band (see :mod:`jacograph.jaco`):
their histogram is 1 on every degree below lo, so L_d = d there and the
coefficients are polynomials in d: d (n - d) for firr_t, and
M + Y (M - Y) with Y = floor(d/2) and M the other class's count for
firr_pm.  :func:`pair_sum_unit_head` sums those in closed form, one parity
class at a time, from u_{e+2} = 3 u_{e+1} - u_e for u_e = f_{a+2e}, and
takes f_lo from one ``fib_pair``; only the band runs the split, and its
(A, B) is shifted to its place by the merge's identity.  irr_t of a Jaco
graph needs neither: it is a floor sum in O(log n).

The pair sum over a union A + B is the pair sum inside A, plus the one
inside B, plus the cross sum over a in A, b in B of |w_a - w_b|, for any
weights.  :func:`cross_pair_sum` computes that cross sum by its own
formula, top-down passes over both histograms, so the identity
K(A + B) = K(A) + K(B) + cross(A, B), with K the kernel, is a statement
that can fail, not a definition.  For weights that never fall as d grows,
irr and firr, |w_a - w_b| is the sum of the steps w_{d+1} - w_d over
min(a, b) <= d < max(a, b), and a cross pair straddles the step from d to
d + 1 when one member is at most d and the other above it, so

    cross = sum_d (w_{d+1} - w_d) (L^A_d (|B| - L^B_d) + L^B_d (|A| - L^A_d)),

summed as it stands for irr and weighted by f_{d-1} through the split for
firr, as the kernel does.  For firr_pm, split each side by parity, A_0 and
A_1 its even and odd degrees.  Signed weights of one parity share a sign,
so a cross pair of one parity gives |f_a - f_b|, as firr does; a cross pair
of opposite parity gives f_a + f_b.  With F(X) the sum of f_d over X,

    cross_pm = cross_firr(A_0, B_0) + cross_firr(A_1, B_1)
               + |B_1| F(A_0) + |A_0| F(B_1) + |B_0| F(A_1) + |A_1| F(B_0):

two firr passes and four weight sums, each F one split shifted by
(f_{-1}, f_0) = (1, 0).  Each pairs every vertex of A with every one of B
exactly once, so the sum equals the definitional double loop.

Every Fibonacci sum leaves the split through
:func:`shifted_fibonacci_sum`, which takes the shift (f_{s-1}, f_s): by
(-1, 1) = (f_{-2}, f_{-1}) for the f_{d-1} of firr, by (1, 0) for firr_pm
and a weight sum, and by the band's offset in :func:`pair_sum_unit_head`.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from itertools import accumulate, chain, islice, repeat
from typing import Any, NamedTuple

from .fibonacci import fib, fib_pair, signed_weight_of_degree

__all__ = [
    "METHOD_NAIVE",
    "METHOD_SORTED",
    "METHOD_CLOSED",
    "IrrValue",
    "pair_sum_naive",
    "pair_sum_by_rank",
    "degree_histogram",
    "pair_sum_histogram",
    "pair_sum_unit_head",
    "shifted_fibonacci_sum",
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

# Histograms no longer than this run the Horner loop once (firr inline in
# pair_sum_histogram); longer ones are split down to leaves of at most this
# many degrees.  Measured on the firr and firrpm histograms of jaco:10^5 and
# jaco:10^6 (CPython 3.11, 2-core VM), leaves of 256 to 1024 run equally
# fast and 4096 up to 30 % slower.  With 1024 the histogram of every Jaco
# graph up to 1656 vertices is one leaf.
_LEAF = 1024


class IrrValue(NamedTuple):
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


def pair_sum_by_rank(weights: Iterable[int]) -> int:
    """Oracle: the sum of |w_u - w_v| over all unordered pairs, from the sorted weights.

    sum_j w_(j) (2j - N + 1) over the ascending order w_(0) <= ... <= w_(N-1),
    equal to :func:`pair_sum_naive` for any ints (the proof is in the module
    docstring), in O(N log N).
    """
    ws = sorted(weights)
    return sum(map(int.__mul__, ws, range(1 - len(ws), len(ws), 2)))


def _pair_sum_by_table(degrees: Mapping[int, int], kind: str, one: Any = 1) -> Any:
    """Metric ``kind`` ("irr", "firr" or "firrpm") of a degree table {d: c}, by its ranks grouped by weight.

    The rank sum of :func:`pair_sum_by_rank` with the c equal weights w at
    ranks b..b+c-1, b the vertices below them, taken together:
    w sum_j (2j - N + 1) over those ranks is c w (2b + c - N).  Two groups
    of one weight, as f_1 = f_2, add c w (2b + c - N) of their merged group
    in either order, so ties need no care.  O(K log K) for K distinct
    degrees, however large they are or however many vertices share them.
    The Fibonacci weights come from ``fib_pair(d, one)``, in the ring of
    ``one`` as in :func:`pair_sum_histogram`; irr is an int.
    """
    n, below, total = sum(degrees.values()), 0, 0  # an int 0 first: a Decimal -0 term then adds to +0
    sign = -1 if kind == "firrpm" else 1  # firrpm weighs an odd degree -f_d
    for w, c in sorted((d if kind == "irr" else sign**d * fib_pair(d, one)[0], c) for d, c in degrees.items()):
        total += c * w * (2 * below + c - n)
        below += c
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


def pair_sum_histogram(counts: Sequence[int], kind: str, one: Any = 1) -> Any:
    """Metric ``kind`` ("irr", "firr" or "firrpm") of a degree histogram.

    ``counts[d]`` is the number of vertices of degree d; trailing zeros are
    allowed.  One pass over ``counts`` from the top, so the cost grows with
    the largest degree, not with the number of vertices; the Fibonacci kinds
    split histograms longer than one leaf, as the module docstring says.
    They are evaluated in the ring whose unit is ``one``: the default 1 gives
    an int, ``decimal.Decimal(1)`` a Decimal, exact only in a context that
    cannot round (see the module docstring).  irr is always an int.
    """
    n = sum(counts)
    if kind == "irr":
        return sum(_straddles(reversed(counts), n))
    if kind == "firr":  # f_{d+1} - f_d = f_{d-1}: shifted by -1, (f_{-2}, f_{-1}) = (-1, 1)
        if len(counts) > _LEAF:
            return shifted_fibonacci_sum(_straddles(reversed(counts), n), len(counts), (-1, 1), one)
        # One leaf: the split's Horner loop with the straddle count inline,
        # whose (A, B) = (q, p + q) shifted by (-1, 1) is B - A = p.
        p = q = above = 0
        for c in reversed(counts):
            p, q = q + above * (n - above), p + q
            above += c
        return one * p
    if kind == "firrpm":
        terms = _parity_terms(reversed(counts), len(counts) - 1, n, sum(islice(counts, 1, None, 2)))
        return shifted_fibonacci_sum(terms, len(counts), (1, 0), one)
    raise ValueError(f"unknown metric kind {kind!r}")


def pair_sum_unit_head(lo: int, band: Sequence[int], kind: str, one: Any = 1) -> Any:
    """Metric ``kind`` ("firr" or "firrpm") of a histogram that is 1 on each degree below ``lo``.

    The histogram is 0 at degree 0, 1 on degrees 1..lo-1 and ``band[i]`` on
    degree top - i for i = 0..len(band)-1, with top = lo + len(band) - 1:
    the same value as ``pair_sum_histogram([0] + [1] * (lo - 1) +
    band[::-1], kind, one)``.  Degrees below ``lo`` cost O(1) ring
    operations, closed forms from one ``fib_pair``; only the band runs
    through the kernel (see the module docstring).
    """
    if lo < 1 or not band:
        raise ValueError(f"need lo >= 1 and a non-empty band, got lo={lo}, {len(band)} band entries")
    n = lo - 1 + sum(band)
    if kind not in ("firr", "firrpm"):
        raise ValueError(f"unknown metric kind {kind!r}")
    f = list(fib_pair(lo - 1, one))  # f_{lo-1}, f_lo, then f_{lo+1}, f_{lo+2}
    f += [f[0] + f[1], f[0] + 2 * f[1]]

    def pair(i: int) -> tuple[Any, Any]:
        return (f[i - lo + 1], f[i - lo + 2]) if i >= lo - 1 else fib_pair(i, one)

    if kind == "firr":
        # Below lo, L_d = d: the terms f_{d-1} d (n - d), with x = d - 1 = r + 2e.
        head = sum(
            _fib_poly_sum(lambda e, r=r: (r + 1 + 2 * e) * (n - r - 1 - 2 * e), r, (lo - r) // 2, pair)
            for r in (0, 1)
        )
        # The band shifted by lo - 1: (f_{lo-2}, f_{lo-1}).
        return head + shifted_fibonacci_sum(_straddles(band, n), len(band), (f[1] - f[0], f[0]), one)
    # Below lo, c_d = 1 and Y_d = floor(d/2), the other class's degrees 1..d-1.
    top = lo + len(band) - 1
    n_odd = lo // 2 + sum(band[1 - top % 2 :: 2])
    n_even = n - n_odd
    head = _fib_poly_sum(lambda e: n_even + e * (n_even - e), 1, lo // 2, pair) + _fib_poly_sum(
        lambda e: n_odd + (e + 1) * (n_odd - e - 1), 2, (lo - 1) // 2, pair
    )
    # The band shifted by lo: (f_{lo-1}, f_lo).
    return head + shifted_fibonacci_sum(_parity_terms(band, top, n, n_odd), len(band), (f[0], f[1]), one)


def shifted_fibonacci_sum(terms: Iterable[int], size: int, shift: tuple[Any, Any], one: Any = 1) -> Any:
    """sum_j g_j f_{j+s} over j = 0..size-1, given shift = (f_{s-1}, f_s), in the ring of ``one``.

    ``terms`` yields the ``size`` coefficients from g_{size-1} down to g_0.
    Binary splitting gives (A, B) = (sum g_j f_j, sum g_j f_{j+1}), and
    f_{j+s} = f_{s-1} f_j + f_s f_{j+1} shifts it: no per-degree ``fib``.
    Every Fibonacci sum of the kernel, the cross sum and the union checks
    leaves the split here; s may be negative, f_{-1} = 1 and f_{-2} = -1.
    """
    a, b = _fibonacci_split(iter(terms), size, {}, one)
    return shift[0] * a + shift[1] * b


def _fib_poly_sum(poly: Callable[[int], int], a: int, count: int, pair: Callable[[int], Any]) -> Any:
    """Sum of poly(e) f_{a+2e} over e = 0..count-1, for a polynomial of degree <= 2.

    ``pair(i)`` gives (f_i, f_{i+1}), at i = a and i = a + 2 count.  With
    u_e = f_{a+2e}, so that u_{e+2} = 3 u_{e+1} - u_e, the sum telescopes:
    T(e) = U(e) u_e + V(e) u_{e+1} has T(e+1) - T(e) = poly(e) u_e when
    U(e) = -V(e+1) - poly(e) and V(e+2) - 3 V(e+1) + V(e) = -poly(e+1).  The
    left side maps v2 e^2 + v1 e + v0 to -v2 e^2 - (2 v2 + v1) e + v2 - v1 - v0,
    so V's coefficients follow from those of poly(e+1) = c2 e^2 + c1 e + c0,
    read off its values at e = 0, 1, 2.
    """
    c0, q1, q2 = poly(1), poly(2), poly(3)
    c2 = (q2 - 2 * q1 + c0) // 2
    c1 = q1 - c0 - c2
    v2, v1 = c2, c1 - 2 * c2
    v0 = c0 + v2 - v1

    def v(e: int) -> int:
        return (v2 * e + v1) * e + v0

    def t(e: int) -> Any:
        u0, u1 = pair(a + 2 * e)
        return v(e) * (u0 + u1) - (v(e + 1) + poly(e)) * u0

    return t(count) - t(0)


def _straddles(desc: Iterable[int], n: int) -> Iterator[int]:
    """L_d (n - L_d) for d = top, top - 1, ...: the pairs straddling d -> d + 1.

    ``desc`` gives the counts from the top degree down, and n is the number
    of vertices, those below the last count included.
    """
    above = 0  # degrees > d, so L_d = n - above
    for c in desc:
        yield above * (n - above)
        above += c


def _parity_terms(desc: Iterable[int], top: int, n: int, n_odd: int) -> Iterator[int]:
    """c_d m_d + Y_d (m_d - Y_d) for d = top, top - 1, ...: the firr_pm coefficients.

    ``desc`` gives the counts from degree ``top`` down; n and n_odd count all
    vertices and those of odd degree, below the last count included.
    """
    # "this" is the parity class of the current d, "that" the other one; they
    # swap at every step.  that_above = m_d - Y_d, the other class above d.
    this_n, that_n = (n_odd, n - n_odd) if top % 2 else (n - n_odd, n_odd)
    this_above = that_above = 0
    for c in desc:
        yield c * that_n + that_above * (that_n - that_above)
        this_above, that_above = that_above, this_above + c
        this_n, that_n = that_n, this_n


def _fibonacci_split(
    terms: Iterator[int], size: int, shifts: dict[int, tuple[Any, Any, Any]], one: Any
) -> tuple[Any, Any]:
    """(A, B) = (sum g_d f_{d-lo}, sum g_d f_{d-lo+1}) over d in [lo, lo + size).

    ``terms`` yields the coefficients g_d from the top down, so the upper
    half goes first.  A leaf is Horner's rule over its next ``size`` terms:
    after the step for d, p = sum g_e f_{e-d-1} and q = sum g_e f_{e-d} over
    the leaf's e >= d, so its (A, B) is (q, p + q).  The halves [lo, lo + s)
    and [lo + s, lo + size) merge by f_{x+s} = f_{s-1} f_x + f_s f_{x+1}, in
    three products: with X = f_s (A_up + B_up),
    A = A_low + X - f_{s-2} A_up and B = B_low + X + f_{s-1} B_up.
    ``shifts`` memoizes (f_{s-2}, f_{s-1}, f_s) per s for one kernel call.
    The leaf's loop runs in int and its (A, B) is lifted to the ring by
    ``one *``; the merges and the f_s are in the ring of ``one``.
    """
    if size <= _LEAF:
        p = q = 0
        for g in islice(terms, size):
            p, q = q + g, p + q
        return one * q, one * (p + q)
    s = size // 2
    a_up, b_up = _fibonacci_split(terms, size - s, shifts, one)
    a_low, b_low = _fibonacci_split(terms, s, shifts, one)
    if s not in shifts:
        f, g = fib_pair(s, one)
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
    irr and firr take one top-down pass over both histograms, firrpm two
    firr passes and four weight sums, by the formulas in the module
    docstring, with no call of the kernel on either side: O(D) and exact.
    """
    if kind == "firrpm":  # A_0, A_1, B_0, B_1: each side's even and odd degrees
        parts = [[c * (d % 2 == r) for d, c in enumerate(counts)] for counts in (counts_a, counts_b) for r in (0, 1)]
        # Within a class as firr; across, f_a + f_b, so each part's weight sum
        # (shift (f_{-1}, f_0) = (1, 0)) counts once per vertex of the other side's other class.
        return cross_pair_sum(parts[0], parts[2], "firr") + cross_pair_sum(parts[1], parts[3], "firr") + sum(
            sum(parts[3 - i]) * shifted_fibonacci_sum(reversed(p), len(p), (1, 0)) for i, p in enumerate(parts)
        )
    if kind not in ("irr", "firr"):
        raise ValueError(f"unknown metric kind {kind!r}")
    size = max(len(counts_a), len(counts_b))
    # Each side from the top degree down, the shorter padded with zeros above its top.
    desc_a, desc_b = (chain(repeat(0, size - len(c)), reversed(c)) for c in (counts_a, counts_b))
    n_a, n_b = sum(counts_a), sum(counts_b)
    # The counts above d on each side, so L_d = n - above: the last pair
    # of sums, all of each side, yields 0 and no split reads it.
    aboves = zip(accumulate(desc_a, initial=0), accumulate(desc_b, initial=0))
    terms = ((n_a - x) * y + (n_b - y) * x for x, y in aboves)
    if kind == "irr":
        return sum(terms)
    return shifted_fibonacci_sum(terms, size, (-1, 1))  # f_{d+1} - f_d = f_{d-1}


def _metric(degrees: Iterable[int], method: str, kind: str, weight: Callable[[int], int]) -> IrrValue:
    """Metric ``kind`` of a degree sequence: the pairwise oracle over ``weight``, or the kernel."""
    if method == METHOD_NAIVE:
        return IrrValue(pair_sum_naive([weight(d) for d in _checked_degrees(degrees)]), METHOD_NAIVE)
    if method == METHOD_SORTED:
        return IrrValue(pair_sum_histogram(degree_histogram(degrees), kind), METHOD_SORTED)
    raise ValueError(f"unknown method {method!r}")


def irr_t(degrees: Iterable[int], method: str = METHOD_SORTED) -> IrrValue:
    """Total irregularity: pair sum of absolute degree differences.

    Empty and single-entry sequences give 0.
    """
    return _metric(degrees, method, "irr", int)


def firr_t(degrees: Iterable[int], method: str = METHOD_SORTED) -> IrrValue:
    """Total fibonaccian irregularity: pair sum over the weights f_d."""
    return _metric(degrees, method, "firr", fib)


def firr_pm(degrees: Iterable[int], method: str = METHOD_SORTED) -> IrrValue:
    """Signed-weight irregularity: pair sum over -f_d (odd d) / +f_d (even d).

    The result is a non-negative integer.
    """
    return _metric(degrees, method, "firrpm", signed_weight_of_degree)


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
