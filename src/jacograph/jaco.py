"""Construction of finite linear Jaco graphs.

The infinite construction processes vertices 1, 2, 3, ... in order.  Vertex i
first receives arcs from every earlier vertex whose out-reach covers i, which
fixes its in-degree d-(v_i); its own out-reach is then r_i = 2i - d-(v_i), so
its out-neighbors form the contiguous interval [i+1, r_i].  The finite graph
on n vertices keeps only ids <= n, truncating each out-interval at n, which
gives vertex i the degree d-(v_i) + min(i - d-(v_i), n - i).

Closed form
-----------
The out-degree g(i) = i - d-(v_i) is Hofstadter's G-sequence (OEIS A005206),
g(i) = G(i) = floor((i+1)/phi) with phi the golden ratio.  Proof by strong
induction on i: an earlier vertex h covers i exactly when r_h = h + g(h) >= i,
so g(i) = 1 + #{h < i : h + g(h) <= i - 1}.  If g(h) = floor((h+1)/phi) for
every h < i, then h + g(h) = floor((h+1) phi) - 1 because 1/phi = phi - 1,
and with a = h + 1 the count becomes #{a >= 2 : floor(a phi) <= i}.  Since
floor(a phi) <= i means a < (i+1)/phi, an irrational bound, the Beatty count
#{a >= 1 : floor(a phi) <= i} is floor((i+1)/phi); a = 1 always counts, so
the count over a >= 2 is one less and g(i) = floor((i+1)/phi).  In exact
integers, with a = i + 1, G(i) = (isqrt(5 a^2) - a) // 2.

The same count gives the shape of every finite graph.  With
k = G(n+1) - 1, vertex i has i + G(i) <= n exactly when i <= k, so the
degree min(i, n - G(i)) is i on the head 1..k and n - G(i) < i on the tail
k+1..n.  The tail starts below k + 1 and never rises, so k is the maximum
degree and v_k, the last head vertex, is the prime Jaconian vertex.  On the
tail G runs from j0 = G(k+1) up to j1 = G(n).  :func:`_shape` returns
(k, j0, j1), and every size below is read off these three numbers.

Every degree query therefore comes straight from n with no stored data.
:func:`build_profile` still runs the construction itself, as an O(n)
interval sweep; it is the definition the closed form is tested against.
Adjacency is materialized only by :func:`underlying_graph`;
:func:`underlying_later_neighbors` yields each vertex's later neighbors as a
range, so the graph can be written out without it.  ``graphs`` and
``irregularity`` are imported inside the functions that use them (the
graph, its edge guard, the band's kernel), so a run that asks only for
degrees, tails or irr values loads neither.

The edge count in O(log n)
--------------------------
Let T(x) = x(x+1)/2 and S(x) = G(1) + ... + G(x).  Count the edges E(n) by
in-degree: vertex i has the i - G(i) in-arcs of the infinite construction,
since in-arcs only come from earlier vertices and truncating at n removes
none, so E(n) = T(n) - S(n).  Count them by out-degree: G(i) on the head
and n - i on the tail, so E(n) = S(k) + T(n-k-1).  Equating the two gives
S(n) = T(n) - T(n-k-1) - S(k); the first count on k vertices gives
S(k) = T(k) - E(k), so

    E(n) = T(k) + T(n-k-1) - E(k),  k = G(n+1) - 1 < n,  E(1) = 0.

k is about n / phi, so :func:`_edge_count` unrolls this in about log_phi n
steps of alternating sign, 86 at n = 10^18, with no per-vertex pass.

The band and the Fibonacci word
-------------------------------
By the same Beatty count, #{i >= 1 : G(i) <= j} = floor((j+1) phi) - 1, so
exactly s_j = floor((j+1) phi) - floor(j phi), 1 or 2, vertices have
G(i) = j.  The sequence s_1 s_2 ... = 2 1 2 2 1 2 1 2 ... is the Fibonacci
word: its prefixes S_t of length F_{t+1} obey S_{t+1} = S_t S_{t-1}.  The
tail values G(i), i = k+1..n, run from j0 = G(k+1) to j1 = G(n), so with
lo = n - j1 and hi = n - j0 the histogram is 1 on the head degrees
1..lo-1, 1 + s_{n-d} on the band lo..hi (the two end values trimmed to
i in k+1..n) and 1 on hi+1..k; hi is k - 1 or k.  The band holds about
0.236 n degrees and the head about 0.382 n.  :func:`underlying_degree_counts`
joins the head to a reversed slice of the word, made at C speed, and
:func:`underlying_metric` passes the band alone to the kernel.

irr in O(log n)
---------------
irr is sum_d L_d (n - L_d) with L_d = #{degrees <= d}.  A tail degree
n - G(i) is <= d exactly when G(i) >= m = n - d, so with the count above
L_d = d + n + 1 - floor(m phi) on the band lo <= d < hi, L_d = d on the
head and L_d = d + n - k on hi <= d < k.  With c = 2n + 1 - m and
F = floor(m phi) the band term is c (n - c) + F (3n + 2 - 2m) - F^2, so
besides power sums in m it needs sum F, sum m F and sum F^2 over an
interval of m.  Those are floor sums of floor(m p / q), by the Euclid-like
recursion of :func:`_floor_sums`, once p / q = F_{t+1} / F_t with F_t > m:

    floor(m phi) = floor(m F_{t+1} / F_t) for 0 <= m < F_t.

Proof.  From Binet's formula F_{t+1} - phi F_t = psi^t with |psi| = 1/phi,
so |phi - p/q| = phi^-t / q.  Let 0 < m < q (m = 0 is trivial) and suppose
an integer r lies between m phi and m p / q, so that the floors differ.
Then |r/m - p/q| <= |phi - p/q| = phi^-t / q.  Also r/m != p/q, since
gcd(p, q) = 1 and q does not divide m, so |r q - m p| >= 1 and
|r/m - p/q| >= 1 / (m q).  Together m >= phi^t > F_t = q, a contradiction.
(F_t < phi^t as F_t = (phi^t - psi^t) / sqrt 5 and |psi^t| < 1 < phi^t.)

The Euclid steps on (F_{t+1}, F_t) are t = O(log n), each O(1) integer
operations, so irr of J*_{10^18} takes about a millisecond and no list.

Each graph from the one before
------------------------------
:func:`underlying_metrics` walks J*_1, J*_2, ..., each value from the one
before, and ``theorems._growth_rhs`` takes one step from J*_n's tail
alone.  From J*_n to J*_{n+1}, with k = G(n+1) - 1
the largest degree of J*_n, vertex n + 1 gets an arc from each v_i with
i + G(i) >= n + 1, that is from the tail D = v_{k+1}..v_n alone (see the
shape above).  So it arrives with degree l = n - k, every degree d of D
rises by one, and the head v_1..v_k keeps its degrees 1..k; when
G(n+2) - 1 = k + 1 the top tail vertex, now of degree k + 1, joins the
head.  Take weights w_d = d or f_d and steps s_d = w_{d+1} - w_d, 1 or
f_{d-1}; w never falls as d grows, nor does s on degrees >= 1.  The new
vertex adds its pair sum against the updated weights.  A vertex of D with
degree d <= k moves its pair with a head vertex of degree h by +s_d when
h <= d and by -s_d when h > d, as w_h >= w_{d+1} there: (2d - k) s_d in
all.  A pair of D with degrees a >= b moves from w_a - w_b to
w_{a+1} - w_{b+1}, by s_a - s_b >= 0, so the absolute value is exact and
D's pair sum grows by P_s(D), the pair sum of D in the weights s, 0 for
irr.  As the tail's degrees n - G(i) >= n - G(n) >= l - 1, the new
vertex's pairs with D are w_{d+1} - w_l, and the value grows by

    sum_D (2d - k) s_d + P_s(D) + sum_{h=1..k} |w_h - w_l|
                       + sum_D w_{d+1} - |D| w_l.

As w never falls and l <= k + 1, the head term is
W(k) - W(l-1) - W(l) + (2l-1-k) w_l with W(x) = w_1 + ... + w_x,
x(x+1)/2 or f_{x+2} - 1.  Everything else is a
running total over D: |D| = l, the sums of s, w, d s and d w, and the pair
sums P_s and P_w.  The shift d -> d + 1 maps (s_d, w_d) to
(s_{d+1}, w_{d+1}) = (s_d, w_d + s_d) for irr and (w_d, w_d + s_d) for
firr, f_{d+1} = f_d + f_{d-1}; the map is linear, so the sums of s and w map
alike, and those of d s and d w map alike and add the shifted sums of s and
w.  P_s and P_w map alike too, since s and w never fall on degrees >= 1 and
so no gap changes sign.  The new vertex is D's minimum, adding
sum_D (w - w_l) to P_w, and the vertex that joins the head is its maximum,
taking |D| w_{k+1} - sum_D w off it; P_s likewise.  W(k), W(l-1) and the
weights at k + 1 and l step with k and l, which rise by at most one.  So a
graph costs O(1) big-integer additions and multiplications, with no list
and no ``fib`` call.  The walk starts at J*_1, one tail vertex of degree 0
with s_0 = w_1 - w_0 = 1: its first step is exact although s falls from
s_0 to s_1 = 0 for firr, as a single vertex has no gap to keep.

The same step, for n >= 2, from the tail's counts with no walk.  Let c_d
count the vertices of D of degree d, lo <= d <= k, as :func:`_tail` reads
them, and A_d those above d; |D| = l.  For irr, s = 1 and P_s = 0, so a
vertex of degree d adds (2d - k) + (d + 1) = 3d - k + 1, and with w_l = l
the head term less |D| w_l is W(k) - 2 W(l-1) + (l-2-k) l
= (k + 1)(k - 2l) / 2.  For firr, s_d = f_{d-1} and
w_{d+1} = f_{d-1} + f_d = 2 f_{d-1} + f_{d-2}, so a vertex of degree d adds
(2d - k + 2) f_{d-1} + f_{d-2}.  As D's degrees are >= 1, where s never
falls, P_s(D) is the pair sum of the weights f_{d-1} of D by its ranks
grouped by degree: the c_d vertices of degree d, with A_d of D above and
l - A_d - c_d below, add c_d (l - 2 A_d - c_d) f_{d-1}.  That is the pair
sum by straddles, sum_d L_d (l - L_d) (s_{d+1} - s_d) with the steps
f_d - f_{d-1} = f_{d-2}, summed by parts.  So the coefficient of f_{d-1}
is c_d (2d - k + 2 + l - 2 A_d - c_d), where 2d - k + 2 + l is n + 2 at
d = k, and that of f_{d-2} is c_d.  Moved one degree down, to e = d - 1,
the second is a coefficient of f_{e-1} too, so the tail's part is one sum
over e = lo - 1..k of (c_e (2e - k + 2 + l - 2 A_e - c_e) + c_{e+1}) f_{e-1},
with c_{lo-1} = c_{k+1} = 0: one stream, from the top down, for
``irregularity.shifted_fibonacci_sum``, shifted by
(f_{lo-3}, f_{lo-2}), both from (f_lo, f_{lo+1}) as f_{i-1} = f_{i+1} - f_i.
For lo <= 2, that is n <= 6, the shift is negative: the recurrence run
downwards gives f_{-1} = 1 and f_{-2} = -1, and
f_{j+s} = f_{s-1} f_j + f_s f_{j+1} holds for every integer s;
lo = n - G(n) >= 1 is the degree of v_n, so no lower index is needed.  The
head term less |D| f_l is f_{k+2} - 2 f_{l+1} + 1 + (l - 2 - k) f_l.  A step
costs one pass over the tail's about 0.236 n counts, and nothing is kept
between graphs.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from itertools import chain
from math import isqrt
from typing import TYPE_CHECKING, Any, NamedTuple

if TYPE_CHECKING:
    from .graphs import SimpleGraph

__all__ = [
    "JacoProfile",
    "build_profile",
    "out_degree",
    "underlying_degrees",
    "underlying_degree_counts",
    "underlying_metric",
    "underlying_metrics",
    "underlying_graph",
    "underlying_later_neighbors",
    "prime_jaconian_index",
]


class JacoProfile(NamedTuple):
    """Immutable per-vertex data of the construction prefix 1..n_max.

    ``in_degrees[i-1]`` is d-(v_i); the out-reach r_i = 2i - d-(v_i), the
    largest id that receives an arc from v_i in the infinite construction,
    follows from it.  A fully built profile may be shared freely.
    """

    in_degrees: tuple[int, ...]

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
        return 2 * i - self.in_degree(i)

    def out_degree_unbounded(self, i: int) -> int:
        """Out-degree in the infinite construction: i - d-(v_i)."""
        return self._check(i) - self.in_degrees[i - 1]


def build_profile(n_max: int) -> JacoProfile:
    """Compute the in-degrees of vertices 1..n_max in O(n_max).

    The sweep keeps a running count of out-reach intervals covering the
    current vertex: every vertex covers its successor (r_h >= h + 1 always),
    and intervals with out-reach exactly i - 1 stop covering at i.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    in_deg = []
    expiring = [0] * (n_max + 1)  # expiring[j]: count of vertices with out-reach j
    active = 0
    for i in range(1, n_max + 1):
        if i > 1:
            active += 1 - expiring[i - 1]
        in_deg.append(active)
        r = i + i - active
        if r <= n_max:
            expiring[r] += 1
    return JacoProfile(tuple(in_deg))


def out_degree(i: int) -> int:
    """Out-degree d+(v_i) = i - d-(v_i) in the infinite construction.

    This is G(i) = floor((i+1)/phi), computed exactly as
    (isqrt(5 a^2) - a) // 2 with a = i + 1; see the module docstring.
    """
    if i < 1:
        raise ValueError(f"vertex ids start at 1, got {i}")
    a = i + 1
    return (isqrt(5 * a * a) - a) // 2


def _shape(n: int) -> tuple[int, int, int]:
    """(k, j0, j1) of the graph on n vertices.

    The head is 1..k with k = G(n+1) - 1, and G runs from j0 = G(k+1) to
    j1 = G(n) on the tail k+1..n (see the module docstring).  The degree,
    band, metric, edge and neighbor queries below all read it, so each
    refuses an n below 1 here, with this one message.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    k = out_degree(n + 1) - 1
    return k, out_degree(k + 1), out_degree(n)


def _edge_count(n: int) -> int:
    """Edge count of the graph on n vertices, in O(log n) steps.

    E(x) = T(k) + T(x-k-1) - E(k) with k + 1 = G(x+1) (see the module
    docstring), so the recursion walks g = x + 1 down the iterates of G.
    """
    g, h = n + 1, _shape(n)[0] + 1  # h = G(g) = k + 1
    edges, sign = 0, 1
    while h > 1:  # h = 1 only at x = 1, where E(1) = 0
        edges += sign * ((h - 1) * h + (g - h - 1) * (g - h)) // 2
        g, h, sign = h, out_degree(h), -sign
    return edges


# The loops below inline out_degree: a Python call per vertex would cost
# more than the formula itself.


def underlying_degrees(n: int) -> tuple[int, ...]:
    """Degree sequence of the underlying undirected graph on n vertices.

    Entry i-1 is min(i, n - G(i)): the head 1..k with k = G(n+1) - 1, then
    the tail n - G(i) for i = k+1..n.
    """
    k = _shape(n)[0]
    return tuple(range(1, k + 1)) + tuple(
        n - (isqrt(5 * a * a) - a) // 2 for a in range(k + 2, n + 2)
    )


def underlying_degree_counts(n: int) -> list[int]:
    """Degree histogram of the underlying graph on n vertices.

    Entry d counts the vertices of degree d, for d = 0 up to the largest
    degree k = G(n+1) - 1: 1 on the head degrees below lo, then the band
    lo..k read off the Fibonacci word (see the module docstring), with no
    per-vertex pass.
    """
    if n == 1:
        return [1]  # one vertex of degree 0
    lo, band = _band(n)
    return list(b"\x00" + b"\x01" * (lo - 1) + band[::-1])


def underlying_metric(n: int, kind: str, one: Any = 1) -> Any:
    """Metric ``kind`` ("irr", "firr" or "firrpm") of the underlying graph on n vertices.

    Equal to ``pair_sum_histogram(underlying_degree_counts(n), kind, one)``
    with no histogram: irr in O(log n) integer operations by floor sums,
    firr and firrpm in closed form below lo and by the kernel on the band
    alone, in the ring whose unit is ``one`` (see the module docstring).
    An n below 1 is refused by :func:`_shape`.
    """
    if kind == "irr":
        return _irr(n)
    if kind not in ("firr", "firrpm"):
        raise ValueError(f"unknown metric kind {kind!r}")
    if n == 1:
        return 0 * one
    from .irregularity import pair_sum_unit_head

    return pair_sum_unit_head(*_band(n), kind, one)


def _floor_phi(x: int) -> int:
    """floor(x phi) for x >= 0, exactly."""
    return (x + isqrt(5 * x * x)) // 2


# s_j = floor((j+1) phi) - floor(j phi) for j = 1, 2, ... at index j - 1 (the
# Fibonacci word over {2, 1}).  Shared by every caller: _fibonacci_word only
# replaces it, once a longer word is complete, and nothing writes to it, so
# its content never depends on the calls before.
_WORD = bytearray(b"\x02\x01")
_PLUS_ONE = bytes(range(1, 256)) + b"\x00"  # translate table: byte c -> c + 1


def _fibonacci_word(length: int) -> bytearray:
    """The first ``length`` or more bytes s_1 s_2 ... of the Fibonacci word.

    The prefixes S_t of lengths F_{t+1} obey S_{t+1} = S_t S_{t-1}, and
    S_{t-1} is a prefix of S_t, so each step copies the buffer's own prefix
    into one buffer of the final size: peak memory is the word, and an
    impossible size fails at its one allocation.
    """
    global _WORD
    word = _WORD
    if len(word) < length:
        word = bytearray(max(length, 2 * len(word)))
        word[:2] = b"\x02\x01"
        size, prev = 2, 1
        view = memoryview(word)
        while size < len(word):
            step = min(prev, len(word) - size)
            view[size : size + step] = view[:step]
            size, prev = size + prev, size
        view.release()
        _WORD = word
    return word


def _tail(n: int) -> tuple[int, int, bytes]:
    """(k, lo, counts of the tail's degrees k, k - 1, ..., lo) of the graph on n vertices.

    Tail vertex i in k+1..n has degree n - G(i), G(i) = j from j0 = G(k+1)
    to j1 = G(n), and s_j vertices i >= 1 have G(i) = j; only the two ends
    lose the vertices outside k+1..n.  lo = n - j1 is the degree of v_n, so
    its count is at least 1; degree k has count 0 when hi = n - j0 is k - 1.
    J*_1 is the one tail vertex of degree 0: (0, 0, b"\x01").
    """
    k, j0, j1 = _shape(n)
    tail = _fibonacci_word(j1)[j0 - 1 : j1]  # s_j for j = j0..j1, a copy
    # #{i >= 1 : G(i) <= j} = floor((j+1) phi) - 1; trim the first end, then the last.
    tail[0] = min(n, _floor_phi(j0 + 1) - 1) - k
    tail[-1] = n - max(k, _floor_phi(j1) - 1)
    return k, n - j1, b"\x00" * (k - n + j0) + tail


def _band(n: int) -> tuple[int, bytes]:
    """(lo, counts of the degrees k, k - 1, ..., lo) of the graph on n >= 2 vertices.

    The tail's counts of :func:`_tail` plus the head's one vertex on every
    degree 1..k.
    """
    _, lo, tail = _tail(n)
    return lo, tail.translate(_PLUS_ONE)


def _poly_sum(p: Callable[[int], int], lo: int, hi: int) -> int:
    """Sum of p(x) over x = lo..hi for a polynomial of degree <= 2, by forward differences."""
    terms = hi - lo + 1
    if terms <= 0:
        return 0
    p0, p1, p2 = p(lo), p(lo + 1), p(lo + 2)
    return terms * p0 + terms * (terms - 1) // 2 * (p1 - p0) + terms * (terms - 1) * (terms - 2) // 6 * (
        p2 - 2 * p1 + p0
    )


def _floor_sums(a: int, b: int, c: int, n: int) -> tuple[int, int, int]:
    """(sum q, sum x q, sum q^2) over x = 0..n with q = floor((a x + b) / c).

    For a, b, n >= 0 and c >= 1.  The Euclid-like recursion of the AtCoder
    Library's floor_sum, carried to the two higher sums: reduce a and b
    mod c, then swap the roles of x and q; run with an explicit stack, so
    its O(log) depth meets no recursion limit.
    """
    steps = []
    while True:
        if a >= c or b >= c:
            steps.append((True, a // c, b // c, n))
            a, b = a % c, b % c
            continue
        m = (a * n + b) // c
        if m == 0:
            break
        steps.append((False, m, 0, n))
        a, b, c, n = c, c - b - 1, a, m - 1
    f = g = h = 0
    for reduced, qa, qb, n in reversed(steps):
        if reduced:  # q = qa x + qb + q' with q' the reduced floor
            s1, s2 = n * (n + 1) // 2, n * (n + 1) * (2 * n + 1) // 6
            f, g, h = (
                f + qa * s1 + qb * (n + 1),
                g + qa * s2 + qb * s1,
                h + 2 * qb * f + 2 * qa * g + qa * qa * s2 + 2 * qa * qb * s1 + qb * qb * (n + 1),
            )
        else:  # count the lattice points under the line by rows instead of columns
            m = qa
            f, g, h = n * m - f, (m * n * (n + 1) - h - f) // 2, n * m * (m + 1) - 2 * g - f - (n * m)
    return f, g, h


def _irr(n: int) -> int:
    """irr_t of the graph on n vertices from sum_d L_d (n - L_d), in O(log n) steps."""
    k, j0, j1 = _shape(n)
    lo, hi = n - j1, n - j0
    head = _poly_sum(lambda d: d * (n - d), 1, lo - 1)  # L_d = d
    top = _poly_sum(lambda d: (d + n - k) * (k - d), hi, k - 1)  # L_d = d + n - k
    # The band, by m = n - d: L = c - F with c = 2n + 1 - m and F = floor(m phi),
    # so L (n - L) = c (n - c) + F (3n + 2 - 2m) - F^2.
    q, p = 1, 1
    while q <= j1:  # floor(m phi) = floor(m p / q) for m < q = F_t, p = F_{t+1}
        q, p = p, p + q
    f1, g1, h1 = _floor_sums(p, 0, q, j1)
    f0, g0, h0 = _floor_sums(p, 0, q, j0)
    band = _poly_sum(lambda m: (2 * n + 1 - m) * (m - n - 1), j0 + 1, j1)
    band += (3 * n + 2) * (f1 - f0) - 2 * (g1 - g0) - (h1 - h0)
    return head + top + band


def underlying_metrics(n_max: int, kind: str) -> Iterator[int]:
    """Metric ``kind`` ("irr" or "firr") of the graphs on 1, 2, ..., n_max vertices, in order.

    Each value follows from the one before in O(1) big-integer operations
    (see the module docstring), where :func:`underlying_metric` would take
    O(log n) steps or a kernel call per graph.  An unknown kind is refused
    when the first value is asked for; an n_max below 1 yields nothing.
    """
    if kind not in ("irr", "firr"):
        raise ValueError(f"unknown metric kind {kind!r} for the prefix walk; it takes irr or firr")
    firr = kind == "firr"
    # (s_x, w_x) at x = l and at x = k + 1, both x = 1 on J*_1; W(k) and W(l - 1).
    sl, wl = sk, wk = (0, 1) if firr else (1, 1)
    head_w = low_w = 0
    # Totals over the tail D, first the one vertex of J*_1: sum s, w, d s, d w, P_s, P_w.
    ss, sw, sds, sdw, ps, pw = 1, 0, 0, 0, 0, 0
    k = value = 0
    for n in range(1, n_max + 1):
        yield value
        lo = n - k  # l, the new vertex's degree, and |D|
        # The head term less W(l) = W(l-1) + w_l and |D| w_l is (l - 2 - k) w_l.
        value += 2 * sds - k * ss + ps + head_w - 2 * low_w + sw + ss + (lo - 2 - k) * wl
        if firr:  # shift D by one
            ss, sw, sds, sdw, ps, pw = sw, sw + ss, sdw + sw, sdw + sds + sw + ss, pw, pw + ps
        else:
            sw, sds, sdw, pw = sw + ss, sds + ss, sdw + sds + sw + ss, pw + ps
        ps, pw = ps + ss - lo * sl, pw + sw - lo * wl  # add lo, the new minimum
        ss, sw, sds, sdw = ss + sl, sw + wl, sds + lo * sl, sdw + lo * wl
        a = n + 3
        if (isqrt(5 * a * a) - a) // 2 > k + 1:  # G(n + 2) - 1 = k + 1: remove k + 1, the maximum
            ps, pw = ps - (lo + 1) * sk + ss, pw - (lo + 1) * wk + sw
            ss, sw, sds, sdw = ss - sk, sw - wk, sds - (k + 1) * sk, sdw - (k + 1) * wk
            head_w, k = head_w + wk, k + 1
            sk, wk = wk if firr else sk, sk + wk
        if n + 1 - k > lo:
            low_w += wl
            sl, wl = wl if firr else sl, sl + wl


def underlying_later_neighbors(n: int) -> Iterator[tuple[int, range]]:
    """(i, the neighbors j > i of vertex i) for i = 1..n-1, read off the shape with no adjacency.

    Vertex i's later neighbors are i+1..min(r_i, n) with r_i = i + G(i):
    i + G(i) on the head 1..k and n on the tail.  Raises ValueError, before
    any O(n) work, when the edge count, which grows quadratically in n, would
    exceed ``DEFAULT_EDGE_GUARD``; degree based computations should use
    :func:`underlying_degrees`, which stays O(n), instead.
    """
    from .graphs import DEFAULT_EDGE_GUARD

    edges = _edge_count(n)  # exact, in O(log n)
    if edges > DEFAULT_EDGE_GUARD:
        raise ValueError(
            f"underlying graph on {n} vertices has {edges} edges, above the "
            f"guard of {DEFAULT_EDGE_GUARD}; use underlying_degrees for metric work"
        )
    k = _shape(n)[0]
    head = ((a - 1, range(a, a + (isqrt(5 * a * a) - a) // 2)) for a in range(2, k + 2))  # a = i + 1
    return chain(head, ((i, range(i + 1, n + 1)) for i in range(k + 1, n)))


def underlying_graph(n: int) -> SimpleGraph:
    """Materialize the underlying undirected graph: edges {i, j} for i < j <= min(r_i, n).

    Refused above the edge guard as :func:`underlying_later_neighbors` is.
    """
    from .graphs import SimpleGraph

    later_neighbors = underlying_later_neighbors(n)  # refuses before any O(n) work
    adj: list[list[int]] = [[] for _ in range(n + 1)]
    for i, out in later_neighbors:
        adj[i].extend(out)  # earlier in-neighbors are already in place, all < i
        for j in out:
            adj[j].append(i)
    return SimpleGraph._from_sorted_adjacency(adj)


def prime_jaconian_index(n: int) -> int:
    """Smallest vertex id attaining the maximum degree of the underlying graph.

    Defined for n >= 2; the single-vertex graph has no meaningful Jaconian
    vertex.  Equals G(n+1) - 1 = n - d-(v_{n+1}): exactly vertices k+1..n
    gain an edge when vertex n+1 arrives.
    """
    if n < 2:
        raise ValueError(f"prime Jaconian index needs n >= 2, got {n}")
    return _shape(n)[0]
