"""Formula evaluators and verification sweeps for the Jaco-graph identities.

Each check pits a recursive or closed formula against a recomputation, its
oracle, and returns an exact-integer record; sweeps aggregate records into a
machine-readable report.  All comparisons are exact (integer equality or
<=), never approximate.

The oracles:

* ``thm21``/``thm31``: the rank sum :func:`_rank_sum` over the histogram
  of the per-vertex degrees of J*_{n+1}, ``degree_histogram`` of
  ``underlying_degrees``, which come from ``isqrt`` and not from the
  Fibonacci word.
* ``lemma31``/``thm33``: the same rank sum over the histogram of the
  edge-joint J*_n ~>_{v u} J*_m, the union plus the edge vu: the union's
  ``isqrt`` degrees (``underlying_degrees`` of n, then of m) are counted,
  and the counts of d(v) and d(u) move one degree up; for lemma31 the union
  and the graph joined at the first vertices, for thm33 the graph joined at
  v_i.  No graph is built.
* ``thm32``/``cor31``: the histogram kernel on the sum of the two
  graphs' histograms, each counted from the ``isqrt`` degrees
  (``degree_histogram`` of ``underlying_degrees``), not read off the
  Fibonacci word, and kept as one int, a byte per degree, so that the sum
  is one integer addition.  The formula side reads the word, through
  ``jaco._tail`` into its own cache, so a fault in the word moves only the
  right side: for cor31 at n = m, 4 firr(J*_n) against the kernel on twice
  the true histogram.

The rank sum weighs degree d by d (irr) or f_d (firr) and steps from one
weight to the next by additions, one pass from the top degree down, so no
rank-sum oracle sorts, looks up a weight or calls
:func:`~jacograph.fibonacci.fib` or ``fib_pair``.

What the two sides share.  A fault in code that both sides of a check run
could move both alike and pass, so the oracle side must not reach what the
formula side reaches.  A test traces both sides of every check, each with
empty caches, on a small sweep and past each size switch, and allows only
these:

* ``_shape`` and ``out_degree``, which give a Jaco graph's head and a
  vertex's out-degree; each side reads the degrees its own way after them;
* ``_check_thm33_args``, which checks the arguments and computes no value,
  and the record helper ``_equality``;
* for ``thm32``/``cor31`` once the union's histogram is longer than one
  leaf (from n = 1657 on), the kernel's split: ``shifted_fibonacci_sum``,
  ``_fibonacci_split``, ``_straddles`` and ``fib_pair``, which
  ``underlying_metric`` runs on the formula side.  The union oracle is the
  kernel because a grouped rank sum lost to it on the union sweeps, and
  past one leaf the kernel splits;
* ``lemma31`` as a whole, which compares one oracle at two inputs: it
  tests an invariance, not a formula.

Check ids
---------
``thm21``    growth recursion for irr_t:  value of J*_{n+1} from J*_n
``thm31``    growth recursion for firr_t: value of J*_{n+1} from J*_n
``thm32``    disjoint union of J*_n and J*_m: equality 4x for n = m, an
             upper bound with a correction sum for n > m
``cor31``    same union statement for firr_t
``lemma31``  joining two Jaco graphs by an edge between their first vertices
             leaves firr_t at the union value (both endpoint weights stay 1)
``thm33``    printed delta formula for joining at an arbitrary vertex v_i,
             i >= 2; evaluated literally and compared per instance against
             the exact recomputation, which is the ground truth

For ``thm32``/``cor31`` with n > m the cut parameter of the correction sum
has two documented readings, the maximum degree of J*_m and its prime
Jaconian index.  Both are k = G(m+1) - 1 (proved in the ``jaco`` docstring),
so the cut is evaluated once; the record still carries both readings, with
the index fields ``None`` for m = 1, where J*_1 has no index.

The correction sum runs over every pair of a vertex beyond the cut in J*_n
and one beyond the cut in J*_m, n > m: a cross pair sum, which
:func:`_union_bound` takes from a few per-graph totals and a walk over a
window of degrees, never over the whole histograms.
:func:`~jacograph.irregularity.cross_pair_sum` of the two tail histograms
is the reference the tests hold it to.

The two sets.  The cut is k_m, the largest degree of J*_m, and k_m <= k_n,
since k = G(x+1) - 1 never falls as x grows.  So for x = n and x = m the
vertices 1..k_m lie in the head of J*_x, where vertex i has degree i.
Removing them from J*_n leaves A: the tail k_n+1..n and the head vertices
of degrees k_m+1..k_n, |A| = n - k_m.  Removing them from J*_m leaves B,
its tail, |B| = m - k_m.  Both tails are read off the band (see
:mod:`jacograph.jaco`): the tail of J*_x has T_x(d) vertices of degree d,
the band's count less the head's one, on lo_x <= d <= k_x, where
lo_x = x - G(x) is the degree of vertex x.  For m = 1 the cut is 0 and B
is the one vertex of J*_1, of degree 0 and weight 0.

The identity.  With weights w_d = d (irr) or f_d (firr), which never fall
as d grows, |x - y| = (x - y) + 2 max(0, y - x), and max(0, w_b - w_a) is
the sum of the steps w_{d+1} - w_d over a <= d < b.  So, with S_A and S_B
the weight sums of A and B and L^A_d = #{a in A : a <= d},

    cross(A, B) = |B| S_A - |A| S_B
                  + 2 sum_d (w_{d+1} - w_d) L^A_d (|B| - L^B_d),

the last sum counting each pair a in A, b in B by the steps it straddles.
With E_x the weight sum of the tail of J*_x and W(k) = w_1 + ... + w_k,
k(k+1)/2 or f_{k+2} - 1, S_B = E_m and S_A = E_n + W(k_n) - W(k_m).

The window.  A term is not 0 only where L^A_d > 0 and L^B_d < |B|.  B's
degrees are at most k_m, so L^B_d = |B| for d >= k_m.  Below lo_n, A has
only its head degrees k_m+1.., so L^A_d > 0 there needs d > k_m, where
again L^B_d = |B|.  The sum therefore runs over lo_n <= d < k_m only.  There
A's head lies above d, so L^A_d = T_n(lo_n) + ... + T_n(d); and
|B| - L^B_d = T_m(d+1) + ... + T_m(k_m), where lo_m <= lo_n because
x - G(x) never falls.  The window is empty whenever k_m <= lo_n, and as
k_m is about m / phi and lo_n about n / phi^2, that is when m is below
about n / phi = 0.618 n: the sum is
then O(1) integer operations per instance, and otherwise O(k_m - lo_n)
steps of ``accumulate`` and ``map`` over slices of the two tails.  irr
sums the terms; firr weights them by w_{d+1} - w_d = f_{d-1} through the
binary splitting of :func:`~jacograph.irregularity.shifted_fibonacci_sum`,
shifted to lo_n by the pair (f_{lo_n-2}, f_{lo_n-1}), so no per-degree
Fibonacci number is looked up.

The left side is the kernel on the union's histogram, built afresh for
every instance as one big-integer sum: each graph's histogram is one
little-endian int with a byte per degree, and as no count exceeds 3, the
sum of two adds them degree by degree with no carry, its bytes the union's
counts.  A histogram with a count above 127, which could carry, is refused
when it is made.  So each instance costs the kernel's one pass over the
union's degrees and no per-degree loop before it.

What is kept across instances, and by which side.  Only the union
statements keep records per Jaco graph, in process-wide functools caches;
each side fills its own from its own degree source.
``_oracle_counts`` holds the left side's histogram as one int, a byte per
degree, about 0.66 x bytes for J*_x (``sys.getsizeof``, CPython 3.11),
counted once per graph from its O(x) ``isqrt`` degrees.  The formula side
keeps one record per graph and one per graph and kind, each made on first
use: ``_formula_tail`` holds k_x, lo_x and the tail's counts, one byte per
degree, about 0.24 x bytes; ``_formula_totals`` holds M_x, E_x and W(k_x),
and for firr also f_{lo_x - 2} and f_{lo_x - 1}, about 0.23 x bytes more for
firr (tracemalloc, CPython 3.11, over J*_2..J*_2000: on average 446 bytes
per graph for the tail, 272 for the irr totals and 618 for the firr ones,
1336 in all).  A sweep reads each graph's word once per side, and its
metric once per kind, not twice per instance.  thm33's formula side keeps
the terms that do not depend on i, for one (n, m) at a time
(``_thm33_union_terms``).  The oracle side keeps the union's degrees and
their histogram for one (n, m) at a time (``_union_degrees``), O(n + m)
ints: records come in ascending (n, m, i) order, so the ``isqrt`` degrees
are counted once per (n, m) and not once per instance.  lemma31 and thm33
copy the histogram and move the two joined vertices' counts for every
instance (:func:`_joint_firr`).  Neither side reads the other's data, and
the growth and joint oracles keep no weight: a pass holds the histogram
and two running sums, so ``verify thm31 --n 100000`` runs in about 20 MB.

The growth recursions thm21 and thm31 are one recursion in weight space,
:func:`_growth_rhs`, with weight d for irr_t and f_d for firr_t, and one
check, :func:`_growth_check`.  Its formula side is the metric of J*_n from
``underlying_metric`` plus the step from J*_n to J*_{n+1}, summed over
J*_n's tail as ``_tail(n)`` reads it off the Fibonacci word, proved in the
``jaco`` docstring ("Each graph from the one before"): each record checks
the recursion as the paper states it, J*_{n+1} from J*_n alone.  Both are
computed afresh for every check, ``_tail(n)`` uncached, and nothing is
kept, so a record depends on its n alone and not on the checks before it.
The formula side reads no per-vertex degree, while the oracle reads the
``isqrt`` degrees, so the two sides share no degree source.

A sweep is one stream of records, :func:`iter_checks`.  It walks one
generator of parameter tuples per check id, which also answers whether a
check has any instance at all: every loop in it starts at its first value
with an instance, so the first tuple, or the end, comes in O(1) steps however
wide the ranges are.  A :class:`VerifyReport` counts the records as they
come, per check id, and keeps the first few mismatches for the summary, so
a consumer that keeps no records, as the CLI, runs in memory of one record
and those mismatches.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from functools import cache, lru_cache
from itertools import accumulate, count
from operator import mul, sub
from typing import Any, NamedTuple

from . import THEOREM_IDS
from .fibonacci import fib, fib_pair
from .irregularity import (
    add_histograms,
    degree_histogram,
    pair_sum_histogram,
    shifted_fibonacci_sum,
)
from .jaco import (
    _tail,
    out_degree,
    underlying_degree_counts,
    underlying_degrees,
    underlying_metric,
)

__all__ = [
    "THEOREM_IDS",
    "CheckRecord",
    "VerifyReport",
    "thm21_rhs",
    "thm31_rhs",
    "thm21_check",
    "thm31_check",
    "thm32_check",
    "cor31_check",
    "lemma31_check",
    "thm33_exact",
    "thm33_literal",
    "thm33_check",
    "iter_checks",
    "verify_sweep",
]

RELATION_EQUALITY = "equality"
RELATION_UPPER_BOUND = "upper-bound"

# Mismatches listed one by one in the text summary; the rest are counted.
_MISMATCH_CAP = 20


class CheckRecord(NamedTuple):
    """One verified instance: parameters, oracle value, formula value, verdict."""

    theorem: str
    params: dict[str, int]
    relation: str
    lhs: int
    rhs: int
    matched: bool
    detail: dict[str, Any] | None = None

    def as_dict(self) -> dict[str, Any]:
        """The fields as a new dict in field order, without ``detail`` when it is None.

        ``params`` and ``detail`` are the record's own dicts, not copies.
        """
        out = self._asdict()
        if self.detail is None:
            del out["detail"]
        return out


class VerifyReport:
    """Summary counts of check records, updated by :meth:`add` as they come.

    ``counts`` maps each check id to [checks, mismatches], and
    ``mismatches`` holds the first ``_MISMATCH_CAP`` mismatching records,
    the ones the text summary lists.  ``records`` holds the records that
    :meth:`to_json_dict` lists: :func:`verify_sweep` appends every record
    there, while ``add`` keeps none, so a report fed by ``add`` alone, as the
    CLI's is, holds no more than the listed mismatches.
    """

    def __init__(self, records: list[CheckRecord] | None = None) -> None:
        self.records: list[CheckRecord] = [] if records is None else records
        self.counts: dict[str, list[int]] = {}
        self.mismatches: list[CheckRecord] = []

    def add(self, record: CheckRecord) -> None:
        tally = self.counts.setdefault(record.theorem, [0, 0])
        tally[0] += 1
        if not record.matched:
            tally[1] += 1
            if len(self.mismatches) < _MISMATCH_CAP:
                self.mismatches.append(record)

    @property
    def total(self) -> int:
        return sum(checks for checks, _ in self.counts.values())

    @property
    def mismatch_count(self) -> int:
        return sum(bad for _, bad in self.counts.values())

    @property
    def all_matched(self) -> bool:
        return self.mismatch_count == 0

    def summary_dict(self) -> dict[str, Any]:
        """The counts of the JSON report: totals and mismatches, overall and per check id."""
        return {
            "total": self.total,
            "mismatched": self.mismatch_count,
            "by_theorem": {
                tid: {"total": tot, "mismatched": bad} for tid, (tot, bad) in sorted(self.counts.items())
            },
        }

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "checks": [rec.as_dict() for rec in self.records],
            "summary": self.summary_dict(),
            "all_matched": self.all_matched,
        }

    def summary_text(self) -> str:
        lines = [f"{tid}: {total} checks, {bad} mismatches" for tid, (total, bad) in sorted(self.counts.items())]
        for rec in self.mismatches:
            params = " ".join(f"{k}={v}" for k, v in rec.params.items())
            lines.append(f"  mismatch {rec.theorem} {params}: lhs={rec.lhs} rhs={rec.rhs} ({rec.relation})")
        if self.mismatch_count > len(self.mismatches):
            lines.append(f"  ... {self.mismatch_count - len(self.mismatches)} more mismatches")
        verdict = "PASS" if self.all_matched else "FAIL"
        lines.append(f"overall: {verdict} ({self.total} checks, {self.mismatch_count} mismatches)")
        return "\n".join(lines) + "\n"


# The oracle side's histograms of J*_x, kept for the process.
# ``underlying_degrees`` and ``degree_histogram`` are looked up on this module
# when called.
@cache
def _oracle_counts(n: int) -> int:
    """The histogram of J*_n's ``isqrt`` degrees as one int, little-endian, one byte per degree.

    Every count of a Jaco graph is at most 3, so the sum of two such ints is
    the union's histogram, degree by degree with no carry.  A count above
    127, which could carry in such a sum, raises ValueError.
    """
    counts = degree_histogram(underlying_degrees(n))
    if max(counts) > 127:
        raise ValueError(f"J*_{n} has {max(counts)} vertices of one degree; a union histogram byte holds 127 + 127")
    return int.from_bytes(bytes(counts), "little")


# The formula side's J*_x, kept for the process in two caches; neither side
# reads the other's.  ``_tail`` and ``underlying_metric`` are looked up on
# this module when called, as in :func:`_oracle_counts`.
@cache
def _formula_tail(x: int) -> tuple[int, int, bytes]:
    """(k, lo, tail) of J*_x, as ``jaco._tail`` reads them.

    ``k`` is the largest degree and ``lo`` the least degree of the tail
    k+1..x; ``tail`` holds the tail's count on each degree k, k - 1, ..., lo,
    one byte each.  J*_1's tail is its one vertex, of degree 0 and weight 0.
    """
    return _tail(x)


@cache
def _formula_totals(x: int, kind: str) -> tuple[int, ...]:
    """(M, E, W(k)) of J*_x for metric ``kind``, and for firr also f_{lo-2} and f_{lo-1}.

    M is the metric of J*_x, E the tail's weight sum and W(k) the head's,
    sum w_d over d = 1..k; f_{lo-2} and f_{lo-1} shift a sum from degree lo
    on by -1.
    """
    k, lo, tail = _formula_tail(x)
    if kind == "irr":
        return underlying_metric(x, kind), sum(map(mul, tail, range(k, lo - 1, -1))), k * (k + 1) // 2
    f, g = fib_pair(lo)  # f_lo, f_{lo+1}; f_{lo-1} = g - f shifts the tail's sum to lo
    e = shifted_fibonacci_sum(tail, len(tail), (g - f, f))
    return underlying_metric(x, kind), e, fib_pair(k + 1)[1] - 1, 2 * f - g, g - f


def _union_bound(n: int, m: int, kind: str) -> int:
    """The union bound's right side for n >= m: 2 (M_n + M_m) plus the correction sum.

    The correction sum is the cross pair sum of J*_n and J*_m beyond the
    cut k_m: |B| S_A - |A| S_B plus twice the straddle sum over the window
    [lo_n, k_m), by the identity in the module docstring; O(1) integer
    operations outside the window.  Each graph's totals are looked up once.
    """
    k, lo, tail_n = _formula_tail(n)
    cut, _, tail_m = _formula_tail(m)
    totals_n, totals_m = _formula_totals(n, kind), _formula_totals(m, kind)  # (M, E, W(k), ...)
    cross = (m - cut) * (totals_n[1] + totals_n[2] - totals_m[2]) - (n - cut) * totals_m[1]
    if cut > lo:
        # Top down from d = cut - 1: L^A_d, from A's counts on degrees
        # cut - 1..lo, and |B| - L^B_d, from B's counts on degrees cut..lo + 1.
        window = tail_n[k - cut + 1 :]
        straddles = map(mul, accumulate(window, sub, initial=sum(window)), accumulate(tail_m[: cut - lo]))
        cross += 2 * (sum(straddles) if kind == "irr" else shifted_fibonacci_sum(straddles, cut - lo, totals_n[3:]))
    return 2 * (totals_n[0] + totals_m[0]) + cross


def _rank_sum(counts: Sequence[int], kind: str) -> int:
    """The pair sum of a degree histogram's weights, d (irr) or f_d (firr), by grouped ranks.

    The c_d vertices of degree d hold the ranks b_d..b_d + c_d - 1, with b_d
    the vertices below degree d, so their share of the rank sum of
    :func:`~jacograph.irregularity.pair_sum_by_rank` is r_d w_d with
    r_d = c_d (2 b_d + c_d - N).  Neither weight falls as d grows, and two
    degrees of one weight (f_1 = f_2) add the r w of their merged group, so
    ties need no care.  One pass from the top degree down sums r_d w_d by
    Horner's rule: for f_d, after the step for d, p = sum r_e f_{e-d-1} and
    q = sum r_e f_{e-d} over e >= d; for d, p = sum r_e and
    q = sum r_e (e - d + 1), so q ends at sum r_e e, as the r_e add to 0.
    No weight is looked up and nothing is sorted.
    """
    n = below = sum(counts)
    p = q = 0
    for c in reversed(counts):
        below -= c
        r = c * (2 * below + c - n)
        p, q = (p + r, q + p + r) if kind == "irr" else (q + r, p + q)
    return q


@lru_cache(maxsize=1)
def _union_degrees(n: int, m: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The oracle side's degrees of J*_n + J*_m, the ``isqrt`` degrees of J*_n then of J*_m, and their histogram.

    The histogram has a 0 above the top degree, where a joint can raise it.
    One entry holds the current (n, m) of a sweep in ascending (n, m, i)
    order, the same policy as :func:`_thm33_union_terms`.
    """
    degrees = underlying_degrees(n) + underlying_degrees(m)
    return degrees, (*degree_histogram(degrees), 0)


def _joint_firr(n: int, m: int, v: int) -> int:
    """The oracle side's firr_t of J*_n + J*_m plus the edge from v_v to J*_m's first vertex, none for v = 0.

    The edge-joint is the union with those two degrees one higher: two
    counts of the union's histogram move one degree up.
    """
    degrees, counts = _union_degrees(n, m)
    counts = list(counts)
    for d in (degrees[v - 1], degrees[n]) if v else ():
        counts[d] -= 1
        counts[d + 1] += 1
    return _rank_sum(counts, "firr")


def _growth_rhs(n: int, kind: str) -> int:
    """Predicted metric ``kind`` ("irr" or "firr") of J*_{n+1} from the value of J*_n.

    The value of J*_n from ``underlying_metric`` plus the step from J*_n to
    J*_{n+1}: a sum over J*_n's tail, the counts c_k..c_lo of ``_tail``,
    and a head term in k and l = n - k, the new vertex's degree (the proof
    is in the ``jaco`` docstring, "Each graph from the one before").
    """
    if n < 2:
        raise ValueError(f"the growth recursion needs n >= 2, got {n}")
    k, lo, tail = _tail(n)
    l = n - k
    if kind == "irr":  # 3d - k + 1 per tail vertex of degree d = k..lo; W(k) - 2 W(l-1) + (l-2-k) l
        return underlying_metric(n, kind) + sum(map(mul, tail, range(2 * k + 1, -k, -3))) + (k + 1) * (k - 2 * l) // 2
    # The coefficient of f_{e-1} for e = k..lo-1: c_e (2e - k + 2 + l - 2 A_e - c_e) + c_{e+1},
    # with A_e the tail's vertices above degree e and c_{k+1} = c_{lo-1} = 0.
    above = accumulate(tail, initial=0)
    terms = (c * (r - 2 * a - c) + up for c, r, a, up in zip(tail + b"\0", count(n + 2, -2), above, b"\0" + tail))
    f, g = fib_pair(lo)  # f_lo, f_{lo+1}: the shift (f_{lo-3}, f_{lo-2}) of f_{e-1} from e = lo - 1
    step = shifted_fibonacci_sum(terms, len(tail) + 1, (2 * g - 3 * f, 2 * f - g))
    f, g = fib_pair(l)  # W(k) - 2 W(l-1) + (l-2-k) f_l with W(x) = f_{x+2} - 1
    return underlying_metric(n, kind) + step + fib_pair(k + 2)[0] - 2 * g + 1 + (l - 2 - k) * f


def thm21_rhs(n: int) -> int:
    """Predicted irr_t of J*_{n+1} from the state of J*_n (see :func:`_growth_rhs`)."""
    return _growth_rhs(n, "irr")


def thm31_rhs(n: int) -> int:
    """Predicted firr_t of J*_{n+1} from the state of J*_n (see :func:`_growth_rhs`)."""
    return _growth_rhs(n, "firr")


def _equality(theorem: str, params: dict[str, int], lhs: int, rhs: int) -> CheckRecord:
    return CheckRecord(theorem, params, RELATION_EQUALITY, lhs, rhs, lhs == rhs)


def _growth_check(theorem: str, n: int, kind: str) -> CheckRecord:
    """The rank-sum oracle on the histogram of J*_{n+1} against the growth recursion for ``kind``."""
    lhs = _rank_sum(degree_histogram(underlying_degrees(n + 1)), kind)
    return _equality(theorem, {"n": n}, lhs, _growth_rhs(n, kind))


def thm21_check(n: int) -> CheckRecord:
    """Growth recursion for irr_t: the oracle on J*_{n+1} against :func:`thm21_rhs`."""
    return _growth_check("thm21", n, "irr")


def thm31_check(n: int) -> CheckRecord:
    """Growth recursion for firr_t: the oracle on J*_{n+1} against :func:`thm31_rhs`."""
    return _growth_check("thm31", n, "firr")


def _union_check(theorem: str, n: int, m: int, kind: str) -> CheckRecord:
    """The union statement for metric ``kind``."""
    if m < 1:
        raise ValueError(f"{theorem} needs m >= 1, got {m}")
    if n < m:
        raise ValueError(f"{theorem} needs n >= m; swap arguments ({n}, {m})")
    # The oracle: the union's own histogram, the sum of the two as bytes;
    # its top degree's count is at least 1, so its byte length is the length.
    union = _oracle_counts(n) + _oracle_counts(m)
    lhs = pair_sum_histogram(union.to_bytes((union.bit_length() + 7) // 8, "little"), kind)
    params = {"n": n, "m": m}
    if n == m:
        return _equality(theorem, params, lhs, 4 * _formula_totals(n, kind)[0])
    rhs = _union_bound(n, m, kind)
    holds = lhs <= rhs
    detail = {
        "rhs_degree_reading": rhs,
        "holds_degree_reading": holds,
        "rhs_index_reading": rhs if m >= 2 else None,
        "holds_index_reading": holds if m >= 2 else None,
    }
    return CheckRecord(theorem, params, RELATION_UPPER_BOUND, lhs, rhs, holds, detail)


def thm32_check(n: int, m: int) -> CheckRecord:
    """Union statement for irr_t: lhs computed on the union degree histogram.

    n = m asserts lhs = 4 * irr_t(J*_n); n > m asserts the upper bound with
    the correction sum over vertices beyond the cut in both copies.
    """
    return _union_check("thm32", n, m, "irr")


def cor31_check(n: int, m: int) -> CheckRecord:
    """Union statement for firr_t, same shape as :func:`thm32_check`."""
    return _union_check("cor31", n, m, "firr")


def lemma31_check(n: int, m: int) -> CheckRecord:
    """firr_t is unchanged by joining the two first vertices, n, m >= 2.

    Both first vertices have degree 1, and f_1 = f_2, so raising both to
    degree 2 moves no weight.  Both sides are recomputed by the rank-sum
    oracle, from the union's degrees and from those of the joined graph.
    """
    if n < 2 or m < 2:
        raise ValueError(f"lemma31 needs n, m >= 2, got ({n}, {m})")
    return _equality("lemma31", {"n": n, "m": m}, _joint_firr(n, m, 0), _joint_firr(n, m, 1))


def _check_thm33_args(n: int, m: int, i: int) -> None:
    if n < 3 or m < 1 or not 2 <= i <= n:  # i = 1 is lemma31's first-vertex joint
        raise ValueError(f"thm33 needs n >= 3, m >= 1 and 2 <= i <= n, got ({n}, {m}, {i})")


def thm33_exact(n: int, m: int, i: int) -> int:
    """Ground truth: firr_t of the graph joined at v_i and the first vertex
    of the second copy, recomputed by the rank-sum oracle over the degrees of
    the joined graph: the union's, with those of v_i and v_{n+1} one higher."""
    _check_thm33_args(n, m, i)
    return _joint_firr(n, m, i)


def thm33_literal(n: int, m: int, i: int) -> int:
    """The printed delta formula, evaluated literally under the documented
    reading: the pivot weight is taken at the pre-join degree of v_i, the
    +/- partitions run over the first copy without v_i and over the whole
    second copy, and each side contributes |pivot - weight| with sign + for
    weights at most the pivot and - for strictly larger weights.

    Each side weight w adds +|pivot - w| when w <= pivot and -|w - pivot|
    when w > pivot; both arms are pivot - w.  v_i's own term would be 0, so
    the sum runs over the whole union: pivot (n + m) less the union's weight
    sum, and only the pivot depends on i (see :func:`_thm33_union_terms`).
    """
    _check_thm33_args(n, m, i)
    pivot = fib(min(i, n - out_degree(i)))  # the degree of v_i in J*_n
    return _thm33_union_terms(n, m) + pivot * (n + m)


@lru_cache(maxsize=1)
def _thm33_union_terms(n: int, m: int) -> int:
    """The terms of :func:`thm33_literal` that do not depend on i.

    The pair sums within and across the two copies add up to the pair sum
    of their union, one kernel call on its histogram; less the union's
    weight sum, the sides' share of the sum.  One entry holds the current
    (n, m) of a sweep in ascending (n, m, i) order.
    """
    union = add_histograms(underlying_degree_counts(n), underlying_degree_counts(m))
    return pair_sum_histogram(union, "firr") - shifted_fibonacci_sum(reversed(union), len(union), (1, 0))


def thm33_check(n: int, m: int, i: int) -> CheckRecord:
    """Record whether the literal formula agrees with the exact recomputation."""
    lhs = thm33_exact(n, m, i)
    return _equality("thm33", {"n": n, "m": m, "i": i}, lhs, thm33_literal(n, m, i))


def _check_range(rng: tuple[int, int], name: str) -> tuple[int, int]:
    lo, hi = rng
    if lo > hi or lo < 1:
        raise ValueError(f"{name} range must satisfy 1 <= lo <= hi, got {lo}..{hi}")
    return lo, hi


def _instances(
    tid: str,
    n_range: tuple[int, int],
    m_range: tuple[int, int],
    i_range: tuple[int, int] | None,
) -> Iterator[tuple[int, ...]]:
    """Parameter tuples of check ``tid`` in the ranges, in ascending (n, m, i) order.

    Each loop starts at its first value with an instance, and a range that
    leaves none stops the generator at once, so asking for the first tuple
    costs O(1) steps.
    """
    (n_lo, n_hi), (m_lo, m_hi) = n_range, m_range
    if tid in ("thm21", "thm31"):
        for n in range(max(2, n_lo), n_hi + 1):
            yield (n,)
    elif tid in ("thm32", "cor31"):
        for n in range(max(n_lo, m_lo), n_hi + 1):
            for m in range(m_lo, min(m_hi, n) + 1):
                yield n, m
    elif tid == "lemma31":
        ms = range(max(2, m_lo), m_hi + 1)
        for n in range(max(2, n_lo), n_hi + 1) if ms else ():
            for m in ms:
                yield n, m
    else:
        i_lo, i_hi = (2, n_hi) if i_range is None else (max(2, i_range[0]), i_range[1])
        for n in range(max(3, n_lo, i_lo), n_hi + 1) if i_lo <= i_hi else ():
            for m in range(m_lo, m_hi + 1):
                for i in range(i_lo, min(n, i_hi) + 1):
                    yield n, m, i


def iter_checks(
    theorems: list[str] | tuple[str, ...],
    n_range: tuple[int, int],
    m_range: tuple[int, int] | None = None,
    i_range: tuple[int, int] | None = None,
) -> Iterator[CheckRecord]:
    """The records of every requested check over the given inclusive ranges, made as they are asked for.

    Instances outside a check's domain are skipped (for example thm21 skips
    n < 2 and thm32 skips n < m); for thm33 the join vertex runs over
    ``i_range`` clipped to [2, n], the whole interval when not given.
    Records come sorted by (theorem, n, m, i).  The arguments are checked
    when this is called, before any check runs: it raises ValueError naming
    every requested check that the ranges leave without instances.
    """
    ids = []
    for tid in theorems:
        if tid not in THEOREM_IDS:
            raise ValueError(f"unknown check id {tid!r}; valid: {', '.join(THEOREM_IDS)}")
        if tid not in ids:
            ids.append(tid)
    if not ids:
        raise ValueError("no check ids given")
    n_range = _check_range(n_range, "n")
    m_range = _check_range(m_range if m_range is not None else n_range, "m")
    if i_range is not None:
        _check_range(i_range, "i")
    # A check that runs on nothing verifies nothing; it is not a pass.
    empty = [t for t in ids if next(_instances(t, n_range, m_range, i_range), None) is None]
    if empty:
        raise ValueError(f"no instances of {', '.join(empty)} in the given ranges")

    # Ids in sorted order, each with its tuples in ascending (n, m, i) order:
    # the records come out sorted by (theorem, n, m, i) with no sort after.
    # Each id's check is looked up on the module by name, once, here, so a
    # check replaced there before the sweep is the one that runs.
    named = globals()
    checks = [(tid, named[f"{tid}_check"]) for tid in sorted(ids)]
    return (check(*p) for tid, check in checks for p in _instances(tid, n_range, m_range, i_range))


def verify_sweep(
    theorems: list[str] | tuple[str, ...],
    n_range: tuple[int, int],
    m_range: tuple[int, int] | None = None,
    i_range: tuple[int, int] | None = None,
) -> VerifyReport:
    """A report that keeps every record of :func:`iter_checks` with these arguments."""
    report = VerifyReport()
    for record in iter_checks(theorems, n_range, m_range, i_range):
        report.records.append(record)
        report.add(record)
    return report
