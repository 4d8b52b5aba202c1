"""Formula evaluators and verification sweeps for the Jaco-graph identities.

Each check pits a recursive or closed formula against an independent
recomputation on the constructed graphs and returns an exact-integer record;
sweeps aggregate records into a machine-readable report.  All comparisons
are exact (integer equality or <=), never approximate.

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
and one beyond the cut in J*_m.  For any weights, the pair sum over a union
A + B is pair_sum(A) + pair_sum(B) + the sum of |w_a - w_b| over a in A,
b in B, so the correction is the cross pair sum of the two tail histograms:
three calls to the histogram kernel, O(D) per instance with no per-pair
weight lookup.  The left side is the kernel on the union's histogram, built
afresh for every instance; only the formula side keeps per-graph data
(degrees and metric) for the length of one sweep.

A sweep walks one generator of parameter tuples per check id, which also
answers whether a check has any instance at all: every loop in it starts at
its first value with an instance, so the first tuple, or the end, comes in
O(1) steps however wide the ranges are.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import partial
from typing import Any

from .fibonacci import fib
from .graphs import degree_sequence, disjoint_union, edge_joint
from .irregularity import (
    add_histograms,
    cross_pair_sum,
    degree_histogram,
    firr_t,
    irr_t,
    pair_sum_histogram,
    pair_sum_naive,
)
from .jaco import (
    prime_jaconian_index,
    underlying_degree_counts,
    underlying_degrees,
    underlying_graph,
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
    "verify_sweep",
]

THEOREM_IDS = ("thm21", "thm31", "thm32", "cor31", "lemma31", "thm33")

RELATION_EQUALITY = "equality"
RELATION_UPPER_BOUND = "upper-bound"


@dataclass(frozen=True)
class CheckRecord:
    """One verified instance: parameters, oracle value, formula value, verdict."""

    theorem: str
    params: dict[str, int]
    relation: str
    lhs: int
    rhs: int
    matched: bool
    detail: dict[str, Any] | None = None

    def as_dict(self) -> dict[str, Any]:
        """The fields as a new dict, without ``detail`` when it is None.

        ``params`` and ``detail`` are the record's own dicts, not copies:
        ``dataclasses.asdict`` would copy them deeply, at about 40 times the
        cost per record, which slowed a JSON report of 10 098 records by 16 %.
        """
        out = dict(vars(self))
        if self.detail is None:
            del out["detail"]
        return out


@dataclass
class VerifyReport:
    """Accumulated check records plus summary counts, in the order they were added."""

    records: list[CheckRecord] = field(default_factory=list)

    def add(self, record: CheckRecord) -> None:
        self.records.append(record)

    @property
    def total(self) -> int:
        return len(self.records)

    @property
    def mismatch_count(self) -> int:
        return sum(1 for r in self.records if not r.matched)

    @property
    def all_matched(self) -> bool:
        return self.mismatch_count == 0

    def by_theorem(self) -> dict[str, tuple[int, int]]:
        """theorem id -> (checks, mismatches), in record order."""
        out: dict[str, tuple[int, int]] = {}
        for rec in self.records:
            total, bad = out.get(rec.theorem, (0, 0))
            out[rec.theorem] = (total + 1, bad + (0 if rec.matched else 1))
        return out

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "checks": [rec.as_dict() for rec in self.records],
            "summary": {
                "total": self.total,
                "mismatched": self.mismatch_count,
                "by_theorem": {
                    tid: {"total": tot, "mismatched": bad}
                    for tid, (tot, bad) in sorted(self.by_theorem().items())
                },
            },
            "all_matched": self.all_matched,
        }

    def summary_text(self, mismatch_cap: int = 20) -> str:
        lines = []
        for tid, (total, bad) in sorted(self.by_theorem().items()):
            lines.append(f"{tid}: {total} checks, {bad} mismatches")
        shown = 0
        for rec in self.records:
            if rec.matched:
                continue
            if shown == mismatch_cap:
                lines.append(f"  ... {self.mismatch_count - shown} more mismatches")
                break
            params = " ".join(f"{k}={v}" for k, v in rec.params.items())
            lines.append(
                f"  mismatch {rec.theorem} {params}: lhs={rec.lhs} rhs={rec.rhs} ({rec.relation})"
            )
            shown += 1
        verdict = "PASS" if self.all_matched else "FAIL"
        lines.append(f"overall: {verdict} ({self.total} checks, {self.mismatch_count} mismatches)")
        return "\n".join(lines) + "\n"


def thm21_rhs(n: int) -> int:
    """Predicted irr_t of J*_{n+1} from the state of J*_n.

    With k the prime Jaconian index of J*_n, vertex n+1 arrives with degree
    n - k and bumps the degrees of exactly v_{k+1}..v_n by one.  Each bumped
    vertex shifts its pair differences against the untouched block v_1..v_k
    by +1 (old degree at most its own) or -1 (strictly larger), and the new
    vertex contributes its own pair sum against the updated degrees.  The
    block's degrees are exactly 1..k, so min(d, k) of them are at most d.
    """
    if n < 2:
        raise ValueError(f"thm21_rhs needs n >= 2, got {n}")
    old = underlying_degrees(n)
    new = underlying_degrees(n + 1)
    k = prime_jaconian_index(n)
    count_term = sum(2 * min(d, k) - k for d in old[k:])
    arrival = n - k
    new_vertex = sum(abs(arrival - d) for d in new[:n])
    return irr_t(old).value + count_term + new_vertex


def thm31_rhs(n: int) -> int:
    """Predicted firr_t of J*_{n+1} from the state of J*_n.

    Same vertex-arrival structure as :func:`thm21_rhs`, in weight space:
    the new vertex's pair sum uses weight f_{n-k}; each bumped vertex shifts
    pairs against the untouched block by +-(f_{d+1} - f_d); and pairs of two
    bumped vertices move by the change between consecutive weight gaps.
    For degrees a >= b >= 1 that change is
    (f_{a+1} - f_{b+1}) - (f_a - f_b) = f_{a-1} - f_{b-1} >= 0, so the
    absolute value is exact and the bumped pairs sum to the firr pair sum
    of the bumped degrees minus one: one kernel call instead of a loop over
    the pairs.
    """
    if n < 2:
        raise ValueError(f"thm31_rhs needs n >= 2, got {n}")
    old = underlying_degrees(n)
    new = underlying_degrees(n + 1)
    k = prime_jaconian_index(n)
    arrival_weight = fib(n - k)
    new_vertex = sum(abs(arrival_weight - fib(d)) for d in new[:n])
    # min(d, k) of the head degrees 1..k lie strictly under the bumped d + 1
    cross = sum((2 * min(d, k) - k) * (fib(d + 1) - fib(d)) for d in old[k:])
    bumped_pairs = pair_sum_histogram(degree_histogram(d - 1 for d in old[k:n]), "firr")
    return firr_t(old).value + new_vertex + cross + bumped_pairs


def _equality(theorem: str, params: dict[str, int], lhs: int, rhs: int) -> CheckRecord:
    return CheckRecord(theorem, params, RELATION_EQUALITY, lhs, rhs, lhs == rhs)


def thm21_check(n: int) -> CheckRecord:
    """Growth recursion for irr_t: the pairwise oracle on J*_{n+1} against
    :func:`thm21_rhs`."""
    lhs = pair_sum_naive(list(underlying_degrees(n + 1)))
    return _equality("thm21", {"n": n}, lhs, thm21_rhs(n))


def thm31_check(n: int) -> CheckRecord:
    """Growth recursion for firr_t: the pairwise oracle on the weights of
    J*_{n+1} against :func:`thm31_rhs`."""
    lhs = pair_sum_naive([fib(d) for d in underlying_degrees(n + 1)])
    return _equality("thm31", {"n": n}, lhs, thm31_rhs(n))


def _jaco_side(x: int, kind: str, memo: dict) -> tuple[tuple[int, ...], int]:
    """Formula-side data of J*_x: its degrees and its metric ``kind``, kept in ``memo``."""
    if x not in memo:
        memo[x] = (underlying_degrees(x), {})
    degrees, metrics = memo[x]
    if kind not in metrics:
        metrics[kind] = pair_sum_histogram(degree_histogram(degrees), kind)
    return degrees, metrics[kind]


def _union_check(
    theorem: str,
    n: int,
    m: int,
    kind: str,
    memo: dict | None = None,
) -> CheckRecord:
    """The union statement for metric ``kind``; ``memo`` keeps the formula
    side's per-graph data across the instances of one sweep."""
    if m < 1:
        raise ValueError(f"{theorem} needs m >= 1, got {m}")
    if n < m:
        raise ValueError(f"{theorem} needs n >= m; swap arguments ({n}, {m})")
    # The oracle: the union's own histogram, built fresh, never from the memo.
    lhs = pair_sum_histogram(
        add_histograms(underlying_degree_counts(n), underlying_degree_counts(m)), kind
    )
    if memo is None:
        memo = {}
    params = {"n": n, "m": m}
    dn, metric_n = _jaco_side(n, kind, memo)
    if n == m:
        return _equality(theorem, params, lhs, 4 * metric_n)
    dm, metric_m = _jaco_side(m, kind, memo)
    cut = max(dm)  # = prime_jaconian_index(m) for m >= 2: both readings are one cut
    rhs = 2 * (metric_n + metric_m) + cross_pair_sum(
        degree_histogram(dn[cut:]), degree_histogram(dm[cut:]), kind
    )
    holds = lhs <= rhs
    detail = {
        "rhs_degree_reading": rhs,
        "holds_degree_reading": holds,
        "rhs_index_reading": rhs if m >= 2 else None,
        "holds_index_reading": holds if m >= 2 else None,
    }
    return CheckRecord(theorem, params, RELATION_UPPER_BOUND, lhs, rhs, holds, detail)


def thm32_check(n: int, m: int, *, _memo: dict | None = None) -> CheckRecord:
    """Union statement for irr_t: lhs computed on the union degree histogram.

    n = m asserts lhs = 4 * irr_t(J*_n); n > m asserts the upper bound with
    the correction sum over vertices beyond the cut in both copies.
    ``_memo`` is private to :func:`verify_sweep`, which shares the formula
    side's per-graph data through it; without it every call starts afresh.
    """
    return _union_check("thm32", n, m, "irr", _memo)


def cor31_check(n: int, m: int, *, _memo: dict | None = None) -> CheckRecord:
    """Union statement for firr_t, same shape as :func:`thm32_check`."""
    return _union_check("cor31", n, m, "firr", _memo)


def lemma31_check(n: int, m: int) -> CheckRecord:
    """firr_t is unchanged by joining the two first vertices, n, m >= 2.

    Both first vertices have degree 1, and f_1 = f_2, so raising both to
    degree 2 moves no weight.  Both sides are recomputed from actually
    constructed graphs.
    """
    if n < 2 or m < 2:
        raise ValueError(f"lemma31 needs n, m >= 2, got ({n}, {m})")
    gn = underlying_graph(n)
    gm = underlying_graph(m)
    lhs = firr_t(degree_sequence(disjoint_union(gn, gm))).value
    rhs = firr_t(degree_sequence(edge_joint(gn, 1, gm, 1))).value
    return _equality("lemma31", {"n": n, "m": m}, lhs, rhs)


def _check_thm33_args(n: int, m: int, i: int) -> None:
    if n < 3:
        raise ValueError(f"thm33 needs n >= 3, got {n}")
    if m < 1:
        raise ValueError(f"thm33 needs m >= 1, got {m}")
    if not 2 <= i <= n:
        raise ValueError(f"thm33 needs 2 <= i <= n, got i={i} (i = 1 is the first-vertex joint)")


def thm33_exact(n: int, m: int, i: int) -> int:
    """Ground truth: firr_t of the graph joined at v_i and the first vertex
    of the second copy, recomputed by the pairwise oracle on the joined graph."""
    _check_thm33_args(n, m, i)
    joined = edge_joint(underlying_graph(n), i, underlying_graph(m), 1)
    return pair_sum_naive([fib(d) for d in degree_sequence(joined)])


def thm33_literal(n: int, m: int, i: int) -> int:
    """The printed delta formula, evaluated literally under the documented
    reading: the pivot weight is taken at the pre-join degree of v_i, the
    +/- partitions run over the first copy without v_i and over the whole
    second copy, and each side contributes |pivot - weight| with sign + for
    weights at most the pivot and - for strictly larger weights."""
    _check_thm33_args(n, m, i)
    dn = underlying_degrees(n)
    dm = underlying_degrees(m)
    wn = [fib(d) for d in dn]
    wm = [fib(d) for d in dm]
    pivot = wn[i - 1]
    base = firr_t(dn).value + firr_t(dm).value
    cross = 0
    for wa in wn:
        for wb in wm:
            cross += abs(wa - wb)
    # Each side weight w adds +|pivot - w| when w <= pivot and -|w - pivot|
    # when w > pivot; both arms are pivot - w.
    side_sum = pivot * (n - 1 + m) - (sum(wn) - pivot) - sum(wm)
    return base + cross + side_sum


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
    memo: dict,
) -> Iterator[tuple[int, ...]]:
    """Parameter tuples of check ``tid`` in the ranges, in ascending (n, m, i) order.

    Each loop starts at its first value with an instance, and a range that
    leaves none stops the generator at once, so asking for the first tuple
    costs O(1) steps.  The union branch drops ``memo``'s entry of an n above
    the m range once its last instance is out.
    """
    (n_lo, n_hi), (m_lo, m_hi) = n_range, m_range
    if tid in ("thm21", "thm31"):
        for n in range(max(2, n_lo), n_hi + 1):
            yield (n,)
    elif tid in ("thm32", "cor31"):
        for n in range(max(n_lo, m_lo), n_hi + 1):
            for m in range(m_lo, min(m_hi, n) + 1):
                yield n, m
            if n > m_hi:
                memo.pop(n, None)  # no later instance has n as its m
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


def verify_sweep(
    theorems: list[str] | tuple[str, ...],
    n_range: tuple[int, int],
    m_range: tuple[int, int] | None = None,
    i_range: tuple[int, int] | None = None,
) -> VerifyReport:
    """Run every requested check over the given inclusive ranges.

    Instances outside a check's domain are skipped (for example thm21 skips
    n < 2 and thm32 skips n < m); for thm33 the join vertex runs over
    ``i_range`` clipped to [2, n], the whole interval when not given.
    Records are emitted sorted by (theorem, n, m, i).  Raises ValueError
    naming every requested check that the ranges leave without instances,
    before any check runs.
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
    # Formula-side data per Jaco graph, shared by the union instances.
    memo: dict = {}
    # A check that runs on nothing verifies nothing; it is not a pass.
    empty = [t for t in ids if next(_instances(t, n_range, m_range, i_range, memo), None) is None]
    if empty:
        raise ValueError(f"no instances of {', '.join(empty)} in the given ranges")

    # Built per call, so a check replaced on the module is the one that runs.
    checks = {
        "thm21": thm21_check,
        "thm31": thm31_check,
        "thm32": partial(thm32_check, _memo=memo),
        "cor31": partial(cor31_check, _memo=memo),
        "lemma31": lemma31_check,
        "thm33": thm33_check,
    }
    # Ids in sorted order, each with its tuples in ascending (n, m, i) order:
    # the records come out sorted by (theorem, n, m, i) with no sort after.
    report = VerifyReport()
    for tid in sorted(ids):
        for params in _instances(tid, n_range, m_range, i_range, memo):
            report.add(checks[tid](*params))
    return report
