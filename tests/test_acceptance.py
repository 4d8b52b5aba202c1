"""Acceptance suite: one test per criterion, printing one pass/fail line each.

All comparisons are exact integer equality or <=; no tolerances.

Criterion 3 is left failing deliberately.  It requires the firr column for
the first twelve graphs to equal the previously reported values
(0, 0, 0, 0, 4, 9, 20, 54, 70, 133, 224, 322), but the pair sum over row 8's
own weight sequence (1, 1, 2, 3, 5, 3, 3, 2) is 42, not 54: direct
enumeration, the sorted-prefix identity, and the growth recursion from row 7
(20 + 8 + 12 + 2) all give 42, and row 9's reported 70 equals 42 + 28, the
recursion increment from row 8.  The reported 54 is an arithmetic slip, so
the criterion as stated cannot pass without breaking the oracle-equivalence
and recursion criteria; the assertion is kept faithful and red.
"""

import json
import random
import time
from itertools import combinations

from jacograph import (
    METHOD_NAIVE,
    build_profile,
    complete_bipartite,
    cor31_check,
    cycle,
    degree_sequence,
    fib,
    firr_pm,
    firr_t,
    irr_t,
    is_f_regular,
    lemma31_check,
    biclique_firr_closed,
    path,
    signed_weight_of_degree,
    star,
    star_firr_closed,
    thm21_rhs,
    thm31_rhs,
    thm32_check,
    underlying_degrees,
    verify_sweep,
)
from jacograph.cli import main as cli_main

REPORTED_IN_DEGREES = (0, 1, 1, 1, 2, 2, 3, 3, 3, 4, 4, 4)
REPORTED_OUT_DEGREES = (1, 1, 2, 3, 3, 4, 4, 5, 6, 6, 7, 8)
REPORTED_DEGREE_SEQUENCES = (
    (0,),
    (1, 1),
    (1, 2, 1),
    (1, 2, 2, 1),
    (1, 2, 3, 2, 2),
    (1, 2, 3, 3, 3, 2),
    (1, 2, 3, 4, 4, 3, 3),
    (1, 2, 3, 4, 5, 4, 4, 3),
    (1, 2, 3, 4, 5, 5, 5, 4, 3),
    (1, 2, 3, 4, 5, 6, 6, 5, 4, 4),
    (1, 2, 3, 4, 5, 6, 7, 6, 5, 5, 4),
    (1, 2, 3, 4, 5, 6, 7, 7, 6, 6, 5, 4),
)
REPORTED_IRR_1_TO_11 = (0, 0, 2, 4, 8, 14, 26, 42, 60, 86, 116)
REPORTED_WEIGHT_SEQUENCES = (
    (0,),
    (1, 1),
    (1, 1, 1),
    (1, 1, 1, 1),
    (1, 1, 2, 1, 1),
    (1, 1, 2, 2, 2, 1),
    (1, 1, 2, 3, 3, 2, 2),
    (1, 1, 2, 3, 5, 3, 3, 2),
    (1, 1, 2, 3, 5, 5, 5, 3, 2),
    (1, 1, 2, 3, 5, 8, 8, 5, 3, 3),
    (1, 1, 2, 3, 5, 8, 13, 8, 5, 5, 3),
    (1, 1, 2, 3, 5, 8, 13, 13, 8, 8, 5, 3),
)
REPORTED_FIRR_1_TO_12 = (0, 0, 0, 0, 4, 9, 20, 54, 70, 133, 224, 322)


def brute(ws):
    return sum(abs(a - b) for a, b in combinations(list(ws), 2))


def report(num, ok, detail):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")


def test_c01_profile_columns():
    t0 = time.perf_counter()
    prof = build_profile(12)
    in_deg = tuple(prof.in_degree(i) for i in range(1, 13))
    out_deg = tuple(prof.out_degree_unbounded(i) for i in range(1, 13))
    elapsed = time.perf_counter() - t0
    ok = in_deg == REPORTED_IN_DEGREES and out_deg == REPORTED_OUT_DEGREES and elapsed < 1.0
    report(1, ok, f"in/out degree columns for i=1..12 in {elapsed * 1000:.1f} ms")
    assert in_deg == REPORTED_IN_DEGREES
    assert out_deg == REPORTED_OUT_DEGREES
    assert elapsed < 1.0


def test_c02_degree_sequences_and_irr_values(capsys):
    sequences = tuple(underlying_degrees(n) for n in range(1, 13))
    assert sequences == REPORTED_DEGREE_SEQUENCES
    irr_values = tuple(irr_t(d).value for d in sequences[:11])
    assert irr_values == REPORTED_IRR_1_TO_11
    # row 12: the pair sum over the row's own degrees is authoritative
    naive_12 = irr_t(sequences[11], method=METHOD_NAIVE).value
    fast_12 = irr_t(sequences[11]).value
    assert naive_12 == fast_12 == brute(sequences[11]) == 148
    assert naive_12 != 149
    # and the divergence is flagged in table output
    rc = cli_main(["table", "irr", "12", "--format", "csv"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "148,reported=149" in out
    report(2, True, "degree sequences i=1..12, irr i=1..11, row 12 oracle 148 flagged vs 149")


def test_c03_weight_sequences_and_firr_values():
    sequences = tuple(underlying_degrees(n) for n in range(1, 13))
    weights = tuple(tuple(fib(d) for d in seq) for seq in sequences)
    assert weights == REPORTED_WEIGHT_SEQUENCES
    t0 = time.perf_counter()
    firr_values = tuple(firr_t(d).value for d in sequences)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    ok = firr_values == REPORTED_FIRR_1_TO_12
    report(
        3,
        ok,
        "weight sequences reproduce; firr column computed "
        f"{firr_values} vs required {REPORTED_FIRR_1_TO_12} "
        "(row 8: pair sum over (1,1,2,3,5,3,3,2) is 42, reported 54 is an "
        "arithmetic slip; see notes)",
    )
    assert firr_values == REPORTED_FIRR_1_TO_12, (
        "firr column must reproduce the reported values; row 8 computes "
        f"{firr_values[7]} while the reported column says "
        f"{REPORTED_FIRR_1_TO_12[7]}, and 42 is forced by the oracle and by "
        "the growth recursion (criteria 5 and 10)"
    )


def test_c04_irr_recursion_sweep():
    t0 = time.perf_counter()
    for n in range(2, 201):
        oracle = brute(underlying_degrees(n + 1))
        assert thm21_rhs(n) == oracle, f"n={n}"
    elapsed = time.perf_counter() - t0
    report(4, elapsed < 10.0, f"irr growth recursion equals oracle for n=2..200 in {elapsed:.2f} s")
    assert elapsed < 10.0


def test_c05_firr_recursion_sweep():
    for n in range(2, 201):
        oracle = brute([fib(d) for d in underlying_degrees(n + 1)])
        assert thm31_rhs(n) == oracle, f"n={n}"
    report(5, True, "firr growth recursion equals oracle for n=2..200")


def test_c06_union_identities():
    for n in range(1, 101):
        rec = thm32_check(n, n)
        assert rec.relation == "equality" and rec.matched, f"irr union equality n={n}"
        rec = cor31_check(n, n)
        assert rec.relation == "equality" and rec.matched, f"firr union equality n={n}"
    sweep = verify_sweep(["thm32", "cor31"], (1, 60), (1, 60))
    bounds = [r for r in sweep.records if r.relation == "upper-bound"]
    assert len(bounds) == 2 * (60 * 59 // 2)
    for rec in bounds:
        assert rec.matched, f"bound fails under both cut readings at {rec.params}"
        assert rec.detail is not None and "holds_degree_reading" in rec.detail
    json.dumps(sweep.to_json_dict())  # per-instance records serialize
    report(6, True, "union equality n=m<=100 both metrics; bounds hold for all m<n<=60")


def test_c07_leaf_joint_invariance():
    for n in range(2, 51):
        for m in range(2, 51):
            rec = lemma31_check(n, m)
            assert rec.matched, f"n={n} m={m}: {rec.lhs} != {rec.rhs}"
    report(7, True, "first-vertex joint preserves firr for all n,m in [2,50]")


def test_c08_joint_formula_sweep():
    sweep = verify_sweep(["thm33"], (3, 12), (1, 12))
    expected_instances = sum((n - 1) * 12 for n in range(3, 13))
    assert sweep.total == expected_instances == 780
    for rec in sweep.records:
        assert isinstance(rec.lhs, int)  # exact value computed for every instance
        assert isinstance(rec.matched, bool)
    payload = sweep.to_json_dict()
    assert len(payload["checks"]) == 780
    json.dumps(payload)
    agreeing = sweep.total - sweep.mismatch_count
    report(
        8,
        True,
        f"joint formula compared on 780 instances: {agreeing} agree, "
        f"{sweep.mismatch_count} diverge (agreement recorded, not presumed)",
    )


def test_c09_closed_forms():
    for n in range(1, 61):
        assert firr_t(degree_sequence(star(n))).value == star_firr_closed(n).value
    for n in range(1, 41):
        for m in range(1, n + 1):
            got = firr_t(degree_sequence(complete_bipartite(n, m))).value
            assert got == biclique_firr_closed(n, m).value
    for n in range(3, 61):
        assert firr_pm(degree_sequence(path(n))).value == 4 * (n - 2)
        assert firr_pm(degree_sequence(cycle(n))).value == 0
    report(9, True, "star, biclique, signed path 4(n-2), signed cycle 0 closed forms")


def test_c10_property_suite():
    rng = random.Random(20260811)
    lengths = [0, 1, 2, 200]
    lengths += [rng.randint(0, 25) for _ in range(9000)]
    lengths += [rng.randint(26, 100) for _ in range(800)]
    lengths += [rng.randint(101, 200) for _ in range(196)]
    assert len(lengths) == 10_000 and max(lengths) <= 200
    for idx, size in enumerate(lengths):
        ds = [rng.randint(0, 250) for _ in range(size)]
        v_irr = irr_t(ds).value
        v_firr = firr_t(ds).value
        v_pm = firr_pm(ds).value
        assert irr_t(ds, method=METHOD_NAIVE).value == v_irr
        assert firr_t(ds, method=METHOD_NAIVE).value == v_firr
        assert firr_pm(ds, method=METHOD_NAIVE).value == v_pm
        shuffled = ds[:]
        rng.shuffle(shuffled)
        assert irr_t(shuffled).value == v_irr
        assert firr_t(shuffled).value == v_firr
        assert firr_pm(shuffled).value == v_pm
        if idx % 25 == 0:
            assert irr_t(shuffled, method=METHOD_NAIVE).value == v_irr
        assert (v_irr == 0) == (len(set(ds)) <= 1)
        assert (v_firr == 0) == is_f_regular(ds)
    for a in range(1, 200):
        for b in range(1, a + 1):
            assert fib(a + 1) - fib(b + 1) >= fib(a) - fib(b)
    report(10, True, "oracle equivalence on 10^4 sequences; invariances; monotone gaps")


def test_c11_performance():
    t0 = time.perf_counter()
    prof = build_profile(10**6)
    build_elapsed = time.perf_counter() - t0
    assert prof.n_max == 10**6
    assert build_elapsed < 5.0

    degrees = underlying_degrees(10**5)
    t1 = time.perf_counter()
    v_irr = irr_t(degrees)
    v_firr = firr_t(degrees)
    metric_elapsed = time.perf_counter() - t1
    assert metric_elapsed < 2.0
    assert v_irr.method == v_firr.method == "sorted-prefix"
    assert isinstance(v_irr.value, int) and isinstance(v_firr.value, int)

    # independent aggregation by degree value confirms exactness
    n = len(degrees)
    counts: dict[int, int] = {}
    for d in degrees:
        counts[d] = counts.get(d, 0) + 1
    pos = 0
    agg_irr = 0
    agg_firr = 0
    for d in sorted(counts):
        c = counts[d]
        coeff = sum(2 * k - 1 - n for k in range(pos + 1, pos + c + 1))
        agg_irr += d * coeff
        agg_firr += fib(d) * coeff
        pos += c
    assert agg_irr == v_irr.value == 97264003265752
    assert agg_firr == v_firr.value
    report(
        11,
        True,
        f"profile of 10^6 in {build_elapsed:.2f} s; exact metrics of the "
        f"10^5-vertex graph in {metric_elapsed:.2f} s",
    )
