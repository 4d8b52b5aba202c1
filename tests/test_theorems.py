"""Identity evaluators and verification sweeps against brute-force oracles."""

import json
import signal
import time
from itertools import combinations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import jacograph.theorems as theorems
from jacograph import (
    THEOREM_IDS,
    CheckRecord,
    cor31_check,
    degree_histogram,
    fib,
    firr_t,
    irr_t,
    lemma31_check,
    pair_sum_histogram,
    pair_sum_naive,
    prime_jaconian_index,
    thm21_check,
    thm21_rhs,
    thm31_check,
    thm31_rhs,
    thm32_check,
    thm33_check,
    thm33_exact,
    thm33_literal,
    underlying_degrees,
    verify_sweep,
)


def brute(ws):
    return sum(abs(a - b) for a, b in combinations(list(ws), 2))


def sorted_pair_sum(ws):
    # the k-th smallest of N weights is the larger one in k - 1 pairs
    ws = sorted(ws)
    return sum(w * (2 * k - 1 - len(ws)) for k, w in enumerate(ws, 1))


# -- growth recursions -------------------------------------------------------


def test_thm21_examples():
    assert thm21_rhs(2) == 2  # irr of the 3-vertex graph
    assert thm21_rhs(6) == 26
    assert thm21_rhs(11) == 148


def test_thm21_term_decomposition_at_11():
    old = underlying_degrees(11)
    new = underlying_degrees(12)
    assert irr_t(old).value == 116
    arrival = 11 - 7  # prime Jaconian index of the 11-vertex graph is 7
    new_vertex = sum(abs(arrival - d) for d in new[:11])
    assert new_vertex == 20
    assert thm21_rhs(11) - irr_t(old).value - new_vertex == 12  # pair-shift term


def test_thm21_matches_oracle_up_to_60():
    for n in range(2, 61):
        assert thm21_rhs(n) == brute(underlying_degrees(n + 1))


def test_growth_checks_pit_the_oracle_against_the_recursion():
    rec = thm21_check(11)
    assert (rec.theorem, rec.params, rec.relation) == ("thm21", {"n": 11}, "equality")
    assert (rec.lhs, rec.rhs, rec.matched) == (148, 148, True)
    rec = thm31_check(11)
    assert (rec.theorem, rec.params, rec.relation) == ("thm31", {"n": 11}, "equality")
    assert (rec.lhs, rec.rhs, rec.matched) == (322, 322, True)


def test_thm21_validation():
    with pytest.raises(ValueError):
        thm21_rhs(1)


def test_thm31_examples():
    assert thm31_rhs(4) == 4
    assert thm31_rhs(9) == 133
    assert thm31_rhs(11) == 322


def test_thm31_term_decomposition_at_11():
    old = underlying_degrees(11)
    new = underlying_degrees(12)
    assert firr_t(old).value == 224
    arrival_weight = fib(11 - 7)  # f_4 = 3
    new_vertex = sum(abs(arrival_weight - fib(d)) for d in new[:11])
    assert new_vertex == 44
    tail = old[7:]  # the vertices whose degree is bumped
    bumped_pairs = sum(
        abs(abs(fib(a) - fib(b)) - abs(fib(a + 1) - fib(b + 1)))
        for a, b in combinations(tail, 2)
    )
    assert bumped_pairs == 9
    cross = thm31_rhs(11) - firr_t(old).value - new_vertex - bumped_pairs
    assert cross == 45


def test_thm31_matches_oracle_up_to_60():
    for n in range(2, 61):
        assert thm31_rhs(n) == brute([fib(d) for d in underlying_degrees(n + 1)])


@given(st.lists(st.integers(min_value=1, max_value=120), max_size=25))
@example([1, 2, 1, 2])
@example([93, 94, 1])
def test_thm31_bumped_pairs_are_a_shifted_firr_pair_sum(tail):
    literal = sum(
        abs(abs(fib(a) - fib(b)) - abs(fib(a + 1) - fib(b + 1)))
        for a, b in combinations(tail, 2)
    )
    assert pair_sum_histogram(degree_histogram(d - 1 for d in tail), "firr") == literal


def test_thm31_gap_steps_non_negative():
    # the bumped-pair inner expression is non-negative for degrees >= 1,
    # so the printed absolute value is exact
    for a in range(1, 80):
        for b in range(1, a + 1):
            assert abs(fib(a + 1) - fib(b + 1)) >= abs(fib(a) - fib(b))


# -- union statements --------------------------------------------------------


def test_thm32_equality_cases():
    rec = thm32_check(5, 5)
    assert (rec.lhs, rec.rhs, rec.matched, rec.relation) == (32, 32, True, "equality")
    rec = thm32_check(1, 1)
    assert (rec.lhs, rec.rhs, rec.matched) == (0, 0, True)


def test_thm32_bound_case():
    rec = thm32_check(7, 3)
    assert rec.relation == "upper-bound"
    assert rec.lhs == brute(underlying_degrees(7) + underlying_degrees(3)) == 62
    assert rec.rhs == 68
    assert rec.matched
    assert rec.detail["holds_degree_reading"] is True
    assert rec.detail["rhs_index_reading"] == 68  # both cut readings coincide here


def test_thm32_m_equal_one_has_no_index_reading():
    rec = thm32_check(5, 1)
    assert rec.detail["rhs_index_reading"] is None
    assert rec.detail["holds_index_reading"] is None
    assert rec.matched  # degree reading upholds the bound


def test_thm32_argument_order():
    with pytest.raises(ValueError):
        thm32_check(3, 7)
    with pytest.raises(ValueError):
        thm32_check(3, 0)


def test_cor31_cases():
    rec = cor31_check(6, 6)
    assert (rec.lhs, rec.rhs, rec.matched) == (36, 36, True)
    rec = cor31_check(2, 2)
    assert (rec.lhs, rec.rhs, rec.matched) == (0, 0, True)
    rec = cor31_check(9, 4)
    weights = [fib(d) for d in underlying_degrees(9) + underlying_degrees(4)]
    assert rec.lhs == brute(weights) == 142
    assert rec.rhs == 176
    assert rec.matched


def test_union_superadditivity():
    for n in range(1, 31):
        for m in range(1, n + 1):
            dn, dm = underlying_degrees(n), underlying_degrees(m)
            assert irr_t(dn + dm).value >= irr_t(dn).value + irr_t(dm).value
            assert firr_t(dn + dm).value >= firr_t(dn).value + firr_t(dm).value


def union_reference(theorem, n, m):
    """The union record as the statement reads: pair sums over the weights
    and the correction sum as a literal double loop over both tails."""
    weight = fib if theorem == "cor31" else (lambda d: d)
    wn = [weight(d) for d in underlying_degrees(n)]
    wm = [weight(d) for d in underlying_degrees(m)]
    lhs = sorted_pair_sum(wn + wm)
    if n == m:
        rhs = 4 * sorted_pair_sum(wn)
        return {"relation": "equality", "lhs": lhs, "rhs": rhs, "matched": lhs == rhs, "detail": None}
    base = 2 * (sorted_pair_sum(wn) + sorted_pair_sum(wm))
    cuts = {"degree": max(underlying_degrees(m)), "index": prime_jaconian_index(m) if m >= 2 else None}
    detail = {}
    for reading, cut in cuts.items():
        rhs = None
        if cut is not None:
            rhs = base + sum(abs(a - b) for a in wn[cut:] for b in wm[cut:])
        detail[f"rhs_{reading}_reading"] = rhs
        detail[f"holds_{reading}_reading"] = None if rhs is None else lhs <= rhs
    return {
        "relation": "upper-bound",
        "lhs": lhs,
        "rhs": detail["rhs_degree_reading"],
        "matched": any(detail[f"holds_{r}_reading"] for r in cuts),
        "detail": detail,
    }


def test_union_records_match_the_double_loop_up_to_60():
    for theorem, check in (("thm32", thm32_check), ("cor31", cor31_check)):
        for n in range(1, 61):
            for m in range(1, n + 1):
                rec = check(n, m)
                got = {
                    "relation": rec.relation,
                    "lhs": rec.lhs,
                    "rhs": rec.rhs,
                    "matched": rec.matched,
                    "detail": rec.detail,
                }
                assert got == union_reference(theorem, n, m), (theorem, n, m)


def test_union_lhs_never_reads_the_memo():
    # a memo whose degrees and metrics are all wrong moves only the formula side
    for n, m in ((9, 4), (6, 6)):
        for theorem, kind, weight in (("thm32", "irr", lambda d: d), ("cor31", "firr", fib)):
            poisoned = {x: ((1,) * x, {kind: 0}) for x in (n, m)}
            rec = theorems._union_check(theorem, n, m, kind, poisoned)
            union = underlying_degrees(n) + underlying_degrees(m)
            assert rec.lhs == pair_sum_naive([weight(d) for d in union]) > 0
            assert rec.rhs == 0
            assert not rec.matched


def test_union_sweep_looks_up_no_weight(monkeypatch):
    def refuse(*args):
        raise AssertionError("a union check looked up a Fibonacci number")

    monkeypatch.setattr("jacograph.theorems.fib", refuse)
    monkeypatch.setattr("jacograph.fibonacci.FibCache.fib", refuse)
    report = verify_sweep(["thm32", "cor31"], (2, 40), (1, 40))
    assert report.total == 2 * sum(range(2, 41))
    assert report.all_matched


# -- first-vertex joint ------------------------------------------------------


def test_lemma31_examples():
    rec = lemma31_check(6, 4)
    assert (rec.lhs, rec.rhs, rec.matched) == (21, 21, True)
    rec = lemma31_check(2, 2)
    assert (rec.lhs, rec.rhs, rec.matched) == (0, 0, True)
    rec = lemma31_check(12, 12)
    assert (rec.lhs, rec.rhs, rec.matched) == (1288, 1288, True)  # 4 * 322


def test_lemma31_validation():
    with pytest.raises(ValueError):
        lemma31_check(1, 4)
    with pytest.raises(ValueError):
        lemma31_check(4, 1)


# -- arbitrary-vertex joint --------------------------------------------------


def test_thm33_exact_is_the_oracle():
    # independent recomputation from bumped degree sequences
    for n, m, i in ((3, 1, 3), (5, 5, 5), (6, 4, 5), (12, 12, 7)):
        dn = list(underlying_degrees(n))
        dm = list(underlying_degrees(m))
        dn[i - 1] += 1
        dm[0] += 1
        assert thm33_exact(n, m, i) == brute([fib(d) for d in dn + dm])


def test_thm33_frozen_instances():
    assert thm33_exact(3, 1, 3) == 0  # all four weights become 1
    assert thm33_literal(3, 1, 3) == 4  # the formula misses the newcomer's weight change
    assert thm33_exact(5, 5, 5) == 21
    assert thm33_literal(5, 5, 5) == 14
    assert thm33_exact(6, 4, 5) == 30
    assert thm33_literal(6, 4, 5) == 28


def test_thm33_agreeing_instances():
    # joining at a degree-1 vertex moves no weight on either side here
    for n, m, i in ((4, 2, 4), (4, 3, 4)):
        rec = thm33_check(n, m, i)
        assert rec.matched and rec.lhs == rec.rhs == 0


def test_thm33_validation():
    for bad in ((2, 1, 2), (3, 0, 2), (3, 1, 1), (3, 1, 4)):
        with pytest.raises(ValueError):
            thm33_exact(*bad)
        with pytest.raises(ValueError):
            thm33_literal(*bad)


# -- sweeps ------------------------------------------------------------------


def test_sweep_thm21_skips_below_domain():
    report = verify_sweep(["thm21"], (1, 5))
    assert [r.params["n"] for r in report.records] == [2, 3, 4, 5]
    assert report.all_matched


def test_sweep_equality_and_bound_cases():
    report = verify_sweep(["thm32", "cor31"], (1, 10), (1, 10))
    assert report.total == 2 * 55  # pairs with m <= n
    assert report.all_matched
    relations = {r.relation for r in report.records if r.params["n"] == r.params["m"]}
    assert relations == {"equality"}


def test_sweep_lemma31_clips_to_two():
    report = verify_sweep(["lemma31"], (1, 6), (1, 6))
    assert report.total == 25
    assert report.all_matched


def test_sweep_thm33_records_divergence():
    report = verify_sweep(["thm33"], (3, 6), (1, 3))
    per_n = [n - 1 for n in range(3, 7)]  # join vertices 2..n
    assert report.total == 3 * sum(per_n)
    assert report.mismatch_count > 0  # the literal formula does diverge
    assert not report.all_matched
    summary = report.summary_text()
    assert "thm33" in summary and "FAIL" in summary


def test_sweep_thm33_i_range():
    report = verify_sweep(["thm33"], (3, 6), (2, 2), i_range=(3, 3))
    assert [(r.params["n"], r.params["m"], r.params["i"]) for r in report.records] == [
        (3, 2, 3),
        (4, 2, 3),
        (5, 2, 3),
        (6, 2, 3),
    ]


def test_sweep_orders_records_and_serializes():
    report = verify_sweep(["thm31", "thm21"], (2, 4))
    keys = [(r.theorem, r.params["n"]) for r in report.records]
    assert keys == sorted(keys)
    payload = report.to_json_dict()
    text = json.dumps(payload)
    back = json.loads(text)
    assert back["summary"]["total"] == report.total == 6
    assert back["all_matched"] is True
    assert back["checks"][0]["params"] == {"n": 2}
    assert {c["theorem"] for c in back["checks"]} == {"thm21", "thm31"}


def test_sweep_output_does_not_depend_on_the_order_of_the_ids():
    outputs = []
    for ids in (list(THEOREM_IDS), [*reversed(THEOREM_IDS), "thm32", "thm21", "thm33"]):
        report = verify_sweep(ids, (2, 7), (1, 4))
        outputs.append((report.summary_text(), json.dumps(report.to_json_dict(), indent=2, sort_keys=True)))
    assert outputs[0] == outputs[1]
    keys = [(r.theorem, *r.params.values()) for r in report.records]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)


def test_sweep_validation():
    with pytest.raises(ValueError):
        verify_sweep(["nope"], (2, 5))
    with pytest.raises(ValueError):
        verify_sweep([], (2, 5))
    with pytest.raises(ValueError):
        verify_sweep(["thm21"], (5, 2))
    with pytest.raises(ValueError):
        verify_sweep(["thm21"], (0, 2))


def test_sweep_without_instances_is_an_error():
    with pytest.raises(ValueError, match="thm21"):
        verify_sweep(["thm21"], (1, 1))
    with pytest.raises(ValueError, match="no instances of thm33 in") as exc:
        verify_sweep(["thm21", "thm33"], (3, 3), i_range=(5, 6))
    assert "thm21" not in str(exc.value)
    with pytest.raises(ValueError, match="thm32, lemma31"):
        verify_sweep(["thm32", "lemma31"], (1, 1), (2, 3))


def test_empty_sweep_fails_before_any_check(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a check ran before the empty-sweep error")

    monkeypatch.setattr("jacograph.theorems.thm32_check", refuse)
    with pytest.raises(ValueError, match="no instances of thm21 in"):
        verify_sweep(["thm21", "thm32"], (1, 1))


def domain_count(tid, n_range, m_range, i_range):
    """Instances of ``tid`` in the ranges, counted one by one from its domain."""
    ns = range(n_range[0], n_range[1] + 1)
    ms = range(m_range[0], m_range[1] + 1)
    if tid == "thm21":
        return sum(1 for n in ns if n >= 2)
    if tid == "thm32":
        return sum(1 for n in ns for m in ms if m <= n)
    if tid == "lemma31":
        return sum(1 for n in ns for m in ms if n >= 2 and m >= 2)
    i_lo, i_hi = i_range or (2, n_range[1])
    return sum(1 for n in ns if n >= 3 for m in ms for i in range(2, n + 1) if i_lo <= i <= i_hi)


def test_instance_counts_match_the_sweep(monkeypatch):
    def stub(tid):
        return lambda *args, **kwargs: CheckRecord(tid, {}, "equality", 0, 0, True)

    for tid in ("thm32", "cor31", "lemma31", "thm33"):
        monkeypatch.setattr(f"jacograph.theorems.{tid}_check", stub(tid))
    ranges = [(lo, hi) for lo in range(1, 6) for hi in range(lo, 6)]
    for tid in ("thm21", "thm32", "lemma31", "thm33"):
        for n_range in ranges:
            for m_range in ranges:
                for i_range in [None] + (ranges if tid == "thm33" else []):
                    count = domain_count(tid, n_range, m_range, i_range)
                    if count == 0:
                        with pytest.raises(ValueError, match="no instances"):
                            verify_sweep([tid], n_range, m_range, i_range)
                    else:
                        assert verify_sweep([tid], n_range, m_range, i_range).total == count


def test_empty_sweeps_are_found_in_constant_time():
    def walked(signum, frame):
        raise TimeoutError("the empty-sweep check walked the ranges")

    wide = (1, 10**12)
    cases = (
        ("thm32", (10**12 + 1, 2 * 10**12), None),  # m above every n
        ("lemma31", (1, 1), None),
        ("thm33", wide, (1, 1)),
        ("thm33", wide, (10**12 + 1, 10**12 + 1)),  # join vertex above every n
    )
    previous = signal.signal(signal.SIGALRM, walked)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    try:
        for tid, m_range, i_range in cases:
            start = time.perf_counter()
            with pytest.raises(ValueError, match=f"no instances of {tid} in"):
                verify_sweep([tid], wide, m_range, i_range)
            assert time.perf_counter() - start < 0.1, tid
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_summary_counts_by_theorem():
    report = verify_sweep(["thm21", "lemma31"], (2, 5), (2, 3))
    by = report.by_theorem()
    assert by["thm21"] == (4, 0)
    assert by["lemma31"] == (8, 0)
    assert "PASS" in report.summary_text()
