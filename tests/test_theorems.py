"""Identity evaluators and verification sweeps against brute-force oracles."""

import json
import random
import signal
import time
from collections.abc import Iterator
from itertools import chain, combinations, repeat
from operator import sub

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import jacograph.jaco
import jacograph.theorems as theorems
from jacograph import (
    THEOREM_IDS,
    CheckRecord,
    cor31_check,
    cross_pair_sum,
    degree_histogram,
    degree_sequence,
    disjoint_union,
    edge_joint,
    fib,
    firr_t,
    irr_t,
    lemma31_check,
    pair_sum_histogram,
    pair_sum_by_rank,
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
    underlying_degree_counts,
    underlying_degrees,
    underlying_graph,
    verify_sweep,
)
from jacograph.cli import main
from jacograph.jaco import underlying_metric


def brute(ws):
    return sum(abs(a - b) for a, b in combinations(list(ws), 2))


def sorted_pair_sum(ws):
    # the k-th smallest of N weights is the larger one in k - 1 pairs
    ws = sorted(ws)
    return sum(w * (2 * k - 1 - len(ws)) for k, w in enumerate(ws, 1))


def clear_union_caches():
    theorems._oracle_counts.cache_clear()
    theorems._formula_tail.cache_clear()
    theorems._formula_totals.cache_clear()


@pytest.fixture
def fresh_union_caches():
    """Empty the process-wide union caches before and after a test that patches a name they call."""
    clear_union_caches()
    yield
    clear_union_caches()


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


def test_growth_oracle_catches_a_formula_side_off_by_one(monkeypatch, capsys, fresh_union_caches):
    # The oracle reads no metric of J*_n: a formula side one too high must
    # turn every growth record red, and verify's exit code with it.
    monkeypatch.setattr(theorems, "underlying_metric", lambda x, kind: underlying_metric(x, kind) + 1)
    report = verify_sweep(["thm21", "thm31"], (2, 60))
    assert report.counts == {"thm21": [59, 59], "thm31": [59, 59]}
    for rec in report.records:
        assert rec.rhs == rec.lhs + 1, rec
    assert main(["verify", "thm21", "thm31", "--n", "2..60"]) == 1
    assert capsys.readouterr().out.endswith("overall: FAIL (118 checks, 118 mismatches)\n")


def test_growth_formula_side_reads_no_per_vertex_degrees(monkeypatch):
    # the oracle keeps the isqrt degrees; the recursion reads J*_n's tail
    # counts off the Fibonacci word and no degree, so the two sides share no
    # degree source
    oracle = {
        n: (pair_sum_by_rank(underlying_degrees(n + 1)), pair_sum_by_rank(map(fib, underlying_degrees(n + 1))))
        for n in range(2, 81)
    }

    def refuse(*args):
        raise AssertionError("the growth recursion read per-vertex degrees")

    monkeypatch.setattr(theorems, "underlying_degrees", refuse)
    for n in range(2, 81):
        assert (thm21_rhs(n), thm31_rhs(n)) == oracle[n], n


@pytest.mark.parametrize("j", [3, 41, 80])  # J*_2's tail is one degree wide: no vertex can move up in it
def test_one_faulty_tail_shows_at_exactly_one_n(monkeypatch, j):
    # one vertex of J*_j's lowest tail degree moves one degree up; the step
    # reads J*_n's own tail, so only the step from J*_j to J*_{j+1} is wrong:
    # one red record per kind, at n = j
    tail_of = theorems._tail

    def faulty(x):
        k, lo, tail = tail_of(x)
        if x != j:
            return k, lo, tail
        moved = bytearray(tail)
        moved[-1] -= 1
        moved[-2] += 1
        return k, lo, bytes(moved)

    monkeypatch.setattr(theorems, "_tail", faulty)
    report = verify_sweep(["thm21", "thm31"], (2, 80))
    assert report.counts == {"thm21": [79, 1], "thm31": [79, 1]}
    red = [(rec.theorem, rec.params) for rec in report.records if not rec.matched]
    assert red == [("thm21", {"n": j}), ("thm31", {"n": j})]


def test_a_growth_sweep_never_walks_the_prefix(monkeypatch):
    # each step is read off its own J*_n: no walk from J*_1 runs
    def refuse(*args):
        raise AssertionError("a growth check walked from J*_1")

    monkeypatch.setattr(jacograph.jaco, "underlying_metrics", refuse)
    assert not hasattr(theorems, "underlying_metrics")
    report = verify_sweep(["thm21", "thm31"], (2, 300))
    assert report.all_matched and report.counts == {"thm21": [299, 0], "thm31": [299, 0]}


def test_growth_checks_keep_nothing_per_n(monkeypatch, fresh_union_caches):
    # each check reads the value of J*_n from underlying_metric and its tail
    # from _tail, uncached, so a second identical sweep calls both as often
    # as the first, and no cache of the module gains an entry
    calls = []

    def counted(name, f):
        def wrapper(*args):
            calls.append(name)
            return f(*args)

        return wrapper

    monkeypatch.setattr(theorems, "underlying_metric", counted("metric", underlying_metric))
    monkeypatch.setattr(theorems, "_tail", counted("tail", theorems._tail))
    caches = [theorems._oracle_counts, theorems._formula_tail, theorems._formula_totals, theorems._union_degrees]
    caches += [theorems._thm33_union_terms]
    held = [c.cache_info().currsize for c in caches]
    for sweeps in (1, 2):
        assert verify_sweep(["thm21", "thm31"], (2, 60)).all_matched
        assert (calls.count("metric"), calls.count("tail")) == (118 * sweeps, 118 * sweeps)
    assert [c.cache_info().currsize for c in caches] == held


def test_growth_formula_side_does_not_depend_on_the_call_order():
    # each n twice, both kinds interleaved, in random order: every value
    # still equals the oracle's, as no check reads what one before it left
    oracle = {
        (rhs, n): pair_sum_by_rank(map(weight, underlying_degrees(n + 1)))
        for rhs, weight in ((thm21_rhs, int), (thm31_rhs, fib))
        for n in range(2, 401)
    }
    calls = list(oracle) * 2
    random.Random(7).shuffle(calls)
    for rhs, n in calls:
        assert rhs(n) == oracle[rhs, n], (rhs.__name__, n)


@settings(deadline=None)
@given(st.integers(min_value=2, max_value=10**5), st.sampled_from(["irr", "firr"]))
@example(2, "irr")
@example(2, "firr")  # lo = 1 from n = 2 to n = 4: the shift (f_{-2}, f_{-1}) = (-1, 1)
@example(3, "firr")
@example(4, "firr")
@example(5, "irr")
@example(5, "firr")  # lo = 2 at n = 5 and n = 6: the shift (f_{-1}, f_0) = (1, 0)
@example(6, "firr")
@example(7, "firr")  # lo = 3: the first shift with no negative index
@example(10**5, "irr")
@example(10**5, "firr")  # a stream of 23 607 terms, past the split's leaf
def test_growth_step_is_the_next_metric(n, kind):
    assert theorems._growth_rhs(n, kind) == underlying_metric(n + 1, kind)


def test_growth_examples_cover_every_negative_shift():
    # the examples above hold every n whose stream starts below f_0
    assert [n for n in range(2, 100) if jacograph.jaco._tail(n)[1] < 3] == [2, 3, 4, 5, 6]


def test_theorems_keeps_no_module_level_mutable_state():
    # what a check keeps between calls lives in functools caches, which a
    # test can count and clear; a dict, list, set or iterator at module
    # level would carry state from one check to the next unseen.  Dunder
    # names are the module's own machinery: __all__ and __builtins__.
    mutable = (dict, list, set, bytearray, Iterator)
    held = {
        name: type(value).__name__
        for name, value in vars(theorems).items()
        if isinstance(value, mutable) and not (name.startswith("__") and name.endswith("__"))
    }
    assert held == {}


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


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=2000).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))))
@example((1, 1))
@example((1656, 1))  # a union histogram of _LEAF entries, one leaf
@example((1657, 1))  # one entry more, split
def test_union_lhs_is_the_rank_sum_of_the_union_degrees(nm):
    n, m = nm
    union = underlying_degrees(n) + underlying_degrees(m)
    assert thm32_check(n, m).lhs == pair_sum_by_rank(union)
    assert cor31_check(n, m).lhs == pair_sum_by_rank(map(fib, union))


def test_union_histogram_counts_never_carry(monkeypatch, fresh_union_caches):
    # the union histogram is the sum of two ints, one byte per degree: 127 +
    # 127 stays in its byte, and a count of 128, which could carry into the
    # next degree's byte, is refused
    monkeypatch.setattr(theorems, "underlying_degrees", lambda x: (0,) + (1,) * 127)
    assert thm32_check(2, 1).lhs == pair_sum_by_rank((0, 0) + (1,) * 254) == 2 * 254
    monkeypatch.setattr(theorems, "underlying_degrees", lambda x: (0,) + (1,) * 128)
    clear_union_caches()
    for check in (thm32_check, cor31_check):
        with pytest.raises(ValueError, match="128 vertices of one degree"):
            check(2, 1)


def test_union_lhs_never_reads_the_memo(monkeypatch, fresh_union_caches):
    # a formula side's metric that answers 0 moves only the formula side, by
    # exactly the 2 (M_n + M_m) it drops for n > m, and to 0 for n = m
    clean = {}
    for n, m in ((9, 4), (6, 6), (7, 1)):
        for theorem, kind in (("thm32", "irr"), ("cor31", "firr")):
            clean[theorem, n, m] = theorems._union_check(theorem, n, m, kind)
    monkeypatch.setattr(theorems, "underlying_metric", lambda x, kind: 0)
    clear_union_caches()
    for n, m in ((9, 4), (6, 6), (7, 1)):
        for theorem, kind, weight in (("thm32", "irr", lambda d: d), ("cor31", "firr", fib)):
            metric = {x: pair_sum_naive([weight(d) for d in underlying_degrees(x)]) for x in (n, m)}
            rec = theorems._union_check(theorem, n, m, kind)
            union = underlying_degrees(n) + underlying_degrees(m)
            assert rec.lhs == clean[theorem, n, m].lhs == pair_sum_naive([weight(d) for d in union]) > 0
            assert rec.rhs == (0 if n == m else clean[theorem, n, m].rhs - 2 * (metric[n] + metric[m]))
            assert not rec.matched


def test_union_sweep_looks_up_no_weight(monkeypatch):
    def refuse(*args):
        raise AssertionError("a union check looked up a Fibonacci number")

    monkeypatch.setattr("jacograph.theorems.fib", refuse)
    monkeypatch.setattr("jacograph.fibonacci.fib", refuse)
    report = verify_sweep(["thm32", "cor31"], (2, 40), (1, 40))
    assert report.total == 2 * sum(range(2, 41))
    assert report.all_matched


def test_union_sweep_builds_no_degree_sequence(monkeypatch, fresh_union_caches):
    # the formula side reads word-built tails and per-graph metrics only; the
    # oracle counts the isqrt degrees, so its histograms are made before the
    # patch, and the formula side's tails and totals all under it
    def refuse(*args):
        raise AssertionError("a union check's formula side built a per-vertex degree sequence")

    for x in range(1, 41):
        theorems._oracle_counts(x)
    monkeypatch.setattr("jacograph.theorems.underlying_degrees", refuse)
    monkeypatch.setattr("jacograph.theorems.degree_histogram", refuse)
    report = verify_sweep(["thm32", "cor31"], (1, 40), (1, 40))
    assert report.total == 2 * sum(range(1, 41))
    assert report.all_matched


def test_union_sweep_builds_each_histogram_once_per_side(monkeypatch):
    built = {"degrees": [], "tail": []}

    def counting(source, name):
        def build(n):
            built[name].append(n)
            return source(n)

        return build

    monkeypatch.setattr(theorems, "underlying_degrees", counting(underlying_degrees, "degrees"))
    monkeypatch.setattr(theorems, "_tail", counting(theorems._tail, "tail"))
    clear_union_caches()
    report = verify_sweep(["thm32", "cor31"], (1, 40), (1, 40))
    clear_union_caches()
    assert report.total == 2 * sum(range(1, 41)) and report.all_matched
    # the oracle's degrees of J*_1..J*_40 once each, and the formula's
    # tails once each for both kinds; without the caches every instance
    # builds two of each
    assert sorted(built["degrees"]) == list(range(1, 41))
    assert sorted(built["tail"]) == list(range(1, 41))


def test_union_checks_do_not_depend_on_the_order_of_the_instances():
    # the two histogram caches keep no stale value: shuffled calls equal
    # in-order calls made with both empty
    instances = [(check, n, m) for check in (thm32_check, cor31_check) for n in range(1, 31) for m in range(1, n + 1)]
    in_order = {}
    for check, n, m in instances:
        clear_union_caches()
        in_order[check, n, m] = check(n, m).as_dict()
    shuffled = list(instances)
    random.Random(24).shuffle(shuffled)
    clear_union_caches()
    for check, n, m in shuffled:
        assert check(n, m).as_dict() == in_order[check, n, m], (check, n, m)


def test_union_sides_read_their_own_histograms(monkeypatch, fresh_union_caches):
    # a fault in the formula side's bands moves only the right side
    clean = {(n, m): thm32_check(n, m) for n, m in ((9, 4), (30, 12))}
    tail = theorems._tail

    def faulty(x):
        k, lo, counts = tail(x)
        return k, lo, bytes([counts[0] + 1]) + counts[1:]  # one more tail vertex of degree k

    monkeypatch.setattr(theorems, "_tail", faulty)
    clear_union_caches()
    for (n, m), rec in clean.items():
        moved = thm32_check(n, m)
        assert moved.lhs == rec.lhs and moved.rhs != rec.rhs


def test_a_vertex_moved_in_the_word_turns_cor31_red(monkeypatch, fresh_union_caches):
    # the union oracle counts the isqrt degrees, so a fault in jaco._tail
    # reaches the formula side alone: one tail vertex moved from the top
    # nonzero count to the degree below, in every graph that has one to move
    tail = jacograph.jaco._tail

    def moved(x):
        k, lo, counts = tail(x)
        top = len(counts) - len(counts.lstrip(b"\x00"))
        if top + 1 == len(counts):
            return k, lo, counts
        faulty = bytearray(counts)
        faulty[top] -= 1
        faulty[top + 1] += 1
        return k, lo, bytes(faulty)

    assert moved(40) != tail(40)
    monkeypatch.setattr(jacograph.jaco, "_tail", moved)
    monkeypatch.setattr(theorems, "_tail", moved)
    report = verify_sweep(["cor31"], (2, 40), (1, 40))
    assert report.counts["cor31"][1] > 0
    # at n = m the kernel on twice the true histogram against four times the moved one's value
    assert not cor31_check(40, 40).matched


def correction_sum(n, m, kind):
    """The cross term of the union bound: its right side less 2 (M_n + M_m)."""
    return theorems._union_bound(n, m, kind) - 2 * (underlying_metric(n, kind) + underlying_metric(m, kind))


def explicit_tails(n, m):
    """The histograms of J*_n and J*_m with one vertex of each degree 1..k_m removed, as lists."""
    cut = len(underlying_degree_counts(m)) - 1
    return [list(map(sub, underlying_degree_counts(x), chain((0,), repeat(1, cut), repeat(0)))) for x in (n, m)]


@given(st.integers(min_value=1, max_value=400).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))))
@example((400, 400))
@example((400, 399))  # the widest window
@example((400, 249))  # k_m = 154 = lo_n + 1: a one-degree window
@example((400, 248))  # k_m = lo_n: no window
@example((2, 1))
@example((30000, 1))
@example((2000, 1999))
@example((30000, 25000))  # a window of 3 992 degrees, past the split's leaf
@example((29000, 17000))  # no window
def test_correction_sum_is_the_cross_pair_sum_of_the_tails(nm):
    n, m = nm
    for kind in ("irr", "firr"):
        assert correction_sum(n, m, kind) == cross_pair_sum(*explicit_tails(n, m), kind), kind


def test_correction_sum_is_the_bipartite_loop_up_to_40():
    for kind, weight in (("irr", int), ("firr", fib)):
        for n in range(1, 41):
            ws = [weight(d) for d in underlying_degrees(n)]
            _, e, w, *_ = theorems._formula_totals(n, kind)
            assert e + w == sum(ws)  # the tail's weight plus the head's
            for m in range(1, n + 1):
                cut = max(underlying_degrees(m))
                wm = [weight(d) for d in underlying_degrees(m)[cut:]]
                expected = sum(abs(a - b) for a in ws[cut:] for b in wm)
                assert correction_sum(n, m, kind) == expected, (kind, n, m)


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


def test_lemma31_oracle_is_the_rank_sum(monkeypatch):
    # Both sides of lemma31 are the joint oracle that thm33 uses, the rank
    # sum over the weights; the histogram kernel is not on its path.
    expected = verify_sweep(["lemma31"], (2, 8), (2, 8)).records

    def refuse(*args):
        raise AssertionError("lemma31 ran the histogram kernel")

    monkeypatch.setattr("jacograph.irregularity.pair_sum_histogram", refuse)
    assert verify_sweep(["lemma31"], (2, 8), (2, 8)).records == expected


def test_lemma31_sides_equal_the_naive_oracle_on_the_built_graphs():
    for n in range(2, 11):
        gn = underlying_graph(n)
        for m in range(2, 11):
            gm = underlying_graph(m)
            union = pair_sum_naive([fib(d) for d in degree_sequence(disjoint_union(gn, gm))])
            joined = pair_sum_naive([fib(d) for d in degree_sequence(edge_joint(gn, 1, gm, 1))])
            rec = lemma31_check(n, m)
            assert (rec.lhs, rec.rhs) == (union, joined), (n, m)


# -- arbitrary-vertex joint --------------------------------------------------


def test_thm33_exact_is_the_oracle():
    # independent recomputation from bumped degree sequences
    for n, m, i in ((3, 1, 3), (5, 5, 5), (6, 4, 5), (12, 12, 7)):
        dn = list(underlying_degrees(n))
        dm = list(underlying_degrees(m))
        dn[i - 1] += 1
        dm[0] += 1
        assert thm33_exact(n, m, i) == brute([fib(d) for d in dn + dm])


def test_thm33_exact_equals_the_naive_oracle_on_the_joined_graph():
    for n in range(3, 11):
        gn = underlying_graph(n)
        for m in range(1, 11):
            gm = underlying_graph(m)
            for i in range(2, n + 1):
                weights = [fib(d) for d in degree_sequence(edge_joint(gn, i, gm, 1))]
                assert thm33_exact(n, m, i) == pair_sum_naive(weights), (n, m, i)


def test_thm33_frozen_instances():
    assert thm33_exact(3, 1, 3) == 0  # all four weights become 1
    assert thm33_literal(3, 1, 3) == 4  # the formula misses the newcomer's weight change
    assert thm33_exact(5, 5, 5) == 21
    assert thm33_literal(5, 5, 5) == 14
    assert thm33_exact(6, 4, 5) == 30
    assert thm33_literal(6, 4, 5) == 28


def test_thm33_literal_matches_a_double_loop_over_vertices():
    # the printed formula term by term over the weight lists of both copies
    def literal(n, m, i):
        wn = [fib(d) for d in underlying_degrees(n)]
        wm = [fib(d) for d in underlying_degrees(m)]
        pivot = wn[i - 1]
        cross = sum(abs(wa - wb) for wa in wn for wb in wm)
        side = sum(pivot - w for w in wn[: i - 1] + wn[i:] + wm)
        return brute(wn) + brute(wm) + cross + side

    for n in range(3, 13):
        for m in range(1, 13):
            for i in range(2, n + 1):
                assert thm33_literal(n, m, i) == literal(n, m, i), (n, m, i)


def test_joint_oracles_build_no_graph_and_count_degrees_once_per_pair(monkeypatch):
    def refuse(*args):
        raise AssertionError("the joint oracle built a graph")

    calls = []

    def counting(n):
        calls.append(n)
        return underlying_degrees(n)

    monkeypatch.setattr("jacograph.jaco.underlying_graph", refuse)
    monkeypatch.setattr("jacograph.graphs.disjoint_union", refuse)
    monkeypatch.setattr(theorems, "underlying_degrees", counting)
    theorems._union_degrees.cache_clear()
    report = verify_sweep(["lemma31", "thm33"], (3, 12), (1, 12))
    theorems._union_degrees.cache_clear()
    assert report.counts == {"lemma31": [110, 0], "thm33": [780, 752]}
    # The one-entry memo holds the current (n, m)'s union degrees: two
    # isqrt passes per (n, m) per id, lemma31 (m = 2..12) 10 * 11 pairs and
    # thm33 (m = 1..12) 10 * 12, not two per instance, 2 * 890.
    assert len(calls) == 2 * (110 + 120) == 460


def test_thm33_sides_do_not_depend_on_the_order_of_the_instances():
    # the oracle's union degrees and the literal side's (n, m) terms keep
    # no stale value: shuffled calls equal in-order calls made with both
    # memos empty
    instances = [(n, m, i) for n in range(3, 11) for m in range(1, 11) for i in range(2, n + 1)]
    in_order = {}
    for p in instances:
        theorems._union_degrees.cache_clear()
        theorems._thm33_union_terms.cache_clear()
        in_order[p] = (thm33_exact(*p), thm33_literal(*p))
    shuffled = list(instances)
    random.Random(22).shuffle(shuffled)
    for p in shuffled:
        assert (thm33_exact(*p), thm33_literal(*p)) == in_order[p], p


def test_thm33_literal_reads_no_graph(monkeypatch):
    def refuse(*args):
        raise AssertionError("the formula side built a graph")

    monkeypatch.setattr("jacograph.jaco.underlying_graph", refuse)
    for n in range(3, 13):
        for m in range(1, 13):
            for i in range(2, n + 1):
                thm33_literal(n, m, i)


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
    assert report.counts == {"lemma31": [8, 0], "thm21": [4, 0]}
    assert report.summary_dict()["by_theorem"] == {
        "lemma31": {"total": 8, "mismatched": 0},
        "thm21": {"total": 4, "mismatched": 0},
    }
    assert "PASS" in report.summary_text()


def rescanned_summary_text(records):
    # The summary as a loop over every record, kept as the reference for the
    # counters: per-id counts, the first 20 mismatches, then how many more.
    by = {}
    for rec in records:
        total, bad = by.get(rec.theorem, (0, 0))
        by[rec.theorem] = (total + 1, bad + (not rec.matched))
    mismatches = sum(1 for rec in records if not rec.matched)
    lines = [f"{tid}: {total} checks, {bad} mismatches" for tid, (total, bad) in sorted(by.items())]
    shown = 0
    for rec in records:
        if rec.matched:
            continue
        if shown == 20:
            lines.append(f"  ... {mismatches - shown} more mismatches")
            break
        params = " ".join(f"{k}={v}" for k, v in rec.params.items())
        lines.append(f"  mismatch {rec.theorem} {params}: lhs={rec.lhs} rhs={rec.rhs} ({rec.relation})")
        shown += 1
    verdict = "FAIL" if mismatches else "PASS"
    lines.append(f"overall: {verdict} ({len(records)} checks, {mismatches} mismatches)")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("bad", [0, 19, 20, 21, 45])
def test_summary_text_lists_the_first_twenty_mismatches(bad):
    # two ids, their records interleaved, the mismatches spread over both
    records = []
    for k in range(60):
        theorem = ("thm33", "lemma31")[k % 2]
        records.append(CheckRecord(theorem, {"n": k + 2, "m": 1}, "equality", k, k + (k < bad), k >= bad))
    report = theorems.VerifyReport()
    for rec in records:
        report.add(rec)
    assert report.summary_text() == rescanned_summary_text(records)
    assert report.mismatch_count == bad and report.total == 60
    assert len(report.mismatches) == min(bad, 20)
    assert ("more mismatches" in report.summary_text()) == (bad > 20)
