"""The records: IrrValue, JacoProfile, CheckRecord and VerifyReport."""

import hashlib

import pytest

from jacograph import (
    METHOD_CLOSED,
    CheckRecord,
    IrrValue,
    JacoProfile,
    VerifyReport,
    build_profile,
    irr_t,
    star_firr_closed,
    verify_sweep,
)
from jacograph.cli import main

# sha256 and size of ``verify thm21 thm31 thm32 cor31 lemma31 thm33 --n 2..7
# --m 1..4 --format json``, recorded while the records were dataclasses.
ALL_IDS_JSON = ("66df4031f2a76bac390df00e818ed44636bd2bc7f81c9736df7b3fd86e2adbec", 35607)


def record(detail=None):
    return CheckRecord("cor31", {"n": 3, "m": 2}, "upper-bound", 4, 5, True, detail)


def test_records_refuse_attribute_assignment():
    for rec, name in ((IrrValue(3, METHOD_CLOSED), "value"), (build_profile(5), "in_degrees"), (record(), "lhs")):
        with pytest.raises(AttributeError):
            setattr(rec, name, 0)
        with pytest.raises(AttributeError):
            rec.extra = 0


def test_irr_value_fields_and_equality():
    value = star_firr_closed(4)
    assert (value.value, value.method) == (8, METHOD_CLOSED)
    assert value == IrrValue(8, METHOD_CLOSED) == (8, METHOD_CLOSED) != IrrValue(8, irr_t([1]).method)


def test_jaco_profile_reads_its_in_degrees():
    prof = build_profile(5)
    assert prof == JacoProfile((0, 1, 1, 1, 2)) and prof.n_max == 5
    readings = [(prof.in_degree(i), prof.out_degree_unbounded(i), prof.out_reach(i)) for i in (1, 4)]
    assert readings == [(0, 1, 2), (1, 3, 7)]
    with pytest.raises(ValueError, match="out of profile range 1..5"):
        prof.in_degree(6)


def test_check_record_as_dict_keeps_the_field_order_and_drops_a_none_detail():
    keys = ["theorem", "params", "relation", "lhs", "rhs", "matched"]
    plain = record()
    assert plain.detail is None and list(plain.as_dict()) == keys
    assert plain.as_dict()["params"] is plain.params  # the record's own dict, not a copy
    detail = {"rhs_degree_reading": 5}
    full = record(detail).as_dict()
    assert list(full) == [*keys, "detail"] and full["detail"] is detail
    assert record(detail) == record(detail) != plain


def test_verify_report_counts_as_records_come():
    fresh, other = VerifyReport(), VerifyReport()
    assert fresh.records == [] and fresh.records is not other.records
    assert (fresh.total, fresh.mismatch_count, fresh.all_matched) == (0, 0, True)
    bad = CheckRecord("thm21", {"n": 2}, "equality", 1, 2, False)
    for rec in (record(), bad, record()):
        fresh.add(rec)
    assert fresh.records == []  # add keeps no record
    assert fresh.counts == {"cor31": [2, 0], "thm21": [1, 1]} and fresh.mismatches == [bad]
    assert (fresh.total, fresh.mismatch_count, fresh.all_matched) == (3, 1, False)
    kept = VerifyReport(records=[bad])
    assert kept.to_json_dict()["checks"] == [bad.as_dict()] and kept.counts == {}
    sweep = verify_sweep(["thm21"], (2, 5))
    assert len(sweep.records) == sweep.total == 4 and sweep.all_matched


def test_json_report_of_every_check_is_byte_equal_to_the_recorded_one(capsys):
    ids = ["thm21", "thm31", "thm32", "cor31", "lemma31", "thm33"]
    rc = main(["verify", *ids, "--n", "2..7", "--m", "1..4", "--format", "json"])
    out = capsys.readouterr().out.encode()
    assert rc == 1  # thm33's literal reading fails by design
    assert (hashlib.sha256(out).hexdigest(), len(out)) == ALL_IDS_JSON
