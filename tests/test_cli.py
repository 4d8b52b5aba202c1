"""Command-line surface: formats, exit codes, determinism."""

import json
import operator
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import jacograph
from jacograph import (
    complete_bipartite,
    cycle,
    degree_histogram,
    degree_sequence,
    fib,
    firr_t,
    irr_t,
    out_degree,
    pair_sum_histogram,
    path,
    star,
    underlying_degree_counts,
    underlying_degrees,
)
from jacograph.cli import REPORTED_FIRR, REPORTED_IRR, counts_for_spec, main


def module_env():
    """Environment of a child that imports the package under test, installed or not."""
    src = str(Path(jacograph.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path}


def run_module(*argv):
    """``python -m jacograph`` in a child."""
    return subprocess.run(
        [sys.executable, "-m", "jacograph", *argv], capture_output=True, text=True, env=module_env()
    )


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_table_irr_text(capsys):
    rc, out, _ = run_cli(capsys, "table", "irr", "12")
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 13  # header + 12 rows
    row7 = lines[7].split()
    assert row7[0] == "7" and row7[-1] == "26"
    assert "*differs from reported 149" in lines[12]
    assert lines[12].split("*")[0].split()[-1] == "148"


def test_table_firr_text_flags_row_8(capsys):
    rc, out, _ = run_cli(capsys, "table", "firr", "12")
    assert rc == 0
    lines = out.splitlines()
    assert lines[12].split()[-1] == "322"
    assert "*differs from reported 54" in lines[8]
    assert "42" in lines[8].split()


def test_table_single_row(capsys):
    rc, out, _ = run_cli(capsys, "table", "irr", "1")
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[1].split() == ["1", "0", "1", "(0)", "0"]


def test_table_csv(capsys):
    rc, out, _ = run_cli(capsys, "table", "irr", "12", "--format", "csv")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "i,in_degree,out_degree,sequence,irr,note"
    assert lines[7] == "7,3,4,(1,2,3,4,4,3,3),26,"
    assert lines[12] == "12,4,8,(1,2,3,4,5,6,7,7,6,6,5,4),148,reported=149"


def test_table_json(capsys):
    rc, out, _ = run_cli(capsys, "table", "firr", "12", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["kind"] == "firr"
    rows = payload["rows"]
    assert len(rows) == 12
    assert rows[11]["value"] == 322 and rows[11]["matches_reported"] is True
    assert rows[7]["value"] == 42
    assert rows[7]["reported"] == 54 and rows[7]["matches_reported"] is False
    assert rows[7]["sequence"] == [1, 1, 2, 3, 5, 3, 3, 2]


def test_table_rejects_bad_size(capsys):
    rc, _, err = run_cli(capsys, "table", "irr", "0")
    assert rc == 2
    assert "error" in err


def test_metric_examples(capsys):
    assert run_cli(capsys, "metric", "firr", "star:4")[:2] == (0, "8\n")
    assert run_cli(capsys, "metric", "firrpm", "path:6")[:2] == (0, "16\n")
    assert run_cli(capsys, "metric", "irr", "jaco:9")[:2] == (0, "60\n")
    assert run_cli(capsys, "metric", "firr", "biclique:3:2")[:2] == (0, "6\n")
    assert run_cli(capsys, "metric", "irr", "cycle:5")[:2] == (0, "0\n")


def test_metric_from_edge_list_file(tmp_path, capsys):
    f = tmp_path / "g.txt"
    f.write_text("1 2\n2 3\n")
    rc, out, _ = run_cli(capsys, "metric", "irr", str(f))
    assert rc == 0 and out == "2\n"


def test_metric_bad_specs(capsys):
    for spec in ("jaco:x", "path:", "biclique:3", "star:0", "no-such-file.txt"):
        rc, _, err = run_cli(capsys, "metric", "irr", spec)
        assert rc == 2, spec
        assert "error" in err


def test_family_histograms_are_those_of_the_built_graphs(monkeypatch):
    built = {}
    for n in range(1, 13):
        built[f"path:{n}"] = path(n)
        built[f"star:{n}"] = star(n)
        if n >= 3:
            built[f"cycle:{n}"] = cycle(n)
        for m in range(1, n + 1):
            built[f"biclique:{n}:{m}"] = complete_bipartite(n, m)

    def refuse(spec):
        raise AssertionError(f"{spec} built its graph")

    monkeypatch.setattr("jacograph.cli.graph_for_spec", refuse)
    for spec, g in built.items():
        assert counts_for_spec(spec) == degree_histogram(degree_sequence(g)), spec


def test_family_bad_arguments_keep_the_builders_messages(capsys):
    for spec, message in (
        ("path:0", "path needs n >= 1, got 0"),
        ("cycle:2", "cycle needs n >= 3, got 2"),
        ("star:-1", "star needs n >= 1 leaves, got -1"),
        ("biclique:2:3", "complete bipartite needs n >= m >= 1, got (2, 3)"),
        ("biclique:2:0", "complete bipartite needs n >= m >= 1, got (2, 0)"),
    ):
        assert run_cli(capsys, "metric", "irr", spec) == (2, "", f"error: graph spec {spec!r}: {message}\n")


def test_metric_too_large_exits_2(capsys):
    # The count list for 10^15 vertices (and the index for 10^20) cannot be
    # allocated at all, so each request fails at once without using memory.
    for spec in ("jaco:1000000000000000", "jaco:100000000000000000000"):
        rc, out, err = run_cli(capsys, "metric", "irr", spec)
        assert rc == 2, spec
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1


def test_verify_passing_sweep(capsys):
    rc, out, _ = run_cli(capsys, "verify", "thm21", "--n", "2..40")
    assert rc == 0
    assert "thm21: 39 checks, 0 mismatches" in out
    assert "overall: PASS" in out


def test_verify_mismatching_sweep_exits_1(capsys):
    rc, out, _ = run_cli(capsys, "verify", "thm33", "--n", "3..6", "--m", "1..1")
    assert rc == 1
    assert "overall: FAIL" in out


def test_verify_json_format(capsys):
    rc, out, _ = run_cli(capsys, "verify", "lemma31", "--n", "2..5", "--m", "2..5", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["all_matched"] is True
    assert payload["summary"]["total"] == 16
    assert payload["checks"][0]["theorem"] == "lemma31"


def test_verify_writes_report_even_on_mismatch(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    rc, out, _ = run_cli(
        capsys, "verify", "thm33", "--n", "3..4", "--m", "1..1", "--out", str(out_path)
    )
    assert rc == 1
    payload = json.loads(out_path.read_text())
    assert payload["all_matched"] is False
    assert "overall: FAIL" in out  # summary still printed


def test_verify_single_value_range(capsys):
    rc, out, _ = run_cli(capsys, "verify", "thm32", "--n", "5", "--m", "5")
    assert rc == 0
    assert "thm32: 1 checks, 0 mismatches" in out


def test_verify_rejects_bad_ranges(capsys):
    for rng in ("5..2", "0..3", "x..y"):
        rc, _, err = run_cli(capsys, "verify", "thm21", "--n", rng)
        assert rc == 2
        assert "error" in err


def test_verify_without_instances_exits_2(capsys):
    for argv in (("thm21", "--n", "1..1"), ("thm33", "--n", "3..3", "--i", "5..6")):
        rc, out, err = run_cli(capsys, "verify", *argv)
        assert rc == 2, argv
        assert out == ""
        assert err.startswith("error:") and argv[0] in err and len(err.splitlines()) == 1


def test_verify_rejects_unknown_theorem(capsys):
    rc, _, _ = run_cli(capsys, "verify", "thm99")
    assert rc == 2


def test_export_jaco_edgelist(capsys):
    rc, out, _ = run_cli(capsys, "export", "jaco:3")
    assert rc == 0 and out == "1 2\n2 3\n"
    rc, out, _ = run_cli(capsys, "export", "jaco:1")
    assert rc == 0 and out == ""


def test_export_dot(capsys):
    rc, out, _ = run_cli(capsys, "export", "path:2", "--format", "dot")
    assert rc == 0
    assert out == "graph G {\n  1;\n  2;\n  1 -- 2;\n}\n"


def test_export_json(capsys):
    rc, out, _ = run_cli(capsys, "export", "jaco:3", "--format", "json")
    assert rc == 0
    assert json.loads(out) == {"n": 3, "edges": [[1, 2], [2, 3]]}


def test_export_to_file(tmp_path, capsys):
    out_path = tmp_path / "g.edges"
    rc, out, _ = run_cli(capsys, "export", "jaco:3", "--out", str(out_path))
    assert rc == 0 and out == ""
    assert out_path.read_text() == "1 2\n2 3\n"


def test_export_unwritable_path(tmp_path, capsys):
    rc, _, err = run_cli(capsys, "export", "jaco:3", "--out", str(tmp_path / "no" / "dir" / "f"))
    assert rc == 2
    assert "cannot write" in err


def test_determinism(capsys):
    first = run_cli(capsys, "table", "firr", "12", "--format", "json")
    second = run_cli(capsys, "table", "firr", "12", "--format", "json")
    assert first == second
    a = run_cli(capsys, "verify", "thm32", "cor31", "--n", "1..8", "--m", "1..8", "--format", "json")
    b = run_cli(capsys, "verify", "thm32", "cor31", "--n", "1..8", "--m", "1..8", "--format", "json")
    assert a == b


def test_usage_errors_exit_2(capsys):
    assert run_cli(capsys, "table", "irr")[0] == 2  # missing size
    assert run_cli(capsys, "metric", "nope", "path:3")[0] == 2
    assert run_cli(capsys)[0] == 2  # no subcommand


def test_help_exits_0(capsys):
    assert run_cli(capsys, "--help")[0] == 0


def test_module_entry_point():
    proc = run_module("metric", "firr", "jaco:12")
    assert proc.returncode == 0
    assert proc.stdout == "322\n"


def test_big_metric_prints_in_full():
    # exact output of a value with thousands of digits
    proc = run_module("metric", "firr", "jaco:20000")
    assert proc.returncode == 0
    digits = proc.stdout.strip()
    assert digits.isdigit() and len(digits) > 2000


@pytest.fixture
def set_str_cap():
    """Sets CPython's int-to-str digit cap for one test, where it has one."""
    old = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    setter = getattr(sys, "set_int_max_str_digits", lambda digits: None)
    yield setter
    setter(old)


def test_metric_prints_fibonacci_values_with_no_int_to_str_conversion(set_str_cap, monkeypatch, capsys):
    # With the cap left at 4300 digits, any int-to-str conversion of the
    # 12 923-digit value would raise.
    set_str_cap(4300)
    monkeypatch.setattr(sys, "set_int_max_str_digits", lambda digits: None, raising=False)
    rc, out, err = run_cli(capsys, "metric", "firr", "jaco:100000")
    assert (rc, err) == (0, "")
    digits = out.removesuffix("\n")
    value = pair_sum_histogram(underlying_degree_counts(100_000), "firr")
    assert digits.isdigit() and 10 ** (len(digits) - 1) <= value < 10 ** len(digits)
    assert digits[-20:] == f"{value % 10**20:020d}"


def test_metric_prints_long_values_exactly(capsys):
    rc, out, _ = run_cli(capsys, "metric", "firrpm", "jaco:100000")
    value = pair_sum_histogram(underlying_degree_counts(100_000), "firrpm")
    assert rc == 0 and value >= 10**10_000
    assert out == str(value) + "\n"


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_table_formats_agree_on_values(fmt, capsys):
    rc, out, _ = run_cli(capsys, "table", "irr", "5", "--format", fmt)
    assert rc == 0
    assert "8" in out  # irr of the 5-vertex graph


def reference_table(kind, n_max, fmt):
    """The whole table as one string, rendered from rows held all at once."""
    reported, metric = (REPORTED_IRR, irr_t) if kind == "irr" else (REPORTED_FIRR, firr_t)
    rows = []
    for i in range(1, n_max + 1):
        degrees = underlying_degrees(i)
        value = metric(degrees).value
        ref = reported.get(i)
        rows.append(
            {
                "i": i,
                "in_degree": i - out_degree(i),
                "out_degree": out_degree(i),
                "sequence": list(degrees) if kind == "irr" else [fib(d) for d in degrees],
                "value": value,
                "reported": ref,
                "matches_reported": None if ref is None else ref == value,
            }
        )
    if fmt == "json":
        return json.dumps({"kind": kind, "rows": rows}, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        lines = [f"i,in_degree,out_degree,sequence,{kind},note"]
        for r in rows:
            seq = "(" + ",".join(str(x) for x in r["sequence"]) + ")"
            note = f"reported={r['reported']}" if r["matches_reported"] is False else ""
            lines.append(f"{r['i']},{r['in_degree']},{r['out_degree']},{seq},{r['value']},{note}")
        return "\n".join(lines) + "\n"
    header = ("i", "d-", "d+", "sequence", kind)
    cells = [header]
    for r in rows:
        seq = "(" + ", ".join(str(x) for x in r["sequence"]) + ")"
        cells.append((str(r["i"]), str(r["in_degree"]), str(r["out_degree"]), seq, str(r["value"])))
    widths = [max(len(c[col]) for c in cells) for col in range(5)]
    lines = []
    for c, r in zip(cells, [None] + rows):
        line = "  ".join(c[k].ljust(widths[k]) if k == 3 else c[k].rjust(widths[k]) for k in range(5))
        if r is not None and r["matches_reported"] is False:
            line += f"  *differs from reported {r['reported']}"
        lines.append(line)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("kind", ["irr", "firr"])
def test_streamed_table_equals_the_whole_string_rendering(kind, fmt, tmp_path, capsys):
    # 12 and 8 hold the annotated rows (irr i = 12, firr i = 8)
    for n in (1, 2, 8, 12, 13, 40, 300):
        expected = reference_table(kind, n, fmt)
        assert run_cli(capsys, "table", kind, str(n), "--format", fmt) == (0, expected, ""), n
        out_path = tmp_path / f"{kind}-{n}.{fmt}"
        rc, out, err = run_cli(capsys, "table", kind, str(n), "--format", fmt, "--out", str(out_path))
        assert (rc, out, err) == (0, "", "")
        assert out_path.read_bytes() == expected.encode(), n


@pytest.mark.parametrize("kind, n_max", [("irr", 2000), ("firr", 1000)])
def test_table_text_widths_of_the_last_row_are_the_widest(kind, n_max):
    # The text table takes its column widths from its last row alone.  For
    # every table size up to n_max, the cell lengths of its last row must be
    # the largest of any of its rows.
    weight = (lambda d: d) if kind == "irr" else fib
    digits = []  # digits[d]: decimal digits of the weight of degree d
    widest = (0,) * 5
    for i in range(1, n_max + 1):
        counts = underlying_degree_counts(i)
        digits.extend(len(str(weight(d))) for d in range(len(digits), len(counts)))
        g = out_degree(i)
        # the sequence "(w, w, ...)" of row i is 2i characters plus the digits of its weights
        seq = 2 * i + sum(map(operator.mul, counts, digits))
        lengths = (len(str(i)), len(str(i - g)), len(str(g)), seq, len(str(pair_sum_histogram(counts, kind))))
        widest = tuple(map(max, widest, lengths))
        assert lengths == widest, i


@pytest.mark.parametrize("argv", [("irr", "2000", "--format", "csv"), ("firr", "1000", "--format", "json")])
def test_table_streams_in_memory_of_one_row(argv, peak_rss_kb):
    # Rows are written as they are made: each run peaked within 0.5 MiB of
    # the interpreter's own floor, a run of `metric irr jaco:1` (about
    # 16 MiB, CPython 3.11).  Holding every row and rendering one string
    # peaked at 103 MB (csv) and 115 MB (json).
    floor = peak_rss_kb("-m", "jacograph", "metric", "irr", "jaco:1")
    rc, peak = peak_rss_kb("-m", "jacograph", "table", *argv)
    assert floor[0] == rc == 0
    assert peak - floor[1] < 4 * 1024


@pytest.mark.parametrize("n, read", [("2000", 100), ("3", 0)])
def test_closed_stdout_exits_2_without_a_traceback(n, read):
    # With stdout block-buffered, as it is by default on a pipe, a large
    # table meets the closed pipe while it writes, a small one only when its
    # buffered output is flushed.
    env = module_env()
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.Popen(
        [sys.executable, "-m", "jacograph", "table", "irr", n, "--format", "csv"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    head = proc.stdout.read(read)
    proc.stdout.close()  # as `| head -c 100` does
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert b"i,in_degree,out_degree,sequence,irr,note\n".startswith(head[:41])
    assert err == b""


def test_table_unwritable_out_fails_before_any_row(tmp_path, capsys):
    start = time.perf_counter()
    rc, out, err = run_cli(capsys, "table", "irr", "1000000", "--out", str(tmp_path / "missing" / "x.csv"))
    assert time.perf_counter() - start < 1
    assert rc == 2 and out == ""
    assert err.startswith("error: cannot write") and len(err.splitlines()) == 1


def test_metric_unwritable_out_fails_before_the_kernel(tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("the kernel ran for a path that cannot be written")

    monkeypatch.setattr("jacograph.cli.pair_sum_histogram", refuse)
    out_path = tmp_path / "missing" / "x"
    rc, out, err = run_cli(capsys, "metric", "firr", "jaco:1000", "--out", str(out_path))
    assert rc == 2 and out == ""
    assert err.startswith(f"error: cannot write {out_path}: ") and len(err.splitlines()) == 1


def test_metric_bad_spec_creates_no_out_file(tmp_path, capsys):
    out_path = tmp_path / "x"
    rc, out, err = run_cli(capsys, "metric", "firr", "jaco:0", "--out", str(out_path))
    assert (rc, out) == (2, "")
    assert err == "error: graph spec 'jaco:0': n must be >= 1, got 0\n"
    assert not out_path.exists()
