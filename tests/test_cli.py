"""Command-line surface: formats, exit codes, determinism."""

import contextlib
import hashlib
import json
import operator
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from itertools import repeat
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    pair_sum_naive,
    path,
    signed_weight_of_degree,
    star,
    to_dot,
    to_edge_list,
    underlying_degree_counts,
    underlying_degrees,
    underlying_graph,
)
from jacograph.cli import REPORTED_FIRR, REPORTED_IRR, SpecError, _read_spec, _row_weights, main
from jacograph.graphs import SimpleGraph, _later_neighbors, from_edge_list, json_chunks
from jacograph.jaco import underlying_metric
from jacograph.theorems import verify_sweep


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


def edges_of(runs):
    """The edges (v, w) that export's runs name (see ``graphs.LaterNeighbors``), in order."""
    for vs, ws in runs:
        yield from zip(repeat(vs) if isinstance(vs, int) else vs, ws)


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


def test_edge_list_file_with_a_far_vertex_id_is_refused_at_once(tmp_path, capsys, peak_rss_kb):
    # The graph holds a list per vertex id, about 77 bytes each: these 16
    # bytes would ask for 10^12 of them.  The id is refused before any.
    f = tmp_path / "far.txt"
    f.write_text("1 2\n2 1000000000000\n")
    message = f"error: graph spec {str(f)!r}: vertex id 1000000000000 is above the guard of 5000000\n"
    for argv in (("metric", "irr", str(f)), ("export", str(f))):
        assert run_cli(capsys, *argv) == (2, "", message), argv
    floor = peak_rss_kb("-m", "jacograph", "metric", "irr", "jaco:1")
    assert floor[0] == 0
    for argv in (("metric", "irr", str(f)), ("export", str(f))):
        rc, peak = peak_rss_kb("-m", "jacograph", *argv)
        assert rc == 2, argv
        assert peak - floor[1] < 2 * 1024, argv


def test_metric_of_an_edge_list_file_builds_no_graph(tmp_path, monkeypatch, peak_rss_kb):
    # Each named id's degree is counted from the edges, and the 4 999 997 ids
    # that no edge names are one count of degree 0; export writes the later
    # neighbours gathered from the edges.  Building the graph, a list per id,
    # took 4.82 s and 400.1 MB for these 16 bytes under metric, 2.5 s and
    # 408 408 KB under export.
    f = tmp_path / "far.txt"
    f.write_text("1 2\n2 5000000")
    for argv in (("metric", "irr", str(f)), ("export", str(f))):
        rc, peak = peak_rss_kb("-m", "jacograph", *argv)
        assert rc == 0 and peak < 40 * 1024, argv

    def refuse(*args):
        raise AssertionError("built a graph")

    monkeypatch.setattr("jacograph.graphs.SimpleGraph", refuse)
    assert _read_spec(str(f))[1] == {0: 4999997, 1: 2, 2: 1}


def test_edge_list_histograms_are_those_of_the_built_graphs(tmp_path, capsys):
    # Generated files, some with a duplicate edge, a reversed pair or blank
    # lines: the counted histogram equals the built graph's, and each export
    # its serialization, or each refuses the file with one message.
    rng = random.Random(24)
    f = tmp_path / "g.txt"
    for case in range(300):
        top = rng.randint(1, 30)
        pairs = [(i, j) for i in range(1, top + 1) for j in range(i + 1, top + 1)]
        edges = rng.sample(pairs, rng.randint(0, len(pairs)))
        if edges and case % 7 == 0:
            edges.insert(rng.randrange(len(edges) + 1), rng.choice(edges))
        if edges and case % 11 == 0:
            edges[rng.randrange(len(edges))] = (top, 1)
        lines = [f"{i} {j}" for i, j in edges] + [""] * (case % 3)
        rng.shuffle(lines)
        f.write_text("\n".join(lines))
        try:
            g = from_edge_list(f.read_text())
        except ValueError as exc:
            message = f"graph spec {str(f)!r}: {exc}"
            with pytest.raises(SpecError, match=f"^{re.escape(message)}$"):
                _read_spec(str(f))
            for fmt in ("edgelist", "dot", "json"):
                assert run_cli(capsys, "export", str(f), "--format", fmt) == (2, "", f"error: {message}\n"), case
            continue
        assert _read_spec(str(f))[1] == Counter(degree_sequence(g)), case
        texts = {"edgelist": to_edge_list(g), "dot": to_dot(g), "json": "".join(json_chunks(g.n, _later_neighbors(g)))}
        for fmt, text in texts.items():
            assert run_cli(capsys, "export", str(f), "--format", fmt) == (0, text, ""), (case, fmt)


def test_metric_bad_specs(capsys):
    for spec in ("jaco:x", "path:", "biclique:3", "star:0", "no-such-file.txt"):
        rc, _, err = run_cli(capsys, "metric", "irr", spec)
        assert rc == 2, spec
        assert "error" in err


def test_the_empty_spec_is_refused_as_a_spec_not_read_as_a_path(capsys):
    # '' once fell through to a file path, '.', and was refused as a directory
    for argv in (("metric", "irr", ""), ("export", "")):
        assert run_cli(capsys, *argv) == (2, "", "error: bad graph spec ''\n"), argv


def test_family_histograms_are_those_of_the_built_graphs(monkeypatch):
    # jaco:N never comes here: metric sends it to underlying_metric, and
    # test_jaco checks underlying_degree_counts against the built graphs
    built = {}
    for n in range(1, 13):
        built[f"path:{n}"] = path(n)
        built[f"star:{n}"] = star(n)
        if n >= 3:
            built[f"cycle:{n}"] = cycle(n)
        for m in range(1, n + 1):
            built[f"biclique:{n}:{m}"] = complete_bipartite(n, m)

    def refuse(*args):
        raise AssertionError("built a graph")

    for builder in ("path", "cycle", "star", "complete_bipartite"):
        monkeypatch.setattr(jacograph.graphs, builder, refuse)
    for spec, g in built.items():
        n, degrees, later = _read_spec(spec)
        assert degrees == Counter(degree_sequence(g)), spec
        # the degree table the edge guard reads: half its degree sum is the edge count
        assert sum(d * c for d, c in degrees.items()) // 2 == g.edge_count, spec
        assert n == sum(degrees.values()) == g.n, spec
        # the ranges export writes, flattened to edges, are the built graph's
        assert list(edges_of(later)) == list(edges_of(_later_neighbors(g))), spec


def test_metric_of_a_degree_table_is_the_pair_sum_of_the_built_graph(tmp_path, capsys):
    # metric ranks a family's or a file's degree table; each value must be the
    # definitional double loop over the weights of the graph the builders, or
    # from_edge_list, make: the family grid and 100 random files, some with
    # ids that no edge names (degree 0)
    built = {f"path:{n}": path(n) for n in range(1, 31)}
    built.update({f"cycle:{n}": cycle(n) for n in range(3, 31)})
    built.update({f"star:{n}": star(n) for n in range(1, 31)})
    built.update({f"biclique:{n}:{m}": complete_bipartite(n, m) for n in range(1, 11) for m in range(1, n + 1)})
    rng = random.Random(34)
    for case in range(100):
        top = rng.randint(1, 40)
        pairs = [(i, j) for i in range(1, top + 1) for j in range(i + 1, top + 1)]
        edges = rng.sample(pairs, rng.randint(0, min(len(pairs), rng.choice((5, 40, 800)))))
        f = tmp_path / f"g{case}.txt"
        f.write_text("".join(f"{i} {j}\n" for i, j in edges))
        built[str(f)] = from_edge_list(f.read_text())
    weights = {"irr": int, "firr": fib, "firrpm": signed_weight_of_degree}
    for spec, g in built.items():
        for kind, weight in weights.items():
            value = pair_sum_naive([weight(d) for d in degree_sequence(g)])
            assert run_cli(capsys, "metric", kind, spec) == (0, f"{value}\n", ""), (kind, spec)


# A child that runs the command line under a 1 GiB address-space limit, so
# that a run which allocates in its size, as a dense histogram of degrees up
# to 10^9 did (7.8 GB), fails at once with exit 2 instead of filling memory.
LIMITED_MAIN = (
    "import resource, sys\n"
    "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
    "from jacograph.cli import main\n"
    "sys.exit(main(sys.argv[1:]))\n"
)


def test_metric_irr_of_families_with_a_billion_vertices_runs_at_the_floor(capsys, peak_rss_kb):
    # two distinct degrees each, so two weights however many vertices
    n, m = 10**9, 3
    floor = peak_rss_kb("-c", LIMITED_MAIN, "metric", "irr", "jaco:1")
    assert floor[0] == 0
    for spec, value in ((f"star:{n}", n * (n - 1)), (f"biclique:{n}:{m}", n * m * (n - m))):
        rc, peak = peak_rss_kb("-c", LIMITED_MAIN, "metric", "irr", spec)
        assert rc == 0 and peak - floor[1] < 2 * 1024, spec
        assert run_cli(capsys, "metric", "irr", spec) == (0, f"{value}\n", ""), spec


def test_jaco_histograms_build_no_graph(monkeypatch):
    # read off the word in O(n) bytes, so the edge guard, which refuses
    # building jaco:6000 (6 875 826 edges), does not refuse its histogram;
    # jaco:0 is refused when the spec is parsed (test_metric_bad_spec_creates_no_out_file)
    def refuse(*args):
        raise AssertionError("built a graph")

    monkeypatch.setattr(jacograph.jaco, "underlying_graph", refuse)
    monkeypatch.setattr(jacograph.graphs, "SimpleGraph", refuse)
    for n in [*range(1, 61), 6000]:
        assert underlying_degree_counts(n) == degree_histogram(underlying_degrees(n)), n


def test_family_bad_arguments_keep_the_builders_messages(capsys, monkeypatch):
    for spec, message in (
        ("path:0", "path needs n >= 1, got 0"),
        ("cycle:2", "cycle needs n >= 3, got 2"),
        ("star:-1", "star needs n >= 1 leaves, got -1"),
        ("biclique:2:3", "complete bipartite needs n >= m >= 1, got (2, 3)"),
        ("biclique:2:0", "complete bipartite needs n >= m >= 1, got (2, 0)"),
    ):
        for command in (("metric", "irr"), ("export",)):
            assert run_cli(capsys, *command, spec) == (2, "", f"error: graph spec {spec!r}: {message}\n"), command
    # a builder that takes what the degree table refuses is a program fault
    monkeypatch.setattr(jacograph.graphs, "cycle", lambda n: None)
    with pytest.raises(AssertionError, match="'cycle:2'"):
        _read_spec("cycle:2")


def test_metric_too_large_exits_2(capsys):
    # The Fibonacci word of the band of 10^15 vertices (and its index for
    # 10^20) cannot be allocated at all, so each request fails at once
    # without using memory.  irr needs no word and answers (see below).
    for kind in ("firr", "firrpm"):
        for spec in ("jaco:1000000000000000", "jaco:100000000000000000000"):
            rc, out, err = run_cli(capsys, "metric", kind, spec)
            assert rc == 2, (kind, spec)
            assert out == ""
            assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("n, seconds", [(10**8, 2), (10**18, 1)])
def test_metric_irr_of_huge_jaco_graphs(n, seconds, peak_rss_kb):
    # irr by floor sums: O(log n) steps and no list.  The histogram kernel
    # took 26.5 s and 959 MB at 10^8, and could not allocate 10^18.
    start = time.perf_counter()
    rc, peak = peak_rss_kb("-m", "jacograph", "metric", "irr", f"jaco:{n}")
    assert rc == 0
    assert time.perf_counter() - start < seconds
    assert peak < 40 * 1024
    assert underlying_metric(n, "irr") == {
        10**8: 97265354480994426980004,
        10**18: 97265355833543636788904748977845736329035461647634376,
    }[n]


def test_verify_growth_checks_to_a_thousand_run_in_seconds(peak_rss_kb):
    # The oracle is a rank sum, O(n log n) per instance.  On a shared 2-core
    # VM this sweep took 35 s with the pairwise loop and 1.1 s with it.
    start = time.perf_counter()
    rc, _ = peak_rss_kb("-m", "jacograph", "verify", "thm21", "thm31", "--n", "2..1000")
    assert rc == 0
    assert time.perf_counter() - start < 10


def test_metric_of_a_jaco_spec_builds_no_histogram(monkeypatch, capsys):
    expected = {
        (kind, n): str(pair_sum_histogram(underlying_degree_counts(n), kind)) + "\n"
        for kind in ("irr", "firr", "firrpm")
        for n in (*range(1, 40), 1656, 1657, 5000)
    }

    def refuse(*args):
        raise AssertionError("built a histogram")

    monkeypatch.setattr("jacograph.irregularity.pair_sum_histogram", refuse)
    for (kind, n), out in expected.items():
        if kind == "irr":  # no list at all: not even the band
            monkeypatch.setattr("jacograph.jaco._band", refuse)
        assert run_cli(capsys, "metric", kind, f"jaco:{n}") == (0, out, ""), (kind, n)
        monkeypatch.undo()
        monkeypatch.setattr("jacograph.irregularity.pair_sum_histogram", refuse)


def test_metric_irr_leaves_decimal_unimported():
    # irr is an int: the decimal ring, and its import, serve firr and firrpm only.
    script = (
        "import sys\n"
        "from jacograph.cli import main\n"
        "assert main(['metric', 'irr', 'jaco:5']) == 0 and 'decimal' not in sys.modules\n"
        "assert main(['metric', 'firr', 'jaco:5']) == 0 and 'decimal' in sys.modules\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=module_env())
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "8\n4\n", "")


# Runs main(argv) in a fresh process, its output to devnull, and prints which
# of the modules that only some runs use it loaded; cli, jaco and fibonacci
# every run loads.
IMPORT_SET = """
import os, sys
os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
from jacograph.cli import main
rc = main(sys.argv[1:])
sys.stdout.flush()
watched = {"jacograph.graphs", "jacograph.irregularity", "jacograph.theorems", "dataclasses", "json"}
print(rc, *sorted(watched & set(sys.modules)), file=sys.stderr)
"""


@pytest.mark.parametrize(
    "argv, loaded",
    [
        ("metric irr jaco:1", ""),
        ("metric firr jaco:100", "jacograph.irregularity"),
        ("metric firrpm jaco:100", "jacograph.irregularity"),
        ("metric irr path:30", "jacograph.irregularity"),
        ("table irr 30", ""),
        ("table firr 30 --format csv", ""),
        ("table firr 30", "jacograph.irregularity"),  # the text format's width row runs the kernel
        ("export jaco:30", "jacograph.graphs"),
        ("export star:30 --format json", "jacograph.graphs"),
        ("export {file}", "jacograph.graphs"),  # the file is read like a family: no kernel, no graph
        ("verify thm21 thm32 --n 2..5", "jacograph.irregularity jacograph.theorems"),
        ("verify lemma31 thm33 --n 4 --m 2..3 --i 4", "jacograph.irregularity jacograph.theorems"),  # no graph
        ("table irr 30 --format json", "json"),
    ],
)
def test_each_subcommand_imports_only_what_it_runs(argv, loaded, tmp_path):
    f = tmp_path / "g.txt"
    f.write_text("1 2\n2 3\n")
    argv = argv.format(file=f).split()
    proc = subprocess.run([sys.executable, "-c", IMPORT_SET, *argv], capture_output=True, text=True, env=module_env())
    assert proc.stderr.split() == ["0", *loaded.split()]


def test_bare_package_import_loads_no_submodule():
    script = "import sys, jacograph\nprint(sorted(m for m in sys.modules if m.startswith('jacograph.')))\n"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=module_env())
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_unknown_check_id_is_a_usage_error_listing_the_ids_in_order(capsys):
    rc, out, err = run_cli(capsys, "verify", "thm21", "bogus")
    assert (rc, out) == (2, "")
    assert err.endswith(
        "jacograph verify: error: argument check: invalid choice: 'bogus' "
        "(choose from 'thm21', 'thm31', 'thm32', 'cor31', 'lemma31', 'thm33')\n"
    )
    assert jacograph.THEOREM_IDS is jacograph.theorems.THEOREM_IDS


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


@pytest.mark.parametrize(
    "argv",
    [
        ("thm32", "cor31", "--n", "2..30", "--m", "1..30"),
        ("thm21", "thm31", "lemma31", "--n", "2..25", "--m", "2..6"),
        ("thm33", "--n", "3..12", "--m", "1..6"),  # mismatches: exit 1
    ],
)
def test_verify_json_streams_the_report_of_one_dumps(argv, tmp_path, capsys):
    ranges = dict(zip(argv[-4::2], argv[-3::2]))
    ids = argv[: len(argv) - 2 * len(ranges)]
    n_range = tuple(map(int, ranges["--n"].split("..")))
    m_range = tuple(map(int, ranges["--m"].split(".."))) if "--m" in ranges else (1, 12)
    report = verify_sweep(ids, n_range, m_range)
    whole = json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n"
    rc = 0 if report.all_matched else 1
    assert run_cli(capsys, "verify", *argv, "--format", "json") == (rc, whole, "")
    out_path = tmp_path / "report.json"
    assert run_cli(capsys, "verify", *argv, "--out", str(out_path)) == (rc, report.summary_text(), "")
    assert out_path.read_text() == whole


def test_verify_json_streams_in_memory_of_the_text_summary(peak_rss_kb):
    # The records are written one at a time, so the JSON report costs little
    # more than the text summary of the same sweep.  One json.dumps of the
    # whole report peaked at 52.2 MB against the summary's 21.7 MB.
    argv = ("-m", "jacograph", "verify", "thm32", "cor31", "--n", "2..100", "--m", "1..100")
    text = peak_rss_kb(*argv)
    as_json = peak_rss_kb(*argv, "--format", "json")
    assert text[0] == as_json[0] == 0
    assert as_json[1] - text[1] < 4 * 1024


def test_verify_summary_keeps_no_records(peak_rss_kb):
    # The text summary counts the records as they come and keeps at most 20
    # mismatches: 20 099 records peak where 1 080 do.  Holding every record
    # peaked 27.3 MB against 16.5 MB.
    argv = ("-m", "jacograph", "verify", "thm32")
    small = peak_rss_kb(*argv, "--n", "2..46", "--m", "1..46")
    large = peak_rss_kb(*argv, "--n", "2..200", "--m", "1..200")
    assert small[0] == large[0] == 0
    assert large[1] - small[1] < 2 * 1024


def test_verify_union_of_large_graphs_runs_in_the_floor_memory(peak_rss_kb):
    # The formula side keeps a byte per band degree and a few integers per
    # graph, and its correction sum walks only the overlap window, here
    # 3 992 degrees; the oracle's two histograms are about 34 000 bytes.
    floor = peak_rss_kb("-m", "jacograph", "metric", "irr", "jaco:1")
    rc, peak = peak_rss_kb("-m", "jacograph", "verify", "cor31", "--n", "30000", "--m", "25000")
    assert floor[0] == rc == 0
    assert peak - floor[1] < 2 * 1024


def test_joint_checks_of_large_graphs_run_in_the_floor_memory(capsys, peak_rss_kb):
    # The joint oracle reads the union's isqrt degrees and builds no graph,
    # so it has the size limits of thm21/thm31, not the edge guard: the
    # graph it once built at n = 5000 peaked at 324 MB, and n = 5200 was
    # refused with 5 164 560 edges.
    assert run_cli(capsys, "verify", "lemma31", "--n", "5200", "--m", "2") == (
        0,
        "lemma31: 1 checks, 0 mismatches\noverall: PASS (1 checks, 0 mismatches)\n",
        "",
    )
    floor = peak_rss_kb("-m", "jacograph", "metric", "irr", "jaco:1")
    rc, peak = peak_rss_kb("-m", "jacograph", "verify", "lemma31", "--n", "5000", "--m", "2")
    assert floor[0] == rc == 0
    assert peak - floor[1] < 2 * 1024


def test_verify_opens_out_before_the_sweep(tmp_path, capsys):
    # a path that cannot be written fails at once, not after a 6 s sweep
    out_path = tmp_path / "missing" / "report.json"
    start = time.perf_counter()
    rc, out, err = run_cli(capsys, "verify", "cor31", "--n", "2..300", "--m", "1..300", "--out", str(out_path))
    assert time.perf_counter() - start < 1
    assert (rc, out) == (2, "")
    assert err.startswith(f"error: cannot write {out_path}:")


def test_verify_without_instances_writes_no_report(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    rc, out, err = run_cli(capsys, "verify", "thm21", "--n", "1..1", "--out", str(out_path))
    assert (rc, out, err) == (2, "", "error: no instances of thm21 in the given ranges\n")
    assert not out_path.exists()


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


def test_streamed_export_is_byte_identical_to_the_whole_string(capsys):
    graphs = {f"jaco:{n}": underlying_graph(n) for n in range(1, 41)}
    graphs.update({f"path:{n}": path(n) for n in range(1, 7)})
    graphs.update({f"cycle:{n}": cycle(n) for n in range(3, 7)})
    graphs.update({f"star:{n}": star(n) for n in range(1, 7)})
    graphs["biclique:3:2"] = complete_bipartite(3, 2)
    for spec, g in graphs.items():
        edges = g.edges()
        dot = "graph G {\n" + "".join(f"  {v};\n" for v in range(1, g.n + 1))
        expected = {
            "edgelist": "".join(f"{i} {j}\n" for i, j in edges),
            "dot": dot + "".join(f"  {i} -- {j};\n" for i, j in edges) + "}\n",
            "json": json.dumps({"n": g.n, "edges": [list(e) for e in edges]}, sort_keys=True) + "\n",
        }
        assert to_edge_list(g) == expected["edgelist"] and to_dot(g) == expected["dot"], spec
        for fmt, text in expected.items():
            assert run_cli(capsys, "export", spec, "--format", fmt) == (0, text, ""), (spec, fmt)


def test_export_refuses_a_family_above_the_edge_guard_at_once(monkeypatch, capsys, peak_rss_kb):
    def refuse(*args):
        raise AssertionError("built a graph above the edge guard")

    for builder in ("path", "cycle", "star", "complete_bipartite"):
        monkeypatch.setattr(jacograph.graphs, builder, refuse)
    for spec, edges in (
        ("path:100000000", 99999999),
        ("cycle:100000000", 100000000),
        ("star:100000000", 100000000),
        ("biclique:10000:10000", 100000000),
    ):
        message = f"error: graph spec {spec!r}: the graph has {edges} edges, above the guard of 5000000\n"
        assert run_cli(capsys, "export", spec) == (2, "", message)
    # One edge above the guard, in the memory of a run that builds nothing;
    # the star alone would take about 330 MB.
    floor = peak_rss_kb("-m", "jacograph", "metric", "irr", "jaco:1")
    start = time.perf_counter()
    rc, peak = peak_rss_kb("-m", "jacograph", "export", "star:5000001")
    assert time.perf_counter() - start < 5
    assert floor[0] == 0 and rc == 2
    assert peak - floor[1] < 2 * 1024


def test_export_of_a_jaco_graph_builds_no_graph(monkeypatch, capsys, peak_rss_kb):
    expected = {n: to_edge_list(underlying_graph(n)) for n in (1, 2, 12, 40)}

    def refuse(n):
        raise AssertionError("export built a Jaco graph")

    monkeypatch.setattr(jacograph.jaco, "underlying_graph", refuse)
    for n, text in expected.items():
        assert run_cli(capsys, "export", f"jaco:{n}") == (0, text, "")
    # 4 774 940 edges in the memory of one vertex's chunk; built, the graph
    # took 317 MB
    rc, peak = peak_rss_kb("-m", "jacograph", "export", "jaco:5000")
    assert rc == 0
    assert peak < 40 * 1024


def test_metric_and_export_of_files_and_families_build_no_graph(tmp_path, monkeypatch, capsys):
    # Every spec but jaco is read as one record, its degree table and its
    # later-neighbour runs; nothing on either command's path constructs a graph.
    files = {"far.txt": "1 2\n2 9000\n", "hub.txt": "".join(f"1 {w}\n" for w in range(9000, 1, -1)) + "\n3 4\n"}
    specs = {"path:9": path(9), "cycle:9": cycle(9), "star:9000": star(9000), "biclique:5:3": complete_bipartite(5, 3)}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
        specs[str(tmp_path / name)] = from_edge_list(text)
    expected = {}
    for spec, g in specs.items():
        counts = degree_histogram(degree_sequence(g))
        for kind in ("irr", "firr", "firrpm"):
            expected["metric", kind, spec] = f"{pair_sum_histogram(counts, kind)}\n"
        expected["export", spec, "--format", "edgelist"] = to_edge_list(g)
        expected["export", spec, "--format", "dot"] = to_dot(g)
        expected["export", spec, "--format", "json"] = "".join(json_chunks(g.n, _later_neighbors(g)))

    def refuse(*args):
        raise AssertionError("built a graph")

    monkeypatch.setattr(SimpleGraph, "__init__", refuse)
    monkeypatch.setattr(SimpleGraph, "_from_sorted_adjacency", refuse)
    for argv, out in expected.items():
        assert run_cli(capsys, *argv) == (0, out, ""), argv


def test_export_of_a_named_family_builds_no_graph(monkeypatch, capsys, peak_rss_kb):
    specs = {"path:1": path(1), "path:9": path(9), "cycle:3": cycle(3), "cycle:9": cycle(9), "star:1": star(1)}
    specs.update({"star:9": star(9), "star:9000": star(9000)})  # the centre's leaves span three chunks
    specs.update({"biclique:1:1": complete_bipartite(1, 1), "biclique:5:3": complete_bipartite(5, 3)})
    expected = {spec: (to_edge_list(g), to_dot(g)) for spec, g in specs.items()}

    def refuse(*args):
        raise AssertionError("export built a named family")

    for builder in ("path", "cycle", "star", "complete_bipartite"):
        monkeypatch.setattr(jacograph.graphs, builder, refuse)
    for spec, (edges, dot) in expected.items():
        assert run_cli(capsys, "export", spec) == (0, edges, ""), spec
        assert run_cli(capsys, "export", spec, "--format", "dot") == (0, dot, ""), spec
    # 300 000 edges each in the memory of a run that builds nothing; built,
    # each graph peaked 37 to 42 MB above the floor
    floor = peak_rss_kb("-m", "jacograph", "metric", "irr", "jaco:1")
    for spec in ("path:300001", "cycle:300000", "star:300000"):
        rc, peak = peak_rss_kb("-m", "jacograph", "export", spec)
        assert rc == 0 and peak - floor[1] < 2 * 1024, spec


def test_export_refuses_a_jaco_spec_above_the_guard_under_its_spec(tmp_path, capsys):
    # The shape's refusals, the edge guard and n < 1, name the spec as a family's do.
    above = (
        "error: graph spec 'jaco:5117': underlying graph on 5117 vertices has 5001012 edges, "
        "above the guard of 5000000; use underlying_degrees for metric work\n"
    )
    assert run_cli(capsys, "export", "jaco:5117") == (2, "", above)
    assert run_cli(capsys, "export", "jaco:0") == (2, "", "error: graph spec 'jaco:0': n must be >= 1, got 0\n")
    out_path = tmp_path / "g.edges"
    assert run_cli(capsys, "export", "jaco:5116", "--out", str(out_path)) == (0, "", "")
    with open(out_path, "rb") as fh:
        assert sum(1 for _ in fh) == jacograph.jaco._edge_count(5116) <= 5_000_000


def test_export_edge_guard_boundary(monkeypatch, capsys):
    monkeypatch.setattr("jacograph.graphs.DEFAULT_EDGE_GUARD", 12)
    for at_guard, above in (
        ("path:13", "path:14"),
        ("cycle:12", "cycle:13"),
        ("star:12", "star:13"),
        ("biclique:4:3", "biclique:13:1"),
    ):
        assert run_cli(capsys, "export", at_guard)[0] == 0, at_guard
        rc, out, err = run_cli(capsys, "export", above)
        assert (rc, out) == (2, ""), above
        assert err == f"error: graph spec {above!r}: the graph has 13 edges, above the guard of 12\n"
    # arguments a builder refuses keep its message, and metric builds no graph
    refused = "error: graph spec 'biclique:1:13': complete bipartite needs n >= m >= 1, got (1, 13)\n"
    assert run_cli(capsys, "export", "biclique:1:13") == (2, "", refused)
    assert run_cli(capsys, "metric", "irr", "path:14") == (0, "24\n", "")


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


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str cap")
def test_main_keeps_an_unlimited_str_cap():
    # 0 means no cap; main must not lower it to its own 500 000 digits.
    script = (
        "import sys\n"
        "from jacograph.cli import main\n"
        "assert main(['metric', 'irr', 'jaco:5']) == 0\n"
        "print(sys.get_int_max_str_digits(), len(str(10**600000)))\n"
    )
    cmd = [sys.executable, "-X", "int_max_str_digits=0", "-c", script]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=module_env())
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "8\n0 600001\n", "")


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


@pytest.mark.parametrize("kind", ["irr", "firr"])
def test_table_json_is_the_json_modules_own(kind, capsys):
    rc, out, err = run_cli(capsys, "table", kind, "1000", "--format", "json")
    assert (rc, err) == (0, "")
    assert json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n" == out


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_table_makes_one_weight_label_per_degree(fmt, monkeypatch, capsys):
    # The rows of table firr 300 hold the degrees 0..G(301) - 1, one f_d
    # lookup each; per vertex it would be about 45 000 lookups.
    calls = []

    def counted(d):
        calls.append(d)
        return fib(d)

    monkeypatch.setattr("jacograph.cli.fib", counted)
    assert run_cli(capsys, "table", "firr", "300", "--format", fmt)[0] == 0
    assert len(calls) <= out_degree(301) + 1 == 187


def test_table_rows_build_no_degree_sequence(monkeypatch, capsys):
    # row sequences come from jaco._tail, not a per-vertex degree tuple
    expected = {
        (kind, fmt): reference_table(kind, 300, fmt) for kind in ("irr", "firr") for fmt in ("text", "csv", "json")
    }

    def refuse(*args):
        raise AssertionError("a table row built a per-vertex degree sequence")

    monkeypatch.setattr("jacograph.jaco.underlying_degrees", refuse)
    assert not hasattr(jacograph.cli, "underlying_degrees")
    for (kind, fmt), out in expected.items():
        assert run_cli(capsys, "table", kind, "300", "--format", fmt) == (0, out, ""), (kind, fmt)


@pytest.mark.parametrize("sep", [", ", ",", ",\n        "])
@pytest.mark.parametrize("kind", ["irr", "firr"])
@settings(max_examples=10, deadline=None)
@given(st.integers(1, 5000).flatmap(lambda n: st.tuples(st.just(n), st.lists(st.integers(1, n), max_size=4))))
@example((500, range(1, 501)))  # every row up to 500, the zero-count top of the tail and J*_1 included
@example((5000, (1, 4999, 5000)))
def test_row_weights_join_each_tail_per_degree(kind, sep, table):
    # rows of a table of up to 5000, against the weights of the isqrt degrees
    n_max, rows = table
    weight = str if kind == "irr" else (lambda d: str(fib(d)))
    weights = _row_weights(kind, n_max, sep)
    for i in rows:
        assert weights(i) == sep.join(map(weight, underlying_degrees(i))), i


def test_row_weights_hold_each_label_once():
    # The labels and the string of every head label, each about the label
    # text, and a few words per degree; a string of each label doubled held
    # twice the text more.  The Fibonacci cache is filled before tracing.
    top = out_degree(5001)
    text = sum(len(str(fib(d))) for d in range(top))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        weights = _row_weights("firr", 5000, ",")
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert weights(5000) == ",".join(str(fib(d)) for d in underlying_degrees(5000))
    assert 2 * text < held < 2 * text + 20 * 8 * top


@pytest.mark.parametrize("fmt, calls", [("csv", 0), ("json", 0), ("text", 1)])
@pytest.mark.parametrize("kind", ["irr", "firr"])
def test_table_values_come_from_the_prefix_walk(kind, fmt, calls, monkeypatch, capsys):
    # each row's value follows from the row before; only the text format's
    # width row, the last, asks for one value on its own
    expected = reference_table(kind, 300, fmt)
    asked = []

    def counted(n, metric_kind):
        asked.append(n)
        return underlying_metric(n, metric_kind)

    monkeypatch.setattr("jacograph.cli.underlying_metric", counted)
    assert run_cli(capsys, "table", kind, "300", "--format", fmt) == (0, expected, "")
    assert asked == [300] * calls


@pytest.mark.parametrize("kind", ["irr", "firr"])
def test_table_values_build_no_histogram(kind, monkeypatch, capsys):
    # row values come from jaco.underlying_metrics, not the kernel over a histogram
    expected = reference_table(kind, 300, "text")

    def refuse(*args):
        raise AssertionError("a table row built a degree histogram")

    monkeypatch.setattr("jacograph.irregularity.pair_sum_histogram", refuse)
    monkeypatch.setattr("jacograph.irregularity.degree_histogram", refuse)
    assert run_cli(capsys, "table", kind, "300") == (0, expected, "")


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

    monkeypatch.setattr("jacograph.irregularity._pair_sum_by_table", refuse)
    monkeypatch.setattr("jacograph.cli.underlying_metric", refuse)
    out_path = tmp_path / "missing" / "x"
    for spec in ("jaco:1000", "path:1000"):
        rc, out, err = run_cli(capsys, "metric", "firr", spec, "--out", str(out_path))
        assert rc == 2 and out == ""
        assert err.startswith(f"error: cannot write {out_path}: ") and len(err.splitlines()) == 1


def test_metric_bad_spec_creates_no_out_file(tmp_path, capsys):
    # jaco:N with N < 1 is refused in jaco's own words when the spec is
    # parsed, so neither metric nor export opens --out
    out_path = tmp_path / "x"
    for n in (0, -3):
        refused = (2, "", f"error: graph spec 'jaco:{n}': n must be >= 1, got {n}\n")
        for command in (("metric", "irr"), ("metric", "firr"), ("metric", "firrpm"), ("export",)):
            assert run_cli(capsys, *command, f"jaco:{n}") == refused, command
            assert run_cli(capsys, *command, f"jaco:{n}", "--out", str(out_path)) == refused, command
            assert not out_path.exists(), command


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full, a device every write to fails")
@pytest.mark.parametrize(
    "argv", [("metric", "irr", "jaco:5"), ("verify", "thm21", "--n", "2..5", "--format", "json")]
)
def test_failed_stdout_write_exits_2_with_one_error_line(argv):
    # A full disk under stdout is an I/O error (exit 2), not a mismatch
    # (exit 1), and the flush at interpreter exit must not fail a second time.
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "jacograph", *argv], stdout=full, stderr=subprocess.PIPE, text=True, env=module_env()
        )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: ")


# The benchmark's recorded outputs: each invocation's exit code, stdout byte
# count and stdout SHA-256, as perfbench/run.py checks them in a child.
RECORDED = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "expected.json").read_text())


@pytest.mark.parametrize("invocation", sorted(RECORDED["invocations"]))
def test_recorded_benchmark_outputs_replay_in_process(invocation, tmp_path):
    want = RECORDED["invocations"][invocation]
    out = tmp_path / "stdout"
    with open(out, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
        rc = main(invocation.split())
    data = out.read_bytes()
    assert (rc, len(data), hashlib.sha256(data).hexdigest()) == (want["exit"], want["bytes"], want["sha256"])
