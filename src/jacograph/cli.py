"""Command-line interface: tables, single metrics, verification sweeps, exports.

Exit codes: 0 success (all checks matched, for ``verify``), 1 at least one
mismatched check, 2 usage, I/O or resource error (a request too large to
allocate).  Identical invocations produce byte-identical output.

``table`` writes each row as soon as it is made, in memory of one row, so a
run ended by an error (exit 2) may leave a prefix of the table on stdout or
in ``--out``.  A row is its printed cells: i, d-, d+, its weights joined
by the format's separator, the value and the reported value; every weight
string, d or f_d, is made once per degree before the first row, and text,
csv and json only lay the cells out.  A row's weights are read off the
graph's shape, its head a prefix of one string and its tail one or two
labels per degree by the tail's counts, picked at C speed from a list that
holds each label twice, with no per-vertex degree.  Each row's value
follows from the row before by the growth recursion
(``jaco.underlying_metrics``), in O(1) big-integer operations; the text
format's width row is the one value computed on its own.  JSON rows come
from a fixed template, byte-equal to what ``json.dumps`` writes.

``export`` writes a chunk per block of consecutive vertices, a few thousand
edges each, and builds no graph.  A Jaco graph's or a named family's later
neighbors are ranges read off its shape, a path's edges one pair of
ranges, so its export runs in the memory of one block, and one above the
edge guard is refused before any work in its size.  An edge-list file's
are gathered from its parsed edges once no vertex id in it is above the
guard, so its export holds the edges, not a list per id.
``verify`` keeps no record: it counts them, and for its JSON report spools
them to a temporary file, so the report's header, which says whether all
matched, can come first.  ``--out`` is opened before the first check runs.
A reader that closes stdout early, as ``| head`` does, ends the run with
exit 2 and no message; any other failed write to stdout ends it with exit 2
and one ``error:`` line.

Start-up is most of a run on a small graph, and every module imported is
compiled when no bytecode cache is written, so a module that only some runs
use is imported inside the function that uses it: ``theorems`` in
``verify``; ``graphs`` in ``export``, to parse an edge-list file and for a
family's refusal message; ``irregularity`` for the rank sum over a degree
table, which the metrics of a family or a file run, and in ``jaco`` for
the kernel of firr and firrpm; ``json`` in the JSON writers; ``decimal``
for the firr and firrpm values of ``metric``.  So ``table`` and ``metric
irr jaco:N`` load this module, ``jaco`` and ``fibonacci`` alone, ``metric
firr|firrpm jaco:N`` and a firr table's text width row add
``irregularity``, ``export`` adds ``graphs``, and none loads
``dataclasses``.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from collections import Counter, defaultdict
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager
from functools import partial
from itertools import accumulate, chain, compress, repeat
from pathlib import Path
from typing import TYPE_CHECKING

from . import THEOREM_IDS
from .fibonacci import fib
from .jaco import _shape, _tail, out_degree, underlying_later_neighbors, underlying_metric
from .jaco import underlying_metrics

if TYPE_CHECKING:
    from .graphs import LaterNeighbors
    from .theorems import CheckRecord, VerifyReport

__all__ = ["main"]

# Previously reported reference values for the first twelve Jaco graphs.
# Exact recomputation disagrees with two of them (irr of J*_12 is 148, firr
# of J*_8 is 42); table output annotates any row where computed != reported
# instead of silently matching or correcting.
REPORTED_IRR = {1: 0, 2: 0, 3: 2, 4: 4, 5: 8, 6: 14, 7: 26, 8: 42, 9: 60, 10: 86, 11: 116, 12: 149}
REPORTED_FIRR = {1: 0, 2: 0, 3: 0, 4: 0, 5: 4, 6: 9, 7: 20, 8: 54, 9: 70, 10: 133, 11: 224, 12: 322}

# The name of each named family's builder in ``graphs``, called only for
# its refusal message; biclique takes two arguments, the others one.
_FAMILIES = dict(path="path", cycle="cycle", star="star", biclique="complete_bipartite")


class SpecError(ValueError):
    """Unusable graph spec or table/range argument."""


def _parse_range(text: str, name: str) -> tuple[int, int]:
    """Parse 'lo..hi' or a single integer 'k' (meaning k..k)."""
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
        else:
            lo = hi = int(text)
    except ValueError:
        raise SpecError(f"--{name}: expected 'lo..hi' or an integer, got {text!r}") from None
    if lo < 1 or lo > hi:
        raise SpecError(f"--{name}: need 1 <= lo <= hi, got {text!r}")
    return lo, hi


def _parse_spec(spec: str) -> tuple[str, list[int]] | tuple[str, str]:
    head, _, rest = spec.partition(":")
    if head != "jaco" and head not in _FAMILIES and spec:  # '' names no file: refused below
        return "file", spec
    try:
        args = [int(p) for p in rest.split(":")]
    except ValueError:
        args = []
    if len(args) != 1 + (head == "biclique"):
        raise SpecError(f"bad graph spec {spec!r}")
    if head == "jaco":  # n < 1 is refused here, in jaco's own words, before metric or export opens --out
        with _spec_errors(spec):
            _shape(args[0])
    return head, args


def _read_spec(spec: str) -> tuple[int, dict[int, int], LaterNeighbors]:
    """The vertex count, vertex count per degree and later-neighbor runs of the graph a spec but jaco names.

    A named family's are read off its shape.  An edge-list file's are read
    off its parsed edges: each named id's degree counted from them, the ids
    1..top that no edge names one count of degree 0, and each named id's
    later neighbors gathered and sorted only once the runs are read, so the
    memory is that of the edges, not of the largest id.  No graph is built
    but for family arguments that the degree table refuses: those go to the
    family's builder once, for its own message.
    """
    kind, args = _parse_spec(spec)
    if kind == "file":
        from .graphs import _parse_edge_list

        with _spec_errors(spec):
            top, edges = _parse_edge_list(Path(args).read_text(encoding="utf-8"))
        per_id = Counter(chain.from_iterable(edges))
        degrees = Counter(per_id.values()) + Counter({0: top - len(per_id)})  # + keeps positive counts only
        return top, degrees, _file_runs(edges)
    n = args[0]
    if kind == "path" and n >= 1:
        degrees = {0: 1} if n == 1 else {1: 2} if n == 2 else {1: 2, 2: n - 2}
        return n, degrees, [(range(1, n), range(2, n + 1))]
    if kind == "cycle" and n >= 3:
        return n, {2: n}, [(1, (2, n)), (range(2, n), range(3, n + 1))]
    m = args[1] if kind == "biclique" else 1  # a star with n leaves has the degrees of biclique n, 1
    if kind in ("star", "biclique") and n >= m >= 1:
        degrees = {n: 2 * n} if n == m else {m: n, n: m}
        later = [(1, range(2, n + 2))] if kind == "star" else zip(range(1, n + 1), repeat(range(n + 1, n + m + 1)))
        return n + m, degrees, later
    from . import graphs

    with _spec_errors(spec):
        getattr(graphs, _FAMILIES[kind])(*args)
    raise AssertionError(f"graph spec {spec!r}: its builder takes arguments that its degree table refuses")


def _file_runs(edges: list[tuple[int, int]]) -> Iterator[tuple[int, list[int]]]:
    """(v, the sorted later neighbors of v) for each id v that has one, by v, gathered when first asked for."""
    later: dict[int, list[int]] = defaultdict(list)
    for i, j in edges:
        later[i].append(j)
    for v in sorted(later):
        yield v, sorted(later[v])


@contextmanager
def _spec_errors(spec: str) -> Iterator[None]:
    """Raise the ValueError or OSError of the block as a SpecError that names ``spec``."""
    try:
        yield
    except (ValueError, OSError) as exc:
        raise SpecError(f"graph spec {spec!r}: {exc}") from exc


# Translate tables: a tail count -> 1 if it lists its label at least once, at least twice.
_ONCE = bytes([0]) + b"\x01" * 255
_TWICE = bytes([0, 0]) + b"\x01" * 254


def _row_weights(kind: str, n_max: int, sep: str) -> Callable[[int], str]:
    """Row i -> its weights, d (irr) or f_d (firr), joined by ``sep``, for i = 1..n_max.

    Each weight string is made once per degree, for the degrees
    0..G(n_max + 1) - 1 of the graph on n_max vertices, whose largest degree
    is the largest of every row up to it.  Row i lists its head degrees
    1..k, a prefix of one string of every head label, cut after the
    separator that follows label k.  Its tail follows, per degree from the
    top down to lo: the label once or twice by the degree's ``jaco._tail``
    count, 1 or 2 but at the top, where a 0 is stripped first.  One list
    holds a reference to each label twice, top down, and the tail is the
    slice of it from the top to lo, compressed at C speed by the counts:
    the first copy of a label is kept for a count of 1 or more, the second
    for a count of 2.
    """
    degrees = range(out_degree(n_max + 1))
    labels = list(map(str, degrees if kind == "irr" else map(fib, degrees)))
    heads = sep.join(labels[1:]) + sep
    ends = [0, *accumulate(len(label) + len(sep) for label in labels[1:])]
    doubled = [""] * (2 * len(labels))  # degree d at 2 (len(labels) - 1 - d) and the place after
    doubled[::2] = doubled[1::2] = labels[::-1]

    def weights(i: int) -> str:
        k, lo, tail = _tail(i)
        counts = tail.lstrip(b"\x00")
        picks = bytearray(2 * len(counts))
        picks[::2], picks[1::2] = counts.translate(_ONCE), counts.translate(_TWICE)
        end = len(doubled) - 2 * lo
        return heads[: ends[k]] + sep.join(compress(doubled[end - len(picks) : end], picks))

    return weights


def _table_row(
    kind: str, i: int, sequence: Callable[[int], str], value: int
) -> tuple[str, str, str, str, str, str | None]:
    """Row i's printed cells: i, d-, d+, ``sequence(i)``, the value, the reported value or None."""
    g = out_degree(i)
    reported = (REPORTED_IRR if kind == "irr" else REPORTED_FIRR).get(i)
    return str(i), str(i - g), str(g), sequence(i), str(value), None if reported is None else str(reported)


def _table_chunks(kind: str, n_max: int, fmt: str) -> Iterator[str]:
    """The table of rows 1..n_max in format ``fmt``, a chunk per row, laid out from the cells of :func:`_table_row`."""
    sequence = _row_weights(kind, n_max, {"text": ", ", "csv": ",", "json": ",\n        "}[fmt])
    rows = (_table_row(kind, i, sequence, value) for i, value in enumerate(underlying_metrics(n_max, kind), 1))
    if fmt == "csv":
        yield f"i,in_degree,out_degree,sequence,{kind},note\n"
        for i, d_in, d_out, weights, value, ref in rows:
            yield f"{i},{d_in},{d_out},({weights}),{value},{'' if ref in (None, value) else 'reported=' + ref}\n"
    elif fmt == "json":
        # Byte-equal to json.dumps({"kind": kind, "rows": rows}, indent=2,
        # sort_keys=True) + "\n" with each sequence as the array of its
        # weights.  Each row is written from the template of what
        # json.dumps(row, indent=2, sort_keys=True) makes of it, indented
        # four spaces: its keys in sorted order, its sequence, never empty,
        # one weight a line.  json's indenting encoder is pure Python, a
        # call per weight.
        import json

        yield f'{{\n  "kind": {json.dumps(kind)},\n  "rows": ['
        lead = "\n    "
        for i, d_in, d_out, weights, value, ref in rows:
            matches = "null" if ref is None else "true" if ref == value else "false"
            yield (
                f'{lead}{{\n      "i": {i},\n      "in_degree": {d_in},\n      "matches_reported": {matches},\n'
                f'      "out_degree": {d_out},\n      "reported": {ref or "null"},\n'
                f'      "sequence": [\n        {weights}\n      ],\n      "value": {value}\n    }}'
            )
            lead = ",\n    "
        yield "\n  ]\n}\n"
    else:
        # The column widths are needed before the first line.  Those of the
        # last row are the widest, as every column is non-decreasing in i; row
        # i is the graph on i vertices.  i - G(i) and G(i) never fall, since G
        # steps by 0 or 1.  Vertex v has degree min(v, i - G(v)), which never
        # falls as i grows, and the weights d and f_d never fall as d grows,
        # so each entry of the sequence keeps or gains digits, and row i + 1
        # adds one.  The value never falls: in the step to row i + 1 (the
        # jacograph.jaco docstring, "Each graph from the one before") every
        # term is >= 0 once each bumped tail degree, at least i - G(i), is at
        # least half the cut k = G(i + 1) - 1 <= G(i).  So 2i >= 3G(i)
        # suffices, which holds for i >= 13 as G(i) <= (i + 1)/phi, and below
        # 13 fails only at i = 1 and i = 4, where irr goes 0 -> 0 and 4 -> 8,
        # firr 0 -> 0 and 0 -> 4.
        i, d_in, d_out, weights, value, _ = _table_row(kind, n_max, sequence, underlying_metric(n_max, kind))
        header = ("i", "d-", "d+", "sequence", kind)
        w = [max(len(h), len(x)) for h, x in zip(header, (i, d_in, d_out, f"({weights})", value))]
        line = f"{{:>{w[0]}}}  {{:>{w[1]}}}  {{:>{w[2]}}}  {{:<{w[3]}}}  {{:>{w[4]}}}".format
        yield line(*header) + "\n"
        for i, d_in, d_out, weights, value, ref in rows:
            note = "" if ref in (None, value) else f"  *differs from reported {ref}"
            yield line(i, d_in, d_out, f"({weights})", value) + note + "\n"


def _json_elements(items: Iterable[dict]) -> Iterator[str]:
    """The elements of a JSON array that sits two levels deep, one chunk per item.

    Each item is dumped alone with indent=2 and sort_keys, indented the two
    levels it sits at and led by its separator, so an array that opens with
    "[" and closes with "\n  ]" is byte-equal to the one json.dumps with
    indent=2 writes for a non-empty list of the items.
    """
    import json

    sep = "\n    "
    for item in items:
        yield sep + json.dumps(item, indent=2, sort_keys=True).replace("\n", "\n    ")
        sep = ",\n    "


def _write_output(chunks: Iterable[str], out: str | None) -> int:
    """Write the chunks in order to ``out``, else to stdout.

    ``out`` is opened before the first chunk is asked for, so a generator
    does no work for a path that cannot be written.  An error that stops a
    generator leaves the chunks written before it in place.
    """
    if out is None:
        sys.stdout.writelines(chunks)
        return 0
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        print(f"error: cannot write {out}: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    if args.n < 1:
        print("error: table size must be >= 1", file=sys.stderr)
        return 2
    return _write_output(_table_chunks(args.kind, args.n, args.format), args.out)


def _cmd_metric(args: argparse.Namespace) -> int:
    kind, spec_args = _parse_spec(args.spec)  # a bad spec fails here, before --out is opened
    if kind == "jaco":
        value = partial(underlying_metric, spec_args[0], args.kind)  # no histogram
    else:  # its degree table, ranked by weight
        from .irregularity import _pair_sum_by_table

        value = partial(_pair_sum_by_table, _read_spec(args.spec)[1], args.kind)

    def chunks() -> Iterator[str]:  # the value is computed once --out is open
        if args.kind == "irr":  # an int, printed under the str() cap
            yield f"{value()}\n"
            return
        # In decimal the long products are fast and the value prints with no
        # int-to-str conversion; this context raises rather than rounds.
        import decimal

        exact = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, traps=[decimal.Inexact])
        with decimal.localcontext(exact):
            result = value(decimal.Decimal(1))
        yield str(result) + "\n"

    return _write_output(chunks(), args.out)


def _verify_json(checks: Iterator[CheckRecord], report: VerifyReport) -> Iterator[str]:
    # Byte-equal to json.dumps(report.to_json_dict(), indent=2,
    # sort_keys=True) + "\n" of the report that kept every record.  Its keys
    # are in sorted order, so "all_matched" comes first but is known last:
    # each record is counted and its element spooled to a temporary file,
    # which is copied after the header.  iter_checks has already refused a
    # sweep without instances, so the array holds at least one record.
    import json

    def counted() -> Iterator[dict]:
        for rec in checks:
            report.add(rec)
            yield rec.as_dict()

    with tempfile.TemporaryFile("w+", encoding="utf-8") as spool:
        spool.writelines(_json_elements(counted()))
        yield f'{{\n  "all_matched": {json.dumps(report.all_matched)},\n  "checks": ['
        spool.seek(0)
        yield from iter(partial(spool.read, 1 << 16), "")
    summary = json.dumps(report.summary_dict(), indent=2, sort_keys=True).replace("\n", "\n  ")
    yield f'\n  ],\n  "summary": {summary}\n}}\n'


def _cmd_verify(args: argparse.Namespace) -> int:
    from .theorems import VerifyReport, iter_checks

    n_range = _parse_range(args.n, "n")
    m_range = _parse_range(args.m, "m")
    i_range = _parse_range(args.i, "i") if args.i is not None else None
    checks = iter_checks(args.theorems, n_range, m_range, i_range)  # bad ranges fail here
    report = VerifyReport()  # counts only: add keeps no record
    # The JSON report goes to --out, else to stdout with --format json; the
    # summary goes to stdout whenever the report does not.
    if args.out is not None or args.format == "json":
        rc = _write_output(_verify_json(checks, report), args.out)
        if rc != 0:
            return rc
    else:
        for rec in checks:
            report.add(rec)
    if args.out is not None or args.format == "text":
        sys.stdout.write(report.summary_text())
    return 0 if report.all_matched else 1


def _later_neighbors_for_spec(spec: str) -> tuple[int, LaterNeighbors]:
    """The vertex count and the later neighbors of each vertex of the graph a spec names.

    A Jaco graph's, or a named family's, are ranges read off its shape, an
    edge-list file's the lists gathered from its edges, and no graph is
    built.  A Jaco graph or a named family is refused above the edge guard
    before any work in its size, a family's edge count being half the
    degree sum of its table in :func:`_read_spec`; a file is refused only
    by its id guard.
    """
    from .graphs import DEFAULT_EDGE_GUARD

    kind, args = _parse_spec(spec)
    if kind == "jaco":
        with _spec_errors(spec):
            return args[0], underlying_later_neighbors(args[0])
    n, degrees, later = _read_spec(spec)
    edges = sum(d * c for d, c in degrees.items()) // 2
    if kind != "file" and edges > DEFAULT_EDGE_GUARD:
        raise SpecError(f"graph spec {spec!r}: the graph has {edges} edges, above the guard of {DEFAULT_EDGE_GUARD}")
    return n, later


def _cmd_export(args: argparse.Namespace) -> int:
    from .graphs import dot_chunks, edge_list_chunks, json_chunks

    chunks = {"dot": dot_chunks, "edgelist": edge_list_chunks, "json": json_chunks}[args.format]
    return _write_output(chunks(*_later_neighbors_for_spec(args.spec)), args.out)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jacograph",
        description=(
            "Build linear Jaco graphs, compute exact irregularity metrics, "
            "and verify the recursive and union identities against "
            "independent recomputation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser(
        "table",
        help="per-vertex construction table with the metric column",
        description=(
            "Emit rows i = 1..N with in-degree, unbounded out-degree, the "
            "degree (irr) or weight (firr) sequence of the graph on i "
            "vertices, and the metric value.  Rows whose computed value "
            "differs from the previously reported reference value are "
            "annotated."
        ),
    )
    p_table.add_argument("kind", choices=("irr", "firr"))
    p_table.add_argument("n", type=int)
    p_table.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p_table.add_argument("--out", default=None)
    p_table.set_defaults(func=_cmd_table)

    p_metric = sub.add_parser(
        "metric",
        help="exact metric value of one graph",
        description=(
            "Graph specs: jaco:N, path:N, cycle:N, star:N, biclique:N:M, or "
            "a path to an edge-list file (one 'i j' line per edge, 1-based, "
            "i < j)."
        ),
    )
    p_metric.add_argument("kind", choices=("irr", "firr", "firrpm"))
    p_metric.add_argument("spec")
    p_metric.add_argument("--out", default=None)
    p_metric.set_defaults(func=_cmd_metric)

    p_verify = sub.add_parser(
        "verify",
        help="sweep identity checks and report mismatches",
        description=(
            "Run the requested checks over inclusive ranges (lo..hi or a "
            "single integer); instances outside a check's domain are "
            "skipped.  Exit code 0 when every stated relation holds, 1 when "
            "any instance mismatches, 2 on usage errors, ranges that leave a "
            "requested check without instances among them.  With --out the "
            "JSON report is written there (pass or fail) and the summary "
            "goes to stdout."
        ),
    )
    p_verify.add_argument("theorems", nargs="+", choices=THEOREM_IDS, metavar="check")
    p_verify.add_argument("--n", default="2..12", help="range for n (default 2..12)")
    p_verify.add_argument("--m", default="1..12", help="range for m (default 1..12)")
    p_verify.add_argument("--i", default=None, help="range for the join vertex (default 2..n)")
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(func=_cmd_verify)

    p_export = sub.add_parser(
        "export",
        help="serialize a graph deterministically",
        description="Write a graph as DOT, edge-list text, or JSON with sorted edges.",
    )
    p_export.add_argument("spec")
    p_export.add_argument("--format", choices=("dot", "edgelist", "json"), default="edgelist")
    p_export.add_argument("--out", default=None)
    p_export.set_defaults(func=_cmd_export)
    return parser


def main(argv: list[str] | None = None) -> int:
    # table and verify values and irr values print through str(); lift
    # CPython's int-to-str conversion cap (4300 digits by default) so they
    # print in full.  firr and firrpm values of metric are Decimals, which
    # the cap does not limit.  A limit of 0 is already unlimited: keep it.
    if hasattr(sys, "set_int_max_str_digits") and 0 < sys.get_int_max_str_digits() < 500_000:
        sys.set_int_max_str_digits(500_000)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        rc = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return rc
    except OSError as exc:
        # An I/O error, not a verdict.  A reader that closed stdout (as
        # `| head` does) ends the run silently; any other failure, as a full
        # disk under stdout, gets one line.  Stdout now writes to devnull, so
        # the flush at exit cannot fail again.
        if not isinstance(exc, BrokenPipeError):
            print(f"error: {exc}", file=sys.stderr)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MemoryError, OverflowError) as exc:
        # Resource exhaustion is not a verdict: keep exit 1 for mismatches.
        print(f"error: request too large for this machine: {exc!r}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
