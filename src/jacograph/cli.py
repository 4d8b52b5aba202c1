"""Command-line interface: tables, single metrics, verification sweeps, exports.

Exit codes: 0 success (all checks matched, for ``verify``), 1 at least one
mismatched check, 2 usage, I/O or resource error (a request too large to
allocate).  Identical invocations produce byte-identical output.

``table`` writes each row as soon as it is made, in memory of one row, so a
run ended by an error (exit 2) may leave a prefix of the table on stdout or
in ``--out``.  A reader that closes stdout early, as ``| head`` does, ends
the run with exit 2 and no message.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Iterable, Iterator

from .fibonacci import fib
from .graphs import (
    SimpleGraph,
    complete_bipartite,
    cycle,
    degree_sequence,
    from_edge_list,
    path,
    star,
    to_dot,
    to_edge_list,
)
from .irregularity import degree_histogram, pair_sum_histogram
from .jaco import out_degree, underlying_degree_counts, underlying_degrees, underlying_graph
from .theorems import THEOREM_IDS, verify_sweep

__all__ = ["main"]

# Previously reported reference values for the first twelve Jaco graphs.
# Exact recomputation disagrees with two of them (irr of J*_12 is 148, firr
# of J*_8 is 42); table output annotates any row where computed != reported
# instead of silently matching or correcting.
REPORTED_IRR = {1: 0, 2: 0, 3: 2, 4: 4, 5: 8, 6: 14, 7: 26, 8: 42, 9: 60, 10: 86, 11: 116, 12: 149}
REPORTED_FIRR = {1: 0, 2: 0, 3: 0, 4: 0, 5: 4, 6: 9, 7: 20, 8: 54, 9: 70, 10: 133, 11: 224, 12: 322}

_FAMILIES = ("jaco", "path", "cycle", "star", "biclique")


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


def _spec_ints(parts: list[str], spec: str, count: int) -> list[int]:
    if len(parts) != count:
        raise SpecError(f"bad graph spec {spec!r}")
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise SpecError(f"bad graph spec {spec!r}") from None


def _parse_spec(spec: str) -> tuple[str, list[int]] | tuple[str, str]:
    head, _, rest = spec.partition(":")
    if head in _FAMILIES:
        parts = rest.split(":") if rest else []
        if head == "biclique":
            return head, _spec_ints(parts, spec, 2)
        return head, _spec_ints(parts, spec, 1)
    return "file", spec


def graph_for_spec(spec: str) -> SimpleGraph:
    """Build the graph a spec names; raises SpecError on unusable input."""
    kind, args = _parse_spec(spec)
    try:
        if kind == "jaco":
            return underlying_graph(args[0])
        if kind == "path":
            return path(args[0])
        if kind == "cycle":
            return cycle(args[0])
        if kind == "star":
            return star(args[0])
        if kind == "biclique":
            return complete_bipartite(args[0], args[1])
        with open(args, encoding="utf-8") as fh:
            return from_edge_list(fh.read())
    except (ValueError, OSError) as exc:
        raise SpecError(f"graph spec {spec!r}: {exc}") from exc


def _family_counts(kind: str, args: list[int]) -> list[int] | None:
    """Degree histogram of a named family, or None where its builder refuses the arguments."""
    n = args[0]
    if kind == "path" and n >= 1:
        return [1] if n == 1 else [0, 2] if n == 2 else [0, 2, n - 2]
    if kind == "cycle" and n >= 3:
        return [0, 0, n]
    m = args[1] if kind == "biclique" else 1  # a star with n leaves has the degrees of biclique n, 1
    if kind in ("star", "biclique") and n >= m >= 1:
        counts = [0] * (n + 1)
        counts[m] += n
        counts[n] += m
        return counts
    return None


def counts_for_spec(spec: str) -> list[int]:
    """Degree histogram for a spec; only an edge-list file builds its graph."""
    kind, args = _parse_spec(spec)
    if kind == "jaco":
        try:
            return underlying_degree_counts(args[0])
        except ValueError as exc:
            raise SpecError(f"graph spec {spec!r}: {exc}") from exc
    counts = None if kind == "file" else _family_counts(kind, args)
    if counts is None:  # a file, or arguments the builder refuses with its own message
        counts = degree_histogram(degree_sequence(graph_for_spec(spec)))
    return counts


def _table_rows(kind: str, first: int, last: int) -> Iterator[dict]:
    """One dict per row i = first..last, made when it is asked for; its keys are the JSON row keys."""
    reported = REPORTED_IRR if kind == "irr" else REPORTED_FIRR
    for i in range(first, last + 1):
        degrees = underlying_degrees(i)
        value = pair_sum_histogram(degree_histogram(degrees), kind)
        g = out_degree(i)
        ref = reported.get(i)
        yield {
            "i": i,
            "in_degree": i - g,
            "out_degree": g,
            "sequence": degrees if kind == "irr" else tuple(fib(d) for d in degrees),
            "value": value,
            "reported": ref,
            "matches_reported": None if ref is None else ref == value,
        }


def _table_text(kind: str, n_max: int) -> Iterator[str]:
    # The column widths are needed before the first line.  Those of the last
    # row are the widest, as every column is non-decreasing in i; row i is
    # the graph on i vertices.  i - G(i) and G(i) never fall, since G steps
    # by 0 or 1.  Vertex v has degree min(v, i - G(v)), which never falls as
    # i grows, and the weights d and f_d never fall as d grows, so each
    # entry of the sequence keeps or gains digits, and row i + 1 adds one.
    # The value never falls: in the thm21 and thm31 decompositions of row
    # i + 1 (see jacograph.theorems) every term is >= 0 once each bumped
    # tail degree, at least i - G(i), is at least half the cut
    # k = G(i + 1) - 1 <= G(i).  So 2i >= 3G(i) suffices, which holds for
    # i >= 13 as G(i) <= (i + 1)/phi, and below 13 fails only at i = 1 and
    # i = 4, where irr goes 0 -> 0 and 4 -> 8, firr 0 -> 0 and 0 -> 4.
    header = ("i", "d-", "d+", "sequence", kind)

    def cells(row: dict) -> tuple[str, ...]:
        seq = "(" + ", ".join(map(str, row["sequence"])) + ")"
        return str(row["i"]), str(row["in_degree"]), str(row["out_degree"]), seq, str(row["value"])

    widths = [max(len(h), len(x)) for h, x in zip(header, cells(next(_table_rows(kind, n_max, n_max))))]

    def line(xs: tuple[str, ...]) -> str:
        return "  ".join(x.ljust(widths[c]) if c == 3 else x.rjust(widths[c]) for c, x in enumerate(xs))

    yield line(header) + "\n"
    for row in _table_rows(kind, 1, n_max):
        note = f"  *differs from reported {row['reported']}" if row["matches_reported"] is False else ""
        yield line(cells(row)) + note + "\n"


def _table_csv(kind: str, n_max: int) -> Iterator[str]:
    yield f"i,in_degree,out_degree,sequence,{kind},note\n"
    for row in _table_rows(kind, 1, n_max):
        seq = "(" + ",".join(map(str, row["sequence"])) + ")"
        note = f"reported={row['reported']}" if row["matches_reported"] is False else ""
        yield f"{row['i']},{row['in_degree']},{row['out_degree']},{seq},{row['value']},{note}\n"


def _table_json(kind: str, n_max: int) -> Iterator[str]:
    # Byte-equal to json.dumps({"kind": kind, "rows": rows}, indent=2,
    # sort_keys=True) + "\n": each row is dumped alone and indented the two
    # levels it sits at; json writes the sequence tuples as arrays.
    sep = f'{{\n  "kind": {json.dumps(kind)},\n  "rows": [\n'
    for row in _table_rows(kind, 1, n_max):
        yield sep + "    " + json.dumps(row, indent=2, sort_keys=True).replace("\n", "\n    ")
        sep = ",\n"
    yield "\n  ]\n}\n"


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
    formatter = {"text": _table_text, "csv": _table_csv, "json": _table_json}[args.format]
    return _write_output(formatter(args.kind, args.n), args.out)


def _cmd_metric(args: argparse.Namespace) -> int:
    counts = counts_for_spec(args.spec)  # a bad spec fails here, before --out is opened

    def chunks() -> Iterator[str]:  # the kernel runs once --out is open
        # In decimal the long products are fast and the value prints with no
        # int-to-str conversion; this context raises rather than rounds.
        # Imported here, as it costs every start-up about 1.5 ms.
        import decimal

        exact = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, traps=[decimal.Inexact])
        with decimal.localcontext(exact):
            value = pair_sum_histogram(counts, args.kind, decimal.Decimal(1))
        yield str(value) + "\n"

    return _write_output(chunks(), args.out)


def _cmd_verify(args: argparse.Namespace) -> int:
    n_range = _parse_range(args.n, "n")
    m_range = _parse_range(args.m, "m")
    i_range = _parse_range(args.i, "i") if args.i is not None else None
    report = verify_sweep(args.theorems, n_range, m_range, i_range)
    # The JSON report goes to --out, else to stdout with --format json; the
    # summary goes to stdout whenever the report does not.
    if args.out is not None or args.format == "json":
        rc = _write_output([json.dumps(report.to_json_dict(), indent=2, sort_keys=True), "\n"], args.out)
        if rc != 0:
            return rc
    if args.out is not None or args.format == "text":
        sys.stdout.write(report.summary_text())
    return 0 if report.all_matched else 1


def _cmd_export(args: argparse.Namespace) -> int:
    g = graph_for_spec(args.spec)
    if args.format == "dot":
        text = to_dot(g)
    elif args.format == "edgelist":
        text = to_edge_list(g)
    else:
        text = json.dumps({"n": g.n, "edges": [list(e) for e in g.edges()]}, sort_keys=True) + "\n"
    return _write_output([text], args.out)


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
    # the cap does not limit.
    if hasattr(sys, "set_int_max_str_digits") and sys.get_int_max_str_digits() < 500_000:
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
    except BrokenPipeError:
        # The reader closed stdout (as `| head` does): an I/O error, not a
        # verdict.  Stdout now writes to devnull, so the flush at exit is silent.
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
