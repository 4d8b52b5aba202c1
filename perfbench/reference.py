"""Independent reference for the benchmark's seed-dependent CLI outputs.

Nothing here imports jacograph, and no algorithm is shared with it:

* Jaco degrees come from the closed form of the unbounded out-degree,
  d+(v_i) = i - d-(v_i) = G(i) = floor((i + 1) / phi) (Hofstadter's
  G-sequence, OEIS A005206), evaluated exactly with ``math.isqrt``; vertex i
  of the n-vertex graph has degree d-(v_i) + min(d+(v_i), n - i).
* Metrics come from the degree histogram instead of sorting: for weights w
  that are non-decreasing in the degree,
  sum_{u<v} |w_u - w_v| = sum_t (w_{t+1} - w_t) * L_t * (n - L_t),
  where L_t counts the degrees <= t.  For Fibonacci weights the step
  f_{t+1} - f_t is f_{t-1}, so the Fibonacci numbers are streamed, never
  stored.  The signed weights split by parity: pairs within one parity are a
  plain Fibonacci pair sum, and a cross pair of degrees a (even) and b (odd)
  contributes f_a + f_b.

:func:`expected_stdout` renders the exact bytes the CLI prints for the
invocations the benchmark draws from its seed.  As a script,
``python3 perfbench/reference.py CLI_ARG...`` writes them to stdout.
"""

from __future__ import annotations

import json
import sys
from math import isqrt

# Previously reported values the CLI annotates table rows against (README).
REPORTED = {
    "irr": {1: 0, 2: 0, 3: 2, 4: 4, 5: 8, 6: 14, 7: 26, 8: 42, 9: 60, 10: 86, 11: 116, 12: 149},
    "firr": {1: 0, 2: 0, 3: 0, 4: 0, 5: 4, 6: 9, 7: 20, 8: 54, 9: 70, 10: 133, 11: 224, 12: 322},
}


def out_degree(i: int) -> int:
    """G(i) = floor((i + 1) / phi) = floor((floor((i + 1) * sqrt 5) - (i + 1)) / 2)."""
    a = i + 1
    return (isqrt(5 * a * a) - a) // 2


def degrees(n: int, g: list[int] | None = None) -> list[int]:
    """Degree sequence of the n-vertex Jaco graph, in vertex order.

    ``g`` may hold precomputed out-degrees, ``g[i] = G(i)`` for i <= n.
    """
    if g is None:
        g = [0] + [out_degree(i) for i in range(1, n + 1)]
    return [i - g[i] + min(g[i], n - i) for i in range(1, n + 1)]


def histogram(ds: list[int]) -> list[int]:
    hist = [0] * (max(ds) + 1)
    for d in ds:
        hist[d] += 1
    return hist


def irr_hist(hist: list[int]) -> int:
    n = sum(hist)
    below = total = 0
    for count in hist[:-1]:
        below += count
        total += below * (n - below)
    return total


def firr_hist(hist: list[int]) -> int:
    n = sum(hist)
    below = total = 0
    step, f_t = 1, 0  # f_{t-1} and f_t at t = 0, with f_{-1} = 1
    for count in hist[:-1]:
        below += count
        if 0 < below < n:
            total += step * (below * (n - below))
        step, f_t = f_t, step + f_t
    return total


def firr_pm_hist(hist: list[int]) -> int:
    even = [c if d % 2 == 0 else 0 for d, c in enumerate(hist)]
    odd = [c if d % 2 else 0 for d, c in enumerate(hist)]
    weight_even = weight_odd = 0  # sum of f_d over the vertices of each parity
    f_d, f_next = 0, 1
    for d, count in enumerate(hist):
        if count:
            if d % 2:
                weight_odd += count * f_d
            else:
                weight_even += count * f_d
        f_d, f_next = f_next, f_d + f_next
    return firr_hist(even) + firr_hist(odd) + sum(odd) * weight_even + sum(even) * weight_odd


def fibs(count: int) -> list[int]:
    out = [0, 1]
    while len(out) < count:
        out.append(out[-1] + out[-2])
    return out[:count]


def metric_value(kind: str, n: int) -> int:
    hist = histogram(degrees(n))
    return {"irr": irr_hist, "firr": firr_hist, "firrpm": firr_pm_hist}[kind](hist)


def table_rows(kind: str, n_max: int) -> list[dict]:
    g = [0] + [out_degree(i) for i in range(1, n_max + 1)]
    fib = fibs(n_max + 2)
    reported = REPORTED[kind]
    rows = []
    for i in range(1, n_max + 1):
        ds = degrees(i, g)
        hist = histogram(ds)
        if kind == "irr":
            sequence, value = ds, irr_hist(hist)
        else:
            sequence, value = [fib[d] for d in ds], firr_hist(hist)
        rows.append(
            {
                "i": i,
                "in_degree": i - g[i],
                "out_degree": g[i],
                "sequence": sequence,
                "value": value,
                "reported": reported.get(i),
            }
        )
    return rows


def _table_csv(kind: str, rows: list[dict]) -> str:
    lines = [f"i,in_degree,out_degree,sequence,{kind},note"]
    for r in rows:
        note = "" if r["reported"] in (None, r["value"]) else f"reported={r['reported']}"
        seq = ",".join(map(str, r["sequence"]))
        lines.append(f"{r['i']},{r['in_degree']},{r['out_degree']},({seq}),{r['value']},{note}")
    return "\n".join(lines) + "\n"


def _table_json(kind: str, rows: list[dict]) -> str:
    for r in rows:
        r["matches_reported"] = None if r["reported"] is None else r["reported"] == r["value"]
    return json.dumps({"kind": kind, "rows": rows}, indent=2, sort_keys=True) + "\n"


def expected_stdout(argv: list[str]) -> bytes:
    """Exact stdout of ``jacograph <argv>`` for the invocations this reference covers.

    ``metric {irr,firr,firrpm} jaco:N`` and ``table {irr,firr} N --format
    {csv,json}``; anything else raises ValueError.
    """
    # Exact metrics run to tens of thousands of digits, as in the CLI.
    if sys.get_int_max_str_digits() and sys.get_int_max_str_digits() < 500_000:
        sys.set_int_max_str_digits(500_000)
    if len(argv) == 3 and argv[0] == "metric" and argv[2].startswith("jaco:"):
        return f"{metric_value(argv[1], int(argv[2][5:]))}\n".encode()
    if len(argv) == 5 and argv[0] == "table" and argv[3] == "--format":
        kind, n_max, fmt = argv[1], int(argv[2]), argv[4]
        render = {"csv": _table_csv, "json": _table_json}[fmt]
        return render(kind, table_rows(kind, n_max)).encode()
    raise ValueError(f"no reference for {' '.join(argv)!r}")


if __name__ == "__main__":
    sys.stdout.buffer.write(expected_stdout(sys.argv[1:]))
