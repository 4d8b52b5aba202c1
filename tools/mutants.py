"""Apply source mutations to a copy of src/ and report which verify ids turn red.

Usage: python3 tools/mutants.py [NAME...]   (all mutations when no NAME is given)

Each mutation replaces one piece of text, which occurs exactly once under
src/, in a temporary copy of src/ (made where ``tempfile`` puts it, so
TMPDIR picks the place).  The copy then runs every sweep in SWEEPS with
``python -m jacograph verify ... --format json``.  An id turns red when its
mismatch count differs from that of the same sweep on the unchanged source
(thm33 mismatches by design), or when the sweep does not end with exit 0
or 1 and a JSON report.  An id whose records changed while its count did
not is "moved": the mutation reached its values, and its verdicts did not
see it, as an upper bound with slack can miss a smaller right side.
Prints one line per mutation: its name, the red ids and the moved ones.
Stdlib only.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# (name, file under src/jacograph, text, replacement)
MUTATIONS = [
    (
        "split-merge",  # one more on every merge of the kernel's binary splitting
        "irregularity.py",
        "return a_low + x - f2 * a_up, b_low + x + f1 * b_up",
        "return a_low + x - f2 * a_up + 1, b_low + x + f1 * b_up",
    ),
    (
        "fib-pair-odd-step",  # the step from f_2k to f_2k+1 on a set bit
        "fibonacci.py",
        "            a, b = b, a + b\n",
        "            a, b = b, a + b + 1\n",
    ),
    (
        "tail-trim",  # the trim of the tail's last end, so degree lo loses or gains a vertex
        "jaco.py",
        "tail[-1] = n - max(k, _floor_phi(j1) - 1)",
        "tail[-1] = n - max(k, _floor_phi(j1))",
    ),
    (
        "isqrt-degree",  # wrong where 5a^2 + 4 is a square, at a = 3, 8, 21, 55, ...: vertices 2, 7, 20, 54, ...
        "jaco.py",
        "n - (isqrt(5 * a * a) - a) // 2 for a in range(k + 2, n + 2)",
        "n - (isqrt(5 * a * a + 4) - a) // 2 for a in range(k + 2, n + 2)",
    ),
    (
        "union-window",  # a one-degree window of the union bound is skipped
        "theorems.py",
        "if cut > lo:",
        "if cut > lo + 1:",
    ),
    (
        "rank-coefficient",  # right only for degrees held by one vertex
        "theorems.py",
        "r = c * (2 * below + c - n)",
        "r = c * (2 * below + 1 - n)",
    ),
]

SWEEPS = [
    ["thm21", "thm31", "--n", "2..300"],
    ["thm31", "--n", "4400..4405"],  # the growth step's stream is longer than one leaf
    ["thm32", "cor31", "--n", "2..60", "--m", "1..60"],
    ["cor31", "--n", "1657", "--m", "1656..1657"],  # the union's histogram is longer than one leaf
    ["lemma31", "thm33", "--n", "3..20", "--m", "1..20"],
]


def reports(src: Path, sweep: list[str]) -> dict[str, tuple[int, list]] | None:
    """(mismatches, records) per id of one sweep run on ``src``, or None when it gave no report."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "jacograph", "verify", *sweep, "--format", "json"]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
    try:
        report = json.loads(proc.stdout) if proc.returncode in (0, 1) else None
        by_id = report["summary"]["by_theorem"]
    except (TypeError, ValueError, KeyError):
        return None
    records = {tid: [r for r in report["checks"] if r["theorem"] == tid] for tid in by_id}
    return {tid: (counts["mismatched"], records[tid]) for tid, counts in by_id.items()}


def changed_ids(src: Path, clean: list[dict[str, tuple[int, list]]]) -> tuple[list[str], list[str]]:
    """The red ids and the moved ones, over every sweep."""
    red, moved = set(), set()
    for sweep, expected in zip(SWEEPS, clean):
        got = reports(src, sweep)
        for tid in expected:
            if got is None or got[tid][0] != expected[tid][0]:
                red.add(tid)
            elif got[tid][1] != expected[tid][1]:
                moved.add(tid)
    return sorted(red), sorted(moved - red)


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTATIONS if len(argv) < 2 or m[0] in argv[1:]]
    clean = [reports(SRC, sweep) for sweep in SWEEPS]
    if None in clean:
        print("the unchanged source gave no report for a sweep", file=sys.stderr)
        return 2
    for name, file, text, replacement in chosen:
        with tempfile.TemporaryDirectory() as tmp:
            src = Path(tmp) / "src"
            shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
            path = src / "jacograph" / file
            source = path.read_text(encoding="utf-8")
            if source.count(text) != 1:
                print(f"{name}: its text does not occur exactly once in {file}", file=sys.stderr)
                return 2
            path.write_text(source.replace(text, replacement), encoding="utf-8")
            red, moved = changed_ids(src, clean)
        print(f"{name}: red {' '.join(red) or '-'}; moved {' '.join(moved) or '-'}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
