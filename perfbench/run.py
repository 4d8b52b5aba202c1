"""jacograph benchmark: whole CLI runs, timed from outside, one at a time.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every invocation is ``python -m jacograph ...`` in a fresh child process,
spawned after the previous one has been reaped: a closed loop with a single
client, as users run the tool.  ``reap.py`` times and reaps each one, so its
peak RSS is its own.  A round is a fixed pure-Python probe (a host-speed
diagnostic that scales nothing), SETUP_PER_ROUND trivial invocations for
set-up time, and then the workload's invocations.  Rounds repeat until S
seconds have passed.

``wall_s`` is the fastest round and ``items_per_s`` the matching best rate.
On a shared 2-core VM, host speed drifted in common mode by up to 1.7x
within minutes, and a run's fastest round moved about half as much as its
median round did.  ``setup_s`` is the median over all trivial invocations,
and ``peak_rss_mb`` is the largest child of the run.  Every invocation's exit
code and stdout digest are checked; a mismatch counts as failed and the run
goes on.

With ``--trace 1`` each round instead runs the workload untraced and then
traced, one fresh ``perfbench/tracer.py`` process per invocation (verify
invocations are split into one per check id), and reports the per-layer
metrics.  The end-to-end metrics come from untraced runs only.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The lines before it are the same numbers for people.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import random
import re
import selectors
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

DEFAULT_SEED = 0
SETUP_ARGV = ["metric", "irr", "jaco:1"]
SETUP_PER_ROUND = 3
MIN_ROUNDS = 3
TAIL_BYTES = 4096

# name -> invocations, given ``near(nominal)``, which returns the nominal size
# at the default seed and a size within 1 % of it at any other seed.  The
# verify ranges are fixed: they are the rows the roadmap names.
WORKLOADS = {
    # One huge graph: construction, degree data, Fibonacci weights and the
    # sorted pair sums do the work.
    "metric-large": lambda near: [
        ["metric", "irr", f"jaco:{near(1_000_000)}"],
        ["metric", "firr", f"jaco:{near(100_000)}"],
        ["metric", "firrpm", f"jaco:{near(100_000)}"],
    ],
    # The same layers the other way round: thousands of tiny prefix graphs,
    # plus formatting megabytes of output.
    "table-prefix": lambda near: [
        ["table", "irr", str(near(2000)), "--format", "csv"],
        ["table", "firr", str(near(1000)), "--format", "json"],
    ],
    # Formula side of the union checks; the same n's degrees are rebuilt
    # for every m.
    "verify-union": lambda near: [
        ["verify", "thm32", "cor31", "--n", "2..100", "--m", "1..100"],
    ],
    # Oracle side: naive pair sums and constructed graphs.  The second
    # invocation exits 1 by design (thm33's printed formula is under test).
    "verify-oracle": lambda near: [
        ["verify", "thm21", "thm31", "--n", "2..300"],
        ["verify", "lemma31", "thm33", "--n", "3..20", "--m", "1..20"],
    ],
}

# (name, unit, better); BENCHMARK.json lists the same metrics.
END_TO_END = [
    ("wall_s", "s", "lower"),
    ("items_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
    ("ok_frac", "1", "higher"),
]

CHECKS = ("thm21", "thm31", "thm32", "cor31", "lemma31", "thm33")


def _per_layer() -> list[tuple[str, str, str]]:
    out = []

    def add(prefix, fields):
        for field, unit, better in fields:
            out.append((f"{prefix}.{field}", unit, better))

    timed = [("self_s", "s", "lower"), ("calls", "count", "lower")]
    add("jaco.build_profile", timed + [("peak_mb", "MB", "lower")])
    add("jaco.underlying_degrees", timed + [("vertices", "count", "lower"), ("distinct_ratio", "1", "higher")])
    add("jaco.underlying_graph", timed + [("edges", "count", "lower")])
    add("jaco.prime_jaconian_index", timed)
    for func in ("fib", "weight_of_degree", "signed_weight_of_degree"):
        add(f"fibonacci.{func}", [("calls", "count", "lower")])
    add("fibonacci", [("max_index", "count", "lower"), ("cache_mb", "MB", "lower"), ("fill_s", "s", "lower")])
    for func in ("irr_t", "firr_t", "firr_pm", "pair_sum_sorted"):
        add(f"irregularity.{func}", timed + [("elements", "count", "lower")])
    add("irregularity.pair_sum_naive", timed + [("pairs", "count", "lower")])
    for check in CHECKS:
        if check in ("thm32", "cor31"):
            sides = [("self_s", "s", "lower")]
        else:
            sides = [("formula_s", "s", "lower"), ("oracle_s", "s", "lower")]
        add(f"theorems.{check}", sides + [("checks", "count", "higher")])
    for func in ("edge_joint", "disjoint_union", "degree_sequence"):
        add(f"graphs.{func}", timed)
    out += [("cli.main.self_s", "s", "lower"), ("cli.stdout_bytes", "B", "lower")]
    out += [("trace.overhead_frac", "1", "lower"), ("host.probe_ms", "ms", "lower")]
    return out


PER_LAYER = _per_layer()


def workload_argv(name: str, seed: int) -> list[list[str]]:
    rng = random.Random(f"{name}:{seed}")

    def near(nominal: int) -> int:
        if seed == DEFAULT_SEED:
            return nominal
        return nominal + rng.randint(-nominal // 100, nominal // 100)

    return WORKLOADS[name](near)


def split_by_check(argv: list[str]) -> list[list[str]]:
    """One verify invocation per check id, so each traced process runs one check."""
    if argv[0] != "verify":
        return [argv]
    ids = [a for a in argv[1:] if a in CHECKS]
    options = argv[1 + len(ids):]
    return [["verify", check, *options] for check in ids]


# --- expected outputs -------------------------------------------------------


def load_recorded() -> dict[str, dict]:
    with open(HERE / "expected.json", encoding="utf-8") as fh:
        return json.load(fh)["invocations"]


def items_of(argv: list[str], tail: bytes) -> int:
    """Work an invocation did: Jaco vertices (metric), rows (table), checks (verify)."""
    if argv[0] == "metric":
        return int(argv[2].split(":")[1])
    if argv[0] == "table":
        return int(argv[2])
    found = re.search(rb"overall: \w+ \((\d+) checks", tail)
    return int(found.group(1)) if found else 0


# --- child processes --------------------------------------------------------


@dataclass
class Child:
    argv: list[str]
    wall_s: float
    code: int
    sha256: str
    nbytes: int
    tail: bytes
    maxrss_mb: float
    stderr: bytes
    ok: bool = False


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(cmd: list[str], argv: list[str], env: dict[str, str]) -> Child:
    """Run one command to completion: wall time from spawn to reap, its own peak RSS.

    ``reap.py`` forks the command and reaps it with ``os.wait4``, which gives
    the rusage of that one process; RUSAGE_CHILDREN would report the running
    maximum over every child reaped so far.  Stdout is hashed as it arrives.
    """
    digest = hashlib.sha256()
    nbytes = 0
    tail = b""
    err: list[bytes] = []
    report_r, report_w = os.pipe()
    proc = subprocess.Popen(
        [sys.executable, "-S", str(HERE / "reap.py"), str(report_w), *cmd],
        cwd=ROOT, env=env, pass_fds=(report_w,), start_new_session=True,
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    os.close(report_w)
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            sel.register(proc.stderr, selectors.EVENT_READ)
            while sel.get_map():
                for key, _ in sel.select():
                    chunk = os.read(key.fd, 1 << 20)
                    if not chunk:
                        sel.unregister(key.fileobj)
                    elif key.fileobj is proc.stdout:
                        digest.update(chunk)
                        nbytes += len(chunk)
                        tail = (tail + chunk[-TAIL_BYTES:])[-TAIL_BYTES:]
                    else:
                        err.append(chunk)
        proc.wait()
        report = os.read(report_r, 4096).split()
    except BaseException:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)  # the session holds reap.py and the command
        proc.wait()
        raise
    finally:
        os.close(report_r)
        proc.stdout.close()
        proc.stderr.close()
    if proc.returncode != 0 or len(report) != 3:
        err.append(f"reap.py exited {proc.returncode} without a report\n".encode())
        report = [b"0", b"-1", b"0"]
    wall, code, maxrss_kb = float(report[0]), int(report[1]), int(report[2])
    return Child(argv, wall, code, digest.hexdigest(), nbytes, tail, maxrss_kb / 1024, b"".join(err))


def cli_cmd(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "jacograph", *argv]


def traced_cmd(argv: list[str]) -> list[str]:
    return [sys.executable, str(HERE / "tracer.py"), *argv]


class Runner:
    """Spawns children, checks each against its expectation, keeps the tally."""

    def __init__(self, recorded: dict[str, dict]) -> None:
        self.recorded = recorded
        self.expected: dict[str, dict] = {}
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def prepare(self, argvs: list[list[str]]) -> None:
        """Fix every expectation up front, outside the timed region.

        Where no digest is recorded, ``reference.py`` renders the expected
        stdout in a child process, so its memory stays out of this one.
        """
        for argv in argvs:
            key = " ".join(argv)
            if key in self.recorded:
                self.expected[key] = self.recorded[key]
                continue
            ref = spawn([sys.executable, str(HERE / "reference.py"), *argv], argv, self.env)
            if ref.code != 0:
                raise RuntimeError(f"reference failed for {key!r}: {ref.stderr.decode(errors='replace')}")
            self.expected[key] = {"exit": 0, "sha256": ref.sha256, "bytes": ref.nbytes}

    def run(self, argv: list[str], traced: bool = False) -> Child:
        child = spawn(traced_cmd(argv) if traced else cli_cmd(argv), argv, self.env)
        want = self.expected[" ".join(argv)]
        self.attempted += 1
        child.ok = True
        if child.code != want["exit"] or child.sha256 != want["sha256"]:
            self.fail(child, f"exit {child.code} (want {want['exit']}), "
                      f"{child.nbytes} stdout bytes (want {want.get('bytes')})")
        return child

    def fail(self, child: Child, reason: str) -> None:
        """Count an attempted child as failed, at most once, with a note for the report."""
        if not child.ok:
            return
        child.ok = False
        self.failed += 1
        if len(self.notes) < 10:
            stderr = child.stderr[-300:].decode(errors="replace")
            self.notes.append(f"FAILED jacograph {' '.join(child.argv)}: {reason}; stderr {stderr!r}")


def probe_ms() -> float:
    """Fixed pure-Python loop: tracks host speed drift; never used to scale a metric."""
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i % 7
    return (time.perf_counter() - start) * 1e3


# --- per-layer aggregation --------------------------------------------------

# check id -> function called once per checked instance
CHECK_FN = {
    "thm21": "theorems.thm21_rhs",
    "thm31": "theorems.thm31_rhs",
    "thm32": "theorems.thm32_check",
    "cor31": "theorems.cor31_check",
    "lemma31": "theorems.lemma31_check",
    "thm33": "theorems.thm33_check",
}


def _theorem_sides(check: str, names: list[str], spans: list[list], incl: list[int]) -> tuple[int, int]:
    """(formula ns, oracle ns) of one traced process that ran one check id.

    thm21/thm31: the formula is the rhs function; the oracle is the rest of
    the sweep (naive pair sums over fresh degree data) without the shared
    profile build.  thm33: thm33_literal against thm33_exact.  lemma31: in
    each check, the spans from disjoint_union on are the union side (oracle),
    from edge_joint on the joined side (formula); the two graph builds before
    them are shared and counted in neither.
    """
    formula = oracle = 0
    if check in ("thm21", "thm31"):
        rhs = f"theorems.{check}_rhs"
        sweeps = {i for i, s in enumerate(spans) if names[s[0]] == "theorems.verify_sweep"}
        for i, s in enumerate(spans):
            name = names[s[0]]
            if name == rhs:
                formula += incl[i]
            elif i in sweeps:
                oracle += incl[i]
            elif name == "jaco.build_profile" and s[3] in sweeps:
                oracle -= incl[i]
        oracle -= formula
    elif check == "thm33":
        for i, s in enumerate(spans):
            if names[s[0]] == "theorems.thm33_literal":
                formula += incl[i]
            elif names[s[0]] == "theorems.thm33_exact":
                oracle += incl[i]
    elif check == "lemma31":
        side: dict[int, str] = {}
        for i, s in enumerate(spans):
            parent = s[3]
            if parent < 0 or names[spans[parent][0]] != "theorems.lemma31_check":
                continue
            name = names[s[0]]
            if name == "graphs.disjoint_union":
                side[parent] = "oracle"
            elif name == "graphs.edge_joint":
                side[parent] = "formula"
            if side.get(parent) == "oracle":
                oracle += incl[i]
            elif side.get(parent) == "formula":
                formula += incl[i]
    return formula, oracle


def fib_cache_mb(max_index: int) -> float:
    """Computed size of a Fibonacci cache up to max_index: sum of ceil(bits(f_i) / 8)."""
    a, b, total = 0, 1, 0
    for _ in range(max_index + 1):
        total += (a.bit_length() + 7) // 8
        a, b = b, a + b
    return total / 2**20


def layer_metrics(traces: list[tuple[Child, dict]]) -> dict[str, float]:
    """Per-layer metrics of one traced round: one (child, trace) per process."""
    values = {name: 0 for name, _, _ in PER_LAYER}
    self_ns: dict[str, int] = {}
    calls: dict[str, int] = {}
    attrs: dict[str, int] = {}
    distinct = 0
    max_index = fill_s = 0
    peak = 0
    for child, trace in traces:
        names, spans = trace["names"], trace["spans"]
        incl = [s[2] - s[1] for s in spans]
        covered = [0] * len(spans)
        for i, s in enumerate(spans):
            if s[3] >= 0:
                covered[s[3]] += incl[i]
        seen_n = set()
        for i, s in enumerate(spans):
            name = names[s[0]]
            self_ns[name] = self_ns.get(name, 0) + incl[i] - covered[i]
            calls[name] = calls.get(name, 0) + 1
            if s[4] is not None:
                attrs[name] = attrs.get(name, 0) + s[4]
                if name == "jaco.underlying_degrees":
                    seen_n.add(s[4])
        distinct += len(seen_n)
        for name, count in trace["counts"].items():
            values[f"{name}.calls"] += count
        if trace["fib_max_index"] > max_index:
            max_index, fill_s = trace["fib_max_index"], trace.get("fib_fill_s", 0.0)
        peak = max(peak, trace.get("build_profile_peak_bytes", 0))
        values["cli.stdout_bytes"] += child.nbytes
        if child.argv[0] == "verify":
            check = child.argv[1]
            prefix = f"theorems.{check}"
            values[f"{prefix}.checks"] += sum(1 for s in spans if names[s[0]] == CHECK_FN[check])
            if check in ("thm32", "cor31"):
                values[f"{prefix}.self_s"] += sum(
                    incl[i] - covered[i] for i, s in enumerate(spans) if names[s[0]] == CHECK_FN[check]
                ) / 1e9
            else:
                formula, oracle = _theorem_sides(check, names, spans, incl)
                values[f"{prefix}.formula_s"] += formula / 1e9
                values[f"{prefix}.oracle_s"] += oracle / 1e9

    for name, ns in self_ns.items():
        if f"{name}.self_s" in values:
            values[f"{name}.self_s"] = ns / 1e9
        if f"{name}.calls" in values:
            values[f"{name}.calls"] = calls[name]
    for name, total in attrs.items():
        for field in ("vertices", "edges", "elements", "pairs"):
            if f"{name}.{field}" in values:
                values[f"{name}.{field}"] = total
    n_calls = calls.get("jaco.underlying_degrees", 0)
    values["jaco.underlying_degrees.distinct_ratio"] = distinct / n_calls if n_calls else 0.0
    values["jaco.build_profile.peak_mb"] = peak / 2**20
    values["fibonacci.max_index"] = max_index
    values["fibonacci.cache_mb"] = fib_cache_mb(max_index) if max_index else 0.0
    values["fibonacci.fill_s"] = fill_s
    return values


# --- runs ---------------------------------------------------------------------


def run_untraced(runner: Runner, argvs: list[list[str]], seconds: float) -> dict[str, float]:
    walls, rates, rss, setups, probes = [], [], [], [], []
    runner.run(SETUP_ARGV)  # warm-up: byte-compiles the package in a fresh checkout
    start = time.perf_counter()
    while len(walls) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        probes.append(probe_ms())
        setups += [runner.run(SETUP_ARGV).wall_s for _ in range(SETUP_PER_ROUND)]
        children = [runner.run(argv) for argv in argvs]
        wall = sum(c.wall_s for c in children)
        walls.append(wall)
        rates.append(sum(items_of(c.argv, c.tail) for c in children) / wall)
        rss.append(max(c.maxrss_mb for c in children))
    print(f"  rounds {len(walls)}; diagnostics: median round {statistics.median(walls):.4f} s, "
          f"probe_ms {statistics.median(probes):.2f}")
    return {
        "wall_s": min(walls),
        "items_per_s": max(rates),
        "peak_rss_mb": max(rss),
        "setup_s": statistics.median(setups),
        "ok_frac": 1 - runner.failed / runner.attempted,
    }


def run_traced(runner: Runner, argvs: list[list[str]], seconds: float) -> dict[str, float]:
    rounds: list[dict[str, float]] = []
    attempts = 0
    start = time.perf_counter()
    while attempts < 1 or time.perf_counter() - start < seconds:
        attempts += 1
        probe = probe_ms()
        plain = [runner.run(argv) for argv in argvs]
        traced = [runner.run(argv, traced=True) for argv in argvs]
        traces = []
        for child in traced:
            try:
                traces.append((child, json.loads(child.stderr.splitlines()[-1])))
            except (IndexError, ValueError):
                runner.fail(child, "left no trace")
        if len(traces) < len(traced):
            continue
        values = layer_metrics(traces)
        traced_wall = sum(c.wall_s - t["post_s"] for c, t in traces)
        values["trace.overhead_frac"] = traced_wall / sum(c.wall_s for c in plain) - 1
        values["host.probe_ms"] = probe
        rounds.append(values)
    print(f"  rounds {len(rounds)} of {attempts} complete")
    if not rounds:
        return {name: 0.0 for name, _, _ in PER_LAYER}
    return {name: statistics.median(r[name] for r in rounds) for name, _, _ in PER_LAYER}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A stopped run raises SystemExit, so spawn() kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "jacograph" / "__init__.py").is_file():
        print(f"error: no jacograph sources under {SRC}", file=sys.stderr)
        return 2

    argvs = workload_argv(args.workload, args.seed)
    if args.trace:
        argvs = [part for argv in argvs for part in split_by_check(argv)]
    runner = Runner(load_recorded())
    start = time.perf_counter()
    runner.prepare(argvs + [SETUP_ARGV])
    print(f"workload {args.workload}, seed {args.seed}, tracing {'on' if args.trace else 'off'}")
    print(f"  expectations ready in {time.perf_counter() - start:.2f} s")
    for a in argvs:
        print(f"  invocation: jacograph {' '.join(a)}")
    if args.trace:
        metrics = run_traced(runner, argvs, args.seconds)
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        metrics = run_untraced(runner, argvs, args.seconds)
        units = {name: unit for name, unit, _ in END_TO_END}
    for name, value in metrics.items():
        print(f"  {name:45s} {value:.6g} {units[name]}")
    if not args.trace:
        print(f"  {'fail_frac':45s} {runner.failed / runner.attempted:.6g} 1")
    for note in runner.notes:
        print(f"  {note}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
