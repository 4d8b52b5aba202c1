"""Self-tests of the benchmark harness.

Usage, from the root of a checkout: python3 perfbench/selftest.py

Checks that wrong outputs and wrong exit codes count as failed without
stopping a run, that the independent reference reproduces the recorded
default-seed digests and the literal Jaco construction, that the per-layer
aggregation computes self time and check sides as documented, and that the
benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import reference
import run


def literal_jaco_degrees(n: int) -> list[int]:
    """Degrees of the n-vertex Jaco graph, built arc by arc from the definition."""
    in_deg = [0] * (n + 2)
    degree = [0] * (n + 1)
    for i in range(1, n + 1):
        reach = 2 * i - in_deg[i]
        for j in range(i + 1, min(reach, n) + 1):
            in_deg[j] += 1
            degree[i] += 1
            degree[j] += 1
    return degree[1:]


def pair_sum(weights: list[int]) -> int:
    return sum(abs(a - b) for k, a in enumerate(weights) for b in weights[k + 1:])


def fib(i: int) -> int:
    a, b = 0, 1
    for _ in range(i):
        a, b = b, a + b
    return a


class FailureTally(unittest.TestCase):
    def runner(self, exit_code: int, sha256: str) -> run.Runner:
        runner = run.Runner({})
        runner.expected[" ".join(run.SETUP_ARGV)] = {"exit": exit_code, "sha256": sha256, "bytes": 2}
        return runner

    def test_matching_output_passes(self):
        good = hashlib.sha256(b"0\n").hexdigest()
        runner = self.runner(0, good)
        child = runner.run(run.SETUP_ARGV)
        self.assertTrue(child.ok)
        self.assertEqual((runner.attempted, runner.failed), (1, 0))

    def test_corrupted_expectation_counts_as_failed(self):
        runner = self.runner(0, "0" * 64)
        child = runner.run(run.SETUP_ARGV)
        runner.run(run.SETUP_ARGV)
        self.assertFalse(child.ok)
        self.assertEqual((runner.attempted, runner.failed), (2, 2))
        self.assertIn("FAILED", runner.notes[0])

    def test_wrong_exit_code_counts_as_failed(self):
        runner = self.runner(1, hashlib.sha256(b"0\n").hexdigest())
        self.assertFalse(runner.run(run.SETUP_ARGV).ok)
        self.assertEqual(runner.failed, 1)

    def test_failure_is_counted_once(self):
        runner = self.runner(1, "0" * 64)
        child = runner.run(run.SETUP_ARGV)
        runner.fail(child, "left no trace")
        self.assertEqual(runner.failed, 1)

    def test_run_with_corrupted_expectations_reports_instead_of_crashing(self):
        recorded = run.load_recorded()
        for key in recorded:
            if key.startswith("verify lemma31 thm33"):
                recorded[key] = dict(recorded[key], exit=0)
        out = io.StringIO()
        saved = run.load_recorded, run.MIN_ROUNDS
        run.load_recorded, run.MIN_ROUNDS = (lambda: recorded), 1
        try:
            with contextlib.redirect_stdout(out):
                code = run.main(["--workload", "verify-oracle", "--seconds", "0"])
        finally:
            run.load_recorded, run.MIN_ROUNDS = saved
        result = json.loads(out.getvalue().splitlines()[-1])
        self.assertEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertEqual(result["attempted"], 1 + run.SETUP_PER_ROUND + 2)  # warm-up, set-up, workload
        self.assertLess(result["metrics"]["ok_frac"]["value"], 1)


class PeakRss(unittest.TestCase):
    def test_child_peak_excludes_the_harness_peak(self):
        ballast = bytearray(200 * 2**20)  # raises this process's peak RSS to over 200 MB
        ballast[:: 4096] = b"x" * len(ballast[:: 4096])
        cmd = [sys.executable, "-S", "-c", "pass"]
        child = run.spawn(cmd, cmd, run.child_env())
        del ballast
        self.assertEqual(child.code, 0)
        self.assertLess(child.maxrss_mb, 50)


class Reference(unittest.TestCase):
    def test_closed_form_matches_literal_construction(self):
        for n in range(1, 200):
            self.assertEqual(reference.degrees(n), literal_jaco_degrees(n), n)

    def test_histogram_metrics_match_pair_sums(self):
        rng = random.Random(7)
        for _ in range(200):
            ds = [rng.randint(0, 12) for _ in range(rng.randint(1, 25))]
            hist = reference.histogram(ds)
            self.assertEqual(reference.irr_hist(hist), pair_sum(ds))
            self.assertEqual(reference.firr_hist(hist), pair_sum([fib(d) for d in ds]))
            signed = [-fib(d) if d % 2 else fib(d) for d in ds]
            self.assertEqual(reference.firr_pm_hist(hist), pair_sum(signed))

    def test_reference_reproduces_recorded_default_seed_digests(self):
        recorded = run.load_recorded()
        for name in ("metric-large", "table-prefix"):
            for argv in run.workload_argv(name, run.DEFAULT_SEED):
                digest = hashlib.sha256(reference.expected_stdout(argv)).hexdigest()
                self.assertEqual(digest, recorded[" ".join(argv)]["sha256"], argv)

    def test_every_invocation_has_an_expectation(self):
        recorded = run.load_recorded()
        for name in run.WORKLOADS:
            for seed in (run.DEFAULT_SEED, 1, 12345):
                for argv in run.workload_argv(name, seed):
                    for part in [argv] + run.split_by_check(argv):
                        key = " ".join(part)
                        if key not in recorded:
                            self.assertNotEqual(part[0], "verify", key)


class Workloads(unittest.TestCase):
    def test_seed_moves_sizes_within_one_percent(self):
        nominal = run.workload_argv("metric-large", run.DEFAULT_SEED)
        self.assertEqual(nominal[0], ["metric", "irr", "jaco:1000000"])
        for seed in range(1, 30):
            argvs = run.workload_argv("metric-large", seed)
            self.assertEqual(argvs, run.workload_argv("metric-large", seed))
            for got, want in zip(argvs, nominal):
                size, base = int(got[2][5:]), int(want[2][5:])
                self.assertLessEqual(abs(size - base), base // 100)
            self.assertEqual(run.workload_argv("verify-union", seed), run.workload_argv("verify-union", 0))

    def test_split_by_check(self):
        self.assertEqual(
            run.split_by_check(["verify", "thm32", "cor31", "--n", "2..100", "--m", "1..100"]),
            [
                ["verify", "thm32", "--n", "2..100", "--m", "1..100"],
                ["verify", "cor31", "--n", "2..100", "--m", "1..100"],
            ],
        )
        self.assertEqual(run.split_by_check(["metric", "irr", "jaco:5"]), [["metric", "irr", "jaco:5"]])

    def test_benchmark_json_lists_the_emitted_metrics(self):
        with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]], run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]], run.PER_LAYER)


class LayerMetrics(unittest.TestCase):
    def child(self, argv: list[str]) -> run.Child:
        return run.Child(argv, 1.0, 0, "", 10, b"", 1.0, b"")

    def trace(self, names: list[str], spans: list[list]) -> dict:
        return {"names": names, "spans": spans, "counts": {"fibonacci.fib": 5}, "fib_max_index": 0}

    def test_self_time_subtracts_direct_children(self):
        names = ["cli.main", "jaco.underlying_degrees", "irregularity.irr_t", "irregularity.pair_sum_sorted"]
        spans = [
            [0, 0, 100, -1, None],
            [1, 10, 30, 0, 7],
            [2, 40, 90, 0, 7],
            [3, 50, 80, 2, 7],
            [1, 91, 95, 0, 7],
        ]
        values = run.layer_metrics([(self.child(["metric", "irr", "jaco:7"]), self.trace(names, spans))])
        self.assertAlmostEqual(values["cli.main.self_s"], 26e-9)
        self.assertAlmostEqual(values["irregularity.irr_t.self_s"], 20e-9)
        self.assertAlmostEqual(values["jaco.underlying_degrees.self_s"], 24e-9)
        self.assertEqual(values["jaco.underlying_degrees.calls"], 2)
        self.assertEqual(values["jaco.underlying_degrees.vertices"], 14)
        self.assertEqual(values["jaco.underlying_degrees.distinct_ratio"], 0.5)
        self.assertEqual(values["fibonacci.fib.calls"], 5)
        self.assertEqual(values["cli.stdout_bytes"], 10)

    def test_thm21_sides_exclude_the_shared_profile(self):
        names = ["theorems.verify_sweep", "jaco.build_profile", "irregularity.pair_sum_naive", "theorems.thm21_rhs"]
        spans = [[0, 0, 100, -1, None], [1, 0, 10, 0, 3], [2, 10, 40, 0, 3], [3, 40, 95, 0, None]]
        values = run.layer_metrics([(self.child(["verify", "thm21"]), self.trace(names, spans))])
        self.assertAlmostEqual(values["theorems.thm21.formula_s"], 55e-9)
        self.assertAlmostEqual(values["theorems.thm21.oracle_s"], 35e-9)
        self.assertEqual(values["theorems.thm21.checks"], 1)

    def test_lemma31_sides_follow_the_constructed_graph(self):
        names = ["theorems.lemma31_check", "jaco.underlying_graph", "graphs.disjoint_union",
                 "irregularity.firr_t", "graphs.edge_joint"]
        spans = [[0, 0, 100, -1, None], [1, 0, 10, 0, 1], [2, 10, 20, 0, None], [3, 20, 50, 0, 3],
                 [4, 50, 60, 0, None], [3, 60, 70, 0, 3]]
        values = run.layer_metrics([(self.child(["verify", "lemma31"]), self.trace(names, spans))])
        self.assertAlmostEqual(values["theorems.lemma31.oracle_s"], 40e-9)
        self.assertAlmostEqual(values["theorems.lemma31.formula_s"], 20e-9)

    def test_fib_cache_size_is_computed_from_bit_lengths(self):
        self.assertEqual(run.fib_cache_mb(10) * 2**20, 10)  # f_0 = 0 takes no bytes; f_1..f_10 < 256


class MissingProgram(unittest.TestCase):
    def test_exits_nonzero_without_sources(self):
        with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
            root = Path(tmp)
            shutil.copy(run.ROOT / "BENCHMARK.json", root)
            shutil.copytree(run.HERE, root / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "metric-large", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=root, capture_output=True, text=True, timeout=180,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
