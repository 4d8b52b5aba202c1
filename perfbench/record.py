"""Record the expected exit code and stdout digest of every default-seed invocation.

Usage, from the root of a checkout: python3 perfbench/record.py

Runs each invocation the benchmark makes at the default seed (untraced, split
per check id for the traced pass, and the set-up invocation) once, and writes
perfbench/expected.json.  Where the independent reference covers an
invocation, the recorded digest must equal the reference's, or nothing is
written.
"""

from __future__ import annotations

import hashlib
import json
import sys

import reference
import run


def main() -> int:
    if not (run.SRC / "jacograph" / "__init__.py").is_file():
        print(f"error: no jacograph sources under {run.SRC}", file=sys.stderr)
        return 2
    argvs = [run.SETUP_ARGV]
    for name in run.WORKLOADS:
        for argv in run.workload_argv(name, run.DEFAULT_SEED):
            argvs += [argv] + [part for part in run.split_by_check(argv) if part != argv]
    env = run.child_env()
    recorded = {}
    for argv in argvs:
        child = run.spawn(run.cli_cmd(argv), argv, env)
        entry = {"exit": child.code, "sha256": child.sha256, "bytes": child.nbytes}
        try:
            data = reference.expected_stdout(argv)
        except ValueError:
            source = "recorded only"
        else:
            if child.code != 0 or hashlib.sha256(data).hexdigest() != child.sha256:
                print(f"error: jacograph {' '.join(argv)} disagrees with the reference", file=sys.stderr)
                return 1
            source = "matches reference"
        recorded[" ".join(argv)] = entry
        print(f"jacograph {' '.join(argv)}: exit {child.code}, {child.nbytes} bytes, {source}")
    payload = {"default_seed": run.DEFAULT_SEED, "invocations": recorded}
    with open(run.HERE / "expected.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
