"""Fixtures shared by the test modules."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import jacograph

# Runs ``python ARGV...`` as the child of this small interpreter, stdout to
# /dev/null, reaps it with os.wait4 and prints "exit_code maxrss_kb".  A
# child's ru_maxrss starts from the peak RSS of the process it was forked
# from, so the test process itself, far larger than the runs it measures,
# must not be the parent.
REAPER = """
import os, sys
pid = os.fork()
if pid == 0:
    try:
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        os.execv(sys.executable, [sys.executable, *sys.argv[1:]])
    finally:
        os._exit(127)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


@pytest.fixture
def peak_rss_kb():
    """A function: exit code and peak RSS (KiB) of ``python ARGV...`` in a fresh process.

    The child imports the package under test, installed or not.
    """
    src = str(Path(jacograph.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}

    def run(*argv: str) -> tuple[int, int]:
        cmd = [sys.executable, "-S", "-c", REAPER, *argv]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        rc, maxrss_kb = map(int, proc.stdout.split())
        return rc, maxrss_kb

    return run
