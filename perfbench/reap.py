"""Run one command as the child of this small process; report its wall time and rusage.

Usage: python3 -S perfbench/reap.py REPORT_FD CMD...

A process's ru_maxrss starts from the peak RSS of the process it was spawned
from, so the harness, which is larger than its smallest invocations, would
mask their memory.  This process stays near the bare interpreter's size.  It
forks the command, reaps it with ``os.wait4`` and writes
"wall_s exit_code maxrss_kb" to REPORT_FD.  The command inherits stdin,
stdout and stderr; REPORT_FD is closed in it.
"""

import os
import sys
import time


def main() -> int:
    report = int(sys.argv[1])
    cmd = sys.argv[2:]
    os.set_inheritable(report, False)
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.execvp(cmd[0], cmd)
        finally:
            os._exit(127)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    os.write(report, f"{wall!r} {os.waitstatus_to_exitcode(status)} {usage.ru_maxrss}\n".encode())
    return 0


if __name__ == "__main__":
    sys.exit(main())
