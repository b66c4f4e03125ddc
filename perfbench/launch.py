"""Run one command and report its wall time, peak RSS and exit status.

    python3 perfbench/launch.py REPORT.json PROGRAM ARG...

The command inherits this process's standard streams.  The report is
written after the command has ended.  The benchmark starts the CLI
through this small process rather than directly because Linux counts a
child's peak RSS from before its exec: a child forked from the large
benchmark process would report the benchmark's memory, not its own.
"""

import json
import os
import sys
import time


def main() -> int:
    report, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    pid = os.posix_spawnp(argv[0], argv, os.environ)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    with open(report, "w", encoding="utf-8") as out:
        json.dump({"wall_s": wall, "peak_rss_kb": usage.ru_maxrss, "exit": os.waitstatus_to_exitcode(status)}, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
