"""Spawns the CLI commands of a session from a process that stays small.

On Linux a child's ru_maxrss starts from the peak RSS of the memory map it
was spawned from (subprocess uses vfork), so a command started directly by
run.py would report run.py's own peak, which grows as it parses outputs.
run.py starts this process once, while it is still small, and sends it one
session per stdin line:

    {"commands": [[argv, log path], ...]}

It runs the commands one at a time, stdout and stderr to the log, and
answers with one stdout line:

    {"wall_s": first spawn to last exit,
     "commands": [[returncode, wall_s, peak_rss_bytes], ...],
     "own_peak_rss_bytes": this process's peak}
"""
from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
from time import perf_counter


def main() -> int:
    for line in sys.stdin:
        job = json.loads(line)
        results = []
        start = perf_counter()
        for argv, log in job["commands"]:
            with open(log, "w", encoding="utf-8") as f:
                t0 = perf_counter()
                proc = subprocess.Popen(argv, stdout=f, stderr=subprocess.STDOUT)
                _, status, usage = os.wait4(proc.pid, 0)
                t1 = perf_counter()
            proc.returncode = os.waitstatus_to_exitcode(status)
            results.append([proc.returncode, t1 - t0, usage.ru_maxrss * 1024])
        reply = {
            "wall_s": perf_counter() - start,
            "commands": results,
            "own_peak_rss_bytes": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024,
        }
        print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
