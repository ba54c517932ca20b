"""Process launcher for bench/run.py: runs commands, reports wall time and peak RSS.

Linux charges a child with the peak resident set of the process it was
forked from (``ru_maxrss`` keeps the pre-exec high-water mark), so a child
of the benchmark process, which holds the in-process workload, would report
the benchmark's memory instead of its own. This launcher is a fresh small
interpreter, so its children report their own peak.

Protocol, one JSON array per line: the request on stdin is
``[argv, stdout_path, stderr_path]``; the reply on stdout is
``[exit_code, wall_seconds, peak_rss_mb]``. The launcher ends at end of input.
"""

import json
import os
import subprocess
import sys
import threading
import time

TIMEOUT_S = 120.0


def main() -> None:
    for line in sys.stdin:
        argv, out_path, err_path = json.loads(line)
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err)
            killer = threading.Timer(TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps([proc.returncode, wall, usage.ru_maxrss / 1024.0]), flush=True)


if __name__ == "__main__":
    main()
