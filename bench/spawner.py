"""Start the benchmark's child processes from a small process.

Linux carries the peak RSS of a parent's address space into a child it
forks, through exec, so a child started by the benchmark process itself
would report at least the benchmark's own peak.  This process imports
only the standard library and stays small.  It reads one JSON request per
line on stdin, {"argv", "cwd", "stdout", "stderr"}, runs that child to
completion, and answers with one JSON line {"wall", "rss_mb", "code"}.
It exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as fo, open(req["stderr"], "wb") as fe:
            t0 = time.perf_counter()
            proc = subprocess.Popen(req["argv"], stdout=fo, stderr=fe, cwd=req["cwd"])
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"wall": wall, "rss_mb": usage.ru_maxrss / 1024.0, "code": proc.returncode}
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
