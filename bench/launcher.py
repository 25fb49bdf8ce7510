"""Start commands one at a time for run.py and report each one's own resource use.

A child's ru_maxrss also counts the peak memory of the process that started
it, because exec keeps the old address space's high-water mark. run.py holds
the reference computations and grows past 100 MB, so it starts this small,
standard-library-only process once and lets it start every command.

Protocol: one JSON request per line on stdin,
{"argv": [...], "cwd": ..., "env": {...}, "stdout": path, "stderr": path,
"timeout_s": seconds}; one JSON reply per line on stdout,
{"wall_s": ..., "cpu_s": ..., "maxrss_kb": ..., "rc": ...}. A command still
running after timeout_s is killed. The launcher ends at the end of its input.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        child = subprocess.Popen(request["argv"], stdout=out, stderr=err,
                                 cwd=request["cwd"], env=request["env"])
        killer = threading.Timer(request["timeout_s"], child.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss, "rc": child.returncode}


def main() -> int:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
