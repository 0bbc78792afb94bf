"""Starts the benchmark's child processes one at a time, from a small process.

The peak RSS that ``wait4`` reports for a child is at least the RSS of the
process it was forked from, so the CLI ops are started here rather than by
the benchmark process, which holds the oracle's data.  While a child runs,
a speed probe runs every PROBE_INTERVAL_S on the CPU the child is on, and
once more after it exits.  Reads one JSON request per line on stdin, runs
it, and answers with one JSON line on stdout.  A child still running after
its timeout is killed; it then has a negative return code.
"""

import json
import os
import select
import signal
import subprocess
import sys
import time

from probe import probe_on_cpu_of

PROBE_INTERVAL_S = 0.1


def run(argv: list[str], cwd: str, stdout: str, timeout_s: float) -> dict:
    probes = []
    with open(stdout, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=subprocess.DEVNULL)
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                while not select.select([pidfd], [], [], PROBE_INTERVAL_S)[0]:
                    if time.perf_counter() - start > timeout_s:
                        proc.kill()
                        break
                    probes.append(probe_on_cpu_of(proc.pid))
            finally:
                os.close(pidfd)
            wall = time.perf_counter() - start
            probes.append(probe_on_cpu_of(proc.pid))  # the exited child is not reaped yet
        except BaseException:
            proc.kill()
            raise
        finally:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "returncode": proc.returncode,
        "probes_s": probes,
    }


if __name__ == "__main__":
    # SIGTERM leaves through run()'s clean-up, which kills the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    for line in sys.stdin:
        print(json.dumps(run(**json.loads(line))), flush=True)
