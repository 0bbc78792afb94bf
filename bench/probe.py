"""A fixed piece of pure-Python work that shows how fast a CPU runs right now.

On a shared machine the same work can take twice as long from one minute
to the next, and one CPU can run at half the speed of the other.  The
benchmark divides every timed sample by the slowdown a probe saw while
that sample was taken, measured on the CPU that did the work, so its
times read as time at the reference speed and stay comparable across runs.
The probe counts the calling thread's CPU time, so time slices given to
another process on the same CPU do not count.
"""

from __future__ import annotations

import math
import os
import time

#: CPU time of one probe on an idle 2-core x86-64 KVM guest.
REFERENCE_S = 0.5e-3

_XS = [1.0 / (i + 1) for i in range(2000)]


def probe_s() -> float:
    """CPU seconds the calling thread spends on the fixed work."""
    start = time.thread_time()
    math.fsum(x**1.7 for x in _XS)
    ", ".join(format(x, ".17g") for x in _XS[:500])
    return time.thread_time() - start


def probe_on_cpu_of(pid: int) -> float:
    """Probe on the CPU process ``pid`` last ran on.

    Falls back to probing wherever this process runs if the CPU cannot be
    read or pinned to.
    """
    try:
        with open(f"/proc/{pid}/stat") as fh:
            cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
        allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {cpu})
    except (OSError, ValueError, IndexError):
        return probe_s()
    try:
        return probe_s()
    finally:
        os.sched_setaffinity(0, allowed)
