"""A fixed piece of work that is not part of the program, timed next to it.

The benchmark was built on a shared two-vCPU virtual machine whose speed
drifts by tens of percent, over seconds and over minutes, and every path
of the program moves with it.  Timing the same fixed work in the same
loop, on the same thread, as the program, and dividing the program's
times by its median, cancels much of that drift while a change to the
program still moves the quotient.  A vCPU of such a host can be slow
while the other is not, so the work runs on each vCPU the calling thread
may use, in turn: on the one ``batch`` is pinned to, and on both for the
threads of ``serve``.

The work is a plain interpreter loop.  Of the candidates tried while the
host was busy (NumPy integer arithmetic with table lookups, a compiled C
lookup-table convolution, random gathers and copies larger than the
caches, and this loop), it and the C convolution followed the program's
executors most closely, and the loop needs no build.  Run in another
process, on whichever vCPU that got, it followed them hardly at all.  It
depends on no seed, so every run of every workload times the same thing.
"""

from __future__ import annotations

import os
import time
from typing import List

_STEPS = 200_000


def _work() -> int:
    total = 0
    for i in range(_STEPS):
        total += i * i % 7
    return total


def measure(runs: int) -> List[float]:
    """Milliseconds taken by each of ``runs`` runs of the fixed work on
    each vCPU this thread may use."""
    allowed = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})  # this thread only
            for _ in range(runs):
                start = time.perf_counter()
                _work()
                times.append(1e3 * (time.perf_counter() - start))
    finally:
        os.sched_setaffinity(0, allowed)
    return times
