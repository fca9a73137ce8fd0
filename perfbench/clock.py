"""The interpreter-speed clock that ``on_clock`` workloads report on.

The shared reference host's speed swings by a third or more for tens of
seconds to minutes at a time, longer than one run, so raw wall times of the
same code spread past the benchmark's bounds. On a workload with
``Workload.on_clock`` the worker times a fixed loop (``interpreter_s``)
before each stage and after the last one, the run times it between its
set-ups, and ``run_s`` and ``setup_s`` are reported ``at_reference``: scaled
from the speed the loop saw to the loop's speed on a quiet host. A change
to anatvox moves the work and not the loop, so it shows in full.
"""

from __future__ import annotations

import statistics
import time

# interpreter_s on the reference machine when its host is quiet
CAL_REF_S = 0.030


def interpreter_s() -> float:
    """Best of three timings of a fixed pure-Python loop (about 30 ms each).

    The loop does what the package's pure-Python kernels do, float
    arithmetic on list elements, so it slows down with them.
    """
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        row = [0.5] * 1000
        acc = 0.0
        for _ in range(500):
            for i in range(1000):
                acc += row[i] * 1.5 - i
        best = min(best, time.perf_counter() - start)
    return best


def at_reference(seconds: float, cal_s: list) -> float:
    """``seconds`` scaled from the speed the ``cal_s`` timings saw to CAL_REF_S."""
    return seconds * CAL_REF_S / statistics.median(cal_s)
