"""A fixed probe task that measures how fast the host runs at the moment.

The probe does the kinds of work galim does, without calling galim:
modular integer arithmetic in the interpreter, hashing small tuples into a
dict, and numpy array arithmetic.  Nothing a change to galim can touch runs
in it, so its time moves only with the speed of the host.  The cyclic
garbage collector is off while it runs, so that the size of the heap
galim left behind does not change its time.
"""

from __future__ import annotations

import gc
import time

import numpy as np

# Seconds one probe takes on the reference host: a 2-vCPU Intel Xeon VM in
# its fast phases.  Normalised times are the times that host would show.
REFERENCE_S = 0.0015


def probe() -> float:
    """Seconds the fixed task took."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _timed_task()
    finally:
        if collecting:
            gc.enable()


def _timed_task() -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(1, 700):
        acc = (acc * 31 + pow(i, 65537, 1000003)) % 1000000007
    seen: dict = {}
    for i in range(2500):
        key = ((i * 7919) % 1009, i & 15)
        seen[key] = seen.get(key, 0) + 1
    a = np.arange(1 << 12, dtype=np.int64)
    for _ in range(10):
        a = (a * 3 + 1) % 65521
    if acc < 0 or not seen or a[0] < 0:
        raise AssertionError("unreachable")
    return time.perf_counter() - start
