"""Machine-speed calibration for a shared host.

On a host shared with other tenants the same pure-Python code runs 25% to
90% slower for tens of seconds at a time, depending on what runs beside
it, and a whole 20-second run can fall into a slow spell. The benchmark
therefore times a fixed allocation-bound loop (small containers stored in
a dict over a 50 000-key table) between batches of operations and divides
each batch's times by the slowdown it shows. Of the loops tried (integer
arithmetic, deep generator recursion, this one, and their geometric mean),
this one tracked zebu's slowdowns best on all four workloads.

Times are so scaled to a machine on which the loop takes its nominal time,
about what it takes on the reference machine when nothing runs beside it.
The loop touches nothing of zebu, and the collector's settings are pinned
while it runs, so a change to zebu cannot move it.
"""

from __future__ import annotations

import gc
import statistics
import time

NOMINAL_NS = 500_000
_REPEATS = 3
_KEYS = [b"key-%d" % i for i in range(50_000)]


def _loop() -> int:
    table = {}
    for i in range(1_500):
        key = _KEYS[i * 7919 % 50_000]
        table[key] = (key.lower(), i, [key])
    return len(table)


def slowdown() -> float:
    """How many times slower than nominal the machine runs right now."""
    clock = time.perf_counter_ns
    enabled, thresholds = gc.isenabled(), gc.get_threshold()
    gc.set_threshold(700, 10, 10)
    gc.enable()
    times = []
    try:
        for _ in range(_REPEATS):
            t0 = clock()
            _loop()
            times.append(clock() - t0)
    finally:
        gc.set_threshold(*thresholds)
        if not enabled:
            gc.disable()
    return statistics.median(times) / NOMINAL_NS
