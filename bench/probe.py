"""Machine-speed probe: how much slower than its reference is this box *now*?

The benchmark runs on a shared 2-vCPU VM whose speed moves by up to 1.9x for
minutes at a time (a neighbour on the host; the guest sees no steal time, and
CPU time stretches as much as wall time).  A phase that long outlasts a whole
run, so no choice of repeat or percentile inside the run escapes it, and raw
wall-clock figures of one commit then spread 20-50 % from run to run.

The slow phases scale everything by one factor, though: a fixed piece of
interpreter work timed right before and right after a repeat slows down by the
same ratio as the repeat (measured: ``README.md``, "Measured noise").  So
every repeat is bracketed by this probe and its times are divided by the
slowdown the probe saw — seconds *at reference speed*.

The kernel is fixed work that depends on nothing the program under test can
change: integer arithmetic, tuple/list/dict/frozenset building, a sort, and
attribute and method access on small objects — the operations the workloads
spend their time in.  The collector is held off while it runs, because a
collection it happened to trigger would walk the program's heap and bill the
program's size to the machine.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

#: ``kernel()`` on the machine the baseline was recorded on (Xeon 2.1 GHz
#: guest, CPython 3.11) in its uncontended phases.  Only ratios between runs
#: matter; the constant makes the figures read as that machine's seconds.
REFERENCE_S = 0.0072

#: Kernel executions per probe (~40 ms): few enough to stay out of the way of
#: a 0.7 s repeat, enough for the median to shrug off a single preemption.
SAMPLES = 5


class _Row:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value

    def pair(self):
        return (self.value, self.key)


def kernel() -> int:
    total = 0
    for i in range(60_000):
        total += i & 7
    rows = [(i * 7919 % 1009, i) for i in range(8_000)]
    index: dict = {}
    for key, value in rows:
        index.setdefault(key, []).append(value)
    rows.sort()
    objects = [_Row(key, value) for key, value in rows[:5_000]]
    for row in objects:
        total += row.pair()[0]
    return total + len(index) + len(frozenset(row.pair() for row in objects[:2_000]))


def slowdown() -> float:
    """Probe time over :data:`REFERENCE_S`: 1.0 on the uncontended machine."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(SAMPLES):
            started = perf_counter()
            kernel()
            times.append(perf_counter() - started)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times) / REFERENCE_S
