"""Machine-speed calibration, so that timings compare across a noisy host.

On a shared virtual machine the same table can take 1.6 times longer when
other tenants load the host, and such phases last from seconds to minutes;
a wall-clock median over a run then depends more on the neighbours than on
the program. The benchmark therefore runs a fixed kernel before and after
every timed interval and scales the interval by REFERENCE_S over the mean of
the two kernel times. The kernel uses only the standard library (Fraction
arithmetic, seeded random draws, dicts, sorting), the same kind of work as
the program, and no change to the program can change it. A phase that
changes inside a table still skews that table; the run's median over tables
absorbs it.

A scaled time is what the interval would take when the kernel runs in
REFERENCE_S, which is the kernel's time on an uncontended Intel Xeon vCPU
under CPython 3.11.7; on such a machine scaled and wall times agree.
"""

from __future__ import annotations

import random
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.022


def kernel(steps: int = 2500) -> Fraction:
    rng = random.Random(20221221)
    acc = Fraction(0)
    table: dict[int, tuple] = {}
    queue: list[tuple] = []
    half = Fraction(1, 2)
    for i in range(steps):
        acc = acc * half + Fraction(rng.randrange(1, 1000), rng.randrange(1, 1000))
        table[i % 97] = (acc.numerator % 1009, i)
        queue.append((i % 13, -i))
        if len(queue) > 50:
            queue.sort()
            del queue[:10]
    return acc


def kernel_s() -> float:
    """Median time of three kernel runs: one run can catch an interrupt."""
    times = []
    for _ in range(3):
        start = perf_counter()
        kernel()
        times.append(perf_counter() - start)
    return sorted(times)[1]


class ScaledClock:
    """Times calls and scales each duration to the reference machine speed."""

    def __init__(self):
        kernel()  # first run pays for warming caches and the allocator
        self._last = kernel_s()

    def time(self, fn, *args):
        """(result, wall seconds, scaled seconds) of fn(*args)."""
        before = self._last
        start = perf_counter()
        result = fn(*args)
        wall = perf_counter() - start
        self._last = kernel_s()
        return result, wall, wall * REFERENCE_S / ((before + self._last) / 2)
