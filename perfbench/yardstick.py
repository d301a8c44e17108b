"""The machine's current speed, read from a fixed pure-Python kernel.

The benchmark's machine is shared: its speed drifts by up to 1.6x between
states that last from a fraction of a second to minutes, so a run can spend
all of its time in a slow state. After each of its measured steps, a run
times this kernel, a plain sparse-table RMQ over a fixed permutation, which
shares no code with the library and does not depend on the seed. The run's
timing figures are then scaled by NOMINAL_NS over its fastest reading: what
they would read with the kernel at its nominal speed.
"""

from __future__ import annotations

import time

from workloads import permutation, rmq_queries

# Nanoseconds per kernel query at which a time counts unscaled: about the
# fastest reading on an Intel Xeon 2-vCPU VM under Python 3.11.
NOMINAL_NS = 500.0
SIZE = 1 << 17
# A reading answers the next READ queries of a list of QUERIES, so it misses
# the private caches much as the library's own query stream does; a reading
# that repeated the same few queries stayed in cache and tracked the slow
# states worse (it slowed 1.6-2.8x where the library slowed 1.6x).
QUERIES = 50000
READ = 5000


class Yardstick:
    def __init__(self):
        row = permutation(SIZE, 0)
        self.levels = [row]
        k = 1
        while 2 * k <= SIZE:  # level L holds the minima of the windows of 2**L
            row = list(map(min, row[:-k], row[k:]))
            self.levels.append(row)
            k *= 2
        self.queries = rmq_queries(SIZE, 0, QUERIES)
        self.next = 0
        self.readings: list[float] = []

    def read(self) -> float:
        """Nanoseconds per kernel query now."""
        levels = self.levels
        queries = self.queries[self.next:self.next + READ]
        self.next = (self.next + READ) % QUERIES
        ns = time.perf_counter_ns
        t0 = ns()
        for i, j in queries:
            level = (j - i + 1).bit_length() - 1
            row = levels[level]
            a, b = row[i - 1], row[j - (1 << level)]
            _ = a if a <= b else b
        reading = (ns() - t0) / READ
        self.readings.append(reading)
        return reading
