"""A fixed calibration task that the benchmark's pass times are divided by.

Other tenants of a shared host slow this process's CPU for seconds to
minutes at a time, by 30-60%, without any of it showing as steal or
waiting: process CPU time rises with wall time.  A whole run can fall in
a slow phase, which no statistic over that run's passes undoes.  So the
benchmark times this task just before every pass and once after the last,
and reports each pass's wall time over the mean of the two calibration
times around it.  The task never changes and calls no library code, so a
change to the library moves only the numerator.

The task mixes the two kinds of work the workloads do, in about equal
time on an unloaded 2-CPU VM: arithmetic on a 50 x 50,050 float64 block
(the P x n shape of the error-driven sweep's dense kernels, 20 MB, larger
than the caches) and interpreter-bound work (a Python loop and numpy
calls on 100-element arrays).  Block work alone tracked the error-driven
sweep best and interpreter work alone the smoothed sweep; their sum
tracked both.  In 20-s windows of back-to-back passes on such a VM, with
and without a memory-streaming neighbour process, the spread of the
windows' medians (quartile distance over median) was 0.02-0.07 for the
ratio against 0.09-0.31 for the lower quartile of the raw pass times.

The block buffers are allocated once, so the task adds a fixed 23 MB to
the process's resident set and nothing to its peak beyond that.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

POSITIVES = 50
VALID = 50_050
BLOCK_REPEATS = 6
LOOP = 250_000
SMALL_CALLS = 2_500
TIMINGS = 3


class Yardstick:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.scores = rng.standard_normal(VALID)
        self.pos = self.scores[:POSITIVES, None].copy()
        self.block = np.empty((POSITIVES, VALID))
        self.mask = np.empty((POSITIVES, VALID), dtype=bool)
        self.small = rng.standard_normal(100)

    def task(self) -> float:
        total = 0.0
        for _ in range(BLOCK_REPEATS):
            np.subtract(self.scores, self.pos, out=self.block)
            np.greater(self.block, 0.0, out=self.mask)
            total += float(np.count_nonzero(self.mask))
            np.add(self.block, 1.0, out=self.block)
            np.clip(self.block, 0.0, 2.0, out=self.block)
            total += float(self.block.sum())
        acc = 0
        for i in range(LOOP):
            acc += i * i % 7
        for _ in range(SMALL_CALLS):
            total += float(np.add(self.small, 1.0).sum())
        return total + acc

    def seconds(self) -> float:
        """The fastest of a few timings of the task."""
        best = float("inf")
        for _ in range(TIMINGS):
            t0 = perf_counter()
            self.task()
            best = min(best, perf_counter() - t0)
        return best
