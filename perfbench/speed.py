"""Machine-speed probe: a fixed pure-Python burst, timed between the
operations a sample measures.

On a shared 2-vCPU VM the CPU speed itself drifts. A pure-Python loop
timed over consecutive 25 s windows had an inter-quartile spread of
0.23 of its median, and 0.30 over 5 s windows; one replay-excluded
sample ran its audit, replays and trace queries all 1.6 times slower
than the sample before it.

So a sample times a reference burst between its operations, and
reports every timing at reference speed: ``wall_s * REFERENCE_S /
burst_s``, where ``burst_s`` is the median of the sample's bursts. One
burst is too short to describe the speed of the operation next to it
(bursts a second apart differ by a third), but the median of a
sample's bursts follows the drift from sample to sample and from run
to run, which is what moves a run's medians.

The kernel does what the program does most: interpreter loops, small
dicts and strings, JSON. Over 16 replay-excluded samples it took the
spread of per-sample audit, exec and trace-query times from 0.23-0.43
to 0.09-0.13; kernels made only of cache-resident arithmetic or of
lookups in a large table tracked the program less well. Its objects
are freed when it returns, and the collector is off during a burst. A
burst never runs inside a timed operation.
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from typing import Callable

KERNELS_PER_BURST = 2
# seconds one burst takes on a quiet 2-vCPU VM, Python 3.11: a scaled
# time reads as the wall time that machine would have measured
REFERENCE_S = 0.016


def kernel() -> int:
    total = 0
    table: dict[int, int] = {}
    for index in range(20_000):
        total += index * index % 7
        table[index % 500] = total
    rows = [{"k": index, "v": str(index)} for index in range(5_000)]
    return total + len(json.loads(json.dumps(rows)))


def run_burst() -> None:
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(KERNELS_PER_BURST):
            kernel()
    finally:
        if enabled:
            gc.enable()


class Speedometer:
    """Times reference bursts; their median gives the sample's speed."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 burst: Callable[[], object] | None = None,
                 min_gap_s: float = 0.25) -> None:
        self.clock = clock
        self.burst = burst or run_burst
        self.min_gap_s = min_gap_s
        self.bursts: list[float] = []  # seconds of each burst
        self.last_end: float | None = None

    def probe(self, count: int = 1, force: bool = False) -> None:
        """Run ``count`` bursts, unless one ended less than
        ``min_gap_s`` ago and ``force`` is off."""
        if (not force and self.last_end is not None
                and self.clock() - self.last_end < self.min_gap_s):
            return
        for _ in range(count):
            start = self.clock()
            self.burst()
            self.last_end = self.clock()
            self.bursts.append(self.last_end - start)

    def factor(self) -> float:
        """What scales a wall time to reference speed."""
        if not self.bursts:
            raise ValueError("no speed probe ran")
        return REFERENCE_S / statistics.median(self.bursts)
