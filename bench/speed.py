"""Machine-speed samples, so that timings taken on a shared machine compare.

On a machine shared with other jobs, the same pure-Python work can run 1.5x
faster in one minute than in the next, and the speed also swings within a
second.  ``kernel`` is a fixed piece of pure-Python work (bitset BFS over a
fixed circulant graph), independent of treefree.  It is timed at the
boundaries between items, whenever ``SAMPLE_EVERY_S`` has passed since the
last sample, so the samples follow the machine through the run.  An item's
time is reported as measured x ``NOMINAL_S`` / the mean of the nearest
samples before and after it: the time on a machine where the kernel takes
``NOMINAL_S``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from time import perf_counter

NOMINAL_S = 0.0025
SAMPLE_EVERY_S = 0.05

_N = 256
_ROWS = [(1 << (i + 1) % _N) | (1 << (i - 1) % _N) | (1 << (i + 9) % _N) | (1 << (i - 9) % _N)
         for i in range(_N)]


def kernel() -> int:
    """BFS from every 16th vertex; returns the summed eccentricities."""
    total = 0
    for src in range(0, _N, 16):
        seen, frontier, level = 1 << src, [src], {}
        while frontier:
            nxt = []
            for u in frontier:
                m = _ROWS[u] & ~seen
                seen |= m
                while m:
                    low = m & -m
                    v = low.bit_length() - 1
                    nxt.append(v)
                    level[v] = total
                    m ^= low
            frontier = nxt
            total += 1
    return total


def sample() -> float:
    start = perf_counter()
    kernel()
    return perf_counter() - start


class SpeedProbe:
    """Kernel timings at item boundaries; boundary b lies between items b-1 and b."""

    def __init__(self):
        self.samples: dict[int, float] = {}
        self._last = float("-inf")

    def between_items(self, boundary: int) -> None:
        if perf_counter() - self._last >= SAMPLE_EVERY_S:
            self.samples[boundary] = sample()
            self._last = perf_counter()

    def scales(self, count: int) -> list[float]:
        """For each of ``count`` items, the factor that turns its time into nominal time."""
        marks = sorted(self.samples)
        out = []
        for i in range(count):
            near = [self.samples[marks[j]] for j in (bisect_right(marks, i) - 1, bisect_left(marks, i + 1))
                    if 0 <= j < len(marks)]
            out.append(NOMINAL_S * len(near) / sum(near))
        return out
