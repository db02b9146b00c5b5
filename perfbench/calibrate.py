"""Host-speed calibration for the end-to-end timings.

The benchmark runs on shared machines whose speed moves by 20-60% within
seconds and over minutes as other tenants' load comes and goes.  A fixed
pure-Python kernel, independent of ``pathshap``, is timed between requests
throughout a run.  Each request's latency is scaled by ``REFERENCE_MS`` over
the kernel's time around that request: the mean of the last sample before
the request started and the first sample after it ended.  A change to the
program cannot move the kernel, so the scaled timings still move one for one
with the program's cost; the host's load moves both and mostly cancels.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

# The kernel's typical time on the 2-core VM the baselines in README.md come
# from, in its faster phases.  Scaled timings read as timings on a host that
# runs the kernel in this time.
REFERENCE_MS = 0.5

_GRAPH = {i: ((i * 7 + 3) % 50, (i * 11 + 5) % 50, (i + 1) % 50) for i in range(50)}


def kernel_ns() -> int:
    """Nanoseconds of one run of the kernel: Fraction sums, frozenset keys in
    a dict and a breadth-first search, the operations pathshap spends its
    time on."""
    start = time.perf_counter_ns()
    total = Fraction(0)
    counts: dict[frozenset, int] = {}
    for i in range(200):
        key = frozenset((i % 17, i % 5, i % 3))
        counts[key] = counts.get(key, 0) + 1
        total += Fraction(i % 7, 60)
    for root in range(0, 50, 10):
        frontier, seen = [root], {root}
        while frontier:
            step = []
            for u in frontier:
                for v in _GRAPH[u]:
                    if v not in seen:
                        seen.add(v)
                        step.append(v)
            frontier = step
    return time.perf_counter_ns() - start


class HostSpeed:
    """Samples of the kernel's time along a run.

    Called between two requests, it takes a sample when ``every`` seconds
    passed since the last one; a sample is the fastest of three kernel runs,
    so that a garbage collection left by the previous request does not count
    as load."""

    def __init__(self, every: float = 0.1):
        self.every = every
        self.times_ns: list[int] = []
        self.kernels_ns: list[int] = []

    def sample(self) -> None:
        self.kernels_ns.append(min(kernel_ns() for _ in range(3)))
        self.times_ns.append(time.perf_counter_ns())

    def __call__(self) -> None:
        if not self.times_ns or time.perf_counter_ns() - self.times_ns[-1] >= self.every * 1e9:
            self.sample()

    def factor(self, start_ns: int, end_ns: int) -> float:
        """What a timing from ``start_ns`` to ``end_ns`` is multiplied by."""
        after = min(bisect.bisect_left(self.times_ns, end_ns), len(self.times_ns) - 1)
        before = max(bisect.bisect_right(self.times_ns, start_ns) - 1, 0)
        return 2e6 * REFERENCE_MS / (self.kernels_ns[before] + self.kernels_ns[after])

    def median_ms(self) -> float:
        return statistics.median(self.kernels_ns) / 1e6
