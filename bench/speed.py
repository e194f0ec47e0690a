"""A fixed reference loop that tracks how fast the machine runs right now.

On a shared machine the same pure-Python work can take 40% longer from
one minute to the next, because other tenants compete for the cores and
caches.  On a 2-core Xeon VM, six identical 336-op campaign passes in a row
took from 1.39 to 1.99 s each, and the same 20-second overlap run gave 201
and 299 ops/s half an hour apart.  Drift of that size swamps the change a
later commit makes, so the benchmark scales its times to a fixed machine
speed.

The reference is pure Python of the same kind kedge runs: bitmask
breadth-first search, list appends and dict updates, on fixed data and
independent of kedge.  Between ops, at most every 0.2 s, the benchmark
times a group of reference steps lasting 2.5% of the time since the last
group, and keeps the group's median step.  Each op's time is multiplied by REF_NOMINAL_S over
the mean of the medians just before and just after the op, so it reads as
the time the op would take on a machine where one reference step takes
REF_NOMINAL_S (about this VM's usual speed).  Raw times are reported
beside the scaled ones.
"""

from __future__ import annotations

import bisect
import random
import statistics
import time

REF_NOMINAL_S = 0.0004
REF_EVERY_S = 0.2
REF_SHARE = 0.025
_MIN_STEPS = 14

_rng = random.Random(2312)
_N = 96
_MASKS = [0] * _N
for _u in range(_N):
    for _v in range(_u + 1, _N):
        if _rng.random() < 0.08:
            _MASKS[_u] |= 1 << _v
            _MASKS[_v] |= 1 << _u


def _reference_step() -> int:
    reached = 0
    for root in range(0, _N, 8):
        seen = 1 << root
        order = [root]
        for u in order:
            fresh = _MASKS[u] & ~seen
            seen |= fresh
            while fresh:
                low = fresh & -fresh
                order.append(low.bit_length() - 1)
                fresh ^= low
        reached += len(order)
    degrees: dict[int, int] = {}
    for u in range(_N):
        degrees[_MASKS[u].bit_count()] = degrees.get(_MASKS[u].bit_count(), 0) + 1
    return reached + len(degrees)


class SpeedProbe:
    """Reference groups sampled over a run, as (start time, duration)."""

    def __init__(self):
        self.times: list[float] = []
        self.durations: list[float] = []

    def sample(self, budget: float = 0.0) -> float:
        """Time one group of at least `budget` seconds; its value is the
        median step, so a cold first step or an interrupt does not move it."""
        start = time.perf_counter()
        steps: list[float] = []
        while len(steps) < _MIN_STEPS or time.perf_counter() - start < budget:
            t = time.perf_counter()
            _reference_step()
            steps.append(time.perf_counter() - t)
        duration = statistics.median(steps)
        self.times.append(start)
        self.durations.append(duration)
        return duration

    def maybe_sample(self) -> None:
        """Sample if REF_EVERY_S has passed, for REF_SHARE of the time since."""
        since = time.perf_counter() - self.times[-1] if self.times else REF_EVERY_S
        if since >= REF_EVERY_S:
            self.sample(REF_SHARE * since)

    def scale(self, start: float) -> float:
        """REF_NOMINAL_S over the mean reference step around `start`."""
        i = bisect.bisect_right(self.times, start)
        around = self.durations[max(0, i - 1) : i + 1]
        return REF_NOMINAL_S / (sum(around) / len(around))
