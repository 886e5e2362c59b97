"""The machine's pace, read from a fixed reference kernel run between ops.

The benchmark runs on a few cores of a shared host whose speed drifts by a
third or more within a minute: on a 2-vCPU KVM Xeon guest one 8x8
``run_sequence`` call took between 44 and 83 ms over 90 s of identical calls.
That drift swamps any change worth measuring, so host times are reported
scaled to a fixed pace.  Every ``INTERVAL`` seconds, between two ops, the
runner times :func:`kernel`, a small pure-Python event loop (a heap of
timestamped events, a level list, fanout lists, a counting dict) that does
the same kinds of interpreter work as the simulator.  An op's scaled time is
its host time times ``REFERENCE_S`` over the median of the kernel samples
taken around it.  Over those 90 s the ratio of the op to the kernel stayed
within 12.3-14.0 while the op's own time moved by a factor of 1.9.

The kernel is the benchmark's own code and never calls qdimul, so a change
that makes qdimul faster reads faster in scaled time exactly as in host
time; garbage collection is off while it runs, so its samples do not depend
on the size of the program's heap.
"""

from __future__ import annotations

import gc
import statistics
from heapq import heappop, heappush
from time import perf_counter

#: Seconds of ops between two kernel samples.
INTERVAL = 0.05
#: Scaled time is host time at the pace where one kernel sample takes this
#: long, about its time on the baseline machine (a 2-vCPU KVM Xeon guest,
#: Python 3.11.7) when nothing else slows it.
REFERENCE_S = 0.002
#: Events one kernel sample applies.
KERNEL_EVENTS = 1500
NETS = 512


def _fanout() -> list[list[int]]:
    return [[(i * 7 + k * 131) % NETS for k in range(3)] for i in range(NETS)]


def kernel(fanout: list[list[int]], events: int = KERNEL_EVENTS) -> int:
    """Apply ``events`` level changes of a toy event-driven netlist."""
    levels = [0] * NETS
    counts: dict[int, int] = {}
    queue: list[tuple[int, int]] = []
    for net in range(64):
        heappush(queue, (net, net))
    done = 0
    while queue and done < events:
        t, net = heappop(queue)
        levels[net] ^= 1
        counts[net] = counts.get(net, 0) + 1
        done += 1
        for g in fanout[net]:
            if (levels[g] + net) & 1:
                heappush(queue, (t + 1 + (g & 7), g))
    return done


class Pace:
    """Kernel samples taken between ops, and the scale they give each op."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._fanout = _fanout()
        self._due = 0.0
        self.sample()  # the first call warms the kernel up; it is dropped
        self.samples.clear()

    def sample(self) -> int:
        """Time one kernel run; return its index among the samples."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            kernel(self._fanout)
            self.samples.append(perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()
        self._due = perf_counter() + INTERVAL
        return len(self.samples) - 1

    def tick(self) -> int:
        """Sample when one is due; return the index of the latest sample."""
        if perf_counter() >= self._due or not self.samples:
            return self.sample()
        return len(self.samples) - 1

    def scale(self, index: int) -> float:
        """Factor from host time to scaled time around sample ``index``.

        Uses the median of that sample and its two neighbours, so one
        interrupted sample does not move an op's time.
        """
        window = self.samples[max(index - 1, 0):index + 2]
        return REFERENCE_S / statistics.median(window)

    def span_scale(self, first: int, last: int) -> float:
        """Factor over samples ``first`` to ``last`` inclusive."""
        return REFERENCE_S / statistics.median(self.samples[first:last + 1])
