"""Host speed, measured by a fixed kernel, to put timings in reference seconds.

On a shared host the machine's own speed changes by half and more,
within a second and between runs (README), and a slow stretch slows a
pure-Python loop about as much as it slows the enumerator.  So a fixed
kernel runs every ``SEGMENT_S`` of a run, from a ``SIGALRM`` handler,
between any two bytecodes of the measured code.  The kernel runs cut
the host's time into segments; a segment's time is scaled by
``REFERENCE_S`` over the mean time of the two kernel runs around it,
and the kernel's own time is in no segment.  A timing then reads as
the seconds it would have taken with the kernel at ``REFERENCE_S``: a
slow stretch of the host cancels, a slower program does not.

The kernel is MCS-M (minimal triangulation by maximum cardinality
search) on a fixed random graph, in plain Python: the same mix of small
sets, dicts, heaps and calls as the enumerator's own hot loop.  It is
the benchmark's own code, so a change to the program never changes it.
"""

from __future__ import annotations

import bisect
import contextlib
import heapq
import os
import random
import signal
import time
from collections.abc import Sequence

#: Kernel time that defines a reference second: about the kernel's
#: time on a 2-vCPU 2.0 GHz host in its fast state.
REFERENCE_S = 0.004

#: Host seconds between two kernel runs.
SEGMENT_S = 0.1

#: MCS-M passes in one kernel run.
ROUNDS = 2


def _graph(nodes: int = 40, p: float = 0.2, seed: int = 7) -> dict[int, set[int]]:
    rng = random.Random(seed)
    adjacency: dict[int, set[int]] = {v: set() for v in range(nodes)}
    for u in range(nodes):
        for v in range(u + 1, nodes):
            if rng.random() < p:
                adjacency[u].add(v)
                adjacency[v].add(u)
    return adjacency


_GRAPH = _graph()


def mcs_m(adjacency: dict[int, set[int]]) -> set[tuple[int, int]]:
    """Fill edges of the MCS-M minimal triangulation of ``adjacency``."""
    weight = dict.fromkeys(adjacency, 0)
    unnumbered = set(adjacency)
    fill: set[tuple[int, int]] = set()
    while unnumbered:
        v = max(unnumbered, key=lambda u: (weight[u], u))
        unnumbered.remove(v)
        # Least possible largest weight inside a path v .. u through
        # unnumbered vertices (-1: adjacent); u is reached when that is
        # below u's own weight.
        inner: dict[int, int] = {}
        heap = [(-1, u) for u in adjacency[v] if u in unnumbered]
        while heap:
            cost, x = heapq.heappop(heap)
            if x in inner:
                continue
            inner[x] = cost
            through = max(cost, weight[x])
            for y in adjacency[x]:
                if y in unnumbered and y not in inner:
                    heapq.heappush(heap, (through, y))
        reached = [u for u, cost in inner.items() if cost < weight[u]]
        for u in reached:
            weight[u] += 1
            if u not in adjacency[v]:
                fill.add((min(u, v), max(u, v)))
    return fill


def kernel() -> float:
    """Run the fixed kernel once and return its wall time in seconds."""
    before = time.perf_counter()
    for __ in range(ROUNDS):
        mcs_m(_GRAPH)
    return time.perf_counter() - before


def _pinned(cpus: Sequence[int]) -> float:
    """Mean kernel time over ``cpus``, pinned to each in turn."""
    saved = os.sched_getaffinity(0)
    try:
        runs = []
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            runs.append(kernel())
    finally:
        os.sched_setaffinity(0, saved)
    return sum(runs) / len(runs)


class Timeline:
    """Host clock readings to reference seconds.

    Each :meth:`sample` runs the kernel; inside :meth:`running` a timer
    takes one every ``SEGMENT_S``.  :meth:`ref` converts a reading once
    a sample follows it.  Disabled (traced runs, whose layer times are
    shares of the same clock), it runs nothing and scales by 1.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.ends: list[float] = []  # host clock at the end of each kernel run
        self.refs: list[float] = []  # reference seconds at those ends
        self.factors: list[float] = []  # scale of the segment after each run
        self.kernel_s = 0.0  # host seconds spent in the kernel
        self.kernel_cpu_s = 0.0  # CPU seconds spent in the kernel
        self._last = 0.0  # the last kernel run's time
        self._busy = False
        self.sample()

    def sample(self, cpus: Sequence[int] = ()) -> None:
        """Run the kernel; close the segment that ends here.

        With ``cpus``, run it once pinned to each of them and take the
        mean: a pool's workers run on every usable CPU, and on a shared
        host each CPU has its own speed.
        """
        if not self.enabled or self._busy:
            return
        self._busy = True  # the timer may fire inside an explicit sample
        try:
            cpu = time.process_time()
            start = time.perf_counter()
            took = _pinned(cpus) if cpus else kernel()
            end = time.perf_counter()
            if self.ends:
                factor = 2 * REFERENCE_S / (self._last + took)
                self.factors.append(factor)
                self.refs.append(self.refs[-1] + (start - self.ends[-1]) * factor)
            else:
                self.refs.append(0.0)
            self.ends.append(end)
            self._last = took
            self.kernel_s += end - start
            self.kernel_cpu_s += time.process_time() - cpu
        finally:
            self._busy = False

    def ref(self, t: float) -> float:
        """Reference seconds at host clock reading ``t``."""
        if not self.enabled:
            return t
        i = bisect.bisect_right(self.ends, t) - 1
        if not 0 <= i < len(self.factors):
            raise ValueError("a reading needs a sample before and after it")
        return self.refs[i] + (t - self.ends[i]) * self.factors[i]

    @contextlib.contextmanager
    def running(self):
        """Sample every ``SEGMENT_S`` inside the block."""
        if not self.enabled:
            yield
            return
        previous = signal.signal(signal.SIGALRM, lambda *__: self.sample())
        signal.setitimer(signal.ITIMER_REAL, SEGMENT_S, SEGMENT_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def pause(self) -> None:
        """Stop the timer and sample on every usable CPU: the next
        segment lasts until :meth:`resume`."""
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self.sample(sorted(os.sched_getaffinity(0)))

    def resume(self) -> None:
        if self.enabled:
            self.sample(sorted(os.sched_getaffinity(0)))
            signal.setitimer(signal.ITIMER_REAL, SEGMENT_S, SEGMENT_S)
