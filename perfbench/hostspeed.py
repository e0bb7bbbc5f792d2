"""Host-speed reference: a fixed pure-Python kernel timed between work.

A shared host's speed drifts by 10-40% over seconds to minutes, as
other tenants come and go on its cores and caches, and a pass's time
drifts with it.  On a 2-vCPU VM, 14 ``paper_cell`` passes spread with a
coefficient of variation of 0.13, and their CPU time correlated 0.98
with that of this kernel run between their scenarios; the ratio of the
two spread 0.02.  Timing the kernel once before a pass and once after
did not help (0.13 either way): the drift is faster than a pass.

So a workload whose pass is a series of short units of work calls
:meth:`HostSpeed.sample` after each unit, and reports its times at the
reference speed, the speed at which one sample takes
:data:`REFERENCE_S` seconds: a time is multiplied by
:attr:`HostSpeed.cpu_factor` (CPU times) or
:attr:`HostSpeed.wall_factor` (wall times).  The samples' own time is
left out of the pass's times.

The kernel mimics the simulator's mix (slotted objects, float updates,
dict lookups, a bounded heap, a sort).  It uses its own objects and
random generator, never the program's, and runs with the cyclic
garbage collector off, so neither the program's heap nor its random
state changes the kernel's speed or is changed by it.
"""

from __future__ import annotations

import gc
import heapq
import random
import time

#: Seconds one sample takes at the reference speed (about the median
#: CPU time of a sample on a 2-vCPU VM, so scaled times stay near the
#: times that VM measures).
REFERENCE_S = 0.035
#: Objects the kernel updates per sample.
KERNEL_OBJECTS = 15_000


class _Item:
    __slots__ = ("value", "index", "key")

    def __init__(self, value: float, index: int, key: str) -> None:
        self.value = value
        self.index = index
        self.key = key


def reference_kernel() -> float:
    """The fixed work of one sample; returns a checksum of it."""
    rng = random.Random(1)
    items = [_Item(rng.random(), index, str(index))
             for index in range(KERNEL_OBJECTS)]
    by_key = {item.key: item for item in items}
    heap: list[tuple[float, int]] = []
    total = 0.0
    for _ in range(3):
        for item in items:
            item.value = item.value * 0.9 + 0.1 * item.index
            heapq.heappush(heap, (item.value, item.index))
            if len(heap) > 1000:
                heapq.heappop(heap)
        total += sum(by_key[str(index)].value
                     for index in range(0, KERNEL_OBJECTS, 3))
    items.sort(key=lambda item: item.value)
    return total + items[0].value


class HostSpeed:
    """Reference samples taken during one pass."""

    def __init__(self) -> None:
        self.samples = 0
        self.cpu_s = 0.0
        self.wall_s = 0.0

    def sample(self) -> None:
        """Run the kernel once and add its CPU and wall time."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            wall = time.perf_counter()
            cpu = time.process_time()
            reference_kernel()
            self.cpu_s += time.process_time() - cpu
            self.wall_s += time.perf_counter() - wall
        finally:
            if enabled:
                gc.enable()
        self.samples += 1

    @property
    def cpu_factor(self) -> float:
        """Reference speed over the measured CPU speed (1 unsampled)."""
        return (REFERENCE_S * self.samples / self.cpu_s
                if self.samples else 1.0)

    @property
    def wall_factor(self) -> float:
        """Reference speed over the measured wall speed (1 unsampled)."""
        return (REFERENCE_S * self.samples / self.wall_s
                if self.samples else 1.0)
