"""Host-speed calibration: a fixed kernel timed next to every op.

On a shared host the same op can run 1.5-2x slower for tens of seconds
to minutes while CPU time still equals wall time: other tenants slow the
core, they do not take it away. A run's median then follows the host, not
the program. The benchmark therefore times this kernel between every two
ops and reports each op's wall time scaled by
``REFERENCE_S / (mean of the kernel times just before and after the op)``,
i.e. in seconds of a host running at the speed where the kernel takes
``REFERENCE_S``.

The kernel imitates the simulator's mix of work: frozen dataclass events,
enum-keyed dict counters, list appends, and a small numpy draw and
threshold test every few steps. It imports nothing from crvanet, so no
change to the program can move it.
"""

from __future__ import annotations

import dataclasses
import enum
import gc
from time import perf_counter

import numpy as np

# A fixed kernel time within the range measured on the reference host, a
# 2-vCPU Intel Xeon VM with Python 3.11.7 and numpy 2.4.6 (0.014-0.026 s).
# Any fixed value would do; this one keeps scaled times close to that
# host's wall times.
REFERENCE_S = 0.020

STEPS = 8000


class _Kind(enum.Enum):
    SENSE = "sense"
    OCCUPY = "occupy"
    BACKOFF = "backoff"
    RELEASE = "release"


@dataclasses.dataclass(frozen=True)
class _Event:
    time_s: float
    vehicle: int
    kind: _Kind
    detail: str


def kernel() -> int:
    rng = np.random.default_rng(7)
    threshold = np.full(100, 1.2)
    kinds = list(_Kind)
    counts: dict[_Kind, int] = {}
    events = []
    for i in range(STEPS):
        kind = kinds[i & 3]
        counts[kind] = counts.get(kind, 0) + 1
        event = _Event(i * 1e-3, i % 50, kind, "x")
        if i % 7 == 0:
            events.append(event)
        if i % 40 == 0:
            x = rng.standard_normal(100)
            counts[kind] += int(np.count_nonzero(x * x > threshold))
    return len(events) + sum(counts.values())


def timed() -> float:
    """Wall seconds of one kernel run. The cyclic garbage collector is run
    before and kept off during it, so that the time does not depend on how
    many objects the process holds."""
    gc.collect()
    gc.disable()
    try:
        t0 = perf_counter()
        kernel()
        return perf_counter() - t0
    finally:
        gc.enable()


def scaled(wall: float, before: float, after: float) -> float:
    """``wall`` in reference seconds, given the kernel times around it."""
    return wall * REFERENCE_S / ((before + after) / 2)
