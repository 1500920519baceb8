"""A fixed reference workload: how fast does the host run right now?

The host's cores are shared with other tenants, and for a minute or
more everything on them can run 1.2-1.9x slower.  :func:`reference`
times a fixed piece of work written here, not in the program, of the
three kinds the program does: interpreter work (``Fraction`` arithmetic
and dict updates, as in the cost model and the drivers), a binary heap
of Python ints, and NumPy passes over arrays larger than the L2.  Its
time moves with the host, never with the program.  :func:`rescale`
divides a run's busy spells out of its figures, using the fastest
reference time of the run.
"""

from __future__ import annotations

import heapq
import time
from fractions import Fraction

import numpy as np

__all__ = ["REF_S", "reference", "rescale"]

# the reference's usual fastest time in a run on 2 vCPUs of a shared
# Intel Xeon (Python 3.11, NumPy 2.4); rescaled figures are what the
# program would do on a host that runs the reference this fast
REF_S = 0.0115

_rng = np.random.default_rng(1)
_HEAP = [int(x) for x in _rng.integers(0, 1 << 30, size=1 << 15)]
_SORT = _rng.integers(0, 1 << 40, size=1 << 18)  # 2 MiB
_BIG = _rng.integers(0, 1 << 40, size=1 << 21)  # 16 MiB, as large as a knapsack arena
_IDX = _rng.integers(0, _BIG.size, size=1 << 17)


def reference() -> float:
    """Seconds the reference work took."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 300):
        acc += Fraction(i, 7 + i % 13)
    counts: dict[int, int] = {}
    for i in range(20_000):
        counts[i & 1023] = counts.get(i & 1023, 0) + i
    h = list(_HEAP)
    heapq.heapify(h)
    for x in _HEAP[:8192]:
        heapq.heappushpop(h, x ^ 0x5555)
    np.sort(_SORT)
    int(_BIG[_IDX].sum())
    return time.perf_counter() - t0


def rescale(rate: float, latency: float, samples: list[float]):
    """(rate, latency, slowdown) rescaled to the host of :data:`REF_S`.

    ``slowdown`` is the run's fastest reference time over ``REF_S``: 1.3
    when even the run's quietest moment ran the reference 30% slower.
    """
    slowdown = min(samples) / REF_S
    return rate * slowdown, latency / slowdown, slowdown
