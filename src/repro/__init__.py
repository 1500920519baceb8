"""repro — a full Python reproduction of BGPQ (ICPP 2021).

BGPQ is a heap-based, linearizable, batched concurrent priority queue
designed for GPUs.  This package reproduces the paper end to end on a
simulated machine:

* :mod:`repro.sim` — deterministic discrete-event simulator of
  concurrent hardware threads (locks, atomics, barriers, tracing).
* :mod:`repro.device` — machine specifications and the cost model that
  converts algorithmic work into simulated nanoseconds (NVIDIA TITAN X
  and 4-socket Xeon E7-4870 parameter sets, matching the paper).
* :mod:`repro.primitives` — the paper's SORT_SPLIT as a fused, in-place
  NumPy reference, and the registry that swaps in the compiled C core.
* :mod:`repro.core` — the BGPQ data structure itself (Algorithms 1-3,
  the partial buffer, and the TARGET/MARKED thread-collaboration
  protocol), a host-speed "native" batched heap for applications, the
  sequential oracle, and a linearizability checker.
* :mod:`repro.baselines` — every comparator in the paper's Table 2:
  TBB-style locked heap, Hunt et al., CBPQ, Lindén–Jonsson skip list,
  SprayList, and the P-Sync pipelined GPU heap.
* :mod:`repro.apps` — the paper's applications: branch-and-bound 0-1
  knapsack and A* grid search (plus Dijkstra SSSP as an extension).
* :mod:`repro.bench` — the experiment harness regenerating the paper's
  Table 1, Table 2 and Figure 6.
"""

from ._version import __version__

__all__ = ["__version__"]
