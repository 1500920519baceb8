"""P-Sync: the pipelined GPU parallel heap of He, Agarwal & Prasad [12].

P-Sync extends Deo & Prasad's parallel heap [8] to GPUs: the heap
stores k-key batch nodes (like BGPQ), but operations advance through
the tree level-by-level in lock step, with a *grid-wide barrier
between every two pipeline stages* and a fixed batch size per
operation.  Inserts and deletes cannot run concurrently with each
other (paper footnote 5), and every batch pays the barrier cost at
each tree level.

Mapping to the simulator: the heap content is the same sequential
batched heap BGPQ's native variant uses (so results are exact and the
data movement is real); the pipeline is modelled by a global pipeline
lock plus a per-level charge of ``kernel_barrier + level work``.
``pipeline_overlap`` discounts the per-op stage cost for the partial
overlap the pipelined kernels do achieve — the default is calibrated
so P-Sync lands at its measured ~9x-per-batch deficit versus BGPQ
(Table 2), which the paper attributes precisely to this barrier-bound
pipeline.
"""

from __future__ import annotations

import numpy as np

from ..core.native import NativeBGPQ
from ..device.kernels import GpuContext
from ..sim import Acquire, Compute, Release, SimLock
from .interface import ConcurrentPQ, PQFeatures

__all__ = ["PSyncHeapPQ"]


class PSyncHeapPQ(ConcurrentPQ):
    """Barrier-synchronised pipelined batched heap (He et al.)."""

    name = "P-Sync"

    def __init__(
        self,
        ctx: GpuContext | None = None,
        node_capacity: int = 1024,
        dtype=np.int64,
        pipeline_overlap: float = 1.0,
    ):
        self.ctx = ctx if ctx is not None else GpuContext.default()
        self.model = self.ctx.model
        self.k = node_capacity
        self.heap = NativeBGPQ(node_capacity=node_capacity, key_dtype=dtype)
        self.dtype = np.dtype(dtype)
        self.pipeline_lock = SimLock("psync.pipeline")
        self.pipeline_overlap = pipeline_overlap
        self.stats = {"stages": 0}

    @classmethod
    def features(cls) -> PQFeatures:
        return PQFeatures(
            name="P-Sync",
            data_parallelism=True,
            task_parallelism=True,  # pipeline parallelism across levels
            thread_collaboration=False,
            memory_efficient=True,
            linearizable=None,  # no proof given; Table 1 marks N/A
            data_structure="Heap",
        )

    # -- helpers -------------------------------------------------------------
    def _depth(self) -> int:
        """Current number of tree levels the pipeline must traverse."""
        nodes = max(1, self.heap._heap_size)
        return max(1, nodes.bit_length())

    def _stage_cost_ns(self, levels: int) -> float:
        m = self.model
        per_level = m.kernel_barrier_ns() + m.node_sort_split_ns(self.k, self.k)
        self.stats["stages"] += levels
        return levels * per_level * self.pipeline_overlap

    # -- operations ----------------------------------------------------------
    def insert_op(self, keys: np.ndarray):
        keys = np.asarray(keys, dtype=self.dtype)
        if keys.size == 0:
            return
        if keys.size > self.k:
            raise ValueError(f"insert of {keys.size} keys exceeds batch size {self.k}")
        m = self.model
        yield Acquire(self.pipeline_lock)
        self.heap.insert(keys)
        yield Compute(
            m.global_read_ns(keys.size)
            + m.bitonic_sort_ns(keys.size)
            + self._stage_cost_ns(self._depth())
        )
        yield Release(self.pipeline_lock)

    def deletemin_op(self, count: int):
        if not 1 <= count <= self.k:
            raise ValueError(f"deletemin count must be in [1, {self.k}]")
        yield Acquire(self.pipeline_lock)
        got, _ = self.heap.deletemin(count)
        yield Compute(self._stage_cost_ns(self._depth()))
        yield Release(self.pipeline_lock)
        return got.astype(self.dtype)

    # -- introspection --------------------------------------------------------
    def snapshot_keys(self) -> np.ndarray:
        return self.heap.snapshot_keys().astype(self.dtype)

    def __len__(self) -> int:
        return len(self.heap)

    def memory_bytes(self) -> int:
        return self.heap.memory_bytes()
