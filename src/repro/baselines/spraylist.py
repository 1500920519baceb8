"""SprayList: the relaxed skip-list priority queue of Alistarh et al. [1].

DELETEMIN performs a *spray*: a random descending walk from height
~log p with bounded jumps, landing uniformly-ish among the first
O(p log^3 p) keys, then claims the landed node with a CAS.  Because
concurrent deleters land on (mostly) different nodes, there is no
single hot head — the design trades strict minimality for parallelism.

Mapping to the simulator: sprays run concurrently, serialised only by
a small array of stripe locks standing in for the per-node CAS cache
lines (collisions re-spray with a retry penalty, as in the paper).
When the queue is small the spray degenerates to the head node and
collisions skyrocket — reproducing the paper's observation (§6.4) that
SprayList performs badly on a near-empty queue.
"""

from __future__ import annotations

import random

import numpy as np

from ..device.costmodel import CpuCostModel
from ..device.spec import XEON_E7_4870, CpuSpec
from ..sim import Acquire, Atomic, Compute, Release, SimLock
from .interface import ConcurrentPQ, PQFeatures
from .skiplist import SkipList

__all__ = ["SprayListPQ"]


class SprayListPQ(ConcurrentPQ):
    """Relaxed spray-walk skip-list priority queue."""

    name = "SprayList"

    #: fraction of insert-traversal hops that miss cache (upper tower
    #: levels stay resident)
    CACHED_HOP_FACTOR = 0.25
    #: fraction of the spray walk's visited nodes that miss cache (the
    #: near-head region is hot, but sprays fan out over p log^3 p nodes)
    SPRAY_HOP_MISS_FACTOR = 0.3

    def __init__(
        self,
        spec: CpuSpec = XEON_E7_4870,
        dtype=np.int64,
        n_threads: int = 80,
        n_stripes: int = 64,
        cleanup_batch: int = 64,
        seed: int = 0,
    ):
        self.model = CpuCostModel(spec)
        self.dtype = np.dtype(dtype)
        self.n_threads = n_threads
        self.sl = SkipList(seed=seed)
        self._rng = random.Random(seed ^ 0x5BBA)
        self.stripes = [SimLock(f"spray.s{i}") for i in range(n_stripes)]
        self.restructure_lock = SimLock("spray.restructure")
        #: serialises the linear-scan fallback used when a spray
        #: overshoots a short list (the original's "become a cleaner")
        self.head_lock = SimLock("spray.head")
        self.cleanup_batch = cleanup_batch
        import math

        self._spray_visits = int(math.log2(max(2, n_threads)) ** 3)
        self.stats = {"sprays": 0, "collisions": 0, "cleanups": 0}

    @classmethod
    def features(cls) -> PQFeatures:
        return PQFeatures(
            name="SprayList",
            data_parallelism=False,
            task_parallelism=True,
            thread_collaboration=False,
            memory_efficient=False,
            linearizable=None,  # relaxed semantics; Table 1 marks N/A
            data_structure="Skip list",
            exact_deletemin=False,
        )

    # -- operations ----------------------------------------------------------
    def insert_op(self, keys: np.ndarray):
        keys = np.asarray(keys, dtype=self.dtype)
        m = self.model
        for key in keys.tolist():
            hops = yield Atomic(lambda k=key: self.sl.insert(k))
            yield Compute(
                m.list_hops_ns(hops) * self.CACHED_HOP_FACTOR + 2 * m.atomic_ns()
            )

    def deletemin_op(self, count: int):
        if count < 1:
            raise ValueError("count must be >= 1")
        m = self.model
        out = []
        for _ in range(count):
            got = None
            while got is None:
                node, hops = yield Atomic(
                    lambda: self.sl.spray(self.n_threads, self._rng)
                )
                # The walk object above is compressed (one jump per
                # level); the real spray visits O(log^3 p) nodes
                # (Alistarh et al.) — charge that visit count at the
                # spray region's partial miss rate.
                yield Compute(
                    m.list_hops_ns(max(hops, self._spray_visits))
                    * self.SPRAY_HOP_MISS_FACTOR
                )
                self.stats["sprays"] += 1
                if node is None:
                    # overshot the (short) list: fall back to a serial
                    # head scan, the original's low-occupancy path
                    yield Acquire(self.head_lock)
                    key, fhops = yield Atomic(self.sl.logical_delete_min)
                    yield Compute(
                        m.atomic_ns(contended=True)
                        + m.list_hops_ns(fhops) * self.CACHED_HOP_FACTOR
                    )
                    yield Release(self.head_lock)
                    if key is not None:
                        got = key
                    break
                # stripe by key, not by address: int hashes ignore
                # PYTHONHASHSEED, so contention replays run to run
                stripe = self.stripes[hash(node.key) % len(self.stripes)]
                yield Acquire(stripe)
                ok = yield Atomic(lambda n=node: self.sl.mark(n))
                yield Compute(m.atomic_ns(contended=True))
                yield Release(stripe)
                if ok:
                    got = node.key
                else:
                    # collision: someone claimed it first — re-spray
                    self.stats["collisions"] += 1
                    yield Compute(m.op_ns(16))
            if got is None:
                break
            out.append(got)
            if self.sl.logically_deleted >= self.cleanup_batch:
                yield Acquire(self.restructure_lock)
                if self.sl.logically_deleted >= self.cleanup_batch:
                    removed, rhops = yield Atomic(self.sl.sweep_deleted)
                    yield Compute(m.list_hops_ns(rhops) * 0.05)  # streaming sweep
                    self.stats["cleanups"] += 1
                yield Release(self.restructure_lock)
        return np.array(sorted(out), dtype=self.dtype)

    # -- introspection --------------------------------------------------------
    def snapshot_keys(self) -> np.ndarray:
        return self.sl.live_keys().astype(self.dtype)

    def __len__(self) -> int:
        return len(self.sl)

    def memory_bytes(self) -> int:
        return self.sl.memory_bytes(key_bytes=self.dtype.itemsize)
