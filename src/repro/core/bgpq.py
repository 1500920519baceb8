"""BGPQ: the batched, heap-based, linearizable GPU priority queue.

This is the paper's primary contribution, assembled from the INSERT
(Algorithm 1) and DELETEMIN (Algorithms 2-3) mixins.  One simulated
thread models one CUDA thread block: every node-level primitive
(bitonic sort, merge path, SORT_SPLIT) runs cooperatively across the
block's lanes, which is where the intra-node data parallelism comes
from; concurrent blocks operating on different nodes provide the
inter-node task parallelism, synchronised by per-node locks (the root
and the partial buffer share one lock, §4).

Usage (synthetic workload)::

    from repro.core import BGPQ
    from repro.device import GpuContext
    from repro.sim import Engine

    ctx = GpuContext.default()           # 128 blocks x 512 threads
    pq = BGPQ(ctx, node_capacity=1024, max_keys=1 << 20)
    eng = Engine(seed=1)

    def block(bid, batches):
        for batch in batches:
            yield from pq.insert_op(batch)

    ... spawn one generator per block, eng.run(), then
    pq.deletemin_op(...) the keys back out.
"""

from __future__ import annotations

import numpy as np

from ..baselines.interface import ConcurrentPQ, PQFeatures
from ..device.kernels import GpuContext
from ..errors import ConfigurationError
from ..sim import Condition
from .deletion import DeleteMixin
from .heap import HeapStorage
from .insertion import InsertMixin
from .node import AVAIL

__all__ = ["BGPQ"]


class BGPQ(InsertMixin, DeleteMixin, ConcurrentPQ):
    """Batched GPU priority queue (the paper's BGPQ).

    Parameters
    ----------
    ctx:
        GPU context (device spec + launch shape) supplying the cost
        model.  The paper's default is 128 blocks × 512 threads.
    node_capacity:
        Keys per batch node (the paper's k; default 1024).
    max_keys:
        Capacity of the pre-allocated node array, in keys.
    collaboration:
        Enable the TARGET/MARKED insert-steal protocol (§4.3).  Turned
        off only by the ablation benchmarks.
    dtype:
        Key dtype (the paper uses 30/32-bit integer keys).
    root_wait_ns:
        When set, INSERT/DELETEMIN take the root lock with *bounded*
        waits of this length (exponentially growing across retries)
        instead of queueing forever; an operation that exhausts its
        retries raises :class:`~repro.errors.OperationAborted` with all
        state rolled back.  ``None`` (the default) keeps the paper's
        unbounded acquire.
    root_retries:
        Bounded-wait attempts beyond the first (default 3, so 4 waits
        totalling 15x ``root_wait_ns`` before aborting).
    """

    name = "BGPQ"

    def __init__(
        self,
        ctx: GpuContext | None = None,
        node_capacity: int = 1024,
        max_keys: int = 1 << 22,
        collaboration: bool = True,
        dtype=np.int64,
        payload_width: int = 0,
        payload_dtype=np.int64,
        root_wait_ns: float | None = None,
        root_retries: int = 3,
    ):
        if root_wait_ns is not None and root_wait_ns <= 0:
            raise ConfigurationError("root_wait_ns must be positive (or None)")
        if root_retries < 0:
            raise ConfigurationError("root_retries must be >= 0")
        if node_capacity < 2:
            raise ConfigurationError("node capacity must be >= 2")
        if payload_width < 0:
            raise ConfigurationError("payload width must be >= 0")
        self.ctx = ctx if ctx is not None else GpuContext.default()
        self.model = self.ctx.model
        self.k = node_capacity
        max_nodes = max(2, -(-max_keys // node_capacity) + 1)
        self.store = HeapStorage(
            max_nodes,
            node_capacity,
            dtype=dtype,
            name="bgpq",
            payload_width=payload_width,
            payload_dtype=payload_dtype,
        )
        # Ping-pong pair backing the partial buffer: each rebalance
        # merges the live buffer into the inactive half and flips, so
        # ``self.pbuffer`` is always a view into preallocated storage
        # and the hot path never allocates.
        self._pb_keys = (
            np.empty(node_capacity, dtype=self.store.dtype),
            np.empty(node_capacity, dtype=self.store.dtype),
        )
        self._pb_pay = (
            np.empty((node_capacity, payload_width), dtype=payload_dtype),
            np.empty((node_capacity, payload_width), dtype=payload_dtype),
        )
        self._pb_active = 0
        self.pbuffer = self._pb_keys[0][:0]
        self.pbuffer_pay = self._pb_pay[0][:0]
        self.collaboration = collaboration
        #: optional :class:`~repro.obs.events.EventBus`; when set, the
        #: operation paths emit structured mechanism events (SORT_SPLITs,
        #: pBuffer traffic, root refills, steals).  ``None`` keeps the
        #: hot paths event-free: every emit site is one attribute load
        #: and a branch.
        self.obs = None
        #: signalled by an inserter that refilled the root for a MARKer
        self.root_avail = Condition("bgpq.root_avail")
        #: signalled by an inserter that filled its TARGET node
        self.node_filled = Condition("bgpq.node_filled")
        self._total_keys = 0
        self.root_wait_ns = root_wait_ns
        self.root_retries = root_retries
        self.stats = {
            "insert_heapify": 0,
            "deletemin_heapify": 0,
            "partial_insert": 0,
            "partial_delete": 0,
            "collab_steals": 0,
            "collab_fills": 0,
            "insert_aborts": 0,
            "delete_aborts": 0,
            "insert_rollbacks": 0,
            "delete_rollbacks": 0,
            "root_timeouts": 0,
        }

    # ------------------------------------------------------------------
    @classmethod
    def features(cls) -> PQFeatures:
        return PQFeatures(
            name="BGPQ",
            data_parallelism=True,
            task_parallelism=True,
            thread_collaboration=True,
            memory_efficient=True,  # k + O(1) per stored key
            linearizable=True,
            data_structure="Heap",
        )

    def _acquire_root(self, guard, op: str):
        """Take the root lock, bounded when ``root_wait_ns`` is set.

        Registers the lock on ``guard`` on success.  A bounded acquire
        that exhausts its retries raises
        :class:`~repro.errors.OperationAborted` with nothing held and
        nothing mutated — the clean-abort entry point of the paper's
        protocols under fault injection.
        """
        from ..errors import OperationAborted
        from ..sim import Acquire, Compute
        from .recovery import bounded_acquire

        store, m = self.store, self.model
        if self.root_wait_ns is None:
            yield Acquire(store.root_lock)
            yield Compute(m.lock_acquire_ns())
        else:
            ok = yield from bounded_acquire(
                store.root_lock, m, self.root_wait_ns, self.root_retries
            )
            if not ok:
                self.stats["root_timeouts"] += 1
                self.stats[f"{op}_aborts"] += 1
                if self.obs is not None:
                    from ..obs.events import FAULT_ABORT

                    self.obs.emit_here(FAULT_ABORT, op=op)
                raise OperationAborted(
                    op,
                    f"root lock unavailable after {self.root_retries + 1} "
                    f"bounded waits from {self.root_wait_ns:g}ns",
                )
        guard.hold(store.root_lock)

    def peek_min_op(self, count: int = 1):
        """Read (without removing) up to ``min(count, |root|)`` smallest keys.

        Takes the root lock briefly; the root always holds the smallest
        keys in the structure (the §5 invariant), so no traversal is
        needed.  Bounded by the root's current occupancy — keys beyond
        it would require a refill, which is DELETEMIN's job.
        """
        from ..sim import Acquire, Compute, Release

        store, m = self.store, self.model
        if not 1 <= count <= self.k:
            raise ValueError(f"peek count must be in [1, {self.k}], got {count}")
        yield Acquire(store.root_lock)
        yield Compute(m.lock_acquire_ns())
        root = store.root
        n = min(count, root.count) if store.heap_size else 0
        out = root.keys()[:n].copy()
        yield Compute(m.global_read_ns(max(1, n)))
        yield Release(store.root_lock)
        yield Compute(m.lock_release_ns())
        return out

    def _payload_for(self, keys: np.ndarray, payload) -> np.ndarray:
        """Validate/synthesise the payload rows for an insert batch."""
        width = self.store.payload_width
        if payload is None:
            return np.zeros((keys.size, width), dtype=self.store.payload_dtype)
        payload = np.asarray(payload, dtype=self.store.payload_dtype)
        if payload.ndim == 1:
            payload = payload.reshape(-1, 1)
        if payload.shape != (keys.size, width):
            raise ValueError(
                f"payload shape {payload.shape} != ({keys.size}, {width})"
            )
        return payload

    # -- fused partial-buffer operations ------------------------------------
    # All three run under the root/pBuffer lock.  They stage through the
    # heap's scratch ledger and the ping-pong pair, so steady state does
    # zero array allocations; ties keep the first operand's keys first,
    # exactly like merge_with_payload.
    def _buffer_absorb(self, items_k: np.ndarray, items_p: np.ndarray) -> None:
        """Alg.1 lines 21-24: merge ``items`` into the partial buffer."""
        from ..primitives.inplace import merge_into

        dst = 1 - self._pb_active
        total = self.pbuffer.size + items_k.size
        if self.store.payload_width:
            merge_into(
                self.pbuffer, items_k, self._pb_keys[dst],
                self.pbuffer_pay, items_p, self._pb_pay[dst],
                iota=self.store.scratch.iota,
            )
        else:
            merge_into(self.pbuffer, items_k, self._pb_keys[dst])
        self._pb_active = dst
        self.pbuffer = self._pb_keys[dst][:total]
        self.pbuffer_pay = self._pb_pay[dst][:total]

    def _buffer_detach_full(
        self, items_k: np.ndarray, items_p: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Alg.1 lines 26-29: the k smallest of items ∪ buffer leave as a
        full batch (returned as fresh arrays — they travel down the tree
        across yields, so they cannot live in shared scratch); the rest
        becomes the new buffer, in place."""
        from ..primitives.inplace import sort_split_into

        s = self.store.scratch
        dst = 1 - self._pb_active
        rest = items_k.size + self.pbuffer.size - self.k
        if self.store.payload_width:
            sort_split_into(
                items_k, self.pbuffer, self.k,
                s.keys, self._pb_keys[dst], s,
                pa=items_p, pb=self.pbuffer_pay,
                x_p=s.pay, y_p=self._pb_pay[dst],
            )
            fk = s.keys[: self.k].copy()
            fp = s.pay[: self.k].copy()
        else:
            sort_split_into(
                items_k, self.pbuffer, self.k, s.keys, self._pb_keys[dst], s
            )
            fk = s.keys[: self.k].copy()
            fp = np.zeros((self.k, 0), dtype=self.store.payload_dtype)
        self._pb_active = dst
        self.pbuffer = self._pb_keys[dst][:rest]
        self.pbuffer_pay = self._pb_pay[dst][:rest]
        return fk, fp

    def _balance_root_buffer(self) -> None:
        """Alg.2 line 13: root keeps the ``|root|`` smallest of
        root ∪ buffer; the buffer is rewritten in place with the rest."""
        from ..primitives.inplace import sort_split_into

        a = self.store.arena
        s = self.store.scratch
        rc = int(a.counts[1])
        nb = self.pbuffer.size
        dst = 1 - self._pb_active
        if self.store.payload_width:
            sort_split_into(
                a.keys[1, :rc], self.pbuffer, rc,
                a.keys[1], self._pb_keys[dst], s,
                pa=a.pay[1, :rc], pb=self.pbuffer_pay,
                x_p=a.pay[1], y_p=self._pb_pay[dst],
            )
        else:
            sort_split_into(
                a.keys[1, :rc], self.pbuffer, rc, a.keys[1], self._pb_keys[dst], s
            )
        self._pb_active = dst
        self.pbuffer = self._pb_keys[dst][:nb]
        self.pbuffer_pay = self._pb_pay[dst][:nb]

    # -- rollback snapshots of the partial buffer --------------------------
    def _pbuffer_snapshot(self):
        """Capture the buffer for OpGuard rollback.  The fused paths
        rewrite the ping-pong storage in place, so the snapshot copies."""
        return self.pbuffer.copy(), self.pbuffer_pay.copy()

    def _pbuffer_restore(self, buf_k: np.ndarray, buf_p: np.ndarray) -> None:
        n = buf_k.size
        keys = self._pb_keys[self._pb_active]
        pay = self._pb_pay[self._pb_active]
        keys[:n] = buf_k
        pay[:n] = buf_p
        self.pbuffer = keys[:n]
        self.pbuffer_pay = pay[:n]

    # -- quiescent introspection -----------------------------------------
    def snapshot_keys(self) -> np.ndarray:
        """All stored keys (heap nodes + partial buffer); quiescent only."""
        heap_keys = self.store.all_keys()
        return np.concatenate([heap_keys, self.pbuffer])

    def __len__(self) -> int:
        return self._total_keys

    def check_invariants(self) -> list[str]:
        """Structural invariant check for tests (quiescent only).

        Verifies the batched heap property, per-node sortedness, and
        that the buffer's keys do not undercut the root (§3.1).
        """
        problems = self.store.check_heap_property()
        root = self.store.root
        if (
            self.pbuffer.size
            and root.state == AVAIL
            and root.count
            and self.pbuffer[0] < root.max_key()
        ):
            problems.append(
                f"buffer min {self.pbuffer[0]} < root max {root.max_key()}"
            )
        if self.pbuffer.size > 1 and np.any(self.pbuffer[:-1] > self.pbuffer[1:]):
            problems.append("buffer not sorted")
        if self.pbuffer.size >= self.k:
            problems.append(f"buffer holds {self.pbuffer.size} >= k={self.k} keys")
        return problems

    def memory_bytes(self) -> int:
        """Live batch nodes + the partial buffer + one state/lock word
        per allocated slot: k + O(1) bytes per stored key (Table 1)."""
        item = self.store.dtype.itemsize
        node_bytes = self.store.heap_size * self.k * item
        buffer_bytes = self.k * item
        control = (self.store.heap_size + 1) * 16  # state + lock words
        return node_bytes + buffer_bytes + control

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<BGPQ k={self.k} nodes={self.store.heap_size} "
            f"keys={self._total_keys} buf={self.pbuffer.size}>"
        )
