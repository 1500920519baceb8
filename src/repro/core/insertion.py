"""BGPQ INSERT — the paper's Algorithm 1.

The flow: sort the incoming records, lock the root, try a *partial
insert* (merge with the root so the root keeps the smallest keys, spill
the rest into the partial buffer).  Only when the buffer overflows does
a full batch detach and travel down the tree to a freshly claimed
TARGET slot, hand-over-hand locking all the way (INSERT_HEAPIFY).  If
a concurrent deleter MARKs the target, the inserter instead refills the
root with its in-flight keys — the thread-collaboration protocol.

Records are (key, payload-row) pairs; with ``payload_width = 0`` the
payload arrays are zero-width and free.  This module is a mixin;
:class:`repro.core.bgpq.BGPQ` provides the storage, cost model,
conditions and statistics it uses.
"""

from __future__ import annotations

import numpy as np

from ..errors import SimulationError, ThreadCrashed
from ..obs.events import (
    COLLAB_FILL,
    FAULT_ROLLBACK,
    OP_BEGIN,
    OP_END,
    PBUFFER_HIT,
    PBUFFER_OVERFLOW,
    ROOT_REFILL,
    SORT_SPLIT,
)
from ..sim import Acquire, Atomic, Compute, Release, Signal, crashpoint
from .heap import parent, path_next
from .node import AVAIL, EMPTY, MARKED, TARGET
from .recovery import OpGuard

__all__ = ["InsertMixin"]


class InsertMixin:
    """INSERT operation for the batched heap (Algorithm 1)."""

    def insert_op(self, keys: np.ndarray, payload: np.ndarray | None = None):
        """Insert 1..k records (generator yielding sim effects)."""
        store, m = self.store, self.model
        keys = np.asarray(keys, dtype=store.dtype)
        if keys.size == 0:
            return
        if keys.size > self.k:
            raise ValueError(f"insert of {keys.size} keys exceeds batch size {self.k}")
        pay = self._payload_for(keys, payload)

        # Alg.1 line 2: sort the items (bitonic, before taking the root)
        order = np.argsort(keys, kind="stable")
        items_k, items_p = keys[order], pay[order]
        yield Compute(m.global_read_ns(items_k.size) + m.bitonic_sort_ns(items_k.size))

        obs = self.obs
        if obs is not None:
            obs.emit_here(OP_BEGIN, op="insert", n=int(items_k.size))

        # Fault envelope: pre-commit mutations are recorded on a guard
        # and unwound if an injected crash lands at a crash point.
        guard = OpGuard()
        try:
            yield from self._insert_attempt(items_k, items_p, guard)
        except ThreadCrashed:
            self.stats["insert_rollbacks"] += 1
            if obs is not None:
                obs.emit_here(FAULT_ROLLBACK, op="insert")
            yield from guard.rollback(m.lock_release_ns())
            raise
        if obs is not None:
            obs.emit_here(OP_END, op="insert", n=int(items_k.size))

    def _insert_attempt(self, items_k: np.ndarray, items_p: np.ndarray, guard: OpGuard):
        """Alg.1 body; all pre-commit state is tracked on ``guard``."""
        store, m = self.store, self.model
        yield crashpoint()  # nothing held, nothing mutated

        # line 3: lock the root (the root/pBuffer shared lock);
        # bounded + retried when the queue was built with root_wait_ns.
        yield from self._acquire_root(guard, "insert")
        prev_total = self._total_keys
        self._total_keys += items_k.size
        guard.on_abort(lambda: setattr(self, "_total_keys", prev_total))
        yield crashpoint()  # root held; only the key count to unwind

        # lines 4 / 15-29: PARTIAL_INSERT
        full = yield from self._partial_insert(items_k, items_p, guard)
        if full is None:  # absorbed by root/buffer; root already unlocked
            return
        items_k, items_p = full

        # lines 5-6: claim the next slot, mark it TARGET
        tar = store.grow()  # undone via the heap_size snapshot on rollback
        tar_lock = store.lock(tar)
        tar_node = store.node(tar)
        yield Acquire(tar_lock)
        guard.hold(tar_lock)
        yield Compute(m.lock_acquire_ns() + m.state_rmw_ns())
        tar_node.state = TARGET
        guard.on_abort(lambda: setattr(tar_node, "state", EMPTY))
        yield Release(tar_lock)
        guard.drop(tar_lock)
        yield Compute(m.lock_release_ns())

        # Last survivable point: the root lock is still held, so no peer
        # has observed the grown heap or the TARGET slot — rollback can
        # still restore the exact pre-insert state.  The hand-over-hand
        # descent below publishes state lock by lock; from here the
        # operation always runs to completion.
        yield crashpoint()
        guard.commit()

        # line 7: top-down heapify from the root's child toward tar.
        # The root lock is still held; the first hand-over-hand step
        # inside _insert_heapify releases it.
        self.stats["insert_heapify"] += 1
        cur, items_k, items_p = yield from self._insert_heapify(tar, items_k, items_p)

        # line 8: lock the target, release the last path lock
        yield Acquire(tar_lock)
        yield Compute(m.lock_acquire_ns())
        yield Release(store.lock(parent(cur)))
        yield Compute(m.lock_release_ns())

        # lines 9-14: deliver the keys — to the target, or to the root
        # if a deleter marked us (collaboration).
        st = yield Atomic(lambda: tar_node.state, m.state_rmw_ns())
        if st == TARGET:
            tar_node.set_keys(items_k, items_p)
            tar_node.state = AVAIL
            yield Compute(m.global_write_ns(items_k.size) + m.state_rmw_ns())
            yield Release(tar_lock)
            yield Compute(m.lock_release_ns())
            # wake any collaboration-disabled deleter waiting for this fill
            yield Signal(self.node_filled)
        elif st == MARKED:
            root = store.root
            root.set_keys(items_k, items_p)  # line 12: |root| <- K
            root.state = AVAIL
            tar_node.state = EMPTY
            self.stats["collab_fills"] += 1
            if self.obs is not None:
                self.obs.emit_here(COLLAB_FILL, tar=tar)
                self.obs.emit_here(ROOT_REFILL, source="steal", n=int(items_k.size))
            yield Compute(m.global_write_ns(items_k.size) + 2 * m.state_rmw_ns())
            yield Release(tar_lock)
            yield Compute(m.lock_release_ns())
            yield Signal(self.root_avail)
        else:  # pragma: no cover - protocol violation guard
            raise SimulationError(f"insert target {tar} in unexpected state {st}")

    # ------------------------------------------------------------------
    def _partial_insert(
        self,
        items_k: np.ndarray,
        items_p: np.ndarray,
        guard: OpGuard | None = None,
    ):
        """Alg.1 PARTIAL_INSERT (lines 15-29); root lock is held.

        Returns None when the insert was fully absorbed (root lock
        released), or a full k-record batch to heapify (root lock
        still held) when the buffer overflowed.

        With a ``guard``, a snapshot of everything this routine may
        touch (rows 0-1 — the buffer and the root — and the heap size)
        is registered for rollback and crash points are emitted; the
        absorbed exits commit before releasing the root.  Without one
        (the bottom-up variant) behaviour is exactly the original.
        """
        store, m = self.store, self.model
        root, a = store.root, store.arena

        if guard is not None:
            # One snapshot covers every pre-commit mutation below *and*
            # the caller's grow().
            guard.on_abort(store.root_rollback())
            yield crashpoint()

        if store.heap_size == 0:  # lines 16-19: empty heap
            root.set_keys(items_k, items_p)
            root.state = AVAIL
            store.heap_size = 1
            self.stats["partial_insert"] += 1
            yield Compute(m.global_write_ns(items_k.size))
            if guard is not None:
                guard.commit()
            yield Release(store.root_lock)
            yield Compute(m.lock_release_ns())
            return None

        obs = self.obs
        n_in = items_k.size
        # line 20: SORT_SPLIT(root, |root|, items, size, |root|) — the
        # root keeps the |root| smallest of root ∪ items.
        if root.count:
            fast = a.split_row_items(1, items_k, items_p, root.count)
            if obs is not None:
                obs.emit_here(
                    SORT_SPLIT, site="insert.root",
                    na=int(root.count), nb=n_in, fast=fast,
                )
            yield Compute(m.node_sort_split_ns(root.count, n_in))

        nbuf = int(a.counts[0])
        if nbuf + n_in < self.k:  # lines 21-24: absorb
            # (kept sorted by merging — equivalent to append+sort-on-use)
            yield Compute(m.sort_split_ns(nbuf, n_in))
            a.split_row_items(0, items_k, items_p, nbuf + n_in)
            self.stats["partial_insert"] += 1
            if obs is not None:
                obs.emit_here(
                    PBUFFER_HIT, absorbed=n_in, buffered=nbuf + n_in,
                )
            if guard is not None:
                guard.commit()
            yield Release(store.root_lock)
            yield Compute(m.lock_release_ns())
            return None

        # lines 26-29: overflow — the k smallest of items ∪ buffer leave
        # as a full batch (items first on ties), the rest stays in row 0.
        # The batch travels down the tree across yields, so it gets fresh
        # arrays rather than shared scratch.
        fk = np.empty(self.k, dtype=store.dtype)
        fp = np.empty((self.k, store.payload_width), dtype=store.payload_dtype)
        a.kernels.sort_split_into(
            items_k, a.keys[0, :nbuf], self.k, fk, a.keys[0], a.scratch,
            pa=items_p, pb=a.pay[0, :nbuf], x_p=fp, y_p=a.pay[0],
        )
        rest = n_in + nbuf - self.k
        a.counts[0] = rest
        if obs is not None:
            obs.emit_here(PBUFFER_OVERFLOW, batch=int(self.k), buffered=rest)
        yield Compute(m.node_sort_split_ns(n_in, rest + self.k))
        if guard is not None:
            yield crashpoint()  # root still held; snapshot fully covers
        return fk, fp

    # ------------------------------------------------------------------
    def _insert_heapify(self, tar: int, items_k: np.ndarray, items_p: np.ndarray):
        """Alg.1 INSERT_HEAPIFY (lines 30-34), iteratively.

        Entered holding the root lock; walks the root→tar path with
        hand-over-hand locking, SORT_SPLITting ``items`` against each
        node so the path keeps its smaller keys.  Stops at ``tar`` or
        as soon as the target is MARKED by a deleter.  On return the
        last path lock (``parent(cur)``) is still held by this thread.
        """
        store, m = self.store, self.model
        tar_node = store.node(tar)
        cur = path_next(1, tar)
        while True:
            if cur == tar:
                return cur, items_k, items_p
            st = yield Atomic(lambda: tar_node.state, m.state_rmw_ns())
            if st == MARKED:
                return cur, items_k, items_p
            yield Acquire(store.lock(cur))
            yield Compute(m.lock_acquire_ns())
            yield Release(store.lock(parent(cur)))
            yield Compute(m.lock_release_ns())
            node = store.node(cur)
            if node.state == AVAIL and node.count:
                fast = store.arena.split_row_items(cur, items_k, items_p, node.count)
                if self.obs is not None:
                    self.obs.emit_here(
                        SORT_SPLIT, site="insert.heapify",
                        na=int(node.count), nb=int(items_k.size), fast=fast,
                    )
                yield Compute(m.node_sort_split_ns(node.count, items_k.size))
            cur = path_next(cur, tar)
