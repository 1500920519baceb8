"""BGPQ DELETEMIN — the paper's Algorithms 2 and 3.

The flow: lock the root, try a *partial delete* (serve straight from
the root when it has enough keys).  Otherwise refill the root — from
the last heap node, from the partial buffer when the heap is down to
the root, or by stealing a concurrent inserter's in-flight keys via the
TARGET→MARKED protocol — merge the refilled root with the buffer, and
run the top-down DELETEMIN_HEAPIFY that restores the batched heap
property with pairwise SORT_SPLITs, extracting the remaining requested
keys the moment the root's final content is known.

Records are (key, payload-row) pairs; with ``payload_width = 0`` the
payload arrays are zero-width and free.  This module is a mixin;
:class:`repro.core.bgpq.BGPQ` provides the storage, cost model,
conditions and statistics it uses.
"""

from __future__ import annotations

import numpy as np

from ..errors import SimulationError, ThreadCrashed
from ..obs.events import (
    COLLAB_STEAL,
    FAULT_ROLLBACK,
    OP_BEGIN,
    OP_END,
    ROOT_REFILL,
    SORT_SPLIT,
)
from ..sim import Acquire, Compute, Release, Wait, crashpoint
from .heap import left, right
from .node import AVAIL, EMPTY, MARKED, TARGET
from .recovery import OpGuard

__all__ = ["DeleteMixin"]


class DeleteMixin:
    """DELETEMIN operation for the batched heap (Algorithms 2-3)."""

    def deletemin_op(self, count: int, with_payload: bool = False):
        """Remove up to ``count`` smallest records (generator).

        Returns the removed keys as a NumPy array, ascending (shorter
        than ``count`` when the queue drains); with
        ``with_payload=True`` returns ``(keys, payload_rows)``.
        """
        m = self.model
        if not 1 <= count <= self.k:
            raise ValueError(f"deletemin count must be in [1, {self.k}], got {count}")
        obs = self.obs
        if obs is not None:
            obs.emit_here(OP_BEGIN, op="deletemin", want=int(count))

        # Fault envelope: pre-commit mutations are recorded on a guard
        # and unwound if an injected crash lands at a crash point.
        guard = OpGuard()
        try:
            result = yield from self._deletemin_attempt(count, with_payload, guard)
        except ThreadCrashed:
            self.stats["delete_rollbacks"] += 1
            if obs is not None:
                obs.emit_here(FAULT_ROLLBACK, op="deletemin")
            yield from guard.rollback(m.lock_release_ns())
            raise
        if obs is not None:
            got = result[0] if with_payload else result
            obs.emit_here(OP_END, op="deletemin", got=int(got.size))
        return result

    def _deletemin_attempt(self, count: int, with_payload: bool, guard: OpGuard):
        """Alg.2 body; all pre-commit state is tracked on ``guard``."""
        store, m = self.store, self.model
        yield crashpoint()  # nothing held, nothing mutated

        # Alg.2 line 2 (bounded + retried when built with root_wait_ns)
        yield from self._acquire_root(guard, "delete")

        done, items_k, items_p = yield from self._partial_deletemin(count, guard)
        if done:  # root lock already released
            self._total_keys -= items_k.size
            return (items_k, items_p) if with_payload else items_k

        # lines 4-5: claim the last node, shrink the heap
        remained = count - items_k.size
        prev_total = self._total_keys
        self._total_keys -= count  # refill guarantees `count` keys total
        guard.on_abort(lambda: setattr(self, "_total_keys", prev_total))
        tar = store.heap_size
        store.heap_size -= 1  # undone via the snapshot on rollback
        tar_lock = store.lock(tar)
        tar_node = store.node(tar)
        root = store.root
        yield crashpoint()  # root held; heap shrink still invisible

        yield Acquire(tar_lock)  # line 6
        guard.hold(tar_lock)
        yield Compute(m.lock_acquire_ns() + m.state_rmw_ns())

        # Last survivable point: both locks held, nothing published.
        # Beyond this the refill either MARKs an in-flight insert or
        # moves the last node's keys — effects a peer may act on — so
        # the operation always runs to completion.
        yield crashpoint()
        guard.commit()

        if tar_node.state == TARGET and self.collaboration:
            # lines 7-9: steal the in-flight insert — mark it and spin
            # (block) until the inserter fills the root for us.
            tar_node.state = MARKED
            self.stats["collab_steals"] += 1
            if self.obs is not None:
                self.obs.emit_here(COLLAB_STEAL, tar=tar)
            yield Compute(m.state_rmw_ns())
            yield Release(tar_lock)
            yield Compute(m.lock_release_ns())
            yield Wait(self.root_avail, lambda: root.state == AVAIL)
        elif tar_node.state == TARGET:
            # collaboration disabled (ablation): wait for the inserter
            # to finish filling the node, then move its keys normally.
            yield Release(tar_lock)
            yield Compute(m.lock_release_ns())
            yield Wait(self.node_filled, lambda: tar_node.state == AVAIL)
            yield Acquire(tar_lock)
            yield Compute(m.lock_acquire_ns())
            root.set_keys(tar_node.keys(), tar_node.payload())
            tar_node.clear()
            tar_node.state = EMPTY
            if self.obs is not None:
                self.obs.emit_here(
                    ROOT_REFILL, source="filled_target", n=int(root.count)
                )
            yield Compute(m.global_read_ns(self.k) + m.global_write_ns(self.k))
            yield Release(tar_lock)
            yield Compute(m.lock_release_ns())
            root.state = AVAIL
            yield Compute(m.state_rmw_ns())
        elif tar_node.state == AVAIL:
            # lines 10-12: move the last node's keys into the root
            root.set_keys(tar_node.keys(), tar_node.payload())
            tar_node.clear()
            tar_node.state = EMPTY
            if self.obs is not None:
                self.obs.emit_here(
                    ROOT_REFILL, source="last_node", n=int(root.count)
                )
            yield Compute(
                m.global_read_ns(self.k) + m.global_write_ns(self.k) + m.state_rmw_ns()
            )
            yield Release(tar_lock)
            yield Compute(m.lock_release_ns())
            root.state = AVAIL
            yield Compute(m.state_rmw_ns())
        else:  # pragma: no cover - protocol violation guard
            raise SimulationError(
                f"deletemin found last node {tar} in unexpected state {tar_node.state}"
            )

        # line 13: ensure root <= buffer — the root keeps the |root|
        # smallest of root ∪ buffer, row 0 the rest
        nbuf = int(store.arena.counts[0])
        if nbuf:
            store.arena.split_rows(1, 0, small=1, large=0, ma=root.count)
            if self.obs is not None:
                # reported as a full rewrite even when the presorted fast
                # path fired: sort_split_fast has never counted this site,
                # and BENCH_analysis.json records it that way
                self.obs.emit_here(
                    SORT_SPLIT, site="delete.root_buffer",
                    na=int(root.count), nb=nbuf, fast=False,
                )
            yield Compute(m.node_sort_split_ns(root.count, nbuf))

        # line 14 / Alg.3: heapify, extracting `remained` at the root
        self.stats["deletemin_heapify"] += 1
        items_k, items_p = yield from self._deletemin_heapify(items_k, items_p, remained)
        return (items_k, items_p) if with_payload else items_k

    # ------------------------------------------------------------------
    def _partial_deletemin(self, count: int, guard: OpGuard | None = None):
        """Alg.2 PARTIAL_DELETEMIN (lines 15-31); root lock is held.

        Returns ``(True, keys, payload)`` when the request was fully
        served (root lock released) or ``(False, keys, payload)`` when
        a refill + heapify is needed (root lock still held, root state
        EMPTY).

        With a ``guard``, a snapshot of everything this routine (and
        the caller's heap shrink) may touch — rows 0-1 and the heap
        size — is registered for rollback and crash points are emitted;
        the fully-served exits commit before releasing the root.
        """
        store, m = self.store, self.model
        root = store.root
        no_k = np.empty(0, dtype=store.dtype)
        no_p = np.empty((0, store.payload_width), dtype=store.payload_dtype)

        if guard is not None:
            guard.on_abort(store.root_rollback())
            yield crashpoint()

        if store.heap_size == 0:  # lines 16-17: empty queue
            self.stats["partial_delete"] += 1
            if guard is not None:
                guard.commit()
            yield Release(store.root_lock)
            yield Compute(m.lock_release_ns())
            return True, no_k, no_p

        if count < root.count:  # lines 18-20: root alone suffices
            items_k, items_p = root.take_front_records(count)
            self.stats["partial_delete"] += 1
            yield Compute(m.global_read_ns(count) + m.global_write_ns(root.count))
            if guard is not None:
                guard.commit()
            yield Release(store.root_lock)
            yield Compute(m.lock_release_ns())
            return True, items_k, items_p

        # lines 21-22: drain the root
        items_k, items_p = root.take_front_records(root.count)
        yield Compute(m.global_read_ns(items_k.size))
        if guard is not None:
            yield crashpoint()  # drained keys restorable from snapshot

        if store.heap_size == 1:  # lines 23-29: refill from the buffer
            if self.pbuffer.size:
                root.set_keys(self.pbuffer, self.pbuffer_pay)  # buffer kept sorted
                store.nodes[0].clear()
                if self.obs is not None:
                    self.obs.emit_here(
                        ROOT_REFILL, source="buffer", n=int(root.count)
                    )
                yield Compute(m.global_write_ns(root.count))
            take = min(count - items_k.size, root.count)
            if take > 0:
                extra_k, extra_p = root.take_front_records(take)
                items_k = np.concatenate([items_k, extra_k])
                items_p = np.concatenate([items_p, extra_p])
                yield Compute(m.global_read_ns(take))
            if root.count == 0:
                # deviation from the pseudocode (documented in DESIGN.md):
                # a fully drained one-node heap resets to empty so the
                # next insert lands keys directly in the root.
                store.heap_size = 0
                root.state = EMPTY
            self.stats["partial_delete"] += 1
            if guard is not None:
                guard.commit()
            yield Release(store.root_lock)
            yield Compute(m.lock_release_ns())
            return True, items_k, items_p

        # lines 30-31: a full refill is needed
        root.state = EMPTY
        yield Compute(m.state_rmw_ns())
        if guard is not None:
            yield crashpoint()  # root still held; snapshot fully covers
        return False, items_k, items_p

    # ------------------------------------------------------------------
    def _deletemin_heapify(self, items_k: np.ndarray, items_p: np.ndarray, remained: int):
        """Alg.3 DELETEMIN_HEAPIFY, iteratively.

        Entered holding the root lock with the root refilled (AVAIL, k
        keys).  At each level both children are locked, the sibling
        pair is balanced with one SORT_SPLIT, the current node against
        the smaller sibling with another, and the walk descends into
        the child that received the larger keys.  ``remained`` keys are
        extracted from the root exactly once, at the moment the root's
        final content is known.
        """
        store, m = self.store, self.model
        cur = 1
        extracted = False

        def extract(node):
            nonlocal items_k, items_p, extracted
            take = min(remained, node.count)
            if take > 0:
                got_k, got_p = node.take_front_records(take)
                items_k = np.concatenate([items_k, got_k])
                items_p = np.concatenate([items_p, got_p])
            extracted = True
            return take

        while True:
            cur_node = store.node(cur)
            l, r = left(cur), right(cur)
            locked = []
            for c in (l, r):
                if store.in_bounds(c):
                    yield Acquire(store.lock(c))
                    yield Compute(m.lock_acquire_ns())
                    locked.append(c)
            avail = [
                c for c in locked
                if store.node(c).state == AVAIL and store.node(c).count
            ]

            # Alg.3 line 4: heap property already satisfied?  (TARGET /
            # EMPTY children carry no keys — automatically satisfied.)
            satisfied = (
                not avail
                or cur_node.empty
                or cur_node.max_key()
                <= min(store.node(c).min_key() for c in avail)
            )
            if satisfied:
                if cur == 1 and not extracted:
                    n = extract(cur_node)
                    yield Compute(m.global_read_ns(n))
                for c in (cur, *locked):
                    yield Release(store.lock(c))
                    yield Compute(m.lock_release_ns())
                return items_k, items_p

            if len(avail) == 2:
                nl, nr = store.node(l), store.node(r)
                # line 9: x = child with the larger max keeps the large half
                x, y = (l, r) if nl.max_key() > nr.max_key() else (r, l)
                ma = min(self.k, nl.count + nr.count)
                fast = store.arena.split_rows(l, r, small=y, large=x, ma=ma)
                if self.obs is not None:
                    self.obs.emit_here(
                        SORT_SPLIT, site="delete.heapify_pair",
                        na=int(nl.count), nb=int(nr.count), fast=fast,
                    )
                yield Compute(m.node_sort_split_ns(nl.count, nr.count))
                yield Release(store.lock(x))  # line 11
                yield Compute(m.lock_release_ns())
            else:
                # one keyed child: release the keyless sibling, balance
                # against the keyed one and descend into it.
                y = avail[0]
                for c in locked:
                    if c != y:
                        yield Release(store.lock(c))
                        yield Compute(m.lock_release_ns())

            # line 12: current node keeps the small half
            y_node = store.node(y)
            fast = store.arena.split_rows(
                cur, y, small=cur, large=y, ma=cur_node.count
            )
            if self.obs is not None:
                self.obs.emit_here(
                    SORT_SPLIT, site="delete.heapify_down",
                    na=int(cur_node.count), nb=int(y_node.count), fast=fast,
                )
            yield Compute(m.node_sort_split_ns(cur_node.count, y_node.count))

            if cur == 1 and not extracted:  # line 13
                n = extract(cur_node)
                yield Compute(m.global_read_ns(n))

            yield Release(store.lock(cur))  # line 14
            yield Compute(m.lock_release_ns())
            cur = y  # line 15: descend
