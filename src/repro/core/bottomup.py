"""Bottom-up insertion variant of BGPQ (the paper's §3.3 experiment).

The paper: "We also implemented an existing approach to reduce root
node contention for task parallelism similar to that for a single-key
node by Hunt et al. [14].  The performance is similar to that of the
simple top-down approach (Sec. 6)."

This class reproduces that variant: PARTIAL_INSERT is unchanged (the
root merge under the root lock is what keeps the root minimal and the
linearization argument for the *root-served* operations intact), but a
full overflow batch is placed directly at the new leaf and *percolated
up* with parent/child SORT_SPLITs — no hand-over-hand descent through
the root's subtree, hence less traffic on the upper tree.

Correctness contract, exactly as Hunt's row in the paper's Table 1
(Linearizable: N/A): keys are always conserved and each phase-separated
workload (insert-all then delete-all — the Fig. 6 / Table 2 synthetic
pattern) returns exact global minima, but *overlapping* deletes can
transiently observe a non-minimal root while a batch is still bubbling
up.  The paper's default, and this package's, remains the linearizable
top-down :class:`~repro.core.bgpq.BGPQ`.

Lock discipline: every acquisition is in ascending node-index order
(parent before child, size/root lock first), the same global order the
top-down delete heapify uses, so the variant composes deadlock-free
with concurrent deletions.
"""

from __future__ import annotations

import numpy as np

from ..sim import Acquire, Compute, Release, Signal
from .bgpq import BGPQ
from .heap import parent
from .node import AVAIL

__all__ = ["BGPQBottomUp"]


class BGPQBottomUp(BGPQ):
    """BGPQ with Hunt-style bottom-up insert-heapify (§3.3 variant)."""

    name = "BGPQ-BU"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.stats["percolate_levels"] = 0

    def insert_op(self, keys: np.ndarray, payload: np.ndarray | None = None):
        """Insert 1..k records, percolating overflow batches upward."""
        store, m = self.store, self.model
        keys = np.asarray(keys, dtype=store.dtype)
        if keys.size == 0:
            return
        if keys.size > self.k:
            raise ValueError(f"insert of {keys.size} keys exceeds batch size {self.k}")
        pay = self._payload_for(keys, payload)

        order = np.argsort(keys, kind="stable")
        items_k, items_p = keys[order], pay[order]
        yield Compute(m.global_read_ns(items_k.size) + m.bitonic_sort_ns(items_k.size))

        yield Acquire(store.root_lock)
        yield Compute(m.lock_acquire_ns())
        self._total_keys += items_k.size

        full = yield from self._partial_insert(items_k, items_p)
        if full is None:
            return
        items_k, items_p = full

        # claim the leaf and fill it immediately (no TARGET phase: the
        # keys become visible at the leaf at once), then release the
        # root and bubble the batch toward it.
        tar = store.grow()
        tar_lock = store.lock(tar)
        tar_node = store.node(tar)
        yield Acquire(tar_lock)
        yield Compute(m.lock_acquire_ns())
        tar_node.set_keys(items_k, items_p)
        tar_node.state = AVAIL
        yield Compute(m.global_write_ns(items_k.size) + m.state_rmw_ns())
        yield Release(store.root_lock)
        yield Compute(m.lock_release_ns())

        self.stats["insert_heapify"] += 1
        yield from self._percolate_up(tar)
        yield Signal(self.node_filled)

    # ------------------------------------------------------------------
    def _percolate_up(self, cur: int):
        """Bubble the batch at ``cur`` upward until the heap property
        holds locally.  Enters holding ``cur``'s lock; releases all
        locks before returning.

        Each step releases the child, then re-acquires parent-then-child
        (ascending order) and re-validates under both locks — the
        batched analogue of Hunt's tag-checked percolation.
        """
        store, m = self.store, self.model
        while cur > 1:
            p = parent(cur)
            yield Release(store.lock(cur))
            yield Compute(m.lock_release_ns())
            yield Acquire(store.lock(p))
            yield Acquire(store.lock(cur))
            yield Compute(2 * m.lock_acquire_ns())
            p_node, c_node = store.node(p), store.node(cur)
            if (
                p_node.state != AVAIL
                or c_node.state != AVAIL
                or not p_node.count
                or not c_node.count
                or p_node.max_key() <= c_node.min_key()
            ):
                # in order (or a concurrent delete relocated a node):
                # done — release parent, fall through to release child
                yield Release(store.lock(p))
                yield Compute(m.lock_release_ns())
                break
            store.sort_split_nodes(p, cur, small=p, large=cur, ma=p_node.count)
            self.stats["percolate_levels"] += 1
            yield Compute(m.node_sort_split_ns(p_node.count, c_node.count))
            yield Release(store.lock(cur))
            yield Compute(m.lock_release_ns())
            cur = p
        yield Release(store.lock(cur))
        yield Compute(m.lock_release_ns())
