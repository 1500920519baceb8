"""Array-backed storage and index arithmetic for the batched heap.

The heap of batch nodes is stored 1-indexed, exactly as in the paper:
node ``i``'s children are ``2i`` and ``2i+1``, its parent ``i // 2``.
``heap_size`` counts live nodes *including* the root.  Row 0 of the
shared :class:`~repro.core.arena.NodeArena` is the partial buffer, which
shares the root's lock (index 1); every other node has its own lock.
"""

from __future__ import annotations

import numpy as np

from ..errors import CapacityError
from ..sim import SimLock
from .arena import NodeArena
from .node import BatchNode

__all__ = ["HeapStorage", "parent", "left", "right", "level", "path_next"]


def parent(i: int) -> int:
    return i >> 1


def left(i: int) -> int:
    return i << 1


def right(i: int) -> int:
    return (i << 1) | 1


def level(i: int) -> int:
    """Depth of node ``i`` (root = 0)."""
    return i.bit_length() - 1


def path_next(cur: int, tar: int) -> int:
    """The paper's NEXT(cur, tar): cur's child on the root→tar path.

    The root→tar path is encoded in tar's binary representation; the
    ancestor of ``tar`` one level below ``cur`` is ``tar`` shifted
    right by the remaining depth difference.
    """
    d = level(tar) - level(cur) - 1
    if d < 0:
        raise ValueError(f"{tar} is not below {cur}")
    nxt = tar >> d
    if (nxt >> 1) != cur:
        raise ValueError(f"node {tar} is not in {cur}'s subtree")
    return nxt


class HeapStorage:
    """Node array + lock array + heap size for a batched heap.

    ``max_nodes`` bounds the tree; exceeding it raises
    :class:`~repro.errors.CapacityError`, mirroring the fixed
    pre-allocated device array of the CUDA implementation.

    One shared :class:`NodeArena` holds the partial buffer (row 0) and
    every node row contiguously (the device layout of §3.3); nodes are
    two-word views, and :meth:`NodeArena.split_rows` /
    :meth:`NodeArena.split_row_items` rebalance rows in place.
    """

    def __init__(
        self,
        max_nodes: int,
        node_capacity: int,
        dtype=np.int64,
        name: str = "bgpq",
        payload_width: int = 0,
        payload_dtype=np.int64,
    ):
        if max_nodes < 1:
            raise CapacityError("need at least the root node")
        self.max_nodes = max_nodes
        self.node_capacity = node_capacity
        self.dtype = np.dtype(dtype)
        self.payload_width = payload_width
        self.payload_dtype = np.dtype(payload_dtype)
        # row 0 is the partial buffer; rows allocated eagerly like the device array
        self.arena = NodeArena(
            max_nodes + 1,
            node_capacity,
            dtype=dtype,
            payload_width=payload_width,
            payload_dtype=payload_dtype,
        )
        self.nodes: list[BatchNode] = [
            BatchNode.view(self.arena, i) for i in range(max_nodes + 1)
        ]
        #: locks[1] protects both the root and the partial buffer (§4)
        self.locks: list[SimLock] = [SimLock(f"{name}.n{i}") for i in range(max_nodes + 1)]
        self.heap_size = 0  # number of live nodes including the root

    @property
    def root(self) -> BatchNode:
        return self.nodes[1]

    @property
    def root_lock(self) -> SimLock:
        return self.locks[1]

    def node(self, i: int) -> BatchNode:
        return self.nodes[i]

    def lock(self, i: int) -> SimLock:
        return self.locks[i]

    def in_bounds(self, i: int) -> bool:
        return 1 <= i <= self.max_nodes

    def grow(self) -> int:
        """Claim the next node slot (caller holds the root lock)."""
        nxt = self.heap_size + 1
        if nxt > self.max_nodes:
            raise CapacityError(
                f"heap full: {self.heap_size} nodes of {self.max_nodes}"
            )
        self.heap_size = nxt
        return nxt

    def root_rollback(self):
        """A closure that restores rows 0-1 (partial buffer and root) and
        ``heap_size`` to their current values — the undo an
        :class:`~repro.core.recovery.OpGuard` registers before an
        operation rewrites them in place.  Caller holds the root lock."""
        a = self.arena
        keys, pay = a.keys[:2].copy(), a.pay[:2].copy()
        counts, states = a.counts[:2].copy(), a.states[:2].copy()
        size = self.heap_size

        def restore():
            a.keys[:2] = keys
            a.pay[:2] = pay
            a.counts[:2] = counts
            a.states[:2] = states
            self.heap_size = size

        return restore

    # -- quiescent helpers for tests/snapshots ---------------------------
    def all_keys(self) -> np.ndarray:
        """Every key in heap nodes (not the buffer); quiescent use only."""
        from .node import AVAIL  # local import avoids cycle at module load

        parts = [n.keys() for n in self.nodes[1:] if n.state == AVAIL and n.count]
        if not parts:
            return np.empty(0, dtype=self.dtype)
        return np.concatenate(parts)

    def check_heap_property(self) -> list[str]:
        """Return a list of violations (empty = invariant holds).

        For every AVAIL non-root node with an AVAIL parent: the node's
        min must be >= the parent's max (the paper's batched heap
        property).  Quiescent use only.
        """
        from .node import AVAIL

        problems: list[str] = []
        for i in range(2, self.heap_size + 1):
            n, p = self.nodes[i], self.nodes[parent(i)]
            if n.state != AVAIL or p.state != AVAIL or n.empty or p.empty:
                continue
            if n.min_key() < p.max_key():
                problems.append(
                    f"node {i} min {n.min_key()} < parent {parent(i)} max {p.max_key()}"
                )
        for i in range(1, self.heap_size + 1):
            if not self.nodes[i].check_sorted():
                problems.append(f"node {i} keys not sorted")
        return problems
