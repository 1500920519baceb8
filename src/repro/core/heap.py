"""Array-backed storage and index arithmetic for the batched heap.

The heap of batch nodes is stored 1-indexed, exactly as in the paper:
node ``i``'s children are ``2i`` and ``2i+1``, its parent ``i // 2``.
``heap_size`` counts live nodes *including* the root.  The root (index
1) shares its lock with the partial buffer; every other node has its
own lock.
"""

from __future__ import annotations

import numpy as np

from ..errors import CapacityError
from ..primitives.inplace import ScratchLedger, sort_split_into
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

    One shared :class:`NodeArena` holds every node row contiguously
    (the device layout of §3.3); nodes are two-word views and the fused
    helpers below rebalance node rows in place through a preallocated
    :class:`ScratchLedger`.
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
        # index 0 unused; nodes/rows allocated eagerly like the device array
        self.arena = NodeArena(
            max_nodes + 1,
            node_capacity,
            dtype=dtype,
            payload_width=payload_width,
            payload_dtype=payload_dtype,
        )
        self.scratch = ScratchLedger(
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

    # -- fused in-place SORT_SPLIT over arena rows ------------------------
    def sort_split_nodes(self, i: int, j: int, small: int, large: int, ma: int) -> bool:
        """SORT_SPLIT nodes ``i`` and ``j`` (merged in that order) in place:
        node ``small`` receives the ``ma`` smallest keys, node ``large``
        the rest.  ``{small, large}`` must equal ``{i, j}``; both rows
        are rewritten through the scratch ledger with no temporaries.
        Callers hold both node locks.

        Returns True when the presorted fast path fired (the rows were
        already the requested split and nothing was rewritten) — the
        bit the observability layer reports as the fast-path rate.
        """
        a, s = self.arena, self.scratch
        ni = int(a.counts[i])
        nj = int(a.counts[j])
        if ni and nj:
            # Already balanced: the rows hold exactly the split the caller
            # wants, so the rewrite is the identity.  Two scalar compares
            # make ~a third of steady-state heapify rebalances free.
            if small == i and ma == ni and a.keys[i, ni - 1] <= a.keys[j, 0]:
                return True
            if small == j and ma == nj and a.keys[j, nj - 1] < a.keys[i, 0]:
                return True
        if a.payload_width:
            sort_split_into(
                a.keys[i, :ni], a.keys[j, :nj], ma,
                a.keys[small], a.keys[large], s,
                pa=a.pay[i, :ni], pb=a.pay[j, :nj],
                x_p=a.pay[small], y_p=a.pay[large],
            )
        else:
            sort_split_into(
                a.keys[i, :ni], a.keys[j, :nj], ma,
                a.keys[small], a.keys[large], s,
            )
        a.counts[small] = ma
        a.counts[large] = ni + nj - ma
        return False

    def sort_split_node_items(
        self,
        i: int,
        items_k: np.ndarray,
        items_p: np.ndarray | None = None,
    ) -> bool:
        """SORT_SPLIT node ``i`` against a travelling batch, in place:
        the node keeps the ``|i|`` smallest keys of node ∪ items and the
        batch arrays are rewritten with the rest (same length — this is
        the heapify step of Alg. 1 line 20/33).
        Returns True when the presorted fast path skipped the rewrite.
        """
        a, s = self.arena, self.scratch
        ni = int(a.counts[i])
        if ni and items_k.shape[0] and a.keys[i, ni - 1] <= items_k[0]:
            return True  # node already holds the |i| smallest; batch unchanged
        if a.payload_width and items_p is not None:
            sort_split_into(
                a.keys[i, :ni], items_k, ni,
                a.keys[i], items_k, s,
                pa=a.pay[i, :ni], pb=items_p,
                x_p=a.pay[i], y_p=items_p,
            )
        else:
            sort_split_into(a.keys[i, :ni], items_k, ni, a.keys[i], items_k, s)
        # the node's count (ni) and the batch length are both unchanged
        return False

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
