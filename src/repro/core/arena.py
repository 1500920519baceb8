"""Structure-of-arrays backing store for batch nodes (§3.3).

The CUDA BGPQ keeps its whole heap in one aligned global-memory region:
node ``i``'s keys live at a fixed offset, so every batch operation is a
coalesced, allocation-free access.  :class:`NodeArena` reproduces that
layout — one ``(rows, k)`` key matrix plus parallel payload / count /
state vectors — and :class:`~repro.core.node.BatchNode` becomes a
two-word view (arena handle + row index) over it.

Both queues use one layout: the tree is 1-indexed, so row ``i`` is node
``i`` and row 0 is the partial buffer, which shares the root's lock
(§4).  A heap of ``max_nodes`` nodes owns ``max_nodes + 1`` rows.

The in-place row SORT_SPLIT lives here too: :meth:`NodeArena.split_rows`
rebalances two rows and :meth:`NodeArena.split_row_items` a row against
a travelling batch, both staged through the arena's own
:class:`~repro.primitives.inplace.ScratchLedger` (the block's shared
memory) and dispatched to the owner's kernel set.
"""

from __future__ import annotations

import numpy as np

from ..primitives.inplace import ScratchLedger
from ..primitives.kernels import KernelSet
from .node import EMPTY

__all__ = ["NodeArena"]

#: the NumPy reference kernels, for arenas whose owner passes none
_REFERENCE = KernelSet()


class NodeArena:
    """One contiguous allocation holding every batch node of a heap.

    Attributes
    ----------
    keys:
        ``(rows, k)`` key matrix; row ``i`` is node ``i``'s buffer and
        only ``keys[i, :counts[i]]`` is live (sorted).
    pay:
        ``(rows, k, payload_width)`` payload rows aligned with keys;
        zero-width when the queue stores bare keys (costs nothing).
    counts:
        Live-key count per row.
    states:
        Per-row state word (AVAIL/EMPTY/TARGET/MARKED of §4).
    scratch:
        The 2k-wide staging ledger every row SORT_SPLIT merges through.
    kernels:
        The kernel set the splits dispatch to (the NumPy reference
        unless the owner passes its own).
    """

    __slots__ = ("rows", "k", "dtype", "payload_width", "payload_dtype",
                 "keys", "pay", "counts", "states", "scratch", "kernels")

    def __init__(self, rows: int, node_capacity: int, dtype=np.int64,
                 payload_width: int = 0, payload_dtype=np.int64,
                 kernels: KernelSet | None = None):
        if rows < 1:
            raise ValueError("arena needs at least one row")
        if node_capacity < 1:
            raise ValueError("node capacity must be >= 1")
        self.rows = rows
        self.k = node_capacity
        self.dtype = np.dtype(dtype)
        self.payload_width = payload_width
        self.payload_dtype = np.dtype(payload_dtype)
        self.keys = np.empty((rows, node_capacity), dtype=dtype)
        self.pay = np.empty((rows, node_capacity, payload_width), dtype=payload_dtype)
        self.counts = np.zeros(rows, dtype=np.int64)
        self.states = np.full(rows, EMPTY, dtype=np.uint8)
        self.scratch = ScratchLedger(
            node_capacity, dtype=dtype,
            payload_width=payload_width, payload_dtype=payload_dtype,
        )
        self.kernels = kernels if kernels is not None else _REFERENCE

    def nbytes(self) -> int:
        """Total backing storage, for memory accounting."""
        return (
            self.keys.nbytes + self.pay.nbytes
            + self.counts.nbytes + self.states.nbytes
            + self.scratch.keys.nbytes + self.scratch.pay.nbytes
        )

    def grown(self, rows: int) -> "NodeArena":
        """A copy of this arena with at least ``rows`` rows.

        Row contents (keys, payload columns, counts, states), the
        scratch ledger and the kernel set carry over unchanged; new rows
        start EMPTY.  Growth reallocates — callers
        that need an allocation-free steady state size the arena up
        front (or, like :class:`~repro.core.native.NativeBGPQ`, grow by
        doubling so reallocation amortises away before measurement).
        """
        if rows <= self.rows:
            return self
        new = NodeArena(
            rows,
            self.k,
            dtype=self.dtype,
            payload_width=self.payload_width,
            payload_dtype=self.payload_dtype,
            kernels=self.kernels,
        )
        new.scratch = self.scratch
        r = self.rows
        new.keys[:r] = self.keys
        new.pay[:r] = self.pay
        new.counts[:r] = self.counts
        new.states[:r] = self.states
        return new

    # -- fused in-place SORT_SPLIT over rows ---------------------------------
    def split_rows(self, i: int, j: int, small: int, large: int, ma: int) -> bool:
        """SORT_SPLIT rows ``i`` and ``j`` (merged in that order) in place:
        row ``small`` receives the ``ma`` smallest records, row ``large``
        the rest.  ``{small, large}`` must equal ``{i, j}``; ties keep
        ``i``'s keys first, exactly like
        :func:`~repro.primitives.merge_with_payload`.  Callers hold both
        rows' locks.

        Returns True when the presorted fast path fired (the rows were
        already the requested split and nothing was rewritten) — the
        bit the observability layer reports as the fast-path rate.
        """
        ni = int(self.counts[i])
        nj = int(self.counts[j])
        if ni and nj:
            # Already balanced: the rows hold exactly the split the caller
            # wants, so the rewrite is the identity.  Two scalar compares
            # make ~a third of steady-state heapify rebalances free.
            if small == i and ma == ni and self.keys[i, ni - 1] <= self.keys[j, 0]:
                return True
            if small == j and ma == nj and self.keys[j, nj - 1] < self.keys[i, 0]:
                return True
        self.kernels.sort_split_into(
            self.keys[i, :ni], self.keys[j, :nj], ma,
            self.keys[small], self.keys[large], self.scratch,
            pa=self.pay[i, :ni], pb=self.pay[j, :nj],
            x_p=self.pay[small], y_p=self.pay[large],
        )
        self.counts[small] = ma
        self.counts[large] = ni + nj - ma
        return False

    def split_row_items(
        self, i: int, items_k: np.ndarray, items_p: np.ndarray, ma: int
    ) -> bool:
        """SORT_SPLIT row ``i`` against a travelling batch, in place: the
        row keeps the ``ma`` smallest records of row ∪ items (row keys
        first on ties) and ``items_k``/``items_p`` are rewritten from the
        front with the rest.  ``ma`` equal to the row's count is the
        heapify step of Alg. 1 (line 20/33); ``ma = count + len(items)``
        folds the whole batch into the row.

        Returns True when the presorted fast path skipped the rewrite.
        """
        ni = int(self.counts[i])
        if ni and ma == ni and items_k.shape[0] and self.keys[i, ni - 1] <= items_k[0]:
            return True  # row already holds the ma smallest; batch unchanged
        self.kernels.sort_split_into(
            self.keys[i, :ni], items_k, ma,
            self.keys[i], items_k, self.scratch,
            pa=self.pay[i, :ni], pb=items_p,
            x_p=self.pay[i], y_p=items_p,
        )
        self.counts[i] = ma
        return False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<NodeArena {self.rows}x{self.k} dtype={self.dtype.name} "
            f"payload={self.payload_width}>"
        )
