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

The layout's rules (§3.1) are stated once, by :func:`layout_problems`
over the rows :meth:`NodeArena.live_rows` reads; both queues' invariant
checks and ``NativeBGPQ.restore_rows`` apply it.

The in-place row SORT_SPLIT lives here too: :meth:`NodeArena.split_rows`
rebalances two rows and :meth:`NodeArena.split_row_items` a row against
a travelling batch, both staged through the arena's own
:class:`~repro.primitives.inplace.ScratchLedger` (the block's shared
memory) and run by the reference
:func:`~repro.primitives.inplace.sort_split_into`.
"""

from __future__ import annotations

import numpy as np

from ..primitives.inplace import ScratchLedger, sort_split_into
from .node import EMPTY

__all__ = ["NodeArena", "growth_target", "layout_problems"]

#: largest keys + payload an 8x growth step may reserve; past it the
#: arena doubles, so a huge heap does not ask for 8x its size at once
GROW_8X_MAX_BYTES = 64 << 20


def growth_target(rows: int, need: int, row_bytes: int) -> int:
    """Row count an arena of ``rows`` rows grows to so that row ``need``
    exists: ``rows`` times 8 per step until it exceeds ``need``, or
    times 2 for a step that would take the rows' keys + payload
    (``row_bytes`` each) past :data:`GROW_8X_MAX_BYTES`.

    Reserving ahead is cheap: rows no operation touches are never
    faulted in, so they cost address space, not resident memory, and
    fewer steps copy fewer rows.
    """
    while rows <= need:
        rows *= 8 if 8 * rows * row_bytes <= GROW_8X_MAX_BYTES else 2
    return rows


def layout_problems(counts: np.ndarray, keys: np.ndarray, k: int) -> list[str]:
    """Every way rows ``0..heap_size`` break the batched-heap layout.

    ``counts`` holds the live size of each row (row 0 the partial
    buffer, row ``i`` node ``i``, so ``heap_size = counts.size - 1``)
    and ``keys`` their live keys, flat and row after row: the shape
    :meth:`NodeArena.live_rows` returns.  Counts must be >= 0 and sum to
    ``keys.size``.  The rules, which every op sequence keeps:

    * every node holds at most k keys, every non-root node exactly k,
      and the buffer fewer than k;
    * every row is sorted, and a node's min is >= its parent's max;
    * the buffer's min is >= the root's max;
    * an empty heap has an empty buffer, and a non-empty heap a
      non-empty root.

    An empty list means the rows hold a reachable layout.
    """
    heap_size = counts.size - 1
    nbuf = int(counts[0])
    problems = [f"node {i} over capacity ({counts[i]}/{k})"
                for i in (np.flatnonzero(counts[1:] > k) + 1).tolist()]
    if nbuf >= k:
        problems.append(f"pBuffer holds {nbuf} >= k={k} keys")
    if (counts > k).any():
        return problems  # a row past k leaves no row boundary to trust
    problems += [f"interior node {i} not full ({counts[i]}/{k})"
                 for i in (np.flatnonzero(counts[2:] != k) + 2).tolist()]
    if heap_size == 0 and nbuf:
        problems.append(f"pBuffer holds {nbuf} keys in an empty heap")
    if heap_size and not counts[1]:
        problems.append(f"root empty at heap_size={heap_size}")

    ends = np.cumsum(counts)
    starts = ends - counts
    # one descent mask over the flat keys; a descent across a row
    # boundary is no violation
    down = keys[:-1] > keys[1:]
    down[ends[(ends > 0) & (ends < keys.size)] - 1] = False
    for r in np.unique(np.searchsorted(ends, np.flatnonzero(down), "right")).tolist():
        problems.append(f"node {r} unsorted" if r else "pBuffer unsorted")

    child = np.arange(2, heap_size + 1)
    child = child[(counts[child] > 0) & (counts[child >> 1] > 0)]
    bad = keys[starts[child]] < keys[ends[child >> 1] - 1]
    problems += [f"node {i} min < parent {i >> 1} max" for i in child[bad].tolist()]
    if heap_size and nbuf and counts[1] and keys[0] < keys[ends[1] - 1]:
        problems.append("pBuffer min < root max")
    return problems


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
    """

    __slots__ = ("rows", "k", "dtype", "payload_width", "payload_dtype",
                 "keys", "pay", "counts", "states", "scratch")

    def __init__(self, rows: int, node_capacity: int, dtype=np.int64,
                 payload_width: int = 0, payload_dtype=np.int64):
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

    def nbytes(self) -> int:
        """Total backing storage, for memory accounting."""
        return (
            self.keys.nbytes + self.pay.nbytes
            + self.counts.nbytes + self.states.nbytes
            + self.scratch.keys.nbytes + self.scratch.pay.nbytes
        )

    def live_rows(self, heap_size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(counts, keys, pay)`` of rows ``0..heap_size``: a copy of
        their counts and their live records, flat and row after row,
        gathered with one mask — the rows a snapshot exports and
        :func:`layout_problems` checks."""
        rows = heap_size + 1
        counts = self.counts[:rows].copy()
        live = np.arange(self.k) < counts[:, None]
        keys = self.keys[:rows][live]
        if self.payload_width:
            pay = self.pay[:rows][live]
        else:  # the same (n, 0) array without a masked gather over no columns
            pay = np.empty((keys.size, 0), self.pay.dtype)
        return counts, keys, pay

    def grown(self, rows: int) -> "NodeArena":
        """A copy of this arena with at least ``rows`` rows.

        Row contents (keys, payload columns, counts, states) and the
        scratch ledger carry over unchanged; new rows start EMPTY.
        Growth reallocates — callers that need an allocation-free
        steady state size the arena up front (or, like
        :class:`~repro.core.native.NativeBGPQ`, grow 8x per step, see
        :func:`growth_target`, so reallocation amortises away before
        measurement).
        """
        if rows <= self.rows:
            return self
        new = NodeArena(
            rows,
            self.k,
            dtype=self.dtype,
            payload_width=self.payload_width,
            payload_dtype=self.payload_dtype,
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
        ``i``'s keys first and payload rows follow their keys, as in
        :func:`~repro.primitives.merge_into`.  Callers hold both rows'
        locks.

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
        sort_split_into(
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
        sort_split_into(
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
