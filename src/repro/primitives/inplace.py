"""Fused, allocation-free SORT_SPLIT for arena-backed nodes.

The CUDA BGPQ never allocates on the hot path: every SORT_SPLIT merges
two batch nodes through the block's shared memory and writes the halves
straight back to their global-memory rows (§3.3, §4).  The functions
here reproduce that discipline for the arena storage layout:

* :class:`ScratchLedger` — one preallocated 2k-wide staging area per
  heap (the "shared memory" of a simulated thread block).
* :func:`merge_into` — merge two sorted runs into a caller-supplied
  destination, no temporaries.
* :func:`sort_split_into` — the full SORT_SPLIT: merge through the
  scratch ledger, then copy the Ma smallest keys into one destination
  row and the rest into another.  Destinations may alias the inputs,
  which is what lets heapify rebalance two arena rows in place.

The merge is stable: ties between the two runs resolve in favour of
the first (``a``) run, and payload rows follow their keys.  This is the
reference the compiled kernels in :mod:`repro.primitives.kernels` must
match bit for bit.

Why the key-only path may call ``ndarray.sort``: after copying the two
sorted runs contiguously into the destination, a *stable* sort detects
the two natural runs and performs a single galloping merge — linear
time, with its small constant workspace allocated outside tracemalloc's
view (C malloc), so the steady-state heapify path performs zero traced
array allocations.  The payload path scatters via ``searchsorted``
ranks instead, because a key sort alone cannot carry payload rows.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ScratchLedger", "merge_into", "sort_split_into"]


class ScratchLedger:
    """Preallocated staging buffers for fused SORT_SPLIT operations.

    One ledger serves one heap (operations on it run under the locks of
    the nodes being merged, and the simulator never preempts between
    yields, so a single ledger per queue is race-free).  Sized for the
    worst case: two full k-key nodes.
    """

    __slots__ = ("k", "keys", "pay", "iota")

    def __init__(self, node_capacity: int, dtype=np.int64, payload_width: int = 0,
                 payload_dtype=np.int64):
        if node_capacity < 1:
            raise ValueError("node capacity must be >= 1")
        self.k = node_capacity
        self.keys = np.empty(2 * node_capacity, dtype=dtype)
        self.pay = np.empty((2 * node_capacity, payload_width), dtype=payload_dtype)
        #: reusable 0..2k-1 ramp for turning searchsorted counts into ranks
        self.iota = np.arange(2 * node_capacity, dtype=np.intp)


def merge_into(
    a: np.ndarray,
    b: np.ndarray,
    out_k: np.ndarray,
    pa: np.ndarray | None = None,
    pb: np.ndarray | None = None,
    out_p: np.ndarray | None = None,
    iota: np.ndarray | None = None,
) -> int:
    """Merge sorted runs ``a`` and ``b`` into ``out_k[:len(a)+len(b)]``.

    Contract: ``a`` and ``b`` are sorted 1-D ndarrays (not validated —
    callers own the invariant, as the kernel would); ``out_k`` holds at
    least ``len(a) + len(b)`` elements and must not alias ``a`` or
    ``b``.  Ties resolve in favour of ``a``.  With payload, ``pa``/
    ``pb`` rows follow their keys into ``out_p``.  Returns the merged
    length.
    """
    na, nb = a.shape[0], b.shape[0]
    total = na + nb
    if out_p is None or out_p.shape[1] == 0:
        # Key-only fast path: lay the runs out contiguously and let a
        # stable sort do one linear galloping merge of the two runs.
        # When the runs don't interleave the concatenation already *is*
        # the merge, so two scalar compares skip the sort entirely — a
        # common case in heapify once a subtree is nearly in order.
        # (b-first needs strict <: on a tie, a's keys must come first.)
        if nb == 0:
            out_k[:na] = a
        elif na == 0:
            out_k[:nb] = b
        elif a[na - 1] <= b[0]:
            out_k[:na] = a
            out_k[na:total] = b
        elif b[nb - 1] < a[0]:
            out_k[:nb] = b
            out_k[nb:total] = a
        else:
            out_k[:na] = a
            out_k[na:total] = b
            out_k[:total].sort(kind="stable")
        return total
    if na == 0:
        out_k[:nb] = b
        out_p[:nb] = pb
        return total
    if nb == 0:
        out_k[:na] = a
        out_p[:na] = pa
        return total
    if a[na - 1] <= b[0]:
        out_k[:na] = a
        out_k[na:total] = b
        out_p[:na] = pa
        out_p[na:total] = pb
        return total
    if b[nb - 1] < a[0]:
        out_k[:nb] = b
        out_k[nb:total] = a
        out_p[:nb] = pb
        out_p[nb:total] = pa
        return total
    if iota is None:
        iota = np.arange(max(na, nb), dtype=np.intp)
    # Merge-path ranks, stable with ties to a: a[i] lands at
    # i + |{b strictly before it}|, b[j] at j + |{a at or before it}|.
    pos_a = np.searchsorted(b, a, side="left")
    pos_a += iota[:na]
    pos_b = np.searchsorted(a, b, side="right")
    pos_b += iota[:nb]
    out_k[pos_a] = a
    out_k[pos_b] = b
    out_p[pos_a] = pa
    out_p[pos_b] = pb
    return total


def sort_split_into(
    a: np.ndarray,
    b: np.ndarray,
    ma: int,
    x_k: np.ndarray,
    y_k: np.ndarray,
    scratch: ScratchLedger,
    pa: np.ndarray | None = None,
    pb: np.ndarray | None = None,
    x_p: np.ndarray | None = None,
    y_p: np.ndarray | None = None,
) -> tuple[int, int]:
    """Fused SORT_SPLIT: the ``ma`` smallest keys of ``a`` ∪ ``b`` land
    in ``x_k[:ma]``, the remaining ``mb`` in ``y_k[:mb]``.

    The merge stages through ``scratch`` so the destinations may alias
    the inputs — the arena heapify rebalances two node rows in place
    with ``x_k``/``y_k`` pointing back at the rows ``a``/``b`` view.
    Inputs follow the :func:`merge_into` contract (sorted, unvalidated).
    Payload rows move when both source (``pa``/``pb``) and destination
    (``x_p``/``y_p``) rows are supplied and the payload is non-empty.
    Returns ``(ma, mb)``.
    """
    total = a.shape[0] + b.shape[0]
    if not 0 <= ma <= total:
        raise ValueError(f"split point {ma} outside [0, {total}]")
    if total > scratch.keys.shape[0]:
        raise ValueError(
            f"{total} keys exceed scratch capacity {scratch.keys.shape[0]}"
        )
    mb = total - ma
    with_pay = x_p is not None and scratch.pay.shape[1] > 0
    merge_into(
        a, b, scratch.keys,
        pa if with_pay else None,
        pb if with_pay else None,
        scratch.pay if with_pay else None,
        iota=scratch.iota,
    )
    x_k[:ma] = scratch.keys[:ma]
    y_k[:mb] = scratch.keys[ma:total]
    if with_pay:
        x_p[:ma] = scratch.pay[:ma]
        y_p[:mb] = scratch.pay[ma:total]
    return ma, mb
