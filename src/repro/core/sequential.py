"""Sequential reference priority queue — the differential-testing oracle.

A straightforward sorted-multiset priority queue with the same batch
API as BGPQ.  Every concurrent implementation in the study is tested
against this oracle: drive both with the same operation sequence (or a
linearization of a concurrent history) and their outputs must match.
"""

from __future__ import annotations

import heapq
from typing import Iterable

import numpy as np

__all__ = ["SequentialPQ"]


class SequentialPQ:
    """Binary-heap priority queue with batched insert/deletemin."""

    def __init__(self, dtype=np.int64):
        self._heap: list = []
        self.dtype = np.dtype(dtype)

    def insert(self, keys: Iterable) -> None:
        for key in np.asarray(list(keys) if not isinstance(keys, np.ndarray) else keys).tolist():
            heapq.heappush(self._heap, key)

    def deletemin(self, count: int) -> np.ndarray:
        """Remove and return up to ``count`` smallest keys, ascending."""
        if count < 0:
            raise ValueError("count must be non-negative")
        n = min(count, len(self._heap))
        out = [heapq.heappop(self._heap) for _ in range(n)]
        return np.array(out, dtype=self.dtype)

    def snapshot_keys(self) -> np.ndarray:
        return np.array(sorted(self._heap), dtype=self.dtype)

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
