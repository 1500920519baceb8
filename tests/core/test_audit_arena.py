"""HeapAuditor's arena-storage pass: dead rows and the row-0 pBuffer."""

import numpy as np
import pytest

from repro.core import BGPQ, HeapAuditor
from repro.core.native import NativeBGPQ


def _native():
    pq = NativeBGPQ(node_capacity=4)
    pq.insert_bulk(np.array([8, 3, 5, 1, 9, 2], dtype=np.int64))
    return pq


def _sim():
    pq = BGPQ(node_capacity=4, max_keys=1 << 10)
    return pq


#: queue -> its NodeArena; row 0 is the partial buffer in both
_QUEUES = {
    "native": (_native, lambda pq: pq._arena),
    "sim": (_sim, lambda pq: pq.store.arena),
}


def test_clean_native_arena_passes():
    pq = _native()
    report = HeapAuditor(pq).audit()
    assert report.ok, report.problems
    assert "arena" in report.checks_run


def test_native_dead_row_with_keys_flagged():
    pq = _native()
    dead = pq._heap_size + 1
    assert dead < pq._arena.rows  # the arena preallocates beyond the heap
    pq._arena.counts[dead] = 2  # stale keys a retired node left behind
    report = HeapAuditor(pq).audit()
    assert any(f"row {dead}" in p and "beyond heap_size" in p
               for p in report.problems), report.problems


@pytest.mark.parametrize("queue", sorted(_QUEUES))
def test_unsorted_pbuffer_flagged(queue):
    make, arena_of = _QUEUES[queue]
    pq = make()
    arena = arena_of(pq)
    arena.counts[0] = 2
    arena.keys[0, :2] = [7, 3]  # descending: violates the sorted-run contract
    report = HeapAuditor(pq).audit()
    assert any("pBuffer unsorted" in p for p in report.problems), \
        report.problems


@pytest.mark.parametrize("queue", sorted(_QUEUES))
def test_overfull_pbuffer_flagged(queue):
    make, arena_of = _QUEUES[queue]
    pq = make()
    arena = arena_of(pq)
    arena.counts[0] = arena.k  # pBuffer must stay strictly under k
    arena.keys[0, :] = np.arange(arena.k)
    report = HeapAuditor(pq).audit()
    assert any("pBuffer holds" in p for p in report.problems), report.problems


def test_sim_clean_arena_passes():
    pq = _sim()
    report = HeapAuditor(pq).audit()
    assert report.ok, report.problems
    assert "arena" in report.checks_run


def test_sim_dead_row_with_keys_flagged():
    pq = _sim()
    dead = pq.store.heap_size + 1
    assert dead < pq.store.arena.rows
    pq.store.arena.counts[dead] = 3
    report = HeapAuditor(pq).audit()
    assert any("beyond heap_size" in p for p in report.problems), \
        report.problems
