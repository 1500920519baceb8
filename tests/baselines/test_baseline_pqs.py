"""Correctness tests for every comparator priority queue.

All exact designs must return globally minimal keys in phase runs and
conserve keys under mixed concurrency; the relaxed SprayList gets the
conservation checks plus a looseness bound instead of exactness.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.baselines import (
    CBPQ,
    HuntHeapPQ,
    LJSkipListPQ,
    PSyncHeapPQ,
    SprayListPQ,
    TbbHeapPQ,
)
from repro.core import BGPQ
from repro.sim import Engine

from .conftest import run_mixed, run_phases

EXACT_PQS = [
    pytest.param(lambda: TbbHeapPQ(), id="tbb"),
    pytest.param(lambda: HuntHeapPQ(), id="hunt"),
    pytest.param(lambda: CBPQ(chunk_capacity=16), id="cbpq"),
    pytest.param(lambda: LJSkipListPQ(cleanup_batch=8), id="ljsl"),
    pytest.param(lambda: PSyncHeapPQ(node_capacity=8), id="psync"),
]

ALL_PQS = EXACT_PQS + [pytest.param(lambda: SprayListPQ(n_threads=4), id="spray")]


@pytest.mark.parametrize("make", ALL_PQS)
def test_roundtrip_conserves_keys(make):
    pq = make()
    keys = np.random.default_rng(0).integers(0, 1 << 20, size=256)
    out = run_phases(pq, keys, n_threads=4, seed=0)
    assert np.array_equal(np.sort(out), np.sort(keys))
    assert len(pq) == 0


@pytest.mark.parametrize("make", EXACT_PQS)
def test_single_thread_exact_order(make):
    pq = make()
    keys = np.random.default_rng(1).permutation(64)
    eng = Engine()
    got = []

    def t():
        for i in range(0, keys.size, 8):  # P-Sync's fixed batch is 8 here
            yield from pq.insert_op(keys[i : i + 8])
        while True:
            g = yield from pq.deletemin_op(4)
            if g.size == 0:
                return
            got.append(g)

    eng.spawn(t())
    eng.run()
    assert np.array_equal(np.concatenate(got), np.arange(64))


@pytest.mark.parametrize("make", ALL_PQS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mixed_concurrency_conservation(make, seed):
    pq = make()
    ins, dels = run_mixed(pq, n_threads=4, ops=15, seed=seed)
    rest = pq.snapshot_keys()
    assert np.array_equal(np.sort(ins), np.sort(np.concatenate([dels, rest])))


@pytest.mark.parametrize("make", EXACT_PQS)
def test_empty_deletemin_returns_nothing(make):
    pq = make()
    eng = Engine()
    res = []

    def t():
        got = yield from pq.deletemin_op(4)
        res.append(got)

    eng.spawn(t())
    eng.run()
    assert res[0].size == 0


@pytest.mark.parametrize("make", ALL_PQS)
def test_deletemin_count_validation(make):
    pq = make()
    with pytest.raises(ValueError):
        list(pq.deletemin_op(0))


def test_spraylist_is_near_minimal_not_exact():
    """Spray deletes must come from near the head (relaxed guarantee)."""
    pq = SprayListPQ(n_threads=8, seed=3)
    keys = np.arange(2000)
    eng = Engine(seed=1)

    def filler():
        for i in range(0, 2000, 8):
            yield from pq.insert_op(keys[i : i + 8])

    eng.spawn(filler())
    eng.run()

    eng2 = Engine(seed=2)
    got = []

    def d():
        g = yield from pq.deletemin_op(8)
        got.append(g)

    for _ in range(4):
        eng2.spawn(d())
    eng2.run()
    taken = np.concatenate(got)
    assert taken.size == 32
    # relaxed: all from the first O(p log^3 p) region, not necessarily 0..31
    assert taken.max() < 1500
    assert len(pq) == 2000 - 32


def test_spraylist_collisions_counted_on_small_queue():
    pq = SprayListPQ(n_threads=8, seed=0)
    eng = Engine(seed=0)

    def w(i):
        yield from pq.insert_op(np.array([i]))
        got = yield from pq.deletemin_op(1)
        assert got.size == 1

    for i in range(8):
        eng.spawn(w(i))
    eng.run()
    # near-empty queue => sprays collide (paper §6.4's observation)
    assert pq.stats["sprays"] >= 8


_SPRAY_CHILD = """
import numpy as np
from repro.baselines import SprayListPQ
from repro.sim import Engine

pq = SprayListPQ(n_threads=16, seed=0)
rng = np.random.default_rng(5)
eng = Engine(seed=0)

def worker(tid):
    for _ in range(6):
        yield from pq.insert_op(rng.integers(0, 1 << 20, size=32))
        yield from pq.deletemin_op(16)

for tid in range(16):
    eng.spawn(worker(tid))
eng.run()
print(repr(eng.now), pq.stats["collisions"])
"""


def test_spraylist_makespan_replays_across_interpreters():
    """A seeded, contended SprayList run gives the same simulated time in
    two fresh interpreters: the stripe lock a spray takes must not
    depend on where the heap placed the node."""
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    runs = [
        subprocess.run(
            [sys.executable, "-c", _SPRAY_CHILD],
            capture_output=True, text=True, timeout=120, env=env, check=True,
        ).stdout
        for _ in range(2)
    ]
    assert runs[0] == runs[1], runs
    assert int(runs[0].split()[1]) > 0  # the sprays really contended


def test_ljsl_batches_physical_deletes():
    pq = LJSkipListPQ(cleanup_batch=16)
    keys = np.arange(200)
    run_phases(pq, keys, n_threads=2, seed=0)
    assert pq.stats["cleanups"] >= 1
    # far fewer cleanups than deletes: that's the batching
    assert pq.stats["cleanups"] <= pq.stats["marks"] / 8


def test_cbpq_splits_and_rebuilds():
    pq = CBPQ(chunk_capacity=8)
    keys = np.random.default_rng(2).permutation(512)
    out = run_phases(pq, keys, n_threads=4, seed=0)
    assert np.array_equal(np.sort(out), np.arange(512))
    assert pq.stats["rebuilds"] >= 1


def test_cbpq_chunk_pool_capacity():
    from repro.errors import CapacityError, SimThreadError

    pq = CBPQ(chunk_capacity=4, max_chunks=2)
    eng = Engine()

    def t():
        yield from pq.insert_op(np.arange(64))

    eng.spawn(t())
    with pytest.raises((CapacityError, SimThreadError)):
        eng.run()


def test_hunt_bit_reverse():
    from repro.baselines.hunt import bit_reverse

    assert bit_reverse(0b001, 3) == 0b100
    assert bit_reverse(0b110, 3) == 0b011
    assert bit_reverse(0b1, 1) == 0b1


def test_psync_serializes_operations():
    """P-Sync ops queue on the pipeline lock: makespan is the sum of
    per-op costs, regardless of thread count."""
    pq = PSyncHeapPQ(node_capacity=8)
    keys = np.arange(128)
    eng = Engine(seed=0)

    def w(i):
        yield from pq.insert_op(keys[i * 32 : (i + 1) * 32][:8])

    for i in range(4):
        eng.spawn(w(i))
    eng.run()
    assert pq.pipeline_lock.contended_acquisitions >= 1


def test_features_match_paper_table1():
    """Spot-check the Table 1 feature matrix."""
    assert BGPQ.features().data_parallelism
    assert BGPQ.features().thread_collaboration
    assert BGPQ.features().linearizable
    assert not TbbHeapPQ.features().data_parallelism
    assert PSyncHeapPQ.features().data_parallelism
    assert not PSyncHeapPQ.features().thread_collaboration
    assert CBPQ.features().thread_collaboration
    assert not SprayListPQ.features().exact_deletemin
    assert LJSkipListPQ.features().data_structure == "Skip list"
