"""ShardedBGPQ: routed execution, relaxed deletes, steals, accounting."""

import numpy as np
import pytest

import repro.fleet
from repro.core.native import NativeBGPQ
from repro.fleet import ShardedBGPQ
from repro.obs.events import (
    SHARD_OP_BEGIN,
    SHARD_OP_END,
    SHARD_PROBE,
    SHARD_STEAL,
    EventBus,
)


def fleet(n=4, k=16, **kw):
    kw.setdefault("seed", 5)
    return ShardedBGPQ(n_shards=n, node_capacity=k, **kw)


def test_insert_then_drain_exact_multiset():
    f = fleet()
    rng = np.random.default_rng(0)
    keys = rng.integers(0, 1000, 200, dtype=np.int64)
    f.insert(keys)
    assert len(f) == 200
    out = []
    while f:
        out.append(f.delete_min(16))
    merged = np.concatenate(out)
    assert np.array_equal(np.sort(merged), np.sort(keys))
    assert len(f) == 0


def test_delete_min_returns_sorted_merged_keys():
    f = fleet()
    f.insert(np.arange(100, dtype=np.int64))
    got = f.delete_min(16)
    assert np.array_equal(got, np.sort(got))
    assert got.size == 16


def test_steal_tops_up_across_shards():
    # hash placement spreads 40 keys over 4 shards (~10 each); a
    # delete of 16 must steal from other shards to fill the batch
    f = fleet(n=4, k=16, policy="hash")
    f.insert(np.arange(40, dtype=np.int64))
    ticket = f.exec_deletemin(16)
    assert ticket.keys.size == 16
    assert ticket.stole  # at least one victim
    assert f.stats["steals"] >= 1
    assert len(f) == 24


def test_delete_on_empty_fleet_returns_empty():
    f = fleet()
    got = f.delete_min(4)
    assert got.size == 0
    assert len(f) == 0


def test_delete_count_validation():
    f = fleet(k=8)
    with pytest.raises(ValueError):
        f.delete_min(0)
    with pytest.raises(ValueError):
        f.delete_min(9)


def test_unknown_backend_rejected():
    # every shard is a NativeBGPQ: there is no backend to choose
    with pytest.raises(TypeError, match="backend"):
        fleet(backend="native")
    with pytest.raises(TypeError, match="max_keys"):
        fleet(max_keys=1 << 16)
    assert not hasattr(repro.fleet, "BACKENDS")


def test_single_shard_is_exact():
    f = fleet(n=1)
    keys = np.random.default_rng(1).integers(0, 500, 64, dtype=np.int64)
    f.insert(keys)
    first = f.delete_min(16)
    assert np.array_equal(first, np.sort(keys)[:16])


def test_router_size_accounting_tracks_shards():
    f = fleet()
    f.insert(np.arange(50, dtype=np.int64))
    assert len(f) == sum(f.shard_sizes()) == 50
    f.delete_min(10)
    assert len(f) == sum(f.shard_sizes()) == 40


def test_clocks_advance_only_on_touched_shards():
    f = fleet(n=4, policy="spray")
    before = list(f.clocks)
    assert before == [0.0] * 4
    tickets = f.insert(np.arange(16, dtype=np.int64))
    touched = {t.shard for t in tickets}
    for i, c in enumerate(f.clocks):
        assert (c > 0) == (i in touched)
    assert f.makespan_ns == max(f.clocks)


def test_peek_sees_global_min_per_shard():
    f = fleet(n=2, policy="hash")
    f.insert(np.arange(100, dtype=np.int64))
    mins = [s.peek() for s in f.shards]
    assert min(m for m in mins if m is not None) == 0
    empty = fleet(n=2)
    assert all(s.peek() is None for s in empty.shards)


def test_imbalance_gauge():
    f = fleet(n=4, policy="spray", seed=0)
    assert f.imbalance() == 1.0  # empty fleet reads balanced
    f.exec_insert(0, np.arange(30, dtype=np.int64))
    assert f.imbalance() == pytest.approx(4.0)  # all keys on one shard


def test_obs_events_emitted():
    bus = EventBus()
    f = fleet(n=2, policy="hash", obs=bus)
    f.insert(np.arange(64, dtype=np.int64))
    f.delete_min(16)
    types = [e.etype for e in bus]
    assert SHARD_OP_BEGIN in types and SHARD_OP_END in types
    assert SHARD_PROBE in types
    probe = next(e for e in bus if e.etype == SHARD_PROBE)
    assert probe.get("primary") in (0, 1)
    begin = next(e for e in bus if e.etype == SHARD_OP_BEGIN)
    assert begin.thread.startswith("shard")


def test_obs_steal_event():
    bus = EventBus()
    f = fleet(n=4, k=16, policy="hash", obs=bus)
    f.insert(np.arange(40, dtype=np.int64))
    f.delete_min(16)
    steals = [e for e in bus if e.etype == SHARD_STEAL]
    assert steals
    assert all(e.get("got", 0) > 0 for e in steals)


def test_check_invariants_prefixes_shard_index():
    f = fleet(n=2)
    f.insert(np.arange(64, dtype=np.int64))
    assert f.check_invariants() == []
    # corrupt one shard's arena ordering to prove problems are attributed
    shard = next(s for s in f.shards if len(s) > 0)
    arena = shard.pq._arena
    row = 1 if arena.counts[1] >= 2 else 0
    arena.keys[row, 0], arena.keys[row, 1] = (
        arena.keys[row, 1].item() + 1,
        arena.keys[row, 0].item(),
    )
    problems = f.check_invariants()
    assert problems
    assert all(p.startswith("shard ") for p in problems)


#: the single-queue engine a drained fleet is checked against
ENGINES = {"native": NativeBGPQ}


@pytest.mark.parametrize("backend", sorted(ENGINES))
def test_backends_agree_on_drained_multiset(backend):
    f = fleet(n=3, k=8, policy="hash")
    single = ENGINES[backend](node_capacity=8)
    keys = np.random.default_rng(2).integers(-100, 100, 70, dtype=np.int64)
    f.insert(keys)
    single.insert(keys)
    out = []
    while f:
        out.append(f.delete_min(8))
    ref = []
    while len(single):
        ref.append(single.deletemin(8)[0])
    # relaxed deletes reorder across shards; the single queue does not
    assert np.array_equal(np.sort(np.concatenate(out)), np.concatenate(ref))
    assert np.array_equal(np.concatenate(ref), np.sort(keys))
