"""Router placement and probe-set policies."""

import random

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.fleet.router import (
    LOAD_AWARE_POLICIES,
    POLICIES,
    Router,
    _hash_shards,
)


def test_hash_placement_partitions_batch():
    r = Router(4, policy="hash")
    keys = np.arange(1000, dtype=np.int64)
    parts = r.place(keys)
    assert 1 < len(parts) <= 4
    back = np.sort(np.concatenate([sub for _, sub in parts]))
    assert np.array_equal(back, keys)
    for shard, sub in parts:
        assert 0 <= shard < 4
        assert sub.size > 0  # empty shards are omitted


def test_hash_placement_is_deterministic_across_routers():
    keys = np.random.default_rng(0).integers(0, 1 << 40, 500, dtype=np.int64)
    a = _hash_shards(keys, 8)
    b = _hash_shards(keys, 8)
    assert np.array_equal(a, b)
    # roughly uniform: no shard starves on random keys
    counts = np.bincount(a, minlength=8)
    assert counts.min() > 0


def test_hash_handles_negative_keys():
    keys = np.array([-5, -1, 0, 3, -(1 << 50)], dtype=np.int64)
    shards = _hash_shards(keys, 4)
    assert ((shards >= 0) & (shards < 4)).all()


def test_spray_placement_keeps_batch_whole():
    r = Router(8, policy="spray", seed=7)
    keys = np.arange(100, dtype=np.int64)
    for _ in range(20):
        parts = r.place(keys)
        assert len(parts) == 1
        shard, sub = parts[0]
        assert 0 <= shard < 8
        assert sub is keys


def test_spray_is_seed_deterministic():
    keys = np.arange(10, dtype=np.int64)
    seq = [Router(8, policy="spray", seed=3).place(keys)[0][0] for _ in range(3)]
    assert seq[0] == seq[1] == seq[2]


def test_single_shard_short_circuits():
    r = Router(1, policy="hash")
    keys = np.arange(5, dtype=np.int64)
    assert r.place(keys) == [(0, keys)]
    assert r.probe_set() == (0,)


def test_empty_batch_places_nowhere():
    assert Router(4).place(np.empty(0, dtype=np.int64)) == []


def test_probe_set_distinct_and_clamped():
    r = Router(4, spray_width=2, seed=1)
    for _ in range(50):
        probe = r.probe_set()
        assert len(probe) == 2
        assert len(set(probe)) == 2
    wide = Router(3, spray_width=16)
    assert wide.spray_width == 3
    assert wide.probe_set() == (0, 1, 2)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        Router(0)
    with pytest.raises(ConfigurationError):
        Router(4, policy="round-robin")
    with pytest.raises(ConfigurationError):
        Router(4, spray_width=0)
    assert POLICIES == ("hash", "spray", "shortest", "d-choice")
    assert LOAD_AWARE_POLICIES == ("shortest", "d-choice")


def test_shortest_picks_least_loaded_deterministically():
    r = Router(4, policy="shortest")
    keys = np.arange(10, dtype=np.int64)
    loads = [(5.0, 2), (1.0, 9), (1.0, 3), (7.0, 0)]
    # lexical (clock, backlog): shard 2 beats shard 1 on backlog
    assert r.place(keys, loads=loads) == [(2, keys)]
    assert r.last_candidates == (0, 1, 2, 3)
    # exact ties break to the lowest index
    flat = [(0.0, 0)] * 4
    assert r.place(keys, loads=flat) == [(0, keys)]


def test_load_aware_policies_require_loads():
    keys = np.arange(4, dtype=np.int64)
    for pol in LOAD_AWARE_POLICIES:
        with pytest.raises(ConfigurationError):
            Router(4, policy=pol).place(keys)


def test_d_choice_samples_width_candidates_and_picks_min():
    r = Router(8, policy="d-choice", spray_width=3, seed=2)
    keys = np.arange(10, dtype=np.int64)
    loads = [(float(i), 0) for i in range(8)]  # shard 0 globally best
    for _ in range(30):
        [(shard, _sub)] = r.place(keys, loads=loads)
        cands = r.last_candidates
        assert len(cands) == 3 and len(set(cands)) == 3
        # picked the least-loaded of the sampled candidates
        assert shard == min(cands)


def test_sample_replays_random_sample_draw_for_draw():
    # covers the replayed pool path (n <= 21, d <= 5) and the fallback
    for n in range(1, 25):
        for d in range(n + 1):
            for seed in range(50):
                r = Router(n, seed=0)
                r._rng = random.Random(seed)
                ref = random.Random(seed)
                assert r._sample(n, d) == ref.sample(range(n), d)
                # the stream continues identically after the draw
                assert r._rng.random() == ref.random()


def test_d_choice_ties_break_to_lowest_index():
    r = Router(8, policy="d-choice", spray_width=4, seed=5)
    keys = np.arange(4, dtype=np.int64)
    flat = [(2.0, 7)] * 8
    unsorted = 0
    for _ in range(30):
        [(shard, _sub)] = r.place(keys, loads=flat)
        cands = r.last_candidates
        unsorted += list(cands) != sorted(cands)
        assert shard == min(cands)
    assert unsorted  # sampled order is not index order


def test_resize_reclamps_spray_width_and_keeps_rng():
    r = Router(8, policy="spray", spray_width=4, seed=9)
    r.resize(2)
    assert r.n_shards == 2 and r.spray_width == 2
    r.resize(8)
    assert r.spray_width == 4  # requested width restored after regrow
    keys = np.arange(3, dtype=np.int64)
    assert all(0 <= r.place(keys)[0][0] < 8 for _ in range(10))
    with pytest.raises(ConfigurationError):
        r.resize(0)
