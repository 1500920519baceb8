"""Golden fleet runs: histories, makespans, stats and sizes pinned.

The driver's history is what the k-relaxed checker, the auditor and
every fleet bench consume, so changes to how it is built (or to the
shard-routing hot path) must leave it byte-identical.  Each case below
is a fixed-seed run whose ``sha256(repr(history))``, ``makespan_ns``,
``stats`` and ``shard_sizes`` were recorded from the driver that built
records one NumPy scalar at a time.
"""

import hashlib

import numpy as np
import pytest

from repro.fleet import KeyBatch, ShardedBGPQ, mixed_scripts, run_fleet
from repro.fleet.elastic import ElasticController


def _d_choice_skewed():
    fleet = ShardedBGPQ(n_shards=4, node_capacity=512, policy="d-choice", seed=3)
    return run_fleet(fleet, mixed_scripts(6, 7, 512, seed=11, skew=1.1)), None


def _hash():
    fleet = ShardedBGPQ(n_shards=4, node_capacity=16, policy="hash", seed=9)
    return run_fleet(fleet, mixed_scripts(8, 9, 16, seed=4)), None


def _shortest_skewed():
    fleet = ShardedBGPQ(n_shards=4, node_capacity=16, policy="shortest", seed=5)
    return run_fleet(fleet, mixed_scripts(8, 9, 16, seed=6, skew=1.1)), None


def _spray_think():
    fleet = ShardedBGPQ(n_shards=3, node_capacity=16, policy="spray", seed=7)
    return run_fleet(fleet, mixed_scripts(7, 10, 16, seed=8), think_ns=50.0), None


def _elastic_grow_shrink():
    fleet = ShardedBGPQ(n_shards=2, node_capacity=16, policy="d-choice", seed=9)
    ctl = ElasticController(min_shards=1, max_shards=4, grow_above=32,
                            shrink_below=8, cooldown=1)
    # every session inserts its five batches first, then drains five:
    # occupancy climbs past the grow mark and falls below the shrink mark
    scripts = [sorted(s, key=lambda op: op[0] != "insert")
               for s in mixed_scripts(8, 10, 16, seed=10)]
    res = run_fleet(fleet, scripts, imbalance_every=4, elastic=ctl)
    return res, [t.action for t in ctl.actions]


_STATS = dict.fromkeys(
    ("inserts", "deletes", "probes", "empty_probes", "steals", "grows",
     "shrinks", "rebalances", "migrated"), 0)

GOLDEN = {
    "d-choice-skew": (
        _d_choice_skewed,
        "96a4d2cef022e20d4ed9567f0894cf06f397a132eacd072c82f37956e0f4caaf",
        71535.90722183016,
        {**_STATS, "inserts": 24, "deletes": 18, "probes": 36, "steals": 8},
        [1024, 512, 512, 1024],
        None,
    ),
    "hash": (
        _hash,
        "b10ca41031771217129e0457bd6fe0586cc6cc79c7f072d49e4f0f3415926d3f",
        132921.65297577038,
        {**_STATS, "inserts": 159, "deletes": 32, "probes": 64, "steals": 10},
        [41, 43, 13, 31],
        None,
    ),
    "shortest-skew": (
        _shortest_skewed,
        "b392a4369f3b2b3e07921d5ce4a75a5a9065a58fedd50c3fadeabc79876f87b0",
        68650.80362267702,
        {**_STATS, "inserts": 40, "deletes": 32, "probes": 64, "steals": 10},
        [64, 16, 48, 0],
        None,
    ),
    "spray-think": (
        _spray_think,
        "14ce5391fe3cdc7793feb6ef23d8efe89cbbe577b2afde4fb1bf0fcfb908eef2",
        95324.42333568567,
        {**_STATS, "inserts": 35, "deletes": 35, "probes": 70,
         "empty_probes": 2, "steals": 8},
        [0, 0, 0],
        None,
    ),
    "elastic": (
        _elastic_grow_shrink,
        "909c3ea79cfc614a5069752f0adef1310fc04221c13efdd0dacc779eda30b21e",
        153333.24460127024,
        {**_STATS, "inserts": 40, "deletes": 40, "probes": 80, "steals": 5,
         "grows": 2, "shrinks": 1, "rebalances": 7, "migrated": 112},
        [0, 0, 0],
        ["grow", "grow"] + ["rebalance"] * 7 + ["shrink"],
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_fleet_run_matches_golden(case):
    run, digest, makespan, stats, sizes, actions = GOLDEN[case]
    res, taken = run()
    assert hashlib.sha256(repr(res.history).encode()).hexdigest() == digest
    assert res.makespan_ns == makespan
    assert res.stats == stats
    assert res.shard_sizes == sizes
    assert taken == actions


def test_history_key_batches_read_like_tuples():
    """Key batches are read-only int64 arrays that act as tuples of ``int``."""
    fleet = ShardedBGPQ(n_shards=4, node_capacity=512, policy="d-choice", seed=3)
    scripts = mixed_scripts(6, 7, 512, seed=11, skew=1.1)
    res = run_fleet(fleet, scripts)
    batches = [r.args for r in res.history if r.kind == "insert"]
    batches += [r.result for r in res.history if r.kind == "deletemin"]
    assert batches and all(isinstance(b, KeyBatch) for b in batches)
    for b in batches:
        assert all(type(x) is int for x in b)
        assert type(b[0]) is int and b[-1] == tuple(b)[-1]
        arr = np.asarray(b)
        assert arr.dtype == np.int64 and np.asarray(b, dtype=np.int64) is arr
        with pytest.raises(ValueError):
            arr[0] = 0
        assert b == tuple(b) and tuple(b) == b
        assert repr(b) == repr(tuple(b))
        twin = KeyBatch(arr.copy())
        assert twin == b and hash(twin) == hash(b) == hash(tuple(b))
    # the insert sub-batches viewed the scripts' arrays: the history
    # owns copies, so overwriting the scripts leaves it as recorded
    for script in scripts:
        for kind, arg in script:
            if kind == "insert":
                arg[:] = -1
    digest = GOLDEN["d-choice-skew"][1]
    assert hashlib.sha256(repr(res.history).encode()).hexdigest() == digest
