"""HeapAuditor.audit_fleet: per-shard checks + router accounting."""

import numpy as np

from repro.core import HeapAuditor
from repro.fleet import ShardedBGPQ


def loaded_fleet(n=3, k=8, **kw):
    kw.setdefault("policy", "hash")
    kw.setdefault("seed", 2)
    fleet = ShardedBGPQ(n_shards=n, node_capacity=k, **kw)
    keys = np.random.default_rng(0).integers(0, 500, 100, dtype=np.int64)
    fleet.insert(keys)
    return fleet, keys


def test_clean_fleet_passes_and_runs_shard_checks():
    fleet, keys = loaded_fleet()
    report = HeapAuditor(fleet).audit()
    assert report.ok, report.problems
    assert "router-accounting" in report.checks_run
    assert "length" in report.checks_run
    # every shard got the full per-heap pass
    for i in range(3):
        assert any(c.startswith(f"shard{i}:structure") for c in report.checks_run)
        assert any(c.startswith(f"shard{i}:arena") for c in report.checks_run)


def test_audit_auto_delegates_for_fleets():
    fleet, _ = loaded_fleet()
    via_audit = HeapAuditor(fleet).audit()
    via_fleet = HeapAuditor(fleet).audit_fleet()
    assert via_audit.checks_run == via_fleet.checks_run


def test_conservation_fleet_global():
    fleet, keys = loaded_fleet()
    out = fleet.delete_min(8)
    report = HeapAuditor(fleet).audit(inserted=[keys], removed=[out])
    assert report.ok, report.problems
    assert "conservation" in report.checks_run


def test_conservation_catches_lost_key():
    fleet, keys = loaded_fleet()
    out = fleet.delete_min(8)
    report = HeapAuditor(fleet).audit(
        inserted=[keys, np.array([12345])], removed=[out]
    )
    assert not report.ok
    assert any("drift" in p or "mismatch" in p for p in report.problems)


def test_router_accounting_drift_detected():
    fleet, _ = loaded_fleet()
    fleet._size += 1  # simulate a routed-execution bookkeeping bug
    report = HeapAuditor(fleet).audit()
    assert not report.ok
    assert any("router size accounting drift" in p for p in report.problems)
    # the length check cross-fires too: len(fleet) vs snapshot
    assert any("snapshot" in p for p in report.problems)


def test_shard_problem_is_prefixed_with_index():
    fleet, _ = loaded_fleet()
    victim = next(i for i, s in enumerate(fleet.shards) if len(s))
    arena = fleet.shards[victim].pq._arena
    # corrupt a retired row beyond the shard's heap: stale keys there
    # resurface when the heap grows back
    arena.counts[arena.rows - 1] = 3
    report = HeapAuditor(fleet).audit()
    assert not report.ok
    assert any(p.startswith(f"shard {victim}:") for p in report.problems)
