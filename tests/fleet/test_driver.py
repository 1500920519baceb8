"""The async session driver: scheduling, history, and observability."""

import gc
import hashlib
import weakref
from collections import Counter

import numpy as np
import pytest

from repro.core import HeapAuditor, check_k_relaxed
from repro.errors import ConfigurationError
from repro.fleet import ShardedBGPQ, mixed_scripts, run_fleet
from repro.obs.events import (
    LOCK_CONTEND,
    LOCK_GRANT,
    OP_BEGIN,
    OP_END,
    SHARD_IMBALANCE,
    THREAD_FINISH,
    THREAD_START,
    EventBus,
)


def drive(n_shards=4, sessions=6, requests=8, k=16, obs=None, **kw):
    kw.setdefault("policy", "hash")
    kw.setdefault("seed", 9)
    fleet = ShardedBGPQ(n_shards=n_shards, node_capacity=k, obs=obs, **kw)
    scripts = mixed_scripts(sessions, requests, k, seed=4)
    return fleet, run_fleet(fleet, scripts)


def test_mixed_scripts_shape_and_determinism():
    a = mixed_scripts(3, 4, 8, seed=2)
    b = mixed_scripts(3, 4, 8, seed=2)
    assert len(a) == 3 and all(len(s) == 4 for s in a)
    assert a[0][0][0] == "insert" and a[0][1][0] == "deletemin"
    for sa, sb in zip(a, b):
        for (ka, va), (kb, vb) in zip(sa, sb):
            assert ka == kb
            if ka == "insert":
                assert np.array_equal(va, vb)


def test_history_is_execution_ordered_and_conserves_keys():
    fleet, res = drive()
    starts = [r.start for r in res.history]
    assert starts == sorted(starts)  # service order == linearization order
    assert res.keys_in - res.keys_out == len(fleet)
    assert res.requests == 6 * 8
    report = check_k_relaxed(res.history)
    assert not report.problems


def test_driver_fleet_passes_full_audit():
    fleet, res = drive()
    inserted = [np.asarray(r.args) for r in res.history if r.kind == "insert"]
    removed = [np.asarray(r.result) for r in res.history if r.kind == "deletemin"]
    report = HeapAuditor(fleet).audit(inserted=inserted, removed=removed)
    assert report.ok, report.problems
    assert "router-accounting" in report.checks_run


def test_makespan_shrinks_with_shards():
    makespans = {}
    for n in (1, 4):
        _, res = drive(n_shards=n, policy="spray")
        makespans[n] = res.makespan_ns
    assert makespans[4] < makespans[1]


def test_single_shard_history_is_exact():
    _, res = drive(n_shards=1)
    report = check_k_relaxed(res.history)
    assert report.ok and report.minimal_k == 1


def test_record_timestamps_are_causally_ordered():
    _, res = drive()
    for r in res.history:
        assert r.invoke <= r.start <= r.respond


def test_empty_scripts_no_ops():
    fleet = ShardedBGPQ(n_shards=2, node_capacity=8)
    res = run_fleet(fleet, [[], []])
    assert res.history == [] and res.makespan_ns == 0.0


def test_think_time_delays_dispatch():
    fleet = ShardedBGPQ(n_shards=1, node_capacity=8, seed=0)
    scripts = mixed_scripts(1, 4, 8, seed=0)
    res = run_fleet(fleet, scripts, think_ns=1e6)
    # each of the 3 follow-up requests arrives a full think time after
    # its predecessor finished
    assert res.makespan_ns > 3e6


def test_obs_session_spans_and_queueing():
    bus = EventBus()
    fleet, res = drive(n_shards=2, sessions=8, obs=bus)
    types = [e.etype for e in bus]
    assert types.count(THREAD_START) == 8
    assert types.count(THREAD_FINISH) == 8
    assert types.count(OP_BEGIN) == types.count(OP_END) == res.requests
    # 8 closed-loop sessions on 2 shards must queue somewhere
    contends = [e for e in bus if e.etype == LOCK_CONTEND]
    grants = [e for e in bus if e.etype == LOCK_GRANT]
    assert contends and len(contends) == len(grants)
    assert all(e.get("lock", "").startswith("fleet.s") for e in contends)
    assert all(e.get("lock", "").endswith(".n1") for e in grants)
    assert all(e.get("waited", 0) > 0 for e in grants)


def test_obs_imbalance_gauge_periodic():
    bus = EventBus()
    fleet = ShardedBGPQ(n_shards=2, node_capacity=16, obs=bus, seed=1)
    run_fleet(fleet, mixed_scripts(8, 10, 16, seed=3), imbalance_every=10)
    gauges = [e for e in bus if e.etype == SHARD_IMBALANCE]
    assert gauges
    for g in gauges:
        assert g.get("gauge") >= 1.0
        assert len(g.get("sizes")) == 2


def test_trace_analyze_attributes_fleet_waits():
    """The existing analysis layer reads fleet lock events unchanged."""
    from repro.obs.analysis import wait_for_graph

    bus = EventBus()
    drive(n_shards=2, sessions=8, obs=bus)
    graph = wait_for_graph(bus.events)
    # some client waited on a shard root serviced for another client
    fleet_edges = [e for e in graph["edges"]
                   if e["resource"].startswith("fleet.s")]
    assert fleet_edges
    assert all(e["wait_ns"] > 0 and e["blocker"] != "?" for e in fleet_edges)


def _bad_last_entry(entry):
    """Good scripts whose last session's last request is ``entry``."""
    scripts = mixed_scripts(3, 6, 16, seed=1)
    scripts[2][5] = entry
    return scripts


_GOOD = mixed_scripts(3, 6, 16, seed=1)


@pytest.mark.parametrize("scripts, kwargs, match", [
    pytest.param(_GOOD, {"imbalance_every": 0}, "imbalance_every",
                 id="imbalance-every-0"),
    pytest.param(_GOOD, {"imbalance_every": 2.5}, "imbalance_every",
                 id="imbalance-every-float"),
    pytest.param(_GOOD, {"think_ns": -1e9}, "think_ns", id="think-negative"),
    pytest.param(_GOOD, {"think_ns": float("nan")}, "think_ns", id="think-nan"),
    pytest.param(_GOOD, {"think_ns": float("inf")}, "think_ns", id="think-inf"),
    pytest.param(_bad_last_entry(("peek", 1)), {},
                 "session 2 request 5: unknown", id="unknown-kind"),
    pytest.param(_bad_last_entry(("deletemin", 0)), {},
                 "session 2 request 5: .*outside", id="count-0"),
    pytest.param(_bad_last_entry(("deletemin", 17)), {},
                 "session 2 request 5: .*outside", id="count-over-k"),
    pytest.param(_bad_last_entry(("deletemin", 2.0)), {},
                 "session 2 request 5", id="count-float"),
    pytest.param(_bad_last_entry(("insert",)), {}, "session 2 request 5",
                 id="entry-without-arg"),
    pytest.param(_bad_last_entry(("insert", ["x"])), {}, "session 2 request 5",
                 id="keys-not-ints"),
])
def test_bad_run_fails_closed_before_touching_the_fleet(scripts, kwargs, match):
    bus = EventBus()
    fleet = ShardedBGPQ(n_shards=4, node_capacity=16, seed=9, obs=bus)
    with pytest.raises(ConfigurationError, match=match):
        run_fleet(fleet, scripts, **kwargs)
    assert len(fleet) == 0 and fleet.shard_sizes() == [0] * 4
    assert fleet.makespan_ns == 0.0
    assert not any(fleet.stats.values())
    assert not list(bus)


def test_scripts_accept_any_int_like_request():
    """Lists, numpy scalars and 2-D batches normalise as dispatch did."""
    plain = [[("insert", np.arange(16, dtype=np.int64)), ("deletemin", 16)]]
    loose = [[("insert", np.arange(16).reshape(4, 4).tolist()),
              ("deletemin", np.int32(16))]]
    runs = [run_fleet(ShardedBGPQ(n_shards=2, node_capacity=16, seed=1), s)
            for s in (plain, loose)]
    assert repr(runs[0].history) == repr(runs[1].history)


def test_wrapped_request_path_sees_every_call():
    """Wrappers set on the fleet and on each ``shard.pq`` (perfbench's
    ``Tracer.wrap``) see every routed, planned and executed sub-op, and
    change nothing the run outputs."""
    def run(wrapped: bool):
        fleet = ShardedBGPQ(n_shards=4, node_capacity=16, policy="d-choice",
                            seed=9)
        calls = Counter()

        def wrap(obj, attr, name):
            inner = getattr(obj, attr)

            def counted(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            setattr(obj, attr, counted)

        if wrapped:
            for shard in fleet.shards:
                wrap(shard.pq, "insert_bulk", "native.insert")
                wrap(shard.pq, "deletemin", "native.deletemin")
            for attr in ("route_insert", "plan_delete", "exec_insert",
                         "exec_deletemin"):
                wrap(fleet, attr, attr)
        return run_fleet(fleet, mixed_scripts(8, 10, 16, seed=4, skew=1.1)), calls

    res, calls = run(wrapped=True)
    stats = res.stats
    assert stats["steals"] > 0
    assert calls["route_insert"] == calls["plan_delete"] == res.requests // 2
    assert calls["exec_insert"] == calls["native.insert"] == stats["inserts"]
    assert calls["exec_deletemin"] == stats["deletes"] == calls["plan_delete"]
    assert calls["native.deletemin"] == stats["deletes"] + stats["steals"]
    bare, _ = run(wrapped=False)
    assert bare.stats == stats and bare.makespan_ns == res.makespan_ns
    digest = [hashlib.sha256(repr(r.history).encode()).hexdigest()
              for r in (res, bare)]
    assert digest[0] == digest[1]


def test_empty_inserts_complete_at_dispatch_and_think_before_the_next():
    fleet = ShardedBGPQ(n_shards=1, node_capacity=8, seed=0)
    keys = np.arange(8, dtype=np.int64)
    res = run_fleet(
        fleet,
        [[("insert", []), ("insert", []), ("insert", keys), ("deletemin", 8)]],
        think_ns=100.0,
    )
    assert res.requests == 4
    assert [r.kind for r in res.history] == ["insert", "deletemin"]
    # two empty inserts, each done on dispatch: the keyed insert arrives
    # two think times in
    assert res.history[0].invoke == 200.0
    assert np.array_equal(np.asarray(res.history[1].result), keys)


def test_run_leaves_no_reference_cycle():
    """Dropping the fleet and the result frees every shard by reference
    counting alone: ``run_fleet`` leaves no cycle behind for the cyclic
    collector to find."""
    fleet = ShardedBGPQ(n_shards=4, node_capacity=16, policy="d-choice",
                        seed=9)
    scripts = mixed_scripts(6, 8, 16, seed=4)
    scripts[0].insert(1, ("insert", []))  # the immediate-completion path
    gc.collect()
    gc.disable()
    try:
        result = run_fleet(fleet, scripts, think_ns=50.0)
        assert result.requests == 6 * 8 + 1
        ref = weakref.ref(fleet)
        del fleet, result
        assert ref() is None
    finally:
        gc.enable()
