"""Fused arena storage vs pinned fingerprints: bit-identical behaviour.

Seeded concurrent runs and fault campaigns must reproduce, bit for bit,
the deleted batches, simulated schedules, stats and recovery outcomes
that the original allocate-per-merge node path recorded on the same
seeds, pinned here as literal fingerprints (makespans, sha256 digests).
"""

import hashlib
import json

import numpy as np
import pytest

from repro.campaign import run_one
from repro.core import BGPQ, HeapAuditor
from repro.core.native import NativeBGPQ
from repro.errors import SimThreadError, ThreadCrashed
from repro.primitives import kernels
from repro.sim import Engine, Label
from repro.sim.faults import CRASHPOINT


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()[:16]


def _make(k=8, payload_width=0):
    return BGPQ(node_capacity=k, max_keys=1 << 12, payload_width=payload_width)


def _mixed_run(seed, payload_width=0, threads=4, pairs=10, k=8):
    """Concurrent insert/delete workload; returns everything observable."""
    pq = _make(k=k, payload_width=payload_width)
    rng = np.random.default_rng(seed)
    scripts = [
        [rng.integers(0, 50_000, size=k).astype(np.int64) for _ in range(pairs)]
        for _ in range(threads)
    ]
    outputs = [[] for _ in range(threads)]

    def worker(tid):
        for batch in scripts[tid]:
            if payload_width:
                pay = np.tile(batch.reshape(-1, 1), (1, payload_width))
                yield from pq.insert_op(batch, pay)
            else:
                yield from pq.insert_op(batch)
            got = yield from pq.deletemin_op(k)
            outputs[tid].append(got)

    eng = Engine(seed=seed)
    for tid in range(threads):
        eng.spawn(worker(tid), name=f"w{tid}")
    eng.run()

    flat = []
    for tid in range(threads):
        for got in outputs[tid]:
            keys = got[0] if isinstance(got, tuple) else got
            flat.append(np.asarray(keys).tolist())
    return {
        "makespan": eng.now,
        "outputs": flat,
        "stats": dict(pq.stats),
        "pq": pq,
    }


# ---------------------------------------------------------------------------
# concurrent differential: identical schedules and results
# ---------------------------------------------------------------------------
#: seed -> (makespan repr, digest of the drained batches) of the
#: allocate-per-merge reference; payload width never moves either
_CONCURRENT = {
    0: ("306719.37831098546", "01236ece2606f8d5"),
    1: ("311696.18988473277", "3259c33c086db997"),
    7: ("307941.54787108896", "6bdc18eacab942d1"),
    23: ("311872.45655139943", "7f003c8f18a26fb6"),
}
_CONCURRENT_STATS = {
    "insert_heapify": 38, "deletemin_heapify": 38,
    "partial_insert": 2, "partial_delete": 2,
    "collab_steals": 1, "collab_fills": 1,
    "insert_aborts": 0, "delete_aborts": 0,
    "insert_rollbacks": 0, "delete_rollbacks": 0, "root_timeouts": 0,
}


@pytest.mark.parametrize("payload_width", [0, 2])
@pytest.mark.parametrize("seed", [0, 1, 7, 23])
def test_backends_bit_identical_under_concurrency(seed, payload_width):
    run = _mixed_run(seed, payload_width)
    assert (repr(run["makespan"]), _digest(run["outputs"])) == _CONCURRENT[seed]
    assert len(run["pq"]) == 0 and run["pq"].snapshot_keys().size == 0
    assert run["stats"] == _CONCURRENT_STATS
    report = HeapAuditor(run["pq"]).audit(context=f"{seed}/{payload_width}")
    assert report.ok, report.problems


def test_backends_identical_single_thread_partial_batches():
    """Partial batches exercise the buffer absorb/detach paths; the
    drain must match the reference's batches and the sequential oracle."""
    pq = _make()
    rng = np.random.default_rng(99)
    inserted = []

    def script():
        for _ in range(30):
            n = int(rng.integers(1, pq.k + 1))
            keys = rng.integers(0, 9_999, size=n).astype(np.int64)
            inserted.extend(keys.tolist())
            yield from pq.insert_op(keys)
        while len(pq):
            got = yield from pq.deletemin_op(min(pq.k, len(pq)))
            drained.append(np.asarray(got).tolist())

    drained = []
    eng = Engine(seed=3)
    eng.spawn(script())
    eng.run()
    assert (len(drained), _digest(drained)) == (18, "267138ca1f929ddf")
    assert [key for batch in drained for key in batch] == sorted(inserted)


# ---------------------------------------------------------------------------
# fault-injection differential: rollback restores arena rows exactly
# ---------------------------------------------------------------------------
def _row_snapshot(pq):
    """Raw arena row contents for every live node (keys up to count)."""
    store = pq.store
    return [
        (i, n.state, n.count, n.keys().tolist())
        for i, n in enumerate(store.nodes)
    ]


def _crash_at(gen, n):
    seen = 0
    send = None
    throw = None
    while True:
        try:
            if throw is not None:
                exc, throw = throw, None
                eff = gen.throw(exc)
            else:
                eff = gen.send(send)
        except StopIteration as stop:
            return ("done", stop.value)
        send = None
        if eff.__class__ is Label and eff.tag == CRASHPOINT:
            seen += 1
            if seen == n:
                throw = ThreadCrashed("surgical", seen)
                continue
        send = yield eff


def _populate(k=4):
    pq = BGPQ(node_capacity=k, max_keys=1 << 12)
    rng = np.random.default_rng(1234)
    batches = [rng.integers(0, 10_000, size=k).astype(np.int64) for _ in range(5)]

    def seeder():
        for b in batches:
            yield from pq.insert_op(b)

    eng = Engine(seed=0)
    eng.spawn(seeder())
    eng.run()
    return pq


@pytest.mark.parametrize("op", ["insert", "delete"])
def test_crash_rollback_restores_arena_rows(op):
    """OpGuard's undo callbacks must rewrite the mutated arena rows —
    snapshot-by-reference would silently fail for in-place storage."""
    rng = np.random.default_rng(7)
    n = 1
    while True:
        pq = _populate()
        before = _row_snapshot(pq)
        before_buf = pq.pbuffer.tolist()
        if op == "insert":
            gen = pq.insert_op(rng.integers(0, 10_000, size=pq.k).astype(np.int64))
        else:
            gen = pq.deletemin_op(pq.k)
        eng = Engine(seed=0)
        eng.spawn(_crash_at(gen, n), name="surgical")
        crashed = False
        try:
            eng.run()
        except SimThreadError as err:
            assert isinstance(err.original, ThreadCrashed)
            crashed = True
        if not crashed:
            break
        assert _row_snapshot(pq) == before, f"crashpoint {n} leaked row state"
        assert pq.pbuffer.tolist() == before_buf
        assert HeapAuditor(pq).audit(context=f"crashpoint {n}").ok
        n += 1
    assert n > 3  # swept several crashpoints


#: plan -> digest of the four seeds' (status, injected, crashed, aborted,
#: rollbacks, makespan repr) outcomes the allocate-per-merge reference
#: recorded; every cell survived
_CAMPAIGN = {
    "crash": "79140df9885d2ddd",
    "timeout": "2c7ddf9d006e3567",
    "mixed": "73b2ea331feb18d0",
}


@pytest.mark.parametrize("plan", ["crash", "timeout", "mixed"])
def test_fault_campaign_cell_matches_list_backend(plan):
    """Same seed, same plan: the fused backend survives injected faults
    with the reference's schedules, fault counts, and recovery outcomes."""
    outcomes = []
    for seed in range(4):
        a = run_one("bgpq", plan, seed=seed)
        outcomes.append([a.status, a.injected, a.crashed_threads,
                         a.aborted_ops, a.rollbacks, repr(a.makespan_ns)])
    assert _digest(outcomes) == _CAMPAIGN[plan], outcomes


# ---------------------------------------------------------------------------
# one layout: the DES queue and the host queue hold the same arena rows
# ---------------------------------------------------------------------------
def _live_rows(arena, heap_size):
    """Rows 0..heap_size (partial buffer, then nodes) as (keys, payload)."""
    return [
        (arena.keys[i, :c].tolist(), arena.pay[i, :c].tolist())
        for i, c in enumerate(arena.counts[: heap_size + 1].tolist())
    ]


@pytest.mark.parametrize("backend", kernels.available_backends())
@pytest.mark.parametrize("seed", range(8))
def test_sim_and_native_share_arena_rows(seed, backend):
    """A one-thread DES ``BGPQ`` and a ``NativeBGPQ`` fed the same random
    insert/deletemin script return the same batches and, after every
    operation, hold identical arena rows — the partial buffer in row 0
    included.  Narrow keys force ties, and the payload column numbers
    the records, so tie order shows in the rows too."""
    k, width = 8, seed % 2
    rng = np.random.default_rng(seed)
    sim = BGPQ(node_capacity=k, max_keys=1 << 12, payload_width=width)
    host = NativeBGPQ(node_capacity=k, payload_width=width, kernels=backend)
    serial = 0
    checked = 0

    def script():
        nonlocal serial, checked
        for step in range(120):
            # grow the heap a few levels deep, then drain it
            if rng.random() < (0.7 if step < 80 else 0.2):
                n = int(rng.integers(1, k + 1))
                keys = rng.integers(0, 64, size=n).astype(np.int64)
                pay = np.arange(serial, serial + n).reshape(n, 1)[:, :width]
                serial += n
                yield from sim.insert_op(keys, pay)
                host.insert(keys, pay)
            else:
                count = int(rng.integers(1, k + 1))
                got_k, got_p = yield from sim.deletemin_op(count, with_payload=True)
                want_k, want_p = host.deletemin(count)
                assert got_k.tolist() == want_k.tolist()
                assert got_p.tolist() == want_p.tolist()
            assert sim.store.heap_size == host._heap_size
            assert _live_rows(sim.store.arena, sim.store.heap_size) == \
                _live_rows(host._arena, host._heap_size)
            checked += 1

    eng = Engine(seed=seed)
    eng.spawn(script())
    eng.run()
    assert checked == 120 and len(sim) == len(host)
