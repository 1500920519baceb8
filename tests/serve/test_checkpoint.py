"""Checkpoint store integrity + the export/restore differential.

The hypothesis suite is the checkpoint half of the durability story:
``export_rows`` → checkpoint bytes → ``restore_rows`` must reproduce
the queue *exactly* — same digest, same contents, same simulated
clock — and a restored replica must stay behaviourally identical to
the uninterrupted oracle for arbitrary continued operation.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.native import NativeBGPQ
from repro.device import GpuContext
from repro.errors import ConfigurationError, DurabilityError
from repro.serve.checkpoint import CheckpointStore, decode, encode, state_digest


def _mk(k=4, payload_width=0):
    return NativeBGPQ(node_capacity=k, payload_width=payload_width)


# -- store mechanics -------------------------------------------------------

def test_save_load_round_trip(tmp_path):
    store = CheckpointStore(tmp_path)
    pq = _mk()
    pq.insert_bulk(np.array([5, 1, 9, 3], dtype=np.int64))
    store.save(pq.export_rows(), lsn=7)
    rows, lsn = store.load_latest()
    assert lsn == 7
    assert state_digest(rows.as_state()) == state_digest(pq.export_state())


def test_round_trip_keeps_dtypes(tmp_path):
    """Float keys and a narrow payload dtype round-trip through the
    binary rows unchanged (float64 is also what ``np.dtype(None)``
    means, so the loader must not mistake it for a missing field)."""
    store = CheckpointStore(tmp_path)
    pq = NativeBGPQ(node_capacity=4, key_dtype=np.float64, payload_width=3,
                    payload_dtype=np.int32)
    keys = np.array([2.5, -1.0, 9.75, 0.0, 3.0, 1e300], dtype=np.float64)
    pq.insert_bulk(keys, np.arange(18, dtype=np.int32).reshape(6, 3))
    store.save(pq.export_rows(), lsn=3)
    rows, lsn = store.load_latest()
    dst = NativeBGPQ(node_capacity=4, key_dtype=np.float64, payload_width=3,
                     payload_dtype=np.int32)
    dst.restore_rows(rows)
    assert lsn == 3
    assert dst.export_state() == pq.export_state()


def test_load_latest_empty_dir(tmp_path):
    assert CheckpointStore(tmp_path).load_latest() is None


def test_prune_keeps_newest(tmp_path):
    store = CheckpointStore(tmp_path, keep=2)
    pq = _mk()
    for lsn in (1, 2, 3, 4):
        store.save(pq.export_rows(), lsn=lsn)
    names = sorted(p.name for p in tmp_path.glob("ckpt-*"))
    assert names == ["ckpt-000000000003.bin", "ckpt-000000000004.bin"]


def test_corrupt_newest_falls_back(tmp_path):
    store = CheckpointStore(tmp_path, keep=2)
    pq = _mk()
    pq.insert_bulk(np.array([1, 2], dtype=np.int64))
    store.save(pq.export_rows(), lsn=1)
    pq.insert_bulk(np.array([3], dtype=np.int64))
    newest = store.save(pq.export_rows(), lsn=2)
    newest.write_bytes(newest.read_bytes()[:-40])  # half-written save
    state, lsn = store.load_latest()
    assert lsn == 1  # fell back to the older, intact checkpoint


def test_all_corrupt_raises(tmp_path):
    store = CheckpointStore(tmp_path)
    pq = _mk()
    path = store.save(pq.export_rows(), lsn=1)
    data = path.read_bytes()
    assert data.count(b'"heap_size":0') == 1
    # tamper: the hash no longer matches
    path.write_bytes(data.replace(b'"heap_size":0', b'"heap_size":9'))
    with pytest.raises(DurabilityError, match="integrity"):
        store.load_latest()


def test_digest_covers_lsn(tmp_path):
    store = CheckpointStore(tmp_path)
    pq = _mk()
    path = store.save(pq.export_rows(), lsn=5)
    data = path.read_bytes()
    assert data.count(b'"lsn":5') == 1
    # swap the covered LSN without touching the state
    path.write_bytes(data.replace(b'"lsn":5', b'"lsn":6'))
    with pytest.raises(DurabilityError):
        store.load_latest()


def test_digest_is_deterministic():
    a = _mk()
    b = _mk()
    keys = np.array([4, 4, 1, 7], dtype=np.int64)
    a.insert_bulk(keys)
    b.insert_bulk(keys)
    assert state_digest(a.export_state()) == state_digest(b.export_state())


# -- export/restore layout guards ------------------------------------------

def test_restore_rejects_wrong_k():
    state = _mk(k=4).export_state()
    with pytest.raises(ConfigurationError):
        _mk(k=8).restore_state(state)


def test_restore_rejects_wrong_payload_width():
    state = _mk(payload_width=0).export_state()
    with pytest.raises(ConfigurationError):
        _mk(payload_width=2).restore_state(state)


def _full_buffer(state):
    state["buffer"] = {"keys": [8, 9, 10, 11], "pay": [[]] * 4}


def _unsorted_root(state):
    state["nodes"][0]["keys"] = [3, 2, 1, 0]


def _oversized_row(state):
    state["nodes"][0] = {"keys": [0, 1, 2, 3, 3], "pay": [[]] * 5}


def _malformed_row(state):
    state["nodes"][1]["keys"] = [4, 5, 6, "x"]


@pytest.mark.parametrize(
    "doctor", [_full_buffer, _unsorted_root, _oversized_row, _malformed_row],
    ids=["buffer-holds-k", "unsorted-root", "row-of-k-plus-1", "malformed-row"],
)
def test_restore_rejects_broken_heap_layout(doctor):
    """The fused kernels trust restored counts and order unchecked, so
    a snapshot that breaks the layout must fail closed, untouched."""
    src = _mk()
    src.insert_bulk(np.arange(10, dtype=np.int64))
    state = src.export_state()
    doctor(state)
    dst = _mk()
    dst.insert_bulk(np.array([7, 5], dtype=np.int64))
    before = dst.export_state()
    with pytest.raises(ConfigurationError, match="snapshot"):
        dst.restore_state(state)
    assert dst.export_state() == before


_MISSING = object()


@pytest.mark.parametrize(
    "field,value",
    [
        ("sim_ns", "garbage"),
        ("sim_ns", None),
        ("sim_ns", 12.5),
        ("sim_ns", _MISSING),
        ("sim_ns", "-3/2"),
        ("sim_ns", "1/3"),
        ("sim_ns", "1/" + str(2 ** 1075)),
        ("sim_ns", "1e400"),
        ("sim_ns", "1/0"),
        ("stats", _MISSING),
        ("stats", None),
        ("stats", [["ops", 3]]),
        (None, {}),
        (None, []),
        ("heap_size", "x"),
        ("heap_size", 2.5),
        ("nodes", 3),
        ("buffer", _MISSING),
    ],
    ids=[
        "clock-garbage", "clock-none", "clock-float", "clock-missing",
        "clock-negative", "clock-not-dyadic", "clock-below-tick",
        "clock-exponent", "clock-zero-denominator",
        "stats-missing", "stats-none", "stats-list",
        "snapshot-empty-dict", "snapshot-list", "heap-size-str",
        "heap-size-float", "nodes-int", "buffer-missing",
    ],
)
def test_restore_rejects_bad_clock_or_stats(field, value):
    """The snapshot's shape, clock and stats are checked before any row
    is written: a value no export could have produced fails closed,
    untouched.  ``field=None`` replaces the whole snapshot."""
    ctx = GpuContext.default()
    src = NativeBGPQ(node_capacity=4, ctx=ctx)
    src.insert_bulk(np.arange(10, dtype=np.int64))
    state = src.export_state()
    if field is None:
        state = value
    elif value is _MISSING:
        del state[field]
    else:
        state[field] = value
    dst = NativeBGPQ(node_capacity=4, ctx=ctx)
    dst.insert_bulk(np.array([7, 5], dtype=np.int64))
    before = dst.export_state()
    with pytest.raises(ConfigurationError, match="snapshot"):
        dst.restore_state(state)
    assert dst.export_state() == before


def test_restore_accepts_any_exported_clock():
    ctx = GpuContext.default()
    src = NativeBGPQ(node_capacity=4, ctx=ctx)
    src.insert_bulk(np.arange(10, dtype=np.int64))
    dst = NativeBGPQ(node_capacity=4, ctx=ctx)
    dst.restore_state(json.loads(json.dumps(src.export_state())))
    assert dst.sim_time_ns_exact == src.sim_time_ns_exact > 0
    assert dst.sim_ticks == src.sim_ticks


def test_restore_reproduces_pinned_digests():
    """A restored queue exports the snapshot's digest and then plays on
    exactly as the allocate-per-merge reference did from the same
    snapshot (its drained batches and final digest, pinned)."""
    src = _mk()
    src.insert_bulk(np.arange(17, dtype=np.int64)[::-1].copy())
    dst = _mk()
    dst.restore_state(src.export_state())
    assert state_digest(dst.export_state()) == state_digest(src.export_state())
    dst.insert_bulk(np.array([3, 40, 1]))
    assert dst.deletemin(4)[0].tolist() == [0, 1, 1, 2]
    assert dst.deletemin(4)[0].tolist() == [3, 3, 4, 5]
    assert state_digest(dst.export_state()) == (
        "c94bf9b247514b40468621b7ec5ed7a936e5dfdaecd998214162010635991dd8"
    )


# -- hypothesis differential: restore == uninterrupted oracle --------------

# batch sizes and deletemin counts are capped at the k=4 the tests use
ops_strategy = st.lists(
    st.one_of(
        st.lists(st.integers(min_value=0, max_value=500),
                 min_size=1, max_size=4).map(lambda ks: ("insert", ks)),
        st.integers(min_value=1, max_value=4).map(lambda n: ("deletemin", n)),
    ),
    max_size=24,
)


def _apply(pq, op):
    kind, arg = op
    if kind == "insert":
        keys = np.asarray(arg, dtype=np.int64)
        pay = (np.stack([keys * 2, keys * 3], axis=1)
               if pq.payload_width else None)
        pq.insert_bulk(keys, pay)
        return None
    got_k, got_p = pq.deletemin(arg)
    return got_k.tolist(), got_p.tolist()


@settings(max_examples=40, deadline=None)
@given(ops=ops_strategy, cut=st.integers(min_value=0, max_value=24),
       payload_width=st.sampled_from([0, 2]))
def test_checkpoint_restore_differential(ops, cut, payload_width):
    """Snapshot at an arbitrary cut; the restored replica must replay
    the remaining ops with byte-identical results, state, and clock."""
    oracle = _mk(k=4, payload_width=payload_width)
    cut = min(cut, len(ops))
    for op in ops[:cut]:
        _apply(oracle, op)

    # snapshot through the checkpoint store's bytes
    rows, lsn = decode(encode(oracle.export_rows(), lsn=cut))
    assert lsn == cut
    replica = _mk(k=4, payload_width=payload_width)
    replica.restore_rows(rows)

    assert state_digest(replica.export_state()) == state_digest(
        oracle.export_state()
    )
    assert replica.sim_time_ns_exact == oracle.sim_time_ns_exact
    assert len(replica) == len(oracle)

    for op in ops[cut:]:
        assert _apply(replica, op) == _apply(oracle, op)
    assert state_digest(replica.export_state()) == state_digest(
        oracle.export_state()
    )
    np.testing.assert_array_equal(
        np.sort(replica.snapshot_keys()), np.sort(oracle.snapshot_keys())
    )


def _per_row_state(pq):
    """The snapshot dict built row by row from the arena, as a reference
    for the one-mask rows export."""
    a = pq._arena
    rows = [
        {"keys": a.keys[i, : a.counts[i]].tolist(),
         "pay": a.pay[i, : a.counts[i]].tolist()}
        for i in range(pq._heap_size + 1)
    ]
    return {
        "k": pq.k, "key_dtype": pq.key_dtype.name,
        "payload_width": pq.payload_width,
        "payload_dtype": pq.payload_dtype.name, "heap_size": pq._heap_size,
        "buffer": rows[0], "nodes": rows[1:],
        "sim_ns": str(pq.sim_time_ns_exact), "stats": dict(pq.stats),
    }


@settings(max_examples=40, deadline=None)
@given(ops=ops_strategy, payload_width=st.sampled_from([0, 2]))
def test_export_state_is_dict_view_of_rows(ops, payload_width):
    """``export_state`` is the dict view of ``export_rows``: the same
    rows, counts and header a row-by-row walk of the arena gives."""
    pq = NativeBGPQ(node_capacity=4, ctx=GpuContext.default(),
                    payload_width=payload_width)
    for op in ops:
        _apply(pq, op)
        want = _per_row_state(pq)
        rows = pq.export_rows()
        assert rows.as_state() == want
        assert pq.export_state() == want
        assert rows.counts.tolist() == [len(r["keys"]) for r in
                                        [want["buffer"], *want["nodes"]]]
        assert rows.pay.shape == (rows.keys.size, payload_width)
