"""Checkpoint loader fuzz: a damaged checkpoint fails closed.

Each example writes an intact checkpoint at LSN 1 and a newer one at
LSN 2, damages the newer one (or both), and loads.  Truncation and bit
flips must be caught by the hash, so the load falls back to LSN 1 (or
raises :class:`DurabilityError` when both files are damaged).  Files
doctored and then re-hashed carry rows no export could have written:
the loader may skip them, but if it hands them on, ``restore_rows``
must raise :class:`ConfigurationError`.  No other exception is
allowed, and the queue a restore targets stays untouched.

The helpers parse and re-pack the byte layout documented in
:mod:`repro.serve.checkpoint` on their own, so they also pin it.
"""

import hashlib
import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.native import NativeBGPQ
from repro.device import GpuContext
from repro.errors import ConfigurationError, DurabilityError
from repro.serve.checkpoint import MAGIC, VERSION, CheckpointStore, state_digest

K = 4
_PREFIX = struct.Struct("<8sII")


def _queue(width):
    return NativeBGPQ(node_capacity=K, ctx=GpuContext.default(),
                      payload_width=width)


def _fill(pq, keys):
    keys = np.asarray(keys, dtype=np.int64)
    pay = np.stack([keys * 2, keys + 1], axis=1) if pq.payload_width else None
    pq.insert_bulk(keys, pay)


def _parse(data: bytes):
    """(header, counts, keys, pay) of an intact int64 checkpoint file."""
    magic, version, hlen = _PREFIX.unpack_from(data)
    assert (magic, version) == (MAGIC, VERSION)
    at = _PREFIX.size + hlen
    header = json.loads(data[_PREFIX.size:at])
    rows, width = header["heap_size"] + 1, header["payload_width"]
    counts = np.frombuffer(data, "<i8", rows, at).copy()
    n = int(counts.sum())
    at += 8 * rows
    keys = np.frombuffer(data, "<i8", n, at).copy()
    at += 8 * n
    pay = np.frombuffer(data, "<i8", n * width, at).reshape(n, width).copy()
    at += 8 * n * width
    assert at + 32 == len(data)
    assert hashlib.sha256(data[:at]).digest() == data[at:]
    return header, counts, keys, pay


def _pack(header: dict, *blocks: bytes) -> bytes:
    """A checkpoint file of ``header`` and raw ``blocks``, re-hashed."""
    text = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    body = _PREFIX.pack(MAGIC, VERSION, len(text)) + text + b"".join(blocks)
    return body + hashlib.sha256(body).digest()


def _blocks(counts, keys, pay):
    return counts.astype("<i8").tobytes(), keys.astype("<i8").tobytes(), \
        pay.astype("<i8").tobytes()


# -- doctors: rows no export could have written, re-hashed --------------------

def _counts_over_k(data, draw):
    header, counts, keys, pay = _parse(data)
    row = draw(st.integers(0, header["heap_size"]))
    end = int(counts[: row + 1].sum())
    extra = K + 1 - int(counts[row])
    big = np.full(extra, keys.max() + 1 if keys.size else 0, dtype=np.int64)
    counts[row] = K + 1
    keys = np.insert(keys, end, big)
    pay = np.insert(pay, end, np.zeros((extra, pay.shape[1]), np.int64), axis=0)
    return _pack(header, *_blocks(counts, keys, pay))


def _unsorted_row(data, draw):
    header, counts, keys, pay = _parse(data)
    # reverse a row whose first and last keys differ: more than K
    # distinct keys were inserted, so one exists
    ends = np.cumsum(counts)
    starts = ends - counts
    rows = [r for r in range(counts.size)
            if counts[r] > 1 and keys[starts[r]] != keys[ends[r] - 1]]
    row = draw(st.sampled_from(rows))
    keys[starts[row]:ends[row]] = keys[starts[row]:ends[row]][::-1].copy()
    return _pack(header, *_blocks(counts, keys, pay))


def _heap_size_off(data, draw):
    header, counts, keys, pay = _parse(data)
    deltas = [1, 2] + ([-1] if header["heap_size"] else [])
    header["heap_size"] += draw(st.sampled_from(deltas))
    return _pack(header, *_blocks(counts, keys, pay))


def _short_rows(data, draw):
    header, counts, keys, pay = _parse(data)
    blocks = list(_blocks(counts, keys, pay))
    which = draw(st.sampled_from([1, 2] if pay.size else [1]))
    cut = draw(st.integers(1, len(blocks[which])))
    blocks[which] = blocks[which][:-cut]
    return _pack(header, *blocks)


def _wrong_dtype(data, draw):
    header, counts, keys, pay = _parse(data)
    field = draw(st.sampled_from(["key_dtype", "payload_dtype"]))
    header[field] = draw(st.sampled_from(
        ["int32", "float64", "uint64", "bogus", "object", "<i8", 7]))
    return _pack(header, *_blocks(counts, keys, pay))


DOCTORS = [_counts_over_k, _unsorted_row, _heap_size_off, _short_rows,
           _wrong_dtype]


# -- the harness ---------------------------------------------------------------

def _two_checkpoints(tmp: Path, width, first, second):
    """Checkpoints at LSN 1 and 2; returns (store, LSN-1 digest, LSN-2 path)."""
    store = CheckpointStore(tmp, keep=2)
    pq = _queue(width)
    _fill(pq, first)
    store.save(pq.export_rows(), lsn=1)
    older = state_digest(pq.export_state())
    _fill(pq, second)
    newest = store.save(pq.export_rows(), lsn=2)
    return store, older, newest


def _load_and_restore(store, older, width, older_intact) -> str:
    """Load, then restore into a non-empty queue; returns the outcome.

    Only an intact LSN-1 checkpoint may load and restore; a damaged one
    that loads must be refused by the restore, like the newer one."""
    target = _queue(width)
    _fill(target, [7, 5])
    before = target.export_state()
    try:
        loaded = store.load_latest()
    except DurabilityError:
        assert target.export_state() == before
        return "all-corrupt"
    rows, lsn = loaded
    if lsn == 1 and older_intact:
        assert state_digest(rows.as_state()) == older
        target.restore_rows(rows)
        assert state_digest(target.export_state()) == older
        return "fallback"
    with pytest.raises(ConfigurationError, match="snapshot"):
        target.restore_rows(rows)
    assert target.export_state() == before
    return "rejected"


keys_strategy = st.lists(st.integers(0, 10_000), min_size=K + 1, max_size=20,
                         unique=True)


@settings(max_examples=60, deadline=None)
@given(first=keys_strategy, second=keys_strategy,
       width=st.sampled_from([0, 2]), both=st.booleans(), data=st.data())
def test_truncated_or_bit_flipped_checkpoint_falls_back(first, second, width,
                                                        both, data):
    with tempfile.TemporaryDirectory() as tmp:
        store, older, newest = _two_checkpoints(Path(tmp), width, first, second)
        damaged = store._checkpoint_paths() if both else [newest]
        for path in damaged:
            raw = path.read_bytes()
            if data.draw(st.booleans(), label="truncate"):
                cut = data.draw(st.integers(0, len(raw) - 1), label="cut")
                raw = raw[:cut]
            else:
                bit = data.draw(st.integers(0, 8 * len(raw) - 1), label="bit")
                raw = bytearray(raw)
                raw[bit // 8] ^= 1 << (bit % 8)
            path.write_bytes(bytes(raw))
        want = "all-corrupt" if both else "fallback"
        assert _load_and_restore(store, older, width, not both) == want


@settings(max_examples=100, deadline=None)
@given(first=keys_strategy, second=keys_strategy,
       width=st.sampled_from([0, 2]), both=st.booleans(),
       doctor=st.sampled_from(DOCTORS), data=st.data())
def test_doctored_rehashed_checkpoint_fails_closed(first, second, width, both,
                                                   doctor, data):
    with tempfile.TemporaryDirectory() as tmp:
        store, older, newest = _two_checkpoints(Path(tmp), width, first, second)
        damaged = store._checkpoint_paths() if both else [newest]
        for path in damaged:
            path.write_bytes(doctor(path.read_bytes(), data.draw))
        outcome = _load_and_restore(store, older, width, not both)
        assert outcome in (("all-corrupt", "rejected") if both
                           else ("fallback", "rejected"))


def test_intact_checkpoint_parses_as_documented(tmp_path):
    store, older, newest = _two_checkpoints(tmp_path, 2, range(9), [3, 11])
    header, counts, keys, pay = _parse(newest.read_bytes())
    assert header["lsn"] == 2
    rows, lsn = store.load_latest()
    assert lsn == 2 and header == {**rows.header, "lsn": 2}
    np.testing.assert_array_equal(counts, rows.counts)
    np.testing.assert_array_equal(keys, rows.keys)
    np.testing.assert_array_equal(pay, rows.pay)
