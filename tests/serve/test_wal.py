"""Write-ahead log: round-trips, tail discipline, corruption detection."""

import os
import stat

import numpy as np
import pytest

from repro.errors import DurabilityError
from repro.serve.wal import GROW_BYTES, WriteAheadLog, _frame

from .conftest import frame_spans, framed, reheaded


def _wal_path(tmp_path):
    return tmp_path / WriteAheadLog.FILENAME


def _append_inserts(tmp_path, n):
    with WriteAheadLog.open(tmp_path) as wal:
        for i in range(n):
            wal.append("s0", i, "insert", keys=[i])
    raw = _wal_path(tmp_path).read_bytes()
    return raw, frame_spans(raw)


def test_append_assigns_consecutive_lsns(tmp_path):
    with WriteAheadLog.open(tmp_path) as wal:
        r1 = wal.append("s0", 0, "insert", keys=[3, 1])
        r2 = wal.append("s0", 1, "deletemin", keys=[1, 3], count=2)
        assert (r1.lsn, r2.lsn) == (1, 2)
        assert wal.last_lsn == 2
        assert wal.next_lsn == 3


def test_reopen_round_trips_records(tmp_path):
    with WriteAheadLog.open(tmp_path) as wal:
        wal.append("s0", 0, "insert", keys=[5, 2, 9], pay=[[1], [2], [3]])
        wal.append("s1", 0, "deletemin", keys=[2], pay=[[2]], count=1)
        wal.append("sé", 7, "deletemin", count=3)  # journaled without a result
        wal.append("s2", 1, "insert",
                   keys=np.array([1.5, -2.0]), pay=np.zeros((2, 3), np.int32))
        written = wal.records()
    with WriteAheadLog.open(tmp_path) as wal:
        recs = wal.records()
        assert [r.lsn for r in recs] == [1, 2, 3, 4]
        for got, want in zip(recs, written):
            assert (got.sid, got.op_id, got.kind, got.count, got.no_result) == (
                want.sid, want.op_id, want.kind, want.count, want.no_result)
            assert got.keys.dtype == want.keys.dtype
            assert got.pay.dtype == want.pay.dtype
            assert np.array_equal(got.keys, want.keys)
            assert np.array_equal(got.pay, want.pay)
            # read-only views of the frame bytes, in memory and on reopen
            assert not got.keys.flags.writeable and not want.keys.flags.writeable
            assert not got.pay.flags.writeable and not want.pay.flags.writeable
        assert recs[0].keys.tolist() == [5, 2, 9]
        assert recs[0].pay.tolist() == [[1], [2], [3]]
        assert (recs[1].keys.tolist(), recs[1].pay.tolist()) == ([2], [[2]])
        assert recs[2].no_result and recs[2].keys.size == 0
        assert not recs[1].no_result
        assert recs[3].keys.tolist() == [1.5, -2.0]
        assert recs[3].pay.shape == (2, 3) and recs[3].pay.dtype == np.int32
        # appends continue after the last durable LSN
        assert wal.append("s1", 1, "insert", keys=[7]).lsn == 5


def test_records_from_lsn_filters(tmp_path):
    with WriteAheadLog.open(tmp_path) as wal:
        for i in range(5):
            wal.append("s0", i, "insert", keys=[i])
        assert [r.lsn for r in wal.records(from_lsn=3)] == [3, 4, 5]
        assert len(wal) == 5


def test_records_from_lsn_slices_a_log_that_starts_late(tmp_path):
    """The suffix is sliced at the LSN's offset from the oldest record,
    which need not be LSN 1."""
    with WriteAheadLog.open(tmp_path) as wal:
        assert wal.first_lsn is None and wal.records(from_lsn=3) == []
    raw, spans = _append_inserts(tmp_path, 6)
    _wal_path(tmp_path).write_bytes(raw[spans[2][0]:])
    with WriteAheadLog.open(tmp_path) as wal:
        assert wal.first_lsn == 3
        assert [r.lsn for r in wal.records()] == [3, 4, 5, 6]
        assert [r.lsn for r in wal.records(from_lsn=1)] == [3, 4, 5, 6]
        assert [r.lsn for r in wal.records(from_lsn=5)] == [5, 6]
        assert wal.records(from_lsn=7) == []
        wal.append("s0", 6, "insert", keys=[6])
        assert [r.lsn for r in wal.records(from_lsn=6)] == [6, 7]


def test_torn_tail_is_truncated(tmp_path):
    """A crash mid-append leaves the head of a frame before zeros; open
    ends the log there and zeroes the torn bytes."""
    raw, spans = _append_inserts(tmp_path, 2)
    torn, _ = _frame(3, "s0", 2, "insert", 0, np.arange(40),
                     np.empty((40, 0), np.int64), 0)
    end = spans[-1][1]
    with open(_wal_path(tmp_path), "r+b") as fh:
        fh.seek(end)
        fh.write(torn[:100])
    with WriteAheadLog.open(tmp_path) as wal:
        assert [r.lsn for r in wal.records()] == [1, 2]
        assert not any(_wal_path(tmp_path).read_bytes()[end:])
        assert wal.append("s0", 2, "insert", keys=[3]).lsn == 3
    # the torn frame is gone from disk, replaced by the new record
    with WriteAheadLog.open(tmp_path) as wal:
        assert [r.lsn for r in wal.records()] == [1, 2, 3]
        assert wal.records()[-1].keys.tolist() == [3]


def test_midfile_corruption_raises(tmp_path):
    raw, spans = _append_inserts(tmp_path, 3)
    doctored = bytearray(raw)
    doctored[spans[1][1] - 9] ^= 0x40  # CRC now fails on a non-final frame
    _wal_path(tmp_path).write_bytes(bytes(doctored))
    with pytest.raises(DurabilityError,
                       match=f"corrupt frame at offset {spans[1][0]}"):
        WriteAheadLog.open(tmp_path)


def test_crc_failing_tail_is_tolerated(tmp_path):
    raw, spans = _append_inserts(tmp_path, 3)
    doctored = bytearray(raw)
    doctored[spans[2][1] - 9] ^= 0x40
    _wal_path(tmp_path).write_bytes(bytes(doctored))
    with WriteAheadLog.open(tmp_path) as wal:
        assert [r.lsn for r in wal.records()] == [1, 2]


def test_lsn_gap_raises(tmp_path):
    raw, spans = _append_inserts(tmp_path, 2)
    second = raw[spans[1][0]:spans[1][1]]
    _wal_path(tmp_path).write_bytes(raw[:spans[1][0]] + reheaded(second, lsn=3))
    with pytest.raises(DurabilityError, match="LSN gap"):
        WriteAheadLog.open(tmp_path)


def _bad_bodies(frame: bytes) -> dict:
    """CRC-valid frames whose bodies no append writes, by what is wrong."""
    body = frame[8:]
    return {
        "kind-0": reheaded(frame, kind=0),
        "kind-3": reheaded(frame, kind=3),
        "lsn-0": reheaded(frame, lsn=0),
        "lsn-negative": reheaded(frame, lsn=-3),
        "insert-with-count": reheaded(frame, count=1),
        "insert-with-flag": reheaded(frame, flags=1),
        "deletemin-count-0": reheaded(frame, kind=2, count=0),
        "deletemin-more-keys-than-count": reheaded(frame, kind=2, count=1),
        "deletemin-unknown-flag": reheaded(frame, kind=2, count=9, flags=2),
        "no-result-with-keys": reheaded(frame, kind=2, count=9, flags=1),
        "n-past-body": reheaded(frame, n=3),
        "width-past-body": reheaded(frame, width=1),
        "sid-past-body": reheaded(frame, sid_len=9),
        "body-past-arrays": framed(body + bytes(8)),
        "body-shorter-than-header": framed(bytes(40)),
        "sid-not-utf8": framed(body[:48] + b"\xff" + body[49:]),
        "key-dtype-object": reheaded(frame, key_dt=b"|O"),
        "key-dtype-garbage": reheaded(frame, key_dt=b"xyz"),
        "pay-dtype-complex": reheaded(frame, pay_dt=b"<c8"),
        "key-dtype-datetime": reheaded(frame, key_dt=b"<M8"),
        "key-dtype-not-canonical": reheaded(frame, key_dt=b"i8"),
    }


@pytest.mark.parametrize("what", sorted(_bad_bodies(framed(bytes(48)))))
@pytest.mark.parametrize("at", [0, 1, 2])
def test_crc_valid_body_no_append_writes_raises(tmp_path, what, at):
    """A frame that passes its CRC but holds what no append writes
    raises wherever it sits, the last frame included."""
    with WriteAheadLog.open(tmp_path) as wal:
        for i in range(3):
            wal.append("s0", i, "insert", keys=[i, i + 1])
    raw = _wal_path(tmp_path).read_bytes()
    spans = frame_spans(raw)
    start, end = spans[at]
    bad = _bad_bodies(raw[start:end])[what]
    _wal_path(tmp_path).write_bytes(raw[:start] + bad + raw[end:spans[-1][1]])
    with pytest.raises(DurabilityError, match=f"frame at offset {start}"):
        WriteAheadLog.open(tmp_path)


@pytest.mark.parametrize("bit", range(64))
def test_any_flipped_crc_or_length_bit_fails_the_frame(tmp_path, bit):
    """Each bit of the CRC and length words counts: a flip in the final
    frame's CRC leaves exactly the records before it, and one in its
    length word that or a DurabilityError, never the frame itself."""
    raw, spans = _append_inserts(tmp_path, 2)
    doctored = bytearray(raw)
    doctored[spans[1][0] + bit // 8] ^= 1 << bit % 8
    _wal_path(tmp_path).write_bytes(bytes(doctored))
    try:
        wal = WriteAheadLog.open(tmp_path)
    except DurabilityError:
        assert bit >= 32, "a flipped CRC bit must read as a torn tail"
        return
    with wal:
        assert [r.lsn for r in wal.records()] == [1]


def test_empty_dir_starts_at_lsn_one(tmp_path):
    with WriteAheadLog.open(tmp_path) as wal:
        assert wal.next_lsn == 1
        assert wal.records() == []
    assert _wal_path(tmp_path).exists()


def test_file_grows_in_preallocated_steps_with_a_zero_tail(tmp_path):
    """The file is whole GROW_BYTES steps; the frames end at a zero
    length word, and a batch that crosses a step grows it by whole
    steps."""
    raw, spans = _append_inserts(tmp_path, 3)
    assert len(raw) == GROW_BYTES
    assert not any(raw[spans[-1][1]:])
    big = np.arange(GROW_BYTES // 8, dtype=np.int64)
    with WriteAheadLog.open(tmp_path) as wal:
        assert [r.lsn for r in wal.records()] == [1, 2, 3]
        wal.append("s0", 3, "insert", keys=big)
    raw = _wal_path(tmp_path).read_bytes()
    assert len(raw) == 2 * GROW_BYTES
    with WriteAheadLog.open(tmp_path) as wal:
        assert np.array_equal(wal.records()[-1].keys, big)
        assert wal.append("s0", 4, "insert", keys=[1]).lsn == 5


def test_zero_length_word_followed_by_data_raises(tmp_path):
    """A zeroed length word mid-file would hide every frame after it."""
    raw, spans = _append_inserts(tmp_path, 3)
    doctored = bytearray(raw)
    doctored[spans[1][0]:spans[1][0] + 8] = bytes(8)
    _wal_path(tmp_path).write_bytes(bytes(doctored))
    with pytest.raises(DurabilityError, match="data after it"):
        WriteAheadLog.open(tmp_path)


@pytest.mark.parametrize("into", ["zero-tail", "past-eof"])
def test_length_word_that_swallows_later_frames_raises(tmp_path, into):
    """A damaged length word that runs its frame over the frames after
    it must not pass them off as one torn tail."""
    raw, spans = _append_inserts(tmp_path, 4)
    start = spans[1][0]
    blen = spans[-1][1] - start + 64 if into == "zero-tail" else 1 << 31
    doctored = bytearray(raw)
    doctored[start + 4:start + 8] = blen.to_bytes(4, "little")
    _wal_path(tmp_path).write_bytes(bytes(doctored))
    with pytest.raises(DurabilityError, match=f"corrupt frame at offset {start}"):
        WriteAheadLog.open(tmp_path)


def test_append_rejects_arrays_it_cannot_frame(tmp_path):
    with WriteAheadLog.open(tmp_path) as wal:
        with pytest.raises(ValueError):
            wal.append("s0", 0, "insert", keys=np.array(["a"]))
        with pytest.raises(ValueError):
            wal.append("s0", 0, "insert", keys=[1, 2], pay=[[1]])
        assert len(wal) == 0
        assert wal.append("s0", 0, "insert", keys=[1]).lsn == 1


def test_fsync_syncs_every_append_before_it_returns(tmp_path, monkeypatch):
    synced = []
    real = os.fsync

    def spy(fd):
        st = os.fstat(fd)
        synced.append((st.st_ino, stat.S_ISDIR(st.st_mode)))
        real(fd)

    monkeypatch.setattr(os, "fsync", spy)
    with WriteAheadLog.open(tmp_path, fsync=True) as wal:
        ino = os.stat(_wal_path(tmp_path)).st_ino
        for i in range(4):
            before = len(synced)
            wal.append("s0", i, "insert", keys=[i])
            assert synced[before:] == [(ino, False)]
