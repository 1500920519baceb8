"""Write-ahead log: round-trips, tail discipline, corruption detection."""

import pytest

from repro.errors import DurabilityError
from repro.serve.wal import WalRecord, WriteAheadLog, _decode, _encode


def _wal_path(tmp_path):
    return tmp_path / WriteAheadLog.FILENAME


def test_append_assigns_consecutive_lsns(tmp_path):
    with WriteAheadLog.open(tmp_path) as wal:
        r1 = wal.append("s0", 0, "insert", keys=[3, 1])
        r2 = wal.append("s0", 1, "deletemin", count=2,
                        result={"keys": [1, 3], "pay": []})
        assert (r1.lsn, r2.lsn) == (1, 2)
        assert wal.last_lsn == 2
        assert wal.next_lsn == 3


def test_reopen_round_trips_records(tmp_path):
    with WriteAheadLog.open(tmp_path) as wal:
        wal.append("s0", 0, "insert", keys=[5, 2, 9], pay=[[1], [2], [3]])
        wal.append("s1", 0, "deletemin", count=1,
                   result={"keys": [2], "pay": [[2]]})
    with WriteAheadLog.open(tmp_path) as wal:
        recs = wal.records()
        assert [r.lsn for r in recs] == [1, 2]
        assert recs[0].keys == [5, 2, 9]
        assert recs[0].pay == [[1], [2], [3]]
        assert recs[1].result == {"keys": [2], "pay": [[2]]}
        # appends continue after the last durable LSN
        assert wal.append("s1", 1, "insert", keys=[7]).lsn == 3


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
        for i in range(6):
            wal.append("s0", i, "insert", keys=[i])
    path = _wal_path(tmp_path)
    path.write_text("".join(path.read_text().splitlines(True)[2:]))
    with WriteAheadLog.open(tmp_path) as wal:
        assert wal.first_lsn == 3
        assert [r.lsn for r in wal.records()] == [3, 4, 5, 6]
        assert [r.lsn for r in wal.records(from_lsn=1)] == [3, 4, 5, 6]
        assert [r.lsn for r in wal.records(from_lsn=5)] == [5, 6]
        assert wal.records(from_lsn=7) == []
        wal.append("s0", 6, "insert", keys=[6])
        assert [r.lsn for r in wal.records(from_lsn=6)] == [6, 7]


def test_torn_tail_is_truncated(tmp_path):
    with WriteAheadLog.open(tmp_path) as wal:
        wal.append("s0", 0, "insert", keys=[1])
        wal.append("s0", 1, "insert", keys=[2])
    # simulate a crash mid-append: a partial final line
    with open(_wal_path(tmp_path), "a", encoding="utf-8") as fh:
        fh.write('deadbeef {"lsn": 3, "sid": "s0"')
    with WriteAheadLog.open(tmp_path) as wal:
        assert [r.lsn for r in wal.records()] == [1, 2]
        assert wal.append("s0", 2, "insert", keys=[3]).lsn == 3
    # the torn line is gone from disk, replaced by the new record
    with WriteAheadLog.open(tmp_path) as wal:
        assert [r.lsn for r in wal.records()] == [1, 2, 3]


def test_midfile_corruption_raises(tmp_path):
    with WriteAheadLog.open(tmp_path) as wal:
        for i in range(3):
            wal.append("s0", i, "insert", keys=[i])
    lines = _wal_path(tmp_path).read_text().splitlines()
    lines[1] = lines[1][:-3] + "xxx"  # CRC now fails on a non-final record
    _wal_path(tmp_path).write_text("\n".join(lines) + "\n")
    with pytest.raises(DurabilityError, match="corrupt record at line 2"):
        WriteAheadLog.open(tmp_path)


def test_crc_failing_tail_is_tolerated(tmp_path):
    with WriteAheadLog.open(tmp_path) as wal:
        for i in range(3):
            wal.append("s0", i, "insert", keys=[i])
    lines = _wal_path(tmp_path).read_text().splitlines()
    lines[-1] = lines[-1][:-3] + "xxx"
    _wal_path(tmp_path).write_text("\n".join(lines) + "\n")
    with WriteAheadLog.open(tmp_path) as wal:
        assert [r.lsn for r in wal.records()] == [1, 2]


def test_lsn_gap_raises(tmp_path):
    rec1 = WalRecord(lsn=1, sid="s0", op_id=0, kind="insert", keys=[1])
    rec3 = WalRecord(lsn=3, sid="s0", op_id=1, kind="insert", keys=[2])
    _wal_path(tmp_path).write_text(
        _encode(rec1.to_body()) + "\n" + _encode(rec3.to_body()) + "\n"
    )
    with pytest.raises(DurabilityError, match="LSN gap"):
        WriteAheadLog.open(tmp_path)


def test_decode_rejects_malformed_lines():
    assert _decode("short") is None
    assert _decode("not-hex! {}") is None
    good = _encode({"lsn": 1})
    assert _decode(good) == {"lsn": 1}
    # valid CRC over invalid JSON
    import zlib

    text = "{not json"
    crc = zlib.crc32(text.encode()) & 0xFFFFFFFF
    assert _decode(f"{crc:08x} {text}") is None


def test_decode_rejects_a_crc_that_only_parses_alike():
    """One flipped bit turns a hex letter upper case, or a leading 0
    into a space; ``int(..., 16)`` reads either as the same CRC."""
    lines = [_encode({"lsn": i}) for i in range(200)]
    letter = next(line for line in lines if line[:8] != line[:8].upper())
    zero = next(line for line in lines if line[0] == "0")
    assert _decode(letter) is not None and _decode(zero) is not None
    assert _decode(letter[:8].upper() + letter[8:]) is None
    assert _decode(" " + zero[1:]) is None


def test_empty_dir_starts_at_lsn_one(tmp_path):
    with WriteAheadLog.open(tmp_path) as wal:
        assert wal.next_lsn == 1
        assert wal.records() == []
