"""WAL reader fuzz: a damaged journal recovers a prefix or fails closed.

Each example journals a few records, damages the file, and reopens it.
``WriteAheadLog.open`` may only recover a prefix of the journal, made
of records written wholly before the damage, or raise
:class:`DurabilityError`; any other exception fails the test.  After a
recovery the log must take a new append and reopen with exactly the
recovered records plus that one.

Damage comes in three kinds: truncation (a crash mid-append), bit
flips, and lines whose CRC is correct over a body no append could have
written (a JSON non-object, a missing field, a mistyped one), which
must raise wherever they sit.
"""

import tempfile
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DurabilityError
from repro.serve.wal import WriteAheadLog, _encode

keys_st = st.lists(st.integers(-2**63, 2**63 - 1), max_size=4)
ops_st = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), keys_st),
        st.tuples(st.just("deletemin"), keys_st),
    ),
    min_size=1,
    max_size=8,
)
sid_st = st.text(min_size=1, max_size=6)


def _journal(directory: Path, ops, sid: str) -> list[dict]:
    """Journal ``ops``; returns each record's ``to_body()``."""
    with WriteAheadLog.open(directory) as wal:
        for op_id, (kind, keys) in enumerate(ops):
            if kind == "insert":
                wal.append(sid, op_id, kind, keys=keys, pay=[[k] for k in keys])
            else:
                wal.append(sid, op_id, kind, count=len(keys) + 1,
                           result={"keys": keys, "pay": []})
        return [r.to_body() for r in wal.records()]


def _line_ends(raw: bytes) -> list[int]:
    """Offset just past each record's newline."""
    return [i + 1 for i, b in enumerate(raw) if b == ord("\n")]


def _reopen(directory: Path, written: list, intact: int):
    """Open; on recovery check the prefix and that appends continue.

    ``intact`` bounds the prefix: only the first ``intact`` records were
    written wholly before the damage.  Returns the recovered count, or
    None when the open raised DurabilityError."""
    try:
        wal = WriteAheadLog.open(directory)
    except DurabilityError:
        return None
    with wal:
        got = [r.to_body() for r in wal.records()]
        assert len(got) <= intact
        assert got == written[: len(got)]
        new = wal.append("after", 0, "insert", keys=[1], pay=[])
        assert new.lsn == len(got) + 1
    with WriteAheadLog.open(directory) as wal:
        assert [r.to_body() for r in wal.records()] == got + [new.to_body()]
    return len(got)


@settings(max_examples=60, deadline=None)
@given(ops=ops_st, sid=sid_st, data=st.data())
def test_truncated_journal_recovers_whole_records(ops, sid, data):
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        written = _journal(d, ops, sid)
        path = d / WriteAheadLog.FILENAME
        raw = path.read_bytes()
        ends = _line_ends(raw)
        # half the cuts drop exactly one record's newline
        cut = data.draw(st.one_of(st.integers(0, len(raw)),
                                  st.sampled_from([e - 1 for e in ends])),
                        label="cut")
        path.write_bytes(raw[:cut])
        # a record survives when its line, bar the newline, was written
        whole = sum(end - 1 <= cut for end in ends)
        assert _reopen(d, written, whole) == whole


@settings(max_examples=80, deadline=None)
@given(ops=ops_st, sid=sid_st, tail=st.booleans(), data=st.data())
def test_bit_flipped_journal_recovers_prefix_or_raises(ops, sid, tail, data):
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        written = _journal(d, ops, sid)
        path = d / WriteAheadLog.FILENAME
        raw = bytearray(path.read_bytes())
        ends = _line_ends(raw)
        lo = ends[-2] if tail and len(ends) > 1 else 0
        at = data.draw(st.integers(lo, len(raw) - 1), label="byte")
        raw[at] ^= 1 << data.draw(st.integers(0, 7), label="bit")
        path.write_bytes(bytes(raw))
        before = sum(end <= at for end in ends)
        got = _reopen(d, written, before)
        if at >= lo > 0 or len(ends) == 1:
            # the torn final record is cut off, unless the flip made a
            # newline and so split it into two corrupt lines
            assert got == len(written) - 1 or raw[at] == ord("\n")


def _wrong_types(value):
    """JSON values of another type than ``value``'s."""
    pool = [None, True, 1, -7, 2.5, "x", "7", [], [1], {}, {"keys": []}]
    return [v for v in pool if type(v) is not type(value)]


def _hostile_bodies(body: dict):
    """Bodies with a correct CRC that no append could have written."""
    out = [123, "text", None, True, [body], []]
    for field in body:
        out.append({k: v for k, v in body.items() if k != field})
        out += [{**body, field: v} for v in _wrong_types(body[field])
                if not (field == "result" and v is None)]  # None: no result
    out += [{**body, "lsn": 0}, {**body, "lsn": -3}, {**body, "kind": "upsert"},
            {**body, "kind": ["insert"]}]
    if body["kind"] == "deletemin":
        out += [{**body, "count": 0},
                {**body, "result": {"keys": []}},
                {**body, "result": {"keys": [1], "pay": 5}}]
    return out


@settings(max_examples=30, deadline=None)
@given(ops=ops_st, sid=sid_st, data=st.data())
def test_recrced_hostile_body_raises(ops, sid, data):
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        written = _journal(d, ops, sid)
        path = d / WriteAheadLog.FILENAME
        lines = path.read_bytes().split(b"\n")[:-1]
        at = data.draw(st.integers(0, len(lines)), label="line")
        # bodies shaped like the record they replace (or the next one)
        like = dict(written[min(at, len(written) - 1)], lsn=at + 1)
        for body in _hostile_bodies(like):
            hostile = lines[:at] + [_encode(body).encode()] + lines[at + 1:]
            path.write_bytes(b"".join(line + b"\n" for line in hostile))
            with pytest.raises(DurabilityError):
                WriteAheadLog.open(d)


@settings(max_examples=40, deadline=None)
@given(ops=ops_st, sid=sid_st, data=st.data())
def test_recrced_non_json_line_is_corrupt(ops, sid, data):
    """A CRC-correct line that does not parse counts as corrupt: a torn
    tail when it is last, corruption when records follow it."""
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        written = _journal(d, ops, sid)
        path = d / WriteAheadLog.FILENAME
        lines = path.read_bytes().split(b"\n")[:-1]
        at = data.draw(st.integers(0, len(lines) - 1), label="line")
        text = data.draw(st.sampled_from(
            ["{not json", "[" * 100_000, "1" * 5000, '{"lsn": 1']), label="text")
        crc = zlib.crc32(text.encode()) & 0xFFFFFFFF
        lines[at] = f"{crc:08x} {text}".encode()
        path.write_bytes(b"".join(line + b"\n" for line in lines))
        got = _reopen(d, written, at)
        assert got == (at if at == len(lines) - 1 else None)
