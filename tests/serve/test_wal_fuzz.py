"""WAL reader fuzz: a damaged journal recovers a prefix or fails closed.

Each example journals a few records, damages the file, and reopens it.
``WriteAheadLog.open`` may only recover a prefix of the journal, made
of records written wholly before the damage, or raise
:class:`DurabilityError`; any other exception fails the test.  After a
recovery the log must take a new append and reopen with exactly the
recovered records plus that one.

Damage comes in four kinds: truncation (a crash mid-append), bit flips
(in the frames or the preallocated zero tail after them), frames whose
CRC is correct over a body no append could have written, which must
raise wherever they sit, and length words that fail the length check,
which read as a torn tail when last and as corruption otherwise.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DurabilityError
from repro.serve.wal import WriteAheadLog

from .conftest import frame_spans, framed, header, reheaded

keys_st = st.lists(st.integers(-2**63, 2**63 - 1), max_size=4)
ops_st = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), keys_st),
        st.tuples(st.just("deletemin"), st.none() | keys_st),
    ),
    min_size=1,
    max_size=8,
)
sid_st = st.text(min_size=1, max_size=6)


def _view(rec) -> tuple:
    """Everything a record holds, as plain comparable values."""
    return (rec.lsn, rec.sid, rec.op_id, rec.kind, rec.count, rec.no_result,
            rec.keys.dtype.str, rec.keys.tolist(), rec.pay.dtype.str,
            rec.pay.tolist())


def _journal(directory: Path, ops, sid: str) -> list[tuple]:
    """Journal ``ops``; returns each record's :func:`_view`."""
    with WriteAheadLog.open(directory) as wal:
        for op_id, (kind, keys) in enumerate(ops):
            if kind == "insert":
                wal.append(sid, op_id, kind, keys=np.array(keys, np.int64),
                           pay=np.array([[k] for k in keys], np.int64)
                           .reshape(len(keys), 1))
            else:
                wal.append(sid, op_id, kind,
                           keys=None if keys is None else np.array(keys, np.int64),
                           count=len(keys or ()) + 1)
        return [_view(r) for r in wal.records()]


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
        got = [_view(r) for r in wal.records()]
        assert len(got) <= intact
        assert got == written[: len(got)]
        new = _view(wal.append("after", 0, "insert", keys=[1]))
        assert new[0] == len(got) + 1
    with WriteAheadLog.open(directory) as wal:
        assert [_view(r) for r in wal.records()] == got + [new]
    return len(got)


@settings(max_examples=60, deadline=None)
@given(ops=ops_st, sid=sid_st, data=st.data())
def test_truncated_journal_recovers_whole_records(ops, sid, data):
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        written = _journal(d, ops, sid)
        path = d / WriteAheadLog.FILENAME
        raw = path.read_bytes()
        ends = [end for _, end in frame_spans(raw)]
        # half the cuts fall exactly at a frame boundary or one byte short
        cut = data.draw(st.one_of(
            st.integers(0, ends[-1] + 16),
            st.sampled_from(ends + [e - 1 for e in ends])), label="cut")
        path.write_bytes(raw[:cut])
        whole = sum(end <= cut for end in ends)
        assert _reopen(d, written, whole) == whole


@settings(max_examples=80, deadline=None)
@given(ops=ops_st, sid=sid_st, tail=st.booleans(), data=st.data())
def test_bit_flipped_journal_recovers_prefix_or_raises(ops, sid, tail, data):
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        written = _journal(d, ops, sid)
        path = d / WriteAheadLog.FILENAME
        raw = bytearray(path.read_bytes())
        spans = frame_spans(bytes(raw))
        last = spans[-1][0]
        # past the last frame lies the preallocated zero tail
        at = data.draw(st.integers(last if tail else 0, spans[-1][1] + 16),
                       label="byte")
        raw[at] ^= 1 << data.draw(st.integers(0, 7), label="bit")
        path.write_bytes(bytes(raw))
        before = sum(end <= at for _, end in spans)
        got = _reopen(d, written, before)
        if at < last:
            # a damaged frame with frames after it is never a torn tail
            assert got is None
        elif at < spans[-1][1]:
            # a flipped final frame is cut off as a torn tail; only a
            # shortened length word can expose its rest as nonzero bytes
            in_length = last + 4 <= at < last + 8
            assert got == len(written) - 1 or in_length and got is None


def _hostile_frames(frame: bytes) -> list[bytes]:
    """CRC-valid frames that no append could have written."""
    body, head = frame[8:], header(frame)
    return [
        reheaded(frame, kind=0), reheaded(frame, kind=7),
        reheaded(frame, lsn=0), reheaded(frame, lsn=-3),
        reheaded(frame, kind=1, count=2), reheaded(frame, kind=1, flags=1),
        reheaded(frame, kind=2, count=0), reheaded(frame, kind=2, flags=6),
        reheaded(frame, n=1 << 20), reheaded(frame, n=head["n"] + 1),
        reheaded(frame, sid_len=head["sid_len"] + 8),
        reheaded(frame, sid_len=1 << 30),
        reheaded(frame, key_dt=b"<U1"), reheaded(frame, pay_dt=b"|O"),
        reheaded(frame, key_dt=b"\xff\xfe"),
        framed(body + bytes(8)), framed(body[:40]),
        framed(body[:48] + b"\x80" + body[49:]),  # a lone continuation byte
    ]


@settings(max_examples=30, deadline=None)
@given(ops=ops_st, sid=sid_st, data=st.data())
def test_recrced_hostile_body_raises(ops, sid, data):
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        _journal(d, ops, sid)
        path = d / WriteAheadLog.FILENAME
        raw = path.read_bytes()
        spans = frame_spans(raw)
        at = data.draw(st.integers(0, len(spans) - 1), label="frame")
        start, end = spans[at]
        for hostile in _hostile_frames(raw[start:end]):
            path.write_bytes(raw[:start] + hostile + raw[end:spans[-1][1]])
            with pytest.raises(DurabilityError):
                WriteAheadLog.open(d)


@settings(max_examples=40, deadline=None)
@given(ops=ops_st, sid=sid_st, data=st.data())
def test_frame_failing_its_length_check_is_corrupt(ops, sid, data):
    """A length word that is no multiple of 8, or runs the frame into
    the one after it, reads as a torn tail when its frame is last and
    as corruption when frames follow it (or, for a shortened last
    frame, when its cut-off bytes are not all zero)."""
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        written = _journal(d, ops, sid)
        path = d / WriteAheadLog.FILENAME
        raw = bytearray(path.read_bytes())
        spans = frame_spans(bytes(raw))
        at = data.draw(st.integers(0, len(spans) - 1), label="frame")
        start, end = spans[at]
        blen = end - start - 8
        bad = data.draw(st.sampled_from(
            [blen - 1, blen - 4, blen + 3, blen + 8]), label="length")
        if at == len(spans) - 1 and bad > blen:
            bad = blen + 3  # past the last frame lie zeros, not a frame
        raw[start + 4:start + 8] = bad.to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        got = _reopen(d, written, at)
        if at < len(spans) - 1:
            assert got is None
        else:
            # a shortened final frame leaves its own last bytes after it
            assert got == (None if any(raw[start + 8 + bad:end]) else at)
