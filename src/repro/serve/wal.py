"""Write-ahead op journal: CRC-guarded binary frames, redo-log semantics.

Every operation the durable server applies is appended here *in the
same atomic step* that applies it (the server's journal+apply block
runs between engine yields, so a simulated crash can never separate
them).  Recovery loads the newest valid checkpoint and replays the
journal suffix — the classic redo-log protocol, with the BGPQ twist
that ``deletemin`` results are *recorded* in the journal: replay
re-executes the op and cross-checks the recorded result, turning any
divergence into a hard :class:`~repro.errors.DurabilityError` instead
of silently serving from a corrupt queue.

File format
-----------
``wal.bin`` is a run of frames, each written with one ``pwrite`` at the
end of the last one.  All integers are little-endian, and every frame
and array starts 8-byte aligned::

    crc      u32       crc32 over len and body
    len      u32       body length in bytes, a multiple of 8
    body:
      lsn      i64
      op_id    i64
      count    i64     deletemin: keys asked for; insert: 0
      n        u32     records in the arrays
      width    u32     payload columns per record
      sid_len  u32     sid bytes
      kind     u8      1 insert, 2 deletemin
      flags    u8      bit 0: a deletemin journaled without a result
      key_dt   4s      numpy ``dtype.str`` of the keys, NUL-padded
      pay_dt   4s      numpy ``dtype.str`` of the payload, NUL-padded
      (2 zero bytes)
      sid      sid_len UTF-8, zero-padded to 8 bytes
      keys     n x key_dt, zero-padded to 8 bytes
      pay      n x width x pay_dt, zero-padded to 8 bytes

An insert's arrays are its batch; a deletemin's are the keys and
payload rows it returned.  The file grows in :data:`GROW_BYTES` steps
of ``posix_fallocate``, so an append writes into space the file
already holds, and the unwritten rest of the file reads as zeros.  A
zero length word ends the log.  :meth:`WriteAheadLog.open` also ends
the log at the first frame that fails its length or CRC check: a crash
can only tear the frame being appended, so that frame must be the last
thing in the file.  A nonzero byte past it means real corruption and
raises, and so does a whole frame inside its claimed length (a damaged
length word would otherwise hide the frames after it); otherwise the
torn bytes are zeroed so the next append starts clean.  A frame that
passes its CRC but holds what no append writes (an unknown kind or
flag, ``lsn < 1``, lengths that disagree with the body length, a sid
that is not UTF-8, a dtype tag that is not a numeric dtype) raises
wherever it sits.  Whether a record's dtypes and shapes
fit the queue is the replaying service's check.
"""

from __future__ import annotations

import os
import struct
import time
import zlib
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from ..errors import DurabilityError
from ..obs.events import WAL_APPEND

__all__ = ["GROW_BYTES", "WalRecord", "WriteAheadLog"]

#: the journal file grows in steps of this many preallocated bytes
GROW_BYTES = 1 << 20

_PREFIX = struct.Struct("<II")  # crc, body length
_HEAD = struct.Struct("<qqqIIIBB4s4s2x")
_KINDS = {1: "insert", 2: "deletemin"}
_CODES = {kind: code for code, kind in _KINDS.items()}
_NO_RESULT = 1
_PADS = [b"\0" * i for i in range(8)]
_NO_KEYS = np.empty(0, dtype=np.int64)


def _up8(n: int) -> int:
    return n + (-n % 8)


@lru_cache(maxsize=64)
def _dtype(tag: bytes) -> np.dtype | None:
    """The numeric dtype a frame's tag names, or None for anything else."""
    try:
        name = tag.rstrip(b"\0").decode("ascii")
        dt = np.dtype(name)
    except (UnicodeDecodeError, TypeError, ValueError):
        return None
    return dt if dt.kind in "biuf" and dt.str == name else None


@lru_cache(maxsize=64)
def _tag(dt: np.dtype) -> bytes | None:
    """The tag a frame writes for arrays of ``dt``; None if it cannot."""
    tag = dt.str.encode()
    return tag if _dtype(tag) is not None else None


@dataclass(eq=False, slots=True)
class WalRecord:
    """One journaled operation.

    ``keys`` (1-D) and ``pay`` (``(n, width)``) are read-only arrays
    over the frame's bytes: an insert's batch, or the keys and payload
    rows a deletemin returned, which replay cross-checks and the
    conservation audit treats as the removed-multiset ledger.
    ``no_result`` marks a deletemin journaled without a result (its
    arrays are then empty).
    """

    lsn: int
    sid: str
    op_id: int
    kind: str  # "insert" | "deletemin"
    keys: np.ndarray
    pay: np.ndarray
    count: int = 0
    no_result: bool = False


def _frame(lsn: int, sid: str, op_id: int, kind: str, count: int,
           keys: np.ndarray, pay: np.ndarray | None,
           flags: int) -> tuple[bytes, WalRecord]:
    """One frame's bytes (see the module docstring) and its record,
    whose arrays view those bytes.

    ``keys`` must be 1-D and ``pay`` 2-D with a row per key (``None``:
    no payload columns), both of numeric dtypes, or ValueError.
    """
    n = keys.size
    pay_dt = keys.dtype if pay is None else pay.dtype
    width = 0 if pay is None else pay.shape[-1]
    key_tag, pay_tag = _tag(keys.dtype), _tag(pay_dt)
    if keys.ndim != 1 or key_tag is None or pay_tag is None or (
        pay is not None and (pay.ndim != 2 or len(pay) != n)
    ):
        raise ValueError(
            f"a WAL frame holds numeric keys (n,) and payload (n, w), not "
            f"{keys.dtype} {keys.shape} and "
            f"{'no payload' if pay is None else f'{pay.dtype} {pay.shape}'}")
    sid_b = sid.encode("utf-8")
    key_b = keys.tobytes()
    pay_b = b"" if pay is None else pay.tobytes()
    body = b"".join((
        _HEAD.pack(lsn, op_id, count, n, width, len(sid_b), _CODES[kind],
                   flags, key_tag, pay_tag),
        sid_b, _PADS[-len(sid_b) % 8],
        key_b, _PADS[-len(key_b) % 8],
        pay_b, _PADS[-len(pay_b) % 8],
    ))
    blen = len(body)
    crc = zlib.crc32(body, zlib.crc32(blen.to_bytes(4, "little")))
    frame = _PREFIX.pack(crc, blen) + body
    key_at = _PREFIX.size + _HEAD.size + len(sid_b) + len(_PADS[-len(sid_b) % 8])
    pay_at = key_at + _up8(len(key_b))
    return frame, WalRecord(
        lsn, sid, op_id, kind,
        np.frombuffer(frame, keys.dtype, n, key_at),
        np.frombuffer(frame, pay_dt, n * width, pay_at).reshape(n, width),
        count, bool(flags & _NO_RESULT),
    )


def _record(data: bytes, at: int, end: int) -> WalRecord:
    """The record of the CRC-valid body ``data[at:end]``.

    Raises :class:`DurabilityError` unless the body is one an append
    writes: a known kind and flag, ``lsn >= 1``, an insert with
    ``count == 0`` and no flag, a deletemin with ``1 <= count`` and at
    most ``count`` keys (none when flagged), numeric dtype tags, a
    UTF-8 sid, and section lengths that add up to the body length.
    """
    if end - at < _HEAD.size:
        raise DurabilityError(f"body of {end - at} bytes is shorter than "
                              f"the {_HEAD.size}-byte header")
    (lsn, op_id, count, n, width, sid_len, code, flags, key_tag,
     pay_tag) = _HEAD.unpack_from(data, at)
    kind = _KINDS.get(code)
    if kind is None:
        raise DurabilityError(f"unknown kind code {code}")
    if lsn < 1:
        raise DurabilityError(f"lsn {lsn}")
    if kind == "insert" and (count or flags) or kind == "deletemin" and (
        count < 1 or n > count or flags & ~_NO_RESULT or flags and n
    ):
        raise DurabilityError(
            f"lsn={lsn}: {kind} with count {count}, {n} keys, flags {flags}")
    key_dt, pay_dt = _dtype(key_tag), _dtype(pay_tag)
    if key_dt is None or pay_dt is None:
        raise DurabilityError(f"lsn={lsn}: dtype tags {key_tag!r}, {pay_tag!r}")
    key_at = at + _HEAD.size + _up8(sid_len)
    pay_at = key_at + _up8(n * key_dt.itemsize)
    if pay_at + _up8(n * width * pay_dt.itemsize) != end:
        raise DurabilityError(
            f"lsn={lsn}: a {sid_len}-byte sid and {n} records of width "
            f"{width} do not fill a {end - at}-byte body")
    try:
        sid = data[at + _HEAD.size:at + _HEAD.size + sid_len].decode("utf-8")
    except UnicodeDecodeError:
        raise DurabilityError(f"lsn={lsn}: sid is not UTF-8") from None
    keys = np.frombuffer(data, key_dt, n, key_at)
    pay = np.frombuffer(data, pay_dt, n * width, pay_at).reshape(n, width)
    return WalRecord(lsn, sid, op_id, kind, keys, pay, count,
                     bool(flags & _NO_RESULT))


def _hides_a_frame(data: bytes, start: int, stop: int) -> bool:
    """Whether a whole, CRC-valid frame starts at an 8-aligned offset in
    ``data[start:stop]``: a torn frame whose length word claims it."""
    for at in range(start, stop - _PREFIX.size + 1, 8):
        crc, blen = _PREFIX.unpack_from(data, at)
        end = at + _PREFIX.size + blen
        if blen and not blen % 8 and end <= len(data) and zlib.crc32(
                memoryview(data)[at + 4:end]) == crc:
            return True
    return False


def _scan(path: Path, data: bytes) -> tuple[list[WalRecord], int, int]:
    """``(records, end, torn_end)`` of a journal file's bytes.

    ``end`` is where the last whole frame stops; ``data[end:torn_end]``
    is a torn frame (possibly empty), which hides no whole frame, and
    everything past it is zero.
    """
    records: list[WalRecord] = []
    end = 0
    size = torn_end = len(data)
    while end + _PREFIX.size <= size:
        crc, blen = _PREFIX.unpack_from(data, end)
        stop = end + _PREFIX.size + blen
        if not blen or blen % 8 or stop > size or zlib.crc32(
                memoryview(data)[end + 4:stop]) != crc:
            torn_end = min(stop, size)
            break
        try:
            rec = _record(data, end + _PREFIX.size, stop)
        except DurabilityError as exc:
            raise DurabilityError(f"{path}: frame at offset {end}: {exc}") from None
        if records and rec.lsn != records[-1].lsn + 1:
            raise DurabilityError(
                f"{path}: LSN gap at offset {end}: "
                f"{records[-1].lsn} -> {rec.lsn}"
            )
        records.append(rec)
        end = stop
    if np.frombuffer(data, np.uint8, offset=torn_end).any() or _hides_a_frame(
            data, end + _PREFIX.size, torn_end):
        raise DurabilityError(
            f"{path}: corrupt frame at offset {end} with data after it "
            f"(at {len(records)} valid records)"
        )
    return records, end, torn_end


class WriteAheadLog:
    """Append-only journal of :class:`WalRecord` frames.

    Construct via :meth:`open`, which scans the existing file, recovers
    its tail discipline (zeroing a torn final frame), and positions the
    next LSN after the last durable one.  ``obs`` (optional
    :class:`~repro.obs.events.EventBus`) gets a ``wal.append`` event
    per record.
    """

    FILENAME = "wal.bin"

    def __init__(self, path: Path, fh, records: list[WalRecord], end: int,
                 obs=None, fsync: bool = False, metrics=None):
        self.path = path
        self._fh = fh
        self._fd = fh.fileno()
        self._records = records
        self._end = end
        self._size = os.fstat(self._fd).st_size
        self._next_lsn = (records[-1].lsn + 1) if records else 1
        self._obs = obs
        self._fsync = fsync
        self.metrics = metrics

    @classmethod
    def open(cls, directory: str | Path, obs=None,
             fsync: bool = False, metrics=None) -> "WriteAheadLog":
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / cls.FILENAME
        fh = os.fdopen(os.open(path, os.O_RDWR | os.O_CREAT, 0o644), "r+b",
                       buffering=0)
        try:
            data = fh.readall()
            records, end, torn_end = _scan(path, data)
            if data.count(0, end, torn_end) != torn_end - end:
                # torn tail: the crash interrupted the final append; zero
                # it so the next frame is not followed by its leftovers
                os.pwrite(fh.fileno(), bytes(torn_end - end), end)
                if fsync:
                    os.fsync(fh.fileno())
        except BaseException:
            fh.close()
            raise
        return cls(path, fh, records, end, obs=obs, fsync=fsync, metrics=metrics)

    # -- append side -----------------------------------------------------
    @property
    def next_lsn(self) -> int:
        return self._next_lsn

    @property
    def last_lsn(self) -> int:
        return self._next_lsn - 1

    @property
    def first_lsn(self) -> int | None:
        """LSN of the oldest durable record; None for an empty log."""
        return self._records[0].lsn if self._records else None

    def append(self, sid: str, op_id: int, kind: str, *, keys=None, pay=None,
               count: int = 0) -> WalRecord:
        """Durably journal one op; returns the record with its LSN.

        ``keys`` is an insert's batch or a deletemin's returned keys
        (``None`` for a deletemin journaled without a result); ``pay``
        holds their payload rows (``None``: no payload columns).
        """
        # host wall clock, measurement only: the elapsed time feeds a
        # histogram and never a decision, so determinism is untouched
        t0 = time.perf_counter_ns() if self.metrics is not None else 0
        flags = 0
        if keys is None:
            flags = _NO_RESULT if kind == "deletemin" else 0
            keys = _NO_KEYS
        frame, rec = _frame(
            self._next_lsn, sid, op_id, kind, count, np.ascontiguousarray(keys),
            None if pay is None else np.ascontiguousarray(pay), flags,
        )
        end = self._end + len(frame)
        if end > self._size:
            self._grow(end)
        if os.pwrite(self._fd, frame, self._end) != len(frame):
            raise OSError(f"{self.path}: short write of a WAL frame")
        if self._fsync:
            # simulated crashes kill the server thread, not the host, so
            # the write already makes the record durable for campaigns;
            # fsync is the knob for real power-loss durability
            os.fsync(self._fd)
        self._end = end
        self._records.append(rec)
        self._next_lsn += 1
        if self.metrics is not None:
            mode = "fsync" if self._fsync else "flush"
            self.metrics.histogram(
                "repro_wal_append_host_ns",
                help="host wall time of one WAL append (frame, write, fsync)",
                mode=mode,
            ).observe(time.perf_counter_ns() - t0)
            self.metrics.counter(
                "repro_wal_records_total",
                help="records appended to the write-ahead log",
                kind=kind,
            ).inc()
        if self._obs is not None:
            self._obs.emit_here(WAL_APPEND, kind=kind, lsn=rec.lsn)
        return rec

    def _grow(self, end: int) -> None:
        """Preallocate whole :data:`GROW_BYTES` steps up to ``end``."""
        size = end + (-end % GROW_BYTES)
        if hasattr(os, "posix_fallocate"):
            os.posix_fallocate(self._fd, self._size, size - self._size)
        else:  # no preallocation call here: extend the file sparsely
            os.ftruncate(self._fd, size)
        self._size = size

    # -- read side -------------------------------------------------------
    def records(self, from_lsn: int = 1) -> list[WalRecord]:
        """All durable records with ``lsn >= from_lsn``, in LSN order.

        LSNs are contiguous (:meth:`open` rejects a gap), so the suffix
        is one slice at ``from_lsn``'s offset from the oldest record.
        """
        if not self._records:
            return []
        return self._records[max(0, from_lsn - self._records[0].lsn):]

    def __len__(self) -> int:
        return len(self._records)

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
