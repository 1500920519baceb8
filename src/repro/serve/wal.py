"""Write-ahead op journal: CRC-guarded JSON lines, redo-log semantics.

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
One record per line::

    <crc32 hex> <canonical JSON body>

The CRC covers the JSON bytes.  Because appends are flushed line-at-a-
time, the only corruption a crash can produce is a torn final line;
:meth:`WriteAheadLog.open` therefore truncates a trailing partial or
CRC-failing record (and only the trailing one — a bad record *followed
by* valid ones means real corruption and raises).
"""

from __future__ import annotations

import json
import os
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import DurabilityError
from ..obs.events import WAL_APPEND

__all__ = ["WalRecord", "WriteAheadLog"]


def canonical_json(obj) -> str:
    """Canonical encoding shared by WAL records, checkpoints, digests."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class WalRecord:
    """One journaled operation.

    ``result`` is ``None`` for inserts; for deletemins it records the
    keys (and payload rows) the op returned, which replay cross-checks
    and the conservation audit treats as the removed-multiset ledger.
    """

    lsn: int
    sid: str
    op_id: int
    kind: str  # "insert" | "deletemin"
    keys: list = field(default_factory=list)
    pay: list = field(default_factory=list)
    count: int = 0
    result: dict | None = None

    def to_body(self) -> dict:
        body = {
            "lsn": self.lsn,
            "sid": self.sid,
            "op_id": self.op_id,
            "kind": self.kind,
        }
        if self.kind == "insert":
            body["keys"] = self.keys
            body["pay"] = self.pay
        else:
            body["count"] = self.count
            body["result"] = self.result
        return body

    @classmethod
    def from_body(cls, body) -> "WalRecord":
        """The record of a decoded body.

        Raises :class:`DurabilityError` unless ``body`` has the shape
        :meth:`to_body` writes: an object with every field of its kind,
        each of its type (JSON booleans are not integers), a positive
        ``lsn`` and ``count``, and a ``result`` holding ``keys``/``pay``.
        """
        if not isinstance(body, dict):
            raise DurabilityError(
                f"WAL body is a JSON {type(body).__name__}, not an object")
        kind = body.get("kind")
        fields = _FIELDS.get(kind) if isinstance(kind, str) else None
        if fields is None:
            raise DurabilityError(f"WAL body has unknown kind {kind!r:.40}")
        for name, types in fields.items():
            if name not in body:
                raise DurabilityError(f"WAL body lacks {name!r}")
            value = body[name]
            if isinstance(value, bool) or not isinstance(value, types):
                raise DurabilityError(f"WAL field {name!r} is {value!r:.40}")
        if body["lsn"] < 1:
            raise DurabilityError(f"WAL record has lsn {body['lsn']}")
        common = (body["lsn"], body["sid"], body["op_id"], body["kind"])
        if body["kind"] == "insert":
            return cls(*common, keys=body["keys"], pay=body["pay"])
        result = body["result"]
        if body["count"] < 1 or result is not None and not all(
            isinstance(result.get(f), list) for f in ("keys", "pay")
        ):
            raise DurabilityError(
                f"WAL record {body['lsn']}: deletemin({body['count']}) with "
                f"result {result!r:.40}")
        return cls(*common, count=body["count"], result=result)


#: the fields :meth:`WalRecord.to_body` writes, by kind, with their types
_COMMON = {"lsn": int, "sid": str, "op_id": int, "kind": str}
_FIELDS = {
    "insert": {**_COMMON, "keys": list, "pay": list},
    "deletemin": {**_COMMON, "count": int, "result": (dict, type(None))},
}


def _encode(body: dict) -> str:
    text = canonical_json(body)
    crc = zlib.crc32(text.encode("utf-8")) & 0xFFFFFFFF
    return f"{crc:08x} {text}"


def _decode(line: str) -> dict | None:
    """Parse one journal line; None means torn/corrupt.

    The CRC must read exactly as :func:`_encode` writes it, eight
    lowercase hex digits: ``int(..., 16)`` would also take ``A-F`` or a
    leading space, and one flipped bit makes either from a valid CRC.
    """
    text = line[9:]
    if line[:9] != f"{zlib.crc32(text.encode('utf-8')) & 0xFFFFFFFF:08x} ":
        return None
    try:
        body = json.loads(text)
    except (ValueError, RecursionError):
        # not JSON (JSONDecodeError is a ValueError), an integer past
        # the digit limit, or nesting past the recursion limit
        return None
    if body is None:
        # None marks a torn line, but this ``null`` passed its CRC
        raise DurabilityError("WAL body is JSON null, not an object")
    return body


class WriteAheadLog:
    """Append-only journal of :class:`WalRecord` lines.

    Construct via :meth:`open`, which scans the existing file, recovers
    its tail discipline (truncating a torn final record), and positions
    the next LSN after the last durable one.  ``obs`` (optional
    :class:`~repro.obs.events.EventBus`) gets a ``wal.append`` event
    per record.
    """

    FILENAME = "wal.jsonl"

    def __init__(self, path: Path, records: list[WalRecord], obs=None,
                 fsync: bool = False, metrics=None):
        self.path = path
        self._records = records
        self._next_lsn = (records[-1].lsn + 1) if records else 1
        self._fh = open(path, "a", encoding="utf-8")
        self._obs = obs
        self._fsync = fsync
        self.metrics = metrics

    @classmethod
    def open(cls, directory: str | Path, obs=None,
             fsync: bool = False, metrics=None) -> "WriteAheadLog":
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / cls.FILENAME
        records: list[WalRecord] = []
        if path.exists():
            # bytes, decoded line by line: a line that is not UTF-8 is as
            # corrupt as one failing its CRC
            raw = path.read_bytes()
            lines = raw.split(b"\n")
            if not lines[-1]:
                lines.pop()  # the final record's newline
            bad_at: int | None = None
            for i, line in enumerate(lines):
                if not line.strip():
                    continue
                try:
                    body = _decode(line.decode("utf-8"))
                    rec = None if body is None else WalRecord.from_body(body)
                except UnicodeDecodeError:
                    rec = None
                except DurabilityError as exc:
                    raise DurabilityError(f"{path}: line {i + 1}: {exc}") from None
                if rec is None:
                    bad_at = i
                    break
                if records and rec.lsn != records[-1].lsn + 1:
                    raise DurabilityError(
                        f"{path}: LSN gap at line {i + 1}: "
                        f"{records[-1].lsn} -> {rec.lsn}"
                    )
                records.append(rec)
            if bad_at is not None:
                if bad_at != len(lines) - 1:
                    raise DurabilityError(
                        f"{path}: corrupt record at line {bad_at + 1} with "
                        f"{len(lines) - bad_at - 1} valid records after it"
                    )
                # torn tail: the crash interrupted the final append;
                # truncate it so the file is clean for new appends
                path.write_bytes(b"".join(line + b"\n" for line in lines[:bad_at]))
            elif raw and not raw.endswith(b"\n"):
                # the crash cut only the final newline: restore it, or the
                # next append would run on into that record's line
                with open(path, "ab") as fh:
                    fh.write(b"\n")
        return cls(path, records, obs=obs, fsync=fsync, metrics=metrics)

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
               count: int = 0, result: dict | None = None) -> WalRecord:
        """Durably journal one op; returns the record with its LSN."""
        rec = WalRecord(
            lsn=self._next_lsn,
            sid=sid,
            op_id=op_id,
            kind=kind,
            keys=list(keys) if keys is not None else [],
            pay=[list(r) for r in pay] if pay is not None else [],
            count=count,
            result=result,
        )
        # host wall clock, measurement only: the elapsed time feeds a
        # histogram and never a decision, so determinism is untouched
        t0 = time.perf_counter_ns() if self.metrics is not None else 0
        self._fh.write(_encode(rec.to_body()) + "\n")
        self._fh.flush()
        if self._fsync:
            # simulated crashes kill the server thread, not the host, so
            # a flush already makes the record durable for campaigns;
            # fsync is the knob for real power-loss durability
            os.fsync(self._fh.fileno())
        self._records.append(rec)
        self._next_lsn += 1
        if self.metrics is not None:
            mode = "fsync" if self._fsync else "flush"
            self.metrics.histogram(
                "repro_wal_append_host_ns",
                help="host wall time of one WAL append (write+flush)",
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
