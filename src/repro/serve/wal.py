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
    def from_body(cls, body: dict) -> "WalRecord":
        return cls(
            lsn=body["lsn"],
            sid=body["sid"],
            op_id=body["op_id"],
            kind=body["kind"],
            keys=body.get("keys", []),
            pay=body.get("pay", []),
            count=body.get("count", 0),
            result=body.get("result"),
        )


def _encode(body: dict) -> str:
    text = canonical_json(body)
    crc = zlib.crc32(text.encode("utf-8")) & 0xFFFFFFFF
    return f"{crc:08x} {text}"


def _decode(line: str) -> dict | None:
    """Parse one journal line; None means torn/corrupt."""
    if len(line) < 10 or line[8] != " ":
        return None
    crc_hex, text = line[:8], line[9:]
    try:
        crc = int(crc_hex, 16)
    except ValueError:
        return None
    if zlib.crc32(text.encode("utf-8")) & 0xFFFFFFFF != crc:
        return None
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return None


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
            raw = path.read_text(encoding="utf-8")
            lines = raw.splitlines()
            bad_at: int | None = None
            for i, line in enumerate(lines):
                if not line.strip():
                    continue
                body = _decode(line)
                if body is None:
                    bad_at = i
                    break
                rec = WalRecord.from_body(body)
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
                keep = "".join(line + "\n" for line in lines[:bad_at])
                path.write_text(keep, encoding="utf-8")
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
