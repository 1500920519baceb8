"""Checkpoint store: integrity-hashed binary queue snapshots + state digests.

A checkpoint is one binary file ``ckpt-<lsn>.bin`` holding the live
arena rows of :meth:`~repro.core.native.NativeBGPQ.export_rows`, the
LSN of the last WAL record it covers, and a trailing sha256, so a
half-written checkpoint (crash during save) is detected and skipped,
and recovery falls back to the previous one plus a longer WAL replay.
All integers are little-endian::

    magic    8 bytes   b"BGPQCKPT"
    version  u32       1
    hlen     u32       length of the header in bytes
    header   hlen      canonical JSON: the export header plus "lsn"
    counts   int64 x (heap_size + 1)      records in rows 0..heap_size
    keys     key_dtype x n                n = sum(counts), row order
    pay      payload_dtype x n x payload_width
    sha256   32 bytes  over everything before it

The loader checks every length against the header before it reads an
array, so a damaged file is skipped, never misread.  The store keeps
the newest ``keep`` checkpoints and prunes older files on save.  With
``fsync`` set, a save fsyncs the temp file before the rename and the
directory after it, so a checkpoint that recovery may rely on survives
power loss.

:func:`state_digest` is the byte-identity yardstick of the whole
durability design: two queues are *the same state* iff the sha256 of
their canonical-JSON exported state matches.  Arena capacity, scratch
contents and growth history are excluded from the export precisely so
that "recovered replica" and "uninterrupted oracle" can be compared
with one string equality.
"""

from __future__ import annotations

import hashlib
import json
import numbers
import os
import struct
from pathlib import Path

import numpy as np

from ..core.native import StateRows
from ..errors import ConfigurationError, DurabilityError
from ..obs.events import SERVE_CHECKPOINT

__all__ = ["CheckpointStore", "decode", "encode", "state_digest"]

MAGIC = b"BGPQCKPT"
VERSION = 1
_PREFIX = struct.Struct("<8sII")  # magic, version, header length
_SHA_LEN = 32


def canonical_json(obj) -> str:
    """Canonical encoding shared by checkpoint headers and state digests."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def state_digest(state: dict) -> str:
    """sha256 hex of the canonical JSON encoding of a queue state."""
    return hashlib.sha256(canonical_json(state).encode("utf-8")).hexdigest()


def _le(arr: np.ndarray) -> np.ndarray:
    """``arr`` with little-endian elements (no copy on a little-endian host)."""
    return np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<"))


def _dtype(name) -> np.dtype | None:
    """The numeric dtype a header names, or None for anything else."""
    if not isinstance(name, str):
        return None
    try:
        dt = np.dtype(name)
    except TypeError:
        return None
    return dt if dt.kind in "biuf" and dt.name == name else None


def _count(value) -> int | None:
    """``value`` as an int >= 0, or None."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= 0:
        return int(value)
    return None


def encode(rows: StateRows, lsn: int) -> bytes:
    """One checkpoint file's bytes for ``rows`` covering the WAL to ``lsn``."""
    header = canonical_json({**rows.header, "lsn": lsn}).encode("utf-8")
    body = b"".join((
        _PREFIX.pack(MAGIC, VERSION, len(header)),
        header,
        np.ascontiguousarray(rows.counts, dtype="<i8"),
        _le(rows.keys),
        _le(rows.pay),
    ))
    return body + hashlib.sha256(body).digest()


def decode(data: bytes) -> tuple[StateRows, int] | None:
    """``(rows, lsn)`` from checkpoint bytes; None when they are damaged.

    Checks the hash, the magic and version, and that the counts, keys
    and payload bytes are exactly as long as the header says.  Whether
    the rows form a heap this queue can take is left to
    :meth:`~repro.core.native.NativeBGPQ.restore_rows`.
    """
    if len(data) < _PREFIX.size + _SHA_LEN:
        return None
    body = memoryview(data)[:-_SHA_LEN]
    if hashlib.sha256(body).digest() != data[-_SHA_LEN:]:
        return None
    magic, version, hlen = _PREFIX.unpack_from(body)
    at = _PREFIX.size + hlen
    if magic != MAGIC or version != VERSION or at > len(body):
        return None
    try:
        header = json.loads(bytes(body[_PREFIX.size:at]).decode("utf-8"))
    except (UnicodeDecodeError, ValueError, RecursionError):
        return None
    if not isinstance(header, dict):
        return None
    lsn = _count(header.pop("lsn", None))
    heap_size = _count(header.get("heap_size"))
    width = _count(header.get("payload_width"))
    key_dt = _dtype(header.get("key_dtype"))
    pay_dt = _dtype(header.get("payload_dtype"))
    # `is`, not `in`: np.dtype(None) is float64, so `==` would match it
    if any(v is None for v in (lsn, heap_size, width, key_dt, pay_dt)):
        return None
    nc = 8 * (heap_size + 1)
    if at + nc > len(body):
        return None
    counts = np.frombuffer(body, dtype="<i8", count=heap_size + 1, offset=at)
    if (counts < 0).any():
        return None
    n = sum(counts.tolist())
    key_at = at + nc
    pay_at = key_at + n * key_dt.itemsize
    if pay_at + n * width * pay_dt.itemsize != len(body):
        return None
    keys = np.frombuffer(body, dtype=key_dt.newbyteorder("<"), count=n,
                         offset=key_at)
    pay = np.frombuffer(body, dtype=pay_dt.newbyteorder("<"), count=n * width,
                        offset=pay_at)
    rows = StateRows(
        header,
        counts.astype(np.int64, copy=False),
        keys.astype(key_dt, copy=False),
        pay.astype(pay_dt, copy=False).reshape(n, width),
    )
    return rows, lsn


class CheckpointStore:
    """Manages ``ckpt-<lsn>.bin`` files in one data directory."""

    PREFIX = "ckpt-"
    SUFFIX = ".bin"

    def __init__(self, directory: str | Path, keep: int = 2, obs=None,
                 fsync: bool = False):
        if keep < 1:
            raise ConfigurationError(f"keep must be >= 1 checkpoint, got {keep}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.keep = keep
        self._obs = obs
        self._fsync = fsync

    def _path_for(self, lsn: int) -> Path:
        return self.directory / f"{self.PREFIX}{lsn:012d}{self.SUFFIX}"

    def _checkpoint_paths(self) -> list[Path]:
        """All checkpoint files, oldest LSN first."""
        return sorted(self.directory.glob(f"{self.PREFIX}*{self.SUFFIX}"))

    # -- save ------------------------------------------------------------
    def save(self, rows: StateRows, lsn: int) -> Path:
        """Write a checkpoint of ``rows`` covering the WAL up to ``lsn``.

        The trailing hash covers the header (``lsn`` included) and every
        row byte, so neither can be swapped without detection.  Writes
        via a temp file + rename so a crash mid-save leaves no
        plausible-looking partial file under the checkpoint name.  With
        ``fsync`` on, the file is synced before the rename and the
        directory after it, before any older checkpoint is pruned.
        """
        path = self._path_for(lsn)
        tmp = path.with_suffix(".tmp")
        with open(tmp, "wb") as fh:
            fh.write(encode(rows, lsn))
            if self._fsync:
                fh.flush()
                os.fsync(fh.fileno())
        tmp.rename(path)
        if self._fsync:
            fd = os.open(self.directory, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
        self._prune()
        if self._obs is not None:
            self._obs.emit_here(SERVE_CHECKPOINT, lsn=lsn, keys=int(rows.keys.size))
        return path

    def _prune(self) -> None:
        paths = self._checkpoint_paths()
        for old in paths[: -self.keep]:
            old.unlink(missing_ok=True)

    # -- load ------------------------------------------------------------
    def load_latest(self) -> tuple[StateRows, int] | None:
        """Newest checkpoint that passes integrity verification.

        Returns ``(rows, lsn)``, or ``None`` when no checkpoint exists
        yet (recovery then replays the WAL from LSN 1 against an empty
        queue).  A corrupt newest checkpoint falls back to the previous
        one; if *every* present checkpoint is corrupt this store has no
        safe state and :class:`DurabilityError` is raised (the service
        then falls back to a full WAL replay when the log allows it).
        """
        paths = self._checkpoint_paths()
        if not paths:
            return None
        for path in reversed(paths):
            try:
                loaded = decode(path.read_bytes())
            except OSError:
                continue
            if loaded is not None:
                return loaded
        raise DurabilityError(
            f"all {len(paths)} checkpoints in {self.directory} fail "
            "integrity verification; no safe state to recover from"
        )
