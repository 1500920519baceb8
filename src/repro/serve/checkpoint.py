"""Checkpoint store: integrity-hashed queue snapshots + state digests.

A checkpoint is one JSON file ``ckpt-<lsn>.json`` holding the queue's
canonical :meth:`~repro.core.native.NativeBGPQ.export_state` snapshot,
the LSN of the last WAL record it covers, and a sha256 over the
canonical JSON of both — so a half-written checkpoint (crash during
save) is detected and skipped, and recovery falls back to the previous
one plus a longer WAL replay.  The store keeps the newest ``keep``
checkpoints and prunes older files on save.

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
from pathlib import Path

from ..errors import DurabilityError
from ..obs.events import SERVE_CHECKPOINT
from .wal import canonical_json

__all__ = ["CheckpointStore", "state_digest"]


def state_digest(state: dict) -> str:
    """sha256 hex of the canonical JSON encoding of a queue state."""
    return hashlib.sha256(canonical_json(state).encode("utf-8")).hexdigest()


class CheckpointStore:
    """Manages ``ckpt-<lsn>.json`` files in one data directory."""

    PREFIX = "ckpt-"

    def __init__(self, directory: str | Path, keep: int = 2, obs=None):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.keep = max(1, keep)
        self._obs = obs

    def _path_for(self, lsn: int) -> Path:
        return self.directory / f"{self.PREFIX}{lsn:012d}.json"

    def _checkpoint_paths(self) -> list[Path]:
        """All checkpoint files, oldest LSN first."""
        return sorted(self.directory.glob(f"{self.PREFIX}*.json"))

    # -- save ------------------------------------------------------------
    def save(self, state: dict, lsn: int, extra: dict | None = None) -> Path:
        """Write a checkpoint covering the WAL up to ``lsn`` (inclusive).

        The integrity hash covers ``{lsn, state}`` so neither can be
        swapped without detection.  Writes via a temp file + rename so
        a crash mid-save leaves no plausible-looking partial file under
        the checkpoint name.
        """
        digest = state_digest({"lsn": lsn, "state": state})
        doc = {"lsn": lsn, "state": state, "sha256": digest}
        if extra:
            doc["extra"] = extra
        path = self._path_for(lsn)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(canonical_json(doc), encoding="utf-8")
        tmp.rename(path)
        self._prune()
        if self._obs is not None:
            keys = sum(len(n["keys"]) for n in state.get("nodes", []))
            keys += len(state.get("buffer", {}).get("keys", []))
            self._obs.emit_here(SERVE_CHECKPOINT, lsn=lsn, keys=keys)
        return path

    def _prune(self) -> None:
        paths = self._checkpoint_paths()
        for old in paths[: -self.keep]:
            old.unlink(missing_ok=True)

    # -- load ------------------------------------------------------------
    def load_latest(self) -> tuple[dict, int] | None:
        """Newest checkpoint that passes integrity verification.

        Returns ``(state, lsn)``, or ``None`` when no checkpoint exists
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
            doc = self._verify(path)
            if doc is not None:
                return doc["state"], doc["lsn"]
        raise DurabilityError(
            f"all {len(paths)} checkpoints in {self.directory} fail "
            "integrity verification; no safe state to recover from"
        )

    def _verify(self, path: Path) -> dict | None:
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, OSError):
            return None
        if not isinstance(doc, dict) or "state" not in doc or "lsn" not in doc:
            return None
        if state_digest({"lsn": doc["lsn"], "state": doc["state"]}) != doc.get("sha256"):
            return None
        return doc
