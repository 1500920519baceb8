"""Persistent run registry: every CLI entrypoint records what it ran.

Perf trajectories and fault campaigns are only useful across sessions
if their runs survive the shell that launched them.  The registry is a
JSON-lines index (``index.jsonl``) plus one artifact directory per
run, rooted at ``$REPRO_REGISTRY_DIR`` (default ``runs/`` under the
working directory; set the variable to an empty string to disable
recording entirely).

Index discipline
----------------
The index is append-only: updating a run appends a *full* new record
with the same ``run_id``, and readers fold the file last-wins.  An
interrupted write can therefore only lose the newest update, never
corrupt history — the same torn-tail tolerance as the serve WAL, for
the same reason.  A record carries::

    {"run_id": "serve-20260808-103000-1f2e3d4c", "kind": "serve",
     "status": "running" | "completed" | "failed",
     "created_at": ..., "updated_at": ...,   # unix seconds + iso8601
     "config": {...}, "summary": {...}}

Artifacts (result JSON, chrome traces, serve data dirs) live under
``<root>/<run_id>/`` so ``repro runs gc`` can drop a run's entire
footprint atomically.
"""

from __future__ import annotations

import json
import os
import shutil
import time
import uuid
from datetime import datetime, timezone
from pathlib import Path

__all__ = ["RunRegistry", "registry_from_env"]

#: environment variable naming the registry root; "" disables recording
REGISTRY_ENV = "REPRO_REGISTRY_DIR"
DEFAULT_ROOT = "runs"


def registry_from_env() -> "RunRegistry | None":
    """The process-wide registry, or None when disabled via the env."""
    root = os.environ.get(REGISTRY_ENV, DEFAULT_ROOT)
    if not root:
        return None
    return RunRegistry(root)


class RunRegistry:
    """JSON-lines run index + per-run artifact directories."""

    INDEX = "index.jsonl"

    def __init__(self, root: str | Path):
        self.root = Path(root)

    @property
    def index_path(self) -> Path:
        return self.root / self.INDEX

    # -- write side ------------------------------------------------------
    def _append(self, record: dict) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        with open(self.index_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")

    def _new_id(self, kind: str) -> str:
        stamp = datetime.now(timezone.utc).strftime("%Y%m%d-%H%M%S")
        return f"{kind}-{stamp}-{uuid.uuid4().hex[:8]}"

    def open_run(self, kind: str, config: dict | None = None) -> str:
        """Register a run as started; returns its run_id."""
        run_id = self._new_id(kind)
        now = time.time()
        self._append({
            "run_id": run_id,
            "kind": kind,
            "status": "running",
            "created_at": now,
            "created_iso": datetime.fromtimestamp(now, timezone.utc).isoformat(),
            "updated_at": now,
            "config": config or {},
            "summary": {},
        })
        return run_id

    def finish(self, run_id: str, status: str = "completed",
               summary: dict | None = None) -> dict:
        """Upsert a run's final status and summary."""
        record = self.get(run_id)
        if record is None:
            raise KeyError(f"unknown run {run_id!r}")
        record["status"] = status
        record["updated_at"] = time.time()
        if summary is not None:
            record["summary"] = summary
        self._append(record)
        return record

    def record(self, kind: str, status: str = "completed",
               config: dict | None = None,
               summary: dict | None = None) -> str:
        """One-shot record of an already-finished run; returns run_id."""
        run_id = self.open_run(kind, config=config)
        self.finish(run_id, status=status, summary=summary or {})
        return run_id

    # -- artifacts -------------------------------------------------------
    def artifact_dir(self, run_id: str) -> Path:
        path = self.root / run_id
        path.mkdir(parents=True, exist_ok=True)
        return path

    def add_artifact(self, run_id: str, name: str, content) -> Path:
        """Store one artifact (dict → JSON, str/bytes verbatim)."""
        path = self.artifact_dir(run_id) / name
        if isinstance(content, (dict, list)):
            path.write_text(json.dumps(content, indent=2, sort_keys=True),
                            encoding="utf-8")
        elif isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(str(content), encoding="utf-8")
        return path

    # -- read side -------------------------------------------------------
    def _fold(self) -> dict[str, dict]:
        """Last-wins fold of the index; skips torn/corrupt lines."""
        runs: dict[str, dict] = {}
        if not self.index_path.exists():
            return runs
        with open(self.index_path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn tail from an interrupted append
                if isinstance(record, dict) and "run_id" in record:
                    runs[record["run_id"]] = record
        return runs

    def list_runs(self, kind: str | None = None) -> list[dict]:
        """Current state of every run, newest first."""
        runs = [
            r for r in self._fold().values()
            if kind is None or r.get("kind") == kind
        ]
        runs.sort(key=lambda r: r.get("created_at", 0.0), reverse=True)
        return runs

    def get(self, run_id: str) -> dict | None:
        """Exact run_id, or a unique prefix of one."""
        runs = self._fold()
        if run_id in runs:
            return runs[run_id]
        matches = [r for rid, r in runs.items() if rid.startswith(run_id)]
        if len(matches) == 1:
            return matches[0]
        return None

    # -- maintenance -----------------------------------------------------
    def gc(self, keep: int = 20) -> list[str]:
        """Keep the ``keep`` newest runs; drop the rest (index rewrite +
        artifact dirs removed).  Returns the dropped run_ids."""
        if keep < 0:
            raise ValueError(f"gc keep must be >= 0, got {keep}")
        runs = self.list_runs()
        keep_runs, drop_runs = runs[:keep], runs[keep:]
        if not drop_runs:
            return []
        # rewrite the index with one line per surviving run (oldest
        # first, so future folds and appends stay chronological)
        tmp = self.index_path.with_suffix(".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            for record in sorted(keep_runs, key=lambda r: r.get("created_at", 0.0)):
                fh.write(json.dumps(record, sort_keys=True) + "\n")
        tmp.rename(self.index_path)
        dropped = []
        for record in drop_runs:
            rid = record["run_id"]
            shutil.rmtree(self.root / rid, ignore_errors=True)
            dropped.append(rid)
        return dropped
