"""DurableService: journal+apply, checkpointing, and crash recovery.

The service owns one :class:`~repro.core.native.NativeBGPQ` plus its
on-disk state (WAL + checkpoints) and exposes exactly two mutating
calls — :meth:`apply_insert` and :meth:`apply_deletemin`.  Each call
journals and applies in one plain-Python block; the serve driver only
ever invokes them inside one engine step (the server thread's atomic
dispatch block), so under the simulator's crash model journal and
apply are indivisible.  For a real process crash the ordering still
gives redo-log semantics: an insert is journaled *before* it is
applied (replay re-applies it, idempotently by LSN position), and a
deletemin is journaled together with its result *before* the response
becomes visible, so a lost op is always an op whose response nobody
ever saw.

Recovery (:meth:`DurableService.open` on a non-empty data dir) loads
the newest valid checkpoint (or, when every checkpoint is corrupt but
the WAL still starts at LSN 1, none: it replays from empty), replays
the WAL suffix, and cross-checks
every replayed deletemin against its journaled result — divergence is
a :class:`~repro.errors.DurabilityError`, because a replay that
returns different keys means the on-disk history cannot reproduce the
state that produced it.  The WAL is never pruned: checkpoints bound
*replay time*, while the full journal doubles as the conservation
ledger :meth:`audit` feeds to :class:`~repro.core.audit.HeapAuditor`
(multiset(journaled inserts) == multiset(journaled deletemin results)
+ multiset(live contents)).
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from ..core.audit import AuditReport, HeapAuditor
from ..core.native import TICKS_PER_NS
from ..errors import ConfigurationError, DurabilityError
from ..obs.events import SERVE_APPLY, SERVE_RECOVER
from .checkpoint import CheckpointStore, state_digest
from .wal import WalRecord, WriteAheadLog

__all__ = ["DurableService"]


class DurableService:
    """One durable queue: NativeBGPQ + WAL + checkpoints + dedupe cache.

    Build with :meth:`open` (which performs recovery); the positional
    constructor wires pre-opened parts and is mostly for tests.
    """

    def __init__(self, queue, wal: WriteAheadLog, checkpoints: CheckpointStore,
                 checkpoint_every: int = 64, obs=None, metrics=None):
        self.queue = queue
        self.wal = wal
        self.checkpoints = checkpoints
        if checkpoint_every < 1:
            raise ConfigurationError(
                f"checkpoint_every must be >= 1 op, got {checkpoint_every}"
            )
        self.checkpoint_every = checkpoint_every
        self._obs = obs
        self.metrics = metrics
        self._applied: dict[tuple[str, int], dict] = {}
        self._last_ckpt_lsn = 0
        self.recovery_info: dict = {"fresh": True, "ckpt_lsn": 0, "replayed": 0}

    # -- open / recover --------------------------------------------------
    @classmethod
    def open(cls, queue, data_dir: str | Path, *, checkpoint_every: int = 64,
             keep_checkpoints: int = 2, obs=None, fsync: bool = False,
             metrics=None) -> "DurableService":
        """Open (and if needed recover) the durable state in ``data_dir``.

        ``queue`` must be freshly constructed with the same layout
        (k, dtypes, payload width) as the one that wrote the state; its
        contents are discarded and replaced by checkpoint + replay.  An
        empty directory is a fresh start: the queue is cleared and the
        WAL begins at LSN 1.  ``fsync`` syncs every WAL append and every
        checkpoint (file and directory) to disk.
        """
        checkpoints = CheckpointStore(data_dir, keep=keep_checkpoints, obs=obs,
                                      fsync=fsync)
        wal = WriteAheadLog.open(data_dir, obs=obs, fsync=fsync,
                                 metrics=metrics)
        svc = cls(queue, wal, checkpoints,
                  checkpoint_every=checkpoint_every, obs=obs, metrics=metrics)
        svc._recover()
        return svc

    def _recover(self) -> None:
        # host wall clock, measurement only (how long recovery took on
        # this machine) — the value never feeds a scheduling decision
        t0 = time.perf_counter_ns() if self.metrics is not None else 0
        try:
            loaded = self.checkpoints.load_latest()
        except DurabilityError:
            # every checkpoint is corrupt; the WAL is never pruned, so
            # when it still starts at LSN 1 a full replay from empty
            # rebuilds the same state
            if self.wal.first_lsn != 1:
                raise
            loaded = None
        had_state = loaded is not None or len(self.wal) > 0
        self.queue.clear()
        ckpt_lsn = 0
        if loaded is not None:
            rows, ckpt_lsn = loaded
            self.queue.restore_rows(rows)
        replayed = 0
        for rec in self.wal.records(from_lsn=ckpt_lsn + 1):
            self._replay(rec)
            replayed += 1
        # ops at or before the checkpoint are applied by definition;
        # rebuild their dedupe entries without responses (a client that
        # re-sends one gets a terse already-applied acknowledgement)
        for rec in self.wal.records():
            key = (rec.sid, rec.op_id)
            if key not in self._applied:
                self._applied[key] = self._response_for(rec, cost_ns=0.0)
        self._last_ckpt_lsn = ckpt_lsn
        self.recovery_info = {
            "fresh": not had_state,
            "ckpt_lsn": ckpt_lsn,
            "replayed": replayed,
            "digest": self.digest(),
        }
        if self.metrics is not None:
            self.metrics.histogram(
                "repro_serve_recovery_host_ns",
                help="host wall time of one recovery (load ckpt + replay)",
            ).observe(time.perf_counter_ns() - t0)
            if had_state:
                self.metrics.counter(
                    "repro_serve_recoveries_total",
                    help="recoveries from non-empty durable state",
                ).inc()
            self._update_checkpoint_age()
        if had_state and self._obs is not None:
            self._obs.emit_here(SERVE_RECOVER, ckpt_lsn=ckpt_lsn,
                                replayed=replayed)

    def _update_checkpoint_age(self) -> None:
        """Gauge: journaled ops not yet covered by a checkpoint (the
        replay debt a crash right now would incur)."""
        self.metrics.gauge(
            "repro_serve_checkpoint_age_ops",
            help="WAL records since the newest checkpoint",
        ).set(self.wal.last_lsn - self._last_ckpt_lsn)

    def _replay(self, rec: WalRecord) -> None:
        q = self.queue
        keys, pay = rec.keys, rec.pay
        # a zero-width payload holds no values, so its dtype tag is moot
        if (
            keys.dtype != q.key_dtype
            or pay.shape[1] != q.payload_width
            or q.payload_width and pay.dtype != q.payload_dtype
            or rec.count > q.k
        ):
            raise DurabilityError(
                f"WAL record lsn={rec.lsn}: {rec.kind} of {keys.size} "
                f"{keys.dtype} keys with payload {pay.shape} {pay.dtype} "
                f"(count {rec.count}) does not fit the queue's k={q.k}, "
                f"{q.key_dtype} keys and payload width {q.payload_width} "
                f"{q.payload_dtype}"
            )
        if rec.kind == "insert":
            q.insert_bulk(keys, pay if q.payload_width else None)
            return
        got_k, got_p = q.deletemin(rec.count)
        if not np.array_equal(got_k, keys) or (
            q.payload_width and not np.array_equal(got_p, pay)
        ):
            raise DurabilityError(
                f"WAL replay diverged at lsn={rec.lsn}: deletemin({rec.count}) "
                f"returned {got_k[:8].tolist()}... but the journal recorded "
                f"{keys[:8].tolist()}...; the on-disk history cannot "
                "reproduce the state that wrote it"
            )

    def _response_for(self, rec: WalRecord, cost_ns: float) -> dict:
        resp = {
            "kind": rec.kind,
            "sid": rec.sid,
            "op_id": rec.op_id,
            "lsn": rec.lsn,
            "cost_ns": cost_ns,
        }
        if rec.kind == "insert":
            resp["n"] = len(rec.keys)
        else:
            resp["keys"] = rec.keys.tolist()
            # keys-only queues answer [] rather than a list of empty rows
            resp["pay"] = rec.pay.tolist() if rec.pay.shape[1] else []
        return resp

    # -- the two mutating calls ------------------------------------------
    def apply_insert(self, sid: str, op_id: int, keys, pay=None) -> dict:
        """Journal then apply one insert; idempotent per (sid, op_id)."""
        dedupe = (sid, op_id)
        cached = self._applied.get(dedupe)
        if cached is not None:
            return cached
        q = self.queue
        keys_arr = np.asarray(keys, dtype=q.key_dtype).ravel()
        pay_arr = None
        if q.payload_width:
            pay_arr = np.asarray(pay, dtype=q.payload_dtype).reshape(
                keys_arr.size, q.payload_width
            )
        before = q.sim_ticks
        rec = self.wal.append(sid, op_id, "insert", keys=keys_arr, pay=pay_arr)
        q.insert_bulk(keys_arr, pay_arr)
        resp = self._response_for(rec, cost_ns=(q.sim_ticks - before) / TICKS_PER_NS)
        self._applied[dedupe] = resp
        if self._obs is not None:
            self._obs.emit_here(SERVE_APPLY, kind="insert", session=sid,
                                lsn=rec.lsn)
        if self.metrics is not None:
            self.metrics.counter(
                "repro_serve_apply_total",
                help="ops journaled and applied by the durable service",
                kind="insert",
            ).inc()
        self.maybe_checkpoint()
        return resp

    def apply_deletemin(self, sid: str, op_id: int, count: int) -> dict:
        """Apply one deletemin and journal it with its recorded result."""
        dedupe = (sid, op_id)
        cached = self._applied.get(dedupe)
        if cached is not None:
            return cached
        q = self.queue
        before = q.sim_ticks
        got_k, got_p = q.deletemin(count)
        rec = self.wal.append(sid, op_id, "deletemin", keys=got_k, pay=got_p,
                              count=count)
        resp = self._response_for(rec, cost_ns=(q.sim_ticks - before) / TICKS_PER_NS)
        self._applied[dedupe] = resp
        if self._obs is not None:
            self._obs.emit_here(SERVE_APPLY, kind="deletemin", session=sid,
                                lsn=rec.lsn)
        if self.metrics is not None:
            self.metrics.counter(
                "repro_serve_apply_total",
                help="ops journaled and applied by the durable service",
                kind="deletemin",
            ).inc()
        self.maybe_checkpoint()
        return resp

    def apply(self, request: dict) -> dict:
        """Dispatch one request dict (the serve driver's wire format)."""
        if request["kind"] == "insert":
            return self.apply_insert(request["sid"], request["op_id"],
                                     request["keys"], request.get("pay"))
        if request["kind"] == "deletemin":
            return self.apply_deletemin(request["sid"], request["op_id"],
                                        request["count"])
        raise ValueError(f"unknown request kind {request['kind']!r}")

    # -- checkpointing ----------------------------------------------------
    def maybe_checkpoint(self) -> bool:
        """Checkpoint when ``checkpoint_every`` ops accrued since the last."""
        took = False
        if self.wal.last_lsn - self._last_ckpt_lsn >= self.checkpoint_every:
            self.checkpoint()
            took = True
        if self.metrics is not None:
            self._update_checkpoint_age()
        return took

    def checkpoint(self) -> Path:
        lsn = self.wal.last_lsn
        path = self.checkpoints.save(self.queue.export_rows(), lsn)
        self._last_ckpt_lsn = lsn
        if self.metrics is not None:
            self.metrics.counter(
                "repro_serve_checkpoints_total",
                help="checkpoints written",
            ).inc()
            self._update_checkpoint_age()
        return path

    # -- verification ------------------------------------------------------
    def digest(self) -> str:
        """Canonical digest of the live queue state (byte-identity test)."""
        return state_digest(self.queue.export_state())

    def audit(self, context: str = "") -> AuditReport:
        """HeapAuditor pass with the WAL as the conservation ledger."""
        records = self.wal.records()
        inserted = [r.keys for r in records if r.kind == "insert"]
        removed = [r.keys for r in records if r.kind == "deletemin"]
        return HeapAuditor(self.queue).audit(
            inserted=inserted, removed=removed, context=context
        )

    def close(self) -> None:
        self.wal.close()

    def __enter__(self) -> "DurableService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
