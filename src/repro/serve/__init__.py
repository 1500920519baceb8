"""Durable service mode: a long-running queue server over BGPQ.

``repro serve`` runs concurrent client sessions against one priority
queue through an admission controller (bounded per-session windows, a
global pending budget, ``RetryAfter`` load shedding) and makes the
queue *durable*: every applied op is journaled to a write-ahead log
before its response is visible, and periodic checkpoints bound replay
time, so a crash injected at any fault crashpoint recovers to a state
byte-identical to an uninterrupted run.

Layers, bottom up:

* :mod:`repro.serve.wal` — CRC-guarded binary-frame op journal.
* :mod:`repro.serve.checkpoint` — binary queue snapshots + canonical digests.
* :mod:`repro.serve.admission` — the load-shedding admission controller.
* :mod:`repro.serve.service` — :class:`DurableService`: journal-then-
  apply, checkpointing, and crash recovery (checkpoint + WAL replay).
* :mod:`repro.serve.sessions` — client sessions and the server thread
  as simulated threads (so the fault injector can kill the server).
* :mod:`repro.serve.driver` — ``run_serve`` / seed-swept campaigns,
  the engine room behind the ``repro serve`` CLI verb.
"""

from .admission import AdmissionController, RetryAfter
from .checkpoint import CheckpointStore, state_digest
from .driver import ServeConfig, ServeOutcome, run_serve, run_serve_campaign
from .service import DurableService
from .wal import WalRecord, WriteAheadLog

__all__ = [
    "AdmissionController",
    "CheckpointStore",
    "DurableService",
    "RetryAfter",
    "ServeConfig",
    "ServeOutcome",
    "WalRecord",
    "WriteAheadLog",
    "run_serve",
    "run_serve_campaign",
    "state_digest",
]
