"""Event taxonomy and the event bus — the core of :mod:`repro.obs`.

Every observable fact about a run is a :class:`TraceEvent`: a simulated
timestamp, the emitting thread, an event type from the taxonomy below,
and a small dict of type-specific fields.  Producers (the engine's lock
and condition transitions, the BGPQ operation paths, the fault
injector) append events to one shared :class:`EventBus`; consumers
(:mod:`repro.obs.aggregate`, :mod:`repro.obs.export`) never see the
producers — the stream is the only interface, which is what makes the
layer *event-sourced*: counters, histograms and timelines are all pure
folds over the same list.

Zero-cost discipline
--------------------
Tracing must not perturb what it observes.  Every emit site in the hot
paths is guarded by a plain ``is not None`` test on an attribute that
defaults to ``None`` (``Engine._obs``, ``BGPQ.obs``,
``FaultInjector._obs``), so a run without a bus pays one attribute load
and one branch per *instrumented* point and allocates nothing.
Emission itself only reads state and appends to a Python list: no
effects are yielded, no simulated time is charged, and no RNG is
consulted, so enabling tracing changes neither schedules, nor results,
nor makespans (asserted by ``tests/obs/test_exporters.py``).

Event taxonomy
--------------
Engine-level (emitted by :class:`repro.sim.engine.Engine`):

=====================  ====================================================
``lock.acquire``       uncontended lock grant (fields: ``lock``)
``lock.contend``       acquisition had to queue (``lock``)
``lock.grant``         queued acquisition granted (``lock``, ``waited``,
                       ``by`` — the releasing thread that handed the
                       lock over; the causal edge the analysis layer's
                       wait-for graph walks)
``lock.release``       lock released (``lock``)
``lock.timeout``       bounded wait expired (``lock``, ``waited``)
``lock.try_fail``      TryAcquire probe found the lock held (``lock``)
``cond.wait``          thread blocked on a condition (``cond``)
``cond.wake``          condition wait ended (``cond``, ``waited``,
                       ``by`` — the signalling thread)
``barrier.wait``       thread arrived at a barrier (``barrier``)
``barrier.leave``      barrier released the thread (``barrier``)
``thread.start``       simulated thread spawned
``thread.finish``      simulated thread ran to completion
=====================  ====================================================

Queue-level (emitted by the BGPQ operation paths in
:mod:`repro.core.insertion` / :mod:`repro.core.deletion`):

=====================  ====================================================
``op.begin``           queue operation invoked (``op``, ``n``/``want``)
``op.end``             queue operation returned (``op``, ``n``/``got``)
``sort_split``         one SORT_SPLIT call (``site``, ``na``, ``nb``,
                       ``fast`` — True when the presorted fast path
                       skipped the merge entirely)
``pbuffer.hit``        insert absorbed by the partial buffer
                       (``absorbed``, ``buffered``)
``pbuffer.overflow``   buffer overflow detached a full batch
                       (``batch``, ``buffered``)
``root.refill``        DELETEMIN refilled the root (``source`` ∈
                       ``last_node`` | ``buffer`` | ``steal`` |
                       ``filled_target``)
``collab.steal``       deleter MARKed an in-flight insert (``tar``)
``collab.fill``        inserter delivered its keys to the root for a
                       MARKer
=====================  ====================================================

Fault-path (emitted by the op guards and the injector):

=====================  ====================================================
``fault.crash``        injected crash delivered to a thread (``at``)
``fault.rollback``     an operation's guard unwound its mutations (``op``)
``fault.abort``        bounded root wait exhausted; operation aborted
                       clean (``op``)
=====================  ====================================================

Service-level (emitted by :mod:`repro.serve` — the durable ``repro
serve`` driver; all of these ride the same bus, so ``repro trace
analyze`` works unchanged on service runs):

=====================  ====================================================
``serve.shed``         admission control refused an op with RetryAfter
                       (``session``, ``reason``, ``pending``)
``serve.apply``        the server applied one journaled op
                       (``kind``, ``session``, ``lsn``)
``wal.append``         one record appended to the write-ahead log
                       (``kind``, ``lsn``)
``serve.checkpoint``   a checkpoint was written (``lsn``, ``keys``)
``serve.recover``      a crashed server was rebuilt from checkpoint+WAL
                       (``ckpt_lsn``, ``replayed``)
=====================  ====================================================

Fleet-level (emitted by :mod:`repro.fleet` — the sharded multi-queue
router and its request driver; shard events carry the shard index so
``repro trace analyze`` can attribute cross-shard waits):

=====================  ====================================================
``shard.op.begin``     one shard started servicing a routed sub-op
                       (``shard``, ``op``, ``n``/``want``)
``shard.op.end``       the sub-op finished (``shard``, ``op``,
                       ``n``/``got``)
``shard.probe``        a relaxed delete_min sprayed its probe set
                       (``shards``, ``primary``)
``shard.steal``        delete_min topped up by stealing from the fullest
                       shard (``shard`` — the victim, ``want``, ``got``)
``shard.imbalance``    periodic fleet occupancy gauge from the driver
                       (``gauge`` — max/mean shard size, ``sizes``)
``shard.place``        one placement decision by the router (``policy``,
                       ``shard`` — the chosen target, ``n`` — keys
                       placed there, ``candidates`` — shards the
                       load-aware policies compared, empty for
                       hash/spray)
``shard.grow``         the elastic controller added shards (``before``,
                       ``after``)
``shard.shrink``       a shard was retired: drained via the steal path
                       and its keys re-placed on the survivors
                       (``victim``, ``moved``, ``before``, ``after``)
``shard.rebalance``    a proactive rebalancing steal moved one batch
                       from the fullest to the emptiest shard
                       (``src``, ``dst``, ``moved``)
=====================  ====================================================
"""

from __future__ import annotations

from typing import Any

__all__ = [
    "TraceEvent",
    "EventBus",
    "LOCK_ACQUIRE",
    "LOCK_CONTEND",
    "LOCK_GRANT",
    "LOCK_RELEASE",
    "LOCK_TIMEOUT",
    "LOCK_TRY_FAIL",
    "COND_WAIT",
    "COND_WAKE",
    "BARRIER_WAIT",
    "BARRIER_LEAVE",
    "THREAD_START",
    "THREAD_FINISH",
    "OP_BEGIN",
    "OP_END",
    "SORT_SPLIT",
    "PBUFFER_HIT",
    "PBUFFER_OVERFLOW",
    "ROOT_REFILL",
    "COLLAB_STEAL",
    "COLLAB_FILL",
    "FAULT_CRASH",
    "FAULT_ROLLBACK",
    "FAULT_ABORT",
    "SERVE_SHED",
    "SERVE_APPLY",
    "WAL_APPEND",
    "SERVE_CHECKPOINT",
    "SERVE_RECOVER",
    "SHARD_OP_BEGIN",
    "SHARD_OP_END",
    "SHARD_PROBE",
    "SHARD_STEAL",
    "SHARD_IMBALANCE",
    "SHARD_PLACE",
    "SHARD_GROW",
    "SHARD_SHRINK",
    "SHARD_REBALANCE",
    "WAIT_STARTS",
    "WAIT_ENDS",
]

# -- engine-level ------------------------------------------------------------
LOCK_ACQUIRE = "lock.acquire"
LOCK_CONTEND = "lock.contend"
LOCK_GRANT = "lock.grant"
LOCK_RELEASE = "lock.release"
LOCK_TIMEOUT = "lock.timeout"
LOCK_TRY_FAIL = "lock.try_fail"
COND_WAIT = "cond.wait"
COND_WAKE = "cond.wake"
BARRIER_WAIT = "barrier.wait"
BARRIER_LEAVE = "barrier.leave"
THREAD_START = "thread.start"
THREAD_FINISH = "thread.finish"

# -- queue-level -------------------------------------------------------------
OP_BEGIN = "op.begin"
OP_END = "op.end"
SORT_SPLIT = "sort_split"
PBUFFER_HIT = "pbuffer.hit"
PBUFFER_OVERFLOW = "pbuffer.overflow"
ROOT_REFILL = "root.refill"
COLLAB_STEAL = "collab.steal"
COLLAB_FILL = "collab.fill"

# -- fault-path --------------------------------------------------------------
FAULT_CRASH = "fault.crash"
FAULT_ROLLBACK = "fault.rollback"
FAULT_ABORT = "fault.abort"

# -- service-level (repro.serve) ---------------------------------------------
SERVE_SHED = "serve.shed"
SERVE_APPLY = "serve.apply"
WAL_APPEND = "wal.append"
SERVE_CHECKPOINT = "serve.checkpoint"
SERVE_RECOVER = "serve.recover"

# -- fleet-level (repro.fleet) ------------------------------------------------
SHARD_OP_BEGIN = "shard.op.begin"
SHARD_OP_END = "shard.op.end"
SHARD_PROBE = "shard.probe"
SHARD_STEAL = "shard.steal"
SHARD_IMBALANCE = "shard.imbalance"
SHARD_PLACE = "shard.place"
SHARD_GROW = "shard.grow"
SHARD_SHRINK = "shard.shrink"
SHARD_REBALANCE = "shard.rebalance"

#: event types that open a wait interval for the utilization timeline,
#: mapped to the types that close it (same thread)
WAIT_STARTS = frozenset({LOCK_CONTEND, COND_WAIT, BARRIER_WAIT})
WAIT_ENDS = frozenset({LOCK_GRANT, LOCK_TIMEOUT, COND_WAKE, BARRIER_LEAVE})


class TraceEvent:
    """One observed fact: (simulated ns, thread name, type, fields)."""

    __slots__ = ("ts", "thread", "etype", "fields")

    def __init__(self, ts: float, thread: str, etype: str, fields: dict | None):
        self.ts = ts
        self.thread = thread
        self.etype = etype
        self.fields = fields

    def get(self, key: str, default: Any = None) -> Any:
        return self.fields.get(key, default) if self.fields else default

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"TraceEvent({self.ts:g}, {self.thread}, {self.etype})"


class EventBus:
    """Append-only event stream shared by every producer of one run.

    Wiring: pass the bus to ``Engine(seed, obs=bus)`` (attaches it, so
    :meth:`emit_here` can read the running thread's name and clock),
    assign it to ``pq.obs`` for queue-level events, and to
    ``FaultInjector(plan, seed, obs=bus)`` for crash deliveries.  One
    bus per run; :meth:`clear` resets it for reuse.

    Outside an engine (e.g. a queue driven by a bare effect loop)
    :meth:`emit_here` falls back to a monotone sequence number as the
    timestamp and ``"host"`` as the thread, so traces of quiescent
    setup code still order correctly.
    """

    __slots__ = ("events", "_engine", "_seq")

    def __init__(self):
        self.events: list[TraceEvent] = []
        self._engine = None
        self._seq = 0

    def attach(self, engine) -> None:
        """Bind the engine whose current thread supplies ts/thread."""
        self._engine = engine

    def emit(self, etype: str, ts: float, thread: str, **fields) -> None:
        """Record one event at an explicit timestamp."""
        self.events.append(TraceEvent(ts, thread, etype, fields or None))

    def emit_here(self, etype: str, **fields) -> None:
        """Record one event at the attached engine's current position."""
        eng = self._engine
        if eng is not None:
            cur = eng.current_thread
            if cur is not None:
                self.events.append(
                    TraceEvent(cur.clock, cur.name, etype, fields or None)
                )
            else:
                self.events.append(TraceEvent(eng.now, "main", etype, fields or None))
        else:
            self._seq += 1
            self.events.append(TraceEvent(float(self._seq), "host", etype, fields or None))

    def clear(self) -> None:
        self.events.clear()
        self._seq = 0

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<EventBus {len(self.events)} events>"
