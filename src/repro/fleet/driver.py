"""Async-style request driver for the sharded fleet.

Simulates thousands of client *sessions*, each issuing a script of
requests (insert batches and relaxed delete_mins) with closed-loop
pacing: a session dispatches its next request only after the previous
one completed, plus an optional think time.  The driver is the fleet's
analogue of the engine's thread scheduler, but far lighter — sessions
never share locks, so the only contention is shards' busy time, and the
whole run is a deterministic discrete-event simulation:

* **Dispatch** splits an insert across shards (router placement) or
  plans a relaxed delete (optimistic spray probe *at dispatch time* —
  the staleness the k-relaxed checker later measures), then queues the
  sub-operations on their shards' FIFOs.
* **Service** repeatedly executes the sub-operation with the earliest
  tentative start time ``max(arrival, shard clock)`` across all shard
  FIFO heads (ties to the lowest shard index).  Service order *is*
  linearization order: every executed sub-op appends one
  :class:`FleetOpRecord` to the history, so
  :func:`repro.core.check_k_relaxed` can replay it directly.
* **Completion** of a request's last sub-op re-arms its session, which
  dispatches its next request ``think_ns`` later.

Observability rides the same :class:`~repro.obs.events.EventBus` as
the engine: sessions appear as ``client{i}`` threads with
``op.begin``/``op.end`` spans, shard queueing shows up as
``lock.contend``/``lock.grant`` on ``fleet.s{i}.n1`` (so ``repro trace
analyze`` attributes cross-shard waits with zero new analysis code),
and the driver emits a periodic ``shard.imbalance`` gauge.

The gauge cadence doubles as the elastic fleet's *safe point*: pass
``elastic=ElasticController(...)`` and every ``imbalance_every``
executed sub-ops the controller may grow, shrink, or rebalance the
fleet.  The driver then remaps its shard FIFOs — a retiring shard's
queued inserts are reassigned to the least-loaded survivor, every
queued delete is re-planned against the new topology (its old probe
set names stale shard indices), and surviving queues keep their FIFO
order — and appends a ``kind="reshard"`` record to the history so
:func:`repro.core.check_k_relaxed` can charge the migrated keys
against the relaxation budget.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..obs.events import (
    LOCK_ACQUIRE,
    LOCK_CONTEND,
    LOCK_GRANT,
    LOCK_RELEASE,
    OP_BEGIN,
    OP_END,
    SHARD_IMBALANCE,
    THREAD_FINISH,
    THREAD_START,
)
from .sharded import ShardedBGPQ

__all__ = ["FleetOpRecord", "FleetRunResult", "run_fleet", "mixed_scripts"]


@dataclass(frozen=True)
class FleetOpRecord:
    """One serviced fleet sub-operation, checker-compatible.

    ``kind``/``args``/``result`` follow the ``OpRecord`` convention so
    :func:`repro.core.check_k_relaxed` replays fleet histories without
    adaptation: an insert's ``args`` is its key batch, a deletemin's
    ``args`` is ``(count,)`` and ``result`` the merged ascending keys.
    ``invoke`` is the dispatch (arrival) time, ``start`` the moment a
    shard began servicing it, ``respond`` its completion.
    """

    op_id: int
    session: int
    kind: str
    args: tuple
    result: tuple
    invoke: float
    start: float
    respond: float
    shard: int


@dataclass
class FleetRunResult:
    """Everything one driver run produced, ready for checking/benching."""

    history: list[FleetOpRecord]
    makespan_ns: float
    keys_in: int
    keys_out: int
    requests: int
    stats: dict
    shard_sizes: list[int] = field(default_factory=list)


def mixed_scripts(
    sessions: int,
    requests: int,
    k: int,
    seed: int = 0,
    skew: float | None = None,
    universe: int = 4096,
) -> list[list[tuple]]:
    """The bench's mixed workload: alternating insert/deletemin scripts.

    Every session issues ``requests`` requests, starting with an insert
    of ``k`` fresh random keys and alternating with ``deletemin(k)``, so
    the fleet stays near steady-state occupancy and every delete has
    material to return.  Keys are drawn below 2^30 from one seeded
    generator — the whole workload is a pure function of its arguments.

    ``skew`` switches to a Zipf-like key distribution: batches sample
    (with replacement) from a fixed pool of ``universe`` keys with
    probability proportional to ``rank**-skew``.  A handful of hot keys
    then dominate the volume, and because the hash policy pins every
    copy of a key to the same shard, the skewed workload concentrates
    load on a few hot shards — the regime the load-aware placement
    policies exist for (and what ``repro bench shard``'s placement
    section and the frontier lane measure).
    """
    rng = np.random.default_rng(seed)
    if skew:
        pool = rng.integers(0, 1 << 30, size=universe, dtype=np.int64)
        probs = np.arange(1, universe + 1, dtype=np.float64) ** -float(skew)
        probs /= probs.sum()
    scripts: list[list[tuple]] = []
    for _ in range(sessions):
        script: list[tuple] = []
        for r in range(requests):
            if r % 2 == 0:
                if skew:
                    batch = rng.choice(pool, size=k, p=probs)
                else:
                    batch = rng.integers(0, 1 << 30, size=k, dtype=np.int64)
                script.append(("insert", batch))
            else:
                script.append(("deletemin", k))
        scripts.append(script)
    return scripts


@dataclass
class _SubOp:
    """One shard-local unit of work sitting in a shard FIFO."""

    session: int
    kind: str
    arrival: float
    keys: np.ndarray | None = None  # insert payload
    count: int = 0  # deletemin ask
    plan: tuple | None = None  # (primary, probe_set) fixed at dispatch


class _Session:
    __slots__ = ("idx", "script", "next_req", "outstanding", "req_end", "done")

    def __init__(self, idx: int, script: list):
        self.idx = idx
        self.script = script
        self.next_req = 0
        self.outstanding = 0
        self.req_end = 0.0
        self.done = not script


def run_fleet(
    fleet: ShardedBGPQ,
    scripts: list[list[tuple]],
    think_ns: float = 0.0,
    imbalance_every: int = 64,
    elastic=None,
    slo=None,
) -> FleetRunResult:
    """Drive ``fleet`` with one script per client session to completion.

    Script entries are ``("insert", keys)`` or ``("deletemin", count)``.
    Returns the execution-ordered history plus throughput accounting;
    the fleet is left at its final occupancy (callers drain or audit it
    as they like).  ``elastic`` (an
    :class:`~repro.fleet.elastic.ElasticController`) is evaluated at
    every gauge boundary — ``imbalance_every`` executed sub-ops — and
    any resize it performs triggers the queue remap described in the
    module docstring.

    When the fleet carries a metrics registry (``fleet.metrics``), every
    serviced sub-op lands in a per-op latency histogram and the fleet's
    live gauges refresh at the same ``imbalance_every`` safe points the
    elastic controller uses; ``slo`` (a
    :class:`~repro.obs.slo.SloTracker`) additionally judges each sub-op
    latency against its op-class objective.  Both default to off and
    touch only host state — the history and makespan are byte-identical
    either way.
    """
    obs = fleet.obs
    metrics = getattr(fleet, "metrics", None)
    queues: list[deque[_SubOp]] = [deque() for _ in range(fleet.n_shards)]
    sessions = [_Session(i, s) for i, s in enumerate(scripts)]
    history: list[FleetOpRecord] = []
    keys_in = keys_out = requests = executed = 0
    last_holder: list[str] = ["" for _ in range(fleet.n_shards)]

    def apply_reshard(tickets, now: float) -> None:
        """Record elastic tickets and remap queues to the new topology."""
        for t in tickets:
            history.append(
                FleetOpRecord(
                    len(history), -1, "reshard", (t.action, t.moved), (),
                    now, t.t_start, t.t_end, t.src,
                )
            )
            if t.action == "grow":
                for _ in range(t.n_after - t.n_before):
                    queues.append(deque())
                    last_holder.append("")
            elif t.action == "shrink":
                v = t.src
                backlog = [(s, sub) for s, q in enumerate(queues) for sub in q]
                del last_holder[v]
                new_queues: list[deque[_SubOp]] = [
                    deque() for _ in range(fleet.n_shards)
                ]
                # rebuild in collection order: survivors keep FIFO
                # order under the index remap; the victim's inserts go
                # to the least-loaded survivor; every queued delete is
                # re-planned (its probe set names stale indices)
                for s, sub in backlog:
                    if sub.kind == "insert":
                        if s == v:
                            loads = fleet.shard_loads()
                            tgt = min(
                                range(fleet.n_shards),
                                key=lambda i: (loads[i], i),
                            )
                        else:
                            tgt = s if s < v else s - 1
                        new_queues[tgt].append(sub)
                    else:
                        sub.plan = fleet.plan_delete()
                        new_queues[sub.plan[0]].append(sub)
                queues[:] = new_queues
                fleet.reset_pending(
                    [
                        sum(x.keys.size for x in q if x.kind == "insert")
                        for q in queues
                    ]
                )
            # rebalance: no topology change, nothing to remap

    def dispatch(sess: _Session, now: float) -> None:
        nonlocal requests
        kind, arg = sess.script[sess.next_req]
        sess.next_req += 1
        requests += 1
        if kind == "insert":
            keys = np.asarray(arg, dtype=np.int64).ravel()
            parts = fleet.route_insert(keys, at=now)
            if obs is not None:
                obs.emit(OP_BEGIN, now, f"client{sess.idx}", op="insert",
                         n=int(keys.size))
            if not parts:
                # empty insert: completes immediately, no shard touched
                sess.req_end = now
                finish_request(sess, now)
                return
            sess.outstanding = len(parts)
            sess.req_end = now
            for shard, sub in parts:
                queues[shard].append(_SubOp(sess.idx, "insert", now, keys=sub))
        elif kind == "deletemin":
            plan = fleet.plan_delete()
            sess.outstanding = 1
            sess.req_end = now
            if obs is not None:
                obs.emit(OP_BEGIN, now, f"client{sess.idx}", op="deletemin",
                         want=int(arg))
            queues[plan[0]].append(
                _SubOp(sess.idx, "deletemin", now, count=int(arg), plan=plan)
            )
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown script op {kind!r}")

    def finish_request(sess: _Session, end: float) -> None:
        if obs is not None:
            kind = sess.script[sess.next_req - 1][0]
            obs.emit(OP_END, end, f"client{sess.idx}", op=kind)
        if sess.next_req < len(sess.script):
            dispatch(sess, end + think_ns)
        else:
            sess.done = True
            if obs is not None:
                obs.emit(THREAD_FINISH, end, f"client{sess.idx}")

    for sess in sessions:
        if obs is not None:
            obs.emit(THREAD_START, 0.0, f"client{sess.idx}")
        if not sess.done:
            dispatch(sess, 0.0)
        elif obs is not None:
            obs.emit(THREAD_FINISH, 0.0, f"client{sess.idx}")

    while True:
        # next sub-op to service: earliest tentative start across heads
        best_shard = -1
        best_start = None
        for s, q in enumerate(queues):
            if not q:
                continue
            start = max(q[0].arrival, fleet.clocks[s])
            if best_start is None or start < best_start:
                best_shard, best_start = s, start
        if best_shard < 0:
            break
        sub = queues[best_shard].popleft()
        sess = sessions[sub.session]
        if sub.kind == "insert":
            ticket = fleet.exec_insert(best_shard, sub.keys, at=sub.arrival)
            keys_in += sub.keys.size
            history.append(
                FleetOpRecord(
                    len(history), sub.session, "insert",
                    tuple(sub.keys.tolist()), (),
                    sub.arrival, ticket.t_start, ticket.t_end, best_shard,
                )
            )
        else:
            ticket = fleet.exec_deletemin(sub.count, at=sub.arrival, plan=sub.plan)
            keys_out += ticket.keys.size
            history.append(
                FleetOpRecord(
                    len(history), sub.session, "deletemin",
                    (sub.count,), tuple(ticket.keys.tolist()),
                    sub.arrival, ticket.t_start, ticket.t_end, best_shard,
                )
            )
        executed += 1
        if metrics is not None:
            metrics.histogram(
                "repro_fleet_op_latency_ns",
                help="dispatch-to-respond latency of fleet sub-ops",
                op=sub.kind,
            ).observe(ticket.t_end - sub.arrival)
        if slo is not None:
            slo.observe(sub.kind, ticket.t_end - sub.arrival,
                        ts=ticket.t_end)
        if obs is not None:
            name = f"client{sub.session}"
            lock = f"fleet.s{best_shard}.n1"
            if ticket.t_start > sub.arrival:
                obs.emit(LOCK_CONTEND, sub.arrival, name, lock=lock)
                obs.emit(
                    LOCK_GRANT, ticket.t_start, name, lock=lock,
                    waited=ticket.t_start - sub.arrival,
                    by=last_holder[best_shard] or "router",
                )
            else:
                obs.emit(LOCK_ACQUIRE, ticket.t_start, name, lock=lock)
            obs.emit(LOCK_RELEASE, ticket.t_end, name, lock=lock)
            last_holder[best_shard] = name
        if executed % imbalance_every == 0:
            if obs is not None:
                obs.emit(
                    SHARD_IMBALANCE, ticket.t_end, "router",
                    gauge=fleet.imbalance(), sizes=fleet.shard_sizes(),
                )
            if metrics is not None:
                fleet.observe_gauges(at=ticket.t_end)
            if elastic is not None:
                tickets = elastic.maybe_act(fleet, now=ticket.t_end)
                if tickets:
                    apply_reshard(tickets, ticket.t_end)
        sess.outstanding -= 1
        sess.req_end = max(sess.req_end, ticket.t_end)
        if sess.outstanding == 0:
            finish_request(sess, sess.req_end)

    return FleetRunResult(
        history=history,
        makespan_ns=fleet.makespan_ns,
        keys_in=keys_in,
        keys_out=keys_out,
        requests=requests,
        stats=dict(fleet.stats),
        shard_sizes=fleet.shard_sizes(),
    )
