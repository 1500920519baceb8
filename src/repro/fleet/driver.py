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

import math
import numbers
import operator
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ..errors import ConfigurationError
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

__all__ = [
    "FleetOpRecord", "FleetRunResult", "KeyBatch", "run_fleet", "mixed_scripts",
]


class KeyBatch:
    """An immutable int64 key batch that reads like a tuple of ``int``.

    History records hold their keys as one array instead of a tuple of
    Python ints: a round at k=512 services about half a million keys,
    building (then garbage-collecting) that many int objects took over
    a quarter of the driver's wall time, and every consumer converted
    the tuples straight back to arrays.  ``np.asarray(batch)`` returns the
    read-only array without a copy; ``len``, indexing and iteration
    yield ``int``; a batch equals, hashes and prints like the tuple of
    its keys, so digests of ``repr(history)`` are unchanged.

    The constructor takes ownership of ``keys``: the caller must hand
    over a 1-D int64 array nothing else writes, and it is frozen here.
    """

    __slots__ = ("_keys",)

    def __init__(self, keys: np.ndarray):
        keys.flags.writeable = False
        self._keys = keys

    def __array__(self, dtype=None, copy=None):
        keys = self._keys
        if dtype is not None and np.dtype(dtype) != keys.dtype:
            if copy is False:
                raise ValueError(f"a KeyBatch is int64; casting to {dtype} copies")
            return keys.astype(dtype)
        return keys.copy() if copy else keys

    def __len__(self) -> int:
        return self._keys.size

    def __getitem__(self, i: int) -> int:
        return int(self._keys[i])

    def __iter__(self):
        return iter(self._keys.tolist())

    def __eq__(self, other):
        if isinstance(other, KeyBatch):
            return np.array_equal(self._keys, other._keys)
        if isinstance(other, tuple):
            return len(other) == self._keys.size and tuple(self) == other
        return NotImplemented

    def __hash__(self) -> int:
        # equal to the hash of the equal tuple, as ``==`` requires
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


class FleetOpRecord(NamedTuple):
    """One serviced fleet sub-operation, checker-compatible.

    ``kind``/``args``/``result`` follow the ``OpRecord`` convention so
    :func:`repro.core.check_k_relaxed` replays fleet histories without
    adaptation: an insert's ``args`` is its key batch, a deletemin's
    ``args`` is ``(count,)`` and ``result`` the merged ascending keys.
    Key batches are :class:`KeyBatch` objects; the other fields are
    tuples (an insert's ``result`` is ``()``, a reshard's ``args`` is
    ``(action, moved)``).  ``invoke`` is the dispatch (arrival) time,
    ``start`` the moment a shard began servicing it, ``respond`` its
    completion.
    """

    op_id: int
    session: int
    kind: str
    args: KeyBatch | tuple
    result: KeyBatch | tuple
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


class _SubOp:
    """One shard-local unit of work sitting in a shard FIFO: an insert's
    ``keys``, or a deletemin's ``count`` and the ``(primary, probe_set)``
    ``plan`` fixed at dispatch."""

    __slots__ = ("session", "kind", "arrival", "keys", "count", "plan")

    def __init__(self, session, kind, arrival, keys=None, count=0, plan=None):
        self.session = session
        self.kind = kind
        self.arrival = arrival
        self.keys = keys
        self.count = count
        self.plan = plan


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
    Every argument and entry is checked before the first request runs:
    a bad one raises :class:`~repro.errors.ConfigurationError` naming its
    session and request, with the fleet untouched.
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
    checked = _checked_scripts(scripts, fleet.k, think_ns, imbalance_every)
    sessions = [_Session(i, s) for i, s in enumerate(checked)]
    obs = fleet.obs
    metrics = getattr(fleet, "metrics", None)
    queues: list[deque[_SubOp]] = [deque() for _ in range(fleet.n_shards)]
    history: list[FleetOpRecord] = []
    record = history.append
    keys_in = keys_out = requests = executed = 0
    last_holder: list[str] = ["" for _ in range(fleet.n_shards)]
    # the fleet's request path, looked up once: wrappers a caller set on
    # the instance beforehand (perfbench's probes) still see every call
    route_insert = fleet.route_insert
    plan_delete = fleet.plan_delete
    exec_insert = fleet.exec_insert
    exec_deletemin = fleet.exec_deletemin

    def apply_reshard(tickets, now: float) -> None:
        """Record elastic tickets and remap queues to the new topology."""
        for t in tickets:
            record(
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
                            tgt = loads.index(min(loads))
                        else:
                            tgt = s if s < v else s - 1
                        new_queues[tgt].append(sub)
                    else:
                        sub.plan = plan_delete()
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
        while True:
            kind, arg = sess.script[sess.next_req]
            sess.next_req += 1
            requests += 1
            sess.req_end = now
            if kind == "insert":
                parts = route_insert(arg, at=now)
                if obs is not None:
                    obs.emit(OP_BEGIN, now, f"client{sess.idx}", op="insert",
                             n=int(arg.size))
                if not parts:
                    # empty insert: completes immediately, no shard
                    # touched, and the session's next request follows
                    if finish_request(sess, now):
                        now += think_ns
                        continue
                    return
                sess.outstanding = len(parts)
                for shard, sub in parts:
                    queues[shard].append(_SubOp(sess.idx, "insert", now, sub))
            else:
                plan = plan_delete()
                sess.outstanding = 1
                if obs is not None:
                    obs.emit(OP_BEGIN, now, f"client{sess.idx}",
                             op="deletemin", want=arg)
                queues[plan[0]].append(
                    _SubOp(sess.idx, "deletemin", now, None, arg, plan)
                )
            return

    def finish_request(sess: _Session, end: float) -> bool:
        """Close ``sess``'s current request; True when another follows,
        which the caller dispatches ``think_ns`` after ``end`` (the two
        closures must not call each other: that cycle would keep the
        fleet alive past the run until the cyclic collector ran)."""
        if obs is not None:
            kind = sess.script[sess.next_req - 1][0]
            obs.emit(OP_END, end, f"client{sess.idx}", op=kind)
        if sess.next_req < len(sess.script):
            return True
        sess.done = True
        if obs is not None:
            obs.emit(THREAD_FINISH, end, f"client{sess.idx}")
        return False

    for sess in sessions:
        if obs is not None:
            obs.emit(THREAD_START, 0.0, f"client{sess.idx}")
        if not sess.done:
            dispatch(sess, 0.0)
        elif obs is not None:
            obs.emit(THREAD_FINISH, 0.0, f"client{sess.idx}")

    clocks = fleet.clocks
    while True:
        # next sub-op to service: earliest tentative start
        # max(arrival, shard clock) across heads, ties to the lower shard
        best_shard = -1
        best_start = 0.0
        for s, q in enumerate(queues):
            if q:
                start = q[0].arrival
                clock = clocks[s]
                if clock > start:
                    start = clock
                if best_shard < 0 or start < best_start:
                    best_shard, best_start = s, start
        if best_shard < 0:
            break
        sub = queues[best_shard].popleft()
        sess = sessions[sub.session]
        arrival = sub.arrival
        if sub.kind == "insert":
            keys = sub.keys
            ticket = exec_insert(best_shard, keys, at=arrival)
            keys_in += keys.size
            record(
                FleetOpRecord(
                    len(history), sub.session, "insert",
                    # a copy: the sub-batch may view the caller's script
                    KeyBatch(keys.copy()), (),
                    arrival, ticket.t_start, ticket.t_end, best_shard,
                )
            )
        else:
            ticket = exec_deletemin(sub.count, at=arrival, plan=sub.plan)
            keys_out += ticket.keys.size
            record(
                FleetOpRecord(
                    len(history), sub.session, "deletemin",
                    # the fleet hands back a fresh array: frozen in place
                    (sub.count,), KeyBatch(ticket.keys),
                    arrival, ticket.t_start, ticket.t_end, best_shard,
                )
            )
        executed += 1
        end = ticket.t_end
        if metrics is not None:
            metrics.histogram(
                "repro_fleet_op_latency_ns",
                help="dispatch-to-respond latency of fleet sub-ops",
                op=sub.kind,
            ).observe(end - arrival)
        if slo is not None:
            slo.observe(sub.kind, end - arrival, ts=end)
        if obs is not None:
            name = f"client{sub.session}"
            lock = f"fleet.s{best_shard}.n1"
            if ticket.t_start > arrival:
                obs.emit(LOCK_CONTEND, arrival, name, lock=lock)
                obs.emit(
                    LOCK_GRANT, ticket.t_start, name, lock=lock,
                    waited=ticket.t_start - arrival,
                    by=last_holder[best_shard] or "router",
                )
            else:
                obs.emit(LOCK_ACQUIRE, ticket.t_start, name, lock=lock)
            obs.emit(LOCK_RELEASE, end, name, lock=lock)
            last_holder[best_shard] = name
        if executed % imbalance_every == 0:
            if obs is not None:
                obs.emit(
                    SHARD_IMBALANCE, end, "router",
                    gauge=fleet.imbalance(), sizes=fleet.shard_sizes(),
                )
            if metrics is not None:
                fleet.observe_gauges(at=end)
            if elastic is not None:
                tickets = elastic.maybe_act(fleet, now=end)
                if tickets:
                    apply_reshard(tickets, end)
                    clocks = fleet.clocks
        sess.outstanding -= 1
        if end > sess.req_end:
            sess.req_end = end
        if sess.outstanding == 0 and finish_request(sess, sess.req_end):
            dispatch(sess, sess.req_end + think_ns)

    return FleetRunResult(
        history=history,
        makespan_ns=fleet.makespan_ns,
        keys_in=keys_in,
        keys_out=keys_out,
        requests=requests,
        stats=dict(fleet.stats),
        shard_sizes=fleet.shard_sizes(),
    )


def _checked_scripts(
    scripts: list[list[tuple]], k: int, think_ns, imbalance_every
) -> list[list[tuple]]:
    """``run_fleet``'s arguments checked whole before any request runs.

    Returns the scripts with each insert's keys as a 1-D int64 array and
    each deletemin count as an ``int``.  A negative or non-finite
    ``think_ns``, an ``imbalance_every`` below 1, or an entry that is not
    ``("insert", keys)`` / ``("deletemin", count)`` with ``count`` in
    ``[1, k]`` raises :class:`ConfigurationError` naming the session and
    request, with the fleet untouched.
    """
    if not isinstance(think_ns, numbers.Real) or not 0 <= think_ns < math.inf:
        raise ConfigurationError(
            f"think_ns must be a finite number >= 0, got {think_ns!r}"
        )
    if not isinstance(imbalance_every, numbers.Integral) or imbalance_every < 1:
        raise ConfigurationError(
            f"imbalance_every must be an int >= 1, got {imbalance_every!r}"
        )
    index, asarray, i64 = operator.index, np.asarray, np.int64
    checked = []
    s = r = 0
    try:
        for s, script in enumerate(scripts):
            r = 0
            ops = []
            for r, (kind, arg) in enumerate(script):
                if kind == "insert":
                    arg = asarray(arg, dtype=i64).ravel()
                elif kind != "deletemin":
                    raise ValueError(f"unknown request kind {kind!r}")
                elif not 1 <= (arg := index(arg)) <= k:
                    raise ValueError(f"deletemin count {arg} is outside [1, {k}]")
                ops.append((kind, arg))
            checked.append(ops)
    except (TypeError, ValueError, OverflowError) as err:
        raise ConfigurationError(f"session {s} request {r}: {err}") from None
    return checked
