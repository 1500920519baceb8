"""ShardedBGPQ: N independent BGPQ shards behind a relaxed router.

The causal profiler's verdict on the single-queue design is that the
root lock is the makespan ceiling: every operation, batched or not,
serialises through node 1.  The fleet goes *around* that lock instead
of through it — following PIPQ's insert-local/delete-steal split and
the bounded-staleness framing of multiresolution priority queues:

* **Inserts are shard-local.**  The router places each batch (hash,
  spray, or the load-aware shortest/d-choice policies, see
  :mod:`.router`) and the sub-batches proceed on their shards' own
  clocks — two inserts on different shards overlap perfectly, because
  there is nothing shared to wait on.  The load-aware policies read
  :meth:`ShardedBGPQ.shard_loads` — per-shard ``(clock, backlog)``
  snapshots — so a hot shard sheds future arrivals instead of
  capping the fleet.

* **delete_min is relaxed.**  It spray-probes ``spray_width`` shard
  minima (lock-free peeks), services the delete on the probed shard
  with the smallest minimum, and — when it comes up short — *steals*
  the remainder from the fullest shard so a fleet delete still returns
  ``min(count, len(fleet))`` keys, exactly like a single queue.  The
  price is bounded staleness, not lost keys: an unprobed shard may
  hold smaller keys, so a returned key is only guaranteed to be among
  the smallest few shards' minima.  :func:`repro.core.check_k_relaxed`
  measures the rank gap actually achieved.

* **The fleet is elastic.**  :meth:`ShardedBGPQ.grow` appends fresh
  shards, :meth:`ShardedBGPQ.shrink` retires one by draining it
  through the existing steal path and re-placing its keys on the
  survivors, and :meth:`ShardedBGPQ.rebalance` moves one batch from
  the fullest to the emptiest shard.  All three return a
  :class:`ReshardTicket` and conserve the key multiset (checked by
  ``audit_fleet``); :class:`~repro.fleet.elastic.ElasticController`
  drives them from the ``shard.imbalance`` gauge at the request
  driver's safe points.

Time model: each shard is a host-speed
:class:`~repro.core.native.NativeBGPQ` that charges device cost to its
*own* simulated clock.  A fleet
operation starts at ``max(arrival, shard clock)`` and advances only
that shard's clock; the fleet makespan is the max over shard clocks.
Everything is deterministic — cost model, seeded router — so fleet
speedups are machine-portable and exact.

The fleet is keys-only (``payload_width=0``): the applications that
need payloads pin them to a single queue; the fleet targets the
service-style mixed workloads where the key *is* the message.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.native import TICKS_PER_NS, NativeBGPQ
from ..device.kernels import GpuContext
from ..errors import ConfigurationError
from ..obs.events import (
    SHARD_GROW,
    SHARD_OP_BEGIN,
    SHARD_OP_END,
    SHARD_PLACE,
    SHARD_PROBE,
    SHARD_REBALANCE,
    SHARD_SHRINK,
    SHARD_STEAL,
)
from .router import LOAD_AWARE_POLICIES, Router

__all__ = ["ShardedBGPQ", "OpTicket", "ReshardTicket"]


# ---------------------------------------------------------------------------
# shard adapter: a NativeBGPQ that reports each op's simulated cost
# ---------------------------------------------------------------------------
class _NativeShard:
    """NativeBGPQ with per-op device-cost deltas, in simulated ns."""

    def __init__(self, node_capacity: int, ctx: GpuContext):
        self.pq = NativeBGPQ(node_capacity=node_capacity, ctx=ctx)
        self._mark = self.pq.sim_ticks
        m = self.pq.model
        #: simulated cost of one optimistic root-minimum read; the
        #: model is fixed for the shard's life, so it is priced once
        self.probe_ns = float(m.global_read_ns(1)) if m is not None else 1.0

    def _delta_ns(self) -> float:
        now = self.pq.sim_ticks
        d = (now - self._mark) / TICKS_PER_NS
        self._mark = now
        return d

    def insert(self, keys: np.ndarray) -> float:
        self.pq.insert(keys)
        return self._delta_ns()

    def deletemin(self, count: int) -> tuple[np.ndarray, float]:
        keys, _pay = self.pq.deletemin(count)
        return keys, self._delta_ns()

    def peek(self):
        return self.pq.peek()

    def __len__(self) -> int:
        return len(self.pq)

    def snapshot_keys(self) -> np.ndarray:
        return self.pq.snapshot_keys()

    def check_invariants(self) -> list[str]:
        return self.pq.check_invariants()


# ---------------------------------------------------------------------------
@dataclass
class OpTicket:
    """Receipt for one serviced fleet operation (driver bookkeeping).

    ``t_arrive`` is when the request reached the fleet, ``t_start``
    when its shard began servicing it (the gap is routing + queueing),
    ``t_end`` when it completed including any steal top-ups.  For a
    delete, ``keys`` is the merged ascending result.
    """

    kind: str
    shard: int
    keys: np.ndarray
    t_arrive: float
    t_start: float
    t_end: float
    probed: tuple[int, ...] = ()
    stole: tuple[int, ...] = ()


@dataclass(frozen=True)
class ReshardTicket:
    """Receipt for one elastic action (grow / shrink / rebalance).

    ``src`` is the retired/stolen-from shard (``-1`` for a grow),
    ``dst`` the receiving shard (``-1`` when a shrink spread its keys
    over the survivors via the router), ``moved`` the number of
    migrated keys — the quantity the migration-aware k-relaxed budget
    (:func:`repro.core.relaxation_budget`) charges.  ``n_before`` /
    ``n_after`` bracket the fleet width; the driver replays tickets
    into ``kind="reshard"`` history records so the checker sees them
    in execution order.
    """

    action: str
    src: int
    dst: int
    moved: int
    n_before: int
    n_after: int
    t_start: float
    t_end: float


class ShardedBGPQ:
    """N independent BGPQ shards behind a policy router.

    Parameters
    ----------
    n_shards:
        Fleet width at construction; :meth:`grow` / :meth:`shrink`
        change it at runtime.  ``n_shards=1`` *is* the single-queue
        baseline — the router degenerates to the identity and
        delete_min probes the only shard — which is what the shard
        bench's speedups are measured against.
    node_capacity:
        Per-shard batch node capacity (the paper's k); also the upper
        bound on a single delete_min's ``count``.
    policy / spray_width / seed:
        Router configuration (see :class:`~repro.fleet.router.Router`).
    obs:
        Optional :class:`~repro.obs.events.EventBus`; shard-level
        events (op begin/end, probes, steals) are emitted with explicit
        fleet timestamps so ``repro trace analyze`` can attribute
        cross-shard waits.
    """

    def __init__(
        self,
        n_shards: int = 4,
        node_capacity: int = 512,
        policy: str = "hash",
        spray_width: int = 2,
        seed: int = 0,
        ctx: GpuContext | None = None,
        obs=None,
        metrics=None,
    ):
        self.k = node_capacity
        self.router = Router(
            n_shards, policy=policy, spray_width=spray_width, seed=seed
        )
        ctx = ctx if ctx is not None else GpuContext.default()
        self.ctx = ctx
        self.shards = [self._make_shard() for _ in range(n_shards)]
        #: per-shard simulated clocks; the fleet makespan is their max
        self.clocks = [0.0] * n_shards
        #: per-shard routed-but-not-yet-serviced key counts — the
        #: backlog half of the load signal the load-aware policies read
        self._pending = [0] * n_shards
        #: router-side size accounting, cross-checked by audit_fleet
        #: against the sum of shard sizes
        self._size = 0
        self.obs = obs
        self.metrics = metrics
        #: delete-plan rounds (denominator of the probe hit ratio gauge)
        self._plan_rounds = 0
        self.stats = {
            "inserts": 0,
            "deletes": 0,
            "probes": 0,
            "empty_probes": 0,
            "steals": 0,
            "grows": 0,
            "shrinks": 0,
            "rebalances": 0,
            "migrated": 0,
        }

    def _make_shard(self) -> _NativeShard:
        """One fresh empty shard with the fleet's capacity and context."""
        return _NativeShard(self.k, self.ctx)

    # -- properties ---------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return self.router.n_shards

    @property
    def makespan_ns(self) -> float:
        return max(self.clocks)

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def shard_sizes(self) -> list[int]:
        return [len(s) for s in self.shards]

    def shard_loads(self) -> list[tuple[float, int]]:
        """Per-shard ``(clock, backlog)`` load snapshot.

        The lexical ordering is what the load-aware router policies
        compare: the simulated clock dominates (join the shard that
        frees up first), and the backlog — routed-but-unserviced keys
        plus stored occupancy — breaks cold-start ties so simultaneous
        dispatches at clock 0 don't herd onto one shard.
        """
        return [
            (self.clocks[i], self._pending[i] + len(s))
            for i, s in enumerate(self.shards)
        ]

    def reset_pending(self, counts: list[int] | None = None) -> None:
        """Overwrite the backlog hint (driver calls this after a reshard)."""
        if counts is None:
            self._pending = [0] * self.n_shards
        else:
            self._pending = list(counts)

    def imbalance(self) -> float:
        """Max/mean shard occupancy (1.0 == perfectly balanced)."""
        sizes = self.shard_sizes()
        total = sum(sizes)
        if not total:
            return 1.0
        return max(sizes) * self.n_shards / total

    def snapshot_keys(self) -> np.ndarray:
        parts = [s.snapshot_keys() for s in self.shards]
        return (
            np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
        )

    def check_invariants(self) -> list[str]:
        problems = []
        for i, shard in enumerate(self.shards):
            problems.extend(f"shard {i}: {p}" for p in shard.check_invariants())
        return problems

    # -- routed execution (ticket API, used by the request driver) ----------
    def route_insert(self, keys, at: float = 0.0) -> list[tuple[int, np.ndarray]]:
        """Router placement only — no execution, no clock movement.

        Updates the backlog hint for the chosen shards (so back-to-back
        load-aware placements see each other's unserviced work) and
        emits one ``shard.place`` event per placed sub-batch.
        """
        keys = np.asarray(keys, dtype=np.int64).ravel()
        loads = (
            self.shard_loads()
            if self.router.policy in LOAD_AWARE_POLICIES
            else None
        )
        parts = self.router.place(keys, loads=loads)
        if self.metrics is not None:
            self.metrics.counter(
                "repro_fleet_place_total",
                help="sub-batches placed by the router",
                policy=self.router.policy,
            ).inc(len(parts))
        for shard, part in parts:
            self._pending[shard] += part.size
            if self.obs is not None:
                self.obs.emit(
                    SHARD_PLACE, at, "router",
                    policy=self.router.policy, shard=shard, n=int(part.size),
                    candidates=list(self.router.last_candidates),
                )
        return parts

    def exec_insert(self, shard: int, keys: np.ndarray, at: float = 0.0) -> OpTicket:
        """Service one placed sub-batch on its shard at arrival ``at``."""
        s = self.shards[shard]
        start = max(at, self.clocks[shard])
        cost = s.insert(keys)
        end = start + cost
        self.clocks[shard] = end
        self._size += keys.size
        self._pending[shard] = max(0, self._pending[shard] - keys.size)
        self.stats["inserts"] += 1
        if self.obs is not None:
            name = f"shard{shard}"
            self.obs.emit(SHARD_OP_BEGIN, start, name, shard=shard, op="insert",
                          n=int(keys.size))
            self.obs.emit(SHARD_OP_END, end, name, shard=shard, op="insert",
                          n=int(keys.size))
        return OpTicket("insert", shard, keys, at, start, end)

    def plan_delete(self) -> tuple[int, tuple[int, ...]]:
        """Spray-probe shard minima and pick the primary shard.

        The probe is *optimistic*: it reads each probed shard's root
        minimum without taking any lock, so by service time the minimum
        may have moved — exactly the staleness the k-relaxed checker
        measures.  All probed shards empty → steal-from-fullest over
        the whole fleet (PIPQ's fallback).
        """
        probe = self.router.probe_set()
        self.stats["probes"] += len(probe)
        self._plan_rounds += 1
        if self.metrics is not None:
            self.metrics.counter(
                "repro_fleet_probes_total",
                help="shard minima probed by relaxed deletes",
            ).inc(len(probe))
        best = None
        best_key = None
        for p in probe:
            m = self.shards[p].peek()
            if m is not None and (best_key is None or m < best_key):
                best, best_key = p, m
        if best is None:
            self.stats["empty_probes"] += 1
            if self.metrics is not None:
                self.metrics.counter(
                    "repro_fleet_empty_probes_total",
                    help="probe rounds where every probed shard was empty",
                ).inc()
            sizes = self.shard_sizes()
            fullest = max(range(len(sizes)), key=lambda i: (sizes[i], -i))
            best = fullest if sizes[fullest] else probe[0]
        return best, probe

    def exec_deletemin(
        self,
        count: int,
        at: float = 0.0,
        plan: tuple[int, tuple[int, ...]] | None = None,
    ) -> OpTicket:
        """Service one relaxed delete: probe, pop, steal top-ups.

        Returns ``min(count, len(fleet))`` keys merged ascending.  The
        probe's read cost is part of the op's latency (added to its
        arrival), not of any shard's busy time — probes don't hold
        locks, so they never serialise behind shard operations.
        """
        if not 1 <= count <= self.k:
            raise ValueError(
                f"delete_min count must be in [1, {self.k}], got {count}"
            )
        primary, probe = plan if plan is not None else self.plan_delete()
        probe_cost = sum(self.shards[p].probe_ns for p in probe)
        s = self.shards[primary]
        start = max(at + probe_cost, self.clocks[primary])
        if self.obs is not None:
            self.obs.emit(SHARD_PROBE, at, "router",
                          shards=list(probe), primary=primary)
            self.obs.emit(SHARD_OP_BEGIN, start, f"shard{primary}",
                          shard=primary, op="deletemin", want=count)
        keys, cost = s.deletemin(count)
        end = start + cost
        self.clocks[primary] = end
        parts = [keys]
        got = keys.size
        stole: list[int] = []
        # top-up: the primary drained before satisfying the request —
        # steal the remainder from the fullest shard(s) so a fleet
        # delete is never artificially short (exact-drain guarantee)
        while got < count:
            sizes = self.shard_sizes()
            victim = max(range(len(sizes)), key=lambda i: (sizes[i], -i))
            if not sizes[victim]:
                break
            v = self.shards[victim]
            vstart = max(end, self.clocks[victim])
            vkeys, vcost = v.deletemin(min(count - got, self.k))
            vend = vstart + vcost
            self.clocks[victim] = vend
            end = vend
            parts.append(vkeys)
            got += vkeys.size
            stole.append(victim)
            self.stats["steals"] += 1
            if self.metrics is not None:
                self.metrics.counter(
                    "repro_fleet_steals_total",
                    help="steal top-ups taken by short relaxed deletes",
                ).inc()
            if self.obs is not None:
                self.obs.emit(SHARD_STEAL, vstart, f"shard{victim}",
                              shard=victim, want=count - got + vkeys.size,
                              got=int(vkeys.size))
        out = np.sort(np.concatenate(parts)) if len(parts) > 1 else keys
        self._size -= out.size
        self.stats["deletes"] += 1
        if self.obs is not None:
            self.obs.emit(SHARD_OP_END, end, f"shard{primary}",
                          shard=primary, op="deletemin", got=int(out.size))
        return OpTicket(
            "deletemin", primary, out, at, start, end,
            probed=probe, stole=tuple(stole),
        )

    # -- elasticity (grow / shrink / rebalance) -----------------------------
    def grow(self, count: int = 1, at: float = 0.0) -> ReshardTicket:
        """Append ``count`` fresh empty shards at time ``at``.

        New shards start with clock ``at`` and no keys, so they are
        immediately the least-loaded targets for the load-aware
        policies (and new members of hash's key space).  No keys move;
        structurally instant — growing costs nothing but future routing
        changes.
        """
        if count < 1:
            raise ConfigurationError("grow count must be >= 1")
        before = self.n_shards
        for _ in range(count):
            self.shards.append(self._make_shard())
            self.clocks.append(float(at))
            self._pending.append(0)
        after = before + count
        self.router.resize(after)
        self.stats["grows"] += 1
        self._count_reshard("grow", 0)
        if self.obs is not None:
            self.obs.emit(SHARD_GROW, at, "router", before=before, after=after)
        return ReshardTicket("grow", -1, -1, 0, before, after, at, at)

    def shrink(self, victim: int | None = None, at: float = 0.0) -> ReshardTicket:
        """Retire one shard: drain it and re-place its keys on survivors.

        The victim (default: the emptiest shard) is drained through its
        own deletemin path — the same code a steal runs — charged to
        its clock; the drained keys are then re-placed through the
        router in ``k``-sized chunks (so the load-aware policies spread
        them) and bulk-inserted into the surviving shards, *without*
        touching the fleet's size accounting: the key multiset is
        conserved, which ``audit_fleet`` verifies.  The migration is
        visible to the k-relaxed checker as a ``kind="reshard"``
        history record carrying ``moved`` (see
        :func:`repro.core.relaxation_budget`): a delete planned before
        the shrink may have probed the retiring shard, so its measured
        rank can be inflated by up to ``moved`` in-flight keys.
        """
        n = self.n_shards
        if n < 2:
            raise ConfigurationError("cannot shrink a 1-shard fleet")
        sizes = self.shard_sizes()
        if victim is None:
            victim = min(range(n), key=lambda i: (sizes[i], i))
        if not 0 <= victim < n:
            raise ConfigurationError(f"victim {victim} out of range [0, {n})")
        shard = self.shards[victim]
        t0 = max(at, self.clocks[victim])
        end = t0
        drained: list[np.ndarray] = []
        while len(shard):
            keys, cost = shard.deletemin(min(len(shard), self.k))
            end += cost
            drained.append(keys)
        moved = (
            np.concatenate(drained) if drained else np.empty(0, dtype=np.int64)
        )
        del self.shards[victim]
        del self.clocks[victim]
        del self._pending[victim]
        self.router.resize(n - 1)
        # re-place on the survivors in k-sized chunks; clocks advance,
        # _size does not — the keys never left the fleet
        drain_end = end
        for i in range(0, moved.size, self.k):
            chunk = moved[i : i + self.k]
            loads = (
                self.shard_loads()
                if self.router.policy in LOAD_AWARE_POLICIES
                else None
            )
            for dst, part in self.router.place(chunk, loads=loads):
                start = max(drain_end, self.clocks[dst])
                self.clocks[dst] = start + self.shards[dst].insert(part)
                end = max(end, self.clocks[dst])
        self.stats["shrinks"] += 1
        self.stats["migrated"] += int(moved.size)
        self._count_reshard("shrink", int(moved.size))
        if self.obs is not None:
            self.obs.emit(
                SHARD_SHRINK, t0, "router",
                victim=victim, moved=int(moved.size), before=n, after=n - 1,
            )
        return ReshardTicket(
            "shrink", victim, -1, int(moved.size), n, n - 1, t0, end
        )

    def rebalance(self, at: float = 0.0) -> ReshardTicket | None:
        """Proactively steal one batch from the fullest to the emptiest.

        Moves ``min(k, gap // 2)`` of the fullest shard's smallest keys
        into the emptiest shard (deletemin + bulk insert — the same
        primitives a reactive steal uses, but triggered by the
        imbalance gauge instead of a short primary).  Returns ``None``
        when the fleet is already balanced enough that moving keys
        would be churn.  Conserves the key multiset; visible to the
        checker as a ``kind="reshard"`` record like :meth:`shrink`.
        """
        n = self.n_shards
        if n < 2:
            return None
        sizes = self.shard_sizes()
        src = max(range(n), key=lambda i: (sizes[i], -i))
        dst = min(range(n), key=lambda i: (sizes[i], i))
        gap = sizes[src] - sizes[dst]
        want = min(self.k, gap // 2)
        if src == dst or want < 1:
            return None
        t0 = max(at, self.clocks[src])
        keys, cost = self.shards[src].deletemin(want)
        self.clocks[src] = t0 + cost
        start = max(t0 + cost, self.clocks[dst])
        end = start + self.shards[dst].insert(keys)
        self.clocks[dst] = end
        self.stats["rebalances"] += 1
        self.stats["migrated"] += int(keys.size)
        self._count_reshard("rebalance", int(keys.size))
        if self.obs is not None:
            self.obs.emit(
                SHARD_REBALANCE, t0, "router",
                src=src, dst=dst, moved=int(keys.size),
            )
        return ReshardTicket(
            "rebalance", src, dst, int(keys.size), n, n, t0, end
        )

    def _count_reshard(self, action: str, moved: int) -> None:
        if self.metrics is None:
            return
        self.metrics.counter(
            "repro_fleet_reshard_total",
            help="elastic actions taken (grow/shrink/rebalance)",
            action=action,
        ).inc()
        if moved:
            self.metrics.counter(
                "repro_fleet_migrated_keys_total",
                help="keys moved by shrinks and rebalances",
            ).inc(moved)

    def observe_gauges(self, at: float = 0.0) -> None:
        """Refresh the fleet's live gauges (driver calls this at its
        imbalance safe points; pure host-state writes).

        Per-shard occupancy and clock gauges are labeled by shard index;
        :meth:`~repro.obs.metrics.MetricsRegistry.drop` retires the
        series of shards a shrink removed, so the exposition never shows
        ghost shards.
        """
        m = self.metrics
        if m is None:
            return
        n = self.n_shards
        sizes = self.shard_sizes()
        for i in range(n):
            m.gauge(
                "repro_shard_occupancy",
                help="keys stored per shard",
                shard=str(i),
            ).set(sizes[i])
            m.gauge(
                "repro_shard_clock_ns",
                help="per-shard simulated clock",
                shard=str(i),
            ).set(self.clocks[i])
        # retire gauge series of shards that no longer exist
        i = n
        while m.drop("repro_shard_occupancy", shard=str(i)):
            m.drop("repro_shard_clock_ns", shard=str(i))
            i += 1
        m.gauge("repro_fleet_width",
                help="current number of shards").set(n)
        m.gauge(
            "repro_fleet_clock_skew_ns",
            help="max - min shard clock (how unevenly time advanced)",
        ).set(max(self.clocks) - min(self.clocks) if self.clocks else 0.0)
        m.gauge(
            "repro_fleet_imbalance",
            help="max/mean shard occupancy (1.0 = balanced)",
        ).set(self.imbalance())
        rounds = self._plan_rounds
        m.gauge(
            "repro_fleet_probe_hit_ratio",
            help="fraction of probe rounds that found a non-empty shard",
        ).set(1.0 - self.stats["empty_probes"] / rounds if rounds else 1.0)

    # -- convenience API (immediate execution) ------------------------------
    def insert(self, keys) -> list[OpTicket]:
        """Route and service an insert now; returns one ticket per shard."""
        return [
            self.exec_insert(shard, part) for shard, part in self.route_insert(keys)
        ]

    def delete_min(self, count: int = 1) -> np.ndarray:
        """Relaxed global deletemin; returns merged ascending keys."""
        return self.exec_deletemin(count).keys

    # deletemin alias, matching the single-queue engines' spelling
    deletemin = delete_min
