"""The benchmark's three workloads, each a closed loop with one client.

* :class:`Knapsack` solves weakly-correlated 0-1 knapsack instances back
  to back with ``apps.knapsack.solve_batched`` at its defaults.
* :class:`Serve` drives one ``serve.DurableService`` (``fsync=True``)
  through ``AdmissionController``, alternating inserts of k fresh keys
  with ``deletemin(k)`` on a queue kept at a steady occupancy.
* :class:`Fleet` runs ``fleet.run_fleet`` rounds over a 4-shard native
  ``ShardedBGPQ`` with the ``d-choice`` router.

Every workload has the same surface: :meth:`prepare` (untimed input
preparation), :meth:`setup` (timed by the caller as ``setup_s``) and
:meth:`run`, which measures units (a solve, a request, a fleet round)
until a busy-time budget or a unit count is reached, then checks the
outputs outside the timed region.  ``trace_rate`` is the fixed work of a
traced pass, in units per second of ``--seconds``.  Given a
:class:`~probes.Tracer`, :meth:`run` also attaches the probes and fills
``Pass.layer`` with the workload's own per-layer metrics.
"""

from __future__ import annotations

import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from probes import Tracer, percentile
from repro.apps.knapsack import generate, solve_batched, solve_dp
from repro.core.audit import HeapAuditor
from repro.core.linearizability import check_k_relaxed, relaxation_budget
from repro.core.native import NativeBGPQ
from repro.device.kernels import GpuContext
from repro.fleet import ShardedBGPQ, mixed_scripts, run_fleet
from repro.serve import AdmissionController, DurableService

__all__ = ["Sizes", "Pass", "Knapsack", "Serve", "Fleet", "WORKLOADS"]

_clock = time.perf_counter


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the defaults are the benchmark, tests shrink them."""

    # knapsack: ~0.4M-record heaps (a 16 MiB arena, 4x the L2)
    items: int = 800
    instance_pool: int = 6  # one pass over the pool takes ~2.5 s
    min_heap: int = 300_000  # records; instances with smaller heaps are skipped
    warm_items: int = 300
    # serve
    serve_k: int = 128
    prefill_batches: int = 128  # steady occupancy: 16384 keys
    history_ops: int = 200  # alternating ops already in the WAL at start
    epoch_requests: int = 4096  # requests per data directory
    # fleet
    fleet_k: int = 512
    sessions: int = 8
    session_requests: int = 64
    script_pool: int = 8  # one pass over the pool takes ~0.6 s
    replay_units: int = 2  # solves / epochs / rounds kept on tape


@dataclass
class Pass:
    """What one measured pass produced."""

    times: list[float] = field(default_factory=list)  # seconds per unit
    # per unit: nodes expanded (knapsack) or requests (serve, fleet)
    work: list[int] = field(default_factory=list)
    outputs: list = field(default_factory=list)  # must match across passes
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    layer: dict = field(default_factory=dict)  # own per-layer metrics
    busy: float = 0.0  # sum of times
    # unit counts at which each whole pass over the same units ends
    marks: list[int] = field(default_factory=list)

    def add(self, seconds: float, work: int) -> None:
        self.times.append(seconds)
        self.work.append(work)
        self.busy += seconds

    def extend(self, other: "Pass") -> None:
        """Append a later pass of the same workload."""
        self.marks += [len(self.times) + m for m in other.marks]
        self.times += other.times
        self.work += other.work
        self.outputs += other.outputs
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems[: 20 - len(self.problems)]
        self.busy += other.busy

    def fail(self, n: int, problem: str) -> None:
        self.failed += n
        if len(self.problems) < 20:
            self.problems.append(problem)


def _more(p: Pass, budget_s: float | None, units: int | None) -> bool:
    """Closed loop: keep going until the busy budget or unit count is met."""
    if units is not None:
        return len(p.times) < units
    return p.busy < budget_s


def _seeds(seed: int, stream: int, n: int) -> list[int]:
    """``n`` independent integer seeds derived from the workload seed."""
    ss = np.random.SeedSequence([seed, stream])
    return [int(x) for x in ss.generate_state(n)]


# ---------------------------------------------------------------------------
class Knapsack:
    """Back-to-back ``solve_batched`` over a seeded instance pool.

    A measured run is made of whole passes over the pool, in a fixed
    order, so a faster commit times the same solves, only more often.
    """

    name = "knapsack"
    unit = "solve"
    tail_pct = 80  # ~70 solves a run: p80 keeps ten samples beyond it
    trace_rate = 1.0

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.seed = seed
        self.sizes = sizes
        self.pool = []
        self._pool_seeds: list[int] = []
        self._optima: dict[int, int] = {}

    def prepare(self) -> None:
        """Pick the pool: the first instances whose heap reaches ``min_heap``.

        About one weakly-correlated instance in ten is easy: its heap stays
        small, and it solves 2-4x faster than the rest, so it would miss
        the point of the workload and move the median solve time from seed
        to seed.
        """
        s = self.sizes
        for x in _seeds(self.seed, 0, 4 * s.instance_pool):
            inst = generate(s.items, "weakly_correlated", seed=x)
            if s.min_heap and solve_batched(inst).max_queue < s.min_heap:
                continue
            self._pool_seeds.append(x)
            if len(self._pool_seeds) == s.instance_pool:
                return
        raise RuntimeError(f"fewer than {s.instance_pool} instances reach a "
                           f"heap of {s.min_heap} records")

    def tape_queues(self) -> int:
        return self.sizes.replay_units

    def setup(self) -> None:
        s = self.sizes
        self.pool = [generate(s.items, "weakly_correlated", seed=x)
                     for x in self._pool_seeds]
        # warm-up solve (allocator, kernels, numpy) on one fixed instance,
        # so set-up time does not depend on the seed
        solve_batched(generate(s.warm_items, "weakly_correlated", seed=0))

    def run(self, budget_s=None, units=None, tracer: Tracer | None = None) -> Pass:
        p = Pass()
        expand_s = 0.0
        expanded = pruned = 0
        made: list[NativeBGPQ] = []

        def factory(node_capacity, ctx, payload_width, storage):
            pq = NativeBGPQ(node_capacity=node_capacity, ctx=ctx,
                            payload_width=payload_width, storage=storage)
            made.append(tracer.attach_queue(pq))
            return pq

        while _more(p, budget_s, units):
            solves = len(self.pool)
            if units is not None:
                solves = min(solves, units - len(p.times))
            for idx in range(solves):
                queue_before = tracer.queue_busy() if tracer else 0.0
                t0 = _clock()
                if tracer is None:
                    r = solve_batched(self.pool[idx])
                else:
                    r = solve_batched(self.pool[idx], pq_factory=factory)
                dt = _clock() - t0
                p.add(dt, r.nodes_expanded)
                p.outputs.append((idx, r.best_profit, r.nodes_expanded,
                                  r.nodes_pruned, r.max_queue, r.sim_time_ns))
                if tracer is not None:
                    expand_s += dt - (tracer.queue_busy() - queue_before)
                    tracer.note_arena(made[-1:])
                    made.clear()
                expanded += r.nodes_expanded
                pruned += r.nodes_pruned
            p.marks.append(len(p.times))
        # correctness, outside the timed region: every optimum against DP
        for idx, best, *_ in p.outputs:
            p.attempted += 1
            if idx not in self._optima:
                self._optima[idx] = solve_dp(self.pool[idx])
            if best != self._optima[idx]:
                p.fail(1, f"instance {idx}: branch and bound found {best}, "
                          f"DP optimum is {self._optima[idx]}")
        if tracer is not None:
            p.layer = {
                "apps.expand_s": (expand_s, "s"),
                "apps.useful_ratio": (expanded / max(1, expanded + pruned), "ratio"),
            }
        return p


# ---------------------------------------------------------------------------
class Serve:
    """One client on a durable queue, restarted from a prior history.

    The data directory the service starts from (prefill plus a short
    alternating history, checkpoints included) is written once per
    process.  Set-up copies it and opens the service on it, which is a
    recovery.  The library never prunes its WAL, so requests run in
    epochs of ``epoch_requests``, each on a fresh copy: memory and
    recovery time then do not grow with the request rate.  Every epoch
    sends the same requests, so a measured run is made of whole passes
    over the same units, like knapsack's.
    """

    name = "serve"
    unit = "request"
    tail_pct = 99
    trace_rate = 400.0
    SID = "client0"

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.template = workdir / "template"
        self._history_ops = 0
        self._copies = 0
        self._full_digest = ""  # live digest after the first full epoch

    def _queue(self) -> NativeBGPQ:
        return NativeBGPQ(node_capacity=self.sizes.serve_k,
                          ctx=GpuContext.default())

    def _keys(self, rng) -> np.ndarray:
        return rng.integers(0, 1 << 40, size=self.sizes.serve_k, dtype=np.int64)

    def tape_queues(self) -> int:
        return self.sizes.replay_units

    def prepare(self) -> None:
        """Write the history every data directory starts from."""
        s = self.sizes
        rng = np.random.default_rng(_seeds(self.seed, 1, 1)[0])
        op = 0
        with DurableService.open(self._queue(), self.template, fsync=True) as svc:
            for _ in range(s.prefill_batches):
                op += 1
                svc.apply_insert(self.SID, op, self._keys(rng))
            for j in range(s.history_ops):
                op += 1
                if j % 2 == 0:
                    svc.apply_insert(self.SID, op, self._keys(rng))
                else:
                    svc.apply_deletemin(self.SID, op, s.serve_k)
        self._history_ops = op

    def _open_copy(self) -> tuple[DurableService, Path]:
        self._copies += 1
        d = self.workdir / f"copy{self._copies}"
        shutil.copytree(self.template, d)
        return DurableService.open(self._queue(), d, fsync=True), d

    def setup(self) -> None:
        svc, d = self._open_copy()
        svc.close()
        shutil.rmtree(d)

    def run(self, budget_s=None, units=None, tracer: Tracer | None = None) -> Pass:
        s = self.sizes
        p = Pass()
        recovery_s, replayed = [], []
        wal_bytes = ckpt_bytes = user_bytes = 0
        epoch = 0
        while _more(p, budget_s, units):
            svc, d = self._open_copy()
            adm = AdmissionController()
            if tracer is not None:
                tracer.attach_queue(svc.queue)
                tracer.wrap(svc.wal, "append", "serve.wal_append")

                def saved(_args, _kwargs, path):
                    nonlocal ckpt_bytes
                    ckpt_bytes += path.stat().st_size

                tracer.wrap(svc.checkpoints, "save", "serve.ckpt_save", saved)
                # only checkpoints export state inside the request loop
                tracer.wrap(svc.queue, "export_state", "serve.export")
                tracer.wrap(adm, "try_admit", "serve.admit")
                tracer.wrap(adm, "complete", "serve.admit")
                wal_start = svc.wal.path.stat().st_size
            rng = np.random.default_rng(_seeds(self.seed, 2, 1)[0])
            op = self._history_ops
            n = 0
            timed = len(p.times)
            # a busy-time budget ends only at the end of an epoch
            while n < s.epoch_requests and (units is None or len(p.times) < units):
                op += 1
                insert = n % 2 == 0
                keys = self._keys(rng) if insert else None
                t0 = _clock()
                if adm.try_admit(self.SID) is not None:
                    p.fail(1, f"epoch {epoch}: request {n} was shed")
                    n += 1
                    continue
                if insert:
                    svc.apply_insert(self.SID, op, keys)
                else:
                    svc.apply_deletemin(self.SID, op, s.serve_k)
                adm.complete(self.SID)
                p.add(_clock() - t0, 1)
                n += 1
            p.attempted += n
            if len(p.times) - timed == s.epoch_requests:
                p.marks.append(len(p.times))
            if tracer is not None:
                del svc.queue.export_state  # digest() below is not a checkpoint
                wal_bytes += svc.wal.path.stat().st_size - wal_start
                user_bytes += 8 * s.serve_k * ((n + 1) // 2)
                tracer.note_arena([svc.queue])
            # correctness, outside the timed region
            live = svc.digest()
            audit = svc.audit(context=f"serve epoch {epoch}")
            svc.close()
            t0 = _clock()
            back = DurableService.open(self._queue(), d, fsync=True)
            took = _clock() - t0
            if n == s.epoch_requests or not recovery_s:
                recovery_s.append(took)
                replayed.append(back.recovery_info["replayed"])
            recovered = back.digest()
            back.close()
            shutil.rmtree(d)
            p.outputs.append((epoch, n, live))
            if not audit.ok:
                p.fail(n, f"epoch {epoch}: audit failed: {audit.problems[:3]}")
            elif recovered != live:
                p.fail(n, f"epoch {epoch}: recovered digest {recovered[:12]} "
                          f"!= live digest {live[:12]}")
            elif n == s.epoch_requests:
                # the same requests must leave the same queue every time
                first = self._full_digest = self._full_digest or live
                if live != first:
                    p.fail(n, f"epoch {epoch}: digest {live[:12]} differs "
                              f"from the first full epoch's {first[:12]}")
            epoch += 1
        if tracer is not None:
            admit = tracer.samples["serve.admit"]
            admission = [a + b for a, b in zip(admit[0::2], admit[1::2])]
            p.layer = {
                "serve.admission_us_p50": (percentile(admission, 50) * 1e6, "us"),
                "serve.wal_append_us_p50": (tracer.pct_us("serve.wal_append", 50), "us"),
                "serve.wal_append_us_p99": (tracer.pct_us("serve.wal_append", 99), "us"),
                "serve.export_ms_p50": (tracer.pct_ms("serve.export", 50), "ms"),
                "serve.ckpt_save_ms_p50": (tracer.pct_ms("serve.ckpt_save", 50), "ms"),
                "serve.checkpoints": (len(tracer.samples["serve.ckpt_save"]), "count"),
                "serve.write_amp": ((wal_bytes + ckpt_bytes) / max(1, user_bytes), "ratio"),
                "serve.recovery_s": (statistics.median(recovery_s), "s"),
                "serve.recovery_replayed": (statistics.median(replayed), "count"),
            }
        return p


# ---------------------------------------------------------------------------
def _history_digest(history) -> int:
    """Equal for equal histories within one process.

    ``hash`` rather than a digest of ``repr``: a round's history holds
    ~260K keys, and printing them all took about half as long as the
    round itself, ~12 s of a 30-second run's wall time.
    """
    return hash(tuple((r.session, r.kind, r.args, r.result, r.invoke,
                       r.start, r.respond, r.shard) for r in history))


SHARDS = 4
SKEW = 1.1  # Zipf skew of the sessions' key pool


class Fleet:
    """``run_fleet`` rounds over a fresh 4-shard fleet each.

    Like knapsack, a measured run is made of whole passes over the
    script pool, in a fixed order.
    """

    name = "fleet"
    unit = "round"
    tail_pct = 95  # ~350 rounds a run
    trace_rate = 6.0

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.seed = seed
        self.sizes = sizes
        self.scripts: list = []
        self._fleet_seeds: list[int] = []
        self._checked: dict[int, str] = {}

    def _fleet(self, idx: int) -> ShardedBGPQ:
        s = self.sizes
        return ShardedBGPQ(n_shards=SHARDS, node_capacity=s.fleet_k,
                           policy="d-choice", seed=self._fleet_seeds[idx])

    def prepare(self) -> None:
        pass

    def tape_queues(self) -> int:
        return self.sizes.replay_units * SHARDS

    def setup(self) -> None:
        s = self.sizes
        seeds = _seeds(self.seed, 3, 2 * s.script_pool)
        self._fleet_seeds = seeds[s.script_pool:]
        self.scripts = [
            mixed_scripts(s.sessions, s.session_requests, s.fleet_k,
                          seed=x, skew=SKEW)
            for x in seeds[: s.script_pool]
        ]
        run_fleet(self._fleet(0), self.scripts[0])  # warm-up round

    def _check(self, fleet: ShardedBGPQ, result, sessions: int) -> list[str]:
        budget = relaxation_budget(fleet.k, sessions, fleet.n_shards,
                                   migrated=fleet.stats["migrated"])
        relax = check_k_relaxed(result.history, k=budget)
        inserted = [np.asarray(r.args, dtype=np.int64)
                    for r in result.history if r.kind == "insert"]
        removed = [np.asarray(r.result, dtype=np.int64)
                   for r in result.history if r.kind == "deletemin"]
        audit = HeapAuditor(fleet).audit(inserted=inserted, removed=removed)
        problems = [f"k-relaxed (budget {budget}): {x}" for x in relax.problems]
        if relax.rank_violations:
            problems.append(f"{relax.rank_violations} ranks beyond budget {budget}")
        return problems + [f"audit: {x}" for x in audit.problems]

    def _round(self, p: Pass, idx: int, stats: dict, tracer: Tracer | None) -> None:
        """Run script ``idx`` once on a fresh fleet and check its history."""
        fleet = self._fleet(idx)
        if tracer is not None:
            for pq in (shard.pq for shard in fleet.shards):
                tracer.attach_queue(pq)
            tracer.wrap(fleet, "route_insert", "fleet.route")
            tracer.wrap(fleet, "plan_delete", "fleet.plan")
            tracer.wrap(fleet, "exec_insert", "fleet.exec_insert")
            tracer.wrap(fleet, "exec_deletemin", "fleet.exec_deletemin")
        t0 = _clock()
        result = run_fleet(fleet, self.scripts[idx])
        p.add(_clock() - t0, result.requests)
        p.attempted += result.requests
        for key in stats:
            stats[key] += result.stats[key]
        if tracer is not None:
            tracer.note_arena([shard.pq for shard in fleet.shards])
        # correctness, outside the timed region: a full check the first
        # time a script runs, an identical history every later time
        digest = _history_digest(result.history)
        p.outputs.append((idx, digest))
        if idx not in self._checked:
            problems = self._check(fleet, result, len(self.scripts[idx]))
            if problems:
                p.fail(result.requests, f"round {idx}: {problems[:3]}")
            self._checked[idx] = digest
        elif self._checked[idx] != digest:
            p.fail(result.requests,
                   f"round {idx}: history differs from its first run")

    def run(self, budget_s=None, units=None, tracer: Tracer | None = None) -> Pass:
        p = Pass()
        stats = {"inserts": 0, "deletes": 0, "steals": 0, "empty_probes": 0}
        exec_names = ("fleet.route", "fleet.plan", "fleet.exec_insert",
                      "fleet.exec_deletemin")
        while _more(p, budget_s, units):
            rounds = len(self.scripts)
            if units is not None:
                rounds = min(rounds, units - len(p.times))
            for idx in range(rounds):
                self._round(p, idx, stats, tracer)
            p.marks.append(len(p.times))
        if tracer is not None:
            inside = sum(tracer.busy[n] for n in exec_names)
            p.layer = {
                "fleet.route_us_p50": (tracer.pct_us("fleet.route", 50), "us"),
                "fleet.plan_us_p50": (tracer.pct_us("fleet.plan", 50), "us"),
                "fleet.exec_insert_us_p50": (tracer.pct_us("fleet.exec_insert", 50), "us"),
                "fleet.exec_insert_us_p99": (tracer.pct_us("fleet.exec_insert", 99), "us"),
                "fleet.exec_deletemin_us_p50": (tracer.pct_us("fleet.exec_deletemin", 50), "us"),
                "fleet.exec_deletemin_us_p99": (tracer.pct_us("fleet.exec_deletemin", 99), "us"),
                "fleet.driver_self_s": (p.busy - inside, "s"),
                "fleet.subops_per_req": (
                    (stats["inserts"] + stats["deletes"] + stats["steals"])
                    / max(1, sum(p.work)), "ratio"),
                "fleet.empty_probe_ratio": (
                    stats["empty_probes"] / max(1, stats["deletes"]), "ratio"),
                "fleet.steals": (stats["steals"], "count"),
            }
        return p


WORKLOADS = {w.name: w for w in (Knapsack, Serve, Fleet)}
