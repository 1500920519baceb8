"""``run_serve``: the engine room behind the ``repro serve`` CLI verb.

One serve run spins up a discrete-event engine with N client sessions,
a durable NativeBGPQ server and a supervisor.
The supervisor forks the server (wrapped by the fault injector, so the
configured plan can crash it at any crashpoint), joins it, and on a
crash performs recovery *from disk*: the in-memory service is
discarded and :meth:`~repro.serve.service.DurableService.open` rebuilds
the queue from the newest checkpoint plus WAL replay — the recovered
state then serves the rest of the run, so the end-of-run digest drill
and audit validate genuine checkpoint+WAL recovery, not a warm cache.

After the engine drains, three verdicts decide the outcome:

* **audit** — :class:`~repro.core.audit.HeapAuditor` with the WAL as
  the conservation ledger (structure + length + exact key multisets);
* **drill** — a *fresh* queue is recovered from the data dir and its
  canonical digest must equal the live queue's;
* **admitted-key conservation** — every key a session saw admitted
  must appear in the WAL journal (no admitted key is ever lost, even
  across sheds, backoffs and crashes).
"""

from __future__ import annotations

import tempfile
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from ..core.native import NativeBGPQ
from ..device.kernels import GpuContext
from ..errors import DurabilityError, ReproError
from ..sim import Engine, FaultInjector, FaultPlan, Fork, Join
from ..sim.faults import CRASHED
from .admission import AdmissionController
from .service import DurableService
from .sessions import Frontend, native_session, server_loop

__all__ = ["ServeConfig", "ServeOutcome", "run_serve", "run_serve_campaign"]


@dataclass
class ServeConfig:
    """Knobs of one serve run; every field has a campaign-sized default."""

    sessions: int = 4
    ops: int = 8  # ops per session
    k: int = 8  # node capacity
    window: int = 4  # per-session inflight window
    budget: int = 16  # global pending-op budget
    checkpoint_every: int = 16  # ops between checkpoints
    data_dir: str | None = None  # None: fresh temp dir per run
    plan: str = "none"  # fault preset injected into the server
    seed: int = 0
    base_backoff_ns: float = 2_000.0
    max_backoffs: int | None = None  # None: retry-forever (never drops)
    key_space: int = 100_000
    max_events: int = 500_000
    max_recoveries: int = 50
    charge_device: bool = True  # attach the GPU cost model to the queue
    admission_smoothing_ns: float | None = None  # EWMA half life for the
    # global-budget load signal; None = raw instantaneous pending count


@dataclass
class ServeOutcome:
    """What one serve run did and whether its durability story held."""

    plan: str
    seed: int
    status: str = "survived"  # survived | failed | audit-failed
    failure: str = ""
    audit_problems: list[str] = field(default_factory=list)
    ops_journaled: int = 0
    recoveries: int = 0
    admitted: int = 0
    shed: int = 0
    shed_by_reason: dict = field(default_factory=dict)
    peak_pending: int = 0
    dropped: int = 0
    makespan_ns: float = 0.0
    queue_len: int = 0
    sim_time_ns: float = 0.0
    digest: str = ""
    recovered_digest: str = ""
    drill_ok: bool = False
    data_dir: str = ""

    @property
    def survived(self) -> bool:
        return self.status == "survived"


def _fresh_queue(cfg: ServeConfig) -> NativeBGPQ:
    ctx = GpuContext.default() if cfg.charge_device else None
    return NativeBGPQ(node_capacity=cfg.k, ctx=ctx)


def _supervisor(cfg: ServeConfig, frontend: Frontend, box: dict,
                injector: FaultInjector, counters: dict, obs=None,
                metrics=None):
    """Fork the server, join it, and recover from disk after each crash."""
    incarnation = 0
    while True:
        name = "server" if incarnation == 0 else f"server+{incarnation}"
        gen = server_loop(frontend, box["svc"])
        handle = yield Fork(injector.wrap(gen, name), name)
        result = yield Join(handle)
        if result is not CRASHED:
            return result
        counters["recoveries"] += 1
        incarnation += 1
        if incarnation > cfg.max_recoveries:
            raise DurabilityError(
                f"server crashed {incarnation} times (max_recoveries="
                f"{cfg.max_recoveries}); the fault plan never lets it drain"
            )
        # genuine disk recovery: discard the in-memory service and
        # rebuild from checkpoint + WAL replay (plain python — the
        # supervisor is never fault-wrapped)
        box["svc"].close()
        box["svc"] = DurableService.open(
            _fresh_queue(cfg), box["dir"],
            checkpoint_every=cfg.checkpoint_every, obs=obs, metrics=metrics,
        )


def _flatten_counter(lists) -> Counter:
    c: Counter = Counter()
    for keys in lists:
        c.update(int(k) for k in keys)
    return c


def run_serve(cfg: ServeConfig, obs=None, metrics=None,
              slo=None) -> ServeOutcome:
    """Run one serve cell; never raises for a cell failure — the
    outcome carries the reproducing (plan, seed) instead.

    ``metrics`` (a :class:`~repro.obs.metrics.MetricsRegistry`) and
    ``slo`` (a :class:`~repro.obs.slo.SloTracker`) are optional sinks;
    ``None`` disables emission entirely, and the differential tests
    pin down that attaching them changes no observable outcome."""
    data_dir = Path(cfg.data_dir) if cfg.data_dir else Path(
        tempfile.mkdtemp(prefix="repro-serve-")
    )
    data_dir.mkdir(parents=True, exist_ok=True)
    out = ServeOutcome(plan=cfg.plan, seed=cfg.seed, data_dir=str(data_dir))
    admission = AdmissionController(
        window=cfg.window, budget=cfg.budget,
        base_backoff_ns=cfg.base_backoff_ns,
        smoothing_half_life_ns=cfg.admission_smoothing_ns,
        metrics=metrics,
    )
    frontend = Frontend(admission, obs=obs, metrics=metrics, slo=slo)
    frontend.live_sessions = cfg.sessions
    svc = DurableService.open(
        _fresh_queue(cfg), data_dir,
        checkpoint_every=cfg.checkpoint_every, obs=obs, metrics=metrics,
    )
    box = {"svc": svc, "dir": data_dir}
    injector = FaultInjector(FaultPlan.preset(cfg.plan), seed=cfg.seed, obs=obs)
    engine = Engine(seed=cfg.seed, obs=obs)
    # key admission smoothing and SLO windows to the engine's clock
    frontend.now_fn = lambda: engine.now
    counters = {"recoveries": 0}
    records: list[dict] = [{} for _ in range(cfg.sessions)]
    engine.spawn(
        _supervisor(cfg, frontend, box, injector, counters, obs=obs,
                    metrics=metrics),
        name="supervisor",
    )
    for i in range(cfg.sessions):
        engine.spawn(
            native_session(
                frontend, f"s{i}", cfg.seed, cfg.ops, cfg.k, records[i],
                key_space=cfg.key_space, window=cfg.window,
                base_backoff_ns=cfg.base_backoff_ns,
                max_backoffs=cfg.max_backoffs,
            ),
            name=f"s{i}",
        )
    try:
        out.makespan_ns = engine.run(max_events=cfg.max_events)
    except ReproError as exc:
        out.status = "failed"
        out.failure = repr(exc)
    svc = box["svc"]
    out.recoveries = counters["recoveries"]
    out.ops_journaled = len(svc.wal)
    stats = admission.snapshot_stats()
    out.admitted = stats["admitted"]
    out.shed = stats["shed"]
    out.shed_by_reason = stats["shed_by_reason"]
    out.peak_pending = stats["peak_pending"]
    out.dropped = sum(r.get("dropped", 0) for r in records)
    out.queue_len = len(svc.queue)
    if metrics is not None:
        snap = admission.load_snapshot(engine.now)
        metrics.gauge(
            "repro_admission_load_p95",
            help="p95 of the windowed pending-count signal at drain",
        ).set(snap.p95 if snap.p95 is not None else 0.0)
    out.sim_time_ns = svc.queue.sim_time_ns
    out.digest = svc.digest()
    if out.status == "survived":
        report = svc.audit(context=f"serve plan={cfg.plan} seed={cfg.seed}")
        # no admitted key is ever lost: every insert a session saw
        # admitted must appear in the journal, exactly
        admitted = _flatten_counter(
            keys for r in records for keys in r.get("admitted_inserts", [])
        )
        journaled = _flatten_counter(
            r.keys for r in svc.wal.records() if r.kind == "insert"
        )
        if admitted != journaled:
            report.problems.append(
                f"admitted-key drift: sessions saw {sum(admitted.values())} "
                f"keys admitted but the journal holds {sum(journaled.values())}"
            )
        if not report.ok:
            out.status = "audit-failed"
            out.audit_problems = report.problems
    # DR drill: recover a fresh queue from disk; digests must match
    svc.close()
    try:
        drill = DurableService.open(
            _fresh_queue(cfg), data_dir,
            checkpoint_every=cfg.checkpoint_every,
        )
        out.recovered_digest = drill.digest()
        drill.close()
    except ReproError as exc:
        out.recovered_digest = f"recovery-failed: {exc!r}"
    out.drill_ok = out.recovered_digest == out.digest
    if out.status == "survived" and not out.drill_ok:
        out.status = "audit-failed"
        out.audit_problems.append(
            f"recovery drill digest {out.recovered_digest[:16]} != live "
            f"digest {out.digest[:16]}"
        )
    return out


def run_serve_campaign(cfg: ServeConfig, seeds: int = 10,
                       seed_base: int = 0,
                       metrics=None, slo=None) -> list[ServeOutcome]:
    """Seed-swept serve campaign; each seed gets its own data subdir
    (a durable state is one history — seeds must not share a WAL).

    A single ``metrics`` registry (and ``slo`` tracker) spans the whole
    campaign: counters sum and histograms merge across seeds, which is
    exactly the cross-seed aggregate the registry snapshot records."""
    from dataclasses import replace

    outcomes = []
    base_dir = Path(cfg.data_dir) if cfg.data_dir else Path(
        tempfile.mkdtemp(prefix="repro-serve-campaign-")
    )
    for s in range(seeds):
        cell = replace(cfg, seed=seed_base + s,
                       data_dir=str(base_dir / f"seed-{seed_base + s}"))
        outcomes.append(run_serve(cell, metrics=metrics, slo=slo))
    return outcomes
