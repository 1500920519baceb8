"""Seed-swept fault-injection campaigns over the priority queues.

A campaign runs a matrix of (queue, fault plan, seed) cells.  Each
cell spawns a fleet of mixed insert/delete workers over one queue,
wraps every worker with a :class:`~repro.sim.faults.FaultInjector`
derived from the cell's seed, runs the engine under a livelock budget,
and then puts the surviving queue in front of the
:class:`~repro.core.audit.HeapAuditor` — structure, lock quiescence,
and exact key conservation against the ledger of operations that
actually completed.

Workers follow the *append-after-success* ledger discipline: a batch
enters the expected multiset only on the operation's successful
return, with no intervening yields, so crashed and aborted operations
(which roll back) never contaminate the conservation check.  Every
failure is reproducible from its reported ``(queue, plan, seed)``
triple — the engine, the injector, and the workload all derive from
that seed alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .core import BGPQ, BGPQBottomUp, HeapAuditor
from .errors import (
    BudgetExceededError,
    DeadlockError,
    OperationAborted,
    ReproError,
    SimulationError,
)
from .sim import Engine, FaultInjector, FaultPlan, crashpoint

__all__ = [
    "CampaignResult",
    "QUEUE_FACTORIES",
    "RunOutcome",
    "queue_factory",
    "run_campaign",
    "run_one",
]

#: bounded root wait used for the fault-tolerant BGPQ variants (ns);
#: short enough that a stalled holder triggers timeouts, long enough
#: that ordinary contention never does.
ROOT_WAIT_NS = 2_000.0


def _bgpq(k: int) -> BGPQ:
    return BGPQ(node_capacity=k, max_keys=1 << 14, root_wait_ns=ROOT_WAIT_NS)


def _bgpq_unbounded(k: int) -> BGPQ:
    return BGPQ(node_capacity=k, max_keys=1 << 14)


def _bgpq_bu(k: int) -> BGPQBottomUp:
    return BGPQBottomUp(node_capacity=k, max_keys=1 << 14, root_wait_ns=ROOT_WAIT_NS)


def _tbb(k: int):
    from .baselines import TbbHeapPQ

    return TbbHeapPQ()


def _hunt(k: int):
    from .baselines import HuntHeapPQ

    return HuntHeapPQ()


def _ljsl(k: int):
    from .baselines import LJSkipListPQ

    return LJSkipListPQ()


QUEUE_FACTORIES: dict[str, Callable[[int], object]] = {
    "bgpq": _bgpq,
    "bgpq-unbounded": _bgpq_unbounded,
    "bgpq-bu": _bgpq_bu,
    "tbb": _tbb,
    "hunt": _hunt,
    "ljsl": _ljsl,
}


def queue_factory(name: str) -> Callable[[int], object]:
    try:
        return QUEUE_FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown queue {name!r}; choose from {sorted(QUEUE_FACTORIES)}"
        ) from None


# ---------------------------------------------------------------------------
@dataclass
class RunOutcome:
    """One (queue, plan, seed) cell of a campaign."""

    queue: str
    plan: str
    seed: int
    status: str  # survived | failed | audit-failed
    injected: int = 0
    crashed_threads: int = 0
    aborted_ops: int = 0
    rollbacks: int = 0
    makespan_ns: float = 0.0
    failure: str = ""
    audit_problems: list[str] = field(default_factory=list)
    #: flat obs metrics (repro.obs.export.metrics_dict) when the cell
    #: ran with an event bus attached; None otherwise
    metrics: dict | None = None
    #: per-phase critical-path attribution ns (repro.obs.analysis) for
    #: traced cells with a non-zero makespan; None otherwise
    critical_path: dict | None = None

    @property
    def survived(self) -> bool:
        return self.status == "survived"


@dataclass
class CampaignResult:
    """All cells of one campaign, plus aggregate views."""

    outcomes: list[RunOutcome] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(o.survived for o in self.outcomes)

    @property
    def survived(self) -> int:
        return sum(o.survived for o in self.outcomes)

    @property
    def failed(self) -> int:
        return len(self.outcomes) - self.survived

    def failures(self) -> list[RunOutcome]:
        return [o for o in self.outcomes if not o.survived]

    def rows(self) -> list[dict]:
        """Per-(queue, plan) aggregate rows for table rendering."""
        groups: dict[tuple[str, str], list[RunOutcome]] = {}
        for o in self.outcomes:
            groups.setdefault((o.queue, o.plan), []).append(o)
        rows = []
        for (queue, plan), outs in groups.items():
            rows.append(
                {
                    "Queue": queue,
                    "Plan": plan,
                    "Runs": len(outs),
                    "Injected": sum(o.injected for o in outs),
                    "Crashed": sum(o.crashed_threads for o in outs),
                    "Aborted": sum(o.aborted_ops for o in outs),
                    "Rollbacks": sum(o.rollbacks for o in outs),
                    "Survived": sum(o.survived for o in outs),
                    "Failed": sum(not o.survived for o in outs),
                }
            )
        return rows


# ---------------------------------------------------------------------------
class _Ledger:
    """Ground truth of completed operations (append-after-success)."""

    def __init__(self):
        self.inserted: list[np.ndarray] = []
        self.removed: list[np.ndarray] = []
        self.aborted_ops = 0


def _worker(pq, wid: int, seed: int, ops: int, k: int, ledger: _Ledger):
    """Mixed insert/delete workload; generator for one simulated thread.

    The ledger is appended to only *immediately after* a successful
    operation returns (no yields in between), so an injected crash can
    never leave a half-recorded operation in the expected multiset.
    """
    rng = np.random.default_rng([seed, wid])
    for i in range(ops):
        yield crashpoint()  # between-op crashes: safe for every queue
        batch = rng.integers(0, 100_000, size=int(rng.integers(1, k + 1)))
        batch = batch.astype(np.int64)
        try:
            yield from pq.insert_op(batch)
        except OperationAborted:
            ledger.aborted_ops += 1
        else:
            ledger.inserted.append(batch)
        yield crashpoint()
        want = int(rng.integers(1, k + 1))
        try:
            got = yield from pq.deletemin_op(want)
        except OperationAborted:
            ledger.aborted_ops += 1
        else:
            ledger.removed.append(np.asarray(got))
    yield crashpoint()


def run_one(
    queue: str,
    plan: FaultPlan | str,
    seed: int,
    threads: int = 4,
    ops: int = 6,
    k: int = 8,
    max_events: int = 250_000,
    obs=None,
) -> RunOutcome:
    """Run and audit a single campaign cell; never raises for a cell
    failure — the outcome carries the reproducing seed instead.

    ``plan`` may be a :class:`FaultPlan` or a preset name.  With an
    ``obs`` bus (:class:`~repro.obs.events.EventBus`) the cell runs
    fully instrumented — engine, queue, and injector all emit into it —
    and the outcome's ``metrics`` field carries the flat metrics dict.
    Tracing never changes the cell's schedule or result (emission is
    pure observation), so a traced rerun reproduces the untraced one.
    """
    if isinstance(plan, str):
        plan = FaultPlan.preset(plan)
    pq = queue_factory(queue)(k)
    injector = FaultInjector(plan, seed=seed, obs=obs)
    ledger = _Ledger()
    engine = Engine(seed=seed, obs=obs)
    if obs is not None and hasattr(pq, "obs"):
        pq.obs = obs
    for wid in range(threads):
        gen = _worker(pq, wid, seed, ops, k, ledger)
        engine.spawn(injector.wrap(gen, f"w{wid}"), name=f"w{wid}")

    out = RunOutcome(queue=queue, plan=plan.name, seed=seed, status="survived")
    try:
        out.makespan_ns = engine.run(max_events=max_events)
    except (BudgetExceededError, DeadlockError, SimulationError, ReproError) as exc:
        out.status = "failed"
        out.failure = repr(exc)
    out.injected = injector.injected_total()
    out.crashed_threads = len(injector.crashed_threads())
    out.aborted_ops = ledger.aborted_ops
    stats = getattr(pq, "stats", {})
    out.rollbacks = stats.get("insert_rollbacks", 0) + stats.get("delete_rollbacks", 0)
    if obs is not None:
        from .obs.export import metrics_dict

        out.metrics = metrics_dict(obs.events, out.makespan_ns or None)
        if out.makespan_ns > 0:
            from .obs.analysis import analyze

            out.critical_path = analyze(obs.events, out.makespan_ns)["attribution"]

    if out.status == "survived":
        report = HeapAuditor(pq).audit(
            ledger.inserted,
            ledger.removed,
            context=f"queue={queue} plan={plan.name} seed={seed}",
        )
        if not report.ok:
            out.status = "audit-failed"
            out.audit_problems = report.problems
    return out


def run_campaign(
    queues: Sequence[str] = ("bgpq",),
    plans: Sequence[str] = ("crash", "timeout", "jitter"),
    seeds: int = 20,
    seed_base: int = 0,
    threads: int = 4,
    ops: int = 6,
    k: int = 8,
    max_events: int = 250_000,
    trace: bool = False,
) -> CampaignResult:
    """Sweep ``seeds`` seeds for every (queue, plan) pair.

    With ``trace=True`` every cell runs with its own event bus and its
    outcome carries the flat obs metrics (``RunOutcome.metrics``) —
    the backing of ``repro faults --metrics``/``--trace``.
    """
    result = CampaignResult()
    for queue in queues:
        for plan_name in plans:
            plan = FaultPlan.preset(plan_name)
            for s in range(seeds):
                obs = None
                if trace:
                    from .obs import EventBus

                    obs = EventBus()
                result.outcomes.append(
                    run_one(
                        queue,
                        plan,
                        seed_base + s,
                        threads=threads,
                        ops=ops,
                        k=k,
                        max_events=max_events,
                        obs=obs,
                    )
                )
    return result
