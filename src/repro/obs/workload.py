"""Canonical traced workload for ``repro trace``.

A mixed insert/delete fleet over one BGPQ, fully wired for
observability: the bus sees the engine's lock/thread events, the
queue's mechanism events, and (optionally) fault deliveries.  The
default parameters are chosen so every collaboration mechanism actually
fires — steals, pBuffer hits *and* overflows, and every root-refill
source — which is what makes the default ``repro trace`` output worth
reading.

This module imports :mod:`repro.core`, so it is kept out of
``repro.obs.__init__`` (the sim/core layers import that package's event
constants; see the package docstring).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .events import EventBus

__all__ = ["TracedRun", "mixed_worker", "run_traced_mixed"]


def mixed_worker(pq, wid: int, seed: int, ops: int, k: int, results: list):
    """One simulated thread: ``ops`` insert-then-deletemin rounds.

    Batch sizes and key values derive from ``(seed, wid)`` alone, so
    the workload is identical with or without a bus attached — the
    differential tracing tests rely on this.  Deleted keys are appended
    to ``results`` after each successful deletemin.
    """
    rng = np.random.default_rng([seed, wid])
    for _ in range(ops):
        batch = rng.integers(0, 100_000, size=int(rng.integers(1, k + 1)))
        yield from pq.insert_op(batch.astype(np.int64))
        want = int(rng.integers(1, k + 1))
        got = yield from pq.deletemin_op(want)
        results.append(np.asarray(got))


@dataclass
class TracedRun:
    """Everything ``repro trace`` needs from one wired run."""

    bus: EventBus
    makespan_ns: float
    pq: object
    engine: object
    results: list

    @property
    def events(self) -> list:
        return self.bus.events


def run_traced_mixed(
    threads: int = 4,
    ops: int = 8,
    k: int = 8,
    seed: int = 1,
    bus: EventBus | None = None,
    trace: bool = True,
) -> TracedRun:
    """Run the mixed workload with full observability wiring.

    ``trace=False`` runs the identical workload with no bus attached —
    the control arm of the differential tests (same seed => same
    results and makespan, traced or not).
    """
    from ..core import BGPQ
    from ..sim import Engine

    if trace and bus is None:
        bus = EventBus()
    elif not trace:
        bus = None
    pq = BGPQ(node_capacity=k, max_keys=1 << 14)
    engine = Engine(seed=seed, obs=bus)
    if bus is not None:
        pq.obs = bus
    results: list = []
    for wid in range(threads):
        engine.spawn(mixed_worker(pq, wid, seed, ops, k, results), name=f"w{wid}")
    makespan = engine.run()
    return TracedRun(
        bus=bus if bus is not None else EventBus(),
        makespan_ns=makespan,
        pq=pq,
        engine=engine,
        results=results,
    )
