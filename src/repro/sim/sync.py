"""Synchronisation objects for the discrete-event simulator.

These are passive state holders — the :class:`~repro.sim.engine.Engine`
performs all transitions.  They collect contention statistics so
benchmark reports can show *where* simulated time went (e.g. how much
of a run was spent queueing on the heap root lock).

Because transitions live in the engine, the per-transition observability
events (``lock.contend``, ``lock.grant``, ``cond.wake``, …) are emitted
*there*, not here — these objects stay bus-free.  Their running totals
(``total_wait_ns`` etc.) are the ground truth the event-sourced wait
intervals in :mod:`repro.obs` are cross-checked against.
"""

from __future__ import annotations

from collections import deque
from typing import Any

__all__ = ["SimLock", "Condition", "Barrier", "AtomicCell"]


class SimLock:
    """A FIFO-queued mutual-exclusion lock.

    Fairness note: real GPU spinlocks are not FIFO, but FIFO is the
    standard analytic simplification — it preserves total queueing
    delay at a contended lock, which is the quantity the benchmarks
    report.
    """

    __slots__ = (
        "name",
        "owner",
        "waiters",
        "acquisitions",
        "contended_acquisitions",
        "timeouts",
        "try_failures",
        "total_wait_ns",
        "total_held_ns",
        "_acquired_at",
    )

    def __init__(self, name: str = "lock"):
        self.name = name
        self.owner = None  # SimThread | None
        self.waiters: deque = deque()  # of SimThread
        # --- statistics -------------------------------------------------
        self.acquisitions = 0
        self.contended_acquisitions = 0
        self.timeouts = 0  # bounded waits that expired
        self.try_failures = 0  # TryAcquire probes that found it held
        self.total_wait_ns = 0.0
        self.total_held_ns = 0.0
        self._acquired_at = 0.0

    @property
    def held(self) -> bool:
        return self.owner is not None

    def contention_ratio(self) -> float:
        """Fraction of acquisitions that had to queue."""
        if self.acquisitions == 0:
            return 0.0
        return self.contended_acquisitions / self.acquisitions

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        o = self.owner.name if self.owner is not None else None
        return f"<SimLock {self.name} owner={o} waiters={len(self.waiters)}>"


class Condition:
    """A broadcast condition: ``Signal`` wakes *all* current waiters.

    Simulated threads that would spin on shared state (e.g. BGPQ's
    deleter spinning until the root becomes AVAIL) block here instead;
    the engine advances their clock to the signal time, which is
    exactly the time a spin loop would have burned.
    """

    __slots__ = ("name", "waiters", "signals", "total_wait_ns")

    def __init__(self, name: str = "cond"):
        self.name = name
        self.waiters: deque = deque()
        self.signals = 0
        self.total_wait_ns = 0.0

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Condition {self.name} waiters={len(self.waiters)}>"


class Barrier:
    """An ``n``-party reusable barrier.

    ``latency_ns`` is charged to every participant on top of the
    rendezvous wait — on a GPU this models the cost of a grid-wide
    synchronisation (kernel relaunch or cooperative-groups sync), which
    is the dominant overhead of the P-Sync baseline.
    """

    __slots__ = ("name", "parties", "latency_ns", "arrived", "generation", "waits")

    def __init__(self, parties: int, name: str = "barrier", latency_ns: float = 0.0):
        if parties < 1:
            raise ValueError("barrier needs >= 1 party")
        self.name = name
        self.parties = parties
        self.latency_ns = latency_ns
        self.arrived: list = []  # SimThreads of current generation
        self.generation = 0
        self.waits = 0

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Barrier {self.name} {len(self.arrived)}/{self.parties}>"


class AtomicCell:
    """A single shared word with the usual hardware atomics.

    The methods here are *plain* (non-yielding) and must only be called
    from inside an :class:`~repro.sim.effects.Atomic` effect, which is
    what makes them atomic with respect to the simulated interleaving.
    """

    __slots__ = ("name", "value", "rmw_count")

    def __init__(self, value: Any = 0, name: str = "cell"):
        self.name = name
        self.value = value
        self.rmw_count = 0

    def load(self) -> Any:
        return self.value

    def store(self, value: Any) -> None:
        self.rmw_count += 1
        self.value = value

    def fetch_add(self, delta) -> Any:
        self.rmw_count += 1
        old = self.value
        self.value = old + delta
        return old

    def exchange(self, desired) -> Any:
        self.rmw_count += 1
        old = self.value
        self.value = desired
        return old

    def __repr__(self) -> str:  # pragma: no cover
        return f"<AtomicCell {self.name}={self.value!r}>"
