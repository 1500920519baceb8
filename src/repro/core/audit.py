"""Post-run invariant auditing for fault-injection campaigns.

A surviving fault run is only evidence of robustness if the queue it
leaves behind is *provably intact*.  :class:`HeapAuditor` performs the
quiescent checks:

structure
    the batched heap property, per-node sortedness, and the partial
    buffer's bound and ordering (delegated to the queue's own
    ``check_invariants``);
node states
    every live node AVAIL, every non-root live node full, every slot
    beyond the heap EMPTY — a TARGET or MARKED node at quiescence means
    an operation died mid-protocol without rolling back;
lock quiescence
    no lock owned, no waiter queued, no lock with more grants than
    releases implied by a zero-owner end state;
conservation
    multiset(inserted) == multiset(removed) + multiset(contents), and
    the queue's reported length matches its contents — keys neither
    duplicated nor leaked by any abort/rollback path.

The auditor is duck-typed: structure/state/lock checks engage only
when the queue exposes the relevant attributes (``check_invariants``,
``store``), so the same auditor runs over the baselines, which get the
conservation and length checks.  A :class:`~repro.fleet.ShardedBGPQ`
is recognised automatically and routed to :meth:`HeapAuditor.audit_fleet`,
which audits every shard and cross-checks the router's size accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from ..errors import AuditError

__all__ = ["AuditReport", "HeapAuditor"]


@dataclass
class AuditReport:
    """Outcome of one audit; empty ``problems`` means the queue is intact."""

    problems: list[str] = field(default_factory=list)
    context: str = ""
    checks_run: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def raise_if_failed(self) -> None:
        if self.problems:
            raise AuditError(self.problems, self.context)

    def __bool__(self) -> bool:  # truthy == passed
        return self.ok


class HeapAuditor:
    """Quiescent auditor for a priority queue after a (faulty) run.

    Usage::

        auditor = HeapAuditor(pq)
        report = auditor.audit(inserted=batches_in, removed=batches_out,
                               context=f"seed={seed}")
        report.raise_if_failed()

    ``inserted``/``removed`` are iterables of key arrays (one per
    successful operation); conservation is checked as sorted-multiset
    equality, so duplicates are handled exactly.
    """

    def __init__(self, pq):
        self.pq = pq

    # ------------------------------------------------------------------
    def audit(
        self,
        inserted: Iterable[np.ndarray] | None = None,
        removed: Iterable[np.ndarray] | None = None,
        context: str = "",
    ) -> AuditReport:
        if hasattr(self.pq, "shards") and hasattr(self.pq, "router"):
            return self.audit_fleet(inserted=inserted, removed=removed,
                                    context=context)
        report = AuditReport(context=context)
        self._check_structure(report)
        self._check_node_states(report)
        self._check_arena(report)
        self._check_locks(report)
        self._check_length(report)
        if inserted is not None:
            self._check_conservation(report, inserted, removed or ())
        return report

    # ------------------------------------------------------------------
    def audit_fleet(
        self,
        inserted: Iterable[np.ndarray] | None = None,
        removed: Iterable[np.ndarray] | None = None,
        context: str = "",
    ) -> AuditReport:
        """Audit a :class:`~repro.fleet.ShardedBGPQ`: every shard + router.

        Runs the full per-heap audit on each shard's underlying queue
        (problems prefixed ``shard {i}:``), then cross-checks the
        router's size accounting — the fleet's ``len`` is maintained
        incrementally by the routed-execution paths and must equal the
        sum of the shards' own lengths *and* the fleet snapshot size.
        Conservation, when ``inserted`` is given, is fleet-global:
        routing moves keys between shards, so only the union multiset
        is conserved.
        """
        report = AuditReport(context=context)
        for i, shard in enumerate(self.pq.shards):
            sub = HeapAuditor(shard.pq).audit(context=context)
            report.problems.extend(f"shard {i}: {p}" for p in sub.problems)
            report.checks_run.extend(
                f"shard{i}:{c}" for c in sub.checks_run
            )
        report.checks_run.append("router-accounting")
        routed = len(self.pq)
        summed = sum(len(s) for s in self.pq.shards)
        if routed != summed:
            report.problems.append(
                f"router size accounting drift: len(fleet)={routed} but "
                f"shard sizes sum to {summed}"
            )
        self._check_length(report)
        if inserted is not None:
            self._check_conservation(report, inserted, removed or ())
        return report

    # ------------------------------------------------------------------
    def _check_structure(self, report: AuditReport) -> None:
        check = getattr(self.pq, "check_invariants", None)
        if check is None:
            return
        report.checks_run.append("structure")
        report.problems.extend(check())

    def _check_node_states(self, report: AuditReport) -> None:
        store = getattr(self.pq, "store", None)
        if store is None or not hasattr(store, "nodes"):
            return
        from .node import AVAIL, EMPTY, STATE_NAMES

        report.checks_run.append("node-states")
        size = store.heap_size
        for i in range(1, len(store.nodes)):
            node = store.nodes[i]
            if i <= size:
                if node.state != AVAIL:
                    report.problems.append(
                        f"live node {i} in state "
                        f"{STATE_NAMES.get(node.state, node.state)} at quiescence"
                    )
                elif node.empty:
                    report.problems.append(f"live node {i} is AVAIL but empty")
                elif i > 1 and not node.full:
                    report.problems.append(
                        f"non-root node {i} holds {node.count}/{node.capacity} keys"
                    )
            else:
                if node.state != EMPTY:
                    report.problems.append(
                        f"slot {i} beyond heap_size={size} in state "
                        f"{STATE_NAMES.get(node.state, node.state)}"
                    )
                if node.count:
                    report.problems.append(
                        f"slot {i} beyond heap_size={size} holds {node.count} keys"
                    )

    def _check_arena(self, report: AuditReport) -> None:
        """Arena-storage-aware pass: dead rows and the row-0 pBuffer.

        The shared :class:`~repro.core.arena.NodeArena` makes two bugs
        representable that the per-node views never see — a retired row
        whose count was not zeroed (its stale keys would resurface the
        moment the heap grows back over it), and a broken row 0, which
        both :class:`~repro.core.bgpq.BGPQ` and
        :class:`~repro.core.native.NativeBGPQ` use as the partial
        buffer, so it must hold a *sorted* run of fewer than k keys.

        Scratch storage (the arena's ``ScratchLedger`` and NativeBGPQ's
        travelling batch) is deliberately *not* audited: it is
        by-design garbage between operations.
        """
        store = getattr(self.pq, "store", None)
        if store is not None:  # BGPQ's HeapStorage
            arena, size = getattr(store, "arena", None), store.heap_size
        else:  # NativeBGPQ
            arena = getattr(self.pq, "_arena", None)
            size = getattr(self.pq, "_heap_size", 0)
        if arena is None:
            return
        report.checks_run.append("arena")
        for i in range(size + 1, arena.rows):
            if arena.counts[i]:
                report.problems.append(
                    f"arena row {i} beyond heap_size={size} holds "
                    f"{int(arena.counts[i])} keys"
                )
        nbuf = int(arena.counts[0])
        if nbuf >= arena.k:
            report.problems.append(f"row-0 pBuffer holds {nbuf} >= k={arena.k} keys")
        buf = arena.keys[0, :nbuf]
        if buf.size > 1 and np.any(buf[:-1] > buf[1:]):
            report.problems.append("row-0 pBuffer unsorted")

    def _check_locks(self, report: AuditReport) -> None:
        store = getattr(self.pq, "store", None)
        locks = getattr(store, "locks", None) if store is not None else None
        if not locks:
            return
        report.checks_run.append("lock-quiescence")
        for lock in locks:
            if lock.owner is not None:
                report.problems.append(
                    f"lock {lock.name} still owned by {lock.owner.name}"
                )
            if lock.waiters:
                report.problems.append(
                    f"lock {lock.name} still has {len(lock.waiters)} queued waiters"
                )

    def _check_length(self, report: AuditReport) -> None:
        snap = getattr(self.pq, "snapshot_keys", None)
        if snap is None:
            return
        report.checks_run.append("length")
        contents = np.asarray(snap())
        try:
            reported = len(self.pq)
        except TypeError:
            return
        if reported != contents.size:
            report.problems.append(
                f"len(pq)={reported} but snapshot holds {contents.size} keys"
            )

    def _check_conservation(
        self,
        report: AuditReport,
        inserted: Iterable[np.ndarray],
        removed: Iterable[np.ndarray],
    ) -> None:
        snap = getattr(self.pq, "snapshot_keys", None)
        if snap is None:
            return
        report.checks_run.append("conservation")
        put = _flatten(inserted)
        got = _flatten(removed)
        contents = np.sort(np.asarray(snap()))
        accounted = np.sort(np.concatenate([got, contents]))
        expected = np.sort(put)
        if expected.size != accounted.size:
            report.problems.append(
                f"key count drift: {expected.size} inserted but "
                f"{got.size} removed + {contents.size} stored "
                f"= {accounted.size}"
            )
            return
        if expected.size and not np.array_equal(expected, accounted):
            bad = np.flatnonzero(expected != accounted)
            i = int(bad[0])
            report.problems.append(
                f"key multiset mismatch at rank {i}: "
                f"inserted {expected[i]} vs accounted {accounted[i]} "
                f"({bad.size} ranks differ)"
            )


def _flatten(arrays: Iterable[Sequence]) -> np.ndarray:
    parts = [np.asarray(a).ravel() for a in arrays if np.asarray(a).size]
    if not parts:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(parts)
