"""Branch-and-bound 0-1 knapsack over the priority-queue API (§6.5).

Best-first search: the open list is a priority queue keyed by the
negated Dantzig upper bound, so the most promising subproblem is
expanded first.  Each node fixes a prefix of the density-sorted items;
branching decides the next item (take / skip).  Every node's
accumulated profit is itself feasible, so the incumbent advances with
every expansion and bound-dominated nodes are pruned.

Three solvers share the search logic:

* :func:`solve_sequential` — classic heapq best-first (CPU reference).
* :func:`solve_batched` — the paper's GPU formulation: a thread block
  retrieves a *full batch* of nodes per DELETEMIN ("for load balancing
  purpose", §6.5), expands and bounds them with vectorised kernels, and
  pushes the surviving children in batches.  Runs on
  :class:`~repro.core.native.NativeBGPQ`; device time accrues on the
  queue's cost model plus per-batch expansion charges.
* :func:`solve_concurrent` — discrete-event parallel B&B for the CPU
  comparators: 80 simulated threads hammer a shared concurrent PQ,
  reproducing the contention the paper measures.

Keys are the bound scaled to int64 (the queues store integer keys, as
the paper's 30/32-bit experiments do).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...core.native import NativeBGPQ
from ...device.kernels import GpuContext
from ...errors import ConfigurationError
from ...sim import Atomic, Compute, Engine
from ..resilience import OverflowList, deletemin_with_retries, insert_with_retries
from .bounds import dantzig_upper_bound, fractional_bound
from .instance import KnapsackInstance

__all__ = ["KnapsackResult", "solve_sequential", "solve_batched", "solve_concurrent"]

#: fixed-point scale for bound-valued keys
KEY_SCALE = 64


@dataclass
class KnapsackResult:
    """Outcome of one branch-and-bound run."""

    best_profit: int
    nodes_expanded: int
    nodes_pruned: int
    max_queue: int
    sim_time_ns: float = 0.0

    @property
    def sim_time_ms(self) -> float:
        return self.sim_time_ns / 1e6


def _key_for(ub: np.ndarray | float):
    """Priority key: negated fixed-point bound (min-key == best bound)."""
    return -(np.asarray(ub) * KEY_SCALE).astype(np.int64)


def solve_sequential(inst: KnapsackInstance) -> KnapsackResult:
    """heapq-based best-first branch and bound (the exact reference)."""
    import heapq

    incumbent = inst.greedy_value()
    root_ub = dantzig_upper_bound(inst, 0, 0, 0)
    heap = [(-root_ub, 0, 0, 0)]  # (-ub, level, profit, weight)
    expanded = pruned = 0
    max_queue = 1
    while heap:
        neg_ub, level, profit, weight = heapq.heappop(heap)
        if -neg_ub <= incumbent:
            pruned += 1
            continue
        expanded += 1
        if level == inst.n_items:
            continue
        p_i, w_i = int(inst.profits[level]), int(inst.weights[level])
        for take in (True, False):
            if take:
                np_, nw = profit + p_i, weight + w_i
                if nw > inst.capacity:
                    continue
            else:
                np_, nw = profit, weight
            incumbent = max(incumbent, np_)
            ub = dantzig_upper_bound(inst, level + 1, np_, nw)
            if ub > incumbent:
                heapq.heappush(heap, (-ub, level + 1, np_, nw))
            else:
                pruned += 1
        max_queue = max(max_queue, len(heap))
    return KnapsackResult(incumbent, expanded, pruned, max_queue)


def node_widths(inst: KnapsackInstance) -> tuple[int, int]:
    """Bit widths ``(lb, wb)`` of a packed node's level and weight fields.

    :func:`solve_batched` stores each node as one int64,
    ``profit << (lb + wb) | weight << lb | level``: ``lb`` covers the
    leaf level ``n_items``, ``wb`` every feasible weight (at most
    ``capacity``) and the profit field takes the bits above.  Raises
    :class:`ConfigurationError` when the profit sum does not fit in
    what is left of 63 bits, or the bound-valued keys would overflow.
    """
    lb = inst.n_items.bit_length()
    wb = int(inst.capacity).bit_length()
    pb = int(inst.profits.sum()).bit_length()
    if lb + wb + pb > 63 or pb + (KEY_SCALE - 1).bit_length() > 63:
        raise ConfigurationError(
            f"knapsack node needs {lb} level + {wb} weight + {pb} profit "
            f"bits; a packed node and its key must fit in 63"
        )
    return lb, wb


def pack_nodes(levels, profits, weights, lb: int, wb: int) -> np.ndarray:
    """Pack node fields into int64 nodes (see :func:`node_widths`)."""
    return (
        np.left_shift(profits, lb + wb, dtype=np.int64)
        | np.left_shift(weights, lb, dtype=np.int64)
        | levels
    )


def unpack_nodes(nodes: np.ndarray, lb: int, wb: int):
    """``(levels, profits, weights)`` of packed int64 nodes."""
    return (
        nodes & ((1 << lb) - 1),
        nodes >> (lb + wb),
        (nodes >> lb) & ((1 << wb) - 1),
    )


class _Expansion:
    """The expansion kernel of one solve: children of a node batch.

    Holds what stays fixed for an instance: the node field widths, the
    per-item take-child delta (one level down, item ``i``'s profit and
    weight added, so a take-child is ``node + take[level]`` and a
    skip-child ``node + 1``) and a children buffer for a full batch.
    """

    def __init__(self, inst: KnapsackInstance, lb: int, wb: int, batch: int):
        self.inst = inst
        self.lb, self.wb = lb, wb
        self.lmask, self.wmask = (1 << lb) - 1, (1 << wb) - 1
        self.take = pack_nodes(1, inst.profits, inst.weights, lb, wb)
        self.children = np.empty(2 * batch, np.int64)

    def __call__(self, nodes: np.ndarray, incumbent: int):
        """Returns (keys, nodes, new_incumbent, n_pruned) of the surviving
        children: take-children first, then skip-children, each in
        ``nodes`` order.  This is the data-parallel kernel a thread block
        runs after retrieving a node batch."""
        inst, lb = self.inst, self.lb
        levels = nodes & self.lmask
        live = levels < inst.n_items
        if not live.all():
            nodes, levels = nodes[live], levels[live]
        room = inst.capacity - ((nodes >> lb) & self.wmask)
        take_ok = inst.weights[levels] <= room
        nt = int(np.count_nonzero(take_ok))
        c = self.children[: nt + nodes.size]
        np.compress(take_ok, nodes + self.take[levels], out=c[:nt])
        np.add(nodes, 1, out=c[nt:])
        c_levels, c_profits, c_weights = unpack_nodes(c, lb, self.wb)
        if nt:
            # a skip-child keeps its parent's profit, which the incumbent
            # already covers
            incumbent = max(incumbent, int(c_profits[:nt].max()))
        ubs = fractional_bound(
            inst, c_levels, c_profits.astype(np.float64), inst.capacity - c_weights
        )
        keep = ubs > incumbent
        kept = c[keep]
        return _key_for(ubs[keep]), kept, incumbent, c.size - kept.size


def solve_batched(
    inst: KnapsackInstance,
    ctx: GpuContext | None = None,
    batch: int = 1024,
    pq_factory=None,
) -> KnapsackResult:
    """GPU-style batched best-first B&B on NativeBGPQ.

    Exact: relaxation of the pop order never sacrifices optimality
    because pruning happens against the monotonically growing
    incumbent and the queue is drained to empty.

    Each node is one packed int64 payload column (:func:`node_widths`),
    so a record is 16 bytes; an instance too large to pack raises
    :class:`ConfigurationError` before any queue is built.

    ``pq_factory(node_capacity, ctx, payload_width, storage)``, when
    given, supplies the queue instead of NativeBGPQ — the shard bench
    injects a recording subclass here to capture the app's exact PQ
    op trace for fleet replay.  ``storage`` is always ``"arena"``.
    """
    lb, wb = node_widths(inst)
    ctx = ctx if ctx is not None else GpuContext.default()
    if pq_factory is None:
        pq = NativeBGPQ(node_capacity=batch, ctx=ctx, payload_width=1)
    else:
        pq = pq_factory(batch, ctx, 1, "arena")
    model = ctx.model
    expand = _Expansion(inst, lb, wb, batch)
    depth = max(1, int(np.log2(max(2, inst.n_items))))
    expansion_ns = 0.0

    incumbent = inst.greedy_value()
    root_ub = dantzig_upper_bound(inst, 0, 0, 0)
    if root_ub > incumbent:
        pq.insert(_key_for(np.array([root_ub])), payload=np.zeros((1, 1), np.int64))
    expanded = pruned = 0
    max_queue = len(pq)
    while pq:
        keys, payload = pq.deletemin(batch)
        # stale-bound prune: keys are -ub * KEY_SCALE in ascending order,
        # so the nodes whose bound still beats the incumbent are a prefix
        fresh = int(np.searchsorted(keys, -KEY_SCALE * incumbent, "left"))
        pruned += keys.size - fresh
        expanded += fresh
        ckeys, cnodes, incumbent, pr = expand(payload[:fresh, 0], incumbent)
        pruned += pr
        # expansion kernel cost: bound binary searches + compaction over
        # the children, cooperative across the block
        expansion_ns += (
            model.shared_pass_ns(2 * fresh) * depth
            + model.global_read_ns(4 * fresh)
            + model.global_write_ns(4 * max(1, cnodes.size))
        )
        pq.insert_bulk(ckeys, payload=cnodes)
        max_queue = max(max_queue, len(pq))
    return KnapsackResult(
        incumbent, expanded, pruned, max_queue, pq.sim_time_ns + expansion_ns
    )


def solve_concurrent(
    inst: KnapsackInstance,
    pq,
    n_threads: int = 80,
    per_node_ns: float = 400.0,
    seed: int = 0,
    max_nodes: int | None = None,
) -> KnapsackResult:
    """Parallel B&B on a simulated multicore over any ConcurrentPQ.

    Each simulated thread loops deletemin(1) → expand → insert.  The
    incumbent is a shared atomic.  Termination: the queue is empty and
    no thread holds in-flight work.  ``per_node_ns`` charges the
    (non-PQ) expansion arithmetic per node, so the PQ's contention
    dominates exactly when it does in the paper.

    Fault tolerance: queue operations run through the retry helpers of
    :mod:`repro.apps.resilience`; permanently failing inserts route
    their nodes to a host-side overflow list that workers drain when
    the queue comes up empty, so bounded-wait aborts degrade
    throughput without ever losing an open node (optimality holds).
    """
    state = {
        "incumbent": inst.greedy_value(),
        "outstanding": 0,
        "expanded": 0,
        "pruned": 0,
    }
    eng = Engine(seed=seed)
    root_ub = dantzig_upper_bound(inst, 0, 0, 0)

    # Bare-key CPU queues cannot carry payloads, so nodes live in a
    # side table indexed by a unique id packed into the key's low bits.
    # Keys stay non-negative: smaller key == larger bound.
    table: dict[int, tuple[int, int, int]] = {}
    next_id = [0]
    ID_BITS = 20
    KEY_BASE = int(root_ub * KEY_SCALE) + 1

    def pack(ub: float, node: tuple[int, int, int]) -> int:
        nid = next_id[0] = (next_id[0] + 1) % (1 << ID_BITS)
        while nid in table:
            nid = next_id[0] = (next_id[0] + 1) % (1 << ID_BITS)
        table[nid] = node
        return ((KEY_BASE - int(ub * KEY_SCALE)) << ID_BITS) | nid

    def unpack(key: int) -> tuple[float, tuple[int, int, int]]:
        nid = key & ((1 << ID_BITS) - 1)
        ub = (KEY_BASE - (key >> ID_BITS)) / KEY_SCALE
        return ub, table.pop(nid)

    overflow = OverflowList()

    def worker(i):
        while True:
            got = yield from deletemin_with_retries(pq, 1)
            if got.size == 0:
                spilled = yield Atomic(overflow.pop_one)
                if spilled is None:
                    done = yield Atomic(lambda: state["outstanding"] == 0)
                    if done:
                        return
                    yield Compute(10 * per_node_ns)  # backoff, then retry
                    continue
                got = np.array([spilled], dtype=np.int64)
            ub, (level, profit, weight) = unpack(int(got[0]))
            yield Compute(per_node_ns)
            if ub <= state["incumbent"] or level >= inst.n_items:
                state["pruned" if ub <= state["incumbent"] else "expanded"] += 1
                yield Atomic(lambda: state.__setitem__(
                    "outstanding", state["outstanding"] - 1))
                continue
            state["expanded"] += 1
            if max_nodes and state["expanded"] > max_nodes:
                yield Atomic(lambda: state.__setitem__(
                    "outstanding", state["outstanding"] - 1))
                return
            p_i, w_i = int(inst.profits[level]), int(inst.weights[level])
            new_keys = []
            for take in (True, False):
                np_, nw = (profit + p_i, weight + w_i) if take else (profit, weight)
                if nw > inst.capacity:
                    continue
                if np_ > state["incumbent"]:
                    state["incumbent"] = np_
                cub = dantzig_upper_bound(inst, level + 1, np_, nw)
                if cub > state["incumbent"]:
                    new_keys.append(pack(cub, (level + 1, np_, nw)))
                else:
                    state["pruned"] += 1
            if new_keys:
                yield Atomic(lambda n=len(new_keys): state.__setitem__(
                    "outstanding", state["outstanding"] + n))
                # overflowed nodes stay outstanding; a peer will drain them
                yield from insert_with_retries(
                    pq, np.array(new_keys, dtype=np.int64), overflow=overflow
                )
            yield Atomic(lambda: state.__setitem__(
                "outstanding", state["outstanding"] - 1))

    # seed the queue first, then run workers
    def seeder():
        if root_ub > state["incumbent"]:
            state["outstanding"] += 1
            key = pack(root_ub, (0, 0, 0))
            yield from insert_with_retries(
                pq, np.array([key], dtype=np.int64), overflow=overflow
            )

    eng0 = Engine(seed=seed)
    eng0.spawn(seeder())
    eng0.run()

    for i in range(n_threads):
        eng.spawn(worker(i), name=f"bb{i}")
    makespan = eng.run()
    return KnapsackResult(
        state["incumbent"],
        state["expanded"],
        state["pruned"],
        max_queue=0,
        sim_time_ns=makespan,
    )
