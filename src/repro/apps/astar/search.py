"""A* route planning on the priority-queue API (§6.5).

Three engines over the same grid/heuristic machinery:

* :func:`astar_sequential` — classic heapq A* (the CPU reference).
* :func:`astar_batched` — the paper's GPU formulation: DELETEMIN
  retrieves a full batch of open nodes, a data-parallel kernel expands
  all of them (8 neighbours each), deduplicates, relaxes the g-array,
  and pushes the surviving frontier in batches.  Runs on
  :class:`~repro.core.native.NativeBGPQ` with device-time accounting.
* :func:`astar_concurrent` — discrete-event parallel A* for the CPU
  comparator queues (80 simulated threads sharing one concurrent PQ).

All moves (straight and diagonal) cost 1, matching the paper's "8
directions to move".  With the paper's Manhattan heuristic (which
overestimates diagonals) the search is weighted/greedy; with an
admissible heuristic every engine terminates only when the popped
bound proves optimality.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from ...core.native import NativeBGPQ
from ...device.kernels import GpuContext
from ...sim import Atomic, Compute, Engine
from ..resilience import OverflowList, deletemin_with_retries, insert_with_retries
from .grid import Grid
from .heuristics import HEURISTICS, manhattan

__all__ = ["PathResult", "astar_sequential", "astar_batched", "astar_concurrent"]

UNREACHED = np.iinfo(np.int64).max


@dataclass
class PathResult:
    """Outcome of one A* run."""

    cost: int | None  # moves from start to target; None if unreachable
    expanded: int
    pushed: int
    sim_time_ns: float = 0.0

    @property
    def found(self) -> bool:
        return self.cost is not None

    @property
    def sim_time_ms(self) -> float:
        return self.sim_time_ns / 1e6


def _heuristic_fn(name_or_fn):
    if callable(name_or_fn):
        return name_or_fn
    return HEURISTICS[name_or_fn]


def astar_sequential(grid: Grid, heuristic="manhattan") -> PathResult:
    """Textbook A* with a binary heap open list."""
    h = _heuristic_fn(heuristic)
    ty, tx = grid.target
    start_id = grid.cell_id(*grid.start)
    target_id = grid.cell_id(ty, tx)
    best = {start_id: 0}
    f0 = int(h(grid.start[0], grid.start[1], ty, tx))
    heap = [(f0, start_id, 0)]
    expanded = pushed = 0
    best_target: int | None = None
    while heap:
        f, cell, g = heapq.heappop(heap)
        if best_target is not None and f >= best_target:
            break
        if g > best.get(cell, UNREACHED):
            continue  # stale duplicate
        expanded += 1
        if cell == target_id:
            best_target = g
            continue
        y, x = divmod(cell, grid.width)
        for ny, nx in grid.neighbors(y, x):
            ncell = ny * grid.width + nx
            ng = g + 1
            if ng < best.get(ncell, UNREACHED):
                best[ncell] = ng
                heapq.heappush(heap, (ng + int(h(ny, nx, ty, tx)), ncell, ng))
                pushed += 1
    return PathResult(best_target, expanded, pushed)


def astar_batched(
    grid: Grid,
    heuristic="manhattan",
    ctx: GpuContext | None = None,
    batch: int = 1024,
    pq_factory=None,
) -> PathResult:
    """Batched GPU-style A* on NativeBGPQ.

    Per iteration: one DELETEMIN of up to ``batch`` nodes, one
    vectorised expansion over all their neighbours, one dedup+relax
    pass on the g-array, and batched INSERTs of the improved frontier.

    ``pq_factory(node_capacity, ctx, payload_width, storage)``, when
    given, supplies the queue instead of NativeBGPQ — the shard bench
    injects a recording subclass here to capture the app's exact PQ
    op trace for fleet replay.  ``storage`` is always ``"arena"``.
    """
    h = _heuristic_fn(heuristic)
    ctx = ctx if ctx is not None else GpuContext.default()
    model = ctx.model
    ty, tx = grid.target
    target_id = grid.cell_id(ty, tx)
    start_id = grid.cell_id(*grid.start)

    best = np.full(grid.n_cells, UNREACHED, dtype=np.int64)
    best[start_id] = 0
    if pq_factory is None:
        pq = NativeBGPQ(node_capacity=batch, ctx=ctx, payload_width=2)
    else:
        pq = pq_factory(batch, ctx, 2, "arena")
    f0 = int(h(grid.start[0], grid.start[1], ty, tx))
    pq.insert(np.array([f0]), payload=np.array([[start_id, 0]]))
    expanded = pushed = 0
    kernel_ns = 0.0
    best_target: int | None = None

    while pq:
        keys, payload = pq.deletemin(batch)
        if best_target is not None and keys.size and keys.min() >= best_target:
            break
        cells = payload[:, 0]
        gs = payload[:, 1]
        fresh = gs <= best[cells]
        cells, gs = cells[fresh], gs[fresh]
        expanded += int(cells.size)
        if cells.size == 0:
            continue
        hit = cells == target_id
        if hit.any():
            tg = int(gs[hit].min())
            best_target = tg if best_target is None else min(best_target, tg)
            cells, gs = cells[~hit], gs[~hit]
            if cells.size == 0:
                continue
        # data-parallel expansion of the whole batch
        parent_idx, ncells = grid.neighbors_batch(cells)
        ngs = gs[parent_idx] + 1
        # dedup within the batch: keep the smallest g per neighbour cell
        order = np.lexsort((ngs, ncells))
        ncells, ngs = ncells[order], ngs[order]
        first = np.ones(ncells.size, dtype=bool)
        first[1:] = ncells[1:] != ncells[:-1]
        ncells, ngs = ncells[first], ngs[first]
        improved = ngs < best[ncells]
        ncells, ngs = ncells[improved], ngs[improved]
        best[ncells] = ngs
        ny, nx = grid.coords(ncells)
        fs = ngs + h(ny, nx, ty, tx).astype(np.int64)
        pushed += int(ncells.size)
        # kernel charge: neighbour generation + dedup sort + relax
        n_edges = max(1, int(parent_idx.size))
        kernel_ns += (
            model.shared_pass_ns(n_edges)
            + model.bitonic_sort_ns(min(n_edges, 2 * batch))
            + model.global_read_ns(n_edges)
            + model.global_write_ns(max(1, int(ncells.size)))
        )
        payload_out = np.stack([ncells, ngs], axis=1)
        pq.insert_bulk(fs, payload=payload_out)
    return PathResult(best_target, expanded, pushed, pq.sim_time_ns + kernel_ns)


def astar_concurrent(
    grid: Grid,
    pq,
    heuristic="manhattan",
    n_threads: int = 80,
    per_expand_ns: float = 600.0,
    seed: int = 0,
) -> PathResult:
    """Parallel A* on a simulated multicore over any ConcurrentPQ.

    Keys pack ``f * 2^31 + cell`` so bare-key queues carry the node
    identity; ``g`` is re-read from the shared best-g table at pop
    time, which also subsumes stale-duplicate elimination.

    Fault tolerance mirrors the knapsack driver: queue operations run
    through :mod:`repro.apps.resilience` retries, and permanently
    failing inserts route their keys to an overflow list drained by
    idle workers — aborts cost time, never frontier nodes.
    """
    h = _heuristic_fn(heuristic)
    ty, tx = grid.target
    target_id = grid.cell_id(ty, tx)
    start_id = grid.cell_id(*grid.start)
    CELL_BITS = 31

    best = np.full(grid.n_cells, UNREACHED, dtype=np.int64)
    best[start_id] = 0
    state = {"outstanding": 0, "expanded": 0, "pushed": 0, "best_target": None}

    f0 = int(h(grid.start[0], grid.start[1], ty, tx))

    eng0 = Engine(seed=seed)

    overflow = OverflowList()

    def seeder():
        state["outstanding"] += 1
        yield from insert_with_retries(
            pq,
            np.array([(f0 << CELL_BITS) | start_id], dtype=np.int64),
            overflow=overflow,
        )

    eng0.spawn(seeder())
    eng0.run()

    def worker(i):
        while True:
            got = yield from deletemin_with_retries(pq, 1)
            if got.size == 0:
                spilled = yield Atomic(overflow.pop_one)
                if spilled is None:
                    done = yield Atomic(lambda: state["outstanding"] == 0)
                    if done:
                        return
                    yield Compute(10 * per_expand_ns)
                    continue
                got = np.array([spilled], dtype=np.int64)
            key = int(got[0])
            cell = key & ((1 << CELL_BITS) - 1)
            f = key >> CELL_BITS
            yield Compute(per_expand_ns)
            bt = state["best_target"]
            if bt is not None and f >= bt:
                yield Atomic(lambda: state.__setitem__(
                    "outstanding", state["outstanding"] - 1))
                continue
            g = int(best[cell])
            state["expanded"] += 1
            if cell == target_id:
                if bt is None or g < bt:
                    state["best_target"] = g
                yield Atomic(lambda: state.__setitem__(
                    "outstanding", state["outstanding"] - 1))
                continue
            y, x = divmod(cell, grid.width)
            new_keys = []
            for nyy, nxx in grid.neighbors(y, x):
                ncell = nyy * grid.width + nxx
                ng = g + 1
                if ng < best[ncell]:
                    best[ncell] = ng
                    nf = ng + int(h(nyy, nxx, ty, tx))
                    new_keys.append((nf << CELL_BITS) | ncell)
            if new_keys:
                state["pushed"] += len(new_keys)
                yield Atomic(lambda n=len(new_keys): state.__setitem__(
                    "outstanding", state["outstanding"] + n))
                # overflowed nodes stay outstanding; a peer will drain them
                yield from insert_with_retries(
                    pq, np.array(new_keys, dtype=np.int64), overflow=overflow
                )
            yield Atomic(lambda: state.__setitem__(
                "outstanding", state["outstanding"] - 1))

    eng = Engine(seed=seed + 1)
    for i in range(n_threads):
        eng.spawn(worker(i), name=f"astar{i}")
    makespan = eng.run()
    return PathResult(
        state["best_target"], state["expanded"], state["pushed"], makespan
    )
