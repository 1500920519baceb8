"""Golden ``astar_batched`` results, pinned field for field.

Each case pins the whole ``PathResult``: ``cost``, ``expanded``,
``pushed`` and ``sim_time_ns`` (as ``float.hex``, so to the last bit),
on every kernel backend.  A change to the A* glue (neighbour
generation, the dedupe, the relax pass) that only changes wall-clock
time must leave all four exactly as they are.

Cases: the Table-2 "5K*5K" grid at both obstacle rates with its
512-key batch, smaller grids at batch 16 and 64 (a frontier spans
several ``insert_bulk`` slices), the other two heuristics, and a
walled-off target (``cost is None``).
"""

import numpy as np
import pytest

from repro.apps.astar import Grid, astar_batched, generate_grid
from repro.primitives import kernels

#: (side, obstacle_rate, seed, batch, heuristic) ->
#: (cost, expanded, pushed, sim_time_ns.hex())
GOLDEN = {
    (96, 0.1, 0, 512, "manhattan"): (99, 8264, 8263, "0x1.c9d9c40540540p+19"),
    (96, 0.2, 0, 512, "manhattan"): (100, 7329, 7328, "0x1.b9cf1c6a84e57p+19"),
    (64, 0.2, 3, 16, "manhattan"): (70, 1045, 1221, "0x1.d646d84515eebp+19"),
    (64, 0.25, 1, 64, "chebyshev"): (71, 3067, 3087, "0x1.2a3355e3be871p+19"),
    (48, 0.1, 4, 1024, "octile"): (50, 2076, 2075, "0x1.83496bc71a638p+18"),
}

UNREACHABLE = (None, 10, 9, "0x1.fd104e6e970f0p+13")


def _fields(r):
    return (r.cost, r.expanded, r.pushed, r.sim_time_ns.hex())


@pytest.mark.parametrize("backend", kernels.available_backends())
@pytest.mark.parametrize("side,rate,seed,batch,heuristic", sorted(GOLDEN))
def test_grid_matches_golden(side, rate, seed, batch, heuristic, backend):
    grid = generate_grid(side, rate, seed=seed)
    with kernels.use(backend):
        got = astar_batched(grid, heuristic, batch=batch)
    assert _fields(got) == GOLDEN[side, rate, seed, batch, heuristic]


@pytest.mark.parametrize("backend", kernels.available_backends())
def test_unreachable_target_matches_golden(backend):
    blocked = np.zeros((5, 5), dtype=bool)
    blocked[2, :] = True  # a wall across the grid
    with kernels.use(backend):
        got = astar_batched(Grid(blocked, (0, 0), (4, 4)), batch=8)
    assert _fields(got) == UNREACHABLE
