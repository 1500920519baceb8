"""Every kernel backend gives the apps the same answer as the NumPy
reference: the whole result, simulated time included (the kernels are
bit-identical by contract, so the drivers must be too)."""

import pytest

from repro.apps.astar.grid import generate_grid
from repro.apps.astar.search import astar_batched
from repro.apps.knapsack.branch_bound import solve_batched
from repro.apps.knapsack.instance import generate
from repro.primitives import kernels


def _solve_both(k: int):
    inst = generate(36, family="weakly_correlated", seed=5)
    grid = generate_grid(48, 0.15, seed=3)
    return solve_batched(inst, batch=k), astar_batched(grid, batch=k)


@pytest.mark.parametrize("k", [32, 512])
@pytest.mark.parametrize("backend", kernels.available_backends())
def test_apps_match_numpy_reference(backend, k):
    with kernels.use("numpy"):
        expect_ks, expect_path = _solve_both(k)
    with kernels.use(backend):
        got_ks, got_path = _solve_both(k)
    assert got_ks == expect_ks
    assert got_path == expect_path
    assert got_ks.sim_time_ns > 0 and got_path.sim_time_ns > 0
