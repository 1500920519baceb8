"""Golden ``solve_batched`` results, pinned field for field.

The values were recorded with the three-column ``(level, profit,
weight)`` node payload, before nodes were packed into one int64
column.  The packing, the prefix-sum stale-bound prune and the
preallocated expansion pass only change wall-clock time: the search,
its pruning and the simulated time (compared as ``float.hex``, so to
the last bit) must stay exactly these, on every kernel backend.

Cases: the five Table-2 instances (strongly correlated, ``R=50``) at
the default ``batch=1024`` and at 16 and 64, where every children batch
spans several ``insert_bulk`` slices, plus one 50-item instance of each
generator family.
"""

import pytest

from repro.apps.knapsack import generate, solve_batched
from repro.bench.experiments import KNAPSACK_SEEDS
from repro.primitives import kernels

#: (items, batch) -> (best_profit, nodes_expanded, nodes_pruned,
#: max_queue, sim_time_ns.hex())
TABLE2 = {
    (24, 1024): (428, 21966, 11806, 6597, "0x1.268d6ad00d4bfp+19"),
    (28, 1024): (490, 44993, 21122, 10711, "0x1.5c15315090568p+20"),
    (32, 1024): (556, 43986, 19943, 13646, "0x1.689bff2e24348p+20"),
    (36, 1024): (590, 25375, 17931, 14967, "0x1.d6f731f600d7ep+19"),
    (48, 1024): (742, 64857, 29559, 24160, "0x1.4cd93fa0f26d2p+21"),
    (24, 16): (428, 15108, 4976, 1944, "0x1.501c9ddc21de4p+24"),
    (28, 16): (490, 35538, 11668, 3672, "0x1.aa4f141091e12p+25"),
    (32, 16): (556, 31841, 7798, 2427, "0x1.674ea174f9fd5p+25"),
    (36, 16): (590, 9447, 2051, 1255, "0x1.86ef80b2eabdep+23"),
    (48, 16): (742, 41777, 6499, 3727, "0x1.e97a1dd68f0f2p+25"),
    (24, 64): (428, 15416, 5284, 2209, "0x1.3ebc2b0d303cap+22"),
    (28, 64): (490, 35987, 12117, 4229, "0x1.9475c3055c140p+23"),
    (32, 64): (556, 32321, 8278, 2932, "0x1.5d6d68cf47f6dp+23"),
    (36, 64): (590, 10175, 2779, 1957, "0x1.ab6cefea145acp+21"),
    (48, 64): (742, 42884, 7606, 4802, "0x1.e5bae5f1ccc3bp+23"),
}

#: (family, R, seed) of a 50-item instance at batch 1024 -> result
FAMILY = {
    ("uncorrelated", 1000, 0): (21959, 7521, 7465, 4300, "0x1.2cce48bb687bdp+18"),
    ("weakly_correlated", 1000, 0): (12863, 11677, 11540, 6782,
                                     "0x1.b6d551c06e3aap+18"),
    ("strongly_correlated", 50, 2): (840, 103821, 36307, 27185,
                                     "0x1.00db914f622c3p+22"),
    ("subset_sum", 5, 1): (75, 87039, 87040, 64625, "0x1.9b87c0aa732adp+21"),
}


def _fields(r):
    return (r.best_profit, r.nodes_expanded, r.nodes_pruned, r.max_queue,
            r.sim_time_ns.hex())


@pytest.mark.parametrize("backend", kernels.available_backends())
@pytest.mark.parametrize("items,batch", sorted(TABLE2))
def test_table2_instances_match_golden(items, batch, backend):
    inst = generate(items, "strongly_correlated", R=50,
                    seed=KNAPSACK_SEEDS[items])
    with kernels.use(backend):
        got = solve_batched(inst, batch=batch)
    assert _fields(got) == TABLE2[items, batch]


@pytest.mark.parametrize("backend", kernels.available_backends())
@pytest.mark.parametrize("family,R,seed", sorted(FAMILY))
def test_family_instances_match_golden(family, R, seed, backend):
    inst = generate(50, family, R=R, seed=seed)
    with kernels.use(backend):
        got = solve_batched(inst)
    assert _fields(got) == FAMILY[family, R, seed]
