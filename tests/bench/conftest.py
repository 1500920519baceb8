"""One tiny real payload per gated bench lane, shared by the lane tests
and the lane-parametrized gate tests."""

import pytest

from repro.bench import frontier, shard, wall

#: bulk size for tests: the full 32768 records would dominate every
#: run at small k
TINY_BULK = 256

#: shard/frontier sweeps small enough to run in well under a second,
#: loaded enough that the elastic frontier cell actually grows (its
#: gate requires it)
TINY_SHARD = dict(shard_counts=(1, 2), k=16, sessions=4, requests=4,
                  workloads=("mixed",))
TINY_FRONTIER = dict(widths=(1, 2), policies=("hash", "shortest"), k=64,
                     sessions=16, requests=8)


@pytest.fixture(scope="session")
def wall_results():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wall, "BULK_RECORDS", TINY_BULK)
        return wall.run_wall(ks=(8,), quick=True, op_iters=4)


@pytest.fixture(scope="session")
def shard_results():
    return shard.run_shard(**TINY_SHARD)


@pytest.fixture(scope="session")
def frontier_results():
    return frontier.run_frontier(**TINY_FRONTIER)
