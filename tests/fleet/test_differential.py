"""Property tests: the fleet against exact and relaxed oracles.

Two contracts, each over every (policy, shard-count) cell:

* **multiset exactness** — relaxation reorders deletes but never loses
  or invents keys: fully draining the fleet yields exactly the
  inserted multiset;
* **self-consistent relaxation bound** — the driver's measured history
  passes the k-relaxed spec at the checker's own reported
  ``minimal_k`` and fails one below it, i.e. the reported bound is
  tight, so any externally supplied budget >= minimal_k is honest.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import check_k_relaxed
from repro.core.linearizability import LinearizabilityError, assert_k_relaxed
from repro.fleet import ShardedBGPQ, mixed_scripts, run_fleet

CELLS = [
    (policy, n)
    for policy in ("hash", "spray", "shortest", "d-choice")
    for n in (1, 2, 4)
]
#: every shard is a NativeBGPQ; the ids keep naming that engine
CELL_IDS = [f"{policy}-{n}-native" for policy, n in CELLS]

keys_strategy = st.lists(
    st.integers(min_value=-(1 << 40), max_value=1 << 40), min_size=1, max_size=120
)


@pytest.mark.parametrize("policy,n_shards", CELLS, ids=CELL_IDS)
@given(keys=keys_strategy, seed=st.integers(min_value=0, max_value=7))
@settings(max_examples=12, deadline=None)
def test_fleet_drains_exact_multiset(policy, n_shards, keys, seed):
    fleet = ShardedBGPQ(
        n_shards=n_shards, node_capacity=8, policy=policy, seed=seed,
    )
    arr = np.array(keys, dtype=np.int64)
    fleet.insert(arr)
    assert len(fleet) == arr.size
    out = []
    while fleet:
        out.append(fleet.delete_min(min(8, max(1, len(fleet)))))
    drained = np.sort(np.concatenate(out))
    assert np.array_equal(drained, np.sort(arr))
    assert fleet.check_invariants() == []


@pytest.mark.parametrize("policy,n_shards", CELLS, ids=CELL_IDS)
def test_measured_rank_never_exceeds_reported_bound(policy, n_shards):
    fleet = ShardedBGPQ(
        n_shards=n_shards, node_capacity=8, policy=policy, seed=11,
    )
    res = run_fleet(fleet, mixed_scripts(5, 6, 8, seed=2))
    measured = check_k_relaxed(res.history)
    assert not measured.problems
    # the reported minimal_k is a genuine bound: spec passes there...
    report = assert_k_relaxed(res.history, k=measured.minimal_k)
    assert report.ok and report.max_rank == measured.max_rank
    # ...and is tight: one below it must violate (when relaxation occurred)
    if measured.minimal_k > 1:
        with pytest.raises(LinearizabilityError):
            assert_k_relaxed(res.history, k=measured.minimal_k - 1)
    else:
        assert n_shards == 1 or measured.max_rank == 0
