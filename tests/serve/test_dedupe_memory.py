"""The dedupe cache holds journal records, not copies of responses.

``DurableService`` answers a re-sent op from its ``(sid, op_id)`` cache
for the life of the service, so whatever one entry holds is paid once
per op.  An entry is the op's ``WalRecord`` (which the WAL keeps anyway)
plus its ``cost_ns``; a cache of response dicts would instead keep each
deletemin's keys as a list of Python ints, ~5 KB per 128-key response.
These tests run a perfbench-shaped burst of k=128 ops and bound what
tracemalloc attributes to ``service.py``, both while serving and after
a reopen rebuilds the cache from the journal.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.native import NativeBGPQ
from repro.serve import service
from repro.serve.service import DurableService

K = 128
OPS = 1024  # alternating insert / deletemin, 512 of each
# a response cache would hold ~2.9 MiB here; records cost ~170 KiB
LIMIT = 512 * 1024


def _queue():
    return NativeBGPQ(node_capacity=K)


def _service_bytes(snapshot) -> int:
    only = snapshot.filter_traces([tracemalloc.Filter(True, service.__file__)])
    return sum(stat.size for stat in only.statistics("filename"))


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """The data dir after the burst, and what service.py held at its end."""
    data_dir = tmp_path_factory.mktemp("served")
    rng = np.random.default_rng(3)
    batches = [rng.integers(0, 1 << 40, size=K) for _ in range(OPS // 2)]
    svc = DurableService.open(_queue(), data_dir, fsync=False)
    tracemalloc.start()
    try:
        for i, keys in enumerate(batches):
            svc.apply_insert("s0", 2 * i, keys)
            svc.apply_deletemin("s0", 2 * i + 1, K)
        held = _service_bytes(tracemalloc.take_snapshot())
    finally:
        tracemalloc.stop()
    assert len(svc.wal) == OPS
    svc.close()
    return data_dir, held


def test_serving_keeps_no_response_copies(served):
    _, held = served
    assert held < LIMIT, f"service.py holds {held / 1024:.0f} KiB after {OPS} ops"


def test_recovery_keeps_no_response_copies(served):
    data_dir, _ = served
    tracemalloc.start()
    try:
        recovered = DurableService.open(_queue(), data_dir, fsync=False)
        held = _service_bytes(tracemalloc.take_snapshot())
    finally:
        tracemalloc.stop()
    assert len(recovered.wal) == OPS
    # the rebuilt cache answers the last deletemin in full
    assert len(recovered.apply_deletemin("s0", OPS - 1, K)["keys"]) == K
    recovered.close()
    assert held < LIMIT, f"service.py holds {held / 1024:.0f} KiB after reopen"
