"""Backend differential: every kernel backend is one queue.

The fast path — the fused C heapify and the compiled record presort —
must be *observationally invisible*: byte-identical outputs, identical
exported heap state, identical simulated-time accounting (the fused
kernels replay their charge log into the same exact tick clock the
reference path charges), identical stats counters.  These tests drive
random workloads through every backend the host offers and compare
against both the numpy-reference queue and the SequentialPQ oracle,
with HeapAuditor checking structural invariants along the way.
"""

import numpy as np
import pytest

from repro.core import HeapAuditor, SequentialPQ
from repro.core.native import NativeBGPQ
from repro.device.kernels import GpuContext
from repro.primitives import kernels

# ids name the execution mode too: serial ("off"), the only one there is
MODES = [pytest.param(n, id=f"{n}-off") for n in kernels.available_backends()]


def _workload(rng, k, ops):
    """A reproducible mixed script: (op, arg) tuples."""
    script = []
    for _ in range(ops):
        if rng.random() < 0.6:
            n = int(rng.integers(1, k + 1))
            script.append(("insert", rng.integers(-1000, 1000, size=n)))
        else:
            script.append(("delete", int(rng.integers(1, k + 1))))
    return script


def _drive(pq, script, k):
    outs = []
    for op, arg in script:
        if op == "insert":
            pq.insert(np.asarray(arg, dtype=np.int64))
        else:
            got = pq.deletemin(arg)
            keys = got[0] if isinstance(got, tuple) else got
            outs.append(np.asarray(keys).tolist())
    return outs


@pytest.mark.parametrize("kern", MODES)
@pytest.mark.parametrize("k", [4, 16, 64])
def test_backend_matches_numpy_serial_and_oracle(kern, k):
    rng = np.random.default_rng(k * 1001)
    script = _workload(rng, k, 60)

    ref = NativeBGPQ(k, kernels="numpy")
    ref_outs = _drive(ref, script, k)

    oracle = SequentialPQ()
    for op, arg in script:
        if op == "insert":
            oracle.insert(np.asarray(arg, dtype=np.int64))
        else:
            oracle.deletemin(arg)

    pq = NativeBGPQ(k, kernels=kern)
    outs = _drive(pq, script, k)
    assert outs == ref_outs
    assert len(pq) == len(ref) == len(oracle)
    assert pq.stats == ref.stats
    state, ref_state = pq.export_state(), ref.export_state()
    assert state.keys() == ref_state.keys()
    for key in state:
        assert np.array_equal(state[key], ref_state[key]), key
    report = HeapAuditor(pq).audit(context=kern)
    assert report.ok, report.problems
    # drain: the remaining multiset must match the oracle's exactly
    drained = []
    while len(pq):
        got = pq.deletemin(k)
        keys = got[0] if isinstance(got, tuple) else got
        drained.extend(np.asarray(keys).tolist())
    assert drained == sorted(drained)
    assert drained == oracle.deletemin(len(oracle)).tolist()


@pytest.mark.parametrize("kern", MODES)
def test_sim_time_identical_across_backends(kern):
    """Charge-log replay must reproduce the reference clock exactly."""
    k = 8
    ctx = GpuContext.default(blocks=8, threads_per_block=64)
    rng = np.random.default_rng(42)
    script = _workload(rng, k, 50)

    ref = NativeBGPQ(k, ctx=ctx, kernels="numpy")
    _drive(ref, script, k)
    pq = NativeBGPQ(k, ctx=ctx, kernels=kern)
    _drive(pq, script, k)
    assert pq.sim_time_ns_exact == ref.sim_time_ns_exact


@pytest.mark.parametrize("kern", MODES)
def test_payload_rides_identically(kern):
    k = 8
    rng = np.random.default_rng(7)
    ref = NativeBGPQ(k, payload_width=2, kernels="numpy")
    pq = NativeBGPQ(k, payload_width=2, kernels=kern)
    for _ in range(25):
        n = int(rng.integers(1, k + 1))
        keys = rng.integers(-50, 50, size=n).astype(np.int64)
        pay = rng.integers(0, 1 << 20, size=(n, 2)).astype(np.int64)
        ref.insert(keys, pay)
        pq.insert(keys, pay)
    while len(ref):
        rk, rp = ref.deletemin(k)
        gk, gp = pq.deletemin(k)
        assert np.array_equal(rk, gk)
        assert np.array_equal(rp, gp)


@pytest.mark.parametrize("kern", MODES)
def test_bulk_and_build_identical(kern):
    """One 5000-record ``insert_bulk``, the frontier load the apps do."""
    k = 16
    rng = np.random.default_rng(3)
    records = rng.integers(-10_000, 10_000, size=5000).astype(np.int64)
    ref = NativeBGPQ(k, kernels="numpy")
    ref.insert_bulk(records)
    pq = NativeBGPQ(k, kernels=kern)
    pq.insert_bulk(records)
    assert len(pq) == len(ref)
    state, ref_state = pq.export_state(), ref.export_state()
    for key in state:
        assert np.array_equal(state[key], ref_state[key]), key


def test_kernel_provenance_reported():
    info = NativeBGPQ(8, kernels="numpy").kernel_provenance()
    assert info["backend"] == "numpy"
    assert info["fused_active"] is False
