"""NativeBGPQ tests: oracle differential, payloads, cost accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SequentialPQ
from repro.core.native import NativeBGPQ
from repro.device import GpuContext
from repro.errors import ConfigurationError


def test_roundtrip():
    pq = NativeBGPQ(node_capacity=8)
    pq.insert([5, 1, 3])
    keys, _ = pq.deletemin(3)
    assert list(keys) == [1, 3, 5]
    assert len(pq) == 0


def test_empty_deletemin():
    pq = NativeBGPQ(node_capacity=8)
    keys, payload = pq.deletemin(4)
    assert keys.size == 0 and payload.shape[0] == 0


def test_bool_and_len():
    pq = NativeBGPQ(node_capacity=4)
    assert not pq
    pq.insert([1, 2])
    assert pq and len(pq) == 2


def test_validation():
    with pytest.raises(ConfigurationError):
        NativeBGPQ(node_capacity=1)
    for layout in ("list", "rope"):
        with pytest.raises(ConfigurationError, match="only layout is 'arena'"):
            NativeBGPQ(node_capacity=4, storage=layout)
    assert NativeBGPQ(node_capacity=4, storage="arena").storage == "arena"
    pq = NativeBGPQ(node_capacity=4)
    with pytest.raises(ValueError):
        pq.deletemin(0)
    with pytest.raises(ValueError):
        pq.deletemin(5)
    with pytest.raises(ValueError):
        pq.insert(np.zeros((2, 2)))


def test_oversize_insert_chunks_internally():
    # >k batches used to raise; now they chunk via the bulk path
    pq = NativeBGPQ(node_capacity=4)
    pq.insert(np.arange(11)[::-1])
    assert len(pq) == 11
    keys, _ = pq.deletemin(4)
    assert list(keys) == [0, 1, 2, 3]
    assert pq.check_invariants() == []


def test_payload_travels_with_keys():
    pq = NativeBGPQ(node_capacity=4, payload_width=2)
    pq.insert([30, 10], payload=[[3, 33], [1, 11]])
    pq.insert([20], payload=[[2, 22]])
    keys, payload = pq.deletemin(3)
    assert list(keys) == [10, 20, 30]
    assert payload.tolist() == [[1, 11], [2, 22], [3, 33]]


def test_payload_shape_validation():
    pq = NativeBGPQ(node_capacity=4, payload_width=2)
    with pytest.raises(ValueError):
        pq.insert([1], payload=[[1, 2, 3]])


def test_payload_consistency_through_heapify():
    """payload[i] == key-derived row must hold after deep mixing."""
    pq = NativeBGPQ(node_capacity=8, payload_width=1)
    rng = np.random.default_rng(0)
    for _ in range(60):
        keys = rng.integers(0, 10**6, size=int(rng.integers(1, 9)))
        pq.insert(keys, payload=keys.reshape(-1, 1) * 3)
        if rng.random() < 0.4:
            keys_out, pay = pq.deletemin(int(rng.integers(1, 9)))
            assert np.array_equal(pay.ravel(), keys_out * 3)
    while pq:
        keys_out, pay = pq.deletemin(8)
        assert np.array_equal(pay.ravel(), keys_out * 3)


def test_matches_oracle_strict():
    pq = NativeBGPQ(node_capacity=16)
    oracle = SequentialPQ()
    rng = np.random.default_rng(7)
    for _ in range(400):
        if rng.random() < 0.55:
            batch = rng.integers(0, 10**6, size=int(rng.integers(1, 17)))
            pq.insert(batch)
            oracle.insert(batch)
        else:
            c = int(rng.integers(1, 17))
            got, _ = pq.deletemin(c)
            assert np.array_equal(got, oracle.deletemin(c))
        assert len(pq) == len(oracle)
    assert pq.check_invariants() == []
    assert np.array_equal(np.sort(pq.snapshot_keys()), oracle.snapshot_keys())


def test_cost_accounting_accumulates_with_ctx():
    pq = NativeBGPQ(node_capacity=64, ctx=GpuContext.default())
    assert pq.sim_time_ns == 0.0
    pq.insert(np.arange(64))
    t1 = pq.sim_time_ns
    assert t1 > 0
    pq.deletemin(64)
    assert pq.sim_time_ns > t1
    assert pq.sim_time_ms == pq.sim_time_ns / 1e6


def test_no_cost_accounting_without_ctx():
    pq = NativeBGPQ(node_capacity=8)
    pq.insert([1, 2, 3])
    assert pq.sim_time_ns == 0.0


def test_interior_nodes_stay_full():
    pq = NativeBGPQ(node_capacity=8)
    rng = np.random.default_rng(1)
    for _ in range(100):
        pq.insert(rng.integers(0, 10**6, size=8))
    assert pq.check_invariants() == []
    for _ in range(30):
        pq.deletemin(int(rng.integers(1, 9)))
        assert pq.check_invariants() == []


@given(
    st.lists(
        st.one_of(
            st.lists(st.integers(0, 2**30), min_size=1, max_size=8).map(
                lambda ks: ("insert", ks)
            ),
            st.integers(1, 8).map(lambda c: ("deletemin", c)),
        ),
        max_size=80,
    )
)
@settings(max_examples=50, deadline=None)
def test_property_oracle_equivalence(script):
    pq = NativeBGPQ(node_capacity=8)
    oracle = SequentialPQ()
    for kind, arg in script:
        if kind == "insert":
            pq.insert(arg)
            oracle.insert(arg)
        else:
            got, _ = pq.deletemin(arg)
            assert np.array_equal(got, oracle.deletemin(arg))
    assert pq.check_invariants() == []
    assert np.array_equal(np.sort(pq.snapshot_keys()), oracle.snapshot_keys())


def test_peek_tracks_global_min_without_mutating():
    pq = NativeBGPQ(node_capacity=4)
    assert pq.peek() is None
    pq.insert([7])  # buffered only: heap still empty
    assert pq.peek() == 7 and len(pq) == 1
    pq.insert([5, 9, 1, 3, 8])  # overflows into the heap
    before = len(pq)
    assert pq.peek() == 1
    assert len(pq) == before  # peek is read-only
    keys, _ = pq.deletemin(pq.k)
    assert keys[0] == 1
    while pq:
        expect = np.sort(pq.snapshot_keys())[0]
        assert pq.peek() == expect
        pq.deletemin(1)
    assert pq.peek() is None
