"""Differential suite: the arena storage vs an exact oracle.

Over arbitrary interleavings of insert / insert_bulk / deletemin the
queue must drain exactly what a sequential oracle drains, with every
payload row still attached to its key, and keep the batched-heap
invariants.  Exact simulated time is pinned separately
(``test_tick_clock.py``).  The suites run at small k so hypothesis can
explore deep heap shapes quickly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SequentialPQ
from repro.core.native import NativeBGPQ
from repro.device import GpuContext
from repro.errors import ConfigurationError
from repro.primitives import kernels

K = 8


def _payload(keys: np.ndarray, seq: int) -> np.ndarray:
    """Unique, key-derived rows: column 0 ties the row to its key,
    column 1 to its submission order — so a misrouted payload shows up
    even among equal keys."""
    keys = np.asarray(keys, dtype=np.int64)
    return np.stack(
        [keys * 3, np.arange(seq, seq + keys.size, dtype=np.int64)], axis=1
    )


_script = st.lists(
    st.one_of(
        st.lists(st.integers(0, 2**20), min_size=1, max_size=K).map(
            lambda ks: ("insert", ks)
        ),
        st.lists(st.integers(0, 2**20), min_size=1, max_size=5 * K).map(
            lambda ks: ("bulk", ks)
        ),
        st.integers(1, K).map(lambda c: ("deletemin", c)),
    ),
    max_size=60,
)


@given(_script)
@settings(max_examples=60, deadline=None)
def test_arena_matches_oracle(script):
    arena = NativeBGPQ(node_capacity=K, ctx=GpuContext.default(), payload_width=2)
    oracle = SequentialPQ()
    seq = 0
    for kind, arg in script:
        if kind == "deletemin":
            ka, pa = arena.deletemin(arg)
            assert np.array_equal(ka, oracle.deletemin(arg))
            assert np.array_equal(pa[:, 0], ka * 3)  # payload alignment
        else:
            keys = np.asarray(arg, dtype=np.int64)
            pay = _payload(keys, seq)
            seq += keys.size
            method = "insert_bulk" if kind == "bulk" else "insert"
            getattr(arena, method)(keys, payload=pay)
            oracle.insert(keys)
        assert len(arena) == len(oracle)
    assert arena.check_invariants() == []
    assert np.array_equal(
        np.sort(arena.snapshot_keys()), oracle.snapshot_keys()
    )


def test_clear_resets_both_backends():
    """On both kernel backends: the fused C path and the NumPy one."""
    for kern in kernels.available_backends():
        pq = NativeBGPQ(node_capacity=K, kernels=kern)
        pq.insert_bulk(np.arange(7 * K))
        pq.clear()
        assert len(pq) == 0 and not pq
        pq.insert([3, 1])
        keys, _ = pq.deletemin(2)
        assert list(keys) == [1, 3]


def test_sim_time_accumulates_exactly():
    """Satellite: no float drift.  n identical charges must sum to
    exactly n times one charge — true for the integer tick clock, false
    in general for repeated float addition."""
    from fractions import Fraction

    pq = NativeBGPQ(node_capacity=K, ctx=GpuContext.default())
    pq.deletemin(1)  # empty queue: charges the lock pair only
    one = pq.sim_time_ns_exact
    assert isinstance(one, Fraction) and one > 0
    for _ in range(9_999):
        pq.deletemin(1)
    assert pq.sim_time_ns_exact == 10_000 * one


def test_arena_growth_preserves_content():
    """Doubling growth must carry every live row across reallocation."""
    pq = NativeBGPQ(node_capacity=K, payload_width=1)
    oracle = SequentialPQ()
    rng = np.random.default_rng(3)
    for _ in range(64):  # far past the initial 8-row arena
        keys = rng.integers(0, 1 << 20, size=K)
        pq.insert(keys, payload=keys.reshape(-1, 1))
        oracle.insert(keys)
    assert pq.check_invariants() == []
    while pq:
        keys, pay = pq.deletemin(K)
        assert np.array_equal(keys, oracle.deletemin(K))
        assert np.array_equal(pay.ravel(), keys)


_KEYS = st.lists(st.integers(-(1 << 40), 1 << 40), max_size=3 * K)
_len_script = st.lists(
    st.one_of(
        _KEYS.map(lambda ks: ("insert", ks)),  # empty, <= k and > k batches
        st.integers(0, K).map(lambda c: ("deletemin", c)),  # 0 is rejected
        st.sampled_from([("clear", None), ("restore", None), ("bad_restore", None)]),
    ),
    max_size=40,
)


@given(st.sampled_from(kernels.available_backends()), _len_script)
@settings(max_examples=60, deadline=None)
def test_len_counter_matches_arena(backend, script):
    """len() is an O(1) counter; after every step, accepted or rejected,
    it equals the records the arena rows hold."""
    pq = NativeBGPQ(node_capacity=K, kernels=backend)
    spare = NativeBGPQ(node_capacity=K, kernels=backend)
    spare.insert(np.arange(2 * K + 3))
    for kind, arg in script:
        if kind == "insert":
            pq.insert(arg)
        elif kind == "deletemin":
            if arg == 0:
                with pytest.raises(ValueError):
                    pq.deletemin(arg)
            else:
                pq.deletemin(arg)
        elif kind == "clear":
            pq.clear()
        elif kind == "restore":
            # restore over a non-empty queue, then keep going on it
            spare.restore_state(pq.export_state())
            pq, spare = spare, pq
        else:
            state = pq.export_state()
            state["nodes"] = state["nodes"] + [{"keys": [], "pay": []}]
            with pytest.raises(ConfigurationError):
                pq.restore_state(state)
        a = pq._arena
        held = int(a.counts[0] + a.counts[1 : pq._heap_size + 1].sum())
        assert len(pq) == held
        assert bool(pq) == (held > 0)
        assert pq.check_invariants() == []


def test_check_invariants_reports_len_counter_drift():
    pq = NativeBGPQ(node_capacity=K)
    pq.insert(np.arange(3 * K))
    pq._size -= 1  # a bookkeeping bug at an op boundary
    assert any("len() counter" in p for p in pq.check_invariants())
