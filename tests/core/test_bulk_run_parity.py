"""Multi-batch bulk inserts: the fused C run insert against NumPy.

On the compiled backend :meth:`NativeBGPQ.insert_bulk` hands the whole
sorted run to one C call that feeds the heap k records at a time and
logs every batch's charges; the NumPy reference loops over the batches
in Python.  Runs of 1..5k records with narrow keys (so ties decide where
payload rows land), into empty and non-empty heaps and interleaved with
deletemin, must leave both queues with the same exported rows, stats
and exact clock after every op.  The arena grows 8x per step, doubling
instead once a step would pass 64 MiB.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.arena import GROW_8X_MAX_BYTES, growth_target
from repro.core.native import NativeBGPQ
from repro.device import GpuContext
from repro.primitives import kernels

K = 8

needs_c = pytest.mark.skipif(
    "cext" not in kernels.available_backends(), reason="C core unavailable"
)

_ops = st.lists(
    st.one_of(
        st.lists(st.integers(-6, 6), min_size=1, max_size=5 * K).map(
            lambda ks: ("bulk", ks)
        ),
        st.integers(1, K).map(lambda c: ("deletemin", c)),
    ),
    min_size=1,
    max_size=30,
)


def _queue(kern, width):
    return NativeBGPQ(
        node_capacity=K, ctx=GpuContext.default(), kernels=kern,
        payload_width=width,
    )


def _assert_same_rows(got, want) -> None:
    assert got.header == want.header
    for name in ("counts", "keys", "pay"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def _assert_same(pq: NativeBGPQ, ref: NativeBGPQ) -> None:
    got = pq.export_rows()
    _assert_same_rows(got, ref.export_rows())
    assert pq.stats == ref.stats
    assert pq.sim_ticks == ref.sim_ticks
    assert len(pq) == len(ref)
    # a reachable state passes the restore check and round-trips exactly
    for kern in ("cext", "numpy"):
        fresh = _queue(kern, pq.payload_width)
        fresh.restore_rows(got)
        _assert_same_rows(fresh.export_rows(), got)


@needs_c
@pytest.mark.parametrize("width", [0, 1, 3])
@given(script=_ops)
@settings(max_examples=40, deadline=None)
def test_bulk_runs_match_numpy(width, script):
    pq, ref = _queue("cext", width), _queue("numpy", width)
    assert pq.kernel_provenance()["fused_active"]
    seq = 0
    for kind, arg in script:
        if kind == "deletemin":
            for got, want in zip(pq.deletemin(arg), ref.deletemin(arg)):
                assert np.array_equal(got, want)
        else:
            keys = np.asarray(arg, dtype=np.int64)
            # every record's payload row is distinct, so a tie broken
            # the other way shows in the exported rows
            ids = np.arange(seq, seq + keys.size)
            pay = np.stack([ids, -ids, keys], axis=1)[:, :width]
            seq += keys.size
            pq.insert_bulk(keys, pay)
            ref.insert_bulk(keys, pay)
        _assert_same(pq, ref)


@needs_c
def test_long_charge_log_is_summed_not_memoized():
    pq, ref = _queue("cext", 1), _queue("numpy", 1)
    keys = np.arange(40 * K)[::-1] % 13  # 40 batches: 120+ log triples
    pq.insert_bulk(keys, keys)
    ref.insert_bulk(keys, keys)
    assert not pq._charges.logs
    _assert_same(pq, ref)
    for q in (pq, ref):
        q.deletemin(K)
    assert len(pq._charges.logs) == 1  # a short log is memoized whole
    _assert_same(pq, ref)


@pytest.mark.parametrize("kern", kernels.available_backends())
def test_arena_grows_8x_per_step(kern):
    pq = NativeBGPQ(node_capacity=16, kernels=kern)
    assert pq._arena.rows == 8
    pq.insert_bulk(np.arange(16 * 8))  # heap_size 8: row 8 must exist
    assert pq._heap_size == 8
    assert pq._arena.rows == 64
    pq.insert_bulk(np.arange(16 * 56, 0, -1))  # heap_size 64
    assert pq._heap_size == 64
    assert pq._arena.rows == 512
    assert pq.check_invariants() == []


def test_growth_target_steps():
    assert growth_target(8, 7, 128) == 8  # row 7 exists: no growth
    assert growth_target(8, 8, 128) == 64
    assert growth_target(8, 64, 128) == 512
    assert growth_target(8, 600, 128) == 4096


def test_growth_target_doubles_past_64_mib():
    mib = 1 << 20
    assert GROW_8X_MAX_BYTES == 64 * mib
    # 8 rows of 1 MiB: 8x reaches exactly 64 MiB, the next step doubles
    assert growth_target(8, 8, mib) == 64
    assert growth_target(64, 64, mib) == 128
    assert growth_target(8, 100, mib) == 128
    # k = 1024 rows of 16-byte records: 8x up to 4096 rows (64 MiB),
    # then doubling up to the first count above the need
    assert growth_target(8, 10**6, 1024 * 16) == 1 << 20
