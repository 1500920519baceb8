"""Differential suite: the compiled record presort is bit-identical to
the reference.

The dispatch contract (`repro.primitives.kernels`) is that switching
backend can never change a result — same key values, same tie
resolution, same payload permutation, byte for byte.  These tests pin
that contract for ``sort_records``, the one batch primitive the
compiled backend serves on its own, with hypothesis against every
compiled backend the host can build; on a host with none they are
skipped.  The AVX-512 keys-only merge network is reached only inside
the fused whole-op kernels, so its tie storm drives whole queues; the
rest of the fused kernels' contract is held to the reference queue by
``tests/core/test_native_backends.py``.

Shapes deliberately cover the compiled path's edges: empty batches,
single elements, heavy ties, payload widths 0..3, and non-contiguous
views.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.native import NativeBGPQ, StateRows
from repro.device import GpuContext
from repro.primitives import kernels

COMPILED = [n for n in kernels.available_backends() if n != "numpy"]
REF = kernels.select("numpy")

pytestmark = pytest.mark.skipif(
    not COMPILED, reason="no compiled kernel backend on this host"
)

# widths 0 (keys only), 1 (one 8-byte column) and 3 (the general row)
widths = st.sampled_from([0, 1, 3])


def _records(keys, w):
    pay = np.arange(len(keys) * max(w, 1), dtype=np.int64)
    pay = pay.reshape(len(keys), max(w, 1))[:, :w].copy()
    return np.array(keys, dtype=np.int64), pay


@pytest.fixture(params=COMPILED)
def compiled(request):
    return kernels.select(request.param)


@given(
    keys=st.lists(st.integers(min_value=-6, max_value=6), max_size=64),
    w=widths,
)
@settings(max_examples=100, deadline=None)
def test_sort_records_parity(keys, w):
    ka, pa = _records(keys, w)
    ref_k, ref_p = REF.sort_records(ka.copy(), pa.copy())
    for name in COMPILED:
        got_k, got_p = kernels.select(name).sort_records(ka.copy(), pa.copy())
        assert np.array_equal(ref_k, got_k), name
        assert np.array_equal(ref_p, got_p), name


def test_simd_boundary_tie_storm():
    """Keys-only queues over a 4-key alphabet, compiled against numpy.

    Every node merge is then a tie storm straddling the 8-element lanes
    of the C core's AVX-512 keys-only merge network (where the host has
    AVX-512), which only the fused whole-op kernels reach.  After every
    op the compiled queue must hold the reference queue's rows, stats
    and exact clock.
    """
    ctx = GpuContext.default()
    for name in COMPILED:
        for k in (32, 64):
            rng = np.random.default_rng(7 + k)
            ref = NativeBGPQ(k, ctx=ctx, kernels="numpy")
            pq = NativeBGPQ(k, ctx=ctx, kernels=name)
            assert pq.kernel_provenance()["fused_active"]
            for _ in range(120):
                if rng.random() < 0.55:
                    keys = rng.integers(0, 4, size=int(rng.integers(1, 3 * k)))
                    ref.insert(keys)
                    pq.insert(keys)
                else:
                    count = int(rng.integers(1, k + 1))
                    want, _ = ref.deletemin(count)
                    got, _ = pq.deletemin(count)
                    assert np.array_equal(got, want), (name, k)
                rows, ref_rows = pq.export_rows(), ref.export_rows()
                assert rows.header == ref_rows.header, (name, k)
                for got_col, want_col in zip(rows[1:], ref_rows[1:]):
                    assert np.array_equal(got_col, want_col), (name, k)
                assert pq.stats == ref.stats
                assert pq.sim_ticks == ref.sim_ticks


def _child_pair_orientation(rows: StateRows, count: int):
    """Which child keeps the small part when ``deletemin(count)`` splits
    nodes 2 and 3 at the root, or None when it will not split them.

    The general deletemin moves the last node into the root and folds
    the buffer in; the descent then splits the root's children when the
    root's last key exceeds their smaller head.  The child whose last
    key is not larger keeps the small part (left on a tie).
    """
    hs = rows.header["heap_size"]
    at = np.concatenate([[0], np.cumsum(rows.counts)])
    row = [rows.keys[at[i]:at[i + 1]] for i in range(hs + 1)]
    if hs < 4 or count < len(row[1]) or not (len(row[2]) and len(row[3])):
        return None
    root = np.sort(np.concatenate([row[hs], row[0]]))[: len(row[hs])]
    if not len(root) or root[-1] <= min(row[2][0], row[3][0]):
        return None
    return "right" if row[2][-1] > row[3][-1] else "left"


@pytest.mark.parametrize("w", [1, 2])
def test_payload_tie_storm(w):
    """Payload queues over a 4-key alphabet, compiled against numpy.

    Every payload SORT_SPLIT of the C core merges straight into its
    destination rows, one input through scratch and the other in place;
    with four keys nearly every merge step is a tie, so a wrong tie rule
    or a stale scratch copy moves a row.  Each payload row names its
    insertion index (width 1 is the 8-byte row branch, width 2 the
    general one).  After every op the compiled queue must hold the
    reference queue's rows, stats and exact clock, and the run must split
    the root's children with the small part kept on either side.
    """
    ctx = GpuContext.default()
    for name in COMPILED:
        for k in (8, 32):
            rng = np.random.default_rng(11 + k + w)
            ref = NativeBGPQ(k, ctx=ctx, kernels="numpy", payload_width=w)
            pq = NativeBGPQ(k, ctx=ctx, kernels=name, payload_width=w)
            assert pq.kernel_provenance()["fused_active"]
            seen, made = set(), 0
            for _ in range(150):
                if rng.random() < 0.55:
                    n = int(rng.integers(1, 3 * k))
                    keys = rng.integers(0, 4, size=n)
                    idx = np.arange(made, made + n)
                    pay = np.stack([idx, -idx], axis=1)[:, :w]
                    made += n
                    ref.insert(keys, pay)
                    pq.insert(keys, pay)
                else:
                    count = int(rng.integers(1, k + 1))
                    seen.add(_child_pair_orientation(ref.export_rows(), count))
                    want = ref.deletemin(count)
                    got = pq.deletemin(count)
                    assert np.array_equal(got[0], want[0]), (name, k)
                    assert np.array_equal(got[1], want[1]), (name, k)
                rows, ref_rows = pq.export_rows(), ref.export_rows()
                assert rows.header == ref_rows.header, (name, k)
                for got_col, want_col in zip(rows[1:], ref_rows[1:]):
                    assert np.array_equal(got_col, want_col), (name, k)
                assert pq.stats == ref.stats
                assert pq.sim_ticks == ref.sim_ticks
            assert {"left", "right"} <= seen, (name, k, seen)


def test_noncontiguous_input_falls_back_identically(compiled):
    keys = np.array([5, 1, 5, 3, 1, 2, 5, 0], dtype=np.int64)[::2]
    pay = np.arange(8, dtype=np.int64).reshape(4, 2)[:, ::-1]
    assert not keys.flags.c_contiguous and not pay.flags.c_contiguous
    ref_k, ref_p = REF.sort_records(keys, pay)
    got_k, got_p = compiled.sort_records(keys, pay)
    assert np.array_equal(ref_k, got_k)
    assert np.array_equal(ref_p, got_p)
