"""Fused in-place SORT_SPLIT — the NumPy reference against a stable-sort oracle.

The oracle is a stable ``np.argsort`` of ``a‖b``: ties keep ``a``'s keys
first and payload rows follow their keys, which is the tie rule the
queues and the compiled kernels depend on.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.primitives import ScratchLedger, merge_into, sort_split_into

sorted_ints = st.lists(
    st.integers(min_value=-(2**30), max_value=2**30), max_size=100
).map(sorted)


def _arr(xs):
    return np.array(xs, dtype=np.int64)


def _stable_merge(a, b, pa=None, pb=None):
    """Oracle: stable argsort of ``a‖b`` (ties keep ``a`` first); with
    payload, returns ``(keys, payload)`` with rows following their keys."""
    keys = np.concatenate([a, b])
    order = np.argsort(keys, kind="stable")
    if pa is None:
        return keys[order]
    return keys[order], np.concatenate([pa, pb])[order]


# ---------------------------------------------------------------------------
# merge_into
# ---------------------------------------------------------------------------
def test_merge_into_matches_merge():
    a, b = _arr([1, 5, 9]), _arr([2, 4, 6, 10])
    out = np.empty(7, dtype=np.int64)
    n = merge_into(a, b, out)
    assert n == 7
    np.testing.assert_array_equal(out, _stable_merge(a, b))


def test_merge_into_empty_sides():
    out = np.empty(3, dtype=np.int64)
    assert merge_into(_arr([]), _arr([1, 2, 3]), out) == 3
    np.testing.assert_array_equal(out, [1, 2, 3])
    assert merge_into(_arr([7]), _arr([]), out) == 1
    assert out[0] == 7


def test_merge_into_stability_ties_favor_a():
    """On equal keys the payload rows from ``a`` must come first."""
    a, pa = _arr([3, 3]), np.array([[10], [11]], dtype=np.int64)
    b, pb = _arr([3]), np.array([[20]], dtype=np.int64)
    out_k = np.empty(3, dtype=np.int64)
    out_p = np.empty((3, 1), dtype=np.int64)
    iota = np.arange(3, dtype=np.intp)
    merge_into(a, b, out_k, pa=pa, pb=pb, out_p=out_p, iota=iota)
    assert out_p[:, 0].tolist() == [10, 11, 20]


@given(sorted_ints, sorted_ints)
@settings(max_examples=60, deadline=None)
def test_merge_into_property(xs, ys):
    a, b = _arr(xs), _arr(ys)
    out = np.empty(a.size + b.size, dtype=np.int64)
    n = merge_into(a, b, out)
    assert n == a.size + b.size
    np.testing.assert_array_equal(out[:n], _stable_merge(a, b))


@given(sorted_ints, sorted_ints)
@settings(max_examples=60, deadline=None)
def test_merge_into_payload_property(xs, ys):
    a, b = _arr(xs), _arr(ys)
    pa = np.arange(a.size, dtype=np.int64).reshape(-1, 1)
    pb = (1000 + np.arange(b.size, dtype=np.int64)).reshape(-1, 1)
    total = a.size + b.size
    out_k = np.empty(total, dtype=np.int64)
    out_p = np.empty((total, 1), dtype=np.int64)
    iota = np.arange(total, dtype=np.intp)
    merge_into(a, b, out_k, pa=pa, pb=pb, out_p=out_p, iota=iota)
    rk, rp = _stable_merge(a, b, pa, pb)
    np.testing.assert_array_equal(out_k, rk)
    np.testing.assert_array_equal(out_p, rp)


# ---------------------------------------------------------------------------
# sort_split_into
# ---------------------------------------------------------------------------
def _scratch(k, width=0):
    return ScratchLedger(k, dtype=np.int64, payload_width=width, payload_dtype=np.int64)


def test_sort_split_into_matches_sort_split():
    a, b = _arr([1, 5, 9]), _arr([2, 4, 6])
    s = _scratch(3)
    x = np.empty(3, dtype=np.int64)
    y = np.empty(3, dtype=np.int64)
    ma, mb = sort_split_into(a, b, 3, x, y, s)
    merged = _stable_merge(a, b)
    assert (ma, mb) == (3, 3)
    np.testing.assert_array_equal(x[:ma], merged[:3])
    np.testing.assert_array_equal(y[:mb], merged[3:])


def test_sort_split_into_aliasing_destinations():
    """Destinations may alias the inputs — the heapify in-place rewrite."""
    a, b = _arr([1, 5, 9]), _arr([2, 4, 6])
    s = _scratch(3)
    ma, mb = sort_split_into(a, b, 3, a, b, s)
    np.testing.assert_array_equal(a, [1, 2, 4])
    np.testing.assert_array_equal(b, [5, 6, 9])


def test_sort_split_into_invalid_ma():
    s = _scratch(2)
    out = np.empty(2, dtype=np.int64)
    with pytest.raises(ValueError):
        sort_split_into(_arr([1]), _arr([2]), 5, out, out, s)
    with pytest.raises(ValueError):
        sort_split_into(_arr([1]), _arr([2]), -1, out, out, s)


def test_sort_split_into_scratch_too_small():
    s = _scratch(1)
    out = np.empty(4, dtype=np.int64)
    with pytest.raises(ValueError):
        sort_split_into(_arr([1, 2]), _arr([3, 4]), 2, out, out, s)


@given(sorted_ints, sorted_ints, st.data())
@settings(max_examples=60, deadline=None)
def test_sort_split_into_payload_property(xs, ys, data):
    a, b = _arr(xs), _arr(ys)
    total = a.size + b.size
    ma = data.draw(st.integers(min_value=0, max_value=total))
    pa = np.arange(a.size, dtype=np.int64).reshape(-1, 1)
    pb = (1000 + np.arange(b.size, dtype=np.int64)).reshape(-1, 1)
    k = max(total, 1)
    s = _scratch(k, width=1)
    x_k = np.empty(k, dtype=np.int64)
    y_k = np.empty(k, dtype=np.int64)
    x_p = np.empty((k, 1), dtype=np.int64)
    y_p = np.empty((k, 1), dtype=np.int64)
    got_ma, got_mb = sort_split_into(
        a, b, ma, x_k, y_k, s, pa=pa, pb=pb, x_p=x_p, y_p=y_p
    )
    rk, rp = _stable_merge(a, b, pa, pb)
    assert (got_ma, got_mb) == (ma, total - ma)
    np.testing.assert_array_equal(x_k[:ma], rk[:ma])
    np.testing.assert_array_equal(y_k[:total - ma], rk[ma:])
    np.testing.assert_array_equal(x_p[:ma], rp[:ma])
    np.testing.assert_array_equal(y_p[:total - ma], rp[ma:])
