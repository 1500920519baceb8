"""Differential suite for the C core's run-adaptive record merges.

The compiled payload merge gallops: once both inputs hold 8 or more
records, a side whose next 8 records all precede the other side's head
is moved as one block up to the end of its run, and the natural-run
presort merges maximal non-descending runs of its input.  Both must
still be bit-identical to the NumPy reference, ties included.  The
inputs here are built from clustered blocks up to 300 records long,
with block lengths at the gallop thresholds (7, 8, 9, 15, 16, 17) and
equal keys across block boundaries, so every gallop start, stop and
tie-break is reached; payload rows carry their origin, so a tie sent
to the wrong side shows.  Width 1 is the one-column (8-byte row) path,
width 3 the general one.  Both suites go through ``sort_records``; the
fused heap kernels run the same merge for every node SORT_SPLIT.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.primitives import kernels

COMPILED = [n for n in kernels.available_backends() if n != "numpy"]
REF = kernels.select("numpy")

pytestmark = pytest.mark.skipif(
    not COMPILED, reason="no compiled kernel backend on this host"
)

lengths = st.one_of(
    st.sampled_from([0, 1, 7, 8, 9, 15, 16, 17]),
    st.integers(min_value=0, max_value=300),
)
# (side, length, keys per distinct value, gap to the next block's first
# key; gap 0 repeats the boundary key in the next block)
blocks = st.lists(
    st.tuples(
        st.booleans(),
        lengths,
        st.sampled_from([1, 2, 5]),
        st.sampled_from([0, 0, 1, 3]),
    ),
    max_size=8,
)
widths = st.sampled_from([1, 3])


def _rows(ids, w):
    """Payload rows that name their record: (id, 7 * id, -id)[:w]."""
    ids = np.asarray(ids, dtype=np.int64)
    return np.stack([ids, 7 * ids, -ids], axis=1)[:, :w].copy()


def _runs(spec):
    """Two sorted runs whose merge interleaves the clustered blocks."""
    runs = {True: [], False: []}
    cur = 0
    for side, n, dup, gap in spec:
        keys = cur + np.arange(n, dtype=np.int64) // dup
        runs[side].append(keys)
        if n:
            cur = int(keys[-1]) + gap
    return tuple(
        np.concatenate(runs[s]) if runs[s] else np.zeros(0, dtype=np.int64)
        for s in (True, False)
    )


@given(spec=blocks, w=widths)
@settings(max_examples=80, deadline=None)
def test_sort_records_gallops_like_reference(spec, w):
    """Two sorted runs back to back: the presort's one merge of them
    gallops through the clustered blocks."""
    a, b = _runs(spec)
    keys = np.concatenate([a, b])
    pay = np.concatenate(
        [_rows(np.arange(len(a)), w), _rows(np.arange(len(b)) + 100_000, w)]
    )
    ref_k, ref_p = REF.sort_records(keys.copy(), pay.copy())
    for name in COMPILED:
        got_k, got_p = kernels.select(name).sort_records(keys.copy(), pay.copy())
        assert np.array_equal(ref_k, got_k), name
        assert np.array_equal(ref_p, got_p), name


def _run(kind, n, base):
    if kind == "ascending":
        return base + np.arange(n, dtype=np.int64) // 3
    if kind == "equal":
        return np.full(n, base, dtype=np.int64)
    return base - np.arange(n, dtype=np.int64)  # strictly descending


@given(
    parts=st.lists(
        st.tuples(
            st.sampled_from(["ascending", "equal", "descending"]),
            st.one_of(st.sampled_from([0, 1, 2]), lengths),
            st.integers(min_value=-20, max_value=20),
        ),
        max_size=8,
    ),
    w=widths,
)
@settings(max_examples=80, deadline=None)
def test_sort_records_natural_runs_like_reference(parts, w):
    keys = np.concatenate(
        [np.zeros(0, dtype=np.int64)]
        + [_run(kind, n, base) for kind, n, base in parts]
    )
    pay = _rows(np.arange(len(keys)), w)
    ref_k, ref_p = REF.sort_records(keys.copy(), pay.copy())
    for name in COMPILED:
        got_k, got_p = kernels.select(name).sort_records(keys.copy(), pay.copy())
        assert np.array_equal(ref_k, got_k), name
        assert np.array_equal(ref_p, got_p), name
