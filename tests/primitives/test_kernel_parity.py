"""Differential suite: compiled kernels are bit-identical to the reference.

The dispatch contract (`repro.primitives.kernels`) is that switching
backend can never change a result — same key values, same tie
resolution, same payload permutation, byte for byte.  These tests pin
that contract with hypothesis against every compiled backend the host
can build; on a host with none, they reduce to reference-vs-reference
and pass trivially.

Shapes deliberately cover the compiled paths' edges: empty runs,
single elements, heavy ties (including ties straddling the C core's
8-wide SIMD merge boundary), payload widths 0..3, and split points at
0 and at the full length.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.primitives import kernels
from repro.primitives.inplace import ScratchLedger

COMPILED = [n for n in kernels.available_backends() if n != "numpy"]
REF = kernels.select("numpy")

pytestmark = pytest.mark.skipif(
    not COMPILED, reason="no compiled kernel backend on this host"
)

# small alphabet forces ties; widths to and past the 8-element SIMD lane
sorted_runs = st.lists(
    st.integers(min_value=-4, max_value=4), min_size=0, max_size=40
).map(sorted)
widths = st.sampled_from([0, 1, 3])


def _records(rng_draw, keys, w):
    pay = np.arange(len(keys) * max(w, 1), dtype=np.int64)
    pay = pay.reshape(len(keys), max(w, 1))[:, :w].copy()
    return np.array(keys, dtype=np.int64), pay


@pytest.fixture(params=COMPILED)
def compiled(request):
    return kernels.select(request.param)


@given(
    a=sorted_runs,
    b=sorted_runs,
    w=widths,
    cut=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=120, deadline=None)
def test_sort_split_into_parity(a, b, w, cut):
    total = len(a) + len(b)
    ma = round(cut * total)
    ka, pa = _records(None, a, w)
    kb, pb = _records(None, b, w)
    pb = pb + 1000
    k = max(total, 1)
    for name in COMPILED:
        kern = kernels.select(name)
        outs = {}
        for tag, impl in (("ref", REF), ("got", kern)):
            scratch = ScratchLedger(k, payload_width=w)
            x_k = np.empty(ma, dtype=np.int64)
            y_k = np.empty(total - ma, dtype=np.int64)
            if w:
                x_p = np.empty((ma, w), dtype=np.int64)
                y_p = np.empty((total - ma, w), dtype=np.int64)
                impl.sort_split_into(
                    ka, kb, ma, x_k, y_k, scratch, pa, pb, x_p, y_p
                )
                outs[tag] = (x_k.copy(), y_k.copy(), x_p.copy(), y_p.copy())
            else:
                impl.sort_split_into(ka, kb, ma, x_k, y_k, scratch)
                outs[tag] = (x_k.copy(), y_k.copy())
        for r, g in zip(outs["ref"], outs["got"]):
            assert np.array_equal(r, g), name


@given(
    keys=st.lists(st.integers(min_value=-6, max_value=6), max_size=64),
    w=widths,
)
@settings(max_examples=100, deadline=None)
def test_sort_records_parity(keys, w):
    ka, pa = _records(None, keys, w)
    ref_k, ref_p = REF.sort_records(ka.copy(), pa.copy())
    for name in COMPILED:
        got_k, got_p = kernels.select(name).sort_records(ka.copy(), pa.copy())
        assert np.array_equal(ref_k, got_k), name
        assert np.array_equal(ref_p, got_p), name


def test_simd_boundary_tie_storm():
    """Ties straddling every 8-element lane boundary of the AVX merge.

    Keys-only SORT_SPLIT is the path that reaches the SIMD merge network
    (``merge_core`` via ``sort_split_core``); split points sweep the
    whole range so lane boundaries land on both sides of the cut.
    """
    rng = np.random.default_rng(7)
    for trial in range(50):
        na, nb = (int(n) for n in rng.integers(8, 64, size=2))
        a = np.sort(rng.integers(0, 4, size=na).astype(np.int64))
        b = np.sort(rng.integers(0, 4, size=nb).astype(np.int64))
        ma = int(rng.integers(0, na + nb + 1))
        outs = {}
        for name in ["numpy", *COMPILED]:
            x_k = np.empty(ma, dtype=np.int64)
            y_k = np.empty(na + nb - ma, dtype=np.int64)
            kernels.select(name).sort_split_into(
                a, b, ma, x_k, y_k, ScratchLedger(na + nb)
            )
            outs[name] = np.concatenate([x_k, y_k])
        assert np.array_equal(outs["numpy"], np.sort(np.concatenate([a, b])))
        for name in COMPILED:
            assert np.array_equal(outs["numpy"], outs[name]), name


def test_noncontiguous_input_falls_back_identically(compiled):
    a = np.arange(0, 20, 2, dtype=np.int64)[::2]  # non-contiguous view
    b = np.arange(1, 11, 2, dtype=np.int64)
    assert not a.flags.c_contiguous
    total = len(a) + len(b)
    splits = {}
    for tag, impl in (("ref", REF), ("got", compiled)):
        x_k = np.empty(4, dtype=np.int64)
        y_k = np.empty(total - 4, dtype=np.int64)
        impl.sort_split_into(a, b, 4, x_k, y_k, ScratchLedger(total))
        splits[tag] = np.concatenate([x_k, y_k])
    assert np.array_equal(splits["ref"], splits["got"])

    keys = np.array([5, 1, 5, 3, 1, 2, 5, 0], dtype=np.int64)[::2]
    pay = np.arange(8, dtype=np.int64).reshape(4, 2)[:, ::-1]
    assert not keys.flags.c_contiguous and not pay.flags.c_contiguous
    ref_k, ref_p = REF.sort_records(keys, pay)
    got_k, got_p = compiled.sort_records(keys, pay)
    assert np.array_equal(ref_k, got_k)
    assert np.array_equal(ref_p, got_p)
