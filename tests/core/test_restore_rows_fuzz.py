"""``NativeBGPQ.restore_rows`` fuzz: a mutated ``StateRows`` fails closed
or restores a queue that behaves.

Each example plays a random op script on a queue and exports its rows,
so the seeds sit on the edges of the reachable set: empty heaps, a lone
root, a full buffer, deep heaps.  One mutation then lands somewhere in
the arrays or the header: a key changed or two keys swapped, a row
boundary moved, a row count rewritten (keys resized to match), a row
dropped or added, a header field rewritten or deleted, an array retyped
or reshaped.  ``restore_rows`` may raise only
:class:`~repro.errors.ConfigurationError`, and then leaves the target
untouched.  A state it accepts must then match
:class:`~repro.core.sequential.SequentialPQ`, loaded with the restored
keys, over a random op script and a final drain, with
``check_invariants()`` clean after every op.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.native import NativeBGPQ, StateRows
from repro.core.sequential import SequentialPQ
from repro.device.kernels import GpuContext
from repro.errors import ConfigurationError

K = 4
_KEYS = st.integers(-30, 30)
_SEEDS = st.integers(0, 2**32 - 1)

#: mutations that keep the arrays consistent with each other, so that
#: only the layout rules stand between them and the arena ("count",
#: which reaches the buffer, root and node limits, twice as often)
_LAYOUT = ["key", "swap", "boundary", "count", "count", "drop-row", "add-row"]

#: header values no export writes (or, by chance, does)
_HOSTILE = [None, -1, 0, 1, 3, K, K + 1, True, "x", "1/3", "int32", {}, [],
            1 << 70, 2.5]


def _queue(width: int) -> NativeBGPQ:
    return NativeBGPQ(node_capacity=K, ctx=GpuContext.default(),
                      payload_width=width)


def _insert(pq: NativeBGPQ, keys) -> None:
    keys = np.asarray(keys, dtype=np.int64)
    pq.insert_bulk(keys, keys[:, None] if pq.payload_width else None)


def _play(pq: NativeBGPQ, oracle, rng, ops: int) -> None:
    """``ops`` random inserts (1 to 3k keys) and deletemins on ``pq``;
    with an ``oracle``, each deletemin batch and the state after every
    op must agree with it.  A numpy generator seeded by hypothesis
    draws the script: per-key hypothesis draws took most of the time."""
    for _ in range(ops):
        if len(pq) and rng.random() < 0.5:
            count = int(rng.integers(1, K + 1))
            got = pq.deletemin(count)[0]
            if oracle is not None:
                assert np.array_equal(got, oracle.deletemin(count))
        else:
            keys = rng.integers(-30, 31, size=int(rng.integers(1, 3 * K + 1)))
            _insert(pq, keys)
            if oracle is not None:
                oracle.insert(keys)
        if oracle is not None:
            _agree(pq, oracle)


@st.composite
def _seed_rows(draw) -> StateRows:
    """The rows of a queue that played a random op script."""
    pq = _queue(draw(st.sampled_from([0, 1])))
    _play(pq, None, np.random.default_rng(draw(_SEEDS)), draw(st.integers(0, 10)))
    return pq.export_rows()


def _resized(keys, pay, at: int, delta: int, fill: int):
    """``keys``/``pay`` with ``delta`` records added (``fill``) or removed
    at flat index ``at``."""
    if delta >= 0:
        add = np.full(delta, fill, dtype=np.int64)
        return (np.insert(keys, at, add),
                np.insert(pay, at, np.full((delta, pay.shape[1]), fill), axis=0))
    cut = np.arange(at, at - delta)
    return np.delete(keys, cut), np.delete(pay, cut, axis=0)


@st.composite
def _mutated(draw):
    header, counts, keys, pay = draw(_seed_rows())
    header = dict(header)
    counts, keys, pay = counts.copy(), keys.copy(), pay.copy()
    rows = counts.size
    ends = np.cumsum(counts)
    kind = draw(st.sampled_from(_LAYOUT * 3 + ["header", "array"]))
    if kind in ("key", "swap") and keys.size:
        i = draw(st.integers(0, keys.size - 1))
        if kind == "key":
            keys[i] = draw(_KEYS)
        else:
            j = draw(st.integers(0, keys.size - 1))
            keys[i], keys[j] = keys[j], keys[i]
    elif kind == "boundary" and rows > 1:
        # one record changes rows; the flat keys stay as they are
        i = draw(st.integers(0, rows - 2))
        step = draw(st.sampled_from([(1, -1), (-1, 1)]))
        counts[i] += step[0]
        counts[i + 1] += step[1]
    elif kind == "count":
        # the buffer and the root most often: their limits differ
        i = min(draw(st.sampled_from([0, 1]) | st.integers(0, rows - 1)), rows - 1)
        new = draw(st.sampled_from([0, 1, K - 1, K, K + 1]))
        keys, pay = _resized(keys, pay, int(ends[i] - counts[i]),
                             new - int(counts[i]), draw(_KEYS))
        counts[i] = new
    elif kind == "drop-row" and rows > 1:
        i = draw(st.integers(0, rows - 1))
        keys, pay = _resized(keys, pay, int(ends[i] - counts[i]),
                             -int(counts[i]), 0)
        counts = np.delete(counts, i)
        header["heap_size"] -= 1
    elif kind == "add-row":
        new = draw(st.lists(_KEYS, max_size=K + 1))
        counts = np.append(counts, len(new))
        keys = np.append(keys, np.array(new, dtype=np.int64))
        pay = np.concatenate([pay, np.array(new, np.int64).reshape(-1, 1)
                              * np.ones((1, pay.shape[1]), np.int64)])
        header["heap_size"] += 1
    elif kind == "header":
        field = draw(st.sampled_from(sorted(header)))
        if draw(st.booleans()):
            del header[field]
        else:
            header[field] = draw(st.sampled_from(_HOSTILE))
    elif kind == "array":
        which = draw(st.sampled_from(["counts", "keys", "pay"]))
        form = draw(st.sampled_from(["int32", "float64", "2-D", "list"]))
        arr = {"counts": counts, "keys": keys, "pay": pay}[which]
        arr = {"int32": lambda a: a.astype(np.int32),
               "float64": lambda a: a.astype(np.float64),
               "2-D": lambda a: a.reshape(1, *a.shape),
               "list": lambda a: a.tolist()}[form](arr)
        counts, keys, pay = {"counts": (arr, keys, pay),
                             "keys": (counts, arr, pay),
                             "pay": (counts, keys, arr)}[which]
    return StateRows(header, counts, keys, pay)


def _agree(pq: NativeBGPQ, oracle: SequentialPQ) -> None:
    assert pq.check_invariants() == []
    assert len(pq) == len(oracle)
    want = oracle.snapshot_keys()
    assert pq.peek() == (want[0] if want.size else None)


@settings(max_examples=700, deadline=None)
@given(rows=_mutated(), script=_SEEDS)
def test_mutated_rows_fail_closed_or_match_the_oracle(rows, script):
    width = rows.header.get("payload_width")
    pq = _queue(width if width in (0, 1) else 0)
    _insert(pq, [9, 5])
    before = pq.export_rows()
    try:
        pq.restore_rows(rows)
    except ConfigurationError:
        after = pq.export_rows()
        assert after.header == before.header
        for got, want in zip(after[1:], before[1:]):
            assert np.array_equal(got, want)
        return
    oracle = SequentialPQ()
    oracle.insert(np.asarray(rows.keys))
    _agree(pq, oracle)
    _play(pq, oracle, np.random.default_rng(script), 12)
    while len(oracle):
        assert np.array_equal(pq.deletemin(K)[0], oracle.deletemin(K))
        _agree(pq, oracle)
    assert pq.deletemin(K)[0].size == 0
