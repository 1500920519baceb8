"""``NativeBGPQ.restore_state`` fuzz: a mutated snapshot fails closed.

Each example plays a few ops on a queue, exports its state and mutates
one value somewhere in it (a key, a payload cell, a whole row, a header
field, a stats counter), deletes a dict entry, or adds or drops a list
element.  ``restore_state`` may raise only
:class:`~repro.errors.ConfigurationError`, and then leaves the target
queue untouched; a snapshot it accepts must give a queue that passes
its invariants, exports a state that restores to the same digest, and
keeps serving ops.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.native import NativeBGPQ
from repro.device.kernels import GpuContext
from repro.errors import ConfigurationError
from repro.serve.checkpoint import state_digest

K = 4

#: values no export writes in the place they land (or, by chance, do)
HOSTILE = [
    True, False, None, "3", "x", 1 << 70, -(1 << 70), 2**63, -1, 0, 7,
    2.5, float("nan"), float("inf"), [], [[1]], [1, [1]], {}, {"keys": []},
    [True], ["3"], [1 << 70], [[1, 2]], "1/3", "-4", np.int64(3),
]


def _queue(width: int, ctx) -> NativeBGPQ:
    return NativeBGPQ(node_capacity=K, ctx=ctx, payload_width=width)


def _paths(obj, at=()):
    """Every (container, key) path into a snapshot, outermost first."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        yield at + (key,)
        yield from _paths(value, at + (key,))


def _containers(obj, at=()):
    if isinstance(obj, (dict, list)):
        yield at
        for path in _paths(obj):
            if isinstance(_get(obj, path), (dict, list)):
                yield path


def _get(obj, path):
    for key in path:
        obj = obj[key]
    return obj


@st.composite
def _mutated_snapshot(draw):
    width = draw(st.sampled_from([0, 2]))
    ctx = GpuContext.default() if draw(st.booleans()) else None
    src = _queue(width, ctx)
    for _ in range(draw(st.integers(0, 6))):
        n = draw(st.integers(1, 2 * K))
        keys = np.array(draw(st.lists(st.integers(-50, 50), min_size=n,
                                      max_size=n)), dtype=np.int64)
        src.insert_bulk(keys, np.tile(keys[:, None], width) if width else None)
        if draw(st.booleans()) and len(src):
            src.deletemin(draw(st.integers(1, K)))
    state = src.export_state()
    kind = draw(st.sampled_from(["replace", "delete", "grow", "shrink"]))
    if kind == "replace":
        path = draw(st.sampled_from(list(_paths(state))))
        _get(state, path[:-1])[path[-1]] = copy.deepcopy(
            draw(st.sampled_from(HOSTILE)))
    else:
        holder = _get(state, draw(st.sampled_from(list(_containers(state)))))
        if kind == "delete" and isinstance(holder, dict) and holder:
            del holder[draw(st.sampled_from(sorted(holder)))]
        elif kind == "grow" and isinstance(holder, list):
            holder.append(copy.deepcopy(draw(st.sampled_from(HOSTILE))))
        elif isinstance(holder, list) and holder:
            holder.pop(draw(st.integers(0, len(holder) - 1)))
    return width, ctx, state


@settings(max_examples=150, deadline=None)
@given(case=_mutated_snapshot())
def test_mutated_snapshot_fails_closed_or_restores_a_sound_queue(case):
    width, ctx, state = case
    dst = _queue(width, ctx)
    dst.insert_bulk(np.array([9, 5], dtype=np.int64),
                    np.ones((2, width), np.int64) if width else None)
    before = state_digest(dst.export_state())
    try:
        dst.restore_state(state)
    except ConfigurationError:
        assert state_digest(dst.export_state()) == before
        return
    assert dst.check_invariants() == []
    again = _queue(width, ctx)
    again.restore_state(dst.export_state())
    assert state_digest(again.export_state()) == state_digest(dst.export_state())
    dst.insert_bulk(np.array([1, 2, 3], dtype=np.int64),
                    np.zeros((3, width), np.int64) if width else None)
    dst.deletemin(K)
    assert dst.check_invariants() == []


@pytest.mark.parametrize("bad", [1 << 70, True, "3", [[1]], np.True_, 1.5,
                                 2**63, None])
@pytest.mark.parametrize("where", ["key", "keys", "pay-cell"])
def test_restore_rejects_keys_an_export_cannot_write(bad, where):
    """Each of these was cast (or raised OverflowError) before: a key of
    ``1 << 70``, a bool, a numeric string, a nested list, whether as one
    element, as a row's whole ``keys`` or as a payload cell."""
    src = _queue(1, None)
    src.insert_bulk(np.arange(10, dtype=np.int64), np.arange(10)[:, None])
    state = src.export_state()
    row = state["nodes"][0]
    if where == "key":
        row["keys"][1] = bad
    elif where == "keys":
        row["keys"] = bad
    else:
        row["pay"][1] = [bad]
    dst = _queue(1, None)
    with pytest.raises(ConfigurationError, match="snapshot"):
        dst.restore_state(state)
    assert len(dst) == 0


@pytest.mark.parametrize("stats", [
    {"ops": 3}, {"insert_heapify": 0, "deletemin_heapify": 0, "ops": "3"},
    {"insert_heapify": 0, "deletemin_heapify": 0, "ops": -1},
    {"insert_heapify": True, "deletemin_heapify": 0, "ops": 0},
    {"insert_heapify": 0, "deletemin_heapify": 0, "ops": 0, "extra": 1},
])
def test_restore_rejects_stats_an_export_cannot_write(stats):
    """Stats that are not the queue's counters would break its next op."""
    src = _queue(0, None)
    src.insert_bulk(np.arange(6, dtype=np.int64))
    state = src.export_state()
    state["stats"] = stats
    with pytest.raises(ConfigurationError, match="snapshot stats"):
        _queue(0, None).restore_state(state)
