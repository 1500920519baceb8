"""HeapStorage / index arithmetic tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as strat

from repro.core import HeapStorage, left, level, parent, path_next, right
from repro.core.arena import layout_problems
from repro.core.node import AVAIL
from repro.errors import CapacityError


def test_index_arithmetic():
    assert parent(2) == 1 and parent(3) == 1
    assert left(1) == 2 and right(1) == 3
    assert left(5) == 10 and right(5) == 11
    assert level(1) == 0 and level(2) == 1 and level(7) == 2 and level(8) == 3


def test_path_next_walks_root_to_target():
    # path to 11 (1011b) is 1 -> 2 -> 5 -> 11
    assert path_next(1, 11) == 2
    assert path_next(2, 11) == 5
    assert path_next(5, 11) == 11


def test_path_next_rejects_non_descendants():
    with pytest.raises(ValueError):
        path_next(3, 11)  # 11 is in 2's subtree
    with pytest.raises(ValueError):
        path_next(11, 5)  # target above cur


def test_grow_and_capacity():
    st = HeapStorage(max_nodes=3, node_capacity=4)
    st.heap_size = 1
    assert st.grow() == 2
    assert st.grow() == 3
    with pytest.raises(CapacityError):
        st.grow()


def test_root_and_lock_sharing():
    st = HeapStorage(max_nodes=4, node_capacity=4)
    assert st.root is st.node(1)
    assert st.root_lock is st.lock(1)
    assert st.lock(2) is not st.lock(3)


def test_in_bounds():
    st = HeapStorage(max_nodes=4, node_capacity=4)
    assert st.in_bounds(1) and st.in_bounds(4)
    assert not st.in_bounds(0) and not st.in_bounds(5)


def test_requires_root():
    with pytest.raises(CapacityError):
        HeapStorage(max_nodes=0, node_capacity=4)


def test_check_heap_property_detects_violation():
    st = HeapStorage(max_nodes=3, node_capacity=2)
    st.heap_size = 2
    st.node(1).set_keys(np.array([10, 20]))
    st.node(1).state = AVAIL
    st.node(2).set_keys(np.array([5, 30]))  # min 5 < parent max 20
    st.node(2).state = AVAIL
    counts, keys, _ = st.arena.live_rows(st.heap_size)
    problems = layout_problems(counts, keys, st.node_capacity)
    assert any("node 2" in p for p in problems)


def test_check_heap_property_ok():
    st = HeapStorage(max_nodes=3, node_capacity=2)
    st.heap_size = 3
    st.node(1).set_keys(np.array([1, 2]))
    st.node(2).set_keys(np.array([2, 9]))
    st.node(3).set_keys(np.array([3, 4]))
    for i in (1, 2, 3):
        st.node(i).state = AVAIL
    counts, keys, _ = st.arena.live_rows(st.heap_size)
    assert layout_problems(counts, keys, st.node_capacity) == []


def _layout_reference(counts, keys, k):
    """The layout rules as a loop over rows: the reference the
    vectorised :func:`layout_problems` must agree with."""
    rows = np.split(keys, np.cumsum(counts)[:-1])
    buf, heap_size = rows[0], len(rows) - 1
    found = set()
    if buf.size >= k:
        found.add(f"pBuffer holds {buf.size} >= k={k} keys")
    if heap_size == 0 and buf.size:
        found.add(f"pBuffer holds {buf.size} keys in an empty heap")
    if heap_size and not rows[1].size:
        found.add(f"root empty at heap_size={heap_size}")
    if heap_size and buf.size and rows[1].size and buf[0] < rows[1][-1]:
        found.add("pBuffer min < root max")
    for i, row in enumerate(rows):
        if row.tolist() != sorted(row.tolist()):
            found.add(f"node {i} unsorted" if i else "pBuffer unsorted")
        if i > 1 and row.size != k:
            found.add(f"interior node {i} not full ({row.size}/{k})")
        up = rows[i // 2]
        if i > 1 and row.size and up.size and row[0] < up[-1]:
            found.add(f"node {i} min < parent {i // 2} max")
    return found


@settings(max_examples=150, deadline=None)
@given(data=strat.data())
def test_layout_rules_match_a_row_loop(data):
    k = data.draw(strat.integers(1, 4))
    counts = data.draw(strat.lists(
        strat.one_of(strat.just(k), strat.integers(0, k)), min_size=1, max_size=8))
    n = sum(counts)
    keys = np.array(data.draw(strat.lists(strat.integers(0, 9), min_size=n,
                                          max_size=n)), dtype=np.int64)
    if data.draw(strat.booleans()):  # heap order: nodes in row order, buffer last
        keys = np.roll(np.sort(keys), counts[0])
    got = layout_problems(np.array(counts), keys, k)
    assert len(got) == len(set(got))
    assert set(got) == _layout_reference(np.array(counts), keys, k)


def test_all_keys_collects_avail_nodes_only():
    st = HeapStorage(max_nodes=3, node_capacity=2)
    st.heap_size = 2
    st.node(1).set_keys(np.array([1, 2]))
    st.node(1).state = AVAIL
    st.node(2).set_keys(np.array([3, 4]))  # left EMPTY -> excluded
    assert sorted(st.all_keys().tolist()) == [1, 2]
