"""Differential suite: the compiled knapsack expansion matches NumPy.

``_Expansion`` runs the C core's ``expand`` on the compiled backend and
its NumPy body (``_Expansion.reference``) otherwise.  The contract is
that the backend never changes a result: the same keys, the same
child nodes in the same order (take-children first, then
skip-children, each in batch order), the same new incumbent and the
same prune count.  Cases are drawn over all four generator families;
node batches hold leaf-level nodes, take-infeasible nodes, nodes at
``weight == capacity`` and the empty batch, and incumbents are drawn
below, equal to and above the children's bounds.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.knapsack import FAMILIES, branch_bound, generate, solve_batched
from repro.apps.knapsack.branch_bound import _Expansion, node_widths, pack_nodes
from repro.primitives import kernels

COMPILED = "cext" in kernels.available_backends()

pytestmark = pytest.mark.skipif(
    not COMPILED, reason="no compiled kernel backend on this host"
)

BATCH = 24


def _expansions(inst):
    lb, wb = node_widths(inst)
    with kernels.use("numpy"):
        ref = _Expansion(inst, lb, wb, BATCH)
    with kernels.use("cext"):
        fast = _Expansion(inst, lb, wb, BATCH)
    assert ref._mod is None and fast._mod is not None
    return ref, fast, lb, wb


@st.composite
def node(draw, inst):
    n, cap = inst.n_items, inst.capacity
    # near the leaves every remaining item may fit: the search's top end
    level = draw(st.integers(0, n) | st.integers(max(0, n - 3), n))
    # the room left is the weight of items [level, k), or one off it
    edge = st.tuples(st.integers(level, n), st.integers(-1, 1)).map(
        lambda kd: cap - int(inst.wsum[kd[0]] - inst.wsum[level]) + kd[1])
    weights = [st.just(cap), st.integers(0, cap),
               edge.filter(lambda w: 0 <= w <= cap)]
    if level < n:
        # too heavy to take the item at this level: no take-child
        weights.append(st.integers(max(0, cap - int(inst.weights[level]) + 1), cap))
    weight = draw(st.one_of(*weights))
    profit = draw(st.integers(0, int(inst.psum[level])))
    return level, profit, weight


@st.composite
def cases(draw):
    family = draw(st.sampled_from(FAMILIES))
    R = draw(st.sampled_from([5, 50, 1000]))
    inst = generate(draw(st.integers(1, 40)), family, R=R,
                    seed=draw(st.integers(0, 2**16)))
    return inst, draw(st.lists(node(inst), max_size=BATCH))


def _incumbents(ref, nodes, inst):
    """Incumbents around every child bound, plus both extremes."""
    keys = ref.reference(nodes, -1)[0]
    near = {int(np.floor(-k / 64)) + d for k in keys.tolist() for d in (-1, 0, 1)}
    return sorted(near | {-1, 0, int(inst.psum[-1]) + 1})


def _assert_same(ref, fast, nodes, incumbent):
    want = ref(nodes.copy(), incumbent)
    got = fast(nodes.copy(), incumbent)
    assert got[0].dtype == want[0].dtype == np.int64
    assert got[1].dtype == want[1].dtype == np.int64
    assert got[0].tolist() == want[0].tolist()
    assert got[1].tolist() == want[1].tolist()
    assert (got[2], got[3]) == (want[2], want[3])
    assert type(got[2]) is int


@given(case=cases(), data=st.data())
@settings(max_examples=120, deadline=None)
def test_expand_matches_reference(case, data):
    inst, fields = case
    ref, fast, lb, wb = _expansions(inst)
    columns = (np.array([f[i] for f in fields], np.int64) for i in range(3))
    nodes = pack_nodes(*columns, lb, wb)
    incumbent = data.draw(st.sampled_from(_incumbents(ref, nodes, inst)))
    _assert_same(ref, fast, nodes, incumbent)


@pytest.mark.parametrize("family", FAMILIES)
def test_room_at_every_prefix_edge(family):
    """Every level, with the take- or skip-child's room ending at, or one
    either side of, the weight of each run of the remaining items."""
    inst = generate(10, family, R=50, seed=1)
    n, cap, wsum = inst.n_items, inst.capacity, inst.wsum.tolist()
    fields = {
        (level, cap - (wsum[k] - wsum[start]) + d)
        for level in range(n)
        for start in (level, level + 1)
        for k in range(start, n + 1)
        for d in (-1, 0, 1)
    }
    levels, weights = np.array(sorted(w for w in fields if 0 <= w[1] <= cap)).T
    lb, wb = node_widths(inst)
    nodes = pack_nodes(levels, np.zeros_like(levels), weights, lb, wb)
    with kernels.use("numpy"):
        ref = _Expansion(inst, lb, wb, nodes.size)
    with kernels.use("cext"):
        fast = _Expansion(inst, lb, wb, nodes.size)
    _assert_same(ref, fast, nodes, int(inst.psum[n]) // 2)
    # one node a call: only its own take-child raises the incumbent, so
    # most children survive and show their bound in the key
    for i in range(nodes.size):
        _assert_same(ref, fast, nodes[i:i + 1], -1)


@pytest.mark.parametrize("family", FAMILIES)
def test_empty_and_all_leaf_batches(family):
    inst = generate(12, family, R=50, seed=3)
    ref, fast, lb, wb = _expansions(inst)
    leaves = pack_nodes(np.full(5, inst.n_items), np.arange(5),
                        np.arange(5), lb, wb)
    for nodes in (np.empty(0, np.int64), leaves):
        for incumbent in (-1, 0, 7):
            _assert_same(ref, fast, nodes, incumbent)
            got = fast(nodes, incumbent)
            assert (got[0].size, got[2], got[3]) == (0, incumbent, 0)


@pytest.mark.parametrize("family", FAMILIES)
def test_lane_tails(family):
    """Batches of every size 0..17 (two lanes of eight and a tail), with
    a leaf, a take-infeasible node and a node at ``weight == capacity``
    put at each position in turn, so every lane slot, full lane and
    partial last lane of the compiled lockstep search meets each."""
    inst = generate(30, family, R=50, seed=7)
    ref, fast, lb, wb = _expansions(inst)
    n, cap = inst.n_items, inst.capacity
    rng = np.random.default_rng(5)
    levels = rng.integers(0, n, size=17)
    weights = rng.integers(0, cap // 2, size=17)
    # profit 0 leaves the incumbent low, so most children survive and
    # show their bound in the key; a special node's large profit keeps
    # its one child, the skip-child, above the incumbent
    profits = np.zeros(17, np.int64)
    top = int(inst.psum[n])
    level = int(rng.integers(0, n))
    special = [(n, 0), (level, cap - int(inst.weights[level]) + 1),
               (level, cap)]
    batches = [np.empty(0, np.int64)]
    for size in range(1, 18):
        for at in range(size):
            for lv, w in special:
                lvs, ws = levels[:size].copy(), weights[:size].copy()
                ps = profits[:size].copy()
                lvs[at], ws[at], ps[at] = lv, w, top
                batches.append(pack_nodes(lvs, ps, ws, lb, wb))
    for nodes in batches:
        for incumbent in (-1, int(inst.psum[n]) // 2):
            _assert_same(ref, fast, nodes, incumbent)


def test_every_call_of_a_solve_matches_reference(monkeypatch):
    """Each expansion of a full solve, fed the nodes the queue popped."""
    inst = generate(60, "weakly_correlated", seed=5)
    ref, fast, _, _ = _expansions(inst)
    calls = []

    class Checked(_Expansion):
        def __call__(self, nodes, incumbent):
            calls.append(nodes.size)
            _assert_same(ref, fast, nodes, incumbent)
            return fast(nodes, incumbent)

    monkeypatch.setattr(branch_bound, "_Expansion", Checked)
    with kernels.use("cext"):
        solve_batched(inst, batch=BATCH)
    assert len(calls) > 10
