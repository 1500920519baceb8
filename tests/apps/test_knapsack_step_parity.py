"""Differential suite: the fused knapsack step matches the op-by-op loop.

On the compiled backend, a solve that builds its own queue runs each
iteration on a heap of two or more nodes as one ``knapsack_step`` call
of the C core.  Given a ``pq_factory`` it runs op by op instead —
``deletemin``, the stale-bound cut, the expansion kernel and
``insert_bulk`` — on the same backend.  The two loops must agree on the
whole ``KnapsackResult`` (``sim_time_ns`` included), on the queue's
``stats`` and on its exact tick clock, over the generator families of
``test_knapsack_expand_parity.py`` at small, medium and full batches.
"""

import pytest

from repro.apps.knapsack import FAMILIES, branch_bound, generate, solve_batched
from repro.core.native import NativeBGPQ
from repro.primitives import kernels

COMPILED = "cext" in kernels.available_backends()

pytestmark = pytest.mark.skipif(
    not COMPILED, reason="no compiled kernel backend on this host"
)

BATCHES = (8, 64, 1024)
# items per family, sized so that every solve's heap outgrows one node at
# every batch size and the fused step runs
ITEMS = {"uncorrelated": 200, "weakly_correlated": 100,
         "strongly_correlated": 40, "subset_sum": 40}
INSTANCES = [(family, ITEMS[family], seed) for family in FAMILIES
             for seed in (1, 2)]


class _Counted(NativeBGPQ):
    """NativeBGPQ that counts its fused steps."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.steps = 0

    def knapsack_step(self, count, incumbent, expansion):
        self.steps += 1
        return super().knapsack_step(count, incumbent, expansion)


def _solve(monkeypatch, inst, batch, fused):
    """One solve on the fused or the op-by-op loop, and its queue."""
    made = []

    def build(node_capacity, ctx, payload_width, storage="arena"):
        made.append(_Counted(node_capacity=node_capacity, ctx=ctx,
                             payload_width=payload_width, storage=storage))
        return made[-1]

    with kernels.use("cext"), monkeypatch.context() as m:
        if fused:
            m.setattr(branch_bound, "NativeBGPQ", build)
            result = solve_batched(inst, batch=batch)
        else:
            result = solve_batched(inst, batch=batch, pq_factory=build)
    (pq,) = made
    return result, pq


def _differences(monkeypatch, inst, batch) -> list[str]:
    (want, ref), (got, fast) = (
        _solve(monkeypatch, inst, batch, fused) for fused in (False, True)
    )
    assert ref.steps == 0
    # every deletemin on a heap of two or more nodes was a fused step
    assert fast.steps == fast.stats["deletemin_heapify"]
    diffs = []
    if got != want:
        diffs.append(f"result {got} != {want}")
    if fast.stats != ref.stats:
        diffs.append(f"stats {fast.stats} != {ref.stats}")
    if fast.sim_ticks != ref.sim_ticks:
        diffs.append("sim_ticks differ")
    return diffs


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("family, items, seed", INSTANCES)
def test_fused_step_matches_op_by_op(monkeypatch, family, items, seed, batch):
    inst = generate(items, family, seed=seed)
    assert _differences(monkeypatch, inst, batch) == []


@pytest.mark.parametrize("batch", BATCHES)
def test_fused_steps_run_at_every_batch(monkeypatch, batch):
    """The cases above are not vacuous: every solve outgrows one heap
    node and takes the fused step."""
    for family, items, seed in INSTANCES:
        _, pq = _solve(monkeypatch, generate(items, family, seed=seed),
                       batch, fused=True)
        assert pq.steps > 0, (family, items, seed)


def test_planted_one_off_cut_is_caught(monkeypatch):
    """With a stale-bound cut that keeps one node too many in the Python
    loop (the op-by-op solve, and the fused solve's small-heap
    iterations) and the compiled cut intact, every case differs."""
    real = branch_bound._fresh_prefix

    def one_off(keys, incumbent):
        return min(real(keys, incumbent) + 1, keys.size)

    monkeypatch.setattr(branch_bound, "_fresh_prefix", one_off)
    for family, items, seed in INSTANCES:
        inst = generate(items, family, seed=seed)
        assert _differences(monkeypatch, inst, 64), (family, items, seed)
