"""Every compiled entry point is reached by a queue op or an app solve.

A counting proxy stands in for the C module on the compiled backend
while a small knapsack solve, a payload ``insert_bulk`` + ``deletemin``
and a keys-only ``run_fleet`` run.  Each public name of the module must
be called at least once, so the surface ``test_ckern_boundary.py``
pins holds no entry point that only its own tests reach.
"""

from collections import Counter

import numpy as np
import pytest

from repro.apps.knapsack import generate, solve_batched, solve_sequential
from repro.core.native import NativeBGPQ
from repro.fleet import ShardedBGPQ, mixed_scripts, run_fleet
from repro.primitives import kernels

pytestmark = pytest.mark.skipif(
    "cext" not in kernels.available_backends(), reason="C core unavailable"
)


class _CountingModule:
    """The C module with every public call counted."""

    def __init__(self, mod, calls: Counter):
        self._mod = mod
        self._calls = calls

    def __getattr__(self, name):
        fn = getattr(self._mod, name)
        if name.startswith("_"):
            return fn

        def counted(*args):
            self._calls[name] += 1
            return fn(*args)

        return counted


def test_every_compiled_entry_point_is_reached(monkeypatch):
    kern = kernels.select("cext")
    public = {n for n in dir(kern.mod) if not n.startswith("_")}
    calls = Counter()
    kern.mod = _CountingModule(kern.mod, calls)
    monkeypatch.setattr(kernels, "_active", kern)

    inst = generate(40, "strongly_correlated", seed=1)
    best = solve_batched(inst, batch=8).best_profit
    assert best == solve_sequential(inst).best_profit

    pq = NativeBGPQ(16, payload_width=1)
    keys = np.arange(100, 0, -1)
    pq.insert_bulk(keys, payload=keys)
    out, pay = pq.deletemin(16)
    assert out.tolist() == list(range(1, 17))
    assert np.array_equal(pay[:, 0], out)

    fleet = ShardedBGPQ(n_shards=2, node_capacity=16, seed=1)
    run_fleet(fleet, mixed_scripts(2, 6, 16, seed=1))

    assert public == set(calls), f"never called: {public - set(calls)}"
