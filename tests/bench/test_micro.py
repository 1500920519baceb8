"""Building blocks of the bench gates: the shared baseline comparator
and delta table, the zero-allocation bar of one heapify step, the
analysis-baseline path override, and bench target dispatch."""

import json

import numpy as np
import pytest

from repro.bench import wall
from repro.bench.reporting import (
    analysis_baseline_path,
    compare_to_baseline,
    render_delta,
)
from repro.core import HeapStorage


def test_arena_heapify_is_allocation_free():
    """One heapify step — an in-place ``HeapStorage.sort_split_nodes``
    rebalance of two full sibling rows, refilled each call from a pool
    of interleaved runs so it always merges — retains less than one
    k-key buffer under the wall lane's tracemalloc helper."""
    for k in (8, 128):
        rng = np.random.default_rng(20260806 + k)
        pool = [np.sort(rng.integers(0, 1 << 30, size=(2, k))) for _ in range(8)]
        store = HeapStorage(4, k)

        def op(i):
            store.nodes[2].set_keys(pool[i & 7][0])
            store.nodes[3].set_keys(pool[i & 7][1])
            return store.sort_split_nodes(2, 3, small=2, large=3, ma=k)

        retained, _ = wall._alloc_loop(op, 200)
        assert retained < k * 8, (k, retained)
        assert op(0) is False  # no presorted fast path: the rows merged
        merged = np.sort(pool[0], axis=None)
        assert np.array_equal(store.nodes[2].keys(), merged[:k])
        assert np.array_equal(store.nodes[3].keys(), merged[k:])


def test_compare_to_baseline_passes_identical():
    cur = {"speedups": {"mixed/k=8": 2.0}, "zero_alloc": {"heapify_step/k=8": True}}
    assert compare_to_baseline(cur, json.loads(json.dumps(cur))) == []


def test_compare_to_baseline_flags_speedup_regression():
    base = {"speedups": {"mixed/k=8": 2.0}, "zero_alloc": {}}
    ok = {"speedups": {"mixed/k=8": 1.7}, "zero_alloc": {}}  # -15%: inside 20%
    bad = {"speedups": {"mixed/k=8": 1.5}, "zero_alloc": {}}  # -25%: outside
    assert compare_to_baseline(ok, base) == []
    problems = compare_to_baseline(bad, base)
    assert len(problems) == 1 and "mixed" in problems[0] and "geomean" in problems[0]


def test_compare_to_baseline_gates_on_geomean_not_cells():
    """A single noisy cell must not trip the gate if the lane's
    geometric mean across k is still within tolerance."""
    base = {"speedups": {"mixed/k=8": 2.0, "mixed/k=512": 2.0}, "zero_alloc": {}}
    # one cell -30%, the other +30%: geomean ~ 0.95x of baseline -> pass
    cur = {"speedups": {"mixed/k=8": 1.4, "mixed/k=512": 2.6}, "zero_alloc": {}}
    assert compare_to_baseline(cur, base) == []
    # both cells -25%: geomean also -25% -> flagged
    bad = {"speedups": {"mixed/k=8": 1.5, "mixed/k=512": 1.5}, "zero_alloc": {}}
    assert compare_to_baseline(bad, base)


def test_compare_to_baseline_flags_lost_zero_alloc():
    base = {"speedups": {}, "zero_alloc": {"heapify_step/k=8": True}}
    bad = {"speedups": {}, "zero_alloc": {"heapify_step/k=8": False}}
    assert compare_to_baseline(bad, base)
    # a missing key (narrower sweep) is not a regression
    assert compare_to_baseline({"speedups": {}, "zero_alloc": {}}, base) == []


def test_compare_to_baseline_ignores_missing_ks():
    """CI quick runs may sweep fewer ks than the committed baseline."""
    base = {"speedups": {"mixed/k=8": 2.0, "mixed/k=512": 1.8}, "zero_alloc": {}}
    cur = {"speedups": {"mixed/k=8": 2.0}, "zero_alloc": {}}
    assert compare_to_baseline(cur, base) == []


def test_baseline_path_env_override(monkeypatch, tmp_path):
    target = tmp_path / "other.json"
    monkeypatch.setenv("REPRO_ANALYSIS_BASELINE", str(target))
    assert analysis_baseline_path() == target


def test_cli_bench_micro_exit_codes(monkeypatch, capsys):
    """``micro`` is not a bench target (exit 2, named on stderr); a bare
    ``repro bench`` runs the native wall lane."""
    from repro import cli

    assert cli.main(["bench", "micro"]) == 2
    err = capsys.readouterr().err
    assert "unknown bench target 'micro'" in err and "native" in err
    seen = []
    monkeypatch.setattr(cli, "run_lane",
                        lambda lane, args, record: seen.append(lane.name) or 7)
    assert cli.main(["bench"]) == 7
    assert seen == ["native"]


def _break_native(r):
    # a full run at k=512 whose compiled mixed cell went missing
    r["meta"].update(quick=False, ks=[512], compiled_available=["cext"])


def _break_shard(r):
    r["relaxation"]["mixed/shards=2"]["ok"] = False


def _break_frontier(r):
    r["elastic"]["grows"] = 0


@pytest.mark.parametrize("lane, breaks, failure", [
    ("native", _break_native, "floor lane missing"),
    ("shard", _break_shard, "k-relaxed/audit verification failed"),
    ("frontier", _break_frontier, "elastic cell never grew"),
], ids=["native", "shard", "frontier"])
def test_render_delta(lane, breaks, failure, request):
    """One table for every lane: each baseline cell the run measured
    with now/baseline/ratio, a geomean line per key group, the zero-alloc
    flags, then the lane's hard-gate problems."""
    from repro.cli import LANES

    spec = LANES[lane]
    results = request.getfixturevalue(f"{spec.stem}_results")
    baseline = json.loads(json.dumps(results))
    baseline["speedups"] = {k: v * 2 for k, v in baseline["speedups"].items()}
    current = json.loads(json.dumps(results))
    breaks(current)
    table = render_delta(current, baseline, spec.gate(current))
    for key in baseline["speedups"]:
        assert key in table
        assert f"{key.split('/')[0]} geomean" in table
    if baseline["speedups"]:
        assert "0.50" in table  # now/baseline ratio column
    for key in baseline["zero_alloc"]:
        assert f"zero-alloc {key}: baseline=yes now=yes" in table
    gate_lines = [ln for ln in table.splitlines() if ln.startswith("gate: ")]
    assert any(failure in ln for ln in gate_lines)
    assert "gate: " not in render_delta(results, baseline)
