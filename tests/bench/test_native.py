"""``repro bench native``: the wall lane's NativeBGPQ-specific gates.

The command runs the wall lane (see ``test_wall.py``); these tests pin
the three gates it carries for the native engine — the zero-alloc
``mixed`` flag, the knapsack/A* app cells and the width-1-payload bulk
shape — through the payload, the delta table, the shared comparator
and the CLI (baseline path, default k sweep, exit codes).
"""

import copy
import json

import numpy as np
import pytest

from repro.bench import wall
from repro.bench.reporting import compare_to_baseline
from repro.core.native import NativeBGPQ

#: bulk/build size for tests: the full 32768 records would dominate
#: every run at small k
TINY_BULK = 256


@pytest.fixture(scope="module")
def quick_results():
    """One tiny real run shared by the tests below."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wall, "BULK_RECORDS", TINY_BULK)
        return wall.run_wall(ks=(8,), quick=True, op_iters=4, e2e_iters=1)


def test_payload_structure(quick_results):
    r = quick_results
    assert r["meta"]["quick"] is True
    assert r["meta"]["bulk_records"] == TINY_BULK
    variants = r["meta"]["variants"]
    # one row per (bench, variant), app cells included; every compiled
    # variant gets a ratio over the numpy reference
    for bench in wall.WALL_BENCHES + wall.APP_BENCHES:
        got = sorted(row["variant"] for row in r["rows"] if row["bench"] == bench)
        assert got == sorted(variants)
        for variant in r["meta"]["compiled_available"]:
            assert f"{bench}:{variant}/k=8" in r["speedups"]
    assert not any(":numpy/" in key for key in r["speedups"])
    for row in r["rows"]:
        assert row["ops_per_sec"] > 0
        # only the numpy mixed lane pays for allocation tracing
        if not (row["bench"] == "mixed" and row["variant"] == "numpy"):
            assert row["retained_bytes"] == -1
    assert r["zero_alloc"] == {"mixed:numpy/k=8": True}


def test_arena_steady_state_is_allocation_free(quick_results):
    """The acceptance bar, at a small k so CI stays fast: the numpy
    variant's steady-state insert+deletemin loop retains less than one
    key-buffer across the loop."""
    assert quick_results["zero_alloc"]["mixed:numpy/k=8"] is True


def test_e2e_rows_skip_alloc_tracing(quick_results):
    for row in quick_results["rows"]:
        if row["bench"] in wall.APP_BENCHES:
            assert row["retained_bytes"] == -1


def test_gating_reuses_micro_comparator(quick_results):
    """App-cell ratio drift and a lost zero-alloc flag each fail the
    shared comparator (:func:`repro.bench.reporting.compare_to_baseline`),
    one problem per lane."""
    baseline = json.loads(json.dumps(quick_results))
    for key in baseline["speedups"]:
        if key.split(":")[0] in wall.APP_BENCHES:
            baseline["speedups"][key] *= 10
    current = json.loads(json.dumps(quick_results))
    current["zero_alloc"]["mixed:numpy/k=8"] = False
    problems = compare_to_baseline(current, baseline)
    compiled = quick_results["meta"]["compiled_available"]
    assert len(problems) == 1 + 2 * len(compiled)
    for variant in compiled:
        assert any(f"on knapsack:{variant}" in p for p in problems)
        assert any(f"on astar:{variant}" in p for p in problems)
    assert any("allocation regression on mixed:numpy/k=8" in p for p in problems)


def test_bulk_lane_carries_width_one_payload(monkeypatch):
    """The bulk lane drives ``insert_bulk`` with a width-1 payload that
    mirrors the keys, so every drained row must match its key."""
    monkeypatch.setattr(wall, "BULK_RECORDS", TINY_BULK)
    q = NativeBGPQ(8, kernels="numpy", payload_width=1)
    op = wall._lane_bulk(q, 8, np.random.default_rng(0), total_ops=2)
    op(0)
    assert len(q) == TINY_BULK
    keys, payload = q.deletemin(8)
    assert payload.shape == (8, 1)
    assert np.array_equal(payload[:, 0], keys)


def test_render_native_delta(quick_results):
    baseline = json.loads(json.dumps(quick_results))
    baseline["speedups"] = {k: v * 2 for k, v in baseline["speedups"].items()}
    current = json.loads(json.dumps(quick_results))
    current["zero_alloc"]["mixed:numpy/k=8"] = False
    table = wall.render_wall_delta(current, baseline)
    for variant in quick_results["meta"]["compiled_available"]:
        for bench in wall.WALL_BENCHES + wall.APP_BENCHES:
            assert f"{bench}:{variant}" in table
        assert "0.50" in table  # current/baseline ratio column
    assert "zero-alloc mixed:numpy/k=8: baseline=yes now=NO" in table


def test_cli_bench_native_exit_codes(quick_results, tmp_path, monkeypatch,
                                     capsys):
    """Exit 0 on a fresh or matching baseline; exit 1 with the delta
    table when an app cell drifts or the zero-alloc flag is lost."""
    from repro.cli import main

    current = copy.deepcopy(quick_results)
    # the app-cell ratio under test (absent on a numpy-only host)
    current["speedups"].setdefault("knapsack:cext/k=8", 1.0)
    monkeypatch.setattr(
        wall, "run_wall", lambda ks, quick: copy.deepcopy(current)
    )
    base_path = tmp_path / "BENCH_wall.json"
    delta_path = tmp_path / "results" / "bench_wall_delta.txt"
    monkeypatch.setenv("REPRO_BENCH_WALL_BASELINE", str(base_path))
    monkeypatch.setenv("REPRO_ANALYSIS_BASELINE",
                       str(tmp_path / "BENCH_analysis.json"))
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "results"))
    monkeypatch.setenv("REPRO_REGISTRY_DIR", str(tmp_path / "runs"))
    argv = ["bench", "native", "--quick", "--bench-ks", "8"]

    # first run: no baseline yet -> writes it, exits 0
    assert main(argv) == 0
    assert base_path.is_file()
    assert main(argv) == 0
    assert "no regression" in capsys.readouterr().out
    assert not delta_path.exists()

    # the knapsack app cell drops 10x below its baseline ratio
    current["speedups"]["knapsack:cext/k=8"] /= 10
    assert main(argv) == 1
    out = capsys.readouterr().out
    assert "WALL-CLOCK GATE FAILED" in out and "on knapsack:cext" in out
    assert delta_path.is_file()

    # --update-baseline accepts the new ratio and exits 0 again
    assert main(argv + ["--update-baseline"]) == 0
    assert main(argv) == 0
    capsys.readouterr()

    # a lost zero-alloc flag fails the gate on its own
    current["zero_alloc"]["mixed:numpy/k=8"] = False
    assert main(argv) == 1
    out = capsys.readouterr().out
    assert "allocation regression on mixed:numpy/k=8" in out
    assert "now=NO" in delta_path.read_text()


def test_baseline_path_env_override(monkeypatch, tmp_path):
    target = tmp_path / "other.json"
    monkeypatch.setenv("REPRO_BENCH_WALL_BASELINE", str(target))
    assert wall.wall_baseline_path() == target


def test_unknown_bench_target_exits_2():
    from repro.cli import main

    assert main(["bench", "nope"]) == 2


def test_default_ks_constant():
    assert wall.WALL_KS == (32, 128, 512)
