"""``repro bench native``: the wall lane's NativeBGPQ-specific gates.

The command runs the wall lane (see ``test_wall.py``); these tests pin
what it gates for the native engine — the zero-alloc ``mixed`` flag,
the width-1-payload bulk shape and the k=512 floor — through the
payload, the shared comparator and the CLI (baseline path, default k
sweep, exit codes, the refusal to commit a baseline that misses the
floor).
"""

import copy
import json

import numpy as np

from repro.bench import wall
from repro.bench.reporting import compare_to_baseline, render_delta
from repro.core.native import NativeBGPQ

from .conftest import TINY_BULK


def test_payload_structure(wall_results):
    r = wall_results
    assert r["meta"]["quick"] is True
    assert r["meta"]["bulk_records"] == TINY_BULK
    variants = r["meta"]["variants"]
    # one row per (bench, variant); every compiled variant gets a ratio
    # over the numpy reference
    for bench in wall.WALL_BENCHES:
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


def test_arena_steady_state_is_allocation_free(wall_results):
    """The acceptance bar, at a small k so CI stays fast: the numpy
    variant's steady-state insert+deletemin loop retains less than one
    key-buffer across the loop."""
    assert wall_results["zero_alloc"]["mixed:numpy/k=8"] is True


def test_gating_reuses_micro_comparator(wall_results):
    """Delete-cell ratio drift and a lost zero-alloc flag each fail the
    shared comparator (:func:`repro.bench.reporting.compare_to_baseline`),
    one problem per lane."""
    baseline = json.loads(json.dumps(wall_results))
    for key in baseline["speedups"]:
        if key.startswith("delete:"):
            baseline["speedups"][key] *= 10
    current = json.loads(json.dumps(wall_results))
    current["zero_alloc"]["mixed:numpy/k=8"] = False
    problems = compare_to_baseline(current, baseline)
    compiled = wall_results["meta"]["compiled_available"]
    assert len(problems) == 1 + len(compiled)
    for variant in compiled:
        assert any(f"on delete:{variant}" in p for p in problems)
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


def test_render_native_delta(wall_results):
    baseline = json.loads(json.dumps(wall_results))
    baseline["speedups"] = {k: v * 2 for k, v in baseline["speedups"].items()}
    current = json.loads(json.dumps(wall_results))
    current["zero_alloc"]["mixed:numpy/k=8"] = False
    table = render_delta(current, baseline)
    for variant in wall_results["meta"]["compiled_available"]:
        for bench in wall.WALL_BENCHES:
            assert f"{bench}:{variant}" in table
        assert "0.50" in table  # current/baseline ratio column
    assert "zero-alloc mixed:numpy/k=8: baseline=yes now=NO" in table


def _stub_lane(monkeypatch, tmp_path, payload):
    """Point ``repro bench native`` at throwaway paths, with ``run_wall``
    returning copies of ``payload`` (mutate it to steer the next run)."""
    monkeypatch.setattr(
        wall, "run_wall", lambda ks, quick: copy.deepcopy(payload)
    )
    monkeypatch.setenv("REPRO_BENCH_WALL_BASELINE",
                       str(tmp_path / "BENCH_wall.json"))
    monkeypatch.setenv("REPRO_ANALYSIS_BASELINE",
                       str(tmp_path / "BENCH_analysis.json"))
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "results"))
    monkeypatch.setenv("REPRO_REGISTRY_DIR", str(tmp_path / "runs"))
    return tmp_path / "BENCH_wall.json", (
        tmp_path / "results" / "bench_wall_delta.txt"
    )


def test_cli_bench_native_exit_codes(wall_results, tmp_path, monkeypatch,
                                     capsys):
    """Exit 0 on a fresh or matching baseline; exit 1 with the delta
    table when a lane drifts or the zero-alloc flag is lost."""
    from repro.cli import main

    current = copy.deepcopy(wall_results)
    # the ratio under test (absent on a numpy-only host)
    current["speedups"].setdefault("delete:cext/k=8", 1.0)
    base_path, delta_path = _stub_lane(monkeypatch, tmp_path, current)
    argv = ["bench", "native", "--quick", "--bench-ks", "8"]

    # first run: no baseline yet -> writes it, exits 0
    assert main(argv) == 0
    assert base_path.is_file()
    assert main(argv) == 0
    assert "no regression" in capsys.readouterr().out
    assert not delta_path.exists()

    # the delete lane drops 10x below its baseline ratio
    current["speedups"]["delete:cext/k=8"] /= 10
    assert main(argv) == 1
    out = capsys.readouterr().out
    assert "bench native: GATE FAILED" in out and "on delete:cext" in out
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


def test_update_baseline_refuses_a_floor_miss(wall_results, tmp_path,
                                              monkeypatch, capsys):
    """A full k=512 run at 3.0x misses the 3.15x floor: exit 1 with the
    delta table, and neither BENCH_wall.json nor BENCH_analysis.json is
    written."""
    from repro.cli import main

    full = copy.deepcopy(wall_results)
    full["meta"].update(quick=False, ks=[512], compiled_available=["cext"])
    full["speedups"] = {"mixed:cext/k=512": 3.0}
    base_path, delta_path = _stub_lane(monkeypatch, tmp_path, full)

    assert main(["bench", "native", "--bench-ks", "512",
                 "--update-baseline"]) == 1
    out = capsys.readouterr().out
    assert "baseline NOT written" in out and "floor missed" in out
    assert not base_path.exists()
    assert not (tmp_path / "BENCH_analysis.json").exists()
    assert "gate: wall-clock floor missed" in delta_path.read_text()


def test_baseline_path_env_override(monkeypatch, tmp_path):
    target = tmp_path / "other.json"
    monkeypatch.setenv("REPRO_BENCH_WALL_BASELINE", str(target))
    assert wall.LANE.baseline_path() == target


def test_unknown_bench_target_exits_2():
    from repro.cli import main

    assert main(["bench", "nope"]) == 2


def test_default_ks_constant():
    assert wall.WALL_KS == (32, 128, 512)
