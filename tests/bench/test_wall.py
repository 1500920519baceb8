"""Wall-clock bench lane: payload shape, gates, delta, CLI round trip."""

import functools
import json
from pathlib import Path

import pytest

from repro.bench import wall
from repro.bench.reporting import compare_to_baseline, render_delta
from repro.obs.metrics import MetricsRegistry, validate_prometheus_text

from .conftest import TINY_BULK


@pytest.fixture
def tiny_lane(tmp_path, monkeypatch):
    """Point the CLI at a shrunk lane and throwaway baseline/results dirs."""
    monkeypatch.setattr(wall, "BULK_RECORDS", TINY_BULK)
    monkeypatch.setattr(
        wall, "run_wall", functools.partial(wall.run_wall, op_iters=2),
    )
    monkeypatch.setenv("REPRO_BENCH_WALL_BASELINE",
                       str(tmp_path / "BENCH_wall.json"))
    monkeypatch.setenv("REPRO_ANALYSIS_BASELINE",
                       str(tmp_path / "BENCH_analysis.json"))
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "results"))
    monkeypatch.setenv("REPRO_REGISTRY_DIR", str(tmp_path / "runs"))
    return tmp_path


def test_payload_shape(wall_results):
    assert wall_results["benchmark"] == "wall"
    assert wall_results["meta"]["quick"] is True
    assert {"cpu_count", "cpu_model", "compiler"} <= set(wall_results["meta"])
    variants = wall_results["meta"]["variants"]
    assert variants[0] == "numpy"
    assert "cext" not in variants or wall_results["meta"]["compiler"]
    assert len(wall_results["rows"]) == len(wall.WALL_BENCHES) * len(variants)
    for row in wall_results["rows"]:
        assert row["ops_per_sec"] > 0
    for variant in variants:
        assert variant in wall_results["meta"]["kernels"]
        assert "backend" in wall_results["meta"]["kernels"][variant]
    assert list(wall_results["zero_alloc"]) == ["mixed:numpy/k=8"]


def test_speedup_keys_group_by_lane(wall_results):
    """Keys must group as bench:variant under compare_to_baseline's
    ``key.split("/")[0]`` convention — one gate per (bench, variant)."""
    for key in wall_results["speedups"]:
        lane, _, kpart = key.partition("/")
        bench, _, variant = lane.partition(":")
        assert variant in wall_results["meta"]["compiled_available"]
        assert bench in wall.WALL_BENCHES
        assert kpart == "k=8"


def test_alloc_loop_detects_retention():
    kept = []
    retained, peak = wall._alloc_loop(lambda i: kept.append(bytearray(1024)), 50)
    assert retained > 50 * 1000
    assert peak >= retained


def test_baseline_comparison_round_trip(wall_results):
    assert compare_to_baseline(wall_results, wall_results) == []
    slower = json.loads(json.dumps(wall_results))
    for key in slower["speedups"]:
        slower["speedups"][key] = wall_results["speedups"][key] * 4 + 1
    assert compare_to_baseline(wall_results, slower) != []


def test_floor_gate_logic(wall_results):
    # quick runs and sweeps without k=512 never trip the floor
    assert wall.wall_gate_problems(wall_results, quick=True) == []
    assert wall.wall_gate_problems(wall_results, quick=False) == []

    fake = {
        "meta": {"compiled_available": ["cext"], "ks": [512]},
        "speedups": {"mixed:cext/k=512": 3.0},
    }
    problems = wall.wall_gate_problems(fake, quick=False)
    assert len(problems) == 1 and "floor missed" in problems[0]
    fake["speedups"]["mixed:cext/k=512"] = 12.5
    assert wall.wall_gate_problems(fake, quick=False) == []
    fake["speedups"] = {}
    assert "missing" in wall.wall_gate_problems(fake, quick=False)[0]
    fake["meta"]["compiled_available"] = []
    assert wall.wall_gate_problems(fake, quick=False) == []


def test_render_wall_delta(wall_results):
    baseline = json.loads(json.dumps(wall_results))
    baseline["speedups"] = {k: v * 2 for k, v in baseline["speedups"].items()}
    text = render_delta(wall_results, baseline)
    for variant in wall_results["meta"]["compiled_available"]:
        assert f"insert:{variant}" in text
        assert f"insert:{variant} geomean" in text
        assert "0.50" in text  # current/baseline ratio column
    assert "zero-alloc mixed:numpy/k=8: baseline=yes now=yes" in text
    assert "gate: " not in text


def test_delta_skips_lanes_missing_from_current(wall_results):
    """A numpy-only host gating against a compiled baseline records no
    speedups, so it gates only the zero-allocation flags."""
    current = json.loads(json.dumps(wall_results))
    current["speedups"] = {}
    assert compare_to_baseline(current, wall_results) == []
    text = render_delta(current, wall_results)
    assert "numpy" in text and "cext" not in text


def test_instrumented_pass_feeds_histograms():
    registry = MetricsRegistry()
    done = wall.instrumented_mixed_pass(registry, k=4, iters=4,
                                        backends=["numpy"])
    assert done == {"numpy": 4}
    text = registry.to_prometheus()
    validate_prometheus_text(text)
    assert "repro_kernel_wall_ns" in text
    assert 'backend="numpy"' in text


def test_cli_wall_lane(tiny_lane, capsys):
    from repro.cli import main

    argv = ["bench", "native", "--quick", "--bench-ks", "4"]
    # first run: no baseline yet -> writes it, exits 0
    rc = main(argv)
    out = capsys.readouterr().out
    assert rc == 0
    assert "baseline written" in out
    base_path = tiny_lane / "BENCH_wall.json"
    assert base_path.is_file()
    assert (tiny_lane / "results" / "bench_wall.prom").is_file()

    # gate vs an easy baseline must pass; timing noise can't flip these
    # (the re-run is compared against deliberately skewed ratios, not
    # against its own jittery first run)
    baseline = json.loads(base_path.read_text())
    easy = json.loads(json.dumps(baseline))
    for key in easy["speedups"]:
        easy["speedups"][key] = 0.01
    base_path.write_text(json.dumps(easy))
    rc = main(argv)
    out = capsys.readouterr().out
    assert rc == 0
    assert "no regression" in out

    # gate vs an impossible baseline must fail and ship the delta table
    hard = json.loads(json.dumps(baseline))
    for key in hard["speedups"]:
        hard["speedups"][key] = 1e9
    base_path.write_text(json.dumps(hard))
    rc = main(argv)
    out = capsys.readouterr().out
    assert rc == 1
    assert "bench native: GATE FAILED" in out
    assert (tiny_lane / "results" / "bench_wall_delta.txt").is_file()

    # --update-baseline rewrites it and exits 0 again
    assert main(argv + ["--update-baseline"]) == 0
    assert (tiny_lane / "BENCH_analysis.json").read_text() == (
        Path(__file__).parents[2] / "BENCH_analysis.json"
    ).read_text()
    rewritten = json.loads(base_path.read_text())
    assert rewritten["speedups"].keys() == baseline["speedups"].keys()
    assert all(v < 1e9 for v in rewritten["speedups"].values())


def test_cli_kernels_flag(tiny_lane):
    from repro.cli import main
    from repro.primitives import kernels as kr

    prev = kr._active
    try:
        rc = main(["bench", "native", "--quick", "--bench-ks", "4",
                   "--kernels", "numpy"])
        assert rc == 0
        assert kr.active().name == "numpy"
    finally:
        kr._active = prev
