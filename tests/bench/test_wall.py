"""Wall-clock bench lane: payload shape, gates, delta, CLI round trip."""

import functools
import json
from pathlib import Path

import pytest

from repro.bench import wall
from repro.bench.reporting import compare_to_baseline
from repro.obs.metrics import MetricsRegistry, validate_prometheus_text

#: bulk/build size for tests: the full 32768 records would dominate
#: every run at small k
TINY_BULK = 256


@pytest.fixture(scope="module")
def results():
    """One tiny-iteration run shared by the shape/gate tests."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wall, "BULK_RECORDS", TINY_BULK)
        return wall.run_wall(ks=(4,), quick=True, op_iters=4, e2e_iters=1)


@pytest.fixture
def tiny_lane(tmp_path, monkeypatch):
    """Point the CLI at a shrunk lane and throwaway baseline/results dirs."""
    monkeypatch.setattr(wall, "BULK_RECORDS", TINY_BULK)
    monkeypatch.setattr(
        wall, "run_wall",
        functools.partial(wall.run_wall, op_iters=2, e2e_iters=1),
    )
    monkeypatch.setenv("REPRO_BENCH_WALL_BASELINE",
                       str(tmp_path / "BENCH_wall.json"))
    monkeypatch.setenv("REPRO_ANALYSIS_BASELINE",
                       str(tmp_path / "BENCH_analysis.json"))
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "results"))
    monkeypatch.setenv("REPRO_REGISTRY_DIR", str(tmp_path / "runs"))
    return tmp_path


def test_payload_shape(results):
    assert results["benchmark"] == "wall"
    assert results["meta"]["quick"] is True
    assert {"cpu_count", "cpu_model", "compiler"} <= set(results["meta"])
    variants = results["meta"]["variants"]
    assert variants[0] == "numpy"
    assert "cext" not in variants or results["meta"]["compiler"]
    assert len(results["rows"]) == (
        (len(wall.WALL_BENCHES) + len(wall.APP_BENCHES)) * len(variants)
    )
    for row in results["rows"]:
        assert row["ops_per_sec"] > 0
    for variant in variants:
        assert variant in results["meta"]["kernels"]
        assert "backend" in results["meta"]["kernels"][variant]
    assert list(results["zero_alloc"]) == ["mixed:numpy/k=4"]


def test_speedup_keys_group_by_lane(results):
    """Keys must group as bench:variant under compare_to_baseline's
    ``key.split("/")[0]`` convention — one gate per (bench, variant)."""
    for key in results["speedups"]:
        lane, _, kpart = key.partition("/")
        bench, _, variant = lane.partition(":")
        assert variant in results["meta"]["compiled_available"]
        assert bench in wall.WALL_BENCHES + wall.APP_BENCHES
        assert kpart == "k=4"


def test_alloc_loop_detects_retention():
    kept = []
    retained, peak = wall._alloc_loop(lambda i: kept.append(bytearray(1024)), 50)
    assert retained > 50 * 1000
    assert peak >= retained


def test_baseline_comparison_round_trip(results):
    assert compare_to_baseline(results, results) == []
    slower = json.loads(json.dumps(results))
    for key in slower["speedups"]:
        slower["speedups"][key] = results["speedups"][key] * 4 + 1
    assert compare_to_baseline(results, slower) != []


def test_floor_gate_logic(results):
    # quick runs and sweeps without k=512 never trip the floor
    assert wall.wall_gate_problems(results, quick=True) == []
    assert wall.wall_gate_problems(results, quick=False) == []

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


def test_render_wall_delta(results):
    baseline = json.loads(json.dumps(results))
    baseline["speedups"] = {k: v * 2 for k, v in baseline["speedups"].items()}
    text = wall.render_wall_delta(results, baseline)
    assert "geomean(now)" in text
    for variant in results["meta"]["compiled_available"]:
        assert f"insert:{variant}" in text
        for bench in wall.APP_BENCHES:
            assert f"{bench}:{variant}" in text
        assert "0.50" in text  # current/baseline ratio column
    assert "zero-alloc mixed:numpy/k=4: baseline=yes now=yes" in text


def test_delta_skips_lanes_missing_from_current(results):
    """A numpy-only host gating against a compiled baseline records no
    speedups, so it gates only the zero-allocation flags."""
    current = json.loads(json.dumps(results))
    current["speedups"] = {}
    assert compare_to_baseline(current, results) == []
    text = wall.render_wall_delta(current, results)
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
    assert "WALL-CLOCK GATE FAILED" in out
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
