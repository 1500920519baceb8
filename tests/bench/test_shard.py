"""Shard-fleet bench: payload structure, determinism, gates, CLI exits."""

import json

from repro.bench.reporting import compare_to_baseline
from repro.bench.shard import (
    LANE,
    SHARD_COUNTS,
    SHARD_WORKLOADS,
    _deal,
    run_shard,
    shard_gate_problems,
)

from .conftest import TINY_SHARD


def test_payload_structure(shard_results):
    r = shard_results
    assert r["benchmark"] == "shard"
    assert r["meta"]["workloads"] == ["mixed"]
    assert len(r["rows"]) == 2  # one per shard count
    for row in r["rows"]:
        assert row["workload"] == "mixed"
        assert row["keys_per_us"] > 0
        assert row["relax_ok"] and row["audit_ok"]
    assert set(r["speedups"]) == {"mixed/shards=2"}
    assert r["zero_alloc"] == {}  # comparator compatibility
    assert set(r["relaxation"]) == {"mixed/shards=1", "mixed/shards=2"}
    assert r["relaxation"]["mixed/shards=1"]["minimal_k"] == 1
    assert r["spraylist"]["keys_per_us"] > 0


def test_simulated_run_is_bit_deterministic(shard_results):
    again = run_shard(**TINY_SHARD)
    strip = lambda d: {k: v for k, v in d.items()
                       if k not in ("recorded_at", "meta")}
    assert json.dumps(strip(again), sort_keys=True, default=str) == json.dumps(
        strip(shard_results), sort_keys=True, default=str
    )


def test_gate_flags_speedup_floor_and_relaxation(shard_results):
    clean = json.loads(json.dumps(shard_results))
    clean["mixed_4shard"] = 2.4
    assert shard_gate_problems(clean) == []
    slow = json.loads(json.dumps(clean))
    slow["mixed_4shard"] = 1.4
    problems = shard_gate_problems(slow)
    assert any("below" in p for p in problems)
    broken = json.loads(json.dumps(clean))
    broken["relaxation"]["mixed/shards=2"]["ok"] = False
    problems = shard_gate_problems(broken)
    assert any("k-relaxed" in p for p in problems)


def test_gating_reuses_micro_comparator(shard_results):
    doctored = json.loads(json.dumps(shard_results))
    doctored["speedups"] = {k: v * 10 for k, v in doctored["speedups"].items()}
    assert compare_to_baseline(shard_results, doctored)
    assert compare_to_baseline(shard_results, shard_results) == []


def test_app_traces_ride_the_fleet():
    r = run_shard(shard_counts=(1, 2), k=32, sessions=8, requests=4,
                  quick=True, workloads=("knapsack", "astar"))
    by_cell = {(row["workload"], row["shards"]): row for row in r["rows"]}
    assert set(by_cell) == {("knapsack", 1), ("knapsack", 2),
                            ("astar", 1), ("astar", 2)}
    for row in by_cell.values():
        assert row["keys_in"] > 1  # real frontier batches, not just the root
        assert row["relax_ok"] and row["audit_ok"]
    assert r["spraylist"] is None  # mixed not benched here


def test_placement_section_gated_on_full_grid(shard_results):
    # TINY never reaches GATE_SHARDS, so no skewed comparison is run
    assert shard_results["placement"] is None
    r = run_shard(shard_counts=(1, 4), k=32, sessions=8, requests=4,
                  quick=True, workloads=("mixed",))
    placement = r["placement"]
    assert set(placement["cells"]) == {"hash", "spray", "shortest", "d-choice"}
    for cell in placement["cells"].values():
        assert cell["ok"]
        assert cell["speedup"] > 0 and cell["minimal_k"] >= 0
    assert placement["best_load_aware"] in ("shortest", "d-choice")
    # the placement sweep stays out of `speedups` so drift gating on the
    # main table is unaffected
    assert not any(k.startswith("placement") for k in r["speedups"])


def test_deal_round_robin_preserves_order():
    trace = [("insert", i) for i in range(7)]
    scripts = _deal(trace, 3)
    assert [op for s in scripts for op in s]  # nothing dropped
    assert sorted(x for s in scripts for _, x in s) == list(range(7))
    for s in scripts:
        assert [x for _, x in s] == sorted(x for _, x in s)


def test_baseline_path_env_override(monkeypatch, tmp_path):
    target = tmp_path / "other.json"
    monkeypatch.setenv("REPRO_BENCH_SHARD_BASELINE", str(target))
    assert LANE.baseline_path() == target


def test_cli_bench_shard_exit_codes(tmp_path, monkeypatch, capsys):
    from repro.cli import main

    monkeypatch.setenv(
        "REPRO_BENCH_SHARD_BASELINE", str(tmp_path / "BENCH_shard.json")
    )
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "results"))
    args = ["bench", "shard", "--quick", "--shard-counts", "1,2,4",
            "--shard-k", "32", "--shard-sessions", "8",
            "--shard-requests", "4"]
    # first run: no baseline yet -> writes it, exits 0
    assert main(args) == 0
    assert (tmp_path / "BENCH_shard.json").exists()
    capsys.readouterr()
    # a doctored baseline makes the drift gate fail and saves the delta
    doctored = json.loads((tmp_path / "BENCH_shard.json").read_text())
    doctored["speedups"] = {k: v * 10 for k, v in doctored["speedups"].items()}
    (tmp_path / "BENCH_shard.json").write_text(json.dumps(doctored))
    assert main(args) == 1
    out = capsys.readouterr().out
    assert "bench shard: GATE FAILED" in out
    assert (tmp_path / "results" / "bench_shard_delta.txt").exists()
    # --update-baseline rewrites and exits 0 again
    assert main(args + ["--update-baseline"]) == 0

    # every run lands in the registry under the kind and gate block
    # `repro runs trend bench-shard` folds
    from repro.registry import registry_from_env

    runs = registry_from_env().list_runs(kind="bench-shard")
    assert sorted(r["status"] for r in runs) == [
        "completed", "completed", "failed"]
    for r in runs:
        assert set(r["summary"]["gate"]) == {
            "passed", "baseline_file", "rebaseline", "geomean_ratios"}
        assert "4shard" in r["summary"]["gate"]["geomean_ratios"]
        assert r["config"]["shard_counts"] == [1, 2, 4]


def test_committed_baseline_matches_schema():
    """The repo-root BENCH_shard.json is a real payload of this bench."""
    base = json.loads(LANE.baseline_path().read_text())
    assert base["benchmark"] == "shard"
    assert base["mixed_4shard"] >= 2.0
    assert set(base["meta"]["workloads"]) == set(SHARD_WORKLOADS)
    assert base["meta"]["shard_counts"] == list(SHARD_COUNTS)
    for cell in base["relaxation"].values():
        assert cell["ok"]


def test_default_constants():
    assert SHARD_COUNTS == (1, 2, 4, 8)
    assert SHARD_WORKLOADS == ("mixed", "knapsack", "astar")
