"""Shard-fleet bench: payload structure, determinism, gates, CLI exits."""

import json

import pytest

from repro.bench.reporting import compare_to_baseline
from repro.bench.shard import (
    SHARD_COUNTS,
    SHARD_WORKLOADS,
    _deal,
    render_shard_delta,
    run_shard,
    shard_baseline_path,
    shard_gate_problems,
)

TINY = dict(shard_counts=(1, 2), k=16, sessions=4, requests=4,
            workloads=("mixed",))


@pytest.fixture(scope="module")
def tiny_results():
    """One tiny real run shared by the structural tests."""
    return run_shard(**TINY)


def test_payload_structure(tiny_results):
    r = tiny_results
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


def test_simulated_run_is_bit_deterministic(tiny_results):
    again = run_shard(**TINY)
    strip = lambda d: {k: v for k, v in d.items()
                       if k not in ("recorded_at", "meta")}
    assert json.dumps(strip(again), sort_keys=True, default=str) == json.dumps(
        strip(tiny_results), sort_keys=True, default=str
    )


def test_gate_flags_speedup_floor_and_relaxation(tiny_results):
    clean = json.loads(json.dumps(tiny_results))
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


def test_gating_reuses_micro_comparator(tiny_results):
    doctored = json.loads(json.dumps(tiny_results))
    doctored["speedups"] = {k: v * 10 for k, v in doctored["speedups"].items()}
    assert compare_to_baseline(tiny_results, doctored)
    assert compare_to_baseline(tiny_results, tiny_results) == []


def test_render_shard_delta(tiny_results):
    doctored = json.loads(json.dumps(tiny_results))
    doctored["speedups"] = {k: v * 2 for k, v in doctored["speedups"].items()}
    table = render_shard_delta(tiny_results, doctored)
    assert "mixed" in table and "0.50" in table
    failed = json.loads(json.dumps(tiny_results))
    failed["relaxation"]["mixed/shards=2"]["ok"] = False
    assert "relaxation FAILED" in render_shard_delta(failed, doctored)


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


def test_placement_section_gated_on_full_grid(tiny_results):
    # TINY never reaches GATE_SHARDS, so no skewed comparison is run
    assert tiny_results["placement"] is None
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
    assert shard_baseline_path() == target


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
    assert "PERF REGRESSION" in out
    assert (tmp_path / "results" / "bench_shard_delta.txt").exists()
    # --update-baseline rewrites and exits 0 again
    assert main(args + ["--update-baseline"]) == 0


def test_committed_baseline_matches_schema():
    """The repo-root BENCH_shard.json is a real payload of this bench."""
    base = json.loads(shard_baseline_path().read_text())
    assert base["benchmark"] == "shard"
    assert base["mixed_4shard"] >= 2.0
    assert set(base["meta"]["workloads"]) == set(SHARD_WORKLOADS)
    assert base["meta"]["shard_counts"] == list(SHARD_COUNTS)
    for cell in base["relaxation"].values():
        assert cell["ok"]


def test_default_constants():
    assert SHARD_COUNTS == (1, 2, 4, 8)
    assert SHARD_WORKLOADS == ("mixed", "knapsack", "astar")
