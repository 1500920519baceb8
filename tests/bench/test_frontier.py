"""Frontier bench: payload structure, determinism, gates, CLI exits."""

import json

from repro.bench.frontier import (
    FRONTIER_POLICIES,
    FRONTIER_WIDTHS,
    LANE,
    frontier_gate_problems,
    run_frontier,
)
from repro.bench.reporting import compare_to_baseline

from .conftest import TINY_FRONTIER


def test_payload_structure(frontier_results):
    r = frontier_results
    assert r["benchmark"] == "frontier"
    assert r["meta"]["widths"] == [1, 2]
    assert r["base_keys_per_us"] > 0
    assert len(r["rows"]) == 4  # 2 policies x 2 widths
    for row in r["rows"]:
        assert row["shards"] > 1
        assert row["keys_per_us"] > 0
        assert row["minimal_k"] <= row["relax_budget"]
        assert row["relax_ok"] and row["audit_ok"]
    assert set(r["speedups"]) == {
        "frontier/hash-w1", "frontier/hash-w2",
        "frontier/shortest-w1", "frontier/shortest-w2",
    }
    assert r["zero_alloc"] == {}  # comparator compatibility
    assert r["elastic"]["grows"] >= 1
    assert r["elastic"]["relax_ok"] and r["elastic"]["audit_ok"]


def test_sweep_is_bit_deterministic(frontier_results):
    again = run_frontier(**TINY_FRONTIER)
    strip = lambda d: {k: v for k, v in d.items()
                       if k not in ("recorded_at", "meta")}
    assert json.dumps(strip(again), sort_keys=True, default=str) == json.dumps(
        strip(frontier_results), sort_keys=True, default=str
    )


def test_quick_clamps_the_grid():
    r = run_frontier(widths=(1, 2, 4), policies=("hash",), k=64,
                     sessions=64, requests=16, quick=True)
    assert r["meta"]["quick"]
    assert r["meta"]["sessions"] <= 16 and r["meta"]["requests"] <= 8
    assert max(r["meta"]["widths"]) <= 2  # width 4 clamped away


def test_gate_flags_verification_failures(frontier_results):
    assert frontier_gate_problems(frontier_results) == []
    broken = json.loads(json.dumps(frontier_results))
    broken["rows"][0]["relax_ok"] = False
    assert any("k-relaxed" in p for p in frontier_gate_problems(broken))
    unaudited = json.loads(json.dumps(frontier_results))
    unaudited["rows"][1]["audit_ok"] = False
    assert any("audit" in p for p in frontier_gate_problems(unaudited))
    stuck = json.loads(json.dumps(frontier_results))
    stuck["elastic"]["grows"] = 0
    assert any("never grew" in p for p in frontier_gate_problems(stuck))


def test_gating_reuses_micro_comparator(frontier_results):
    doctored = json.loads(json.dumps(frontier_results))
    doctored["speedups"] = {k: v * 10 for k, v in doctored["speedups"].items()}
    assert compare_to_baseline(frontier_results, doctored)
    assert compare_to_baseline(frontier_results, frontier_results) == []


def test_baseline_path_env_override(monkeypatch, tmp_path):
    target = tmp_path / "other.json"
    monkeypatch.setenv("REPRO_BENCH_FRONTIER_BASELINE", str(target))
    assert LANE.baseline_path() == target


def test_cli_bench_frontier_exit_codes(tmp_path, monkeypatch, capsys):
    from repro.cli import main

    monkeypatch.setenv(
        "REPRO_BENCH_FRONTIER_BASELINE", str(tmp_path / "BENCH_frontier.json")
    )
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "results"))
    args = ["bench", "frontier", "--quick", "--shard-k", "64",
            "--shard-sessions", "16", "--shard-requests", "8"]
    # first run: no baseline yet -> writes it, exits 0
    assert main(args) == 0
    assert (tmp_path / "BENCH_frontier.json").exists()
    capsys.readouterr()
    # a doctored baseline makes the drift gate fail and saves the delta
    doctored = json.loads((tmp_path / "BENCH_frontier.json").read_text())
    doctored["speedups"] = {k: v * 10 for k, v in doctored["speedups"].items()}
    (tmp_path / "BENCH_frontier.json").write_text(json.dumps(doctored))
    assert main(args) == 1
    out = capsys.readouterr().out
    assert "bench frontier: GATE FAILED" in out
    assert (tmp_path / "results" / "bench_frontier_delta.txt").exists()
    # --update-baseline rewrites and exits 0 again
    assert main(args + ["--update-baseline"]) == 0


def test_committed_baseline_matches_schema():
    """The repo-root BENCH_frontier.json is a real payload of this bench."""
    base = json.loads(LANE.baseline_path().read_text())
    assert base["benchmark"] == "frontier"
    assert base["meta"]["widths"] == list(FRONTIER_WIDTHS)
    assert base["meta"]["policies"] == list(FRONTIER_POLICIES)
    assert len(base["rows"]) == len(FRONTIER_WIDTHS) * len(FRONTIER_POLICIES)
    assert frontier_gate_problems(base) == []
    # load-aware placement dominates hash on the committed skewed sweep
    sp = base["speedups"]
    best_blind = max(v for k, v in sp.items() if k.startswith("frontier/hash"))
    best_aware = max(v for k, v in sp.items()
                     if k.startswith(("frontier/shortest", "frontier/d-choice")))
    assert best_aware > best_blind


def test_default_constants():
    assert FRONTIER_WIDTHS == (1, 2, 4)
    assert FRONTIER_POLICIES == ("hash", "spray", "shortest", "d-choice")
