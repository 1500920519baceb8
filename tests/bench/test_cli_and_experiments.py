"""CLI and experiment-registry tests (tiny scaled runs)."""

import numpy as np
import pytest

from repro.bench import (
    fig6_blocks_sweep,
    fig6_capacity_sweep,
    table2_insdel,
)
from repro.cli import main


@pytest.fixture(autouse=True)
def tiny_scale(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_SCALE", str(1 << 15))  # 64M -> 2048 keys
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))


def test_cli_table1(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "BGPQ" in out and "Data Parallelism" in out


def test_cli_insdel_single_cell(capsys):
    assert main(["insdel", "--sizes", "1M", "--orders", "random"]) == 0
    out = capsys.readouterr().out
    assert "B/T" in out and "BGPQ" in out


def test_cli_rejects_unknown():
    with pytest.raises(SystemExit):
        main(["fancy"])


@pytest.mark.parametrize("target, flag, value, why", [
    ("native", "--bench-ks", "8,x", "comma-separated integers"),
    ("native", "--bench-ks", "1", "must be >= 2"),
    ("shard", "--shard-counts", "1,x", "comma-separated integers"),
    ("shard", "--shard-counts", "2,4", "include 1"),
])
def test_bench_rejects_bad_sweep_lists(target, flag, value, why, tmp_path,
                                       monkeypatch, capsys):
    """Bad sweep lists are usage errors (exit 2), never a traceback or
    a baseline written without the cells its gates need."""
    monkeypatch.setenv("REPRO_BENCH_WALL_BASELINE", str(tmp_path / "w.json"))
    monkeypatch.setenv("REPRO_BENCH_SHARD_BASELINE", str(tmp_path / "s.json"))
    with pytest.raises(SystemExit) as exc:
        main(["bench", target, flag, value, "--quick"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}" in err and why in err
    assert not any(tmp_path.glob("*.json"))


BAD_VALUES = [
    (["faults", "--seeds", "0"], "--seeds"),
    (["faults", "--queues", ","], "--queues"),
    (["faults", "--queues", ",", "--trace"], "--queues"),
    (["faults", "--queues", "bgpq,bogus"], "--queues"),
    (["faults", "--plans", ","], "--plans"),
    (["faults", "--threads", "0"], "--threads"),
    (["faults", "--ops", "0"], "--ops"),
    (["faults", "--capacity", "1"], "--capacity"),
    (["serve", "--seeds", "0"], "--seeds"),
    (["serve", "--capacity", "1"], "--capacity"),
    (["serve", "--sessions", "0"], "--sessions"),
    (["serve", "--faults", "bogus"], "--faults"),
    (["serve", "--window", "0"], "--window"),
    (["serve", "--budget", "0"], "--budget"),
    (["serve", "--checkpoint-every", "0"], "--checkpoint-every"),
    (["serve", "--checkpoint-every", "-3"], "--checkpoint-every"),
    (["trace", "--buckets", "0"], "--buckets"),
    (["trace", "--buckets", "-3"], "--buckets"),
    (["bench", "shard", "--quick", "--shard-sessions", "0"], "--shard-sessions"),
    (["metrics", "fleet", "--shard-requests", "0"], "--shard-requests"),
    (["metrics", "fleet", "--shard-k", "1"], "--shard-k"),
    (["insdel", "--sizes", "3Q"], "--sizes"),
    (["insdel", "--orders", "sideways"], "--orders"),
    (["faults", "--seed-base", "-5"], "--seed-base"),
    (["serve", "--seed-base", "-5"], "--seed-base"),
    (["trace", "--trace-seed", "-1"], "--trace-seed"),
    (["metrics", "--trace-seed", "-1"], "--trace-seed"),
    (["serve", "--admission-smoothing-ns", "-5"], "--admission-smoothing-ns"),
    (["serve", "--admission-smoothing-ns", "nan"], "--admission-smoothing-ns"),
    (["metrics", "fleet", "--admission-smoothing-ns", "inf"],
     "--admission-smoothing-ns"),
    (["metrics", "--slo-objective-ns", "-1"], "--slo-objective-ns"),
    (["metrics", "--slo-objective-ns", "nan"], "--slo-objective-ns"),
    (["runs", "trend", "--trend-min-points", "-1"], "--trend-min-points"),
    (["runs", "trend", "--trend-min-points", "1"], "--trend-min-points"),
    (["serve", "--max-backoffs", "-1"], "--max-backoffs"),
    (["runs", "trend", "--trend-tolerance", "nan"], "--trend-tolerance"),
    (["runs", "trend", "--trend-tolerance", "-1"], "--trend-tolerance"),
    (["runs", "trend", "--trend-tolerance", "1"], "--trend-tolerance"),
]


@pytest.mark.parametrize("argv, flag", BAD_VALUES,
                         ids=[" ".join(argv) for argv, _ in BAD_VALUES])
def test_cli_rejects_bad_values(argv, flag, tmp_path, monkeypatch, capsys):
    """Bad flag values are usage errors (exit 2) raised before any work
    runs: no zero-cell "success", no traceback, nothing written."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("REPRO_REGISTRY_DIR", str(tmp_path / "runs"))
    monkeypatch.setenv("REPRO_BENCH_SHARD_BASELINE", str(tmp_path / "s.json"))
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {flag}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_fig6_capacity_sweep_rows():
    rows = fig6_capacity_sweep(capacities=(32, 64), block_sizes=(128,), n_keys=2048)
    assert len(rows) == 2
    for r in rows:
        assert r["insert_ms"] > 0 and r["delete_ms"] > 0
        assert r["n_keys"] == 2048


def test_fig6_blocks_sweep_rows():
    rows = fig6_blocks_sweep(blocks_list=(1, 4), n_keys=2048)
    assert [r["blocks"] for r in rows] == [1, 4]
    # parallelism helps even at this tiny size
    assert rows[1]["insert_ms"] + rows[1]["delete_ms"] <= (
        rows[0]["insert_ms"] + rows[0]["delete_ms"]
    )


def test_table2_insdel_verify_mode():
    rows = table2_insdel(sizes=("1M",), orders=("random",), verify=True)
    assert len(rows) == 1
    r = rows[0]
    for q in ("TBB", "SprayList", "CBPQ", "LJSL", "P-Sync", "BGPQ"):
        assert r[q] > 0
    for ratio in ("B/T", "B/S", "B/C", "B/L", "B/P"):
        assert ratio in r
