"""End-to-end tests for `repro trace` and the --trace/--metrics flags.

These drive :func:`repro.cli.main` the way the CI smoke job does and
pin the acceptance criteria: the default workload produces nonzero
steal / pBuffer / root-refill counters, and the written Chrome trace
validates against the schema checker.
"""

import json

import pytest

from repro.cli import main
from repro.obs import validate_chrome_trace


@pytest.fixture
def results_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    return tmp_path


def test_trace_command_writes_valid_chrome_trace(results_dir, capsys):
    rc = main(["trace"])
    out = capsys.readouterr().out
    assert rc == 0
    path = results_dir / "trace_mixed.json"
    assert path.exists()
    assert validate_chrome_trace(path.read_text()) == []
    assert "collaboration counters" in out
    assert "utilization over" in out


def test_trace_default_workload_exercises_every_mechanism(results_dir, capsys):
    """The acceptance bar: steals, pBuffer hits, and root refills all
    fire on the *default* invocation, so the documented trace story
    actually shows the paper's collaboration machinery."""
    rc = main(["trace", "--metrics"])
    out = capsys.readouterr().out
    assert rc == 0
    metrics = json.loads(out[out.index("{"):])
    assert metrics["counter.collab_steals"] > 0
    assert metrics["counter.pbuffer_hits"] > 0
    assert metrics["counter.pbuffer_overflows"] > 0
    assert metrics["counter.root_refills"] > 0
    assert metrics["counter.sort_splits"] > 0
    assert metrics["counter.ops_done_insert"] > 0
    assert metrics["counter.ops_done_deletemin"] > 0


def test_trace_command_respects_trace_out(results_dir, tmp_path, capsys):
    out_file = tmp_path / "sub" / "custom.json"
    rc = main(["trace", "--trace-out", str(out_file)])
    capsys.readouterr()
    assert rc == 0
    assert out_file.exists()
    assert validate_chrome_trace(out_file.read_text()) == []


def test_faults_metrics_flag_aggregates_counters(results_dir, capsys):
    rc = main([
        "faults", "--queues", "bgpq", "--plans", "crash",
        "--seeds", "2", "--metrics",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "aggregate obs counters" in out
    saved = json.loads((results_dir / "faults.json").read_text())
    agg = saved["meta"]["obs_counters"]
    assert agg["counter.lock_acquisitions"] > 0
    assert agg["counter.ops_done_insert"] > 0


def test_faults_trace_flag_writes_valid_trace(results_dir, capsys):
    rc = main([
        "faults", "--queues", "bgpq", "--plans", "none",
        "--seeds", "1", "--trace",
    ])
    capsys.readouterr()
    assert rc == 0
    path = results_dir / "trace_faults.json"
    assert path.exists()
    assert validate_chrome_trace(path.read_text()) == []


def test_trace_analyze_writes_exact_deterministic_payload(results_dir, capsys):
    rc = main(["trace", "analyze"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "attribution exact" in out
    assert "top blocking edges" in out
    path = results_dir / "trace_analysis.json"
    payload = json.loads(path.read_text())
    assert payload["schema"] == "repro.obs.analysis/v1"
    assert payload["attribution_exact"] is True
    first = path.read_bytes()
    assert main(["trace", "analyze"]) == 0
    capsys.readouterr()
    assert path.read_bytes() == first


def test_trace_flame_writes_valid_collapsed_stacks(results_dir, capsys):
    from repro.obs import validate_collapsed

    rc = main(["trace", "flame"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "flamegraph (total thread-time" in out
    text = (results_dir / "trace_flame.txt").read_text()
    assert validate_collapsed(text) == []
    assert "root_serialization" in text


def test_trace_output_dir_redirects_artifacts(results_dir, tmp_path, capsys):
    out_dir = tmp_path / "elsewhere"
    for verb, artifact in (
        ("analyze", "trace_analysis.json"),
        ("flame", "trace_flame.txt"),
    ):
        rc = main(["trace", verb, "--output-dir", str(out_dir)])
        capsys.readouterr()
        assert rc == 0
        assert (out_dir / artifact).exists()
        assert not (results_dir / artifact).exists()


def test_trace_diff_names_top_regressor(results_dir, capsys):
    main(["trace", "analyze"])
    a = results_dir / "a.json"
    (results_dir / "trace_analysis.json").rename(a)
    main(["trace", "analyze", "--trace-seed", "2"])
    capsys.readouterr()
    b = results_dir / "trace_analysis.json"
    rc = main(["trace", "diff", str(a), str(b)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "top regressor:" in out
    assert "root_serialization" in out


def test_trace_diff_malformed_input_exits_2_without_traceback(
    results_dir, tmp_path, capsys
):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = main(["trace", "diff", str(bad), str(bad)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "not valid JSON" in err

    mismatched = tmp_path / "old.json"
    mismatched.write_text(json.dumps({"schema": "other/v0"}))
    rc = main(["trace", "diff", str(mismatched), str(mismatched)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "does not match" in err

    rc = main(["trace", "diff", str(bad)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "exactly two" in err


def test_trace_unknown_target_exits_2(results_dir, capsys):
    rc = main(["trace", "bogus"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "unknown trace target" in err


def test_version_flag_reports_package_version(capsys):
    from repro._version import __version__

    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_faults_metrics_aggregates_critical_path(results_dir, capsys):
    rc = main([
        "faults", "--queues", "bgpq", "--plans", "none",
        "--seeds", "1", "--metrics",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "critical-path attribution" in out
    saved = json.loads((results_dir / "faults.json").read_text())
    phases = saved["meta"]["critical_path_ns"]
    assert phases["root_serialization"] > 0
    assert saved["meta"]["critical_path_cells"] == 1


def test_trace_seed_changes_the_run(results_dir, capsys):
    main(["trace", "--metrics", "--trace-seed", "1"])
    out1 = capsys.readouterr().out
    main(["trace", "--metrics", "--trace-seed", "2"])
    out2 = capsys.readouterr().out
    m1 = json.loads(out1[out1.index("{"):])
    m2 = json.loads(out2[out2.index("{"):])
    assert m1 != m2
    assert m1["counter.ops_done_insert"] == m2["counter.ops_done_insert"]
