"""`repro serve` and `repro runs` CLI verbs, including registry wiring."""

import json

import pytest

from repro.cli import main
from repro.registry import REGISTRY_ENV, RunRegistry


@pytest.fixture(autouse=True)
def isolated_dirs(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "results"))
    monkeypatch.setenv(REGISTRY_ENV, str(tmp_path / "registry"))
    return tmp_path


SERVE_SMALL = ["serve", "--seeds", "2", "--sessions", "2", "--ops", "4"]


def test_serve_records_into_registry(isolated_dirs, capsys):
    assert main(SERVE_SMALL) == 0
    out = capsys.readouterr().out
    assert "survived" in out
    assert "[registry:" in out
    reg = RunRegistry(isolated_dirs / "registry")
    runs = reg.list_runs(kind="serve")
    assert len(runs) == 1
    assert runs[0]["status"] == "completed"
    assert runs[0]["summary"]["survived"] == 2
    art = isolated_dirs / "registry" / runs[0]["run_id"]
    assert (art / "serve_outcomes.json").exists()
    # the durable state itself is an artifact of the run
    assert (art / "data" / "seed-0" / "wal.bin").exists()


def test_serve_with_crash_faults(isolated_dirs, capsys):
    assert main(SERVE_SMALL + ["--faults"]) == 0
    out = capsys.readouterr().out
    assert "plan=crash" in out


def test_serve_sim_backend(isolated_dirs, capsys):
    # the flag is gone: argparse rejects it as a usage error
    with pytest.raises(SystemExit) as exc:
        main(SERVE_SMALL + ["--backend", "sim", "--faults", "mixed"])
    assert exc.value.code == 2
    assert "--backend" in capsys.readouterr().err


def test_serve_without_registry_uses_tempdir(isolated_dirs, monkeypatch,
                                             capsys):
    monkeypatch.setenv(REGISTRY_ENV, "")
    assert main(SERVE_SMALL) == 0
    assert "[registry:" not in capsys.readouterr().out


def test_runs_list_show_gc(isolated_dirs, capsys):
    assert main(SERVE_SMALL) == 0
    capsys.readouterr()

    assert main(["runs", "list"]) == 0
    out = capsys.readouterr().out
    assert "serve-" in out and "completed" in out

    run_id = RunRegistry(isolated_dirs / "registry").list_runs()[0]["run_id"]
    assert main(["runs", "show", run_id[:18]]) == 0
    out = capsys.readouterr().out
    shown = json.loads(out[: out.index("\nartifacts")])
    assert shown["run_id"] == run_id
    assert "serve_outcomes.json" in out

    assert main(["runs", "gc", "--keep", "0"]) == 0
    assert run_id in capsys.readouterr().out
    assert main(["runs", "list"]) == 0
    assert "no recorded runs" in capsys.readouterr().out


def test_runs_defaults_to_list(isolated_dirs, capsys):
    assert main(["runs"]) == 0
    assert "no recorded runs" in capsys.readouterr().out


def test_runs_show_needs_id(isolated_dirs, capsys):
    assert main(["runs", "show"]) == 2
    assert main(["runs", "show", "nope"]) == 2


def test_runs_unknown_target(isolated_dirs):
    assert main(["runs", "frobnicate"]) == 2


def test_runs_disabled_registry(isolated_dirs, monkeypatch):
    monkeypatch.setenv(REGISTRY_ENV, "")
    assert main(["runs", "list"]) == 2


def test_faults_cli_records_into_registry(isolated_dirs, capsys):
    assert main(["faults", "--queues", "bgpq", "--plans", "crash",
                 "--seeds", "1"]) == 0
    assert "[registry:" in capsys.readouterr().out
    runs = RunRegistry(isolated_dirs / "registry").list_runs(kind="faults")
    assert len(runs) == 1
    assert runs[0]["status"] == "completed"
