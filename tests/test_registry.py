"""Run registry: append-only fold, artifacts, gc, env gating."""

import json

from repro.registry import REGISTRY_ENV, RunRegistry, registry_from_env


def test_open_finish_fold(tmp_path):
    reg = RunRegistry(tmp_path)
    run_id = reg.open_run("faults", config={"seeds": 3})
    assert reg.get(run_id)["status"] == "running"
    reg.finish(run_id, status="completed", summary={"failed": 0})
    record = reg.get(run_id)
    assert record["status"] == "completed"
    assert record["summary"] == {"failed": 0}
    assert record["config"] == {"seeds": 3}
    # the index holds both lines; the fold is last-wins
    assert len((tmp_path / RunRegistry.INDEX).read_text().splitlines()) == 2


def test_record_one_shot(tmp_path):
    reg = RunRegistry(tmp_path)
    run_id = reg.record("bench-micro", status="failed",
                        summary={"speedup": 0.5})
    assert reg.get(run_id)["status"] == "failed"


def test_finish_unknown_raises(tmp_path):
    import pytest

    with pytest.raises(KeyError):
        RunRegistry(tmp_path).finish("ghost-123")


def test_list_runs_newest_first_and_kind_filter(tmp_path):
    reg = RunRegistry(tmp_path)
    a = reg.record("faults")
    b = reg.record("serve")
    listed = reg.list_runs()
    assert [r["run_id"] for r in listed] == [b, a]
    assert [r["run_id"] for r in reg.list_runs(kind="serve")] == [b]


def test_get_by_unique_prefix(tmp_path):
    reg = RunRegistry(tmp_path)
    run_id = reg.record("trace")
    assert reg.get(run_id[:20])["run_id"] == run_id
    assert reg.get("no-such") is None
    # an ambiguous prefix resolves to nothing
    reg.record("trace")
    assert reg.get("trace-") is None


def test_torn_index_line_is_skipped(tmp_path):
    reg = RunRegistry(tmp_path)
    run_id = reg.record("faults")
    with open(reg.index_path, "a", encoding="utf-8") as fh:
        fh.write('{"run_id": "torn-')
    assert [r["run_id"] for r in reg.list_runs()] == [run_id]


def test_artifacts_land_in_run_dir(tmp_path):
    reg = RunRegistry(tmp_path)
    run_id = reg.open_run("serve")
    p1 = reg.add_artifact(run_id, "rows.json", [{"a": 1}])
    p2 = reg.add_artifact(run_id, "note.txt", "hello")
    p3 = reg.add_artifact(run_id, "blob.bin", b"\x00\x01")
    assert p1.parent == tmp_path / run_id
    assert json.loads(p1.read_text()) == [{"a": 1}]
    assert p2.read_text() == "hello"
    assert p3.read_bytes() == b"\x00\x01"


def test_gc_drops_oldest_and_their_artifacts(tmp_path):
    reg = RunRegistry(tmp_path)
    ids = [reg.record("faults") for _ in range(4)]
    reg.add_artifact(ids[0], "old.txt", "x")
    dropped = reg.gc(keep=2)
    assert set(dropped) == set(ids[:2])
    assert not (tmp_path / ids[0]).exists()
    assert [r["run_id"] for r in reg.list_runs()] == [ids[3], ids[2]]
    # survivors keep working: the rewritten index still folds and appends
    reg.finish(ids[3], status="failed")
    assert reg.get(ids[3])["status"] == "failed"


def test_gc_noop_under_keep(tmp_path):
    reg = RunRegistry(tmp_path)
    reg.record("faults")
    assert reg.gc(keep=5) == []


def test_gc_rejects_negative_keep(tmp_path, monkeypatch, capsys):
    import pytest

    from repro.cli import main

    reg = RunRegistry(tmp_path)
    ids = [reg.record("faults") for _ in range(2)]
    with pytest.raises(ValueError):
        reg.gc(keep=-1)
    monkeypatch.setenv(REGISTRY_ENV, str(tmp_path))
    with pytest.raises(SystemExit) as exc:
        main(["runs", "gc", "--keep", "-1"])
    assert exc.value.code == 2
    assert "argument --keep" in capsys.readouterr().err
    assert [r["run_id"] for r in reg.list_runs()] == ids[::-1]


def test_registry_from_env(tmp_path, monkeypatch):
    monkeypatch.setenv(REGISTRY_ENV, str(tmp_path / "custom"))
    reg = registry_from_env()
    assert reg is not None
    assert reg.root == tmp_path / "custom"
    monkeypatch.setenv(REGISTRY_ENV, "")
    assert registry_from_env() is None
