"""DurableService: recovery equals the uninterrupted run, at every cut.

The central claim of the durability design: a crash after *any*
journaled op recovers to byte-identical state (``state_digest``) vs a
run that never crashed.  The battery simulates the crash by abandoning
the service object mid-history and re-opening the data dir with a
fresh queue — exactly what the serve supervisor does.
"""

import os
import stat

import numpy as np
import pytest

from repro.core.native import NativeBGPQ
from repro.errors import ConfigurationError, DurabilityError
from repro.serve.checkpoint import CheckpointStore
from repro.serve.service import DurableService
from repro.serve.wal import WriteAheadLog, _frame

from .conftest import frame_spans


def _queue(payload_width=0):
    return NativeBGPQ(node_capacity=4, payload_width=payload_width)


def _script(n_ops=20, seed=7):
    rng = np.random.default_rng(seed)
    ops = []
    for i in range(n_ops):
        if rng.random() < 0.6:
            keys = rng.integers(0, 100, size=int(rng.integers(1, 5))).tolist()
            ops.append({"sid": "s0", "op_id": i, "kind": "insert",
                        "keys": keys})
        else:
            ops.append({"sid": "s0", "op_id": i, "kind": "deletemin",
                        "count": int(rng.integers(1, 5))})
    return ops


def _oracle_digests(ops, tmp_path, checkpoint_every=4):
    """Run uninterrupted; digest after each op."""
    svc = DurableService.open(_queue(), tmp_path / "oracle",
                              checkpoint_every=checkpoint_every)
    digests = []
    for op in ops:
        svc.apply(op)
        digests.append(svc.digest())
    svc.close()
    return digests


@pytest.mark.parametrize("checkpoint_every", [1, 4, 100])
def test_recovery_is_byte_identical_at_every_cut(tmp_path, checkpoint_every):
    ops = _script()
    digests = _oracle_digests(ops, tmp_path, checkpoint_every)
    for cut in range(1, len(ops) + 1):
        data = tmp_path / f"cut-{checkpoint_every}-{cut}"
        svc = DurableService.open(_queue(), data,
                                  checkpoint_every=checkpoint_every)
        for op in ops[:cut]:
            svc.apply(op)
        svc.close()  # crash: the in-memory service is abandoned here
        recovered = DurableService.open(_queue(), data,
                                        checkpoint_every=checkpoint_every)
        assert recovered.digest() == digests[cut - 1], (
            f"cut={cut} ckpt_every={checkpoint_every}"
        )
        assert not recovered.recovery_info["fresh"]
        recovered.close()


def test_recovery_with_payloads(tmp_path):
    svc = DurableService.open(_queue(payload_width=2), tmp_path,
                              checkpoint_every=3)
    keys = np.array([9, 2, 5, 2], dtype=np.int64)
    svc.apply_insert("s0", 0, keys, pay=np.stack([keys * 2, keys * 3], axis=1))
    resp = svc.apply_deletemin("s0", 1, 2)
    assert resp["keys"] == [2, 2]
    assert sorted(resp["pay"]) == [[4, 6], [4, 6]]
    digest = svc.digest()
    svc.close()
    recovered = DurableService.open(_queue(payload_width=2), tmp_path)
    assert recovered.digest() == digest
    recovered.close()


def test_dedupe_makes_apply_idempotent(tmp_path):
    svc = DurableService.open(_queue(), tmp_path)
    first = svc.apply_insert("s0", 0, [4, 1])
    again = svc.apply_insert("s0", 0, [4, 1])
    assert again is first
    assert len(svc.wal) == 1  # the retransmit was not re-journaled
    got = svc.apply_deletemin("s0", 1, 2)
    assert svc.apply_deletemin("s0", 1, 2) is got
    svc.close()


def test_dedupe_survives_recovery(tmp_path):
    svc = DurableService.open(_queue(), tmp_path)
    svc.apply_insert("s0", 0, [4, 1])
    first = svc.apply_deletemin("s0", 1, 1)
    svc.close()
    recovered = DurableService.open(_queue(), tmp_path)
    replayed = recovered.apply_deletemin("s0", 1, 1)
    assert replayed["keys"] == first["keys"] == [1]
    assert len(recovered.wal) == 2  # no duplicate journal entry
    assert len(recovered.queue) == 1  # the key was not deleted twice
    recovered.close()


def _rewrite_frame(data_dir, index, *fields):
    """Replace the ``index``-th WAL frame by a valid frame of ``fields``
    (``_frame``'s arguments), so the reader accepts it and replay must
    judge its contents."""
    wal_path = data_dir / WriteAheadLog.FILENAME
    raw = wal_path.read_bytes()
    start, end = frame_spans(raw)[index]
    wal_path.write_bytes(raw[:start] + _frame(*fields)[0] + raw[end:])


def test_replay_divergence_raises(tmp_path):
    svc = DurableService.open(_queue(), tmp_path)
    svc.apply_insert("s0", 0, [4, 1, 9])
    svc.apply_deletemin("s0", 1, 1)
    svc.close()
    # tamper: rewrite the journaled deletemin result to a wrong key
    _rewrite_frame(tmp_path, 1, 2, "s0", 1, "deletemin", 1,
                   np.array([999]), np.empty((1, 0), np.int64), 0)
    with pytest.raises(DurabilityError, match="replay diverged"):
        DurableService.open(_queue(), tmp_path)


@pytest.mark.parametrize("field, value", [
    ("keys", {"keys": np.array([4, 1], np.int32)}),  # another int width
    ("keys", {"keys": np.array([4.0, 1.0])}),  # floats for int64 keys
    ("keys", {"keys": np.array([4, 1], np.uint64)}),  # unsigned
    ("pay", {"pay": np.array([[8, 0], [2, 0]])}),  # two columns, not one
])
def test_replay_rejects_malformed_insert_record(tmp_path, field, value):
    """A CRC-valid insert whose keys or payload do not have the queue's
    dtype and width raises DurabilityError naming its LSN."""
    svc = DurableService.open(_queue(payload_width=1), tmp_path)
    svc.apply_insert("s0", 0, [4, 1], pay=[[8], [2]])
    svc.apply_insert("s0", 1, [7], pay=[[14]])
    svc.close()
    arrays = {"keys": np.array([4, 1]), "pay": np.array([[8], [2]]), **value}
    _rewrite_frame(tmp_path, 0, 1, "s0", 0, "insert", 0,
                   arrays["keys"], arrays["pay"], 0)
    with pytest.raises(DurabilityError, match="lsn=1: insert"):
        DurableService.open(_queue(payload_width=1), tmp_path)


def test_replay_rejects_a_deletemin_count_past_k(tmp_path):
    svc = DurableService.open(_queue(), tmp_path)
    svc.apply_insert("s0", 0, [4, 1])
    svc.apply_deletemin("s0", 1, 2)
    svc.close()
    _rewrite_frame(tmp_path, 1, 2, "s0", 1, "deletemin", 5,
                   np.array([1, 4]), np.empty((2, 0), np.int64), 0)
    with pytest.raises(DurabilityError, match="lsn=2: deletemin"):
        DurableService.open(_queue(), tmp_path)


def test_checkpoint_bounds_replay(tmp_path):
    svc = DurableService.open(_queue(), tmp_path, checkpoint_every=4)
    for i in range(10):
        svc.apply_insert("s0", i, [i])
    svc.close()
    recovered = DurableService.open(_queue(), tmp_path, checkpoint_every=4)
    info = recovered.recovery_info
    assert info["ckpt_lsn"] == 8
    assert info["replayed"] == 2  # only the post-checkpoint suffix
    recovered.close()


def _corrupt_every_checkpoint(data_dir):
    paths = sorted(data_dir.glob("ckpt-*.bin"))
    assert paths
    for path in paths:
        path.write_bytes(path.read_bytes()[:-40])  # half-written saves


def test_all_checkpoints_corrupt_replays_full_wal(tmp_path):
    """The WAL still starts at LSN 1, so a full replay is a safe state."""
    ops = _script()
    digests = _oracle_digests(ops, tmp_path, checkpoint_every=4)
    data = tmp_path / "data"
    svc = DurableService.open(_queue(), data, checkpoint_every=4)
    for op in ops:
        svc.apply(op)
    svc.close()
    _corrupt_every_checkpoint(data)
    recovered = DurableService.open(_queue(), data, checkpoint_every=4)
    assert recovered.digest() == digests[-1]
    info = recovered.recovery_info
    assert info["ckpt_lsn"] == 0 and info["replayed"] == len(ops)
    assert not info["fresh"]
    recovered.close()


def test_all_checkpoints_corrupt_without_wal_head_raises(tmp_path):
    """A WAL missing LSN 1 cannot rebuild the state from empty."""
    svc = DurableService.open(_queue(), tmp_path, checkpoint_every=4)
    for i in range(10):
        svc.apply_insert("s0", i, [i])
    svc.close()
    _corrupt_every_checkpoint(tmp_path)
    wal_path = tmp_path / WriteAheadLog.FILENAME
    raw = wal_path.read_bytes()
    wal_path.write_bytes(raw[frame_spans(raw)[0][1]:])  # log starts at LSN 2
    with pytest.raises(DurabilityError, match="integrity"):
        DurableService.open(_queue(), tmp_path, checkpoint_every=4)


@pytest.mark.parametrize("every, keep", [(0, 2), (-3, 2), (4, 0), (4, -1)])
def test_open_rejects_non_positive_cadence_or_keep(tmp_path, every, keep):
    """A checkpoint cadence or retention below 1 is refused, not clamped,
    so no caller can record a value the service did not use."""
    with pytest.raises(ConfigurationError):
        DurableService.open(_queue(), tmp_path, checkpoint_every=every,
                            keep_checkpoints=keep)
    with pytest.raises(ConfigurationError):
        DurableService(_queue(), None, CheckpointStore(tmp_path, keep=keep),
                       checkpoint_every=every)


def test_audit_uses_wal_as_ledger(tmp_path):
    svc = DurableService.open(_queue(), tmp_path)
    svc.apply_insert("s0", 0, [7, 3, 7])
    svc.apply_deletemin("s0", 1, 2)
    report = svc.audit(context="unit")
    assert report.ok, report.problems
    assert "conservation" in report.checks_run
    assert "arena" in report.checks_run
    svc.close()


def test_fresh_dir_is_fresh(tmp_path):
    svc = DurableService.open(_queue(), tmp_path)
    assert svc.recovery_info == {
        "fresh": True, "ckpt_lsn": 0, "replayed": 0,
        "digest": svc.recovery_info["digest"],
    }
    assert len(svc.queue) == 0
    svc.close()


def _record_fsyncs(monkeypatch) -> list[tuple[int, bool]]:
    """Patch ``os.fsync`` to log ``(inode, is_dir)`` of every synced fd."""
    calls: list[tuple[int, bool]] = []
    real = os.fsync

    def spy(fd):
        st = os.fstat(fd)
        calls.append((st.st_ino, stat.S_ISDIR(st.st_mode)))
        real(fd)

    monkeypatch.setattr(os, "fsync", spy)
    return calls


def test_fsync_syncs_checkpoint_file_then_directory(tmp_path, monkeypatch):
    calls = _record_fsyncs(monkeypatch)
    svc = DurableService.open(_queue(), tmp_path, checkpoint_every=4,
                              fsync=True)
    for op in _script():
        svc.apply(op)
    svc.close()
    ckpts = svc.checkpoints._checkpoint_paths()
    assert ckpts
    dir_syncs = [i for i, c in enumerate(calls)
                 if c == (os.stat(tmp_path).st_ino, True)]
    for path in ckpts:
        # rename keeps the inode, so the synced temp file is this file
        at = calls.index((os.stat(path).st_ino, False))
        assert any(i > at for i in dir_syncs), path.name


def test_no_fsync_when_fsync_is_off(tmp_path, monkeypatch):
    calls = _record_fsyncs(monkeypatch)
    svc = DurableService.open(_queue(), tmp_path, checkpoint_every=4)
    for op in _script():
        svc.apply(op)
    svc.close()
    assert svc.checkpoints._checkpoint_paths()
    assert calls == []
