"""Durability under a real kill: SIGKILL a child mid-append, then recover.

A child process runs a seeded op script on a ``DurableService`` with
``fsync=True`` and prints each op's LSN once its call has returned.
The test kills the child with SIGKILL after a random number of those
acknowledgements and a random sub-millisecond delay, so the kill lands
at a random point, often inside an append.  Reopening the data
directory must recover an LSN prefix of the script holding at least
every acknowledged op, and its ``state_digest`` must equal that of an
uninterrupted in-process run of exactly that prefix.  One child runs at
a time.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.native import NativeBGPQ
from repro.serve.service import DurableService

N_OPS = 160
CHECKPOINT_EVERY = 16


def _queue():
    return NativeBGPQ(node_capacity=8, payload_width=1)


def _ops(seed: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    ops = []
    for op_id in range(N_OPS):
        if rng.random() < 0.6:
            keys = rng.integers(0, 1000, size=int(rng.integers(1, 20)))
            ops.append({"sid": "s0", "op_id": op_id, "kind": "insert",
                        "keys": keys, "pay": keys[:, None] * 3})
        else:
            ops.append({"sid": "s0", "op_id": op_id, "kind": "deletemin",
                        "count": int(rng.integers(1, 9))})
    return ops


def _child(data_dir: str, seed: int) -> None:
    """The killed process: apply the script, acknowledging each op."""
    with DurableService.open(_queue(), data_dir, fsync=True,
                             checkpoint_every=CHECKPOINT_EVERY) as svc:
        for op in _ops(seed):
            print(svc.apply(op)["lsn"], flush=True)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sigkilled_appender_recovers_an_acknowledged_prefix(tmp_path, seed):
    rng = np.random.default_rng(seed)
    acks_before_kill = int(rng.integers(1, N_OPS - 20))
    delay_s = float(rng.uniform(0, 0.001))
    data = tmp_path / "data"
    root = Path(__file__).resolve().parents[2]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(repro.__file__).resolve().parents[1]), str(root)])}
    child = subprocess.Popen(
        [sys.executable, "-c",
         "import sys; from tests.serve.test_service_kill import _child; "
         "_child(sys.argv[1], int(sys.argv[2]))", str(data), str(seed)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=root,
    )
    try:
        acked = 0
        while acked < acks_before_kill:
            line = child.stdout.readline()
            assert line, child.stderr.read().decode()
            acked = int(line)
        time.sleep(delay_s)
        child.kill()
        child.wait(timeout=30)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait(timeout=30)
        child.stdout.close()
        child.stderr.close()

    ops = _ops(seed)
    with DurableService.open(_queue(), data,
                             checkpoint_every=CHECKPOINT_EVERY) as back:
        recovered = back.wal.last_lsn
        assert acked <= recovered <= N_OPS
        assert [(r.sid, r.op_id) for r in back.wal.records()] == [
            (op["sid"], op["op_id"]) for op in ops[:recovered]]
        got = back.digest()
    with DurableService.open(_queue(), tmp_path / "oracle",
                             checkpoint_every=CHECKPOINT_EVERY) as oracle:
        for op in ops[:recovered]:
            oracle.apply(op)
        assert got == oracle.digest()
