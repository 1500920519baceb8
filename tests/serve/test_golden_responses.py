"""Golden service responses: every response and the final state, pinned.

A fixed script inserts, deletes and re-sends ops against a
``DurableService`` at payload widths 0 and 2, then reopens the data
directory and sends one already-applied op (a dedupe hit answered from
the recovered journal) and one new insert.  The sha256 of each
response's ``repr`` pins its exact shape and types (``[]`` versus a
list of empty payload rows, a Python ``int`` versus a NumPy scalar, key
order); ``state_digest`` pins the queue left behind.  The pins were
taken before the journal moved from JSON lines to binary frames, so a
change to the journal's encoding that leaks into what clients see fails
here.
"""

import hashlib

import numpy as np
import pytest

from repro.core.native import NativeBGPQ
from repro.device.kernels import GpuContext
from repro.serve.service import DurableService


def _queue(width):
    return NativeBGPQ(node_capacity=8, ctx=GpuContext.default(),
                      payload_width=width)


def _requests(width):
    """Inserts (some wider than k), deletemins (one past empty) and
    re-sends of both kinds, all from two sessions."""
    rng = np.random.default_rng(11)
    reqs = []
    for op_id in range(24):
        sid = f"s{op_id % 2}"
        if op_id in (5, 13):  # re-send the op before this one
            reqs.append(dict(reqs[-1]))
            continue
        if op_id % 3 == 2:
            reqs.append({"sid": sid, "op_id": op_id, "kind": "deletemin",
                         "count": int(rng.integers(1, 9))})
            continue
        keys = rng.integers(-50, 50, size=int(rng.integers(1, 13)))
        req = {"sid": sid, "op_id": op_id, "kind": "insert", "keys": keys}
        if width:
            req["pay"] = rng.integers(0, 1000, size=(keys.size, width))
        reqs.append(req)
    reqs += [{"sid": "s1", "op_id": 100 + i, "kind": "deletemin", "count": 8}
             for i in range(10)]  # drain the queue, the last one past empty
    return reqs


def _digest(resp) -> str:
    return hashlib.sha256(repr(resp).encode()).hexdigest()


def _run(tmp_path, width):
    """Per-response digests of the script, then of the two post-reopen
    requests, and the final state digest."""
    svc = DurableService.open(_queue(width), tmp_path, checkpoint_every=5)
    reqs = _requests(width)
    got = [_digest(svc.apply(r)) for r in reqs]
    svc.close()
    back = DurableService.open(_queue(width), tmp_path, checkpoint_every=5)
    got.append(_digest(back.apply(reqs[2])))  # dedupe hit after recovery
    keys = np.array([7, -3, 7], dtype=np.int64)
    pay = np.arange(3 * width).reshape(3, width) if width else None
    got.append(_digest(back.apply_insert("s2", 0, keys, pay)))
    final = back.digest()
    back.close()
    return got, final


# per payload width: the first 16 hex digits of each response's
# sha256, in request order, and the final state_digest
GOLDEN = {
    0: ([
        'bce08833dcffde5f', 'adfa57049a46adc1', '78e6df3a5a7fd7a5', '7965807c40906a9a',
        'f92cecf641c3c247', 'f92cecf641c3c247', '939bef2191456ca0', '15bc9c11337f1983',
        '53959dbf56d265d1', '7b2c06c145aba75a', 'e29d8f2e4ff6b312', '59c0c9ca2f5b3738',
        'b514b6ea7305e3d5', 'b514b6ea7305e3d5', 'a2f7f3465366a49b', 'da4e1d3b295a462a',
        'bdb4a72ae77e17ed', 'b90d90d9d96ba63c', 'b6ad24d1c117a266', 'e45db4c43cba549a',
        '6e706c70a2c162fa', '4f6eaee4e0d3ddf2', '67d606a93ee9ebf5', '21951a996d40adbb',
        'fe0c9aba5ced4872', 'f9c8808fc9699f13', '236e32693b1102d1', '56339fa97d94a220',
        '55e3555141948015', '9e5604fd57489b54', '7bdbd1e99f6047de', 'ee75b2d13760b60d',
        'b4eac2261b704b54', '58ae71097b23d6f5', '7954b4dae158cbab', 'e7ddcba8a34cf440',
    ], "2c6894e9bd745acb2575ae68e8b4ffaa28bb325c75ad47ee845f6ab2faf44dd6"),
    2: ([
        'bce08833dcffde5f', '797cc5f32d798dae', '9ac41c620739f6f2', '1595467a2401df11',
        '72f22d3c3b78d2e7', '72f22d3c3b78d2e7', '0b4810872e7ba597', 'f4d7af75b45cc230',
        '24cfba7a73fdc9d3', 'adeb6f11d49f3c52', '3b2aada696b98db8', '1ac700c83a12baa6',
        '5eb887cb5635a7ca', '5eb887cb5635a7ca', 'a2d35fac776fd45e', 'a21433c076caf897',
        '8b39f89544050c22', '66b28d4df19f563a', 'bfe847064c17bc38', '6695aa36e3980eea',
        'f68c3b029a1a702f', 'c7f88bfcc247eb16', 'a2f50870788e90ae', '2854b7458e5155cf',
        'a7f08a8677102de2', '36d7d883210fe8d1', 'be06933eb2e849a7', '688c6d7ae6a5d29e',
        '53aafd8c10ffd849', 'f9bbd0d7af587d81', 'd19507b8c9ec3f7d', '6eff10f3b2cc46d3',
        '5b355e10ee4bfa7d', '58ae71097b23d6f5', '402e3c91e114148b', 'e7ddcba8a34cf440',
    ], "b5034579bc3bd178075239b9df19418000fd4e9295511145702af06e6150dac6"),
}


@pytest.mark.parametrize("width", sorted(GOLDEN))
def test_responses_and_final_state_match_golden(tmp_path, width):
    got, final = _run(tmp_path, width)
    assert [d[:16] for d in got] == GOLDEN[width][0]
    assert final == GOLDEN[width][1]
