"""Accounting differential: the integer tick clock vs a Fraction oracle.

``NativeBGPQ`` keeps its simulated clock as one ``int`` counting ticks
of 2**-1074 ns and memoizes the tick value of every repeating charge
shape.  The oracle here is independent of both: a *recording* queue
logs the float value of every charge it makes (its charge table never
memoizes, and its plain ``_charge`` is wrapped), and the clock of an
ordinary queue driven through the same script must equal the plain
``Fraction`` sum of those floats — on the fused C path and the NumPy
path, which charges every step in place rather than from a kernel's
charge log, and across an export/restore.  A fixed script pins the
exact clock value and the exported state digest themselves.

The per-op deltas the durable service and the fleet shards report
must equal the float of the exact clock's difference around each call.
"""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import native
from repro.core.native import TICKS_PER_NS, NativeBGPQ
from repro.device import GpuContext
from repro.primitives import kernels
from repro.serve.checkpoint import state_digest
from repro.serve.service import DurableService

from ..fleet.test_sharded import fleet
from ..serve.test_service_recovery import _script as serve_script

K = 8

PATHS = [
    pytest.param(
        "cext", id="cext-fused",
        marks=pytest.mark.skipif(
            "cext" not in kernels.available_backends(),
            reason="C core unavailable",
        ),
    ),
    pytest.param("numpy", id="numpy-arena"),
]


class _NeverStores(dict):
    """A memo dict that forgets every entry it is given."""

    def __setitem__(self, key, value):
        pass


class _RecordingCharges(native._ChargeTicks):
    """Charge table that never memoizes: every lookup logs its float,
    and the whole-log memo never stores, so each log is summed here."""

    __slots__ = ("log",)

    def __init__(self, model, k, log):
        super().__init__(model, k)
        self.log = log
        self.logs = _NeverStores()

    def __getitem__(self, entry):
        ns = self.charge_ns(entry)
        self.log.append(ns)
        return native._ticks(ns)


def _record(pq: NativeBGPQ, log: list) -> NativeBGPQ:
    """Make ``pq`` append every float charge it makes to ``log``."""
    plain = pq._charge

    def charge(ns):
        log.append(ns)
        plain(ns)

    pq._charge = charge
    pq._charges = _RecordingCharges(pq.model, pq.k, log)
    return pq


def _queue(kern, payload_width):
    pq = NativeBGPQ(
        node_capacity=K, ctx=GpuContext.default(),
        kernels=kern, payload_width=payload_width,
    )
    if kern == "cext":
        assert pq.kernel_provenance()["fused_active"]
    return pq


def _apply(pq: NativeBGPQ, op, seq: int) -> None:
    kind, arg = op
    if kind == "deletemin":
        pq.deletemin(arg)
        return
    keys = np.asarray(arg, dtype=np.int64)
    pay = None
    if pq.payload_width:
        pay = np.stack([keys, np.arange(seq, seq + keys.size)], axis=1)
    if kind == "insert":
        pq.insert(keys, payload=pay)
    else:
        pq.insert_bulk(keys, payload=pay)


_keys = st.integers(-(2**40), 2**40)
_ops = st.lists(
    st.one_of(
        st.lists(_keys, min_size=1, max_size=K).map(lambda ks: ("insert", ks)),
        st.lists(_keys, min_size=1, max_size=6 * K).map(lambda ks: ("bulk", ks)),
        st.integers(1, K).map(lambda c: ("deletemin", c)),
    ),
    max_size=50,
)


def _assert_matches_oracle(pq: NativeBGPQ, charges: list) -> None:
    exact = sum((Fraction(c) for c in charges), Fraction(0))
    assert pq.sim_time_ns_exact == exact
    assert pq.sim_time_ns == float(exact)
    assert pq.sim_ticks == exact * TICKS_PER_NS


@pytest.mark.parametrize("kern", PATHS)
@given(script=_ops, payload_width=st.sampled_from([0, 2]))
@settings(max_examples=40, deadline=None)
def test_clock_equals_fraction_sum_of_charges(kern, script, payload_width):
    charges: list = []
    rec = _record(_queue(kern, payload_width), charges)
    pq = _queue(kern, payload_width)
    seq = 0
    for op in script:
        for q in (rec, pq):
            _apply(q, op, seq)
        seq += 0 if op[0] == "deletemin" else len(op[1])
        _assert_matches_oracle(pq, charges)
    assert rec.export_state() == pq.export_state()


@pytest.mark.parametrize("kern", PATHS)
@given(script=_ops, cut=st.integers(0, 50))
@settings(max_examples=25, deadline=None)
def test_clock_survives_restore_mid_sequence(kern, script, cut):
    charges: list = []
    rec = _record(_queue(kern, 0), charges)
    pq = _queue(kern, 0)
    for i, op in enumerate(script):
        if i == cut:
            state = json.loads(json.dumps(pq.export_state()))
            pq = _queue(kern, 0)
            pq.restore_state(state)
            _assert_matches_oracle(pq, charges)
        _apply(rec, op, 0)
        _apply(pq, op, 0)
    _assert_matches_oracle(pq, charges)
    assert pq.export_state() == rec.export_state()


def _fixed_script():
    rng = np.random.default_rng(2021)
    ops = []
    for _ in range(300):
        r = rng.random()
        if r < 0.3:
            keys = rng.integers(0, 1 << 30, int(rng.integers(1, 17)))
            ops.append(("insert", keys))
        elif r < 0.45:
            ops.append(("bulk", rng.integers(0, 1 << 30, int(rng.integers(1, 70)))))
        else:
            ops.append(("deletemin", int(rng.integers(1, 17))))
    return ops


@pytest.mark.parametrize("kern", PATHS)
def test_fixed_script_clock_is_pinned(kern):
    """A golden clock: any change to a charge formula, or to which
    steps charge, moves the exact sum (and the exported digest)."""
    pq = NativeBGPQ(node_capacity=16, ctx=GpuContext.default(),
                    kernels=kern, payload_width=1)
    pq.insert_bulk(np.arange(100, 0, -1), payload=np.arange(100))
    for kind, arg in _fixed_script():
        if kind == "deletemin":
            pq.deletemin(arg)
        elif kind == "insert":
            pq.insert(arg, payload=arg)
        else:
            pq.insert_bulk(arg, payload=arg)
    assert str(pq.sim_time_ns_exact) == (
        "39430609548957126733/17592186044416"
    )
    assert repr(pq.sim_time_ns) == "2241370.6545283464"
    assert state_digest(pq.export_state()) == (
        "c12527742aa794043065a0c57a838fc75af1c9407b3bf46e5c604b0cdaa8a4af"
    )


@given(st.floats(min_value=0, allow_nan=False, allow_infinity=False))
def test_every_float_is_a_whole_number_of_ticks(ns):
    ticks = native._ticks(ns)
    assert Fraction(ticks, TICKS_PER_NS) == Fraction(ns)
    assert ticks / TICKS_PER_NS == ns


@given(st.lists(st.floats(min_value=0, max_value=1e12, allow_nan=False)))
def test_tick_division_rounds_like_fraction(charges):
    ticks = sum(native._ticks(c) for c in charges)
    exact = sum((Fraction(c) for c in charges), Fraction(0))
    assert ticks / TICKS_PER_NS == float(exact)


# -- per-op deltas reported above the queue ---------------------------------

@pytest.mark.parametrize("seed", [7, 11])
def test_service_cost_ns_is_exact_clock_delta(tmp_path, seed):
    q = NativeBGPQ(node_capacity=4, ctx=GpuContext.default())
    svc = DurableService.open(q, tmp_path)
    charged = 0
    for op in serve_script(n_ops=60, seed=seed):
        before = q.sim_time_ns_exact
        resp = svc.apply(op)
        after = q.sim_time_ns_exact
        assert resp["cost_ns"] == float(after - before)
        charged += resp["cost_ns"] > 0
    svc.close()
    assert charged > 0


def test_shard_op_ns_is_exact_clock_delta():
    f = fleet(n=2, k=K)
    rng = np.random.default_rng(3)
    for shard in f.shards:
        for _ in range(80):
            before = shard.pq.sim_time_ns_exact
            if rng.random() < 0.6:
                keys = rng.integers(0, 1000, int(rng.integers(1, 2 * K)))
                ns = shard.insert(keys)
            else:
                _, ns = shard.deletemin(int(rng.integers(1, K + 1)))
            assert ns == float(shard.pq.sim_time_ns_exact - before)
            assert ns > 0
