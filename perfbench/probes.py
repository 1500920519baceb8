"""Wall-clock probes the traced pass attaches from outside the program.

Nothing here edits ``repro``: a :class:`Tracer` swaps bound methods on
objects the benchmark built itself (queues, services, fleets) for thin
timing wrappers, so an untraced pass runs exactly the library's code and
the traced pass differs only by those wrappers.

A traced queue can also keep a :class:`QueueTape` of its operations.
:meth:`Tracer.replay_costmodel` plays the tapes back on fresh queues with
and without a ``GpuContext``; the time difference is what cost accounting
costs, and both replays must return the same ``deletemin`` records as the
live run did.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from collections import defaultdict

import numpy as np

from repro.core.native import NativeBGPQ
from repro.device.kernels import GpuContext

__all__ = ["QueueTape", "Tracer", "percentile"]

_clock = time.perf_counter


def percentile(values, q: float) -> float:
    """``q``-th percentile (linear interpolation); 0.0 for no samples."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def _feed(h, out) -> None:
    """Fold one ``deletemin`` result (keys, payload) into a digest."""
    keys, pay = out
    h.update(np.ascontiguousarray(keys).tobytes())
    h.update(np.ascontiguousarray(pay).tobytes())


class QueueTape:
    """The operation stream of one queue, from its state when attached."""

    def __init__(self, pq: NativeBGPQ):
        self.layout = dict(
            node_capacity=pq.k,
            payload_width=pq.payload_width,
            storage=pq.storage,
        )
        self.initial = pq.export_state() if len(pq) else None
        self.ops: list = []  # int count (deletemin) or (keys, payload)
        self.digest = hashlib.blake2b(digest_size=16)

    def on_insert(self, args, kwargs, _out) -> None:
        keys = args[0]
        payload = args[1] if len(args) > 1 else kwargs.get("payload")
        self.ops.append(
            (np.array(keys), None if payload is None else np.array(payload))
        )

    def on_deletemin(self, args, _kwargs, out) -> None:
        self.ops.append(int(args[0]))
        _feed(self.digest, out)


def _replay(tapes: list[QueueTape], with_ctx: bool) -> tuple[dict, list[str]]:
    """Play ``tapes`` on fresh queues; returns (op seconds by kind, digests)."""
    busy = {"insert": 0.0, "deletemin": 0.0}
    digests = []
    for tape in tapes:
        ctx = GpuContext.default() if with_ctx else None
        pq = NativeBGPQ(ctx=ctx, **tape.layout)
        if tape.initial is not None:
            pq.restore_state(tape.initial)
        h = hashlib.blake2b(digest_size=16)
        for op in tape.ops:
            if isinstance(op, int):
                t0 = _clock()
                out = pq.deletemin(op)
                busy["deletemin"] += _clock() - t0
                _feed(h, out)
            else:
                t0 = _clock()
                pq.insert_bulk(op[0], op[1])
                busy["insert"] += _clock() - t0
        digests.append(h.hexdigest())
    return busy, digests


class Tracer:
    """Per-call wall-clock samples, keyed by call-site name.

    ``record`` is how many more queues (from the next :meth:`attach_queue`
    on) keep a tape for the cost-model replay; later queues are only
    timed, which bounds the memory a long traced pass holds.
    """

    def __init__(self, record: int = 0):
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.busy: dict[str, float] = defaultdict(float)
        self.record = record
        self.tapes: list[QueueTape] = []
        self.queues: list[tuple[NativeBGPQ, int]] = []  # (queue, heapify base)
        self.arena_bytes = 0

    # -- attaching ---------------------------------------------------------
    def wrap(self, obj, attr: str, name: str, after=None) -> None:
        """Time every call of ``obj.attr`` under ``name``."""
        inner = getattr(obj, attr)
        samples = self.samples[name]
        busy = self.busy

        def timed(*args, **kwargs):
            t0 = _clock()
            out = inner(*args, **kwargs)
            dt = _clock() - t0
            samples.append(dt)
            busy[name] += dt
            if after is not None:
                after(args, kwargs, out)
            return out

        setattr(obj, attr, timed)

    def attach_queue(self, pq: NativeBGPQ) -> NativeBGPQ:
        """Time ``insert_bulk``/``deletemin`` of one queue (core.native)."""
        tape = None
        if self.record > 0:
            self.record -= 1
            tape = QueueTape(pq)
            self.tapes.append(tape)
        self.wrap(pq, "insert_bulk", "native.insert",
                  tape.on_insert if tape else None)
        self.wrap(pq, "deletemin", "native.deletemin",
                  tape.on_deletemin if tape else None)
        self.queues.append((pq, _heapifies(pq)))
        return pq

    def note_arena(self, queues) -> None:
        """Track the peak arena footprint of queues that are live together."""
        self.arena_bytes = max(
            self.arena_bytes, sum(q.memory_bytes() for q in queues)
        )

    # -- reading -----------------------------------------------------------
    def pct_us(self, name: str, q: float) -> float:
        return percentile(self.samples[name], q) * 1e6

    def pct_ms(self, name: str, q: float) -> float:
        return percentile(self.samples[name], q) * 1e3

    def queue_busy(self) -> float:
        return self.busy["native.insert"] + self.busy["native.deletemin"]

    def native_metrics(self) -> dict:
        calls = len(self.samples["native.insert"]) + len(
            self.samples["native.deletemin"]
        )
        heapifies = sum(_heapifies(q) - base for q, base in self.queues)
        return {
            "native.insert_us_p50": (self.pct_us("native.insert", 50), "us"),
            "native.insert_us_p99": (self.pct_us("native.insert", 99), "us"),
            "native.deletemin_us_p50": (self.pct_us("native.deletemin", 50), "us"),
            "native.deletemin_us_p99": (self.pct_us("native.deletemin", 99), "us"),
            "native.busy_s": (self.queue_busy(), "s"),
            "native.calls": (calls, "count"),
            "native.heapify_per_call": (heapifies / calls if calls else 0.0, "ratio"),
            "native.arena_mb": (self.arena_bytes / 2**20, "MiB"),
        }

    def replay_costmodel(self, repeats: int = 3) -> tuple[dict, list[str]]:
        """Replay the tapes with and without cost accounting.

        Returns the ``costmodel.*`` metrics and a list of problems: a
        replay whose ``deletemin`` records differ from the other replay
        or from the live run is a correctness failure.  The share is
        also split by op kind: accounting's share of ``insert_bulk``
        time and of ``deletemin`` time.
        """
        names = ("busy_s", "share", "insert_share", "deletemin_share")
        if not self.tapes:
            return ({f"costmodel.{n}": (0.0, "s" if n == "busy_s" else "ratio")
                     for n in names}, [])
        live = [t.digest.hexdigest() for t in self.tapes]
        with_t, without_t, problems = [], [], []
        for _ in range(repeats):  # alternate, so drift hits both sides
            t, d_with = _replay(self.tapes, with_ctx=True)
            with_t.append(t)
            t, d_without = _replay(self.tapes, with_ctx=False)
            without_t.append(t)
            if (d_with != live or d_without != live) and not problems:
                problems.append(
                    "cost-model replay returned different deletemin records "
                    f"(with ctx equal: {d_with == live}, "
                    f"without ctx equal: {d_without == live})"
                )

        def diff(*kinds):
            def median(runs):
                return statistics.median(sum(r[k] for k in kinds) for r in runs)
            return median(with_t) - median(without_t), median(with_t)

        def share(*kinds):
            busy, t_with = diff(*kinds)
            return busy / t_with if t_with else 0.0

        both = ("insert", "deletemin")
        return ({"costmodel.busy_s": (diff(*both)[0], "s"),
                 "costmodel.share": (share(*both), "ratio"),
                 "costmodel.insert_share": (share("insert"), "ratio"),
                 "costmodel.deletemin_share": (share("deletemin"), "ratio")},
                problems)


def _heapifies(pq: NativeBGPQ) -> int:
    return pq.stats["insert_heapify"] + pq.stats["deletemin_heapify"]
