"""Client sessions and the server as simulated threads.

The serve driver runs the whole service *inside* the discrete-event
engine: client sessions and the queue server are generators yielding
effects, so the fault injector can kill the server at a crashpoint and
a supervisor thread can recover it — crash-recovery is exercised under
the same deterministic scheduler as everything else in the tree.

Shared host state (:class:`Frontend`) carries a pending deque, a
response map, and the admission controller; sessions submit through
one ``Atomic`` (admission check + enqueue linearized), honor
``RetryAfter`` sheds with :func:`jittered_backoff_ns`, and await
responses on a condition with a predicate.  The server thread pops and
dispatches one request per ``Atomic`` step — journal, apply, post
response, release the admission slot, all indivisible — and yields
crashpoints only *between* dispatches, so an admitted request is
always either still pending or fully journaled+applied: a crash can
delay an admitted key, never lose it.
"""

from __future__ import annotations

import random
import zlib
from collections import deque

import numpy as np

from ..apps.resilience import jittered_backoff_ns
from ..obs.events import SERVE_SHED
from ..sim import Atomic, Compute, Signal, Wait, crashpoint
from ..sim.sync import Condition
from .admission import AdmissionController, RetryAfter

__all__ = ["Frontend", "native_session", "server_loop"]


class Frontend:
    """Host-side shared state between sessions and the server.

    Every mutation happens inside an ``Atomic`` effect (or the
    engine's single-step granularity), so the members need no locks of
    their own.  The frontend survives server crashes — only the server
    *thread* dies; in-flight requests stay pending and are drained by
    the recovered server.
    """

    def __init__(self, admission: AdmissionController, obs=None,
                 metrics=None, slo=None):
        self.admission = admission
        self.pending: deque[dict] = deque()
        self.responses: dict[tuple[str, int], dict] = {}
        self.work = Condition("serve:work")
        self.resp = Condition("serve:resp")
        self.live_sessions = 0
        self.closed = False
        self._obs = obs
        self.metrics = metrics
        self.slo = slo
        # the submitting step's simulated clock; the driver points this
        # at the engine so admission smoothing is keyed to sim time
        self.now_fn = lambda: 0.0

    # -- session side (called inside Atomic) -----------------------------
    def submit(self, request: dict) -> RetryAfter | None:
        """Admission-check and enqueue one request; None means admitted."""
        sid = request["sid"]
        verdict = self.admission.try_admit(sid, now=self.now_fn())
        if verdict is not None:
            if self._obs is not None:
                self._obs.emit_here(
                    SERVE_SHED, session=sid, reason=verdict.reason,
                    pending=self.admission.pending,
                )
            return verdict
        self.pending.append(request)
        return None

    def take_response(self, sid: str, op_id: int) -> dict:
        return self.responses.pop((sid, op_id))

    def session_done(self) -> None:
        self.live_sessions -= 1
        if self.live_sessions <= 0:
            self.closed = True

    # -- server side (called inside Atomic) ------------------------------
    def step(self, service) -> float | None:
        """Dispatch one pending request; returns its device cost in ns,
        or None when nothing is pending.  Journal + apply + response +
        admission release happen in this one host step — under the
        simulator's crash model the dispatch is indivisible."""
        if not self.pending:
            return None
        request = self.pending.popleft()
        response = service.apply(request)
        self.responses[(request["sid"], request["op_id"])] = response
        self.admission.complete(request["sid"])
        if self.metrics is not None:
            self.metrics.histogram(
                "repro_serve_apply_cost_ns",
                help="modeled device cost of one applied request",
                kind=request["kind"],
            ).observe(response["cost_ns"])
        if self.slo is not None:
            self.slo.observe(request["kind"], response["cost_ns"],
                             ts=self.now_fn())
        return response["cost_ns"]


def server_loop(frontend: Frontend, service, think_ns: float = 50.0):
    """The queue server: drain pending requests until close; generator.

    Crashpoints bracket every dispatch (never splitting one), so the
    fault injector can kill the server at any op boundary.  The
    opening ``Signal`` on the response condition re-checks waiters'
    predicates after a recovery, so no session stays parked on a
    response that was posted just before a crash.
    """
    yield Signal(frontend.resp)
    while True:
        yield Wait(
            frontend.work,
            predicate=lambda: bool(frontend.pending) or frontend.closed,
        )
        yield crashpoint()
        cost = yield Atomic(lambda: frontend.step(service))
        if cost is None:
            if frontend.closed and not frontend.pending:
                return "drained"
            continue
        yield Compute(cost + think_ns)
        yield Signal(frontend.resp)
        yield crashpoint()


def _session_ops(sid: str, seed: int, ops: int, k: int, key_space: int):
    """The deterministic op script of one session: mixed insert batches
    and deletemins, derived from (seed, sid) alone."""
    # crc32, not hash(): string hashing is salted per process and the
    # script must be a pure function of (seed, sid)
    rng = np.random.default_rng([seed, zlib.crc32(sid.encode("utf-8"))])
    script = []
    for op_id in range(ops):
        if rng.random() < 0.6:
            n = int(rng.integers(1, k + 1))
            keys = rng.integers(0, key_space, size=n).astype(np.int64)
            script.append({"sid": sid, "op_id": op_id, "kind": "insert",
                           "keys": keys.tolist()})
        else:
            script.append({"sid": sid, "op_id": op_id, "kind": "deletemin",
                           "count": int(rng.integers(1, k + 1))})
    return script


def native_session(
    frontend: Frontend,
    sid: str,
    seed: int,
    ops: int,
    k: int,
    record: dict,
    key_space: int = 100_000,
    window: int | None = None,
    base_backoff_ns: float = 2_000.0,
    max_backoffs: int | None = None,
    think_ns: float = 20.0,
):
    """One client session against the durable server; generator.

    Submits its script through admission (backing off on ``RetryAfter``
    with seeded jitter), pipelines up to ``window`` ops before awaiting
    the oldest response, and records what it observed into ``record``:
    ``admitted_inserts`` (key lists the server accepted — the "no
    admitted key is ever lost" ledger), ``received`` (deletemin
    results), ``shed`` (backoff count), and ``dropped`` (ops abandoned
    after ``max_backoffs``, only possible when the caller bounds
    retries for an overload demo).
    """
    rng = random.Random(f"serve:{seed}:{sid}")
    window = window or frontend.admission.window
    record.setdefault("admitted_inserts", [])
    record.setdefault("received", [])
    record.setdefault("shed", 0)
    record.setdefault("dropped", 0)
    outstanding: deque[dict] = deque()

    def _await(request: dict):
        key = (sid, request["op_id"])
        yield Wait(frontend.resp, predicate=lambda: key in frontend.responses)
        response = yield Atomic(lambda: frontend.take_response(sid, request["op_id"]))
        if request["kind"] == "deletemin":
            record["received"].append(list(response["keys"]))

    try:
        for request in _session_ops(sid, seed, ops, k, key_space):
            attempt = 0
            while True:
                verdict = yield Atomic(lambda: frontend.submit(request))
                if verdict is None:
                    break
                record["shed"] += 1
                if max_backoffs is not None and attempt >= max_backoffs:
                    record["dropped"] += 1
                    request = None
                    break
                delay = max(
                    verdict.backoff_hint_ns,
                    jittered_backoff_ns(attempt, base_backoff_ns, rng=rng),
                )
                yield Compute(delay)
                attempt += 1
            if request is None:
                continue
            if request["kind"] == "insert":
                record["admitted_inserts"].append(list(request["keys"]))
            yield Signal(frontend.work)
            outstanding.append(request)
            while len(outstanding) >= window:
                yield from _await(outstanding.popleft())
            yield Compute(think_ns)
        while outstanding:
            yield from _await(outstanding.popleft())
    finally:
        # plain-python teardown (safe even if this generator is closed
        # early): retire the session and let the server see `closed`
        frontend.session_done()
    yield Signal(frontend.work)
    return "done"

