"""NativeBGPQ: host-speed batched heap with the BGPQ semantics.

The discrete-event :class:`~repro.core.bgpq.BGPQ` pays simulator
overhead per effect, which is the right trade for studying concurrency
but too slow to drive the paper's applications (branch-and-bound
knapsack, A*, SSSP) at realistic sizes.  ``NativeBGPQ`` implements the
*same data structure* — batch nodes, partial buffer, SORT_SPLIT-based
insert/delete heapify — as plain sequential NumPy code, and charges
what the operations would cost on the device through the GPU cost
model, accumulated exactly in :attr:`sim_time_ns`.

The clock is one Python ``int`` counting ticks of 2**-1074 ns
(:data:`TICKS_PER_NS` ticks per nanosecond).  Every charge is a binary64
float, and every finite float is an integer multiple of 2**-1074 — the
smallest subnormal — so each charge converts to a whole number of ticks
without rounding and the running sum is exact integer addition.  The
float and ``Fraction`` views of the clock are derived on read: Python's
int true division is correctly rounded, so ``ticks / TICKS_PER_NS``
equals ``float(Fraction(ticks, TICKS_PER_NS))`` bit for bit.

It supports (key, payload) records: payloads are fixed-width NumPy
rows that travel with their keys through every merge and split, which
is how the applications store search-tree nodes.

The whole heap lives in one :class:`~repro.core.arena.NodeArena` (row 0
is the partial buffer, row ``i`` is node ``i`` — the DES queue's layout
too).  On the compiled backend each op's whole heapify is one fused C
call over the arena's buffers; on the NumPy reference every SORT_SPLIT
runs through the arena's in-place
:meth:`~repro.core.arena.NodeArena.split_rows` path, and the
steady-state heapify loop performs zero traced allocations — the
application engines' hot path mirrors the paper's preallocated device
layout (§3.3).

Bulk operations amortise per-batch overhead the way the paper's
batching amortises per-key overhead: :meth:`insert_bulk` accepts
arbitrarily many records, sorts once, and feeds presorted full batches
to the heap (one heapify per batch).

Because its per-operation behaviour is identical to the sequential
semantics of BGPQ, it doubles as a second differential-testing
reference for the concurrent implementation.
"""

from __future__ import annotations

import numbers
import re
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from ..device.costmodel import GpuCostModel
from ..device.kernels import GpuContext
from ..errors import ConfigurationError
from ..primitives import kernels as kernel_registry
from ..primitives.inplace import sort_split_into
from .arena import NodeArena, growth_target, layout_problems
from .heap import left, path_next, right

__all__ = ["NativeBGPQ", "StateRows", "TICKS_PER_NS"]

_I64 = np.dtype(np.int64)

#: Sim-clock ticks per nanosecond: one tick is 2**-1074 ns, the
#: granularity of every finite binary64 float.
TICKS_PER_NS = 1 << 1074

# the str(Fraction) form export_state writes; no exponents, so parsing
# a hostile snapshot cannot build a giant power of ten
_SIM_NS_RE = re.compile(r"-?[0-9]+(/[0-9]+)?")

# every header field export_rows writes; restore_rows needs them all
_HEADER_FIELDS = (
    "k", "key_dtype", "payload_width", "payload_dtype",
    "heap_size", "sim_ns", "stats",
)

# bound on each of a queue's charge memos: distinct (tag, p1, p2)
# shapes, and distinct whole charge logs
_CHARGE_MEMO_MAX = 4096
# longest charge log (in triples) the whole-log memo keeps, so its keys
# stay small; a longer one (a big bulk insert) is summed triple by triple
_LOG_MEMO_MAX_TRIPLES = 64
# _ChargeTicks tags beyond the charge log's 0-3
_BATCH_ENTRY = 4
_ROOT_LOCK = 5


def _ticks(ns: float) -> int:
    """Exact tick count of one device charge.

    ``as_integer_ratio`` gives a power-of-two denominator of at most
    2**1074, so the shift below never rounds.
    """
    num, den = ns.as_integer_ratio()
    return num << (1075 - den.bit_length())


class _ChargeTicks(dict):
    """One queue's memo of repeating charges: (tag, p1, p2) -> ticks.

    Tags 0-3 are the fused kernels' charge-log entries, valued exactly
    as the NumPy path charges the same step in place: 0 a node
    SORT_SPLIT of p1 and p2 keys, 1 a root-extraction read of p1 keys,
    2 a partial-buffer fold (host sort_split rate), 3 the last-node
    move.  Tag 4 (:data:`_BATCH_ENTRY`) is the entry cost of a p1-key
    batch: coalesced read, in-block sort, root lock; tag 5
    (:data:`_ROOT_LOCK`) a deletemin's root lock pair.

    ``logs`` memoizes whole charge logs on top: the bytes of a fused
    kernel's log -> the tick sum of its triples.  An op's log repeats
    whenever the heap shape along its path does, and the sum is exact
    integer addition, so one lookup stands for the whole log.

    The memos live and die with their queue: a process-wide cache would
    keep its big-int entries, allocated all through a run, pinning
    allocator arenas and raising peak RSS.
    """

    __slots__ = ("model", "k", "logs")

    def __init__(self, model: GpuCostModel | None, k: int):
        super().__init__()
        self.model = model
        self.k = k
        self.logs: dict[bytes, int] = {}

    def charge_ns(self, entry: tuple[int, int, int]) -> float:
        """The float device charge ``entry`` stands for."""
        tag, p1, p2 = entry
        m = self.model
        if tag == 0:
            return m.node_sort_split_ns(p1, p2)
        if tag == 1:
            return m.global_read_ns(p1)
        if tag == 2:
            return m.sort_split_ns(p1, p2)
        if tag == 3:
            return m.global_read_ns(self.k) + m.global_write_ns(self.k)
        if tag == _ROOT_LOCK:
            return m.lock_acquire_ns() + m.lock_release_ns()
        return (
            m.global_read_ns(p1)
            + m.bitonic_sort_ns(p1)
            + m.lock_acquire_ns()
            + m.lock_release_ns()
        )

    def log_ticks(self, log: np.ndarray) -> int:
        """Tick sum of a charge log of (tag, p1, p2) triples, memoized
        whole in ``logs`` unless it is over :data:`_LOG_MEMO_MAX_TRIPLES`
        long."""
        key = log.tobytes() if log.size <= 3 * _LOG_MEMO_MAX_TRIPLES else None
        t = self.logs.get(key)
        if t is None:
            it = iter(log.tolist())
            t = sum(map(self.__getitem__, zip(it, it, it)))
            if key is not None:
                if len(self.logs) >= _CHARGE_MEMO_MAX:
                    self.logs.clear()
                self.logs[key] = t
        return t

    def __missing__(self, entry: tuple[int, int, int]) -> int:
        if len(self) >= _CHARGE_MEMO_MAX:
            self.clear()
        t = self[entry] = _ticks(self.charge_ns(entry))
        return t


def _snapshot_ticks(sim_ns) -> int:
    """Tick count of a snapshot's ``sim_ns`` string.

    An export writes the clock as ``str(Fraction)`` of a tick count, so
    anything but a non-negative rational whose denominator is a power
    of two no larger than :data:`TICKS_PER_NS` cannot have come from
    one and fails closed with :class:`ConfigurationError`.
    """
    if not isinstance(sim_ns, str):
        raise ConfigurationError(
            f"snapshot sim_ns must be a string, got {type(sim_ns).__name__}"
        )
    if not _SIM_NS_RE.fullmatch(sim_ns):
        raise ConfigurationError(f"malformed snapshot sim_ns {sim_ns!r}")
    try:
        exact = Fraction(sim_ns)
    except (ValueError, ZeroDivisionError) as err:
        raise ConfigurationError(f"malformed snapshot sim_ns: {err}") from err
    den = exact.denominator
    if exact < 0 or den & (den - 1) or den > TICKS_PER_NS:
        raise ConfigurationError(
            f"snapshot sim_ns {sim_ns!r} is not a non-negative multiple "
            "of 2**-1074 ns"
        )
    return exact.numerator * (TICKS_PER_NS // den)


# the array kinds a snapshot row may hold for each dtype kind: integers
# fit any numeric dtype, floats only a float one
_ROW_KINDS = {"b": "b", "i": "iu", "u": "iu", "f": "iuf"}
_BOOLS = (bool, np.bool_)


def _holds_bool(values) -> bool:
    """Whether nested lists hold a bool, which ``np.asarray`` silently
    turns into 0 or 1 when integers sit next to it."""
    return isinstance(values, (list, tuple)) and any(
        isinstance(v, _BOOLS) or _holds_bool(v) for v in values
    )


def _snapshot_array(values, dtype: np.dtype) -> np.ndarray:
    """A snapshot row's ``keys`` or ``pay`` as an array of ``dtype``.

    Every element must be a number of a kind ``dtype`` holds, and hold
    it exactly: ragged nesting, strings, bools (bar a bool dtype),
    objects, floats for an integer dtype and values out of its range
    raise :class:`ConfigurationError` instead of being cast.
    """
    try:
        raw = np.asarray(values)
    except ValueError:  # ragged nesting
        raw = None
    if raw is not None and raw.size == 0:
        return raw.astype(dtype)
    if (
        raw is None
        or raw.dtype.kind not in _ROW_KINDS.get(dtype.kind, dtype.kind)
        or dtype.kind != "b" and _holds_bool(values)
    ):
        raise ConfigurationError(
            f"snapshot row holds {values!r:.60}, not {dtype} values"
        )
    arr = raw.astype(dtype, copy=False)
    if arr is not raw and not np.array_equal(arr, raw):
        raise ConfigurationError(
            f"snapshot row values {values!r:.60} do not fit {dtype}"
        )
    return arr


class StateRows(NamedTuple):
    """A queue's logical state as :meth:`NativeBGPQ.export_rows` returns it.

    ``header`` holds the layout (``k``, both dtype names,
    ``payload_width``), ``heap_size``, the clock as an exact ``sim_ns``
    string and the ``stats`` counters.  ``counts`` holds the record
    count of rows ``0..heap_size`` (row 0 is the partial buffer, row
    ``i`` node ``i``); ``keys`` (1-D) and ``pay`` (``(n, payload_width)``)
    hold the live records of those rows, concatenated in row order.
    """

    header: dict
    counts: np.ndarray
    keys: np.ndarray
    pay: np.ndarray

    def as_state(self) -> dict:
        """The :meth:`NativeBGPQ.export_state` dict view of these rows."""
        keys = self.keys.tolist()
        pay = self.pay.tolist()
        rows = []
        at = 0
        for n in self.counts.tolist():
            rows.append({"keys": keys[at:at + n], "pay": pay[at:at + n]})
            at += n
        return {**self.header, "buffer": rows[0], "nodes": rows[1:]}


class NativeBGPQ:
    """Sequential batched heap with device-cost accounting.

    Parameters
    ----------
    node_capacity:
        Keys per batch node (the paper's k).
    ctx:
        Optional GPU context; when given, every operation charges its
        device cost to :attr:`sim_time_ns`.
    key_dtype / payload_width / payload_dtype:
        Record layout.  ``payload_width=0`` stores bare keys.
    storage:
        Always ``"arena"``, the one storage layout; accepted (and kept
        as an attribute) so callers that pass it through keep working.
    kernels:
        ``None`` (the process-wide backend), a backend name, or a
        ``KernelSet`` bare or instrumented; anything else raises
        :class:`ConfigurationError`.
    """

    def __init__(
        self,
        node_capacity: int = 1024,
        ctx: GpuContext | None = None,
        key_dtype=np.int64,
        payload_width: int = 0,
        payload_dtype=np.int64,
        storage: str = "arena",
        kernels=None,
    ):
        if node_capacity < 2:
            raise ConfigurationError("node capacity must be >= 2")
        if storage != "arena":
            raise ConfigurationError(
                f"unknown storage {storage!r}; the only layout is 'arena'"
            )
        self.k = node_capacity
        self.key_dtype = np.dtype(key_dtype)
        self.payload_width = payload_width
        self.payload_dtype = np.dtype(payload_dtype)
        self.storage = storage
        self.ctx = ctx
        self.model: GpuCostModel | None = ctx.model if ctx is not None else None
        self._heap_size = 0
        # live records, kept at the public op boundaries so len() is O(1)
        self._size = 0
        self._ticks = 0
        self._charges = _ChargeTicks(self.model, node_capacity)
        self.stats = {"insert_heapify": 0, "deletemin_heapify": 0, "ops": 0}
        # kernel backend (see ``kernels`` above); every backend is
        # bit-identical, so the choice only moves wall-clock
        if kernels is None:
            kernels = kernel_registry.active()
        elif isinstance(kernels, str):
            try:
                kernels = kernel_registry.select(kernels)
            except ValueError as err:
                raise ConfigurationError(str(err)) from err
        elif not isinstance(kernels, (kernel_registry.KernelSet,
                                      kernel_registry.InstrumentedKernels)):
            raise ConfigurationError(
                "kernels must be None, a backend name or a KernelSet, "
                f"not {type(kernels).__name__}"
            )
        self._kern = kernels
        # fused C heapify needs int64 keys (payload rows move as raw
        # bytes, so any payload dtype is fine)
        self._row_bytes = self.payload_width * self.payload_dtype.itemsize
        self._fused = kernels.fused and self.key_dtype == _I64
        if self._fused:
            # combined scratch: [2k int64 keys][2k payload rows], int64-
            # backed so the key half stays aligned; the deletemin log is
            # sized for any heap depth reachable with 64-bit node indices,
            # the insert log grows with the runs _insert_run feeds it
            pad = (2 * node_capacity * self._row_bytes + 7) // 8
            self._fscratch = np.empty(2 * node_capacity + pad, dtype=np.int64)
            self._ins_log = np.empty(256, dtype=np.int64)
            self._del_log = np.empty(1024, dtype=np.int64)
        # row 0 is the partial buffer, row i is node i; rows grow 8x on
        # demand so steady-state operation never reallocates
        self._arena = NodeArena(
            8,
            node_capacity,
            dtype=key_dtype,
            payload_width=payload_width,
            payload_dtype=payload_dtype,
        )
        # the travelling batch of both heapify loops (Alg. 1's `items`)
        self._items_k = np.empty(node_capacity, dtype=key_dtype)
        self._items_p = np.empty((node_capacity, payload_width), dtype=payload_dtype)

    # -- internals ---------------------------------------------------------
    def _payload_for(self, keys: np.ndarray, payload) -> np.ndarray:
        if payload is None:
            return np.zeros((keys.size, self.payload_width), dtype=self.payload_dtype)
        payload = np.asarray(payload, dtype=self.payload_dtype)
        if payload.ndim == 1:
            payload = payload.reshape(-1, 1)
        if payload.shape != (keys.size, self.payload_width):
            raise ValueError(
                f"payload shape {payload.shape} != ({keys.size}, {self.payload_width})"
            )
        return payload

    def _charge(self, ns: float) -> None:
        if self.model is not None:
            self._ticks += _ticks(ns)

    def _charge_split(self, na: int, nb: int) -> None:
        """One node-level SORT_SPLIT charge."""
        if self.model is not None:
            self._ticks += self._charges[0, na, nb]

    def _normalize(self, keys, payload) -> tuple[np.ndarray, np.ndarray]:
        keys = np.asarray(keys, dtype=self.key_dtype)
        if keys.ndim != 1:
            raise ValueError("keys must be 1-D")
        return keys, self._payload_for(keys, payload)

    # -- kernel backend ----------------------------------------------------
    def kernel_provenance(self) -> dict:
        """Provenance record (backend, capabilities, fused dispatch)."""
        return {**self._kern.provenance(), "fused_active": self._fused}

    # -- public API --------------------------------------------------------
    def insert(self, keys, payload=None) -> None:
        """Insert any number of (key, payload) records.

        Batches larger than k are pre-sorted once and fed to the heap
        in full k-key slices (see :meth:`insert_bulk`); callers no
        longer need to chunk by hand.
        """
        self.insert_bulk(keys, payload)

    def insert_bulk(self, keys, payload=None) -> None:
        """Insert arbitrarily many records with one global pre-sort.

        The records are sorted once (stable, so equal keys keep their
        payload order) and the sorted run is fed to the heap k at a
        time: each slice is already sorted, so the per-batch host sort
        disappears and each full batch costs exactly one heapify.  On
        the C core one fused call feeds the whole run.
        Device charges are identical to inserting the same slices one
        ``insert`` call at a time — the bitonic network's cost is
        data-independent — so simulated times stay comparable.
        """
        if payload is None and not self.payload_width and self._fused:
            # keys-only on the C core: a value sort of a copy, and the
            # queue's own zero-width payload rows stand in for the run's
            skeys = np.array(keys, dtype=_I64)
            if skeys.ndim != 1:
                raise ValueError("keys must be 1-D")
            skeys.sort()
            if skeys.size:
                self._insert_run(skeys, self._items_p)
                self._size += skeys.size
            return
        keys, pay = self._normalize(keys, payload)
        if keys.size == 0:
            return
        skeys, spay = self._kern.sort_records(keys, pay)
        if self._fused:
            self._insert_run(skeys, spay)
        else:
            for i in range(0, skeys.size, self.k):
                self._insert_sorted(skeys[i : i + self.k], spay[i : i + self.k])
        self._size += skeys.size

    def deletemin(self, count: int):
        """Remove up to ``count`` smallest records.

        Returns ``(keys, payload)`` — ascending keys with their rows.
        """
        if not 1 <= count <= self.k:
            raise ValueError(f"deletemin count must be in [1, {self.k}], got {count}")
        if self.model is not None:
            self._ticks += self._charges[_ROOT_LOCK, 0, 0]
        self.stats["ops"] += 1
        out = self._deletemin(count)
        self._size -= out[0].size
        return out

    def knapsack_step(self, count: int, incumbent: int, expansion: tuple):
        """One knapsack branch-and-bound iteration in one compiled call.

        Runs ``deletemin(count)``, the stale-bound cut, the expansion of
        the fresh nodes, the sort of their children and the insert of
        them, as :func:`~repro.apps.knapsack.solve_batched`'s op-by-op
        loop does through four C calls; ``expansion`` is that solve's
        ``_Expansion.step_args``.  Needs the compiled backend, a heap of
        at least two nodes (:attr:`heap_size`) and one int64 node per
        payload row.  Stats and charges are those of the ``deletemin``
        and ``insert_bulk`` it stands for: the root lock, then each
        op's charge log replayed whole through the same memo.

        Returns ``(fresh, n_children, new_incumbent, pruned)``, pruned
        counting the stale nodes and the pruned children.  A popped node
        whose level or weight is out of range raises ``ValueError`` after
        the deletemin has run, leaving this queue's counters behind its
        arena; the solve that owns the queue is over by then.
        """
        k = self.k
        hs = self._heap_size
        # the deletemin frees one row, the <= 2k children take two
        self._ensure_rows(hs + 1)
        need = 6 * ((hs + 1).bit_length() + 3)
        if self._ins_log.size < need:
            self._ins_log = np.empty(max(need, 2 * self._ins_log.size), np.int64)
        a = self._arena
        (removed, fresh, n, incumbent, pruned, self._heap_size, heapifies,
         ndel, nins) = self._kern.mod.knapsack_step(
            a.keys, a.pay, a.counts, self._items_k, self._items_p,
            self._fscratch, self._del_log, self._ins_log, hs, k,
            self._row_bytes, count, *expansion, incumbent,
        )
        self._size += n - removed
        stats = self.stats
        stats["ops"] += 1 + -(-n // k)  # the deletemin, then each batch
        stats["deletemin_heapify"] += 1
        stats["insert_heapify"] += heapifies
        if self.model is not None:
            charges = self._charges
            self._ticks += charges[_ROOT_LOCK, 0, 0] + charges.log_ticks(
                self._del_log[: 3 * ndel]
            )
            if n:
                self._ticks += charges.log_ticks(self._ins_log[: 3 * nins])
        return fresh, n, incumbent, pruned

    def peek(self):
        """Smallest key without removing it (``None`` when empty).

        A quiescent read for routers and spray probes: the root's first
        key is the global minimum whenever the heap is non-empty (the
        partial buffer's min is >= the root's max by invariant), so no
        traversal happens and no device time is charged here — a
        fleet-level caller models its own probe cost explicitly.
        """
        a = self._arena
        if self._heap_size and a.counts.item(1):
            return a.keys.item(1, 0)
        return a.keys.item(0, 0) if a.counts.item(0) else None

    def clear(self) -> None:
        """Reset to empty; storage, stats and the sim clock are retained."""
        self._arena.counts[:] = 0
        self._heap_size = 0
        self._size = 0

    # -- dispatch ---------------------------------------------------------
    def _insert_run(self, skeys: np.ndarray, spay: np.ndarray) -> None:
        """Insert a sorted run with one fused C call, k records per batch.

        The kernel charges each batch exactly as :meth:`_insert_sorted`
        does (a batch-entry triple, then the insert's own steps), so the
        one replay of its log equals the per-batch charges.
        """
        k = self.k
        batches = -(-skeys.size // k)
        last = self._heap_size + batches
        self._ensure_rows(last)
        need = 3 * batches * (last.bit_length() + 3)
        if self._ins_log.size < need:
            self._ins_log = np.empty(max(need, 2 * self._ins_log.size), np.int64)
        a = self._arena
        self._heap_size, nlog, heapifies = self._kern.mod.insert_sorted(
            a.keys, a.pay, a.counts, self._items_k, self._items_p,
            self._fscratch, self._ins_log, skeys, spay, k, self._row_bytes,
            self._heap_size,
        )
        self.stats["ops"] += batches
        self.stats["insert_heapify"] += heapifies
        if self.model is not None:
            self._ticks += self._charges.log_ticks(self._ins_log[: 3 * nlog])

    # -- arena rows, fused in-place SORT_SPLIT -------------------------------
    def _ensure_rows(self, i: int) -> None:
        """Make row ``i`` exist, growing the arena 8x per step
        (:func:`~repro.core.arena.growth_target`)."""
        a = self._arena
        if i >= a.rows:
            row_bytes = self.k * (self.key_dtype.itemsize + self._row_bytes)
            self._arena = a.grown(growth_target(a.rows, i, row_bytes))

    def _shift_row_left(self, i: int, take: int) -> None:
        """Drop row ``i``'s first ``take`` records, staged through scratch
        (an in-row move; direct overlapping assignment would make numpy
        allocate a bounce buffer on the steady-state path)."""
        a = self._arena
        s = a.scratch
        ni = int(a.counts[i])
        m = ni - take
        if m:
            s.keys[:m] = a.keys[i, take:ni]
            a.keys[i, :m] = s.keys[:m]
            if self.payload_width:
                s.pay[:m] = a.pay[i, take:ni]
                a.pay[i, :m] = s.pay[:m]
        a.counts[i] = m

    def _insert_sorted(self, skeys: np.ndarray, spay: np.ndarray) -> None:
        """Insert one already-sorted batch of at most k records."""
        if self.model is not None:
            # batch entry: coalesced read, in-block sort, root lock
            self._ticks += self._charges[_BATCH_ENTRY, skeys.size, 0]
        self.stats["ops"] += 1
        a = self._arena
        n = skeys.size
        if self._heap_size == 0:
            a.keys[1, :n] = skeys
            if self.payload_width:
                a.pay[1, :n] = spay
            a.counts[1] = n
            self._heap_size = 1
            return
        ik, ip = self._items_k, self._items_p
        ik[:n] = skeys
        if self.payload_width:
            ip[:n] = spay
        nroot = a.counts.item(1)
        if nroot:
            # root keeps its nroot smallest of root ∪ items
            self._charge_split(nroot, n)
            a.split_row_items(1, ik[:n], ip[:n], nroot)
        nbuf = int(a.counts[0])
        if nbuf + n < self.k:
            # fold the batch into the partial buffer (buffer keys first)
            if self.model is not None:
                self._charge(self.model.sort_split_ns(nbuf, n))
            a.split_row_items(0, ik[:n], ip[:n], nbuf + n)
            return
        # buffer overflow: detach a full batch (items keys first on ties),
        # leave the rest in the buffer, heapify the full batch down
        self._charge_split(n, nbuf)
        sort_split_into(
            ik[:n], a.keys[0, :nbuf], self.k, ik, a.keys[0], a.scratch,
            pa=ip[:n], pb=a.pay[0, :nbuf], x_p=ip, y_p=a.pay[0],
        )
        a.counts[0] = n + nbuf - self.k
        self._insert_heapify()

    def _insert_heapify(self) -> None:
        """Heapify the full travelling batch down to a fresh last slot."""
        self.stats["insert_heapify"] += 1
        a = self._arena
        k = self.k
        tar = self._heap_size + 1
        self._heap_size = tar
        self._ensure_rows(tar)
        a = self._arena  # _ensure_rows may have swapped the arena
        cur = path_next(1, tar) if tar != 1 else 1
        while cur != tar:
            ni = int(a.counts[cur])
            self._charge_split(ni, k)
            a.split_row_items(cur, self._items_k, self._items_p, ni)
            cur = path_next(cur, tar)
        a.keys[tar, :k] = self._items_k
        if self.payload_width:
            a.pay[tar, :k] = self._items_p
        a.counts[tar] = k

    def _deletemin(self, count: int):
        a = self._arena
        k = self.k
        if self._heap_size == 0:
            return (
                np.empty(0, dtype=self.key_dtype),
                np.empty((0, self.payload_width), dtype=self.payload_dtype),
            )
        nroot = a.counts.item(1)
        if count < nroot:
            out_k = a.keys[1, :count].copy()
            out_p = a.pay[1, :count].copy()
            self._shift_row_left(1, count)
            if self.model is not None:
                self._charge(self.model.global_read_ns(count))
            return out_k, out_p
        if self._heap_size == 1:
            # refill from the buffer
            nbuf = a.counts.item(0)
            take = min(count - nroot, nbuf)
            out_k = np.concatenate((a.keys[1, :nroot], a.keys[0, :take]))
            out_p = np.concatenate((a.pay[1, :nroot], a.pay[0, :take]))
            rest = nbuf - take
            a.counts[0] = 0
            a.counts[1] = rest
            if rest:
                a.keys[1, :rest] = a.keys[0, take:nbuf]
                if self.payload_width:
                    a.pay[1, :rest] = a.pay[0, take:nbuf]
            else:
                self._heap_size = 0
            return out_k, out_p

        if self._fused:
            # one C call runs the whole general path (root copy-out,
            # last-node promotion, buffer fold, heapify + extraction);
            # charges replay from the log
            self.stats["deletemin_heapify"] += 1
            out_k = np.empty(count, dtype=self.key_dtype)
            out_p = np.empty((count, self.payload_width), dtype=self.payload_dtype)
            total, new_hs, nlog = self._kern.mod.deletemin(
                a.keys, a.pay, a.counts, self._heap_size, k,
                self._row_bytes, count, out_k, out_p,
                self._fscratch, self._del_log,
            )
            self._heap_size = new_hs
            if self.model is not None:
                self._ticks += self._charges.log_ticks(self._del_log[: 3 * nlog])
            return out_k[:total], out_p[:total]
        remained = count - nroot
        out_root_k = a.keys[1, :nroot].copy()
        out_root_p = a.pay[1, :nroot].copy()
        # move the last node into the root, fold the buffer in
        last = self._heap_size
        nlast = int(a.counts[last])
        a.keys[1, :nlast] = a.keys[last, :nlast]
        if self.payload_width:
            a.pay[1, :nlast] = a.pay[last, :nlast]
        a.counts[1] = nlast
        a.counts[last] = 0
        self._heap_size -= 1
        if self.model is not None:
            self._charge(self.model.global_read_ns(k) + self.model.global_write_ns(k))
        if int(a.counts[0]):
            self._charge_split(nlast, int(a.counts[0]))
            a.split_rows(1, 0, small=1, large=0, ma=nlast)
        ex_k, ex_p = self._deletemin_heapify(remained)
        out_k = np.concatenate([out_root_k, ex_k])
        out_p = np.concatenate([out_root_p, ex_p])
        return out_k, out_p

    def _deletemin_heapify(self, remained: int):
        self.stats["deletemin_heapify"] += 1
        a = self._arena
        cur = 1
        out: tuple[np.ndarray, np.ndarray] | None = None

        def extract_root() -> tuple[np.ndarray, np.ndarray]:
            take = min(remained, int(a.counts[1]))
            got = (a.keys[1, :take].copy(), a.pay[1, :take].copy())
            self._shift_row_left(1, take)
            if self.model is not None:
                self._charge(self.model.global_read_ns(take))
            return got

        while True:
            ncur = int(a.counts[cur])
            children = [
                c
                for c in (left(cur), right(cur))
                if c <= self._heap_size and a.counts[c]
            ]
            if (
                not children
                or ncur == 0
                or a.keys[cur, ncur - 1] <= min(a.keys[c, 0] for c in children)
            ):
                if out is None:
                    out = extract_root()
                return out
            if len(children) == 2:
                l, r = children
                nl, nr = int(a.counts[l]), int(a.counts[r])
                x, y = (l, r) if a.keys[l, nl - 1] > a.keys[r, nr - 1] else (r, l)
                ma = min(self.k, nl + nr)
                self._charge_split(nl, nr)
                a.split_rows(l, r, small=y, large=x, ma=ma)
            else:
                y = children[0]
            self._charge_split(ncur, int(a.counts[y]))
            a.split_rows(cur, y, small=cur, large=y, ma=ncur)
            if cur == 1 and out is None:
                out = extract_root()
            cur = y

    # -- durable state ------------------------------------------------------
    def export_rows(self) -> StateRows:
        """The logical queue state as a header plus the live arena rows.

        Everything an identical replay needs: layout, heap shape, the
        exact simulated clock (as an exact ``Fraction`` string, so no
        float rounding sneaks in), the op counters, and the live
        records of the partial buffer and every node, taken from rows
        ``0..heap_size`` with one mask.  Arena capacity, scratch
        contents and dead rows are deliberately *not* part of the
        state: two queues that played the same op sequence export
        identical rows even if one grew its arena in different steps,
        which is what lets the durable service compare a recovered
        queue to an uninterrupted oracle.
        """
        header = {
            "k": self.k,
            "key_dtype": self.key_dtype.name,
            "payload_width": self.payload_width,
            "payload_dtype": self.payload_dtype.name,
            "heap_size": self._heap_size,
            "sim_ns": str(self.sim_time_ns_exact),
            "stats": dict(self.stats),
        }
        return StateRows(header, *self._arena.live_rows(self._heap_size))

    def export_state(self) -> dict:
        """Canonical snapshot: the :meth:`StateRows.as_state` dict view of
        :meth:`export_rows`, in plain JSON-serializable types — the input
        of the canonical-JSON digest in :mod:`repro.serve.checkpoint`."""
        return self.export_rows().as_state()

    def restore_rows(self, rows: StateRows) -> None:
        """Overwrite this queue with an :meth:`export_rows` snapshot.

        The snapshot is checked whole before anything is written: the
        header must be a dict carrying every exported field,
        ``heap_size`` an int >= 0; k, dtypes and payload width must
        match this queue's construction parameters; ``counts`` must
        give ``heap_size + 1`` non-negative row sizes that ``keys`` and
        ``pay`` hold exactly; the rows must pass
        :func:`~repro.core.arena.layout_problems`;
        ``sim_ns`` must be a clock an export could have written and
        ``stats`` a dict.  Anything else raises
        :class:`ConfigurationError` with the queue untouched.  The rows
        are then written straight into the arena — a restore never
        replays inserts, so the resulting node layout, clock, and stats
        are exactly the exported ones.
        """
        header, counts, keys, pay = rows
        if not isinstance(header, dict):
            raise ConfigurationError(
                f"snapshot header must be a dict, got {type(header).__name__}"
            )
        missing = [f for f in _HEADER_FIELDS if f not in header]
        if missing:
            raise ConfigurationError(f"snapshot lacks {', '.join(missing)}")
        heap_size = header["heap_size"]
        if (
            not isinstance(heap_size, numbers.Integral)
            or isinstance(heap_size, bool)
            or heap_size < 0
        ):
            raise ConfigurationError(
                f"snapshot heap_size must be an int >= 0, got {heap_size!r}"
            )
        heap_size = int(heap_size)
        if header["k"] != self.k:
            raise ConfigurationError(
                f"snapshot k={header['k']} != queue k={self.k}"
            )
        if (
            header["key_dtype"] != self.key_dtype.name
            or header["payload_width"] != self.payload_width
            or header["payload_dtype"] != self.payload_dtype.name
        ):
            raise ConfigurationError(
                "snapshot record layout does not match this queue: "
                f"snapshot ({header['key_dtype']}, w={header['payload_width']} "
                f"{header['payload_dtype']}) vs queue ({self.key_dtype.name}, "
                f"w={self.payload_width} {self.payload_dtype.name})"
            )
        counts, keys, pay = np.asarray(counts), np.asarray(keys), np.asarray(pay)
        if counts.ndim != 1 or counts.dtype.kind not in "iu":
            raise ConfigurationError(
                f"snapshot row counts must be a 1-D integer array, got "
                f"shape {counts.shape} of {counts.dtype}"
            )
        if counts.size != heap_size + 1:
            raise ConfigurationError(
                f"snapshot lists {counts.size - 1} nodes for heap_size={heap_size}"
            )
        if (counts < 0).any():
            raise ConfigurationError("snapshot has a negative row count")
        total = sum(counts.tolist())
        if (
            keys.shape != (total,)
            or keys.dtype != self.key_dtype
            or pay.shape != (total, self.payload_width)
            or pay.dtype != self.payload_dtype
        ):
            raise ConfigurationError(
                f"snapshot rows hold keys {keys.shape} {keys.dtype} and payload "
                f"{pay.shape} {pay.dtype}, but its counts give {total} records"
            )

        # validate the whole layout before writing a single row: the
        # fused kernels trust row counts and sortedness unchecked
        problems = layout_problems(counts, keys, self.k)
        if problems:
            raise ConfigurationError(
                "snapshot breaks the heap layout: " + "; ".join(problems)
            )

        ticks = _snapshot_ticks(header["sim_ns"])
        stats = header["stats"]
        if not isinstance(stats, dict):
            raise ConfigurationError(
                f"snapshot stats must be a dict, got {type(stats).__name__}"
            )
        if stats.keys() != self.stats.keys() or not all(
            isinstance(v, numbers.Integral) and not isinstance(v, bool) and v >= 0
            for v in stats.values()
        ):
            raise ConfigurationError(
                f"snapshot stats {stats!r:.80} are not counts >= 0 of "
                f"{', '.join(self.stats)}"
            )

        self.clear()
        self._ensure_rows(max(1, heap_size))
        a = self._arena
        live = np.arange(self.k) < counts[:, None]
        a.keys[: heap_size + 1][live] = keys
        if self.payload_width:
            a.pay[: heap_size + 1][live] = pay
        a.counts[: heap_size + 1] = counts
        self._heap_size = heap_size
        self._size = total
        self._ticks = ticks
        self.stats = {name: int(v) for name, v in stats.items()}

    def restore_state(self, state: dict) -> None:
        """Overwrite this queue with an :meth:`export_state` snapshot.

        Converts the dict's ``buffer`` and ``nodes`` rows to arrays and
        hands them to :meth:`restore_rows`, which checks the whole
        snapshot first: anything an export could not have written raises
        :class:`ConfigurationError` with the queue untouched.
        """
        if not isinstance(state, dict):
            raise ConfigurationError(
                f"snapshot must be a dict, got {type(state).__name__}"
            )
        missing = [f for f in ("buffer", "nodes") if f not in state]
        if missing:
            raise ConfigurationError(f"snapshot lacks {', '.join(missing)}")
        nodes = state["nodes"]
        if not isinstance(nodes, list):
            raise ConfigurationError(
                f"snapshot nodes must be a list, got {type(nodes).__name__}"
            )

        def _row(rec) -> tuple[np.ndarray, np.ndarray]:
            try:
                keys, pay = rec["keys"], rec["pay"]
            except (KeyError, TypeError, IndexError) as err:
                raise ConfigurationError(f"malformed snapshot row: {err!r}") from err
            keys = _snapshot_array(keys, self.key_dtype)
            pay = _snapshot_array(pay, self.payload_dtype)
            # an export writes [] for the payload of an empty row
            if keys.ndim != 1 or pay.shape != (keys.size, self.payload_width) and (
                keys.size or pay.shape != (0,)
            ):
                raise ConfigurationError(
                    f"malformed snapshot row: keys of shape {keys.shape} and "
                    f"payload of shape {pay.shape} for payload width "
                    f"{self.payload_width}"
                )
            return keys, pay.reshape(keys.size, self.payload_width)

        rows = [_row(state["buffer"])] + [_row(rec) for rec in nodes]
        header = {f: v for f, v in state.items() if f not in ("buffer", "nodes")}
        self.restore_rows(StateRows(
            header,
            np.array([nk.size for nk, _ in rows], dtype=np.int64),
            np.concatenate([nk for nk, _ in rows]),
            np.concatenate([npay for _, npay in rows]),
        ))

    # -- introspection ------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    @property
    def heap_size(self) -> int:
        """Nodes in the heap, the root included (the partial buffer is
        row 0, not a node)."""
        return self._heap_size

    @property
    def sim_ticks(self) -> int:
        """Accumulated device time in ticks of 1/:data:`TICKS_PER_NS` ns.

        Exact; per-op costs are ``(after - before) / TICKS_PER_NS``,
        which rounds once, exactly like the float of a Fraction delta.
        """
        return self._ticks

    @property
    def sim_time_ns(self) -> float:
        """Accumulated device time; exact internally, float at the API."""
        return self._ticks / TICKS_PER_NS

    @property
    def sim_time_ns_exact(self) -> Fraction:
        """Accumulated device time as an exact rational.

        Built on read from the integer tick clock: every charge is a
        float, hence a whole number of 2**-1074 ns ticks, so the tick
        sum *is* the exact sum of the charges and this Fraction equals
        the one a charge-by-charge ``Fraction`` accumulation would give.
        """
        return Fraction(self._ticks, TICKS_PER_NS)

    @property
    def sim_time_ms(self) -> float:
        return self.sim_time_ns / 1e6

    def memory_bytes(self) -> int:
        """Backing storage for nodes + buffer (k + O(1) per record).

        This is reserved capacity: after a growth step the arena holds
        up to 8x the rows the heap uses.  Rows never touched are never
        faulted in, so it can read well above the resident memory.
        """
        return int(
            self._arena.nbytes()
            + self._items_k.nbytes
            + self._items_p.nbytes
        )

    def snapshot_keys(self) -> np.ndarray:
        return self._arena.live_rows(self._heap_size)[1]

    def check_invariants(self) -> list[str]:
        """Batched-heap invariants, plus the O(1) length counter (tests only)."""
        counts, keys, _ = self._arena.live_rows(self._heap_size)
        problems = layout_problems(counts, keys, self.k)
        held = int(counts.sum())
        if self._size != held:
            problems.append(f"len() counter {self._size} != arena holds {held}")
        return problems
