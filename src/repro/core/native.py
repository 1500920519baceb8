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
too), every SORT_SPLIT runs through the arena's fused in-place
:meth:`~repro.core.arena.NodeArena.split_rows` path on this queue's
kernel set, and the steady-state heapify loop performs zero traced
allocations — the application engines' hot path mirrors the paper's
preallocated device layout (§3.3).

Bulk operations amortise per-batch overhead the way the paper's
batching amortises per-key overhead: :meth:`insert_bulk` accepts
arbitrarily many records, sorts once, and feeds presorted full batches
to the heap (one heapify per batch); :meth:`build` loads an initial
frontier in O(n) node operations by laying the globally sorted keys
out level by level (every BFS-ordered row then satisfies the batched
heap property, the array-heap analogue of Floyd's bottom-up build).

Because its per-operation behaviour is identical to the sequential
semantics of BGPQ, it doubles as a second differential-testing
reference for the concurrent implementation.
"""

from __future__ import annotations

import numbers
import re
from fractions import Fraction

import numpy as np

from ..device.costmodel import GpuCostModel
from ..device.kernels import GpuContext
from ..errors import ConfigurationError
from ..primitives import kernels as kernel_registry
from .arena import NodeArena
from .heap import left, parent, path_next, right

__all__ = ["NativeBGPQ", "TICKS_PER_NS"]

_I64 = np.dtype(np.int64)

#: Sim-clock ticks per nanosecond: one tick is 2**-1074 ns, the
#: granularity of every finite binary64 float.
TICKS_PER_NS = 1 << 1074

# the str(Fraction) form export_state writes; no exponents, so parsing
# a hostile snapshot cannot build a giant power of ten
_SIM_NS_RE = re.compile(r"-?[0-9]+(/[0-9]+)?")

# every top-level field export_state writes; restore_state needs them all
_SNAPSHOT_FIELDS = (
    "k", "key_dtype", "payload_width", "payload_dtype",
    "heap_size", "buffer", "nodes", "sim_ns", "stats",
)

# bound on each queue's charge memo (distinct (tag, p1, p2) shapes)
_CHARGE_MEMO_MAX = 4096
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

    The memo lives and dies with its queue: a process-wide cache would
    keep its big-int entries, allocated all through a run, pinning
    allocator arenas and raising peak RSS.
    """

    __slots__ = ("model", "k")

    def __init__(self, model: GpuCostModel | None, k: int):
        super().__init__()
        self.model = model
        self.k = k

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
        # kernel backend: None -> process-wide active selection; a name
        # ("numpy"/"cext"/"auto") -> explicit; or a KernelSet.
        # Every backend is bit-identical, so this only moves wall-clock.
        if isinstance(kernels, str):
            self._kern = kernel_registry.select(kernels)
        elif kernels is not None:
            self._kern = kernels
        else:
            self._kern = kernel_registry.active()
        # fused C heapify needs int64 keys (payload rows move as raw
        # bytes, so any payload dtype is fine)
        self._row_bytes = self.payload_width * self.payload_dtype.itemsize
        self._fused = (
            bool(getattr(self._kern, "fused", False)) and self.key_dtype == _I64
        )
        if self._fused:
            # combined scratch: [2k int64 keys][2k payload rows], int64-
            # backed so the key half stays aligned; charge logs sized for
            # any heap depth reachable with 64-bit node indices
            pad = (2 * node_capacity * self._row_bytes + 7) // 8
            self._fscratch = np.empty(2 * node_capacity + pad, dtype=np.int64)
            self._ins_log = np.empty(256, dtype=np.int64)
            self._del_log = np.empty(1024, dtype=np.int64)
        # row 0 is the partial buffer, row i is node i; rows double
        # on demand so steady-state operation never reallocates
        self._arena = NodeArena(
            8,
            node_capacity,
            dtype=key_dtype,
            payload_width=payload_width,
            payload_dtype=payload_dtype,
            kernels=self._kern,
        )
        # the travelling batch of both heapify loops (Alg. 1's `items`)
        self._items_k = np.empty(node_capacity, dtype=key_dtype)
        self._items_p = np.empty((node_capacity, payload_width), dtype=payload_dtype)

    # -- internals ---------------------------------------------------------
    def _empty_out(self) -> tuple[np.ndarray, np.ndarray]:
        return (
            np.empty(0, dtype=self.key_dtype),
            np.empty((0, self.payload_width), dtype=self.payload_dtype),
        )

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

    def _replay_log(self, log: np.ndarray, nlog: int) -> None:
        """Replay a fused kernel's charge log of (tag, p1, p2) triples."""
        it = iter(log[: 3 * nlog].tolist())
        self._ticks += sum(map(self._charges.__getitem__, zip(it, it, it)))

    def _charge_batch_entry(self, n: int) -> None:
        """Per-batch entry cost: coalesced read, in-block sort, root lock."""
        if self.model is not None:
            self._ticks += self._charges[_BATCH_ENTRY, n, 0]

    def _normalize(self, keys, payload) -> tuple[np.ndarray, np.ndarray]:
        keys = np.asarray(keys, dtype=self.key_dtype)
        if keys.ndim != 1:
            raise ValueError("keys must be 1-D")
        return keys, self._payload_for(keys, payload)

    # -- kernel backend ----------------------------------------------------
    @property
    def kernel_backend(self) -> str:
        """Name of the kernel backend this queue dispatches to."""
        return getattr(self._kern, "name", "numpy")

    def kernel_provenance(self) -> dict:
        """Provenance record (backend, capabilities, fused dispatch)."""
        info = kernel_registry.provenance(self._kern)
        info["fused_active"] = self._fused
        return info

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
        disappears and each full batch costs exactly one heapify.
        Device charges are identical to inserting the same slices one
        ``insert`` call at a time — the bitonic network's cost is
        data-independent — so simulated times stay comparable.
        """
        keys, pay = self._normalize(keys, payload)
        if keys.size == 0:
            return
        skeys, spay = self._kern.sort_records(keys, pay)
        for i in range(0, skeys.size, self.k):
            part = skeys[i : i + self.k]
            self._insert_sorted(part, spay[i : i + self.k])
            self._size += part.size

    def build(self, keys, payload=None) -> None:
        """Load an initial frontier into an *empty* queue in O(n) node ops.

        Sorts the records once and lays them out level by level: node 1
        gets the k smallest, node 2 the next k, and so on, with the
        trailing partial batch in the partial buffer.  Because rows are
        filled in globally ascending order, every node's minimum is >=
        its parent's maximum by construction — the batched-heap
        analogue of Floyd's bottom-up heap construction, with no
        per-node heapify at all.

        Device charge: one coalesced read+write of the n records plus a
        per-batch in-block sort and a merge tree over the batches (the
        device would produce the global order with a batch merge sort).
        """
        if self._size:
            raise ValueError("build requires an empty queue; use insert_bulk")
        keys, pay = self._normalize(keys, payload)
        n = keys.size
        if n == 0:
            return
        skeys, spay = self._kern.sort_records(keys, pay)
        k = self.k
        chunks = -(-n // k)
        if self.model is not None:
            m = self.model
            self._charge(
                m.global_read_ns(n)
                + m.global_write_ns(n)
                + chunks * m.bitonic_sort_ns(min(n, k))
                + chunks * max(0, chunks.bit_length() - 1) * m.sort_split_ns(k, k)
                + m.lock_acquire_ns()
                + m.lock_release_ns()
            )
        self.stats["ops"] += 1
        full = n // k
        rest = n - full * k
        # fewer than k keys: everything is the root, buffer stays empty
        nodes = max(1, full)
        body = nodes * k if full else n
        self._ensure_rows(nodes)
        a = self._arena
        if full:
            a.keys[1 : full + 1] = skeys[:body].reshape(full, k)
            if self.payload_width:
                a.pay[1 : full + 1] = spay[:body].reshape(
                    full, k, self.payload_width
                )
            a.counts[1 : full + 1] = k
            a.keys[0, :rest] = skeys[body:]
            if self.payload_width:
                a.pay[0, :rest] = spay[body:]
            a.counts[0] = rest
        else:
            a.keys[1, :n] = skeys
            if self.payload_width:
                a.pay[1, :n] = spay
            a.counts[1] = n
        self._heap_size = nodes
        self._size = n

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

    def peek(self):
        """Smallest key without removing it (``None`` when empty).

        A quiescent read for routers and spray probes: the root's first
        key is the global minimum whenever the heap is non-empty (the
        partial buffer's min is >= the root's max by invariant), so no
        traversal happens and no device time is charged here — a
        fleet-level caller models its own probe cost explicitly.
        """
        a = self._arena
        if self._heap_size and a.counts[1]:
            return a.keys[1, 0].item()
        return a.keys[0, 0].item() if a.counts[0] else None

    def clear(self) -> None:
        """Reset to empty; storage, stats and the sim clock are retained."""
        self._arena.counts[:] = 0
        self._heap_size = 0
        self._size = 0

    # -- dispatch ---------------------------------------------------------
    def _insert_sorted(self, skeys: np.ndarray, spay: np.ndarray) -> None:
        """Insert one already-sorted batch of at most k records."""
        self._charge_batch_entry(skeys.size)
        self.stats["ops"] += 1
        self._insert_sorted_rows(skeys, spay)

    # -- arena rows, fused in-place SORT_SPLIT -------------------------------
    def _ensure_rows(self, i: int) -> None:
        a = self._arena
        if i >= a.rows:
            self._arena = a.grown(max(2 * a.rows, i + 1))

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

    def _insert_sorted_rows(self, skeys: np.ndarray, spay: np.ndarray) -> None:
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
        if self._fused:
            # one C call runs the whole insert (root split, buffer
            # fold/detach, heapify); the charge log replays the exact
            # per-step device costs afterwards
            self._ensure_rows(self._heap_size + 1)
            a = self._arena
            new_hs, nlog = self._kern.mod.insert_sorted(
                a.keys, a.pay, a.counts, ik, ip, self._fscratch,
                self.k, self._row_bytes, n, self._heap_size, self._ins_log,
            )
            if new_hs != self._heap_size:
                self.stats["insert_heapify"] += 1
                self._heap_size = new_hs
            if self.model is not None:
                self._replay_log(self._ins_log, nlog)
            return
        nroot = int(a.counts[1])
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
        a.kernels.sort_split_into(
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
            return self._empty_out()
        nroot = int(a.counts[1])
        if count < nroot:
            out_k = a.keys[1, :count].copy()
            out_p = a.pay[1, :count].copy()
            self._shift_row_left(1, count)
            if self.model is not None:
                self._charge(self.model.global_read_ns(count))
            return out_k, out_p
        if self._heap_size == 1:
            # refill from the buffer
            nbuf = int(a.counts[0])
            take = min(count - nroot, nbuf)
            total = nroot + take
            out_k = np.empty(total, dtype=self.key_dtype)
            out_p = np.empty((total, self.payload_width), dtype=self.payload_dtype)
            out_k[:nroot] = a.keys[1, :nroot]
            out_k[nroot:] = a.keys[0, :take]
            if self.payload_width:
                out_p[:nroot] = a.pay[1, :nroot]
                out_p[nroot:] = a.pay[0, :take]
            rest = nbuf - take
            if rest:
                a.keys[1, :rest] = a.keys[0, take:nbuf]
                if self.payload_width:
                    a.pay[1, :rest] = a.pay[0, take:nbuf]
                a.counts[1] = rest
                a.counts[0] = 0
            else:
                a.counts[0] = 0
                a.counts[1] = 0
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
                self._replay_log(self._del_log, nlog)
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
    def export_state(self) -> dict:
        """Canonical snapshot of the logical queue state.

        Everything an identical replay needs — layout, heap shape, the
        live records of every node and the partial buffer, the exact
        simulated clock (as an exact ``Fraction`` string, so no float
        rounding sneaks in), and the op counters — as plain
        JSON-serializable types.  Arena capacity, scratch contents, and
        dead rows are deliberately *not* part of the state: two queues that played the
        same op sequence export identical dicts even if one grew its
        arena in different steps, which is what lets the durable service
        layer compare a recovered queue to an uninterrupted oracle
        byte-for-byte (via the canonical-JSON digest in
        :mod:`repro.serve.checkpoint`).
        """
        a = self._arena
        buf_n = int(a.counts[0])
        buffer = {"keys": a.keys[0, :buf_n].tolist(), "pay": a.pay[0, :buf_n].tolist()}
        nodes = []
        for i in range(1, self._heap_size + 1):
            n = int(a.counts[i])
            nodes.append({"keys": a.keys[i, :n].tolist(), "pay": a.pay[i, :n].tolist()})
        return {
            "k": self.k,
            "key_dtype": self.key_dtype.name,
            "payload_width": self.payload_width,
            "payload_dtype": self.payload_dtype.name,
            "heap_size": self._heap_size,
            "buffer": buffer,
            "nodes": nodes,
            "sim_ns": str(self.sim_time_ns_exact),
            "stats": dict(self.stats),
        }

    def restore_state(self, state: dict) -> None:
        """Overwrite this queue with an :meth:`export_state` snapshot.

        The snapshot is checked whole before anything is written: it
        must be a dict carrying every exported field, ``heap_size`` an
        int >= 0 and ``nodes`` a list; k, dtypes and payload width must
        match this queue's construction parameters; its rows must form
        a valid batched heap; ``sim_ns`` must be a clock an export could
        have written and ``stats`` a dict.  Anything else raises
        :class:`ConfigurationError` with the queue untouched.  The rows
        are then written straight into the arena — a restore never
        replays inserts, so the resulting node layout, clock, and stats
        are exactly the exported ones.
        """
        if not isinstance(state, dict):
            raise ConfigurationError(
                f"snapshot must be a dict, got {type(state).__name__}"
            )
        missing = [f for f in _SNAPSHOT_FIELDS if f not in state]
        if missing:
            raise ConfigurationError(f"snapshot lacks {', '.join(missing)}")
        heap_size = state["heap_size"]
        if (
            not isinstance(heap_size, numbers.Integral)
            or isinstance(heap_size, bool)
            or heap_size < 0
        ):
            raise ConfigurationError(
                f"snapshot heap_size must be an int >= 0, got {heap_size!r}"
            )
        heap_size = int(heap_size)
        nodes = state["nodes"]
        if not isinstance(nodes, list):
            raise ConfigurationError(
                f"snapshot nodes must be a list, got {type(nodes).__name__}"
            )
        if state["k"] != self.k:
            raise ConfigurationError(
                f"snapshot k={state['k']} != queue k={self.k}"
            )
        if (
            state["key_dtype"] != self.key_dtype.name
            or state["payload_width"] != self.payload_width
            or state["payload_dtype"] != self.payload_dtype.name
        ):
            raise ConfigurationError(
                "snapshot record layout does not match this queue: "
                f"snapshot ({state['key_dtype']}, w={state['payload_width']} "
                f"{state['payload_dtype']}) vs queue ({self.key_dtype.name}, "
                f"w={self.payload_width} {self.payload_dtype.name})"
            )
        if len(nodes) != heap_size:
            raise ConfigurationError(
                f"snapshot lists {len(nodes)} nodes for heap_size={heap_size}"
            )

        def _row(rec) -> tuple[np.ndarray, np.ndarray]:
            try:
                keys = np.asarray(rec["keys"], dtype=self.key_dtype).reshape(-1)
                pay = np.asarray(rec["pay"], dtype=self.payload_dtype).reshape(
                    keys.size, self.payload_width
                )
            except (KeyError, TypeError, ValueError) as err:
                raise ConfigurationError(f"malformed snapshot row: {err}") from err
            return keys, pay

        # validate the whole layout before writing a single row: the
        # fused kernels trust row counts and sortedness unchecked
        bk, bp = _row(state["buffer"])
        rows = [_row(rec) for rec in nodes]
        problems = self._layout_problems([nk for nk, _ in rows], bk)
        if problems:
            raise ConfigurationError(
                "snapshot breaks the heap layout: " + "; ".join(problems)
            )

        ticks = _snapshot_ticks(state["sim_ns"])
        stats = state["stats"]
        if not isinstance(stats, dict):
            raise ConfigurationError(
                f"snapshot stats must be a dict, got {type(stats).__name__}"
            )

        self.clear()
        self._ensure_rows(max(1, heap_size))
        a = self._arena
        a.keys[0, : bk.size] = bk
        if self.payload_width:
            a.pay[0, : bk.size] = bp
        a.counts[0] = bk.size
        for i, (nk, npay) in enumerate(rows, start=1):
            a.keys[i, : nk.size] = nk
            if self.payload_width:
                a.pay[i, : nk.size] = npay
            a.counts[i] = nk.size
        self._heap_size = heap_size
        self._size = bk.size + sum(nk.size for nk, _ in rows)
        self._ticks = ticks
        self.stats = dict(stats)

    # -- introspection ------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

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
        """Backing storage for nodes + buffer (k + O(1) per record)."""
        return int(
            self._arena.nbytes()
            + self._items_k.nbytes
            + self._items_p.nbytes
        )

    def snapshot_keys(self) -> np.ndarray:
        a = self._arena
        parts = [a.keys[i, : int(a.counts[i])] for i in range(self._heap_size + 1)]
        return np.concatenate(parts)

    # -- invariants (tests only) -------------------------------------------
    def _node_keys(self, i: int) -> np.ndarray | None:
        """Keys of node ``i`` (None for a dead slot); quiescent use only."""
        a = self._arena
        if i >= a.rows:
            return None
        return a.keys[i, : int(a.counts[i])]

    def _buffer_keys(self) -> np.ndarray:
        a = self._arena
        return a.keys[0, : int(a.counts[0])]

    def _layout_problems(self, node_keys: list, buf: np.ndarray) -> list[str]:
        """Batched-heap layout violations; ``node_keys[i - 1]`` holds node
        ``i``'s keys (``None`` for a dead slot), ``buf`` the partial buffer."""
        k = self.k
        problems = []
        for i, n in enumerate(node_keys, start=1):
            if n is None:
                continue
            if n.size > k:
                problems.append(f"node {i} over capacity ({n.size}/{k})")
            elif i > 1 and n.size != k:
                problems.append(f"interior node {i} not full ({n.size}/{k})")
            if n.size > 1 and (n[:-1] > n[1:]).any():
                problems.append(f"node {i} unsorted")
            p = node_keys[parent(i) - 1] if i > 1 else None
            if p is not None and n.size and p.size and n[0] < p[-1]:
                problems.append(f"node {i} min < parent max")
        if buf.size >= k:
            problems.append("buffer overflow")
        if buf.size > 1 and (buf[:-1] > buf[1:]).any():
            problems.append("buffer unsorted")
        root = node_keys[0] if node_keys else None
        if root is not None and root.size and buf.size and buf[0] < root[-1]:
            problems.append("buffer min < root max")
        return problems

    def check_invariants(self) -> list[str]:
        """Batched-heap invariants, plus the O(1) length counter (tests only)."""
        problems = self._layout_problems(
            [self._node_keys(i) for i in range(1, self._heap_size + 1)],
            self._buffer_keys(),
        )
        a = self._arena
        held = int(a.counts[0] + a.counts[1 : self._heap_size + 1].sum())
        if self._size != held:
            problems.append(f"len() counter {self._size} != arena holds {held}")
        return problems
