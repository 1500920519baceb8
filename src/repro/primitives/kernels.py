"""Kernel dispatch: NumPy reference vs the compiled C backend.

``NativeBGPQ`` reaches the kernel layer through two batch primitives —
``sort_split_into`` (the paper's SORT_SPLIT between two nodes) and
``sort_records`` (the stable presort of an incoming batch) — plus, on
the compiled backend, the fused whole-op C entry points
``mod.insert_sorted`` / ``mod.deletemin``.  Each primitive exists in two
implementations:

``numpy``
    The reference implementations in this package.  Always present and
    always the semantic source of truth.
``cext``
    A small C core (``repro/device/ckern.c``) compiled on first use
    with whatever C compiler the host has, exposing the same two
    primitives plus the *fused* whole-heapify entry points.

The contract for every compiled kernel is **bit-identical output** to
the reference — same values, same tie resolution, same payload
permutation — enforced by the hypothesis differential suite in
``tests/primitives/test_kernel_parity.py``.  The compiled backend
restricts itself to the shapes it compiles for (int64 keys, C-contiguous
rows) and transparently falls back to the reference per call otherwise,
so a caller can never observe a behaviour difference, only a wall-clock
one.

Selection is lazy: the first :func:`active` call resolves the backend
from ``REPRO_KERNELS`` (``auto`` | ``numpy`` | ``cext``) and caches
it.  ``auto`` prefers cext (fused heapify) and falls back to numpy when
the C core cannot be built.  The CLI ``--kernels`` flag and
tests use :func:`set_active` / :func:`use` to override explicitly.
Simulated-time accounting never depends on the backend: charges are
derived from batch *sizes*, which every backend reports identically.
"""

from __future__ import annotations

import logging
import os
import time
from contextlib import contextmanager

import numpy as np

from . import inplace as _inplace

__all__ = [
    "BACKENDS",
    "KernelSet",
    "active",
    "available_backends",
    "instrument",
    "provenance",
    "select",
    "set_active",
    "use",
]

log = logging.getLogger("repro.kernels")

_ENV = "REPRO_KERNELS"
_CHOICES = ("auto", "numpy", "cext")
BACKENDS = _CHOICES[1:]
_I64 = np.dtype(np.int64)

_active: "KernelSet | None" = None
_notices: set[str] = set()


def _notice_once(msg: str) -> None:
    if msg not in _notices:
        _notices.add(msg)
        log.info(msg)


def _row_bytes(p: np.ndarray | None) -> int:
    """Bytes per payload row, 0 when there is no payload to move."""
    if p is None or p.ndim < 2 or p.shape[1] == 0:
        return 0
    return p.shape[1] * p.dtype.itemsize


def _c_i64(*arrs: np.ndarray) -> bool:
    for x in arrs:
        if x.dtype != _I64 or not x.flags.c_contiguous:
            return False
    return True


def _c_contig(*arrs) -> bool:
    for x in arrs:
        if x is not None and not x.flags.c_contiguous:
            return False
    return True


class KernelSet:
    """The NumPy reference backend; the compiled backend subclasses this
    and overrides what it accelerates, falling back per call otherwise."""

    name = "numpy"
    #: offers fused whole-heapify entry points over a NodeArena
    fused = False

    # -- per-node primitives (signatures match repro.primitives) -------
    def sort_split_into(self, a, b, ma, x_k, y_k, scratch,
                        pa=None, pb=None, x_p=None, y_p=None):
        return _inplace.sort_split_into(
            a, b, ma, x_k, y_k, scratch, pa, pb, x_p, y_p
        )

    def sort_records(self, keys, pay):
        """Stable sort records by key; returns new (keys, payload) arrays.

        The bulk-insert presort.  Reference: one stable argsort applied
        to both columns — compiled backends must reproduce exactly this
        permutation.  With no payload columns the permutation is
        unobservable, so a direct value sort (same output values, no
        index indirection) is used on every backend.
        """
        if pay.ndim == 2 and pay.shape[1] == 0:
            return np.sort(keys), pay
        order = np.argsort(keys, kind="stable")
        return keys[order], pay[order]

    # -- introspection -------------------------------------------------
    def provenance(self) -> dict:
        """Where results produced under this backend came from."""
        return {"backend": self.name, "fused": self.fused}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<KernelSet {self.name}>"


class CExtKernels(KernelSet):
    """C-extension backend: int64 keys, raw-byte payload rows.

    Shapes outside the compiled contract (non-int64 keys, non-contiguous
    views) take the reference path for that call — bit-identical either
    way, so the dispatch is invisible to callers.
    """

    name = "cext"
    fused = True

    def __init__(self, mod):
        self.mod = mod

    def sort_split_into(self, a, b, ma, x_k, y_k, scratch,
                        pa=None, pb=None, x_p=None, y_p=None):
        with_pay = x_p is not None and scratch.pay.shape[1] > 0
        rb = _row_bytes(x_p) if with_pay else 0
        if (
            not _c_i64(a, b, x_k, y_k, scratch.keys)
            or (rb and not _c_contig(pa, pb, x_p, y_p, scratch.pay))
        ):
            return _inplace.sort_split_into(
                a, b, ma, x_k, y_k, scratch, pa, pb, x_p, y_p
            )
        total = a.shape[0] + b.shape[0]
        if not 0 <= ma <= total:
            raise ValueError(f"split point {ma} outside [0, {total}]")
        if total > scratch.keys.shape[0]:
            raise ValueError(
                f"{total} keys exceed scratch capacity {scratch.keys.shape[0]}"
            )
        if rb:
            self.mod.sort_split_into(
                a, b, ma, x_k, y_k, scratch.keys, pa, pb, x_p, y_p,
                scratch.pay, rb,
            )
        else:
            self.mod.sort_split_into(
                a, b, ma, x_k, y_k, scratch.keys,
                None, None, None, None, None, 0,
            )
        return ma, total - ma

    def sort_records(self, keys, pay):
        keys = np.ascontiguousarray(keys)
        rb = _row_bytes(pay if pay.ndim == 2 else pay.reshape(-1, 1))
        if keys.dtype != _I64 or not rb:
            # non-int64 keys, or keys-only: the reference (numpy's own
            # sort) already wins — the C mergesort only pays off when a
            # payload permutation must ride along with the keys
            return super().sort_records(keys, pay)
        pay = np.ascontiguousarray(pay)
        out_k = keys.copy()
        out_p = pay.copy()
        self.mod.sort_records(out_k, out_p, rb)
        return out_k, out_p


# ---------------------------------------------------------------------
# backend construction & selection
# ---------------------------------------------------------------------

def _make_numpy() -> KernelSet:
    return KernelSet()


def _make_cext() -> KernelSet | None:
    from ..device import cbuild

    mod = cbuild.load_ckern()
    if mod is None:
        _notice_once(
            "compiled kernels unavailable "
            f"({cbuild.build_error() or 'no build attempted'}); "
            "using the NumPy reference"
        )
        return None
    return CExtKernels(mod)


_FACTORIES = {"numpy": _make_numpy, "cext": _make_cext}


def select(name: str) -> KernelSet:
    """Build the named backend, falling back to numpy when unavailable.

    ``auto`` picks cext when the C core builds, else the reference.
    """
    if name not in _CHOICES:
        raise ValueError(
            f"unknown kernel backend {name!r}; choose one of {_CHOICES}"
        )
    kern = _FACTORIES["cext" if name == "auto" else name]()
    if kern is None:
        if name != "auto":
            _notice_once(f"kernel backend {name!r} unavailable; using numpy")
        return _make_numpy()
    return kern


def active() -> KernelSet:
    """The process-wide backend (lazy; honours ``REPRO_KERNELS``)."""
    global _active
    if _active is None:
        _active = select(os.environ.get(_ENV, "auto"))
    return _active


def set_active(name: str | None) -> KernelSet:
    """Explicitly (re)select the process-wide backend (CLI ``--kernels``)."""
    global _active
    _active = select(name if name is not None else os.environ.get(_ENV, "auto"))
    return _active


@contextmanager
def use(name: str):
    """Temporarily switch the active backend (tests, bench lanes)."""
    global _active
    prev = _active
    _active = select(name)
    try:
        yield _active
    finally:
        _active = prev


def available_backends() -> list[str]:
    """Backends that would actually resolve on this host (probes each)."""
    return ["numpy"] + (["cext"] if _FACTORIES["cext"]() is not None else [])


def provenance(kern: KernelSet | None = None) -> dict:
    """Provenance record for results produced under ``kern`` (or active)."""
    return (kern or active()).provenance()


# ---------------------------------------------------------------------
# instrumentation
# ---------------------------------------------------------------------

_TIMED = ("sort_split_into", "sort_records")


class InstrumentedKernels:
    """Wrap a backend so each kernel call lands in a wall-ns histogram.

    One histogram per kernel, labelled with the backend — the metrics
    feed of the ``bench native`` wall-clock lane.  Wall timing is real time, so
    this wrapper is only used in explicitly-instrumented passes, never
    in the deterministic DES paths.
    """

    def __init__(self, base: KernelSet, registry):
        self._base = base
        self.name = base.name
        # instrumentation needs per-kernel call boundaries, so the
        # whole-op fused path (one opaque C call per queue op) is
        # disabled here; results are bit-identical either way
        self.fused = False
        self._hists = {
            op: registry.histogram(
                "repro_kernel_wall_ns",
                "per-call kernel wall time (ns)",
                kernel=op,
                backend=base.name,
            )
            for op in _TIMED
        }
        for op in _TIMED:
            setattr(self, op, self._timed(op))

    def _timed(self, op: str):
        fn = getattr(self._base, op)
        hist = self._hists[op]
        def call(*args, **kwargs):
            t0 = time.perf_counter_ns()
            out = fn(*args, **kwargs)
            hist.observe(time.perf_counter_ns() - t0)
            return out
        return call

    def provenance(self) -> dict:
        info = self._base.provenance()
        info["instrumented"] = True
        return info

    def __getattr__(self, item):
        return getattr(self._base, item)


def instrument(base: KernelSet, registry) -> InstrumentedKernels:
    """Instrumented view of ``base`` reporting into ``registry``."""
    return InstrumentedKernels(base, registry)
