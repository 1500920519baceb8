"""Kernel dispatch: NumPy reference vs the compiled C backend.

A ``KernelSet`` is the backend handle ``NativeBGPQ`` resolves once:
``sort_records`` (the stable presort of an incoming batch), plus the
compiled module ``mod`` on cext.  SORT_SPLIT between two nodes is not
dispatched: every node-level split outside the C core calls
:func:`repro.primitives.inplace.sort_split_into` directly.

``numpy``
    The reference, always present and the semantic source of truth;
    the queue's heapify loops run the reference split node by node.
``cext``
    A small C core (``repro/device/ckern.c``) compiled on first use
    with whatever C compiler the host has.  It runs each queue op as
    one *fused* whole-op call over the arena, ``mod.insert_sorted`` or
    ``mod.deletemin``, with every node SORT_SPLIT inside it, and
    accelerates ``sort_records`` for payload-carrying batches.

One caller outside the queue uses the compiled module directly: the
knapsack solver's ``_Expansion`` (``repro/apps/knapsack``) runs the C
core's ``mod.expand``, one node batch's children and bounds per call,
when the active backend is fused, and its own NumPy body otherwise,
the same selection ``NativeBGPQ`` makes.  On the same backend
``NativeBGPQ.knapsack_step`` runs ``mod.knapsack_step``, one whole
branch-and-bound iteration (deletemin, expand, insert) per call.

The contract for every compiled kernel is **bit-identical output** to
the reference — same values, same tie resolution, same payload
permutation — enforced by the hypothesis differential suites in
``tests/primitives/test_kernel_parity.py`` (``sort_records``) and
``tests/core/test_native_backends.py`` (whole queues).  A queue whose
keys are not int64 runs the reference path on either backend, so a
caller can never observe a behaviour difference, only a wall-clock
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

__all__ = [
    "BACKENDS",
    "InstrumentedKernels",
    "KernelSet",
    "active",
    "available_backends",
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


class KernelSet:
    """The NumPy reference backend; the compiled backend subclasses this
    and overrides what it accelerates, falling back per call otherwise."""

    name = "numpy"
    #: offers fused whole-heapify entry points over a NodeArena
    fused = False

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

    ``mod`` is the compiled module ``NativeBGPQ`` runs its fused ops on;
    a queue that cannot fuse (non-int64 keys) splits on the reference.
    A ``sort_records`` call outside the compiled contract takes the
    reference path too — bit-identical either way, so the dispatch is
    invisible to callers.
    """

    name = "cext"
    fused = True

    def __init__(self, mod):
        self.mod = mod

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
        # a natural-run mergesort: r ascending runs (a knapsack
        # expansion batch holds a few) take ceil(log2 r) merge passes
        self.mod.sort_records(out_k, out_p, rb)
        return out_k, out_p


# ---------------------------------------------------------------------
# backend construction & selection
# ---------------------------------------------------------------------

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


_FACTORIES = {"numpy": KernelSet, "cext": _make_cext}


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
        return KernelSet()
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

def _timed(fn, hist):
    def call(*args, **kwargs):
        t0 = time.perf_counter_ns()
        out = fn(*args, **kwargs)
        hist.observe(time.perf_counter_ns() - t0)
        return out
    return call


class _TimedView:
    """``base`` with the named callables timed into their histograms;
    every other attribute passes through."""

    def __init__(self, base, hists: dict):
        self._base = base
        for op, hist in hists.items():
            setattr(self, op, _timed(getattr(base, op), hist))

    def __getattr__(self, item):
        return getattr(self._base, item)


class InstrumentedKernels(_TimedView):
    """Wrap a backend so each kernel call a queue makes lands in a
    wall-ns histogram.

    One histogram per kernel, labelled with the backend — the metrics
    feed of the ``bench native`` wall-clock lane.  The wrapper keeps
    its base's ``fused``, so a queue runs the same path instrumented or
    not, and the timed calls are the backend's: ``sort_records`` on
    both, plus the fused ``insert_sorted`` and ``deletemin`` (through a
    timed view of ``mod``) on the compiled one.  The reference split is
    a direct call, not a kernel, so it is not timed here.  Wall timing
    is real time, so this wrapper is only used in explicitly-
    instrumented passes, never in the deterministic DES paths.
    """

    def __init__(self, base: KernelSet, registry):
        def hists(*ops):
            return {
                op: registry.histogram(
                    "repro_kernel_wall_ns",
                    "per-call kernel wall time (ns)",
                    kernel=op,
                    backend=base.name,
                )
                for op in ops
            }

        super().__init__(base, hists("sort_records"))
        if base.fused:
            self.mod = _TimedView(base.mod, hists("insert_sorted", "deletemin"))

    def provenance(self) -> dict:
        info = self._base.provenance()
        info["instrumented"] = True
        return info
