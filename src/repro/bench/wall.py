"""Wall-clock bench of NativeBGPQ: `repro bench native`.

Everything else in :mod:`repro.bench` gates *simulated* device time,
which is a pure function of the workload and therefore byte-stable
across hosts and kernel backends.  This lane is the complement: it
times **real host throughput** of :class:`repro.core.native.NativeBGPQ`
— the engine behind every application benchmark — per kernel variant,
against the NumPy reference.  Variants are ``numpy`` (the reference
kernels) and ``cext`` (the compiled C core, when the host can build
it); both run the same arena storage.

Lanes (per node capacity in :data:`WALL_KS`):

``insert``
    Full k-batch inserts; every op overflows the partial buffer and
    runs one bottom-up heapify.
``delete``
    ``deletemin(k)`` from a deep pre-filled heap; every op promotes the
    last node and runs one top-down heapify.
``mixed``
    The steady-state pair — one full-batch insert + one ``deletemin(k)``
    per op.  Two gates sit on it: the compiled variant must clear
    :data:`FLOOR_SPEEDUP` x the numpy reference at k=512, and the numpy
    variant's loop must be allocation-free (see below).
``bulk``
    One :meth:`insert_bulk` of :data:`BULK_RECORDS` records carrying a
    width-1 payload into a cleared queue — the post-expansion push every
    app driver performs, with the payload column riding the presort.

App solves have no cell: perfbench's ``knapsack`` workload times them,
and ``tests/apps/test_backend_parity.py`` checks their answers per backend.

Queues are constructed without a ``GpuContext``: device-charge
accounting is bit-identical across variants (tested), so simulating it
here would only tax every variant equally and blur the ratios.

Gating is two-layered, both machine-portable, and :data:`LANE` hands
both to the shared runner :func:`repro.bench.reporting.run_lane`:

* a committed drift baseline (``BENCH_wall.json``, env override
  ``REPRO_BENCH_WALL_BASELINE``) checked through
  :func:`repro.bench.reporting.compare_to_baseline` — speedup keys are
  shaped ``"{bench}:{variant}/k={k}"`` so the shared geomean grouping
  gates each (bench, variant) lane separately, and the zero-allocation
  flags ``"mixed:numpy/k={k}"`` must stay set; hosts that cannot build
  the C core simply skip the cext keys and still gate the flags;
* the hard floor of :func:`wall_gate_problems` on the compiled mixed
  lane at k=512.

Allocation methodology: timing runs untraced and allocations are
measured in a separate tracemalloc pass, which collects garbage before
each reading — full queue operations leave behind collectable cycle
debris from numpy's ufunc machinery, k-independent noise that says
nothing about the data path.  After collection the steady-state mixed
loop retains well under one k-key buffer.
"""

from __future__ import annotations

import gc
import os
import time
import tracemalloc

import numpy as np

from ..core.native import NativeBGPQ
from ..device import cbuild
from ..primitives import kernels as kernel_registry
from ..primitives.kernels import InstrumentedKernels
from .reporting import BenchLane, refresh_analysis_baseline, results_dir

__all__ = [
    "BULK_RECORDS",
    "FLOOR_SPEEDUP",
    "LANE",
    "WALL_KS",
    "instrumented_mixed_pass",
    "run_wall",
    "wall_gate_problems",
]

WALL_KS = (32, 128, 512)
WALL_BENCHES = ("insert", "delete", "mixed", "bulk")
BULK_RECORDS = 32768
FLOOR_SPEEDUP = 3.15
FLOOR_KEY_BENCH = "mixed"
FLOOR_VARIANT = "cext"
FLOOR_K = 512
#: the variant every speedup is measured against
REFERENCE = "numpy"


def _time_loop(ops: dict, iters: int, repeats: int = 3) -> dict:
    """Ops/sec per variant for ``ops[variant](i)`` over ``iters`` calls
    (no tracing).

    A warmup quarter-loop primes caches and branch history, then the
    best of ``repeats`` timed loops is taken — the minimum-time
    convention, since anything slower than the best run is measurement
    interference, not the code.  The variants' loops are interleaved
    repeat by repeat, so a speed swing of the shared host lands on
    numerator and denominator of a ratio alike instead of on whichever
    variant happened to be running.  This keeps quick-mode speedup
    ratios comparable to the full-iteration baseline's.
    """
    for op in ops.values():
        for i in range(max(1, iters // 4)):
            op(i)
    best = dict.fromkeys(ops, float("inf"))
    for _ in range(repeats):
        for variant, op in ops.items():
            t0 = time.perf_counter()
            for i in range(iters):
                op(i)
            best[variant] = min(best[variant], time.perf_counter() - t0)
    return {variant: iters / t for variant, t in best.items()}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _batches(rng, n: int, k: int) -> list[np.ndarray]:
    return [rng.integers(0, 1 << 30, size=k).astype(np.int64) for _ in range(n)]


# ---------------------------------------------------------------------------
# allocation tracing
# ---------------------------------------------------------------------------
def _traced_window_gc(op, iters: int) -> tuple[int, int]:
    """(retained, peak) bytes with garbage collected before each reading.

    Collecting first distinguishes genuinely retained memory (fresh
    node arrays kept per op) from cycle debris the op merely hasn't had
    collected yet.  Objects alive before the window are frozen, so the
    collects inside it walk only what the window made.
    """
    gc.collect()
    gc.freeze()
    tracemalloc.start()
    try:
        op(0)  # warm caches outside the window
        gc.collect()
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        for i in range(iters):
            op(i)
        gc.collect()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.unfreeze()
    return current - base, max(0, peak - base)


def _alloc_loop(op, iters: int) -> tuple[int, int]:
    """(retained, peak) bytes of ``iters`` calls, net of the tracer's own
    bookkeeping (an empty loop's residue)."""
    floor = _traced_window_gc(lambda i: None, iters)[0]
    retained, peak = _traced_window_gc(op, iters)
    return retained - floor, peak


# ---------------------------------------------------------------------------
# lanes: each returns an op(i) closure over a primed queue
# ---------------------------------------------------------------------------
def _lane_insert(q: NativeBGPQ, k: int, rng, total_ops: int):
    batches = _batches(rng, total_ops + 2, k)
    q.insert(batches[-1])

    def op(i, q=q, batches=batches):
        q.insert(batches[i % len(batches)])

    return op


def _lane_delete(q: NativeBGPQ, k: int, rng, total_ops: int):
    # fixed prefill depth: quick and full runs must start from the same
    # heap (the compiled backend's edge grows with heapify depth, so a
    # depth proportional to the iteration count would make quick-mode
    # ratios systematically diverge from the committed full-run baseline)
    n = max(total_ops + 4, 176) * k
    q.insert_bulk(rng.integers(0, 1 << 30, size=n).astype(np.int64))

    def op(i, q=q, k=k):
        q.deletemin(k)

    return op


def _lane_mixed(q: NativeBGPQ, k: int, rng, total_ops: int):
    batches = _batches(rng, 64, k)
    for b in batches[:32]:
        q.insert(b)

    def op(i, q=q, k=k, batches=batches):
        q.insert(batches[i % len(batches)])
        q.deletemin(k)

    return op


def _lane_bulk(q: NativeBGPQ, k: int, rng, total_ops: int):
    records = rng.integers(0, 1 << 30, size=BULK_RECORDS).astype(np.int64)
    pay = records.reshape(-1, 1)

    def op(i, q=q, records=records, pay=pay):
        q.clear()
        q.insert_bulk(records, payload=pay)

    return op


_LANES = {
    "insert": _lane_insert,
    "delete": _lane_delete,
    "mixed": _lane_mixed,
    "bulk": _lane_bulk,
}


# ---------------------------------------------------------------------------
def run_wall(
    ks=WALL_KS,
    quick: bool = False,
    op_iters: int | None = None,
) -> dict:
    """Run the wall-clock lanes; returns the BENCH_wall payload.

    Speedup keys are ``"{bench}:{variant}/k={k}"`` — the variant's
    ops/sec over the ``numpy`` reference's for the same (bench, k).
    ``op_iters`` overrides the iteration count (tests use tiny loops;
    the quick/full presets serve CI and the baseline).
    """
    op_iters = op_iters if op_iters is not None else (12 if quick else 40)
    bulk_iters = max(2, op_iters // 8)
    # the variants this host can actually run, reference first
    variants = kernel_registry.available_backends()

    provenance: dict[str, dict] = {}
    rows: list[dict] = []
    zero_alloc: dict[str, bool] = {}
    for k in ks:
        for bench in WALL_BENCHES:
            iters = bulk_iters if bench == "bulk" else op_iters
            repeats = 2 if bench == "bulk" else 3
            total_ops = max(1, iters // 4) + repeats * iters
            ops = {}
            for variant in variants:
                rng = np.random.default_rng(20260808 + k)
                q = NativeBGPQ(
                    k, kernels=variant, payload_width=int(bench == "bulk")
                )
                provenance.setdefault(variant, q.kernel_provenance())
                ops[variant] = _LANES[bench](q, k, rng, total_ops)
            rates = _time_loop(ops, iters, repeats=repeats)
            for variant, op in ops.items():
                retained = -1
                if bench == "mixed" and variant == "numpy":
                    # the zero-allocation bar: a residue above one k-key
                    # buffer plus ~256 B of k-independent interpreter
                    # bookkeeping means the heapify path allocates
                    retained = _alloc_loop(op, iters)[0]
                    zero_alloc[f"mixed:numpy/k={k}"] = retained < k * 8 + 256
                rows.append({
                    "bench": bench,
                    "k": k,
                    "variant": variant,
                    "ops": iters,
                    "ops_per_sec": round(rates[variant], 1),
                    "retained_bytes": int(retained),
                })

    speedups: dict[str, float] = {}
    by_cell = {(r["bench"], r["k"], r["variant"]): r for r in rows}
    for (bench, k, variant), r in by_cell.items():
        if variant == REFERENCE:
            continue
        ref = by_cell[(bench, k, REFERENCE)]
        speedups[f"{bench}:{variant}/k={k}"] = round(
            r["ops_per_sec"] / ref["ops_per_sec"], 3
        )

    compiled = [v for v in variants if v != REFERENCE]
    return {
        "benchmark": "wall",
        "recorded_at": time.strftime("%Y-%m-%d %H:%M:%S"),
        "meta": {
            "quick": quick,
            "ks": list(ks),
            "op_iters": op_iters,
            "bulk_records": BULK_RECORDS,
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            "cpu_model": _cpu_model(),
            "compiler": cbuild.build_command(),
            "variants": variants,
            "compiled_available": compiled,
            "kernels": provenance,
        },
        "rows": rows,
        "speedups": speedups,
        "zero_alloc": zero_alloc,
        "floor": {
            "bench": FLOOR_KEY_BENCH,
            "variant": FLOOR_VARIANT,
            "k": FLOOR_K,
            "min_speedup": FLOOR_SPEEDUP,
        },
    }


def wall_gate_problems(results: dict, quick: bool = False) -> list[str]:
    """The hard acceptance floor, separate from baseline drift.

    The compiled variant must clear :data:`FLOOR_SPEEDUP` x the numpy
    reference on the steady-state mixed lane at k=512.  Quick runs,
    hosts without the compiled backend, and sweeps that skip k=512
    report nothing — the drift baseline still covers them.
    """
    compiled = results["meta"].get("compiled_available") or []
    if (
        quick
        or FLOOR_VARIANT not in compiled
        or FLOOR_K not in results["meta"].get("ks", [])
    ):
        return []
    key = f"{FLOOR_KEY_BENCH}:{FLOOR_VARIANT}/k={FLOOR_K}"
    got = results.get("speedups", {}).get(key)
    if got is None:
        return [f"floor lane missing: no speedup recorded for {key}"]
    if got < FLOOR_SPEEDUP:
        return [
            f"wall-clock floor missed: {key} = {got:.2f}x, "
            f"required >= {FLOOR_SPEEDUP:g}x over the numpy reference"
        ]
    return []


def instrumented_mixed_pass(
    registry, k: int = 128, iters: int = 64, backends=None
) -> dict:
    """Untimed mixed-lane pass with per-kernel wall histograms.

    Runs a short steady-state loop for each requested backend with
    :class:`repro.primitives.kernels.InstrumentedKernels` wrapped
    around it, so ``repro_kernel_wall_ns{kernel,backend}`` lands in
    ``registry``.  The queue runs the path it runs uninstrumented, and
    the timed calls are its backend's: the fused ``insert_sorted``/
    ``deletemin`` on the C core, the ``sort_records`` presort on numpy
    (whose reference node splits are direct calls, not timed).
    Separate from the gate loops by design: instrumentation adds a
    timer call per kernel, which must never touch the gated numbers.
    Returns {backend: ops} for the pass.
    """
    if backends is None:
        backends = kernel_registry.available_backends()
    done: dict[str, int] = {}
    for name in backends:
        kern = InstrumentedKernels(kernel_registry.select(name), registry)
        rng = np.random.default_rng(97 + k)
        q = NativeBGPQ(k, kernels=kern)
        batches = _batches(rng, 32, k)
        for b in batches[:16]:
            q.insert(b)
        for i in range(iters):
            q.insert(batches[i % len(batches)])
            q.deletemin(k)
        done[name] = iters
    return done


def _run_lane(args, rebaseline: bool) -> dict:
    results = run_wall(ks=args.bench_ks, quick=args.quick)
    if rebaseline:
        # A baseline records the *floor* the gate defends, so take the
        # conservative elementwise minimum of two runs — a single
        # lucky-fast sample would otherwise trip the gate forever after.
        second = run_wall(ks=args.bench_ks, quick=args.quick)
        for key, val in second["speedups"].items():
            prev = results["speedups"].get(key)
            results["speedups"][key] = val if prev is None else min(prev, val)
        for key, flag in second["zero_alloc"].items():
            results["zero_alloc"][key] = bool(
                flag and results["zero_alloc"].get(key, True)
            )
    # per-kernel wall histograms ride the metrics registry; a separate
    # untimed pass so the timer never taxes the gated loops
    from ..obs.metrics import MetricsRegistry, validate_prometheus_text

    registry = MetricsRegistry()
    instrumented_mixed_pass(registry)
    prom_text = registry.to_prometheus()
    validate_prometheus_text(prom_text)
    prom_path = results_dir() / "bench_wall.prom"
    prom_path.write_text(prom_text)
    print(f"[kernel histograms saved {prom_path}]")
    return results


#: ``repro bench native``: host ops/sec per variant, gated as ratios
#: over the numpy reference plus the zero-alloc flags and the floor;
#: ``--update-baseline`` also rewrites ``BENCH_analysis.json``
#: (simulated ns, so byte-stable)
LANE = BenchLane(
    name="native",
    stem="wall",
    title="bench native (host ops/sec per NativeBGPQ variant)",
    run=_run_lane,
    gate=lambda r: wall_gate_problems(r, quick=r["meta"]["quick"]),
    summary=lambda r: [
        f"kernels[{variant}]: {info}"
        for variant, info in r["meta"]["kernels"].items()
    ],
    config_keys=("ks", "quick"),
    headline=lambda r: {
        "kernels": r["meta"]["kernels"], "cpu_count": r["meta"]["cpu_count"],
    },
    ratios=lambda r: {
        "floor": r["speedups"].get(
            f"{FLOOR_KEY_BENCH}:{FLOOR_VARIANT}/k={FLOOR_K}"
        ),
    },
    on_update=refresh_analysis_baseline,
)
