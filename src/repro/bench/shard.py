"""Shard-fleet throughput gate: ``repro bench shard``.

Measures :class:`~repro.fleet.ShardedBGPQ` *simulated* throughput at
1/2/4/8 shards against the single-queue baseline — which is literally
the same fleet at ``n_shards=1``, so every cell runs the identical
driver, router and cost model and the ratio isolates exactly one
variable: how much of the root-lock serialisation sharding removes.

Three workloads, all driven by the async session driver
(:func:`repro.fleet.run_fleet`) over the same scripts at every shard
count:

* ``mixed`` — the headline cell: alternating insert/deletemin batches
  of k=512 keys from thousands-of-sessions-style closed-loop clients
  (:func:`repro.fleet.mixed_scripts`).
* ``knapsack`` / ``astar`` — the application drivers' *actual* PQ op
  traces, captured once by running the real solver against a recording
  NativeBGPQ subclass (injected via ``pq_factory``), then dealt
  round-robin to driver sessions.  Keys-only replay: the fleet bench
  measures queue dynamics, not solver kernels.

Every cell is verified, not just timed: the history must pass
:func:`repro.core.check_k_relaxed` within the cell's relaxation budget
``2k * (sessions + shards)``.  The budget is the fleet's in-flight
work bound: a closed-loop session keeps at most one request (moving at
most ~2k keys, counting steal top-ups) between a delete's optimistic
plan and its execution, and each unprobed shard root can hide one more
batch — so the achieved rank gap is bounded by session concurrency,
*not* by queue occupancy (measured ``minimal_k`` lands at roughly
``0.7 * sessions * k`` on the mixed cells, and at exactly 1 — an exact
queue — for ``n_shards=1``).  On top of that,
:meth:`repro.core.HeapAuditor.audit_fleet` must hold — per-shard heap
invariants, router size accounting, and fleet-global key conservation.

A :class:`~repro.baselines.spraylist.SprayListPQ` column (Alistarh et
al.'s relaxed skip list — the classic relaxed-semantics design the
fleet's spray probe borrows its name from) runs a reduced serial mixed
workload for scale comparison; informational, never gated.

A *skewed placement* section runs all four router policies at the gate
shard count on a Zipf-skewed mixed workload (hot keys pin to hot
shards under hash).  It is gated two ways on full runs: the best
load-aware policy (shortest/d-choice) must beat the hash policy on the
same skewed scripts *and* clear ``GATE_PLACEMENT_FLOOR`` — the uniform
spray baseline PR 7 committed — so load-aware routing provably erases
the skew penalty.  ``repro bench frontier``
(:mod:`repro.bench.frontier`) extends this into the full
quality-vs-throughput sweep over ``spray_width`` × policy.

Because all time is simulated (deterministic cost model, seeded
router), the committed baseline ``BENCH_shard.json`` (env override
``REPRO_BENCH_SHARD_BASELINE``) is machine-portable and the CI gate
can demand exact-ish ratios: :data:`LANE` runs it through
:func:`repro.bench.reporting.run_lane`, which gates drift with
:func:`repro.bench.reporting.compare_to_baseline` plus this module's
hard floors — the 4-shard mixed speedup must stay >= 2x, and the
k-relaxed spec must pass on every cell.
"""

from __future__ import annotations

import numpy as np

from ..core.audit import HeapAuditor
from ..core.linearizability import check_k_relaxed, relaxation_budget
from ..core.native import NativeBGPQ
from ..fleet import ElasticController, ShardedBGPQ, mixed_scripts, run_fleet
from ..sim import effects as fx
from .reporting import BenchLane, geomean

__all__ = [
    "LANE",
    "SHARD_COUNTS",
    "SHARD_WORKLOADS",
    "PLACEMENT_POLICIES",
    "run_shard",
    "shard_gate_problems",
]

SHARD_COUNTS = (1, 2, 4, 8)
SHARD_WORKLOADS = ("mixed", "knapsack", "astar")

#: the acceptance floor: 4-shard mixed throughput vs single queue
GATE_SHARDS = 4
GATE_MIN_SPEEDUP = 2.0

#: skewed-placement section: Zipf exponent for the hot-key workload and
#: the floor the best load-aware policy must clear at 4 shards on full
#: (non-quick) runs — the spray-policy mixed_4shard baseline PR 7
#: committed, i.e. load-aware placement on a *skewed* workload must be
#: at least as good as blind placement on a uniform one
PLACEMENT_SKEW = 1.1
GATE_PLACEMENT_FLOOR = 4.48
PLACEMENT_POLICIES = ("hash", "spray", "shortest", "d-choice")


# ---------------------------------------------------------------------------
# application op-trace capture
# ---------------------------------------------------------------------------
class _TracePQ(NativeBGPQ):
    """NativeBGPQ that records its own op stream (keys-only).

    Injected into the app drivers through their ``pq_factory`` hook;
    the solver runs unmodified and exact while every ``insert`` batch
    and every ``deletemin``'s returned size land in ``trace`` in
    program order.
    """

    def __init__(self, *args, trace: list, **kwargs):
        super().__init__(*args, **kwargs)
        self.trace = trace

    def insert_bulk(self, keys, payload=None):
        # one hook covers both entry points: plain insert delegates here
        arr = np.asarray(keys, dtype=np.int64).ravel()
        if arr.size:
            self.trace.append(("insert", arr.copy()))
        return super().insert_bulk(keys, payload=payload)

    def deletemin(self, count: int = 1):
        keys, pay = super().deletemin(count)
        if keys.size:
            # record what was actually returned, so the replayed script
            # asks for exactly the keys the app consumed
            self.trace.append(("deletemin", int(keys.size)))
        return keys, pay


def _app_trace(app: str, batch: int, quick: bool) -> list[tuple]:
    """The op stream of one real ``knapsack`` or ``astar`` solve."""
    trace: list[tuple] = []

    def factory(node_capacity, ctx, payload_width, _storage):
        return _TracePQ(node_capacity=node_capacity, ctx=ctx,
                        payload_width=payload_width, trace=trace)

    if app == "knapsack":
        from ..apps.knapsack.branch_bound import solve_batched
        from ..apps.knapsack.instance import generate

        inst = generate(24 if quick else 36, family="weakly_correlated", seed=5)
        solve_batched(inst, batch=batch, pq_factory=factory)
    else:
        from ..apps.astar.grid import generate_grid
        from ..apps.astar.search import astar_batched

        grid = generate_grid(24 if quick else 48, 0.15, seed=3)
        astar_batched(grid, batch=batch, pq_factory=factory)
    return trace


def _deal(trace: list[tuple], sessions: int) -> list[list[tuple]]:
    """Deal an op trace round-robin to driver sessions, order-preserving."""
    scripts: list[list[tuple]] = [[] for _ in range(max(1, sessions))]
    for i, op in enumerate(trace):
        scripts[i % len(scripts)].append(op)
    return [s for s in scripts if s]


# ---------------------------------------------------------------------------
# one verified fleet cell (this bench's and the frontier sweep's)
# ---------------------------------------------------------------------------
#: the row fields this bench commits, in baseline order
SHARD_FIELDS = (
    "shards", "policy", "requests", "keys_in", "keys_out", "makespan_us",
    "keys_per_us", "steals", "probes", "imbalance", "minimal_k",
    "relax_budget", "relax_ok", "relax_problems", "audit_ok",
    "audit_problems",
)


def _run_cell(
    scripts: list[list[tuple]],
    n_shards: int,
    k: int,
    policy: str,
    width: int,
    seed: int,
    elastic: ElasticController | None = None,
    imbalance_every: int = 64,
) -> dict:
    """One verified cell: run, relax-check, audit; every field either
    bench commits (each projects its own row from it)."""
    fleet = ShardedBGPQ(
        n_shards=n_shards, node_capacity=k,
        policy=policy, spray_width=width, seed=seed,
    )
    result = run_fleet(
        fleet, scripts, imbalance_every=imbalance_every, elastic=elastic,
    )
    # in-flight work bound: one ≤2k-key request per concurrent session
    # plus one hidden batch per unprobed shard root (see module doc),
    # plus every key an elastic action migrated
    peak_shards = max(
        [n_shards, fleet.n_shards]
        + [t.n_after for t in (elastic.actions if elastic else [])]
    )
    budget = relaxation_budget(
        k, len(scripts), peak_shards, migrated=fleet.stats["migrated"]
    )
    relax = check_k_relaxed(result.history, k=budget)
    inserted = [np.asarray(r.args, dtype=np.int64)
                for r in result.history if r.kind == "insert"]
    removed = [np.asarray(r.result, dtype=np.int64)
               for r in result.history if r.kind == "deletemin"]
    audit = HeapAuditor(fleet).audit(
        inserted=inserted, removed=removed,
        context=f"shards={n_shards} policy={policy} width={width}",
    )
    moved = result.keys_in + result.keys_out
    makespan = result.makespan_ns
    return {
        "shards": fleet.n_shards,
        "policy": policy,
        "spray_width": width,
        "requests": result.requests,
        "keys_in": result.keys_in,
        "keys_out": result.keys_out,
        "makespan_us": round(makespan / 1e3, 3),
        "keys_per_us": round(moved / makespan * 1e3, 3) if makespan else 0.0,
        "steals": result.stats["steals"],
        "probes": result.stats["probes"],
        "imbalance": round(fleet.imbalance(), 3),
        "migrated": fleet.stats["migrated"],
        "minimal_k": relax.minimal_k,
        "relax_budget": budget,
        "relax_ok": bool(relax.ok),
        "relax_problems": relax.problems[:5],
        "audit_ok": bool(audit.ok),
        "audit_problems": audit.problems[:5],
    }


# ---------------------------------------------------------------------------
# SprayList comparison column (informational)
# ---------------------------------------------------------------------------
def _drive_spray(gen) -> tuple[object, float]:
    """Serial effect interpreter for the SprayList generators."""
    ns = 0.0
    send = None
    try:
        while True:
            eff = gen.send(send)
            cls = eff.__class__
            if cls is fx.Compute:
                ns += eff.ns
                send = None
            elif cls is fx.Atomic:
                ns += eff.ns
                send = eff.fn()
            else:  # Acquire/Release run free when single-threaded
                send = None
    except StopIteration as stop:
        return stop.value, ns


def _spraylist_column(sessions: int, requests: int, k: int, seed: int) -> dict:
    """Serial mixed workload on SprayListPQ, scale-reduced.

    SprayList's simulator works per key (spray walks, CAS claims), so
    this column runs a miniature of the mixed workload; ``keys_per_us``
    normalises away the size difference.  Informational only.
    """
    from ..baselines.spraylist import SprayListPQ

    pq = SprayListPQ(seed=seed)
    clock = 0.0
    keys_in = keys_out = 0
    for script in mixed_scripts(sessions, requests, k, seed=seed):
        for kind, arg in script:
            if kind == "insert":
                _, ns = _drive_spray(pq.insert_op(arg))
                keys_in += int(np.asarray(arg).size)
            else:
                out, ns = _drive_spray(pq.deletemin_op(int(arg)))
                keys_out += int(out.size)
            clock += ns
    moved = keys_in + keys_out
    return {
        "queue": "SprayList",
        "sessions": sessions,
        "requests": sessions * requests,
        "k": k,
        "keys_in": keys_in,
        "keys_out": keys_out,
        "makespan_us": round(clock / 1e3, 3),
        "keys_per_us": round(moved / clock * 1e3, 3) if clock else 0.0,
        "collisions": pq.stats["collisions"],
    }


# ---------------------------------------------------------------------------
# skewed placement comparison (the load-aware acceptance cell)
# ---------------------------------------------------------------------------
def _placement_section(
    k: int, sessions: int, requests: int, seed: int
) -> dict:
    """All four policies at GATE_SHARDS shards on a skewed-key workload.

    A Zipf-like key distribution concentrates volume on a few hot keys;
    hash pins every copy of a hot key to one shard, so the blind
    policies leave throughput on the table that shortest/d-choice
    recover by routing on ``(clock, backlog)``.  Speedups are measured
    against the same scripts on one shard, like the main table.
    """
    scripts = mixed_scripts(
        sessions, requests, k, seed=seed, skew=PLACEMENT_SKEW
    )
    base = _run_cell(scripts, 1, k, "hash", 2, seed)
    cells: dict[str, dict] = {}
    for pol in PLACEMENT_POLICIES:
        row = _run_cell(scripts, GATE_SHARDS, k, pol, 2, seed)
        cells[pol] = {
            "speedup": round(row["keys_per_us"] / base["keys_per_us"], 3)
            if base["keys_per_us"]
            else 0.0,
            "keys_per_us": row["keys_per_us"],
            "minimal_k": row["minimal_k"],
            "relax_budget": row["relax_budget"],
            "imbalance": row["imbalance"],
            "steals": row["steals"],
            "ok": row["relax_ok"] and row["audit_ok"],
        }
    best_pol = max(
        ("shortest", "d-choice"), key=lambda p: cells[p]["speedup"]
    )
    return {
        "skew": PLACEMENT_SKEW,
        "shards": GATE_SHARDS,
        "base_keys_per_us": base["keys_per_us"],
        "cells": cells,
        "best_load_aware": best_pol,
        "best_speedup": cells[best_pol]["speedup"],
    }


# ---------------------------------------------------------------------------
def run_shard(
    shard_counts=SHARD_COUNTS,
    k: int = 512,
    sessions: int = 64,
    requests: int = 16,
    policy: str = "spray",
    seed: int = 0,
    quick: bool = False,
    workloads=SHARD_WORKLOADS,
) -> dict:
    """Run the shard bench; returns the BENCH_shard payload.

    Entirely deterministic: simulated clocks, seeded router and
    workloads — two runs with the same arguments produce bit-identical
    payloads, so the committed baseline gates exact ratios, not noisy
    wall-clock samples.
    """
    if quick:
        sessions = min(sessions, 16)
        requests = min(requests, 8)
    import time

    t0 = time.perf_counter()
    scripts_by_workload: dict[str, list[list[tuple]]] = {}
    if "mixed" in workloads:
        scripts_by_workload["mixed"] = mixed_scripts(sessions, requests, k, seed=seed)
    for app in ("knapsack", "astar"):
        if app in workloads:
            scripts_by_workload[app] = _deal(
                _app_trace(app, k, quick), sessions // 2
            )

    rows: list[dict] = []
    speedups: dict[str, float] = {}
    relaxation: dict[str, dict] = {}
    for workload, scripts in scripts_by_workload.items():
        base_tput = None
        for n in shard_counts:
            cell = _run_cell(scripts, n, k, policy, 2, seed)
            row = {f: cell[f] for f in SHARD_FIELDS}
            row["workload"] = workload
            rows.append(row)
            relaxation[f"{workload}/shards={n}"] = {
                "minimal_k": row["minimal_k"],
                "budget": row["relax_budget"],
                "ok": row["relax_ok"] and row["audit_ok"],
            }
            if n == 1:
                base_tput = row["keys_per_us"]
            elif base_tput:
                speedups[f"{workload}/shards={n}"] = round(
                    row["keys_per_us"] / base_tput, 3
                )

    gate_cells = [
        v for key, v in speedups.items()
        if key.endswith(f"/shards={GATE_SHARDS}")
    ]
    spray = (
        _spraylist_column(max(4, sessions // 8), 4, min(k, 64), seed)
        if "mixed" in workloads
        else None
    )
    placement = (
        _placement_section(k, sessions, requests, seed)
        if "mixed" in workloads and GATE_SHARDS in shard_counts
        else None
    )
    return {
        "benchmark": "shard",
        "recorded_at": time.strftime("%Y-%m-%d %H:%M:%S"),
        "meta": {
            "quick": quick,
            "k": k,
            "sessions": sessions,
            "requests": requests,
            "policy": policy,
            "seed": seed,
            "shard_counts": list(shard_counts),
            "workloads": list(scripts_by_workload),
            "backend": "native",
            "numpy": np.__version__,
            "wall_s": round(time.perf_counter() - t0, 1),
        },
        "rows": rows,
        "speedups": speedups,
        # compare_to_baseline compatibility: the shard bench has no
        # allocation gate, so the flag dict is empty by construction
        "zero_alloc": {},
        "relaxation": relaxation,
        "geomean_4shard": round(geomean(gate_cells), 3) if gate_cells else None,
        "mixed_4shard": speedups.get(f"mixed/shards={GATE_SHARDS}"),
        "spraylist": spray,
        "placement": placement,
    }


def shard_gate_problems(results: dict) -> list[str]:
    """The bench's own hard floors (baseline comparison is separate)."""
    problems = []
    mixed = results.get("mixed_4shard")
    if mixed is not None and mixed < GATE_MIN_SPEEDUP:
        problems.append(
            f"mixed {GATE_SHARDS}-shard speedup {mixed:.2f}x below the "
            f"{GATE_MIN_SPEEDUP:.1f}x acceptance floor"
        )
    for cell, rep in sorted(results.get("relaxation", {}).items()):
        if not rep.get("ok"):
            problems.append(
                f"{cell}: k-relaxed/audit verification failed "
                f"(minimal_k={rep.get('minimal_k')}, budget={rep.get('budget')})"
            )
    placement = results.get("placement")
    if placement:
        for pol, cell in sorted(placement.get("cells", {}).items()):
            if not cell.get("ok"):
                problems.append(
                    f"placement/{pol}: k-relaxed/audit verification failed "
                    f"(minimal_k={cell.get('minimal_k')}, "
                    f"budget={cell.get('relax_budget')})"
                )
        # the speedup floors only bind at full scale — a --quick run's
        # tiny workload doesn't develop enough load for placement to
        # matter (verification above still applies)
        if not results.get("meta", {}).get("quick"):
            best = placement.get("best_speedup") or 0.0
            hash_speedup = (
                placement.get("cells", {}).get("hash", {}).get("speedup", 0.0)
            )
            if best < hash_speedup:
                problems.append(
                    f"skewed placement: best load-aware policy "
                    f"({placement.get('best_load_aware')}, {best:.2f}x) below "
                    f"the hash policy ({hash_speedup:.2f}x)"
                )
            if best < GATE_PLACEMENT_FLOOR:
                problems.append(
                    f"skewed placement: best load-aware speedup {best:.2f}x "
                    f"below the {GATE_PLACEMENT_FLOOR:.2f}x acceptance floor"
                )
    return problems


def _summary(results: dict) -> list[str]:
    lines = []  # per-cell relaxation is in the table's columns
    if results["spraylist"]:
        lines.append(f"spraylist (reduced mixed): "
                     f"{results['spraylist']['keys_per_us']:.3f} keys/us")
    if results["mixed_4shard"] is not None:
        lines.append(f"mixed {GATE_SHARDS}-shard speedup: "
                     f"{results['mixed_4shard']:.2f}x "
                     f"(floor {GATE_MIN_SPEEDUP:.1f}x)")
    placement = results["placement"]
    if placement:
        lines.append(f"skewed placement (skew={placement['skew']}, "
                     f"{placement['shards']} shards):")
        lines += [
            f"  {pol:<9} {cell['speedup']:>6.2f}x  "
            f"minimal_k={cell['minimal_k']}  "
            f"{'ok' if cell['ok'] else 'FAILED'}"
            for pol, cell in sorted(placement["cells"].items())
        ]
        lines.append(f"  best load-aware: {placement['best_load_aware']} "
                     f"({placement['best_speedup']:.2f}x)")
    return lines


#: ``repro bench shard``: one run suffices even for the baseline —
#: simulated clocks and a seeded router make the payload a pure
#: function of its arguments
LANE = BenchLane(
    name="shard",
    stem="shard",
    title="bench shard (fleet vs single queue)",
    run=lambda args, rebaseline: run_shard(
        shard_counts=args.shard_counts,
        k=args.shard_k,
        sessions=args.shard_sessions,
        requests=args.shard_requests,
        policy=args.shard_policy,
        quick=args.quick,
    ),
    gate=shard_gate_problems,
    summary=_summary,
    config_keys=("shard_counts", "k", "sessions", "requests", "policy",
                 "quick"),
    headline=lambda r: {
        "geomean_4shard": r["geomean_4shard"],
        "mixed_4shard": r["mixed_4shard"],
    },
    ratios=lambda r: {"4shard": r["geomean_4shard"]},
)
