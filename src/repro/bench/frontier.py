"""Quality-vs-throughput frontier sweep: ``repro bench frontier``.

The fleet's relaxed ``delete_min`` trades ordering quality for
throughput, and the trade is tunable along two axes: ``spray_width``
(how many shard minima a delete probes — and the *d* of d-choice
placement) and the placement policy (how evenly load spreads).  This
bench measures the whole surface instead of one point: every
``spray_width`` × policy cell runs the same skewed mixed workload at
the gate shard count and reports *measured* ordering quality
(``minimal_k`` — the smallest relaxation parameter the history
satisfies, from :func:`repro.core.check_k_relaxed`) next to simulated
makespan and throughput.  Reading the table is reading the frontier:
wider probes and load-aware placement buy lower ``minimal_k``; blind
placement and narrow probes buy nothing on a skewed workload — they
are dominated cells (see ``docs/FLEET.md`` for the worked
interpretation; EXPERIMENTS.md commits the rendered table).

An *elastic* cell demonstrates the controller end-to-end: the fleet
starts at 2 shards and an :class:`~repro.fleet.ElasticController`
grows it to 4 under load; the history must pass the migration-aware
relaxation budget (:func:`repro.core.relaxation_budget` with the
migrated-key term) and a full ``audit_fleet`` — resharding must
conserve the key multiset while the run is in flight.

Everything is simulated and seeded, so ``BENCH_frontier.json`` (env
override ``REPRO_BENCH_FRONTIER_BASELINE``) is machine-portable and
CI gates exact ratios: :data:`LANE` runs the sweep through
:func:`repro.bench.reporting.run_lane`, which checks drift with
:func:`repro.bench.reporting.compare_to_baseline` plus this module's own
hard verification floors (:func:`frontier_gate_problems`).
"""

from __future__ import annotations

import numpy as np

from ..fleet import ElasticController, mixed_scripts
from .reporting import BenchLane, geomean
from .shard import GATE_SHARDS, PLACEMENT_SKEW, _run_cell

__all__ = [
    "FRONTIER_WIDTHS",
    "FRONTIER_POLICIES",
    "LANE",
    "run_frontier",
    "frontier_gate_problems",
]

FRONTIER_WIDTHS = (1, 2, 4)
FRONTIER_POLICIES = ("hash", "spray", "shortest", "d-choice")


#: the row fields this sweep commits, in baseline order
FRONTIER_FIELDS = (
    "policy", "spray_width", "shards", "makespan_us", "keys_per_us",
    "minimal_k", "relax_budget", "migrated", "steals", "relax_ok",
    "relax_problems", "audit_ok", "audit_problems",
)


def run_frontier(
    widths=FRONTIER_WIDTHS,
    policies=FRONTIER_POLICIES,
    k: int = 512,
    sessions: int = 64,
    requests: int = 16,
    seed: int = 0,
    quick: bool = False,
) -> dict:
    """Run the frontier sweep; returns the BENCH_frontier payload.

    Deterministic like the shard bench: simulated clocks, seeded router
    and workloads — bit-identical payloads for identical arguments.
    """
    if quick:
        sessions = min(sessions, 16)
        requests = min(requests, 8)
        widths = tuple(w for w in widths if w <= 2) or (1,)
    import time

    t0 = time.perf_counter()
    scripts = mixed_scripts(
        sessions, requests, k, seed=seed, skew=PLACEMENT_SKEW
    )
    rows: list[dict] = []
    speedups: dict[str, float] = {}
    base = _run_cell(scripts, 1, k, "hash", 1, seed)
    for policy in policies:
        for width in widths:
            cell = _run_cell(scripts, GATE_SHARDS, k, policy, width, seed)
            row = {f: cell[f] for f in FRONTIER_FIELDS}
            rows.append(row)
            if base["keys_per_us"]:
                speedups[f"frontier/{policy}-w{width}"] = round(
                    row["keys_per_us"] / base["keys_per_us"], 3
                )

    # elastic demonstration: grow 2 -> GATE_SHARDS under load, verified
    # with the migration-aware budget
    controller = ElasticController(
        min_shards=2, max_shards=GATE_SHARDS,
        grow_above=2.0 * k, cooldown=1,
    )
    cell = _run_cell(scripts, 2, k, "shortest", 2, seed,
                     elastic=controller, imbalance_every=32)
    elastic = {f: cell[f] for f in FRONTIER_FIELDS}
    elastic["grows"] = sum(1 for t in controller.actions if t.action == "grow")
    elastic["actions"] = [t.action for t in controller.actions]

    return {
        "benchmark": "frontier",
        "recorded_at": time.strftime("%Y-%m-%d %H:%M:%S"),
        "meta": {
            "quick": quick,
            "k": k,
            "sessions": sessions,
            "requests": requests,
            "seed": seed,
            "skew": PLACEMENT_SKEW,
            "shards": GATE_SHARDS,
            "widths": list(widths),
            "policies": list(policies),
            "backend": "native",
            "numpy": np.__version__,
            "wall_s": round(time.perf_counter() - t0, 1),
        },
        "base_keys_per_us": base["keys_per_us"],
        "rows": rows,
        "speedups": speedups,
        "zero_alloc": {},  # comparator compatibility
        "elastic": elastic,
    }


def frontier_gate_problems(results: dict) -> list[str]:
    """Hard verification floors: every cell must verify, elastic must grow."""
    problems = []
    for row in results.get("rows", []):
        cell = f"{row.get('policy')}-w{row.get('spray_width')}"
        if not row.get("relax_ok"):
            problems.append(
                f"frontier/{cell}: k-relaxed spec failed "
                f"(minimal_k={row.get('minimal_k')}, "
                f"budget={row.get('relax_budget')}): "
                + "; ".join(row.get("relax_problems", [])[:2])
            )
        if not row.get("audit_ok"):
            problems.append(
                f"frontier/{cell}: fleet audit failed: "
                + "; ".join(row.get("audit_problems", [])[:2])
            )
    elastic = results.get("elastic")
    if elastic:
        if not elastic.get("relax_ok") or not elastic.get("audit_ok"):
            problems.append(
                "elastic cell failed verification "
                f"(relax_ok={elastic.get('relax_ok')}, "
                f"audit_ok={elastic.get('audit_ok')})"
            )
        if elastic.get("grows", 0) < 1:
            problems.append(
                "elastic cell never grew: the controller must scale "
                "2 shards up under load"
            )
    return problems


def _summary(results: dict) -> list[str]:
    elastic = results["elastic"]
    verified = elastic["relax_ok"] and elastic["audit_ok"]
    return [
        f"elastic 2->{results['meta']['shards']}: grows={elastic['grows']} "
        f"migrated={elastic['migrated']} minimal_k={elastic['minimal_k']} "
        f"budget={elastic['relax_budget']} {'ok' if verified else 'FAILED'}"
    ]


#: ``repro bench frontier``: the spray_width x policy surface plus the
#: elastic grow-under-load cell
LANE = BenchLane(
    name="frontier",
    stem="frontier",
    title="bench frontier (minimal_k vs makespan per cell)",
    run=lambda args, rebaseline: run_frontier(
        k=args.shard_k,
        sessions=args.shard_sessions,
        requests=args.shard_requests,
        quick=args.quick,
    ),
    gate=frontier_gate_problems,
    summary=_summary,
    config_keys=("k", "sessions", "requests", "quick"),
    headline=lambda r: {"elastic_grows": r["elastic"]["grows"]},
    ratios=lambda r: {
        "frontier": round(geomean(r["speedups"].values()), 3)
        if r["speedups"] else None,
    },
)
