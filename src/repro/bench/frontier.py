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
CI gates exact ratios via
:func:`repro.bench.reporting.compare_to_baseline` plus this module's own
hard verification floors (:func:`frontier_gate_problems`).
"""

from __future__ import annotations

import numpy as np

from ..core.audit import HeapAuditor
from ..core.linearizability import check_k_relaxed, relaxation_budget
from ..fleet import ElasticController, ShardedBGPQ, mixed_scripts, run_fleet
from .reporting import geomean as _geomean
from .shard import GATE_SHARDS, PLACEMENT_SKEW

__all__ = [
    "FRONTIER_WIDTHS",
    "FRONTIER_POLICIES",
    "frontier_baseline_path",
    "run_frontier",
    "frontier_gate_problems",
    "render_frontier_delta",
]

FRONTIER_WIDTHS = (1, 2, 4)
FRONTIER_POLICIES = ("hash", "spray", "shortest", "d-choice")


def frontier_baseline_path():
    """Committed baseline location (repo root), env-overridable."""
    import os
    from pathlib import Path

    return Path(
        os.environ.get("REPRO_BENCH_FRONTIER_BASELINE", "BENCH_frontier.json")
    )


def _frontier_cell(
    scripts: list[list[tuple]],
    n_shards: int,
    k: int,
    policy: str,
    width: int,
    seed: int,
    elastic: ElasticController | None = None,
    imbalance_every: int = 64,
) -> dict:
    """One verified frontier cell: run, relax-check, audit."""
    fleet = ShardedBGPQ(
        n_shards=n_shards, node_capacity=k, backend="native",
        policy=policy, spray_width=width, seed=seed,
    )
    result = run_fleet(
        fleet, scripts, imbalance_every=imbalance_every, elastic=elastic,
    )
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
        context=f"frontier policy={policy} width={width}",
    )
    makespan = result.makespan_ns
    moved = result.keys_in + result.keys_out
    return {
        "policy": policy,
        "spray_width": width,
        "shards": fleet.n_shards,
        "makespan_us": round(makespan / 1e3, 3),
        "keys_per_us": round(moved / makespan * 1e3, 3) if makespan else 0.0,
        "minimal_k": relax.minimal_k,
        "relax_budget": budget,
        "migrated": fleet.stats["migrated"],
        "steals": result.stats["steals"],
        "relax_ok": bool(relax.ok),
        "relax_problems": relax.problems[:5],
        "audit_ok": bool(audit.ok),
        "audit_problems": audit.problems[:5],
    }


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
    base = _frontier_cell(scripts, 1, k, "hash", 1, seed)
    for policy in policies:
        for width in widths:
            row = _frontier_cell(scripts, GATE_SHARDS, k, policy, width, seed)
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
    elastic_row = _frontier_cell(
        scripts, 2, k, "shortest", 2, seed,
        elastic=controller, imbalance_every=32,
    )
    elastic = dict(elastic_row)
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


def render_frontier_delta(current: dict, baseline: dict) -> str:
    """Current-vs-baseline frontier table (CI artifact on gate failure)."""
    lines = [
        "cell                 now(x)  baseline(x)  ratio  minimal_k",
        "-" * 60,
    ]
    cur_rows = {
        f"{r['policy']}-w{r['spray_width']}": r for r in current.get("rows", [])
    }
    cur_sp = current.get("speedups", {})
    for key, base_val in sorted(baseline.get("speedups", {}).items()):
        cell = key.split("/", 1)[-1]
        cur_val = cur_sp.get(key)
        if cur_val is None:
            continue
        mk = cur_rows.get(cell, {}).get("minimal_k", "-")
        lines.append(
            f"{cell:<20} {cur_val:>6.2f} {base_val:>12.2f} "
            f"{cur_val / base_val if base_val else float('nan'):>6.2f} {mk:>10}"
        )
    pairs = [
        (cur_sp[key], base_val)
        for key, base_val in baseline.get("speedups", {}).items()
        if key in cur_sp
    ]
    if pairs:
        lines.append(
            f"geomean ratio: "
            f"{_geomean(c for c, _ in pairs) / _geomean(b for _, b in pairs):.3f}"
        )
    for p in frontier_gate_problems(current):
        lines.append(f"VERIFY FAILED: {p}")
    return "\n".join(lines)
