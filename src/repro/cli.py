"""Command-line entry point: run the paper's experiments from a shell.

Every command is one row of :data:`COMMANDS` and parses only the flags
it reads (``python -m repro <command> -h`` lists them); a flag, target
or positional the command does not take is a usage error (exit 2).

``faults`` runs seed-swept crash/timeout/jitter campaigns (see
:mod:`repro.campaign`) and exits non-zero when any run deadlocks,
livelocks, or fails the post-run heap audit; each failure line carries
the (queue, plan, seed) triple that reproduces it.

``bench <lane>`` runs one row of :data:`LANES` through the shared
runner :func:`repro.bench.reporting.run_lane`: ``native`` (the default)
times :class:`~repro.core.native.NativeBGPQ` per kernel backend
(:mod:`repro.bench.wall`: compiled-over-numpy ratios, zero-allocation
flags, a >=3.15x compiled mixed floor); ``shard`` and ``frontier``
gate the sharded fleet's simulated throughput (:mod:`repro.bench.shard`,
:mod:`repro.bench.frontier`: deterministic, so machine-portable).  Each
exits 1 on a >20% geomean speedup regression against its committed
``BENCH_<lane>.json`` or a failed hard gate, saving a delta table next
to the archived results; ``--update-baseline`` rewrites the baseline
only from a run that clears its hard gates.

``trace`` runs the canonical mixed workload with the observability bus
attached (see :mod:`repro.obs`), prints collaboration counters, op
latencies, and an ASCII utilization timeline, and writes a validated
Chrome trace-event JSON (open it in ``chrome://tracing`` or
https://ui.perfetto.dev).  ``faults`` accepts ``--trace``/``--metrics``
to ride the same machinery: ``--metrics`` prints/archives flat obs
counters, ``--trace`` additionally writes a Chrome trace of a
representative run.  Tracing never changes results.

``trace analyze`` folds the same traced run through the causal
analysis layer (:mod:`repro.obs.analysis`): critical-path extraction,
per-phase makespan attribution (summing exactly), and the blocking
wait-for graph; the payload is archived as ``trace_analysis.json``.
``trace flame`` writes Brendan-Gregg collapsed stacks
(``trace_flame.txt``, feed it to flamegraph.pl / speedscope) and prints
a terminal top-down view.  ``trace diff A B`` compares two archived
analysis captures and names the top regressing phase; malformed or
schema-mismatched input exits 2 without a traceback.  All trace
outputs land in ``--output-dir`` when given (else the results dir).

``serve`` runs the durable service mode (see :mod:`repro.serve`):
concurrent client sessions against a BGPQ behind admission control,
with a write-ahead log and periodic checkpoints underneath; with
``--faults`` the fault injector crashes the server mid-run and a
supervisor recovers it from checkpoint + WAL replay, verified by an
end-of-run recovery drill (byte-identical state digest) and the heap
audit.  Exits non-zero when any seed's durability story fails.

Every entrypoint above records into the persistent run registry
(``repro runs list|show|gc``; see :mod:`repro.registry`), rooted at
``$REPRO_REGISTRY_DIR`` (default ``runs/``; set empty to disable).

``REPRO_SCALE`` (default 2048) divides the paper's workload sizes;
results are archived under ``bench_results/`` and EXPERIMENTS.md can
be refreshed with ``python scripts/make_experiments_md.py``.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from .bench import (
    ORDERS,
    PAPER_SIZES,
    fig6_blocks_sweep,
    fig6_capacity_sweep,
    render_rows,
    render_table1,
    save_results,
    scale,
    table2_astar,
    table2_insdel,
    table2_knapsack,
    table2_util,
)
from .bench import frontier, shard, wall
from .bench.reporting import run_lane
from .campaign import QUEUE_FACTORIES, run_campaign, run_one
from .sim import FaultPlan

__all__ = ["main"]

#: the gated ``repro bench`` lanes, by target
LANES = {lane.name: lane for lane in (wall.LANE, shard.LANE, frontier.LANE)}


def _record_registry(kind: str, config: dict, status: str, summary: dict,
                     artifacts: dict | None = None) -> str | None:
    """Best-effort registry recording — a broken registry must never
    fail the experiment that ran fine."""
    try:
        from .registry import registry_from_env

        reg = registry_from_env()
        if reg is None:
            return None
        run_id = reg.record(kind, status=status, config=config, summary=summary)
        for name, content in (artifacts or {}).items():
            reg.add_artifact(run_id, name, content)
        print(f"[registry: {run_id}]")
        return run_id
    except Exception as err:  # noqa: BLE001 - recording is best-effort
        print(f"(registry recording failed: {err})", file=sys.stderr)
        return None


def _run(name: str, fn, title: str) -> None:
    t0 = time.perf_counter()
    rows = fn()
    wall = time.perf_counter() - t0
    print(render_rows(rows, title))
    path = save_results(name, rows, meta={"scale": scale(), "wall_s": round(wall, 1)})
    print(f"[{wall:.1f}s host; saved {path}]\n")


def _paper(*rows):
    """The handler that runs ``rows`` of :data:`PAPER` in order."""
    def run(args) -> int:
        print(f"workload scale: 1/{scale()} of the paper's sizes (REPRO_SCALE)\n")
        for row in rows:
            row(args)
        return 0
    return run


#: the paper's tables and figures, in the order ``repro all`` runs them
PAPER = {
    "table1": lambda args: print(render_table1() + "\n"),
    "insdel": lambda args: _run("table2_insdel", partial(
        table2_insdel, sizes=args.sizes, orders=args.orders,
    ), "Table 2 'Ins & Del' (simulated ms)"),
    "util": lambda args: _run(
        "table2_util", table2_util, "Table 2 'Util.' (simulated ms)"),
    "knapsack": lambda args: _run(
        "table2_knapsack", table2_knapsack, "Table 2 '0-1 KS' (simulated ms)"),
    "astar": lambda args: _run(
        "table2_astar", table2_astar, "Table 2 'A-star' (simulated ms)"),
    "fig6": lambda args: (
        _run("fig6ab_capacity", fig6_capacity_sweep, "Fig 6a/6b (simulated ms)"),
        _run("fig6c_blocks", fig6_blocks_sweep, "Fig 6c (simulated ms)"),
    ),
}


def _out_dir(args):
    """Directory for trace-family outputs: --output-dir or the results dir."""
    from pathlib import Path

    from .bench.reporting import results_dir

    if args.output_dir:
        path = Path(args.output_dir)
        path.mkdir(parents=True, exist_ok=True)
        return path
    return results_dir()


def _invalid(what: str, problems: list[str]) -> int:
    """Report an output that failed its validator; returns exit code 1."""
    print(f"INVALID {what}:", file=sys.stderr)
    for p in problems:
        print(f"  {p}", file=sys.stderr)
    return 1


def _write_chrome_trace(events, default_name: str, args) -> int:
    """Validate and write a Chrome trace JSON; returns 0 or 1 (invalid)."""
    import json
    from pathlib import Path

    from .obs import to_chrome_trace, validate_chrome_trace

    trace = to_chrome_trace(events)
    problems = validate_chrome_trace(trace)
    if problems:
        return _invalid("chrome trace", problems)
    path = Path(args.trace_out) if args.trace_out else _out_dir(args) / default_name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(trace) + "\n")
    print(
        f"chrome trace saved {path} ({len(trace['traceEvents'])} trace events)"
        " — open in chrome://tracing or ui.perfetto.dev"
    )
    return 0


def _traced_run(args):
    from .obs.workload import run_traced_mixed

    return run_traced_mixed(
        threads=args.threads,
        ops=args.ops,
        k=args.capacity,
        seed=args.trace_seed,
    )


def _run_trace_analyze(args) -> int:
    import json

    from .obs import analyze, render_analysis

    t0 = time.perf_counter()
    run = _traced_run(args)
    analysis = analyze(run.events, run.makespan_ns)
    wall = time.perf_counter() - t0
    print(render_analysis(analysis))
    path = _out_dir(args) / "trace_analysis.json"
    path.write_text(json.dumps(analysis, indent=2, sort_keys=True) + "\n")
    print(f"\nanalysis saved {path}  (diff two captures with `repro trace diff`)")
    print(f"[{wall:.1f}s host]")
    return 0


def _run_trace_flame(args) -> int:
    from .obs import collapsed_stacks, render_flame, validate_collapsed

    t0 = time.perf_counter()
    run = _traced_run(args)
    lines = collapsed_stacks(run.events, run.makespan_ns)
    wall = time.perf_counter() - t0
    text = "\n".join(lines) + "\n"
    problems = validate_collapsed(text)
    if problems:
        return _invalid("collapsed-stack output", problems)
    path = _out_dir(args) / "trace_flame.txt"
    path.write_text(text)
    print(render_flame(lines))
    print(
        f"\ncollapsed stacks saved {path} ({len(lines)} stacks)"
        " — feed to flamegraph.pl or speedscope"
    )
    print(f"[{wall:.1f}s host]")
    return 0


def _run_trace_diff(args) -> int:
    from .obs import AnalysisFormatError, diff_analyses, load_analysis, render_diff

    paths = args.extra
    if len(paths) != 2:
        print(
            "error: `repro trace diff` takes exactly two analysis JSON paths "
            f"(got {len(paths)})",
            file=sys.stderr,
        )
        return 2
    try:
        a = load_analysis(paths[0])
        b = load_analysis(paths[1])
    except AnalysisFormatError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    diff = diff_analyses(a, b, a_name=paths[0], b_name=paths[1])
    print(render_diff(diff))
    return 0


def _run_trace(args) -> int:
    import json

    from .obs import metrics_dict, render_summary

    t0 = time.perf_counter()
    run = _traced_run(args)
    wall = time.perf_counter() - t0
    print(render_summary(run.events, run.makespan_ns, buckets=args.buckets))
    print()
    rc = _write_chrome_trace(run.events, "trace_mixed.json", args)
    if rc:
        return rc
    print(f"[{wall:.1f}s host]")
    _record_registry(
        "trace",
        config={"seed": args.trace_seed},
        status="completed",
        summary={
            "events": len(run.events),
            "makespan_ns": run.makespan_ns,
            "wall_s": round(wall, 1),
        },
    )
    # the metrics JSON stays the last thing on stdout — callers parse it
    if args.metrics:
        metrics = metrics_dict(run.events, run.makespan_ns, buckets=args.buckets)
        print()
        print(json.dumps(metrics, indent=2, sort_keys=True))
    return 0


def _run_serve(args) -> int:
    """`repro serve`: durable service mode (admission + WAL + checkpoints)."""
    from .registry import registry_from_env
    from .serve import ServeConfig, run_serve_campaign

    cfg = ServeConfig(
        sessions=args.sessions,
        ops=args.ops,
        k=args.capacity,
        window=args.window,
        budget=args.budget,
        checkpoint_every=args.checkpoint_every,
        data_dir=args.data_dir,
        plan=args.faults,
        max_backoffs=args.max_backoffs,
        admission_smoothing_ns=args.admission_smoothing_ns,
    )
    config = {
        "sessions": cfg.sessions, "ops": cfg.ops, "k": cfg.k,
        "window": cfg.window, "budget": cfg.budget,
        "checkpoint_every": cfg.checkpoint_every, "plan": cfg.plan,
        "seeds": args.seeds, "seed_base": args.seed_base,
        "admission_smoothing_ns": cfg.admission_smoothing_ns,
    }
    metrics = slo = None
    if args.metrics:
        # one registry + tracker across the whole campaign: counters sum
        # and histograms merge across seeds
        from .obs.metrics import MetricsRegistry
        from .obs.slo import SloTracker

        metrics = MetricsRegistry()
        slo = SloTracker()
    reg = registry_from_env()
    run_id = None
    try:
        if reg is not None:
            run_id = reg.open_run("serve", config=config)
            if cfg.data_dir is None:
                # durable state lives with the run it belongs to
                cfg.data_dir = str(reg.artifact_dir(run_id) / "data")
    except Exception as err:  # noqa: BLE001
        print(f"(registry recording failed: {err})", file=sys.stderr)
        reg = None

    t0 = time.perf_counter()
    outcomes = run_serve_campaign(cfg, seeds=args.seeds,
                                  seed_base=args.seed_base,
                                  metrics=metrics, slo=slo)
    wall = time.perf_counter() - t0
    rows = [
        {
            "Seed": o.seed,
            "Status": o.status,
            "Journaled": o.ops_journaled,
            "Recoveries": o.recoveries,
            "Shed": o.shed,
            "PeakPending": o.peak_pending,
            "Drill": "ok" if o.drill_ok else "FAIL",
        }
        for o in outcomes
    ]
    print(render_rows(rows, f"serve campaign (plan={cfg.plan})"))
    failures = [o for o in outcomes if not o.survived]
    total_rec = sum(o.recoveries for o in outcomes)
    total_shed = sum(o.shed for o in outcomes)
    print(
        f"\n{len(outcomes)} runs: {len(outcomes) - len(failures)} survived, "
        f"{total_rec} crash recoveries, {total_shed} sheds"
    )
    path = save_results("serve", rows, meta={**config, "wall_s": round(wall, 1)})
    print(f"[{wall:.1f}s host; saved {path}]\n")

    summary = {
        "runs": len(outcomes),
        "survived": len(outcomes) - len(failures),
        "recoveries": total_rec,
        "shed": total_shed,
        "status": "ok" if not failures else "failed",
    }
    metrics_artifacts: dict = {}
    if metrics is not None:
        from .obs.metrics import validate_prometheus_text
        from .obs.slo import render_slo

        prom = metrics.to_prometheus()
        problems = validate_prometheus_text(prom)
        if problems:
            return _invalid("prometheus exposition", problems)
        slo_report = slo.report()
        print(render_slo(slo_report))
        out = _out_dir(args)
        prom_path = out / "serve_metrics.prom"
        prom_path.write_text(prom)
        print(f"prometheus text saved {prom_path} (validated)\n")
        summary["slo_ok"] = slo_report["ok"]
        summary["metric_families"] = len(metrics.names())
        metrics_artifacts = {
            "metrics.prom": prom,
            "metrics.json": {"metrics": metrics.snapshot(),
                             "slo": slo_report},
        }
    if reg is not None and run_id is not None:
        try:
            reg.add_artifact(run_id, "serve_outcomes.json", [
                {k: v for k, v in vars(o).items() if k != "shed_by_reason"}
                | {"shed_by_reason": dict(o.shed_by_reason)}
                for o in outcomes
            ])
            for name, content in metrics_artifacts.items():
                reg.add_artifact(run_id, name, content)
            reg.finish(run_id, status="completed" if not failures else "failed",
                       summary=summary)
            print(f"[registry: {run_id}]")
        except Exception as err:  # noqa: BLE001
            print(f"(registry recording failed: {err})", file=sys.stderr)

    if args.trace:
        # traced re-run of the first seed on a fresh data dir (a WAL is
        # one history — the traced rerun must not append to a finished
        # one); serve events ride the same bus as engine/queue events,
        # so the whole trace toolchain works on service runs
        import json
        from dataclasses import replace
        from pathlib import Path

        from .obs import EventBus, analyze
        from .serve import run_serve

        bus = EventBus()
        rerun_dir = Path(cfg.data_dir) / "trace-rerun" if cfg.data_dir else None
        cell = replace(cfg, seed=args.seed_base,
                       data_dir=str(rerun_dir) if rerun_dir else None)
        traced = run_serve(cell, obs=bus)
        rc = _write_chrome_trace(bus.events, "trace_serve.json", args)
        if rc:
            return rc
        if traced.makespan_ns > 0:
            analysis = analyze(bus.events, traced.makespan_ns)
            apath = _out_dir(args) / "trace_serve_analysis.json"
            apath.write_text(json.dumps(analysis, indent=2, sort_keys=True) + "\n")
            print(f"analysis saved {apath}")

    if failures:
        print(f"{len(failures)} of {len(outcomes)} serve runs FAILED:")
        for o in failures:
            detail = o.failure or "; ".join(o.audit_problems)
            print(f"  plan={o.plan} seed={o.seed} [{o.status}] {detail}")
        print("\nreproduce with: python -m repro serve "
              f"--faults {cfg.plan} --seeds 1 --seed-base <seed>")
        return 1
    print("all serve runs survived: audit + recovery drill passed on every seed")
    return 0


def _run_runs(target, args) -> int:
    """`repro runs <target>`: ``target(args, reg)`` on the run registry."""
    from .registry import REGISTRY_ENV, registry_from_env

    reg = registry_from_env()
    if reg is None:
        print(f"run registry disabled ({REGISTRY_ENV} is empty)", file=sys.stderr)
        return 2
    return target(args, reg)


def _runs_list(args, reg) -> int:
    runs = reg.list_runs()
    if not runs:
        print(f"no recorded runs under {reg.root}/")
        return 0
    rows = [
        {
            "Run": r["run_id"],
            "Kind": r.get("kind", "?"),
            "Status": r.get("status", "?"),
            "When": r.get("created_iso", "")[:19],
        }
        for r in runs
    ]
    print(render_rows(rows, f"run registry ({reg.root}/)"))
    return 0


def _runs_show(args, reg) -> int:
    import json

    if not args.extra:
        print("error: `repro runs show` needs a run id (or unique prefix)",
              file=sys.stderr)
        return 2
    record = reg.get(args.extra[0])
    if record is None:
        print(f"error: no run matching {args.extra[0]!r}", file=sys.stderr)
        return 2
    print(json.dumps(record, indent=2, sort_keys=True))
    artifact_dir = reg.root / record["run_id"]
    if artifact_dir.is_dir():
        files = sorted(p.relative_to(artifact_dir).as_posix()
                       for p in artifact_dir.rglob("*") if p.is_file())
        if files:
            print(f"\nartifacts under {artifact_dir}/:")
            for f in files:
                print(f"  {f}")
    return 0


def _runs_gc(args, reg) -> int:
    dropped = reg.gc(keep=args.keep)
    print(f"kept {args.keep} newest runs; dropped {len(dropped)}")
    for rid in dropped:
        print(f"  {rid}")
    return 0


def _runs_trend(args, reg) -> int:
    from .obs.trend import render_trend, trend_report

    all_runs = reg.list_runs()
    kinds = sorted({r.get("kind", "?") for r in all_runs})
    if args.extra:
        unknown = [k for k in args.extra if k not in kinds]
        if unknown:
            print(f"error: no recorded runs of kind(s) {unknown}; "
                  f"recorded kinds: {kinds}", file=sys.stderr)
            return 2
        kinds = list(args.extra)
    if not kinds:
        print(f"no recorded runs under {reg.root}/")
        return 0
    regressions = 0
    for kind in kinds:
        report = trend_report(
            [r for r in all_runs if r.get("kind") == kind],
            tolerance=args.trend_tolerance,
            min_points=args.trend_min_points,
        )
        print(render_trend(kind, report))
        print()
        regressions += len(report["regressions"])
    if regressions:
        print(f"{regressions} regressed series (newest run vs "
              "median of its predecessors)")
        return 1
    print("no cross-run regressions detected")
    return 0


def _derive_slo(samples, objective_ns=None, target: float = 0.95):
    """SloTracker over ``(op_class, latency_ns, ts)`` samples.

    Objectives are auto-derived per class — twice the class's observed
    p95, i.e. "keep doing roughly what this run did" — unless an
    explicit ``objective_ns`` overrides them all.  Auto-derivation keeps
    the verb usable on any workload without pre-declaring a taxonomy;
    pinning real objectives is what the flag is for.
    """
    from .obs.aggregate import percentile
    from .obs.slo import SloSpec, SloTracker

    by_class: dict = {}
    for op, latency, _ts in samples:
        by_class.setdefault(op, []).append(latency)
    specs = []
    for op in sorted(by_class):
        obj = objective_ns if objective_ns else 2.0 * percentile(
            sorted(by_class[op]), 0.95
        )
        specs.append(SloSpec(op, obj if obj else None, target=target))
    slo = SloTracker(specs)
    for op, latency, ts in samples:
        slo.observe(op, latency, ts=ts)
    return slo


def _metrics_mixed(args):
    """The trace workload, folded into metric families after the run."""
    from .obs.events import OP_BEGIN, OP_END
    from .obs.metrics import fold_events

    run = _traced_run(args)
    registry = fold_events(run.events)
    samples = []
    open_ops: dict = {}
    for ev in run.events:
        if ev.etype == OP_BEGIN:
            open_ops[ev.thread] = (ev.get("op", "unknown"), ev.ts)
        elif ev.etype == OP_END:
            begun = open_ops.pop(ev.thread, None)
            if begun is not None:
                samples.append((begun[0], ev.ts - begun[1], ev.ts))
    slo = _derive_slo(samples, objective_ns=args.slo_objective_ns)
    config = {"target": "mixed", "threads": args.threads, "ops": args.ops,
              "k": args.capacity, "seed": args.trace_seed}
    headline = {"makespan_ns": run.makespan_ns, "events": len(run.events)}
    return registry, slo, config, headline


def _metrics_fleet(args):
    """Live emission: the fleet carries the registry through the run."""
    from .core.linearizability import check_k_relaxed, relaxation_budget
    from .fleet import (
        ElasticController,
        ShardedBGPQ,
        mixed_scripts,
        run_fleet,
    )
    from .obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    k = args.shard_k
    fleet = ShardedBGPQ(
        n_shards=4, node_capacity=k, policy=args.shard_policy,
        seed=args.trace_seed, metrics=registry,
    )
    elastic = ElasticController(
        smoothing_half_life_ns=args.admission_smoothing_ns
    )
    scripts = mixed_scripts(args.shard_sessions, args.shard_requests, k,
                            seed=args.trace_seed)
    result = run_fleet(fleet, scripts, imbalance_every=32, elastic=elastic)
    fleet.observe_gauges(at=result.makespan_ns)
    samples = [
        (rec.kind, rec.respond - rec.invoke, rec.respond)
        for rec in result.history if rec.kind != "reshard"
    ]
    slo = _derive_slo(samples, objective_ns=args.slo_objective_ns)
    relax = check_k_relaxed(result.history, k=k)
    budget = relaxation_budget(k, args.shard_sessions, fleet.n_shards,
                               migrated=result.stats["migrated"])
    slo.set_quality(relax.minimal_k, budget)
    registry.gauge(
        "repro_fleet_minimal_k",
        help="measured rank relaxation of the fleet run",
    ).set(relax.minimal_k)
    config = {"target": "fleet", "k": k, "shards": 4,
              "sessions": args.shard_sessions,
              "requests": args.shard_requests,
              "policy": args.shard_policy, "seed": args.trace_seed}
    headline = {"makespan_ns": result.makespan_ns,
                "requests": result.requests,
                "minimal_k": relax.minimal_k,
                "relax_budget": budget}
    return registry, slo, config, headline


def _run_metrics(workload, args) -> int:
    """`repro metrics [mixed|fleet]`: run one workload with the live
    metrics layer attached, print + export the registry, judge SLOs."""
    import json

    from .obs.metrics import validate_prometheus_text
    from .obs.slo import render_slo

    t0 = time.perf_counter()
    registry, slo, config, headline = workload(args)
    wall = time.perf_counter() - t0
    target = config["target"]

    prom = registry.to_prometheus()
    problems = validate_prometheus_text(prom)
    if problems:
        return _invalid("prometheus exposition", problems)
    slo_report = slo.report()
    snapshot = {
        "target": target,
        "config": config,
        "headline": headline,
        "metrics": registry.snapshot(),
        "slo": slo_report,
    }
    out = _out_dir(args)
    prom_path = out / "metrics.prom"
    prom_path.write_text(prom)
    json_path = out / "metrics.json"
    json_path.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")

    families = registry.snapshot()
    print(f"metrics: {target} — {len(families)} families, "
          f"{sum(len(f['series']) for f in families.values())} series")
    for name in sorted(families):
        fam = families[name]
        for series in fam["series"]:
            labels = ",".join(f"{k}={v}" for k, v in
                              sorted(series["labels"].items()))
            tag = f"{name}{{{labels}}}" if labels else name
            if fam["type"] == "histogram":
                if series["count"]:
                    print(f"  {tag:<56} count={series['count']} "
                          f"p50={series['p50']:g} p95={series['p95']:g}")
                else:
                    print(f"  {tag:<56} count=0")
            else:
                print(f"  {tag:<56} {series['value']:g}")
    print()
    print(render_slo(slo_report))
    print(f"\nprometheus text saved {prom_path} (validated)")
    print(f"json snapshot saved {json_path}")
    print(f"[{wall:.1f}s host]")
    _record_registry(
        "metrics",
        config=config,
        status="completed" if slo_report["ok"] else "failed",
        summary={
            **headline,
            "slo_ok": slo_report["ok"],
            "families": len(families),
            "wall_s": round(wall, 1),
        },
        artifacts={"metrics.prom": prom, "metrics.json": snapshot},
    )
    return 0 if slo_report["ok"] else 1


def _run_faults(args) -> int:
    print(f"workload scale: 1/{scale()} of the paper's sizes (REPRO_SCALE)\n")
    queues, plans = args.queues, args.plans
    trace_on = args.trace or args.metrics
    t0 = time.perf_counter()
    result = run_campaign(
        queues=queues,
        plans=plans,
        seeds=args.seeds,
        seed_base=args.seed_base,
        threads=args.threads,
        ops=args.ops,
        k=args.capacity,
        trace=trace_on,
    )
    wall = time.perf_counter() - t0
    print(render_rows(result.rows(), "Fault campaign (injected/survived/failed)"))
    meta = {
        "seeds": args.seeds,
        "seed_base": args.seed_base,
        "threads": args.threads,
        "ops": args.ops,
        "capacity": args.capacity,
        "wall_s": round(wall, 1),
    }
    if trace_on:
        agg: dict[str, int] = {}
        for o in result.outcomes:
            for key, val in (o.metrics or {}).items():
                if key.startswith("counter.") and isinstance(val, int):
                    agg[key] = agg.get(key, 0) + val
        meta["obs_counters"] = agg
        # per-cell critical-path attributions, summed per phase — where
        # the campaign's simulated time actually went (see repro.obs.analysis)
        phases: dict[str, float] = {}
        cells = 0
        for o in result.outcomes:
            if o.critical_path:
                cells += 1
                for phase, ns in o.critical_path.items():
                    phases[phase] = phases.get(phase, 0.0) + ns
        meta["critical_path_ns"] = {k: round(v, 3) for k, v in sorted(phases.items())}
        meta["critical_path_cells"] = cells
        if args.metrics:
            print("aggregate obs counters over all cells:")
            for key in sorted(agg):
                if agg[key]:
                    print(f"  {key:<36} {agg[key]}")
            total = sum(phases.values())
            if total > 0:
                print(f"\ncritical-path attribution over {cells} traced cells:")
                for phase, ns in sorted(phases.items(), key=lambda kv: -kv[1]):
                    print(f"  {phase:<20} {ns:>16,.0f} ns {ns / total:>6.1%}")
            print()
    path = save_results("faults", result.rows(), meta=meta)
    print(f"[{wall:.1f}s host; saved {path}]\n")
    _record_registry(
        "faults",
        config={"queues": queues, "plans": plans, **{
            k: meta[k] for k in ("seeds", "seed_base", "threads", "ops", "capacity")
        }},
        status="completed" if result.ok else "failed",
        summary={
            "runs": len(result.outcomes),
            "failed": result.failed,
            "wall_s": round(wall, 1),
        },
        artifacts={"faults_rows.json": result.rows()},
    )
    if args.trace:
        # re-run the campaign's first cell with a bus — same seed, same
        # schedule (tracing is pure observation) — for the chrome trace
        from .obs import EventBus

        bus = EventBus()
        run_one(
            queues[0], plans[0], args.seed_base,
            threads=args.threads, ops=args.ops, k=args.capacity, obs=bus,
        )
        rc = _write_chrome_trace(bus.events, "trace_faults.json", args)
        if rc:
            return rc
    if not result.ok:
        print(f"{result.failed} of {len(result.outcomes)} runs FAILED:")
        for o in result.failures():
            detail = o.failure or "; ".join(o.audit_problems)
            print(
                f"  {o.queue} plan={o.plan} seed={o.seed} "
                f"[{o.status}] {detail}"
            )
        print(
            "\nreproduce a failure with: python -m repro faults "
            "--queues <queue> --plans <plan> --seeds 1 --seed-base <seed>"
        )
        return 1
    print(f"all {len(result.outcomes)} runs survived and passed the heap audit")
    return 0


def _bench(lane):
    """The `repro bench <lane>` target (``run_lane`` is looked up per call)."""
    return lambda args: run_lane(lane, args, record=_record_registry)


def _checked(convert, expected: str, rule: str, ok):
    """argparse type factory: ``convert(text)`` for which ``ok`` holds.
    Text it cannot convert is a usage error naming ``expected``; a
    value failing ``ok`` is one naming ``rule``."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected {expected}, got {text!r}"
            ) from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{rule}, got {text!r}")
        return value
    return parse


def _int_at_least(low: int):
    """argparse type factory: one integer, at least ``low``."""
    return _checked(int, "an integer", f"must be >= {low}", lambda v: v >= low)


def _int_list(rule: str, ok):
    """argparse type factory: comma-separated ints, sorted and deduplicated."""
    return _checked(lambda text: tuple(sorted({int(v) for v in text.split(",")})),
                    "comma-separated integers", rule, ok)


def _name_list(known):
    """argparse type factory: a non-empty comma-separated list of names,
    each one of ``known`` (looked up when the flag is parsed)."""
    def parse(text: str) -> tuple[str, ...]:
        names = tuple(n for n in text.split(",") if n)
        if not names:
            raise argparse.ArgumentTypeError(
                f"expected at least one name, got {text!r}"
            )
        unknown = [n for n in names if n not in known]
        if unknown:
            raise argparse.ArgumentTypeError(
                f"unknown name {unknown[0]!r}; choose from {', '.join(known)}"
            )
        return names
    return parse


_positive = _int_at_least(1)
_non_negative = _int_at_least(0)
#: batch node capacity k: both queues reject k < 2 with a ConfigurationError
_node_capacity = _int_at_least(2)
#: EWMA half lives and latency objectives: the trackers reject <= 0
_positive_ns = _checked(float, "a number", "must be finite and > 0",
                        lambda v: math.isfinite(v) and v > 0)


#: every flag, defined once; each row of :data:`COMMANDS` lists the ones
#: its handlers read, and every command takes ``--kernels``
FLAGS = {
    "--sizes": dict(
        type=_name_list(PAPER_SIZES),
        default="1M,8M,64M",
        help="comma-separated paper sizes for insdel (default: 1M,8M,64M)",
    ),
    "--orders": dict(
        type=_name_list(ORDERS),
        default="random,ascend,descend",
        help="key orders for insdel (default: random,ascend,descend)",
    ),
    "--seeds": dict(
        type=_positive, default=20, help="seeds per (queue, plan) cell"
    ),
    "--seed-base": dict(
        type=_non_negative, default=0, help="first seed of the sweep"
    ),
    "--plans": dict(
        type=_name_list(FaultPlan.PRESETS),
        default="crash,timeout,jitter",
        help="comma-separated fault plans (crash,timeout,jitter,mixed,none)",
    ),
    "--queues": dict(
        type=_name_list(QUEUE_FACTORIES),
        default="bgpq,bgpq-bu,tbb",
        help=(
            "comma-separated queues "
            "(bgpq,bgpq-unbounded,bgpq-bu,tbb,hunt,ljsl)"
        ),
    ),
    "--threads": dict(
        type=_positive, default=4, help="simulated workers per run"
    ),
    "--ops": dict(
        type=_positive, default=6, help="insert/delete pairs per worker"
    ),
    "--capacity": dict(
        type=_node_capacity, default=8, help="batch node capacity k"
    ),
    "--quick": dict(
        action="store_true",
        help="reduced iteration counts (CI smoke jobs)",
    ),
    "--update-baseline": dict(
        action="store_true",
        help="rewrite the bench baseline (BENCH_wall.json + "
             "BENCH_analysis.json / BENCH_shard.json / BENCH_frontier.json)",
    ),
    "--bench-ks": dict(
        type=_int_list("node capacities must be >= 2", lambda ks: ks[0] >= 2),
        default=wall.WALL_KS,
        help="bench native: comma-separated node capacities (default: 32,128,512)",
    ),
    "--kernels": dict(
        choices=("auto", "numpy", "cext"),
        default=None,
        help="force the process-wide kernel backend "
             "(default: auto; env REPRO_KERNELS)",
    ),
    "--shard-counts": dict(
        type=_int_list("shard counts must be >= 1 and include 1, the single-"
                       "queue reference every speedup is measured against",
                       lambda counts: counts[0] == 1),
        default=shard.SHARD_COUNTS,
        help="bench shard: comma-separated fleet widths (default: 1,2,4,8)",
    ),
    "--shard-policy": dict(
        choices=("hash", "spray", "shortest", "d-choice"),
        default="spray",
        help="fleet insert placement policy (default: spray; the bench shard "
             "placement section always compares all 4)",
    ),
    "--shard-k": dict(
        type=_node_capacity,
        default=512,
        help="fleet batch node capacity k (default: 512)",
    ),
    "--shard-sessions": dict(
        type=_positive,
        default=64,
        help="fleet concurrent client sessions (default: 64)",
    ),
    "--shard-requests": dict(
        type=_positive,
        default=16,
        help="fleet requests per session (default: 16)",
    ),
    "--sessions": dict(
        type=_positive, default=4, help="concurrent client sessions"
    ),
    "--window": dict(
        type=_positive, default=4, help="per-session inflight window"
    ),
    "--budget": dict(
        type=_positive, default=16, help="global pending-op budget"
    ),
    "--checkpoint-every": dict(
        type=_positive,
        default=16,
        help="checkpoint after this many journaled ops",
    ),
    "--data-dir": dict(
        default=None,
        help="durable state directory (default: the run's registry artifact dir)",
    ),
    "--faults": dict(
        nargs="?",
        const="crash",
        default="none",
        choices=FaultPlan.PRESETS,
        help=(
            "inject faults into the serve run; bare --faults means the "
            "crash preset (also: timeout, jitter, mixed, none)"
        ),
    ),
    "--max-backoffs": dict(
        type=_non_negative,
        default=None,
        help="sessions drop an op after this many sheds (default: retry forever)",
    ),
    "--admission-smoothing-ns": dict(
        type=_positive_ns,
        default=None,
        help=(
            "EWMA half life (simulated ns) for the admission controller's "
            "global-budget load signal (default: raw instantaneous reads)"
        ),
    ),
    "--keep": dict(
        type=_non_negative, default=20, help="`runs gc`: newest runs to keep"
    ),
    "--trend-tolerance": dict(
        # at 1 or above a higher-is-better series can never regress
        type=_checked(float, "a number", "must be in [0, 1)",
                      lambda v: 0 <= v < 1),
        default=0.25,
        help="`runs trend`: regression threshold as a fraction (default: 0.25)",
    ),
    "--trend-min-points": dict(
        # the newest point is judged against the median of the others
        type=_int_at_least(2),
        default=3,
        help="`runs trend`: min runs in a series before judging (default: 3)",
    ),
    "--slo-objective-ns": dict(
        type=_positive_ns,
        default=None,
        help=(
            "latency objective applied to every op class "
            "(default: auto-derive 2x the observed p95 per class)"
        ),
    ),
    "--trace": dict(
        action="store_true",
        help="also write a Chrome trace of a representative run",
    ),
    "--metrics": dict(
        action="store_true",
        help="print + archive flat obs counters",
    ),
    "--trace-out": dict(
        default=None,
        help="path for the Chrome trace JSON (default: bench_results/trace_*.json)",
    ),
    "--output-dir": dict(
        default=None,
        help=(
            "directory for trace-family outputs — chrome trace, "
            "trace_analysis.json, trace_flame.txt (default: the results dir)"
        ),
    ),
    "--trace-seed": dict(
        type=_non_negative,
        default=1,
        help="engine/workload seed of the traced run (default: 1)",
    ),
    "--buckets": dict(
        type=_positive,
        default=20,
        help="utilization timeline buckets (default: 20)",
    ),
}

_PAPER_FLAGS = ("--sizes", "--orders")
_TRACED_RUN = ("--threads", "--ops", "--capacity", "--trace-seed")
_TRACE_OUT = ("--trace", "--metrics", "--trace-out", "--output-dir")
_FLEET = ("--shard-k", "--shard-policy", "--shard-sessions", "--shard-requests")


@dataclass(frozen=True)
class Command:
    """One ``repro <command>``: the flags it parses and its targets."""

    name: str
    help: str
    #: the :data:`FLAGS` its handlers read
    flags: tuple[str, ...]
    #: target -> ``handler(args)`` returning the exit code; the first is
    #: the default, and a single target takes no target positional
    targets: dict[str, Callable]
    #: target -> usage of the extra positionals it takes
    extra: dict[str, str] = field(default_factory=dict)


#: every ``repro`` command
COMMANDS = {cmd.name: cmd for cmd in (
    Command("table1", "Table 1 feature matrix", (),
            {"run": _paper(PAPER["table1"])}),
    Command("insdel", "Table 2 'Ins & Del'", _PAPER_FLAGS,
            {"run": _paper(PAPER["insdel"])}),
    Command("util", "Table 2 'Util.'", (), {"run": _paper(PAPER["util"])}),
    Command("knapsack", "Table 2 '0-1 KS'", (),
            {"run": _paper(PAPER["knapsack"])}),
    Command("astar", "Table 2 'A-star'", (), {"run": _paper(PAPER["astar"])}),
    Command("fig6", "Figure 6 sweeps", (), {"run": _paper(PAPER["fig6"])}),
    Command(
        "faults", "seed-swept crash/timeout/jitter fault campaigns",
        ("--seeds", "--seed-base", "--plans", "--queues", "--threads",
         "--ops", "--capacity", *_TRACE_OUT),
        {"run": _run_faults},
    ),
    Command(
        "bench", "gated NativeBGPQ wall-clock and sharded-fleet benches",
        ("--quick", "--update-baseline", "--bench-ks", "--shard-counts",
         *_FLEET),
        {name: _bench(lane) for name, lane in LANES.items()},
    ),
    Command(
        "trace", "traced mixed run, causal analysis, flame graph, run diff",
        (*_TRACED_RUN, "--buckets", "--metrics", "--trace-out", "--output-dir"),
        {"run": _run_trace, "analyze": _run_trace_analyze,
         "flame": _run_trace_flame, "diff": _run_trace_diff},
        extra={"diff": "A.json B.json"},
    ),
    Command(
        "serve", "durable service mode (admission + WAL + checkpoints)",
        ("--seeds", "--seed-base", "--sessions", "--ops", "--capacity",
         "--window", "--budget", "--checkpoint-every", "--data-dir",
         "--faults", "--max-backoffs", "--admission-smoothing-ns",
         *_TRACE_OUT),
        {"run": _run_serve},
    ),
    Command(
        "runs", "inspect the persistent run registry",
        ("--keep", "--trend-tolerance", "--trend-min-points"),
        {name: partial(_run_runs, fn) for name, fn in (
            ("list", _runs_list), ("show", _runs_show), ("gc", _runs_gc),
            ("trend", _runs_trend))},
        extra={"show": "<run-id>", "trend": "[kind ...]"},
    ),
    Command(
        "metrics", "live metrics: Prometheus text, JSON snapshot, SLO report",
        (*_TRACED_RUN, *_FLEET, "--slo-objective-ns",
         "--admission-smoothing-ns", "--output-dir"),
        {"mixed": partial(_run_metrics, _metrics_mixed),
         "fleet": partial(_run_metrics, _metrics_fleet)},
    ),
    Command("all", "every paper table and figure, archived", _PAPER_FLAGS,
            {"run": _paper(*PAPER.values())}),
)}


def main(argv: list[str] | None = None) -> int:
    from ._version import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="BGPQ reproduction: regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "--version",
        action="store_true",
        help="show version and kernel-backend provenance",
    )
    commands = parser.add_subparsers(dest="command", metavar="<command>")
    for cmd in COMMANDS.values():
        sub = commands.add_parser(cmd.name, help=cmd.help, description=cmd.help)
        for flag in ("--kernels", *cmd.flags):
            sub.add_argument(flag, **FLAGS[flag])
        default = next(iter(cmd.targets))
        if len(cmd.targets) > 1:
            sub.add_argument("target", nargs="?",
                             help=f"{' | '.join(cmd.targets)} (default: {default})")
        if cmd.extra:
            sub.add_argument("extra", nargs="*", help="; ".join(
                f"{target} {usage}" for target, usage in cmd.extra.items()))
        sub.set_defaults(target=default, extra=[])
    # argparse fills a command's target and extra positionals from their
    # first run only, so positionals after a flag come back unparsed;
    # they are extras (`runs show --keep 3 <id>`), unknown flags are not
    args, stray = parser.parse_known_args(argv)
    if any(arg.startswith("-") for arg in stray):
        parser.error(f"unrecognized arguments: {' '.join(stray)}")
    if args.version:
        # probing backends may compile the C extension: only on request
        from .primitives import kernels as kernel_registry

        info = kernel_registry.provenance()
        backends = ",".join(kernel_registry.available_backends())
        print(f"{parser.prog} {__version__}")
        print(f"kernel backend: {info['backend']} "
              f"(fused={info['fused']}; "
              f"available: {backends})")
        parser.exit()
    if args.command is None:
        parser.error("the following arguments are required: <command>")
    cmd = COMMANDS[args.command]
    args.extra = [*args.extra, *stray]
    handler = cmd.targets.get(args.target)
    if handler is None:
        print(f"error: unknown {cmd.name} target {args.target!r} "
              f"(try {', '.join(map(repr, cmd.targets))})", file=sys.stderr)
        return 2
    if args.extra and args.target not in cmd.extra:
        parser.error(f"unrecognized arguments: {' '.join(args.extra)}")

    if args.kernels:
        from .primitives import kernels as kernel_registry

        kern = kernel_registry.set_active(args.kernels)
        if kern.name != args.kernels and args.kernels != "auto":
            print(f"note: kernel backend {args.kernels!r} unavailable, "
                  f"using {kern.name!r}", file=sys.stderr)
    return handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
