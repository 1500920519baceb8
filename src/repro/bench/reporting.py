"""Rendering, archiving and baseline gating of benchmark results.

``render_rows`` prints dict rows as an aligned text table (the shape
of the paper's Table 2); ``save_results`` appends a JSON record under
``bench_results/`` so EXPERIMENTS.md can cite actual measured numbers
from the run that produced them.

The gated ``repro bench`` lanes (native, shard, frontier) are each one
:class:`BenchLane` spec, and :func:`run_lane` runs every one of them
the same way: one drift gate (:func:`compare_to_baseline`), one delta
table (:func:`render_delta`), one baseline writer that refuses a run
failing its own hard gates, and one registry record.
``capture_analysis`` recomputes the committed ``BENCH_analysis.json``
phase attribution.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable

__all__ = [
    "ANALYSIS_WORKLOAD",
    "REGRESSION_TOLERANCE",
    "BenchLane",
    "analysis_baseline_path",
    "capture_analysis",
    "compare_to_baseline",
    "gate_meta",
    "geomean",
    "refresh_analysis_baseline",
    "render_delta",
    "render_rows",
    "run_lane",
    "save_results",
    "results_dir",
    "speedup_summary",
]


def geomean(values: Iterable[float]) -> float:
    """Geometric mean, NaN for an empty input: every lane's gate ratio."""
    vals = list(values)
    return math.prod(vals) ** (1.0 / len(vals)) if vals else float("nan")


#: >20% drop in any lane's geomean speedup vs the baseline fails the gate
REGRESSION_TOLERANCE = 0.20


def _paired_speedups(
    current: dict, baseline: dict
) -> dict[str, list[tuple[str, float, float]]]:
    """``(key, now, baseline)`` for every baseline speedup the current
    run also measured, grouped by the key prefix before ``/`` (a wall
    ``bench:variant``, a shard workload, ``frontier``).  Quick/CI runs
    may sweep fewer cells than the full baseline; the missing ones are
    skipped."""
    cur = current.get("speedups", {})
    groups: dict[str, list[tuple[str, float, float]]] = {}
    for key, base_val in baseline.get("speedups", {}).items():
        if key in cur:
            groups.setdefault(key.split("/")[0], []).append(
                (key, cur[key], base_val)
            )
    return groups


def compare_to_baseline(
    current: dict, baseline: dict, tolerance: float = REGRESSION_TOLERANCE
) -> list[str]:
    """Machine-independent regression check against a committed baseline.

    Only ratio metrics are gated: each key group's geometric-mean
    speedup (over the cells both runs swept) must stay within
    ``tolerance`` of the baseline's, and every zero-allocation property the baseline
    records must still hold.  Absolute ops/sec are reported but never
    gated (they track the host, not the code).
    """
    problems: list[str] = []
    # Gate each group on its geometric-mean speedup over the cells both
    # runs swept: single cells show ~±25% run-to-run jitter on a busy
    # host, which a 20% gate would flag constantly, while a real
    # regression moves every cell.
    for group, pairs in sorted(_paired_speedups(current, baseline).items()):
        cur_gm = geomean(c for _, c, _ in pairs)
        base_gm = geomean(b for _, _, b in pairs)
        if cur_gm < base_gm * (1.0 - tolerance):
            problems.append(
                f"speedup regression on {group} (geomean over {len(pairs)} "
                f"cells): {cur_gm:.3f}x vs baseline {base_gm:.3f}x "
                f"(tolerance {tolerance:.0%})"
            )
    cur_zero = current.get("zero_alloc", {})
    for key, base_flag in baseline.get("zero_alloc", {}).items():
        if base_flag and cur_zero.get(key) is False:
            problems.append(
                f"allocation regression on {key}: steady-state heapify "
                "now retains memory per op (baseline was allocation-free)"
            )
    return problems


def render_delta(current: dict, baseline: dict, gate_problems=()) -> str:
    """Current-vs-baseline table, the artifact a failing lane ships as
    ``bench_<stem>_delta.txt``: per-cell now/baseline/ratio by key
    group with a geomean line each, then the zero-allocation flags and
    the lane's hard-gate problems."""
    groups = _paired_speedups(current, baseline)
    labels = [key for pairs in groups.values() for key, _, _ in pairs]
    labels += [f"{group} geomean" for group in groups]
    width = max([len("cell")] + [len(label) for label in labels])

    def row(label, now, base):
        ratio = now / base if base else float("nan")
        return f"{label:<{width}} {now:>8.3f} {base:>11.3f} {ratio:>6.2f}"

    lines = [
        f"{'cell':<{width}} {'now(x)':>8} {'baseline(x)':>11} {'ratio':>6}",
        "-" * (width + 28),
    ]
    for group in sorted(groups):
        pairs = groups[group]
        lines += [row(key, now, base) for key, now, base in pairs]
        lines.append(row(f"{group} geomean",
                         geomean(c for _, c, _ in pairs),
                         geomean(b for _, _, b in pairs)))
    cur_zero = current.get("zero_alloc", {})
    for key, flag in sorted(baseline.get("zero_alloc", {}).items()):
        now = cur_zero.get(key)
        lines.append(
            f"zero-alloc {key}: baseline={'yes' if flag else 'no'} "
            f"now={'yes' if now else 'NO' if now is False else '?'}"
        )
    lines += [f"gate: {p}" for p in gate_problems]
    return "\n".join(lines)


@dataclass(frozen=True)
class BenchLane:
    """One gated ``repro bench`` lane, as :func:`run_lane` runs it.

    ``stem`` names everything the lane writes: the committed baseline
    ``BENCH_<stem>.json`` (env override ``REPRO_BENCH_<STEM>_BASELINE``),
    the archived ``bench_<stem>.json`` and ``bench_<stem>_delta.txt``
    under the results dir, and the registry kind ``bench-<stem>``.
    """

    #: the ``repro bench <name>`` target
    name: str
    stem: str
    #: heading of the printed results table
    title: str
    #: ``run(args, rebaseline)`` -> the payload (rows, meta, speedups,
    #: zero_alloc, ...) that is archived, gated and committed
    run: Callable[[Any, bool], dict]
    #: the lane's hard gates, judged on every run, drift aside
    gate: Callable[[dict], list[str]]
    #: lines printed under the speedups and zero-alloc flags
    summary: Callable[[dict], list[str]]
    #: the payload ``meta`` keys recorded as the registry ``config``
    config_keys: tuple[str, ...]
    #: registry ``summary`` fields beside speedups, gate and wall time
    headline: Callable[[dict], dict]
    #: the headline geomean ratio(s) of the ``gate`` block
    ratios: Callable[[dict], dict]
    #: called after ``--update-baseline`` wrote the baseline
    on_update: Callable[[], None] | None = None

    @property
    def kind(self) -> str:
        return f"bench-{self.stem}"

    def baseline_path(self) -> Path:
        """Committed baseline location (repo root), env-overridable."""
        return Path(os.environ.get(
            f"REPRO_BENCH_{self.stem.upper()}_BASELINE", f"BENCH_{self.stem}.json"
        ))


def run_lane(lane: BenchLane, args, record) -> int:
    """Run one lane end to end; returns 0 on a pass, 1 on a gate failure.

    Times the run, prints and archives it, then judges it: the lane's
    hard gates always, and drift against the committed baseline unless
    this run re-baselines (``--update-baseline`` or no baseline yet).  A
    baseline is only written by a run that clears its hard gates.  Any
    failure writes the delta table.  ``record(kind, config=, status=,
    summary=)`` files the run in the registry.
    """
    base_file = lane.baseline_path()
    rebaseline = args.update_baseline or not base_file.exists()
    t0 = time.perf_counter()
    results = lane.run(args, rebaseline)
    wall_s = time.perf_counter() - t0
    print(render_rows(results["rows"], lane.title))
    print()
    for key, val in sorted(results["speedups"].items()):
        print(f"  speedup {key}: {val:.2f}x")
    for key, flag in sorted(results["zero_alloc"].items()):
        print(f"  zero-alloc {key}: {'yes' if flag else 'NO'}")
    for line in lane.summary(results):
        print(f"  {line}")
    extra = {k: v for k, v in results.items()
             if k not in ("benchmark", "recorded_at", "meta", "rows")}
    path = save_results(f"bench_{lane.stem}", results["rows"], meta={
        **results["meta"], **extra, "wall_s": round(wall_s, 1),
    })
    print(f"[{wall_s:.1f}s host; saved {path}]\n")

    gate_problems = lane.gate(results)
    baseline: dict = {}
    drift: list[str] = []
    if rebaseline:
        if gate_problems:
            print(f"(baseline NOT written to {base_file}: hard gates failed)")
        else:
            base_file.write_text(json.dumps(results, indent=2, default=str) + "\n")
            print(f"baseline written to {base_file}")
            if args.update_baseline and lane.on_update is not None:
                lane.on_update()
    else:
        baseline = json.loads(base_file.read_text())
        drift = compare_to_baseline(results, baseline)
    problems = drift + gate_problems
    if problems:
        print(f"bench {lane.name}: GATE FAILED vs {base_file}:")
        for p in problems:
            print(f"  {p}")
        delta = render_delta(results, baseline, gate_problems)
        delta_path = results_dir() / f"bench_{lane.stem}_delta.txt"
        delta_path.write_text(delta + "\n")
        print("\n" + delta)
        print(f"\n(delta table saved to {delta_path})")
        if drift:
            print(f"(re-baseline intentionally with: python -m repro bench "
                  f"{lane.name} --update-baseline)")
    elif not rebaseline:
        print(f"no regression vs {base_file} "
              f"(tolerance {REGRESSION_TOLERANCE:.0%})")
    record(
        lane.kind,
        config={**{key: results["meta"][key] for key in lane.config_keys},
                "rebaseline": rebaseline},
        status="failed" if problems else "completed",
        summary={
            "speedups": results["speedups"],
            **lane.headline(results),
            "gate": gate_meta(not problems, base_file, rebaseline,
                              ratios=lane.ratios(results)),
            "wall_s": round(wall_s, 1),
        },
    )
    return 1 if problems else 0


#: canonical engine-driven workload behind ``BENCH_analysis.json`` — the
#: paper's k=512 node capacity under a contended mixed insert/deletemin
#: fleet (same shape as ``repro trace`` but at full capacity)
ANALYSIS_WORKLOAD = {"threads": 4, "ops": 8, "k": 512, "seed": 1}


def analysis_baseline_path() -> Path:
    """Committed phase-attribution baseline (repo root), env-overridable."""
    return Path(os.environ.get("REPRO_ANALYSIS_BASELINE", "BENCH_analysis.json"))


def capture_analysis(workload: dict | None = None) -> dict:
    """Analysis payload for the canonical traced workload.

    Engine-driven, so all numbers are *simulated* nanoseconds —
    deterministic and machine-independent, which is what makes the
    phase composition committable as a baseline: a code change that
    moves simulated time moves the phase mix, host noise cannot.
    """
    from ..obs.analysis import analyze
    from ..obs.workload import run_traced_mixed

    wl = dict(ANALYSIS_WORKLOAD if workload is None else workload)
    run = run_traced_mixed(
        threads=wl["threads"], ops=wl["ops"], k=wl["k"], seed=wl["seed"]
    )
    payload = analyze(run.events, run.makespan_ns)
    payload["workload"] = wl
    return payload


def refresh_analysis_baseline() -> None:
    """Rewrite ``BENCH_analysis.json`` from :func:`capture_analysis`."""
    path = analysis_baseline_path()
    path.write_text(
        json.dumps(capture_analysis(), indent=2, sort_keys=True) + "\n"
    )
    print(f"analysis baseline written to {path}")


def gate_meta(passed: bool, baseline_file, rebaseline: bool,
              ratios: dict | None = None) -> dict:
    """The bench-gate outcome block every bench lane records into its
    registry summary, so ``repro runs trend`` has perf history to fold:
    pass/fail, which baseline file judged it, whether this run rewrote
    the baseline, and the headline geomean ratio(s)."""
    return {
        "passed": bool(passed),
        "baseline_file": str(baseline_file),
        "rebaseline": bool(rebaseline),
        "geomean_ratios": {k: v for k, v in (ratios or {}).items()
                           if v is not None},
    }


def results_dir() -> Path:
    root = Path(os.environ.get("REPRO_RESULTS_DIR", "bench_results"))
    root.mkdir(parents=True, exist_ok=True)
    return root


def _fmt(v) -> str:
    if isinstance(v, float):
        if v >= 100:
            return f"{v:,.0f}"
        if v >= 1:
            return f"{v:.1f}"
        return f"{v:.3f}"
    return str(v)


def render_rows(rows: list[dict], title: str = "") -> str:
    """Aligned text table from homogeneous dict rows."""
    if not rows:
        return f"{title}\n(no rows)"
    cols = list(rows[0].keys())
    cells = [[_fmt(r.get(c, "")) for c in cols] for r in rows]
    widths = [max(len(c), *(len(row[i]) for row in cells)) for i, c in enumerate(cols)]
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(c.rjust(w) for c, w in zip(cols, widths)))
    lines.append("-+-".join("-" * w for w in widths))
    for row in cells:
        lines.append(" | ".join(v.rjust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


def save_results(name: str, rows: list[dict], meta: dict | None = None) -> Path:
    """Archive rows as JSON under bench_results/<name>.json."""
    payload = {
        "experiment": name,
        "recorded_at": time.strftime("%Y-%m-%d %H:%M:%S"),
        "meta": meta or {},
        "rows": rows,
    }
    path = results_dir() / f"{name}.json"
    path.write_text(json.dumps(payload, indent=2, default=str))
    return path


def speedup_summary(rows: Iterable[dict], ratio_keys: Iterable[str]) -> dict:
    """min/max/mean of each speedup column across rows."""
    out = {}
    rows = list(rows)
    for k in ratio_keys:
        vals = [r[k] for r in rows if k in r]
        if vals:
            out[k] = {
                "min": min(vals),
                "max": max(vals),
                "mean": sum(vals) / len(vals),
            }
    return out


def ascii_chart(series: dict, width: int = 56, label: str = "") -> str:
    """Horizontal-bar chart for one metric across parameter points.

    ``series`` maps a parameter value (x) to a measurement (bar
    length); used by the Figure 6 benchmarks so the *figures* of the
    paper render as figures, scaled to the largest value.

    Example output::

        insert time (ms) vs blocks
           1 | ######################################## 5.15
           2 | ####################                     2.58
    """
    if not series:
        return f"{label}\n(no data)"
    peak = max(series.values())
    key_w = max(len(str(k)) for k in series)
    lines = [label] if label else []
    for k, v in series.items():
        bar = "#" * max(1, int(round(width * v / peak))) if peak > 0 else ""
        lines.append(f"{str(k).rjust(key_w)} | {bar.ljust(width)} {v:,.3f}")
    return "\n".join(lines)
