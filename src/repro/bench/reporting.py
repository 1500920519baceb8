"""Rendering, archiving and baseline gating of benchmark results.

``render_rows`` prints dict rows as an aligned text table (the shape
of the paper's Table 2); ``save_results`` appends a JSON record under
``bench_results/`` so EXPERIMENTS.md can cite actual measured numbers
from the run that produced them.  ``compare_to_baseline`` is the one
drift gate the native, shard and frontier lanes share, and
``capture_analysis`` recomputes the committed ``BENCH_analysis.json``
phase attribution.
"""

from __future__ import annotations

import json
import math
import os
import time
from pathlib import Path
from typing import Iterable

__all__ = [
    "ANALYSIS_WORKLOAD",
    "REGRESSION_TOLERANCE",
    "analysis_baseline_path",
    "capture_analysis",
    "compare_to_baseline",
    "gate_meta",
    "geomean",
    "render_rows",
    "save_results",
    "results_dir",
    "speedup_summary",
]


def geomean(values: Iterable[float]) -> float:
    """Geometric mean; NaN for an empty input.

    The one shared definition the native/shard/frontier gates compare
    speedup ratios with (previously re-implemented per bench module).
    """
    vals = list(values)
    return math.prod(vals) ** (1.0 / len(vals)) if vals else float("nan")


#: >20% drop in any lane's geomean speedup vs the baseline fails the gate
REGRESSION_TOLERANCE = 0.20


def compare_to_baseline(
    current: dict, baseline: dict, tolerance: float = REGRESSION_TOLERANCE
) -> list[str]:
    """Machine-independent regression check against a committed baseline.

    Only ratio metrics are gated: each lane's geometric-mean speedup
    (the key prefix before ``/``, over the node capacities or shard
    counts both runs swept) must stay within ``tolerance`` of the
    baseline's, and every zero-allocation property the baseline records
    must still hold.  Absolute ops/sec are reported but never gated
    (they track the host, not the code).
    """
    problems: list[str] = []
    cur_speed = current.get("speedups", {})
    # Gate each lane on its geometric-mean speedup over the cells both
    # runs swept: single cells show ~±25% run-to-run jitter on a busy
    # host, which a 20% gate would flag constantly, while a real
    # regression moves every cell.
    by_lane: dict[str, list[tuple[float, float]]] = {}
    for key, base_val in baseline.get("speedups", {}).items():
        cur_val = cur_speed.get(key)
        if cur_val is None:
            # quick/CI runs may sweep fewer cells than the full baseline
            continue
        by_lane.setdefault(key.split("/")[0], []).append((cur_val, base_val))
    for lane, pairs in sorted(by_lane.items()):
        cur_gm = geomean(c for c, _ in pairs)
        base_gm = geomean(b for _, b in pairs)
        if cur_gm < base_gm * (1.0 - tolerance):
            problems.append(
                f"speedup regression on {lane} (geomean over {len(pairs)} "
                f"k's): {cur_gm:.3f}x vs baseline {base_gm:.3f}x "
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
