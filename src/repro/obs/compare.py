"""Run comparison: diff two analysis captures, rank the regressors.

``repro trace analyze`` writes a JSON payload (schema
``repro.obs.analysis/v1``, see :mod:`repro.obs.analysis`); this module
diffs two of them and answers "why did run B get slower than run A?"
at phase granularity:

* :func:`load_analysis` — read + schema-validate a capture; raises
  :class:`AnalysisFormatError` (a ``ValueError``) on malformed or
  schema-mismatched input, which the CLI turns into a clean exit 2.
* :func:`diff_analyses` — per-phase critical-path deltas, makespan
  delta, counter deltas, and a deterministic ``top_regressor``: the
  phase whose absolute ns grew the most (ties break alphabetically),
  or None when no phase grew.
* :func:`render_diff` — the terminal delta table.

The same engine backs the golden test of the committed
``BENCH_analysis.json``: it re-captures the mixed traced workload
(:func:`repro.bench.reporting.capture_analysis`) and, on any mismatch,
prints this diff, so a failure names *which phase* of the run's
composition moved.
"""

from __future__ import annotations

import json
from pathlib import Path

from .analysis import ANALYSIS_SCHEMA
from .spans import PHASES

__all__ = [
    "AnalysisFormatError",
    "diff_analyses",
    "load_analysis",
    "render_diff",
    "validate_analysis",
]


class AnalysisFormatError(ValueError):
    """A capture is not a valid `repro.obs.analysis` payload."""


def validate_analysis(payload: object, where: str = "analysis") -> dict:
    """Validate one capture; returns it typed, raises on any problem."""
    if not isinstance(payload, dict):
        raise AnalysisFormatError(f"{where}: top level must be a JSON object")
    schema = payload.get("schema")
    if schema != ANALYSIS_SCHEMA:
        raise AnalysisFormatError(
            f"{where}: schema {schema!r} does not match {ANALYSIS_SCHEMA!r}"
        )
    mk = payload.get("makespan_ns")
    if not isinstance(mk, (int, float)) or mk < 0:
        raise AnalysisFormatError(f"{where}: makespan_ns must be a number >= 0")
    attr = payload.get("attribution")
    if not isinstance(attr, dict) or not attr:
        raise AnalysisFormatError(f"{where}: attribution must be a non-empty object")
    for phase, ns in attr.items():
        if not isinstance(phase, str) or not isinstance(ns, (int, float)):
            raise AnalysisFormatError(
                f"{where}: attribution entries must map phase -> ns, "
                f"got {phase!r}: {ns!r}"
            )
    return payload


def load_analysis(path: str | Path) -> dict:
    """Read and validate an analysis JSON capture from disk."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as err:
        raise AnalysisFormatError(f"{path}: cannot read ({err})") from err
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as err:
        raise AnalysisFormatError(f"{path}: not valid JSON ({err})") from err
    return validate_analysis(payload, where=str(path))


# ---------------------------------------------------------------------------
def diff_analyses(a: dict, b: dict, a_name: str = "A", b_name: str = "B") -> dict:
    """Per-phase delta report between two validated captures (A -> B).

    Phases are the union of both attributions, reported in canonical
    order (:data:`~repro.obs.spans.PHASES` first, extras sorted).
    ``delta_ns`` is ``B - A``; ``ratio`` is ``B / A`` (None when A is
    0).  ``top_regressor`` is the phase with the largest positive
    ``delta_ns`` — deterministic via the (delta, name) tie-break — and
    None when nothing grew.
    """
    validate_analysis(a, a_name)
    validate_analysis(b, b_name)
    attr_a, attr_b = a["attribution"], b["attribution"]
    keys = [p for p in PHASES if p in attr_a or p in attr_b]
    keys += sorted((set(attr_a) | set(attr_b)) - set(keys))
    rows = []
    for phase in keys:
        a_ns = float(attr_a.get(phase, 0.0))
        b_ns = float(attr_b.get(phase, 0.0))
        rows.append({
            "phase": phase,
            "a_ns": round(a_ns, 3),
            "b_ns": round(b_ns, 3),
            "delta_ns": round(b_ns - a_ns, 3),
            "ratio": round(b_ns / a_ns, 4) if a_ns > 0 else None,
        })
    regressors = sorted(
        (r for r in rows if r["delta_ns"] > 0),
        key=lambda r: (-r["delta_ns"], r["phase"]),
    )
    counters = {}
    for key in sorted(set(a.get("counters", {})) | set(b.get("counters", {}))):
        ca = a.get("counters", {}).get(key, 0)
        cb = b.get("counters", {}).get(key, 0)
        if ca != cb:
            counters[key] = {"a": ca, "b": cb, "delta": cb - ca}
    mk_a, mk_b = float(a["makespan_ns"]), float(b["makespan_ns"])
    return {
        "a_name": a_name,
        "b_name": b_name,
        "makespan_a_ns": round(mk_a, 3),
        "makespan_b_ns": round(mk_b, 3),
        "makespan_delta_ns": round(mk_b - mk_a, 3),
        "makespan_ratio": round(mk_b / mk_a, 4) if mk_a > 0 else None,
        "phases": rows,
        "top_regressor": regressors[0]["phase"] if regressors else None,
        "counter_deltas": counters,
    }


def render_diff(diff: dict, max_counters: int = 10) -> str:
    """Terminal delta table for one diff payload."""
    lines: list[str] = []
    ratio = diff["makespan_ratio"]
    lines.append(
        f"run diff {diff['a_name']} -> {diff['b_name']}: makespan "
        f"{diff['makespan_a_ns']:,.0f} -> {diff['makespan_b_ns']:,.0f} ns "
        f"({'x' + format(ratio, '.3f') if ratio is not None else 'n/a'})"
    )
    lines.append("")
    width = max(len(r["phase"]) for r in diff["phases"])
    header = (
        f"  {'phase':<{width}} {diff['a_name']:>14} {diff['b_name']:>14} "
        f"{'delta':>14} {'ratio':>8}"
    )
    lines.append(header)
    lines.append("  " + "-" * (len(header) - 2))
    for r in diff["phases"]:
        ratio = f"x{r['ratio']:.3f}" if r["ratio"] is not None else "n/a"
        lines.append(
            f"  {r['phase']:<{width}} {r['a_ns']:>14,.0f} {r['b_ns']:>14,.0f} "
            f"{r['delta_ns']:>+14,.0f} {ratio:>8}"
        )
    lines.append("")
    if diff["top_regressor"]:
        lines.append(f"top regressor: {diff['top_regressor']}")
    else:
        lines.append("top regressor: none (no phase grew)")
    if diff["counter_deltas"]:
        lines.append("")
        lines.append("counter deltas")
        shown = list(diff["counter_deltas"].items())[:max_counters]
        for key, c in shown:
            lines.append(f"  {key:<28} {c['a']} -> {c['b']} ({c['delta']:+d})")
        rest = len(diff["counter_deltas"]) - len(shown)
        if rest > 0:
            lines.append(f"  ... {rest} more")
    return "\n".join(lines)
