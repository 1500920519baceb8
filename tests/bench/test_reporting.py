"""Reporting / rendering / archiving tests."""

import json
from pathlib import Path

import pytest

from repro.bench.reporting import (
    capture_analysis,
    render_rows,
    save_results,
    speedup_summary,
)
from repro.bench.table1 import render_table1, table1_features
from repro.obs import diff_analyses, load_analysis, render_diff

BENCH_ANALYSIS = Path(__file__).parents[2] / "BENCH_analysis.json"


def test_capture_analysis_matches_committed_baseline():
    """The canonical traced workload reproduces the committed
    ``BENCH_analysis.json`` exactly; re-record deliberately with
    ``python -m repro bench native --update-baseline``."""
    baseline = load_analysis(BENCH_ANALYSIS)
    current = json.loads(json.dumps(capture_analysis(baseline["workload"])))
    if current != baseline:
        diff = diff_analyses(baseline, current, "committed", "current")
        pytest.fail("BENCH_analysis.json drifted:\n" + render_diff(diff))


def test_render_rows_alignment():
    rows = [{"a": 1, "b": 2.5}, {"a": 100, "b": 0.001}]
    text = render_rows(rows, "title")
    lines = text.splitlines()
    assert lines[0] == "title"
    assert "a" in lines[1] and "b" in lines[1]
    # all data lines equal width
    widths = {len(line) for line in lines[1:]}
    assert len(widths) == 1


def test_render_rows_empty():
    assert "(no rows)" in render_rows([], "t")


def test_render_rows_float_formats():
    text = render_rows([{"x": 12345.6, "y": 3.14159, "z": 0.00123}])
    assert "12,346" in text
    assert "3.1" in text
    assert "0.001" in text


def test_save_results_roundtrip(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "out"))
    path = save_results("unit", [{"v": 1}], meta={"scale": 42})
    data = json.loads(path.read_text())
    assert data["experiment"] == "unit"
    assert data["meta"]["scale"] == 42
    assert data["rows"] == [{"v": 1}]


def test_speedup_summary():
    rows = [{"B/T": 10.0}, {"B/T": 30.0}, {"B/T": 20.0}]
    s = speedup_summary(rows, ["B/T", "B/X"])
    assert s["B/T"]["min"] == 10.0
    assert s["B/T"]["max"] == 30.0
    assert s["B/T"]["mean"] == pytest.approx(20.0)
    assert "B/X" not in s


def test_table1_row_set_matches_paper():
    names = [f.name for f in table1_features()]
    assert names == ["Hunt", "CBPQ", "STSL", "LJSL", "SprayList", "GFSL", "P-Sync", "BGPQ"]


def test_render_table1_contains_all_columns():
    text = render_table1()
    for col in ("Data Parallelism", "Task Parallelism", "Thread Collaboration",
                "Memory Efficient", "Linearizable", "Data Structure"):
        assert col in text
    assert "BGPQ" in text and "GFSL" in text


def test_ascii_chart_bars_scale():
    from repro.bench import ascii_chart

    text = ascii_chart({1: 10.0, 2: 5.0, 4: 2.5}, width=40, label="t")
    lines = text.splitlines()
    assert lines[0] == "t"
    bars = [line.count("#") for line in lines[1:]]
    assert bars[0] == 40          # peak fills the width
    assert bars[1] == 20 and bars[2] == 10
    assert "10.000" in lines[1]


def test_ascii_chart_empty_and_zero():
    from repro.bench import ascii_chart

    assert "(no data)" in ascii_chart({}, label="x")
    text = ascii_chart({1: 0.0})
    assert "0.000" in text
