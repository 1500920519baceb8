"""The benchmark's own checks, at tiny sizes (a few seconds in all).

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from calibrate import REF_S, reference, rescale
from probes import Tracer
from repro.apps.knapsack import generate, solve_batched
from workloads import WORKLOADS, Sizes

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = Sizes(
    items=60, instance_pool=3, min_heap=0, warm_items=30,
    serve_k=16, prefill_batches=8, history_ops=10, epoch_requests=40,
    fleet_k=32, sessions=2, session_requests=4, script_pool=2,
    replay_units=1,
)
NAMES = sorted(WORKLOADS)


def _run(capsys, *argv):
    code = run.main(["--seed", "3", "--seconds", "0.3", *argv], sizes=TINY)
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


def _declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_prints_with_its_unit(capsys, name, trace, kind):
    code, _, result = _run(capsys, "--workload", name, "--trace", str(trace))
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == _declared(kind)
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_wrong_knapsack_answer_flips_fail_ratio_and_exit_code(
    capsys, monkeypatch
):
    real = workloads.solve_dp
    monkeypatch.setattr(workloads, "solve_dp", lambda inst: real(inst) + 1)
    code, lines, result = _run(capsys, "--workload", "knapsack", "--trace", "0")
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert any(line.startswith("fail_ratio: ") and "= 1.000000" in line
               for line in lines)


def test_knapsack_counts_each_solve_once_at_its_quiet_time(capsys):
    code, _, result = _run(capsys, "--workload", "knapsack", "--trace", "0")
    assert code == 0
    assert result["attempted"] % TINY.instance_pool == 0  # whole passes
    p = workloads.Pass()
    for n in (2, 0, 3, 1):
        for unit in range(3):
            p.add(1.0 + unit + n, 10)
        p.marks.append(len(p.times))
    work, times, _ = run.quiet(p)
    assert work == [10, 10, 10]
    assert times == pytest.approx([1.0, 2.0, 3.0])  # fastest of 4 passes


def test_rescale_divides_out_the_runs_slowdown():
    # the fastest reference time sets the slowdown: 2x here
    rate, latency, slowdown = rescale(100.0, 2.0, [3 * REF_S, 2 * REF_S, 4 * REF_S])
    assert slowdown == pytest.approx(2.0)
    assert (rate, latency) == pytest.approx((200.0, 1.0))
    assert 0 < reference() < 1.0


def test_knapsack_pool_skips_instances_with_small_heaps(tmp_path):
    sizes = dataclasses.replace(TINY, instance_pool=5, min_heap=10_000)
    w = WORKLOADS["knapsack"](3, sizes, tmp_path)
    w.prepare()
    w.setup()
    heaps = [solve_batched(inst).max_queue for inst in w.pool]
    assert len(heaps) == 5 and min(heaps) >= 10_000
    first = [generate(sizes.items, "weakly_correlated", seed=x)
             for x in workloads._seeds(3, 0, 5)]
    assert min(solve_batched(inst).max_queue for inst in first) < 10_000


@pytest.mark.parametrize("name,units", [
    ("knapsack", TINY.instance_pool),
    ("serve", TINY.epoch_requests),
    ("fleet", TINY.script_pool),
])
def test_a_budget_ends_only_at_the_end_of_a_pass(tmp_path, name, units):
    w = WORKLOADS[name](5, TINY, tmp_path)
    w.prepare()
    w.setup()
    p = w.run(budget_s=1e-9)
    assert p.marks == [units] and len(p.times) == units
    p = w.run(budget_s=1e-9)  # the same units again, checked against the first
    assert p.failed == 0


@pytest.mark.parametrize("name", NAMES)
def test_traced_pass_leaves_outputs_identical(tmp_path, name):
    w = WORKLOADS[name](5, TINY, tmp_path)
    w.prepare()
    w.setup()
    plain = w.run(units=3)
    tracer = Tracer(record=w.tape_queues())
    traced = w.run(units=3, tracer=tracer)
    # optimum per solve, final digest per epoch, history per fleet round
    assert traced.outputs == plain.outputs
    assert plain.failed == traced.failed == 0
    _, problems = tracer.replay_costmodel(repeats=1)
    assert tracer.tapes and problems == []


def test_exits_nonzero_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    shutil.copytree(ROOT / "perfbench", bench,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
