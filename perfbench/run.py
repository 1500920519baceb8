#!/usr/bin/env python3
"""Wall-clock benchmark of the BGPQ reproduction, one workload per run.

Run from the repository root::

    python3 perfbench/run.py --workload knapsack --seed 1 --seconds 20 --trace 0

Workloads: ``knapsack`` (branch-and-bound solves), ``serve`` (durable
service, fsync on) and ``fleet`` (sharded fleet); see README.md.  With
``--trace 0`` the run prints the end-to-end metrics, with ``--trace 1``
the per-layer metrics.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exit status: 0 when every output checked correct, 1 when
any output was wrong, 2 when the program's sources are missing or the
arguments are bad.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
# The measured run is made of chunks of about ``--seconds / CHUNKS``
# busy time, with a set-up before each chunk and one after the last, so
# the set-ups sample the host all through the run.
CHUNKS = 10
# The host's cores are shared, and not evenly: for a minute or more, code
# can run up to ~1.9x slower on one CPU than on the other.  A lone thread
# stays on the CPU it started on, so the run moves itself to the next
# CPU before each chunk.  work_per_s and latency_ms_p50 then come from
# the run's quiet moments: every workload repeats the same units in whole
# passes (solves, epochs of requests, fleet rounds), and each unit counts
# once, at its fastest time over the passes.  A run that is busy from
# start to end is rescaled by a fixed reference workload (calibrate.py),
# timed REF_REPEATS times on each side of every chunk.
REF_REPEATS = 3
# a traced run also measures the layers only the other workloads reach,
# on passes this share of its own length
FOREIGN_SHARE = 0.25


def parse(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("knapsack", "serve", "fleet"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="busy time measured (untraced) or sizing of the "
                         "fixed traced work")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _gcc_version() -> str:
    try:
        out = subprocess.run(["gcc", "--version"], capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.splitlines()[0] if out.stdout else "unavailable"


def provenance(args) -> dict:
    from repro.core.native import NativeBGPQ

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "kernel": NativeBGPQ().kernel_provenance(),
        "gcc": _gcc_version(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "serve_fsync": True,
    }


def _timing_line(label: str, times: list[float], tail_pct: float) -> str:
    from probes import percentile

    n = len(times)
    beyond = n - int(n * tail_pct / 100)
    return (f"{label}: p50 {percentile(times, 50) * 1e3:.3f} ms, "
            f"p{tail_pct:g} {percentile(times, tail_pct) * 1e3:.3f} ms "
            f"over {n} samples ({beyond} beyond p{tail_pct:g})")


def quiet(p):
    """(work, times, description) of the units of the run's quiet moments.

    A measured run is made of whole passes over the same units: each
    unit counts once, at its fastest time over the passes.
    """
    n = p.marks[0]
    passes = np.array([p.times[a:b] for a, b in zip([0] + p.marks, p.marks)
                       if b - a == n])
    return (p.work[:n], list(passes.min(axis=0)),
            f"fastest of each of {n} units over {len(passes)} passes")


def untraced(args, sizes, workdir: Path):
    """Measure ``--seconds`` of busy time in chunks between set-ups."""
    from calibrate import REF_S, reference, rescale
    from probes import percentile
    from workloads import WORKLOADS, Pass

    w = WORKLOADS[args.workload](args.seed, sizes, workdir)
    w.prepare()
    setups = []

    def setup() -> None:
        t0 = time.perf_counter()
        w.setup()
        setups.append(time.perf_counter() - t0)

    refs = []  # reference times, REF_REPEATS on each side of every chunk
    home = os.sched_getaffinity(0)
    cpus = sorted(home)
    p = Pass()
    try:
        while p.busy < args.seconds:
            os.sched_setaffinity(0, {cpus[len(setups) % len(cpus)]})
            setup()
            refs += [reference() for _ in range(REF_REPEATS)]
            chunk = min(args.seconds / CHUNKS, args.seconds - p.busy)
            p.extend(w.run(budget_s=chunk))
            refs += [reference() for _ in range(REF_REPEATS)]
        setup()
    finally:
        os.sched_setaffinity(0, home)
    work, times, how = quiet(p)
    rate, latency = sum(work) / sum(times), percentile(times, 50)
    rate_q, latency_q, slowdown = rescale(rate, latency, refs)
    # each set-up against the reference times taken right after it (the
    # last one: right before it), since a set-up is a single moment
    step = 2 * REF_REPEATS
    near = [refs[i:i + REF_REPEATS] for i in range(0, len(refs), step)]
    near.append(refs[-REF_REPEATS:])
    setup_q = statistics.median(s * REF_S / min(r) for s, r in zip(setups, near))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": (setup_q, "s"),
        "peak_rss_mb": (rss_mb, "MiB"),
        "work_per_s": (rate_q, "1/s"),
        "latency_ms_p50": (latency_q * 1e3, "ms"),
    }
    what = "nodes expanded" if w.name == "knapsack" else "requests"
    lines = [
        f"{w.name}: {len(p.times)} {w.unit}s, {sum(p.work)} {what} in "
        f"{p.busy:.3f} s busy ({sum(p.work) / p.busy:.1f} {what}/s)",
        _timing_line(f"whole run, {w.unit} latency", p.times, w.tail_pct),
        f"{how}: {len(times)} {w.unit}s, {rate:.1f} {what}/s, "
        f"p50 {latency * 1e3:.3f} ms",
        f"host slowdown {slowdown:.4f}: fastest of {len(refs)} reference "
        f"times {min(refs) * 1e3:.3f} ms / {REF_S * 1e3:g} ms; rescaled "
        f"{rate_q:.1f} {what}/s, p50 {latency_q * 1e3:.3f} ms",
        f"setup: median {statistics.median(setups):.4f} s of "
        f"{len(setups)} ({min(setups):.4f}..{max(setups):.4f}); "
        f"rescaled {setup_q:.4f} s",
    ]
    return p.attempted, p.failed, p.problems, metrics, lines


def traced(args, sizes, workdir: Path):
    """Same fixed work untraced then traced, plus every other layer."""
    from probes import Tracer
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    w = cls(args.seed, sizes, workdir / cls.name)
    w.prepare()
    w.setup()
    units = max(1, round(args.seconds * cls.trace_rate))
    ref = w.run(units=units)
    tracer = Tracer(record=w.tape_queues())
    tp = w.run(units=units, tracer=tracer)
    attempted = ref.attempted + tp.attempted
    failed = ref.failed + tp.failed
    problems = ref.problems + tp.problems
    if tp.outputs != ref.outputs:
        failed += 1
        problems.append("traced pass outputs differ from the untraced pass")
    cost, cost_problems = tracer.replay_costmodel()
    if cost_problems:
        failed += 1
        problems.append(cost_problems[0])
    overhead = tp.busy / ref.busy
    metrics = {**tracer.native_metrics(), **cost, **tp.layer,
               "trace_overhead": (overhead, "ratio")}
    lines = [
        f"{cls.name}: {units} {cls.unit}s untraced then traced, "
        f"trace_overhead {overhead:.3f}, outputs identical: "
        f"{tp.outputs == ref.outputs}",
        f"costmodel replay of {len(tracer.tapes)} queue tapes: "
        f"share {cost['costmodel.share'][0]:.3f} (insert_bulk "
        f"{cost['costmodel.insert_share'][0]:.3f}, deletemin "
        f"{cost['costmodel.deletemin_share'][0]:.3f})",
    ]
    for other in WORKLOADS.values():
        if other is cls:
            continue
        o = other(args.seed, sizes, workdir / other.name)
        o.prepare()
        o.setup()
        n = max(1, round(args.seconds * other.trace_rate * FOREIGN_SHARE))
        op = o.run(units=n, tracer=Tracer())
        metrics.update(op.layer)
        attempted += op.attempted
        failed += op.failed
        problems += op.problems
        lines.append(f"{other.name} layers: traced pass of {n} {other.unit}s")
    return attempted, failed, problems, metrics, lines


def main(argv=None, sizes=None) -> int:
    args = parse(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {src}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    BUILD.mkdir(exist_ok=True)
    # keep the compiled-kernel cache inside the checkout
    os.environ["REPRO_CKERN_CACHE"] = str(BUILD / "ckern")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    from repro.primitives import kernels

    kernels.active()  # compile now, so no set-up ever includes a build
    from workloads import Sizes

    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BUILD))
    try:
        run = traced if args.trace else untraced
        attempted, failed, problems, metrics, lines = run(
            args, sizes or Sizes(), workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("provenance " + json.dumps(provenance(args), sort_keys=True))
    for line in lines:
        print(line)
    print(f"fail_ratio: {failed}/{attempted} = {failed / max(1, attempted):.6f}")
    for problem in problems:
        print(f"FAILED: {problem}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
