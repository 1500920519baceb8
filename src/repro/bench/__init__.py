"""Benchmark harness regenerating the paper's Table 1, Table 2, Fig. 6.

The gated lanes live alongside: :mod:`~repro.bench.wall` (``repro
bench native``, NativeBGPQ wall clock), :mod:`~repro.bench.shard` and
:mod:`~repro.bench.frontier` (simulated fleet throughput), each one
:class:`~repro.bench.reporting.BenchLane` run by
:func:`~repro.bench.reporting.run_lane`.
"""

from .experiments import (
    ASTAR_SIZES,
    CPU_THREADS,
    GPU_BLOCKS,
    KNAPSACK_SIZES,
    fig6_blocks_sweep,
    fig6_capacity_sweep,
    make_queue,
    table2_astar,
    table2_insdel,
    table2_knapsack,
    table2_util,
)
from .reporting import (
    ascii_chart,
    compare_to_baseline,
    render_rows,
    save_results,
    speedup_summary,
)
from .runner import PhaseTimes, drain, run_insert_then_delete, run_utilization
from .table1 import render_table1, table1_features
from .workloads import (
    KEY_BITS,
    ORDERS,
    PAPER_SIZES,
    gpu_batch,
    make_keys,
    scale,
    scaled_size,
    size_label,
)

__all__ = [
    "ASTAR_SIZES",
    "CPU_THREADS",
    "GPU_BLOCKS",
    "KEY_BITS",
    "KNAPSACK_SIZES",
    "ORDERS",
    "PAPER_SIZES",
    "PhaseTimes",
    "ascii_chart",
    "compare_to_baseline",
    "drain",
    "fig6_blocks_sweep",
    "fig6_capacity_sweep",
    "gpu_batch",
    "make_keys",
    "make_queue",
    "render_rows",
    "render_table1",
    "run_insert_then_delete",
    "run_utilization",
    "save_results",
    "scale",
    "scaled_size",
    "size_label",
    "speedup_summary",
    "table1_features",
    "table2_astar",
    "table2_insdel",
    "table2_knapsack",
    "table2_util",
]
