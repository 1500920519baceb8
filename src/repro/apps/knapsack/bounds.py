"""Bounds for branch-and-bound 0-1 knapsack.

The branch-and-bound solver prices every open node with the Dantzig
fractional relaxation: pack remaining items greedily by density and
take a fraction of the first item that no longer fits.  Both a scalar
version (for the sequential solver) and a vectorised batch version
(what a GPU thread block computes for a whole batch of nodes at once —
used by the batched solver) are provided.
"""

from __future__ import annotations

import numpy as np

from .instance import KnapsackInstance

__all__ = ["dantzig_upper_bound", "dantzig_upper_bound_batch", "greedy_completion"]


def dantzig_upper_bound(
    inst: KnapsackInstance, level: int, profit: int, weight: int
) -> float:
    """Fractional upper bound for a node that decided items [0, level).

    ``profit``/``weight`` are the accumulated totals of the taken
    items; items ``level..n-1`` (density-sorted) may still be chosen.
    """
    cap = inst.capacity - weight
    if cap < 0:
        return -np.inf  # infeasible node
    ub = float(profit)
    for i in range(level, inst.n_items):
        w = inst.weights[i]
        if w <= cap:
            cap -= w
            ub += inst.profits[i]
        else:
            ub += inst.profits[i] * (cap / w)
            break
    return ub


def dantzig_upper_bound_batch(
    inst: KnapsackInstance,
    levels: np.ndarray,
    profits: np.ndarray,
    weights: np.ndarray,
) -> np.ndarray:
    """Vectorised Dantzig bound for a batch of nodes.

    Uses the instance's prefix sums of the density-sorted items: for
    each node, binary-search how many whole remaining items fit, then
    add the fractional part — O(log n) per node, all lanes independent,
    exactly the shape a GPU kernel computes per thread.
    """
    levels = np.asarray(levels)
    cap = inst.capacity - np.asarray(weights)
    ub = fractional_bound(
        inst, levels, np.asarray(profits, dtype=np.float64), np.maximum(cap, 0)
    )
    return np.where(cap < 0, -np.inf, ub)


def fractional_bound(
    inst: KnapsackInstance,
    levels: np.ndarray,
    profits: np.ndarray,
    room: np.ndarray,
) -> np.ndarray:
    """Dantzig bound of feasible nodes: ``room >= 0`` capacity left.

    ``profits`` is float64.  Whole items ``[level, j)`` fit while
    ``wsum[j] - wsum[level] <= room``; ``room >= 0`` already keeps ``j``
    in ``[level, n_items]``, so no clamp is needed.
    """
    wsum = inst.wsum
    targets = wsum[levels] + room
    j = np.searchsorted(wsum, targets, side="right") - 1
    ub = profits + (inst.psum[j] - inst.psum[levels])
    has_frac = j < inst.n_items
    jj = np.where(has_frac, j, 0)
    frac_p = np.where(
        has_frac,
        inst.profits[jj] * ((targets - wsum[j]) / inst.weights[jj]),
        0.0,
    )
    return ub + frac_p


def greedy_completion(
    inst: KnapsackInstance, level: int, profit: int, weight: int
) -> int:
    """Feasible completion (lower bound): greedily add whole items."""
    cap = inst.capacity - weight
    if cap < 0:
        return -1
    value = int(profit)
    for i in range(level, inst.n_items):
        w = int(inst.weights[i])
        if w <= cap:
            cap -= w
            value += int(inst.profits[i])
    return value
