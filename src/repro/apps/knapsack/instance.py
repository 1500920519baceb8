"""0-1 knapsack instance generation (Martello, Pisinger & Toth [19]).

The paper generates "large datasets with different numbers of items
from 200 to 1000" with the classic MPT generator families.  All the
standard correlation classes are provided; capacity defaults to half
the total weight (the generator's ``c = h/(H+1) * sum(w)`` series with
one instance).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["KnapsackInstance", "generate", "FAMILIES"]

FAMILIES = ("uncorrelated", "weakly_correlated", "strongly_correlated", "subset_sum")


@dataclass(frozen=True)
class KnapsackInstance:
    """An immutable 0-1 knapsack problem.

    ``profits``/``weights`` are kept sorted by profit density
    (profit/weight, descending) — the order every bound computation and
    branching strategy in this package expects.  ``wsum``/``psum`` are
    their prefix sums (``wsum[i]`` is the weight of items ``[0, i)``),
    computed once here for the batched bound.
    """

    profits: np.ndarray
    weights: np.ndarray
    capacity: int
    family: str = "uncorrelated"
    wsum: np.ndarray = field(init=False, compare=False, repr=False)
    psum: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.profits.shape != self.weights.shape:
            raise ValueError("profits and weights must have equal length")
        if self.capacity <= 0:
            raise ValueError("capacity must be positive")
        if np.any(self.weights <= 0) or np.any(self.profits <= 0):
            raise ValueError("profits and weights must be positive")
        density = self.profits / self.weights
        if np.any(density[:-1] < density[1:]):
            raise ValueError("items must be sorted by density descending")
        object.__setattr__(self, "wsum", np.concatenate([[0], np.cumsum(self.weights)]))
        object.__setattr__(self, "psum", np.concatenate([[0], np.cumsum(self.profits)]))

    @property
    def n_items(self) -> int:
        return int(self.profits.size)

    def greedy_value(self) -> int:
        """Profit of greedily packing by density (a lower bound)."""
        take = self.wsum[1:] <= self.capacity
        return int(self.profits[take].sum())


def _sort_by_density(profits: np.ndarray, weights: np.ndarray):
    order = np.argsort(-(profits / weights), kind="stable")
    return profits[order], weights[order]


def generate(
    n_items: int,
    family: str = "uncorrelated",
    R: int = 1000,
    capacity_fraction: float = 0.5,
    seed: int = 0,
) -> KnapsackInstance:
    """Generate an MPT-style instance.

    Families
    --------
    uncorrelated:
        ``w ~ U[1, R]``, ``p ~ U[1, R]`` — easy pruning.
    weakly_correlated:
        ``p = w + U[-R/10, R/10]`` (clipped positive) — harder.
    strongly_correlated:
        ``p = w + R/10`` — the classic hard family: densities cluster,
        bounds discriminate poorly and the search tree explodes, which
        is what makes the paper's 2^200..2^1000 trees interesting.
    subset_sum:
        ``p = w`` — degenerate pricing.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; choose from {FAMILIES}")
    if n_items < 1:
        raise ValueError("need at least one item")
    rng = np.random.default_rng(seed)
    w = rng.integers(1, R + 1, size=n_items).astype(np.int64)
    if family == "uncorrelated":
        p = rng.integers(1, R + 1, size=n_items).astype(np.int64)
    elif family == "weakly_correlated":
        noise = rng.integers(-R // 10, R // 10 + 1, size=n_items)
        p = np.maximum(1, w + noise).astype(np.int64)
    elif family == "strongly_correlated":
        p = (w + R // 10).astype(np.int64)
    else:  # subset_sum
        p = w.copy()
    capacity = max(int(w.sum() * capacity_fraction), int(w.max()))
    p, w = _sort_by_density(p, w)
    return KnapsackInstance(p, w, capacity, family=family)
