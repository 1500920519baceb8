"""Knapsack application tests: generators, bounds, DP, B&B variants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.knapsack import (
    FAMILIES,
    KnapsackInstance,
    dantzig_upper_bound,
    dantzig_upper_bound_batch,
    generate,
    greedy_completion,
    solve_batched,
    solve_concurrent,
    solve_dp,
    solve_sequential,
)
from repro.apps.knapsack.branch_bound import node_widths, pack_nodes, unpack_nodes
from repro.baselines import LJSkipListPQ, SprayListPQ, TbbHeapPQ
from repro.errors import ConfigurationError


class TestInstance:
    def test_generate_all_families(self):
        for fam in FAMILIES:
            inst = generate(50, family=fam, seed=1)
            assert inst.n_items == 50
            assert inst.capacity > 0
            assert inst.family == fam

    def test_density_sorted(self):
        inst = generate(100, seed=2)
        density = inst.profits / inst.weights
        assert np.all(density[:-1] >= density[1:])

    def test_strongly_correlated_structure(self):
        inst = generate(50, family="strongly_correlated", R=1000, seed=0)
        assert np.all(inst.profits == inst.weights + 100)

    def test_subset_sum_structure(self):
        inst = generate(50, family="subset_sum", seed=0)
        assert np.array_equal(inst.profits, inst.weights)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            generate(10, family="nope")

    def test_validation(self):
        with pytest.raises(ValueError):
            generate(0)
        with pytest.raises(ValueError):
            KnapsackInstance(np.array([1, 2]), np.array([1]), 10)
        with pytest.raises(ValueError):
            KnapsackInstance(np.array([1]), np.array([1]), 0)
        with pytest.raises(ValueError):  # not density sorted
            KnapsackInstance(np.array([1, 10]), np.array([2, 2]), 10)

    def test_deterministic_by_seed(self):
        a = generate(30, seed=7)
        b = generate(30, seed=7)
        assert np.array_equal(a.profits, b.profits)
        assert np.array_equal(a.weights, b.weights)

    def test_prefix_sums_cached(self):
        inst = generate(40, seed=3)
        np.testing.assert_array_equal(
            inst.wsum, np.concatenate([[0], np.cumsum(inst.weights)]))
        np.testing.assert_array_equal(
            inst.psum, np.concatenate([[0], np.cumsum(inst.profits)]))
        # derived, so equality and construction ignore them
        assert inst == KnapsackInstance(inst.profits, inst.weights, inst.capacity)

    def test_greedy_value_feasible(self):
        inst = generate(40, seed=3)
        take = np.cumsum(inst.weights) <= inst.capacity
        assert inst.greedy_value() == inst.profits[take].sum()


class TestBounds:
    def test_root_bound_at_least_optimum(self):
        for seed in range(5):
            inst = generate(18, R=60, seed=seed)
            assert dantzig_upper_bound(inst, 0, 0, 0) >= solve_dp(inst)

    def test_bound_of_leaf_is_profit(self):
        inst = generate(10, seed=0)
        assert dantzig_upper_bound(inst, inst.n_items, 123, 0) == 123.0

    def test_infeasible_node_bound(self):
        inst = generate(10, seed=0)
        assert dantzig_upper_bound(inst, 0, 0, inst.capacity + 1) == -np.inf

    def test_batch_matches_scalar(self):
        inst = generate(25, R=80, seed=4)
        rng = np.random.default_rng(0)
        levels = rng.integers(0, inst.n_items + 1, size=64)
        weights = rng.integers(0, inst.capacity + 10, size=64)
        profits = rng.integers(0, 500, size=64)
        batch = dantzig_upper_bound_batch(inst, levels, profits, weights)
        for i in range(64):
            scalar = dantzig_upper_bound(
                inst, int(levels[i]), int(profits[i]), int(weights[i])
            )
            assert batch[i] == pytest.approx(scalar), i

    def test_greedy_completion_bounds(self):
        inst = generate(15, R=40, seed=5)
        lb = greedy_completion(inst, 0, 0, 0)
        assert 0 <= lb <= solve_dp(inst)
        assert greedy_completion(inst, 0, 0, inst.capacity + 1) == -1


class TestSolvers:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_sequential_matches_dp(self, family, seed):
        inst = generate(18, family=family, R=60, seed=seed)
        assert solve_sequential(inst).best_profit == solve_dp(inst)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_batched_matches_dp(self, family, seed):
        inst = generate(18, family=family, R=60, seed=seed)
        r = solve_batched(inst, batch=16)
        assert r.best_profit == solve_dp(inst)
        assert r.sim_time_ns > 0
        assert r.nodes_expanded > 0

    def test_batched_batch_size_tradeoff_runs(self):
        inst = generate(20, family="weakly_correlated", R=60, seed=2)
        opt = solve_dp(inst)
        for batch in (4, 64, 256):
            assert solve_batched(inst, batch=batch).best_profit == opt

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda: TbbHeapPQ(), id="tbb"),
            pytest.param(lambda: LJSkipListPQ(cleanup_batch=16), id="ljsl"),
            pytest.param(lambda: SprayListPQ(n_threads=8), id="spray"),
        ],
    )
    def test_concurrent_matches_dp(self, make):
        inst = generate(14, family="strongly_correlated", R=40, seed=1)
        r = solve_concurrent(inst, make(), n_threads=8)
        assert r.best_profit == solve_dp(inst)
        assert r.sim_time_ns > 0

    def test_trivial_instances(self):
        # single item that fits
        inst = KnapsackInstance(np.array([10]), np.array([5]), 5)
        assert solve_sequential(inst).best_profit == 10
        assert solve_batched(inst, batch=4).best_profit == 10
        # single item that does not fit
        inst2 = KnapsackInstance(np.array([10]), np.array([50]), 5)
        assert solve_sequential(inst2).best_profit == 0
        assert solve_batched(inst2, batch=4).best_profit == 0

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_property_all_solvers_agree(self, seed):
        inst = generate(12, family="uncorrelated", R=30, seed=seed)
        opt = solve_dp(inst)
        assert solve_sequential(inst).best_profit == opt
        assert solve_batched(inst, batch=8).best_profit == opt


class TestNodePacking:
    """``solve_batched`` stores a node as one int64 (``node_widths``)."""

    def test_oversized_instance_fails_closed(self):
        inst = generate(50, R=10**9, seed=0)
        built = []

        def factory(*args):
            built.append(args)

        with pytest.raises(ConfigurationError, match="63"):
            solve_batched(inst, pq_factory=factory)
        assert not built

    def test_in_repo_instances_fit(self):
        # the perfbench pool's size: 800 items, R=1000
        inst = generate(800, "weakly_correlated", seed=1)
        lb, wb = node_widths(inst)
        assert lb + wb + int(inst.profits.sum()).bit_length() <= 50

    @given(
        family=st.sampled_from(FAMILIES),
        n=st.integers(1, 1000),
        R=st.integers(1, 10**6),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_pack_unpack_round_trip(self, family, n, R, seed, data):
        inst = generate(n, family=family, R=R, seed=seed)
        top = int(inst.profits.sum())
        bits = n.bit_length() + inst.capacity.bit_length() + top.bit_length()
        if bits > 63:
            with pytest.raises(ConfigurationError):
                node_widths(inst)
            return
        lb, wb = node_widths(inst)
        fields = st.tuples(
            st.integers(0, inst.n_items),
            st.integers(0, top),
            st.integers(0, inst.capacity),
        )
        rows = data.draw(st.lists(fields, min_size=1, max_size=8))
        # the extremes: the leaf level, a full knapsack, every profit
        rows.append((inst.n_items, top, inst.capacity))
        levels, profits, weights = (np.array(c, np.int64) for c in zip(*rows))
        nodes = pack_nodes(levels, profits, weights, lb, wb)
        assert nodes.dtype == np.int64 and np.all(nodes >= 0)
        got = unpack_nodes(nodes, lb, wb)
        for want, col in zip((levels, profits, weights), got):
            np.testing.assert_array_equal(col, want)
