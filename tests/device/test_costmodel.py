"""Tests for the cost models: monotonicity and structural properties.

These tests pin down the *shape* of the model (what grows with what),
not absolute constants — the constants are calibration parameters.
"""

import pytest

from repro.device import CpuCostModel, GpuCostModel, LaunchConfig, TITAN_X, XEON_E7_4870


@pytest.fixture
def gpu():
    return GpuCostModel(TITAN_X, LaunchConfig(128, 512))


@pytest.fixture
def cpu():
    return CpuCostModel(XEON_E7_4870)


class TestGpuModel:
    def test_sort_cost_grows_with_n(self, gpu):
        assert gpu.bitonic_sort_ns(1024) > gpu.bitonic_sort_ns(256) > 0

    def test_sort_of_one_is_free(self, gpu):
        assert gpu.bitonic_sort_ns(1) == 0.0
        assert gpu.bitonic_sort_ns(0) == 0.0

    def test_bitonic_charges_55_stages_for_1024_keys(self, gpu):
        # log2(1024) * (log2(1024) + 1) / 2 = 55 stages, each n/2
        # compare-exchanges over the 512 lanes plus one block sync;
        # 1000 keys pad to the same 1024-key network
        per_stage = gpu._elem_ns() + gpu.block_sync_ns()
        assert gpu.bitonic_sort_ns(1024) == 55 * per_stage
        assert gpu.bitonic_sort_ns(1000) == gpu.bitonic_sort_ns(1024)

    def test_wider_blocks_speed_up_large_sorts(self):
        narrow = GpuCostModel(TITAN_X, LaunchConfig(128, 32))
        wide = GpuCostModel(TITAN_X, LaunchConfig(128, 512))
        assert wide.bitonic_sort_ns(4096) < narrow.bitonic_sort_ns(4096)

    def test_block_sync_grows_with_block_size(self):
        small = GpuCostModel(TITAN_X, LaunchConfig(128, 128))
        big = GpuCostModel(TITAN_X, LaunchConfig(128, 1024))
        assert big.block_sync_ns() > small.block_sync_ns()

    def test_coalesced_beats_uncoalesced(self, gpu):
        n = 1024
        assert gpu.global_read_ns(n, coalesced=True) < gpu.global_read_ns(n, coalesced=False)

    def test_zero_items_free(self, gpu):
        assert gpu.global_read_ns(0) == 0.0
        assert gpu.shared_pass_ns(0) == 0.0

    def test_merge_cost_scales(self, gpu):
        assert gpu.merge_ns(1024, 1024) > gpu.merge_ns(128, 128)

    def test_sort_split_at_least_merge(self, gpu):
        assert gpu.sort_split_ns(1024, 1024) >= gpu.merge_ns(1024, 1024)

    def test_merge_cheaper_than_sort(self, gpu):
        # merging two sorted 1K runs must beat re-sorting 2K keys —
        # this is why BGPQ merges nodes instead of re-sorting them
        assert gpu.merge_ns(1024, 1024) < gpu.bitonic_sort_ns(2048)

    def test_node_sort_split_includes_memory(self, gpu):
        with_mem = gpu.node_sort_split_ns(1024, 1024, from_global=True)
        without = gpu.node_sort_split_ns(1024, 1024, from_global=False)
        assert with_mem > without

    def test_kernel_barrier_dwarfs_block_sync(self, gpu):
        # grid-wide sync is orders of magnitude above __syncthreads —
        # the effect that sinks P-Sync
        assert gpu.kernel_barrier_ns() > 10 * gpu.block_sync_ns()


class TestCpuModel:
    def test_heap_percolate_linear_in_depth(self, cpu):
        assert cpu.heap_percolate_ns(20) == pytest.approx(2 * cpu.heap_percolate_ns(10))

    def test_pointer_chase_linear_in_hops(self, cpu):
        assert cpu.list_hops_ns(30) == pytest.approx(30 * cpu.spec.cache_miss_ns)

    def test_contended_atomic_costs_more(self, cpu):
        assert cpu.atomic_ns(contended=True) > cpu.atomic_ns(contended=False)

    def test_hot_line_costs_more_than_cold(self, cpu):
        assert cpu.hot_line_ns() > cpu.cache_hit_ns if hasattr(cpu, "cache_hit_ns") else True
        assert cpu.hot_line_ns() > cpu.op_ns()

    def test_stream_cheaper_than_misses(self, cpu):
        n = 1024
        assert cpu.stream_ns(n) < cpu.cache_miss_ns(n)


class TestCrossPlatform:
    def test_gpu_batch_op_beats_cpu_per_key_work(self, gpu, cpu):
        """The central premise: one cooperative SORT_SPLIT on a 1K-key
        batch costs far less than 1K sequential CPU heap updates."""
        gpu_batch = gpu.node_sort_split_ns(1024, 1024)
        cpu_keys = 1024 * cpu.heap_percolate_ns(20)
        assert gpu_batch < cpu_keys / 10


class TestMemoization:
    """The charging methods are lru_cache'd with a cached instance hash;
    heapify loops call them millions of times with a handful of shapes."""

    def test_repeated_lookups_hit_the_cache(self, gpu):
        gpu.node_sort_split_ns.cache_clear()
        before = gpu.node_sort_split_ns.cache_info().hits
        first = gpu.node_sort_split_ns(512, 512)
        for _ in range(5):
            assert gpu.node_sort_split_ns(512, 512) == first
        assert gpu.node_sort_split_ns.cache_info().hits >= before + 5

    def test_instance_hash_is_cached_and_stable(self, gpu, cpu):
        assert hash(gpu) == hash(gpu)
        assert hash(cpu) == hash(cpu)
        # equal models (same spec/launch) must still hash equal
        twin = GpuCostModel(TITAN_X, LaunchConfig(128, 512))
        assert twin == gpu and hash(twin) == hash(gpu)

    def test_distinct_models_do_not_share_entries(self):
        # same (n,) argument, different instances: the cache is keyed by
        # the model too, so each sees its own launch shape
        narrow = GpuCostModel(TITAN_X, LaunchConfig(128, 32))
        wide = GpuCostModel(TITAN_X, LaunchConfig(128, 512))
        assert narrow.bitonic_sort_ns(1024) != wide.bitonic_sort_ns(1024)

    def test_cpu_stream_memoized(self, cpu):
        v = cpu.stream_ns(4096)
        assert cpu.stream_ns(4096) == v
        assert cpu.stream_ns.cache_info().hits >= 1
