"""Unit tests for the GPU data-parallel primitive library."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.gpu.primitives import PrimitiveLibrary


@pytest.fixture
def lib() -> PrimitiveLibrary:
    return PrimitiveLibrary()


class TestSort:
    def test_sort_by_composite_orders_lexicographically(self, lib):
        primary = np.array([1, 0, 1, 0])
        secondary = np.array([9, 8, 1, 2])
        order, _cost = lib.sort_by_composite(primary, secondary)
        pairs = list(zip(primary[order], secondary[order]))
        assert pairs == sorted(pairs)

    def test_sort_cost_grows_with_input_and_key_bits(self, lib):
        assert lib.sort_cost(10_000) > lib.sort_cost(1_000)
        assert lib.sort_cost(1_000, key_bits=64) > lib.sort_cost(1_000, key_bits=8)


class TestRadixPartition:
    def test_zero_passes_is_identity(self, lib):
        keys = np.array([3, 1, 2, 0])
        order, cost = lib.radix_partition(keys, passes=0)
        assert order.tolist() == [0, 1, 2, 3]
        assert cost == 0.0

    def test_full_passes_fully_group(self, lib):
        rng = np.random.default_rng(0)
        keys = rng.integers(0, 16, size=100)
        order, _ = lib.radix_partition(keys, passes=1, bits_per_pass=4,
                                       key_bits=4)
        grouped = keys[order]
        # Fully grouped: equal keys are contiguous.
        changes = (np.diff(grouped) != 0).sum()
        assert changes == len(np.unique(keys)) - 1

    def test_partial_passes_group_by_high_bits(self, lib):
        keys = np.array([0b0000, 0b0111, 0b1000, 0b1111, 0b0001])
        order, _ = lib.radix_partition(keys, passes=1, bits_per_pass=1,
                                       key_bits=4)
        grouped = keys[order] >> 3
        assert grouped.tolist() == sorted(grouped.tolist())

    def test_partial_pass_is_stable_within_bucket(self, lib):
        keys = np.array([1, 0, 1, 0])
        order, _ = lib.radix_partition(keys, passes=1, bits_per_pass=1,
                                       key_bits=1)
        # Zeros first (indices 1, 3 in original order), then ones (0, 2).
        assert order.tolist() == [1, 3, 0, 2]

    def test_cost_grows_with_passes(self, lib):
        keys = np.arange(1000) % 256
        _, c1 = lib.radix_partition(keys, passes=1, key_bits=8)
        _, c2 = lib.radix_partition(keys, passes=2, key_bits=8)
        assert c2 > c1

    def test_negative_passes_rejected(self, lib):
        with pytest.raises(ConfigError):
            lib.radix_partition(np.arange(4), passes=-1)

    def test_empty_input(self, lib):
        order, cost = lib.radix_partition(np.zeros(0, dtype=np.int64), passes=2)
        assert len(order) == 0


class TestScanAndBoundaries:
    def test_group_boundaries(self, lib):
        keys = np.array([0, 0, 1, 1, 1, 5])
        starts, _ = lib.group_boundaries(keys)
        assert starts.tolist() == [0, 2, 5]

    def test_group_boundaries_empty(self, lib):
        starts, _ = lib.group_boundaries(np.zeros(0, dtype=np.int64))
        assert len(starts) == 0

    def test_group_boundaries_all_distinct(self, lib):
        starts, _ = lib.group_boundaries(np.array([1, 2, 3]))
        assert starts.tolist() == [0, 1, 2]


class TestBinarySearch:
    def test_cost_scales_with_log_haystack(self, lib):
        # Large query counts amortise the launch overhead away; the
        # remaining cost is proportional to log2(haystack).
        small = lib.binary_search_cost(10**6, 2**4)
        large = lib.binary_search_cost(10**6, 2**16)
        assert large == pytest.approx(small * 4, rel=0.1)


class TestCosts:
    def test_map_cost_bandwidth_bound_for_large_inputs(self, lib):
        n = 10**7
        expected = 2 * n * 8 / lib.spec.memory_bandwidth_bytes_per_s
        assert lib.map_cost(n) == pytest.approx(expected, rel=0.1)

    def test_all_costs_positive(self, lib):
        assert lib.map_cost(0) > 0  # at least a kernel launch
        assert lib.scan_cost(1) > 0
        assert lib.radix_pass_cost(1) > 0
        assert lib.binary_search_cost(0, 100) > 0
