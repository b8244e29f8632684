"""Unit tests for the GPU cost model (cycle accounting + coalescing)."""

import inspect
import typing

import numpy as np
import pytest

from repro.gpu.costmodel import GpuCostModel, KernelStats, TimeBreakdown
from repro.gpu.spec import C1060, GPUSpec


@pytest.fixture
def cost() -> GpuCostModel:
    return GpuCostModel(C1060)


class TestCoalescing:
    def test_contiguous_addresses_coalesce_into_few_transactions(self, cost):
        # 32 consecutive 8-byte words = 256 bytes = 4 x 64 B segments.
        addrs = [i * 8 for i in range(32)]
        assert cost.coalesce(addrs, 8) == 4

    def test_strided_addresses_do_not_coalesce(self, cost):
        # Row-store stride of 256 B: every lane hits its own segment.
        addrs = [i * 256 for i in range(32)]
        assert cost.coalesce(addrs, 8) == 32

    def test_same_address_is_one_transaction(self, cost):
        assert cost.coalesce([64] * 32, 8) == 1

    def test_value_spanning_segment_boundary_costs_two(self, cost):
        assert cost.coalesce([60], 8) == 2

    def test_empty_access_is_free(self, cost):
        assert cost.coalesce([], 8) == 0

    def test_empty_group_access_is_free_too(self, cost):
        # Used to die in ``segs.min()``: "zero-size array to reduction
        # operation minimum which has no identity".
        empty = np.zeros(0, dtype=np.int64)
        ntx = cost.coalesce_groups(empty, empty, empty, 3)
        assert ntx.dtype == np.int64
        assert ntx.tolist() == [0, 0, 0]
        assert cost.coalesce_groups(empty, empty, empty, 0).tolist() == []

    def test_groups_without_an_access_count_zero(self, cost):
        # Group ids need not be dense: ids 1 and 3 of 5 touch memory.
        ntx = cost.coalesce_groups(
            np.array([1, 1, 3]), np.array([0, 64, 60]), np.array([8, 8, 8]), 5
        )
        assert ntx.tolist() == [0, 2, 0, 2, 0]

    def test_array_form_names_numpy_at_module_level(self):
        # The annotations were strings naming a function-local import
        # (executed on every call); they resolve now.
        hints = typing.get_type_hints(GpuCostModel.coalesce_groups)
        assert hints["addresses"] is np.ndarray
        assert hints["return"] is np.ndarray
        assert "import" not in inspect.getsource(GpuCostModel.coalesce_groups)


class TestIssueCosts:
    def test_plain_issue_is_warp_issue_cycles(self, cost):
        assert cost.issue_plain() == C1060.warp_issue_cycles

    def test_compute_scales_with_amount(self, cost):
        assert cost.issue_compute(10) == 10 * C1060.warp_issue_cycles
        assert cost.issue_compute(0) == C1060.warp_issue_cycles  # min 1

    def test_sfu_more_expensive_than_alu(self, cost):
        assert cost.issue_sfu(100) > cost.issue_compute(100)

    def test_atomic_serialization_scales_with_conflicts(self, cost):
        assert cost.atomic_serialization(1) == 0.0
        assert cost.atomic_serialization(5) == pytest.approx(
            4 * C1060.atomic_serialize_cycles
        )


class TestResolve:
    def test_critical_path_is_max_over_sms(self, cost):
        stats = KernelStats(num_sms=C1060.num_sms)
        stats.issue_cycles[0] = 1000.0
        stats.issue_cycles[1] = 5000.0
        stats.resident_warps[0] = stats.resident_warps[1] = 1
        timing = cost.resolve(stats)
        assert timing.cycles == pytest.approx(5000.0)
        assert timing.bound == "compute"

    def test_memory_bound_kernel(self, cost):
        stats = KernelStats(num_sms=C1060.num_sms)
        stats.issue_cycles[0] = 10.0
        stats.mem_bytes[0] = 10**6
        stats.mem_transactions[0] = 10**6 // 64
        stats.mem_instructions[0] = 10**6 // 64
        stats.resident_warps[0] = 64
        timing = cost.resolve(stats)
        assert timing.bound == "memory"
        assert timing.cycles > 10.0

    def test_latency_hiding_reduces_memory_cost(self, cost):
        def mem_cycles(warps: int) -> float:
            stats = KernelStats(num_sms=C1060.num_sms)
            stats.mem_transactions[0] = 1000
            stats.mem_instructions[0] = 1000
            stats.mem_bytes[0] = 1000 * 64
            stats.resident_warps[0] = warps
            return cost.resolve(stats).cycles

        assert mem_cycles(1) > mem_cycles(8) > mem_cycles(16)
        # Beyond the hiding cap more warps do not help.
        assert mem_cycles(16) == pytest.approx(mem_cycles(64))

    def test_launch_overhead_included(self, cost):
        stats = KernelStats(num_sms=C1060.num_sms)
        timing = cost.resolve(stats)
        assert timing.seconds == pytest.approx(C1060.kernel_launch_overhead_s)

    def test_atomic_cycles_additive(self, cost):
        stats = KernelStats(num_sms=C1060.num_sms)
        stats.issue_cycles[0] = 100.0
        stats.atomic_cycles[0] = 50.0
        stats.resident_warps[0] = 1
        assert cost.resolve(stats).cycles == pytest.approx(150.0)


class TestTimeBreakdown:
    def test_add_and_total(self):
        td = TimeBreakdown()
        td.add("sort", 0.2)
        td.add("execution", 0.8)
        td.add("sort", 0.1)
        assert td.total == pytest.approx(1.1)
        assert td.fraction("sort") == pytest.approx(0.3 / 1.1)

    def test_fraction_of_empty_breakdown_is_zero(self):
        assert TimeBreakdown().fraction("anything") == 0.0
