"""Unit tests for the hardware specifications."""

import pytest

from repro.errors import ConfigError
from repro.gpu.spec import (
    C1060,
    CPU_PRICE_USD,
    GPU_PRICE_USD,
    XEON_E5520,
    CPUSpec,
    GPUSpec,
)


class TestGPUSpec:
    def test_c1060_core_count_matches_paper(self):
        # "a NVIDIA GPU of 240 cores" (Section 1 / Appendix E).
        assert C1060.total_cores == 240
        assert C1060.num_sms == 30
        assert C1060.cores_per_sm == 8

    def test_c1060_clock_and_bandwidth_match_paper(self):
        assert C1060.clock_hz == pytest.approx(1.3e9)
        assert C1060.memory_bandwidth_bytes_per_s == pytest.approx(73e9)
        assert C1060.pcie_bandwidth_bytes_per_s == pytest.approx(3.4e9)
        assert C1060.device_memory_bytes == 4 * 1024**3

    def test_seconds_conversion(self):
        assert C1060.seconds(1.3e9) == pytest.approx(1.0)

    def test_bandwidth_share_per_sm(self):
        per_sm = C1060.bandwidth_bytes_per_cycle_per_sm
        assert per_sm == pytest.approx(73e9 / 30 / 1.3e9)

    def test_invalid_sm_count_rejected(self):
        with pytest.raises(ConfigError):
            GPUSpec(num_sms=0)

    def test_invalid_warp_size_rejected(self):
        with pytest.raises(ConfigError):
            GPUSpec(warp_size=31)

    def test_invalid_clock_rejected(self):
        with pytest.raises(ConfigError):
            GPUSpec(clock_hz=0)


class TestCPUSpec:
    def test_e5520_matches_paper(self):
        # "8MB shared L3 cache and four cores, each running at 2.26 GHz".
        assert XEON_E5520.num_cores == 4
        assert XEON_E5520.clock_hz == pytest.approx(2.26e9)
        assert XEON_E5520.l3_cache_bytes == 8 * 1024**2

    def test_invalid_core_count_rejected(self):
        with pytest.raises(ConfigError):
            CPUSpec(num_cores=0)

    def test_invalid_hit_ratio_rejected(self):
        with pytest.raises(ConfigError):
            CPUSpec(cache_hit_ratio=1.5)


class TestMachine:
    def test_paper_prices(self):
        # Section 6.3: US$1699 and US$649 (dell.com, Nov-15 2010).
        assert GPU_PRICE_USD == 1699.00
        assert CPU_PRICE_USD == 649.00

    def test_single_core_clock_ratio_supports_25_50_percent_band(self):
        # A GPU core is slower than a CPU core: clock x IPC ratio < 0.5.
        cpu_ops_per_s = XEON_E5520.clock_hz * XEON_E5520.superscalar_factor
        ratio = C1060.clock_hz / cpu_ops_per_s
        assert 0.1 < ratio < 0.5
