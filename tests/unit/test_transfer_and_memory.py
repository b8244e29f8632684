"""Unit tests for the PCIe transfer model."""

import pytest

from repro.gpu.spec import C1060
from repro.gpu.transfer import PCIeModel


class TestPCIeModel:
    def test_transfer_time_is_latency_plus_bandwidth(self):
        pcie = PCIeModel()
        nbytes = 10**6
        expected = C1060.pcie_latency_s + nbytes / C1060.pcie_bandwidth_bytes_per_s
        assert pcie.transfer_seconds(nbytes) == pytest.approx(expected)

    def test_zero_bytes_is_free(self):
        assert PCIeModel().transfer_seconds(0) == 0.0

    def test_ledger_accumulates_by_component(self):
        pcie = PCIeModel()
        pcie.to_device(1000, component="input")
        pcie.to_device(2000, component="input")
        pcie.to_host(500, component="output")
        pcie.initialize(10**6)
        ledger = pcie.ledger
        assert ledger.bytes_by_component["input"] == 3000
        assert ledger.bytes_by_component["output"] == 500
        assert ledger.bytes_by_component["initialization"] == 10**6
        assert all(s > 0 for s in ledger.seconds_by_component.values())

    def test_initialization_dwarfs_per_bulk_input(self):
        # Figure 16's shape: initialization >> input/output per bulk.
        pcie = PCIeModel()
        init = pcie.initialize(500 * 2**20)   # 500 MB of tables+indexes
        inp = pcie.to_device(64 * 2**10)      # 64 KB of signatures
        assert init > 100 * inp
