"""The simulated GPU substrate (SIMT engine, cost model, primitives).

This package substitutes for CUDA on the paper's NVIDIA Tesla C1060 --
see "Deviations from the paper" in docs/ARCHITECTURE.md for the
rationale. It never imports from the rest of the library, so it can be
reused standalone.
"""

from repro.gpu import ops
from repro.gpu.atomics import LockTable
from repro.gpu.costmodel import GpuCostModel, KernelStats, KernelTiming, TimeBreakdown
from repro.gpu.memory import DeviceStore
from repro.gpu.primitives import PrimitiveLibrary
from repro.gpu.simt import KernelReport, SIMTEngine, ThreadOutcome, ThreadTask
from repro.gpu.spec import (
    C1060,
    CPU_PRICE_USD,
    GPU_PRICE_USD,
    XEON_E5520,
    CPUSpec,
    GPUSpec,
)
from repro.gpu.transfer import PCIeModel, TransferLedger

__all__ = [
    "ops",
    "LockTable",
    "GpuCostModel",
    "KernelStats",
    "KernelTiming",
    "TimeBreakdown",
    "DeviceStore",
    "PrimitiveLibrary",
    "KernelReport",
    "SIMTEngine",
    "ThreadOutcome",
    "ThreadTask",
    "C1060",
    "XEON_E5520",
    "CPUSpec",
    "GPUSpec",
    "GPU_PRICE_USD",
    "CPU_PRICE_USD",
    "PCIeModel",
    "TransferLedger",
]
