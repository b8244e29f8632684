"""Hardware specifications for the simulated devices.

The paper (Appendix E) evaluates on one NVIDIA Tesla C1060 GPU and one
Intel Xeon E5520 CPU. These dataclasses carry the published parameters
of both parts plus the handful of micro-architectural constants the
cost model needs (instruction issue width, memory transaction size,
atomic serialisation cost). One parameter set drives *every*
experiment -- there are no per-figure fudge factors.

Sources for the numbers:

* C1060: 30 SMs x 8 SPs = 240 cores at 1.3 GHz, 4 GB GDDR3; the paper
  measures 73 GB/s device bandwidth and 3.4 GB/s PCIe bandwidth.
* E5520: 4 cores at 2.26 GHz, 8 MB shared L3; ~25.6 GB/s peak memory
  bandwidth (3 channels DDR3-1066).
* Warp size 32 and 4-cycle warp issue (32 lanes over 8 SPs) are the
  GT200 architecture's published figures.
* The paper reports a single GPU core achieves 25-50 % of the
  throughput of a single CPU core (Section 6.3); with the clock ratio
  1.3/2.26 and a superscalar factor of 2 for the Nehalem core the model
  lands at ~0.29, inside that band.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass(frozen=True)
class GPUSpec:
    """Parameters of a simulated GPU.

    The defaults describe the NVIDIA Tesla C1060 used in the paper.
    """

    name: str = "NVIDIA Tesla C1060"
    num_sms: int = 30
    cores_per_sm: int = 8
    clock_hz: float = 1.3e9
    warp_size: int = 32
    device_memory_bytes: int = 4 * 1024**3
    #: Measured device-memory bandwidth (paper, Appendix E).
    memory_bandwidth_bytes_per_s: float = 73e9
    #: Measured PCIe bandwidth between host and device (paper, App. E).
    pcie_bandwidth_bytes_per_s: float = 3.4e9
    #: One-way latency charged per host<->device transfer call.
    pcie_latency_s: float = 15e-6
    #: Fixed kernel launch overhead (driver + dispatch), seconds.
    kernel_launch_overhead_s: float = 8e-6
    #: Size of one coalesced memory transaction (GT200 segment), bytes.
    memory_transaction_bytes: int = 64
    #: Issue cycles for one warp instruction (32 lanes over 8 SPs).
    warp_issue_cycles: int = 4
    #: Extra cycles to serialise one conflicting atomic to an address.
    atomic_serialize_cycles: int = 36
    #: Cycles burnt by one iteration of a spin-lock retry loop: the
    #: volatile read of the lock word goes to device memory every time
    #: (GT200 has no coherent cache), so a retry costs a full memory
    #: round trip.
    spin_iteration_cycles: int = 300
    #: Cycles for one transcendental (sinf) on the SFU.
    sfu_op_cycles: int = 8
    #: Maximum thread blocks resident per SM (occupancy ceiling).
    max_blocks_per_sm: int = 8
    #: Device-memory access latency (GT200 has no general L2 cache).
    memory_latency_cycles: int = 300
    #: Resident warps needed on an SM to fully hide memory latency.
    latency_hiding_warps: int = 16
    #: Pipeline cycles per dependent scalar op when a single thread
    #: runs alone (the ad-hoc baseline). One micro-op expands to ~5-10
    #: machine instructions; a lone thread pays the full ~24-cycle
    #: dependent-issue latency for each, with nothing to overlap --
    #: which is exactly why a single GPU core loses to a CPU core
    #: (Section 6.3).
    serial_op_overhead_cycles: int = 128

    def __post_init__(self) -> None:
        if self.num_sms <= 0 or self.cores_per_sm <= 0:
            raise ConfigError("GPU must have positive SM/core counts")
        if self.warp_size <= 0 or self.warp_size % 2:
            raise ConfigError("warp size must be a positive even number")
        if self.clock_hz <= 0:
            raise ConfigError("clock must be positive")

    @property
    def total_cores(self) -> int:
        """Total scalar cores (SMs x cores per SM): 240 on the C1060."""
        return self.num_sms * self.cores_per_sm

    @property
    def bandwidth_bytes_per_cycle_per_sm(self) -> float:
        """Device bandwidth share of one SM, in bytes per clock cycle."""
        per_sm = self.memory_bandwidth_bytes_per_s / self.num_sms
        return per_sm / self.clock_hz

    def seconds(self, cycles: float) -> float:
        """Convert a cycle count on this device to seconds."""
        return cycles / self.clock_hz


@dataclass(frozen=True)
class CPUSpec:
    """Parameters of the simulated CPU counterpart.

    Defaults describe the Intel Xeon E5520 from the paper. The
    ``superscalar_factor`` folds out-of-order multi-issue into a single
    effective-IPC multiplier, which is the right granularity for an
    op-stream cost model.
    """

    name: str = "Intel Xeon E5520"
    num_cores: int = 4
    clock_hz: float = 2.26e9
    #: Effective instructions per cycle relative to one GPU SP lane.
    superscalar_factor: float = 2.0
    memory_bandwidth_bytes_per_s: float = 25.6e9
    l3_cache_bytes: int = 8 * 1024**2
    #: Average cycles for a cache-missing random access.
    memory_latency_cycles: int = 200
    #: Fraction of random accesses served by the cache hierarchy
    #: (OLTP working sets far exceed the 8 MB L3).
    cache_hit_ratio: float = 0.4
    #: Per-transaction dispatch overhead, cycles (H-Store-style engine:
    #: queue pop, stored-procedure call, commit bookkeeping).
    txn_dispatch_cycles: int = 1000

    def __post_init__(self) -> None:
        if self.num_cores <= 0:
            raise ConfigError("CPU must have a positive core count")
        if not 0.0 <= self.cache_hit_ratio <= 1.0:
            raise ConfigError("cache_hit_ratio must be within [0, 1]")

    def seconds(self, cycles: float) -> float:
        """Convert a cycle count on this device to seconds."""
        return cycles / self.clock_hz


#: The exact devices used in the paper's evaluation (Appendix E).
C1060 = GPUSpec()
XEON_E5520 = CPUSpec()

#: Unit prices used for the cost-efficiency comparison (Section 6.3,
#: quoted from dell.com, Nov-15 2010).
GPU_PRICE_USD = 1699.00
CPU_PRICE_USD = 649.00
