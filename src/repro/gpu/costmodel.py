"""Cycle accounting for simulated kernels.

The timing model is deliberately simple and *mechanistic*: every number
it produces is the sum of effects the simulator actually observed
(instructions issued warp-by-warp, divergent groups serialised, memory
transactions after coalescing, atomic conflicts, spin iterations).

Per SM we accumulate:

* ``issue_cycles`` -- warp-instruction issue, including divergence
  serialisation and spin-lock retries;
* ``mem_transactions`` / ``mem_bytes`` -- coalesced 64 B transactions;
* ``mem_instructions`` -- warp-group memory accesses (the latency unit:
  a warp's lane requests pipeline concurrently, so an uncoalesced
  access pays bandwidth per transaction but latency only once);
* ``atomic_cycles`` -- serialisation of conflicting atomics.

An SM's time is ``max(issue, memory) + atomic``, where the memory term
is the larger of the bandwidth cost (bytes at the SM's bandwidth share)
and the latency cost (transactions x latency, divided by the number of
warps available to hide it). The kernel's time is the maximum over SMs
plus the fixed launch overhead -- i.e. the critical path, which is what
the paper repeatedly identifies as the determinant of bulk-execution
time (Sections 5.2, 6.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.gpu.spec import GPUSpec


@dataclass
class KernelStats:
    """Mutable per-kernel accounting, one slot per SM."""

    num_sms: int
    issue_cycles: List[float] = field(default_factory=list)
    mem_transactions: List[int] = field(default_factory=list)
    #: Memory *instructions* (warp-group accesses): the unit that pays
    #: latency. One instruction may produce many transactions, but the
    #: lanes' requests pipeline concurrently -- only dependent
    #: instructions stall.
    mem_instructions: List[int] = field(default_factory=list)
    mem_bytes: List[int] = field(default_factory=list)
    atomic_cycles: List[float] = field(default_factory=list)
    resident_warps: List[int] = field(default_factory=list)
    # Aggregate event counters (whole kernel).
    ops_executed: int = 0
    divergent_serializations: int = 0
    spin_iterations: int = 0
    atomic_conflicts: int = 0
    rounds: int = 0
    threads_launched: int = 0
    threads_aborted: int = 0

    def __post_init__(self) -> None:
        zeros = [0] * self.num_sms
        self.issue_cycles = [0.0] * self.num_sms
        self.mem_transactions = list(zeros)
        self.mem_instructions = list(zeros)
        self.mem_bytes = list(zeros)
        self.atomic_cycles = [0.0] * self.num_sms
        self.resident_warps = list(zeros)


@dataclass(frozen=True)
class KernelTiming:
    """Resolved timing of one kernel launch."""

    cycles: float
    seconds: float
    issue_cycles: float
    memory_cycles: float
    atomic_cycles: float
    bound: str  # "compute" | "memory"


class GpuCostModel:
    """Translates micro-op events into cycles for a given :class:`GPUSpec`."""

    def __init__(self, spec: GPUSpec) -> None:
        self.spec = spec
        # Pre-computed per-warp issue costs.
        self._warp_issue = float(spec.warp_issue_cycles)
        # A full warp of transcendentals: 32 lanes over the SM's SFUs.
        self._sfu_warp_cycles = float(spec.sfu_op_cycles * 2)

    # ------------------------------------------------------------------
    # Issue costs (charged once per divergent group per round).
    # ------------------------------------------------------------------
    def issue_plain(self) -> float:
        """Issue cost of one simple warp instruction (read/write/etc.)."""
        return self._warp_issue

    def issue_compute(self, amount: int) -> float:
        """Issue cost of ``amount`` back-to-back ALU instructions."""
        return self._warp_issue * max(1, amount)

    def issue_sfu(self, amount: int) -> float:
        """Issue cost of ``amount`` transcendental (``sinf``) calls."""
        return self._sfu_warp_cycles * max(1, amount)

    def issue_spin(self) -> float:
        """Cycles burnt by one spin-lock retry iteration."""
        return float(self.spec.spin_iteration_cycles)

    # ------------------------------------------------------------------
    # Memory and atomics.
    # ------------------------------------------------------------------
    def coalesce(self, addresses: List[int], width: int) -> int:
        """Number of memory transactions for one warp-group access.

        GT200 coalescing: the addresses touched by the group are packed
        into aligned ``memory_transaction_bytes`` segments; each distinct
        segment is one transaction.
        """
        if not addresses:
            return 0
        seg = self.spec.memory_transaction_bytes
        segments = set()
        for addr in addresses:
            first = addr // seg
            last = (addr + max(1, width) - 1) // seg
            segments.add(first)
            if last != first:
                segments.add(last)
        return len(segments)

    def coalesce_groups(
        self,
        group_idx: np.ndarray,
        addresses: np.ndarray,
        widths: np.ndarray,
        n_groups: int,
    ) -> np.ndarray:
        """Array form of :meth:`coalesce` for many warp-group accesses.

        ``group_idx`` assigns each address to a dense group id in
        ``[0, n_groups)``; ``widths`` is the per-address effective
        width (one warp-group access applies a single width to all its
        lanes, so callers broadcast the group's width). Returns the
        per-group transaction count, bit-identical to calling
        :meth:`coalesce` per group -- the vectorized execution
        backend's replay depends on that equivalence.
        """
        if len(addresses) == 0:
            return np.zeros(n_groups, dtype=np.int64)
        seg = self.spec.memory_transaction_bytes
        first = addresses // seg
        last = (addresses + np.maximum(widths, 1) - 1) // seg
        gids = np.concatenate([group_idx, group_idx])
        segs = np.concatenate([first, last])
        # Sort (group, segment) pairs -- packed into one int64 when the
        # value ranges allow (segments are bounded by the pretend
        # address space), falling back to a two-key lexsort otherwise.
        seg_bits = max(1, int(segs.max()).bit_length())
        grp_bits = max(1, int(n_groups).bit_length())
        if segs.min() >= 0 and seg_bits + grp_bits <= 62:
            packed = np.sort((gids.astype(np.int64) << seg_bits) | segs)
            fresh = np.ones(len(packed), dtype=bool)
            if len(packed) > 1:
                fresh[1:] = packed[1:] != packed[:-1]
            return np.bincount(packed[fresh] >> seg_bits, minlength=n_groups)
        order = np.lexsort((segs, gids))
        g, s = gids[order], segs[order]
        fresh = np.ones(len(g), dtype=bool)
        if len(g) > 1:
            fresh[1:] = (g[1:] != g[:-1]) | (s[1:] != s[:-1])
        return np.bincount(g[fresh], minlength=n_groups)

    def atomic_serialization(self, conflicts: int) -> float:
        """Extra cycles when ``conflicts`` lanes hit the same address."""
        if conflicts <= 1:
            return 0.0
        return float((conflicts - 1) * self.spec.atomic_serialize_cycles)

    # ------------------------------------------------------------------
    # Kernel resolution.
    # ------------------------------------------------------------------
    def resolve(self, stats: KernelStats) -> KernelTiming:
        """Collapse per-SM accounting into the kernel's critical path."""
        spec = self.spec
        bw_per_cycle = spec.bandwidth_bytes_per_cycle_per_sm
        worst = 0.0
        worst_parts = (0.0, 0.0, 0.0)
        bound = "compute"
        for sm, resident in enumerate(stats.resident_warps):
            if not resident:
                continue  # no warp placed: nothing was charged here
            issue = stats.issue_cycles[sm]
            bw_cycles = stats.mem_bytes[sm] / bw_per_cycle if bw_per_cycle else 0.0
            hiding = max(1, min(resident, spec.latency_hiding_warps))
            lat_cycles = (
                stats.mem_instructions[sm] * spec.memory_latency_cycles / hiding
            )
            mem = max(bw_cycles, lat_cycles)
            total = max(issue, mem) + stats.atomic_cycles[sm]
            if total > worst:
                worst = total
                worst_parts = (issue, mem, stats.atomic_cycles[sm])
                bound = "memory" if mem > issue else "compute"
        seconds = spec.seconds(worst) + spec.kernel_launch_overhead_s
        return KernelTiming(
            cycles=worst,
            seconds=seconds,
            issue_cycles=worst_parts[0],
            memory_cycles=worst_parts[1],
            atomic_cycles=worst_parts[2],
            bound=bound,
        )


#: Breakdown phases that ride the interconnect (DMA) rather than the
#: device: the input and output copies, WAL replication, checkpoint
#: ships, a mid-bulk migration and the cross-shard coordinator's sync
#: hops. The pipeline slides the outbound ones under the next bulk's
#: kernels, the serve metrics count them as transfer and the trace
#: exporter lays them on the DMA track.
DMA_PHASES = frozenset(
    {"transfer_in", "transfer_out", "wal_sync", "checkpoint", "migration",
     "sync"}
)


@dataclass
class TimeBreakdown:
    """Named phase timings for a bulk execution (Figures 5, 12, 17)."""

    phases: Dict[str, float] = field(default_factory=dict)

    def add(self, phase: str, seconds: float) -> None:
        self.phases[phase] = self.phases.get(phase, 0.0) + seconds

    @property
    def total(self) -> float:
        return sum(self.phases.values())

    def fraction(self, phase: str) -> float:
        """Share of ``phase`` in the total (0 when nothing was timed)."""
        total = self.total
        if total <= 0.0:
            return 0.0
        return self.phases.get(phase, 0.0) / total
