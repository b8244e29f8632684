"""PCIe transfer model between host and device memory.

The paper's throughput measurements include the transfer of transaction
signatures to the device and results back (Section 6.1 / Appendix E),
and Figure 16 breaks the three components out: one-off initialization
(tables + indexes), per-bulk input, per-bulk output -- the latter two
contributing less than 5 % of execution time. This module provides that
accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.gpu.spec import C1060, GPUSpec


@dataclass
class TransferLedger:
    """Accumulated host<->device traffic, by component."""

    bytes_by_component: Dict[str, int] = field(default_factory=dict)
    seconds_by_component: Dict[str, float] = field(default_factory=dict)

    def record(self, component: str, nbytes: int, seconds: float) -> None:
        self.bytes_by_component[component] = (
            self.bytes_by_component.get(component, 0) + nbytes
        )
        self.seconds_by_component[component] = (
            self.seconds_by_component.get(component, 0.0) + seconds
        )


@dataclass
class TransferTimeline:
    """Busy timeline of one DMA engine, for overlap scheduling.

    The pipeline scheduler (``repro.cluster.pipeline``) lays bulk
    transfers onto this timeline in queue order: a transfer starts as
    soon as the engine is free *and* its payload is ready, so copies of
    bulk *k+1* slide underneath kernel *k* whenever the interconnect is
    idle. ``busy_seconds`` accumulates pure transfer time, which lets
    callers report how much of it the pipeline managed to hide.
    """

    busy_until: float = 0.0
    busy_seconds: float = 0.0

    def schedule(self, seconds: float, ready_at: float = 0.0) -> "tuple[float, float]":
        """Queue one transfer; returns its (start, end) instants."""
        start = max(self.busy_until, ready_at)
        if seconds <= 0.0:
            return start, start
        end = start + seconds
        self.busy_until = end
        self.busy_seconds += seconds
        return start, end


class PCIeModel:
    """Latency + bandwidth model of the host-device interconnect."""

    def __init__(self, spec: GPUSpec = C1060) -> None:
        self.spec = spec
        self.ledger = TransferLedger()

    def timeline(self) -> TransferTimeline:
        """A fresh DMA timeline over this link (overlap scheduling)."""
        return TransferTimeline()

    def transfer_seconds(self, nbytes: int) -> float:
        """Time for one DMA of ``nbytes`` in either direction."""
        if nbytes <= 0:
            return 0.0
        return self.spec.pcie_latency_s + nbytes / self.spec.pcie_bandwidth_bytes_per_s

    def to_device(self, nbytes: int, component: str = "input") -> float:
        seconds = self.transfer_seconds(nbytes)
        self.ledger.record(component, nbytes, seconds)
        return seconds

    def to_host(self, nbytes: int, component: str = "output") -> float:
        seconds = self.transfer_seconds(nbytes)
        self.ledger.record(component, nbytes, seconds)
        return seconds

    def to_peer(self, nbytes: int, component: str = "replication") -> float:
        """One DMA to a peer device (replica feed, checkpoint ship).

        Peer copies ride the same interconnect as host<->device
        traffic, so they share the latency/bandwidth model; the
        separate ledger component keeps durability traffic visible in
        the per-bulk accounting.
        """
        return self.to_device(nbytes, component=component)

    def initialize(self, nbytes: int) -> float:
        """One-off load of tables and indexes into device memory."""
        return self.to_device(nbytes, component="initialization")
