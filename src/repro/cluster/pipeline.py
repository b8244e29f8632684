"""Double-buffered bulk pipelining: overlap PCIe transfer with kernels.

The paper's per-bulk accounting (Figure 16) runs the three components
back to back: signatures in, kernel, results out. With two signature
buffers on the device, the input transfer of bulk *k+1* can ride the
interconnect while the kernel of bulk *k* executes -- the classic CUDA
stream double-buffering pattern. :class:`PipelineScheduler` computes the
resulting makespan from per-bulk phase timings:

* one *compute engine* runs kernels in order (bulk generation +
  execution are device work and stay on this engine);
* one *DMA engine* (the C1060 has a single copy engine) carries both
  directions; inputs are prefetched with priority, result copies drain
  behind the next prefetch;
* ``depth`` signature buffers bound the prefetch distance: input *k*
  cannot start before kernel *k - depth* has consumed its buffer.

The scheduler is pure timing math over the phase breakdowns the
executors already produce, so it composes with any engine that returns
results carrying a :class:`~repro.gpu.costmodel.TimeBreakdown` --
:class:`~repro.core.engine.GPUTx` and
:class:`~repro.cluster.runtime.ClusterTx` alike, which is what
:func:`run_pipelined` exploits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, List, Sequence

from repro.core.executor import PHASE_TRANSFER_IN
from repro.errors import check_int
from repro.gpu.costmodel import DMA_PHASES
from repro.gpu.transfer import TransferTimeline


@dataclass(frozen=True)
class BulkTiming:
    """One bulk's pipeline-stage durations (seconds)."""

    transfer_in_s: float
    compute_s: float
    transfer_out_s: float

    @property
    def total_s(self) -> float:
        return self.transfer_in_s + self.compute_s + self.transfer_out_s

    @classmethod
    def from_result(cls, result: Any) -> "BulkTiming":
        """Extract stage timings from an execution result's breakdown.

        Everything that is not interconnect work (generation,
        execution, profiling, coordination) occupies the compute
        engine and cannot overlap with this bulk's own transfers.
        Every other :data:`~repro.gpu.costmodel.DMA_PHASES` entry --
        WAL replication, checkpoint ships, a mid-bulk migration, the
        coordinator's sync hops -- is DMA work and drains with the
        output copies.
        """
        phases = result.breakdown.phases
        t_in = phases.get(PHASE_TRANSFER_IN, 0.0)
        t_out = sum(
            seconds for phase, seconds in phases.items()
            if phase in DMA_PHASES and phase != PHASE_TRANSFER_IN
        )
        return cls(
            transfer_in_s=t_in,
            compute_s=max(0.0, result.seconds - t_in - t_out),
            transfer_out_s=t_out,
        )


@dataclass
class PipelineReport:
    """Serial vs. pipelined makespan of a bulk sequence."""

    timings: List[BulkTiming]
    serial_seconds: float
    pipelined_seconds: float
    depth: int
    #: Transfer seconds the DMA engine was busy (both directions).
    dma_busy_seconds: float = 0.0

    @property
    def speedup(self) -> float:
        if self.pipelined_seconds <= 0.0:
            return 1.0
        return self.serial_seconds / self.pipelined_seconds

    @property
    def compute_seconds(self) -> float:
        return sum(t.compute_s for t in self.timings)

    @property
    def exposed_transfer_seconds(self) -> float:
        """Transfer time the pipeline failed to hide behind kernels."""
        return max(0.0, self.pipelined_seconds - self.compute_seconds)


class PipelineScheduler:
    """Static double-buffer schedule over one DMA + one compute engine."""

    def __init__(self, depth: int = 2) -> None:
        self.depth = check_int("pipeline depth", depth, 1)

    def overlap(self, timings: Sequence[BulkTiming]) -> PipelineReport:
        """Compute the pipelined makespan of ``timings`` in order."""
        timings = list(timings)
        dma = TransferTimeline()
        compute_free = 0.0
        kernel_end: List[float] = []
        makespan = 0.0
        for k, timing in enumerate(timings):
            # Input k waits for its buffer slot (freed when the kernel
            # `depth` bulks back consumed it) and the DMA engine.
            slot_free = kernel_end[k - self.depth] if k >= self.depth else 0.0
            _, in_end = dma.schedule(timing.transfer_in_s, ready_at=slot_free)
            k_end = max(compute_free, in_end) + timing.compute_s
            compute_free = k_end
            kernel_end.append(k_end)
            # The previous bulk's results became ready at its kernel's
            # end; they drain behind this prefetch (input priority).
            if k >= 1:
                _, out_end = dma.schedule(
                    timings[k - 1].transfer_out_s, ready_at=kernel_end[k - 1]
                )
                makespan = max(makespan, out_end)
        if timings:
            _, out_end = dma.schedule(
                timings[-1].transfer_out_s, ready_at=kernel_end[-1]
            )
            makespan = max(makespan, out_end, kernel_end[-1])
        return PipelineReport(
            timings=timings,
            serial_seconds=sum(t.total_s for t in timings),
            pipelined_seconds=makespan,
            depth=self.depth,
            dma_busy_seconds=dma.busy_seconds,
        )


@dataclass
class PipelinedRunReport:
    """Results of executing a bulk sequence through a pipeline."""

    results: List[Any] = field(default_factory=list)
    pipeline: PipelineReport = None  # type: ignore[assignment]

    @property
    def executed(self) -> int:
        return sum(len(r.results) for r in self.results)

    @property
    def committed(self) -> int:
        return sum(r.committed for r in self.results)

    @property
    def seconds(self) -> float:
        return self.pipeline.pipelined_seconds

    def throughput_tps(self) -> float:
        seconds = self.seconds
        return self.executed / seconds if seconds > 0 else 0.0

    @property
    def throughput_ktps(self) -> float:
        return self.throughput_tps() / 1e3


def run_pipelined(
    engine: Any,
    bulks: Iterable[Sequence[Any]],
    *,
    strategy: str = "auto",
    depth: int = 2,
    **options: Any,
) -> PipelinedRunReport:
    """Execute ``bulks`` back to back with transfer/kernel overlap.

    ``engine`` is any bulk engine exposing ``submit_many`` and
    ``run_bulk`` whose results carry a phase breakdown -- a
    :class:`~repro.core.engine.GPUTx` or a
    :class:`~repro.cluster.runtime.ClusterTx`. Each bulk is a sequence
    of ``(type, params)`` specs (or pre-built transactions). State
    effects are identical to running the bulks serially; only the
    clock differs, because the schedule slides bulk *k+1*'s input
    transfer underneath bulk *k*'s kernels.
    """
    scheduler = PipelineScheduler(depth)
    report = PipelinedRunReport(pipeline=None)
    for bulk in bulks:
        engine.submit_many(bulk)
        report.results.append(engine.run_bulk(strategy=strategy, **options))
    timings = [BulkTiming.from_result(r) for r in report.results]
    report.pipeline = scheduler.overlap(timings)
    return report
