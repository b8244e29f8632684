"""End-to-end latency accounting for the online ingest runtime.

Every transaction of a bulk shares the bulk's start, finish, execution
and transfer seconds; only its arrival time is its own. So the server
keeps one :class:`BulkLatency` per executed bulk -- a ``submit_s``
array plus four scalars -- and never a record per transaction. The
server aggregates these into a :class:`LatencySummary` -- percentiles
per component (queue wait, execution, transfer, total) -- which is the
"latency breakdown" the README documents: queue wait is the
admission-to-bulk-start share (the bulk former's knob), execution and
transfer are the engine-side shares every transaction of a bulk pays
together.

Percentile math is the telemetry layer's single shared implementation
(:func:`repro.telemetry.metrics.summarize`, which
:class:`~repro.telemetry.metrics.Histogram` also reads through), so
the serving report and a trace's metrics snapshot can never disagree
about what "p95" means.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Sequence

import numpy as np

from repro.gpu.costmodel import DMA_PHASES, TimeBreakdown
from repro.telemetry.metrics import percentile as percentile  # noqa: PLC0414
from repro.telemetry.metrics import summarize
# (``percentile`` is re-exported: this module's is, and must remain, the
# telemetry registry's -- one definition of a percentile repo-wide.)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing
    from repro.serve.admission import AdmissionStats

#: Component keys of the latency breakdown.
QUEUE, EXECUTION, TRANSFER, TOTAL = "queue", "execution", "transfer", "total"


class BulkLatency(NamedTuple):
    """End-to-end timings of one executed bulk's transactions, in
    result order: their own arrival times, the seconds they share."""

    submit_s: np.ndarray
    start_s: float
    finish_s: float
    exec_s: float
    transfer_s: float
    #: Originating tenant per transaction ("" = untenanted), carried
    #: from admission so the report can split percentiles per tenant;
    #: None when admission has seen no tenant.
    tenants: Optional[np.ndarray] = None

    def component(self, name: str) -> np.ndarray:
        if name == QUEUE:
            # Admission to bulk start: the wait the former controls.
            return self.start_s - self.submit_s
        if name == EXECUTION:
            return np.full(len(self.submit_s), self.exec_s)
        if name == TRANSFER:
            return np.full(len(self.submit_s), self.transfer_s)
        if name == TOTAL:
            return self.finish_s - self.submit_s
        raise KeyError(name)


@dataclass(frozen=True)
class Percentiles:
    """Summary of one latency component (seconds)."""

    mean: float
    p50: float
    p95: float
    p99: float
    max: float

    @classmethod
    def of(cls, values: Sequence[float]) -> "Percentiles":
        """Summarise a column of seconds: shared telemetry math, one sort."""
        summary = summarize(values)
        return cls(**{name: summary[name] for name in cls.__dataclass_fields__})


@dataclass
class LatencySummary:
    """Per-component percentiles over every executed transaction.

    Also surfaces what the percentiles *exclude*: arrivals shed by
    admission control never execute, so a latency distribution quoted
    without its shed count can look better under overload, not worse.
    """

    count: int
    components: Dict[str, Percentiles] = field(default_factory=dict)
    #: Arrivals rejected by admission control (never executed, so
    #: absent from every percentile above).
    shed: int = 0

    @classmethod
    def of(
        cls,
        latencies: Sequence[BulkLatency],
        admission: "Optional[AdmissionStats]" = None,
    ) -> "LatencySummary":
        # (no bulks = one empty bulk: every component summarises to zeros)
        bulks = latencies or [BulkLatency(np.empty(0), 0.0, 0.0, 0.0, 0.0)]
        components = {
            name: Percentiles.of(np.concatenate([b.component(name) for b in bulks]))
            for name in (QUEUE, EXECUTION, TRANSFER, TOTAL)
        }
        count = sum(len(b.submit_s) for b in bulks)
        summary = cls(count=count, components=components)
        if admission is not None:
            summary.shed = admission.rejected
        return summary

    @property
    def shed_rate(self) -> float:
        """Shed arrivals as a share of everything that asked to run."""
        asked = self.count + self.shed
        return self.shed / asked if asked else 0.0

    def __getitem__(self, name: str) -> Percentiles:
        return self.components[name]

    @property
    def p95_total_s(self) -> float:
        return self.components[TOTAL].p95 if self.components else 0.0


def tenant_summaries(
    latencies: Sequence[BulkLatency],
    admission: "Optional[AdmissionStats]" = None,
) -> Dict[str, LatencySummary]:
    """Per-tenant :class:`LatencySummary` over tenanted transactions.

    Tenants that only ever got shed (every arrival rejected) still
    appear, with ``count=0`` -- an isolation report that silently
    dropped the tenant it throttled would hide exactly the behaviour
    it exists to show.
    """
    groups: Dict[str, List[BulkLatency]] = {}
    for bulk in latencies:
        if bulk.tenants is None:
            continue
        for tenant in np.unique(bulk.tenants).tolist():
            if tenant:
                mine = bulk.submit_s[bulk.tenants == tenant]
                groups.setdefault(tenant, []).append(
                    bulk._replace(submit_s=mine, tenants=None)
                )
    tenants = set(groups)
    if admission is not None:
        tenants.update(admission.rejected_by_tenant)
    out: Dict[str, LatencySummary] = {}
    for tenant in sorted(tenants):
        summary = LatencySummary.of(groups.get(tenant, []))
        if admission is not None:
            summary.shed = admission.rejected_by_tenant.get(tenant, 0)
        out[tenant] = summary
    return out


def split_service(breakdown: TimeBreakdown) -> "tuple[float, float]":
    """Split one bulk's service seconds into (execution, transfer).

    "Execution" is every device-side phase (generation, kernels,
    profiling, coordination); "transfer" is the interconnect share --
    input/output copies plus durability traffic when enabled.
    """
    transfer = sum(
        seconds
        for phase, seconds in breakdown.phases.items()
        if phase in DMA_PHASES
    )
    return max(0.0, breakdown.total - transfer), transfer
