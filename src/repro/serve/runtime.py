"""ServeRuntime: the streaming front half of the bulk execution model.

The paper hands the GPU fully formed bulks; this runtime builds them
from an open-ended arrival stream under a latency SLO, closing the gap
between ``simulate_arrivals``' fixed-interval replay and a server:

* arrivals flow through an :class:`~repro.serve.admission.AdmissionController`
  (bounded queues, per-shard backpressure under sharding) into the
  backend's transaction pool -- in arrival order, so pool ids (the
  Definition-1 timestamps) respect the stream;
* a :class:`~repro.serve.controller.BulkFormer` decides each cut: when
  the queue reaches its target size, when the oldest admitted
  transaction has waited its budget, or when the stream runs dry
  (shutdown drains the queue completely);
* each bulk executes through the backend's ``execute_bulk`` -- a
  single-device :class:`~repro.core.engine.GPUTx` or a sharded
  :class:`~repro.cluster.runtime.ClusterTx`, whose wave machinery
  keeps timestamp order within and across bulks;
* observed wave times feed back into the former's size controller,
  and every executed bulk gets an end-to-end
  :class:`~repro.serve.metrics.BulkLatency` (queue wait + execution +
  transfer), summarised as percentiles in the final report.

The clock is simulated, like everything else in this reproduction:
arrival times come from the stream, service times from the engine's
cost models.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

import numpy as np

import repro.telemetry as telemetry
from repro.core.engine import validate_strategy_options
from repro.core.txn import TransactionColumns
from repro.errors import ServeError
from repro.gpu.costmodel import TimeBreakdown
from repro.serve.admission import AdmissionController, AdmissionStats
from repro.serve.controller import AdaptiveBulkFormer, BulkFormer
from repro.serve.metrics import (
    TOTAL,
    BulkLatency,
    LatencySummary,
    Percentiles,
    split_service,
    tenant_summaries,
)
from repro.serve.stream import ArrivalLike, ArrivalStream


@dataclass
class BulkTrace:
    """One executed bulk, as the server saw it."""

    start_s: float
    seconds: float
    size: int
    executed: int
    target: int
    strategy: str


@dataclass
class ServeReport:
    """Outcome of serving one arrival stream to completion."""

    former: str
    executed: int = 0
    committed: int = 0
    aborted: int = 0
    elapsed_s: float = 0.0
    #: Simulated seconds the device(s) were busy executing bulks.
    busy_s: float = 0.0
    latency: LatencySummary = field(
        default_factory=lambda: LatencySummary(count=0)
    )
    admission: AdmissionStats = field(default_factory=AdmissionStats)
    breakdown: TimeBreakdown = field(default_factory=TimeBreakdown)
    bulks: List[BulkTrace] = field(default_factory=list)
    #: Live shard migrations performed between bulks (elastic clusters;
    #: :class:`~repro.cluster.elastic.MigrationReport` entries).
    migrations: List[Any] = field(default_factory=list)
    #: Per-tenant latency summaries (tenanted arrivals only; see
    #: :func:`~repro.serve.metrics.tenant_summaries`).
    tenants: Dict[str, LatencySummary] = field(default_factory=dict)

    @property
    def sustained_tps(self) -> float:
        """Executed transactions per second over the serving horizon
        (first admitted arrival to last bulk finish) -- the open-system
        view, so a former cannot look faster by starting late."""
        if self.elapsed_s <= 0:
            return 0.0
        return self.executed / self.elapsed_s

    @property
    def sustained_ktps(self) -> float:
        return self.sustained_tps / 1e3

    @property
    def p95_total_s(self) -> float:
        return self.latency.p95_total_s

    @property
    def mean_bulk(self) -> float:
        if not self.bulks:
            return 0.0
        return sum(b.size for b in self.bulks) / len(self.bulks)

    def met_slo(self, target_p95_s: float) -> bool:
        return self.latency.p95_total_s <= target_p95_s


class ServeRuntime:
    """Drives a bulk engine from an arrival stream under an SLO."""

    def __init__(
        self,
        engine: Any,
        *,
        former: Optional[BulkFormer] = None,
        admission: Optional[AdmissionController] = None,
        strategy: str = "auto",
        **options: Any,
    ) -> None:
        """``engine`` is any bulk backend exposing ``pool``,
        ``registry`` and ``execute_bulk`` -- a ``GPUTx`` or a
        ``ClusterTx``."""
        validate_strategy_options(strategy, options)
        self.engine = engine
        self.former = former or AdaptiveBulkFormer()
        self.admission = admission or AdmissionController()
        self.strategy = strategy
        self.options = options
        # Telemetry bookkeeping: the serve lane's layout cursor (so
        # forming spans never overlap the previous bulk), the origin
        # this runtime's stream clock is anchored at (several serve
        # runs sharing one session must not rewind the lane), the
        # per-bulk span counter, and the admission counters already
        # reported.
        self._trace_cursor = 0.0
        self._trace_origin: Optional[float] = None
        self._trace_bulk_n = 0
        self._trace_prev_offered = 0
        self._trace_prev_rejected = 0
        self._trace_prev_tenant_rejected: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def run(self, arrivals: Iterable[ArrivalLike]) -> ServeReport:
        """Serve the stream to completion and drain the queue."""
        stream = ArrivalStream(arrivals)
        pool = self.engine.pool
        report = ServeReport(former=self.former.name)
        latencies: List[BulkLatency] = []
        clock = 0.0
        gpu_free = 0.0
        first_submit: Optional[float] = None
        # Elastic clusters rebalance between bulks, from the per-shard
        # admission depths this loop holds.
        rebalance = getattr(self.engine, "maybe_rebalance", None)
        while True:
            self.admission.offer_batch(stream.pop_until(clock), pool)
            if len(pool) == 0:
                if stream.exhausted:
                    break
                clock = max(clock, stream.peek_time())
                continue
            target = self.former.target_size()
            deadline = pool.peek(1).submit_time[0] + self.former.max_form_wait_s
            while (
                len(pool) < target
                and not stream.exhausted  # an infinite budget waits for +inf
                and stream.peek_time() <= deadline
            ):
                # The bulk is still filling and more arrivals fit the
                # oldest transaction's wait budget: wait for as many as
                # it still needs (arrivals tied with the last one taken
                # are admitted at the cut). The clock moves to the last
                # one; only shedding can leave the bulk short then.
                filling = stream.pop_until(deadline, target - len(pool))
                clock = filling.submit_time[-1]
                self.admission.offer_batch(filling, pool)
            # Cut: the queue hit the target, the wait budget expired,
            # or the stream ran dry (shutdown drain).
            start = max(clock, gpu_free)
            self.admission.offer_batch(stream.pop_until(start), pool)
            batch = pool.take(target)
            submit_s = np.array(batch.submit_time, dtype=np.float64)
            session = telemetry.current()
            serve_span = None
            result = None
            if session is not None:
                serve_span = self._trace_bulk_open(
                    session, submit_s, start, target
                )
            try:
                result = self.engine.execute_bulk(
                    batch, strategy=self.strategy, **dict(self.options)
                )
            finally:
                if serve_span is not None:
                    done = result is not None
                    bulk_end = (self._trace_origin or 0.0) + start + (
                        result.seconds if done else 0.0
                    )
                    session.tracer.end(
                        serve_span,
                        sim_end=bulk_end,
                        strategy=result.strategy if done else "",
                        executed=len(result.results) if done else 0,
                    )
                    self._trace_cursor = bulk_end
                    self._trace_bulk_metrics(session, start - submit_s)
            # Per-shard queue depths before _record_bulk releases the
            # batch's slots: a shard's depth counts what it was handed.
            depths = dict(self.admission._shard_depth)
            finish = start + result.seconds
            if not result.results and finish <= start:
                # The whole batch bounced back (deferred/halted) and
                # no simulated time passed: nothing can change, so
                # looping again would spin forever.
                raise ServeError(
                    "backend made no progress on a "
                    f"{len(batch)}-transaction bulk"
                )
            self._record_bulk(
                report, latencies, batch, submit_s, result, start, finish,
                target,
            )
            if first_submit is None:
                first_submit = float(submit_s.min())
            gpu_free = finish
            clock = finish
            # The engine is idle here, so a hot-shard split delays only
            # the next dispatch (its cost shows up as interconnect time).
            if rebalance is not None:
                migration = rebalance(depths)
                if migration is not None:
                    report.migrations.append(migration)
                    report.breakdown.add("migration", migration.seconds)
                    gpu_free = finish + migration.seconds
        report.latency = LatencySummary.of(
            latencies, admission=self.admission.stats
        )
        report.tenants = tenant_summaries(
            latencies, admission=self.admission.stats
        )
        report.admission = self.admission.stats
        if first_submit is not None:
            report.elapsed_s = max(gpu_free - first_submit, 1e-12)
        return report

    # ------------------------------------------------------------------
    def _trace_bulk_open(
        self,
        session: "telemetry.TelemetrySession",
        submit_s: np.ndarray,
        start: float,
        target: int,
    ) -> "telemetry.Span":
        """Open the serve-layer span for one dispatched bulk.

        The serve lane shows, per bulk, a ``forming`` span (the window
        in which the bulk queued and filled, clamped at the previous
        dispatch so lane timestamps stay monotone -- the *full*
        per-transaction wait is carried in tags and the queue-wait
        histogram) followed by the ``serve_bulk`` span the engine's
        own emission nests under.
        """
        tracer = session.tracer
        self._trace_bulk_n += 1
        if self._trace_origin is None:
            self._trace_origin = tracer.sim_now
            self._trace_cursor = self._trace_origin
        origin = self._trace_origin
        oldest = float(submit_s.min())
        form_start = min(max(self._trace_cursor, origin + oldest),
                         origin + start)
        if origin + start > form_start:
            tracer.complete(
                "forming",
                form_start,
                origin + start,
                cat=telemetry.CAT_PHASE,
                track="serve",
                layer="serve",
                queued=len(submit_s),
            )
        self._trace_cursor = origin + start
        return tracer.begin(
            f"serve_bulk-{self._trace_bulk_n}",
            cat=telemetry.CAT_BULK,
            track="serve",
            layer="serve",
            sim_start=origin + start,
            size=len(submit_s),
            target=target,
            queue_wait_s=start - oldest,
        )

    def _trace_bulk_metrics(
        self,
        session: "telemetry.TelemetrySession",
        queue_wait_s: np.ndarray,
    ) -> None:
        """Serve-layer metrics after one dispatched bulk."""
        metrics = session.metrics
        stats = self.admission.stats
        offered = stats.offered - self._trace_prev_offered
        if offered:
            metrics.counter(
                "admission_offered", "arrivals offered to admission"
            ).inc(offered)
        shed = stats.rejected - self._trace_prev_rejected
        if shed:
            metrics.counter(
                "admission_sheds", "arrivals rejected by admission control"
            ).inc(shed)
        self._trace_prev_offered = stats.offered
        self._trace_prev_rejected = stats.rejected
        metrics.gauge(
            "serve_queue_depth", "pool depth after the bulk was cut"
        ).set(len(self.engine.pool))
        metrics.gauge(
            "admission_high_water", "deepest queue admission has seen"
        ).set(stats.high_water)
        for shard, depth in sorted(self.admission._shard_depth.items()):
            metrics.gauge(
                "shard_queue_depth", "queued transactions per home shard"
            ).set(depth, shard=shard)
        for tenant in sorted(stats.admitted_by_tenant):
            metrics.gauge(
                "tenant_queue_depth", "queued transactions per tenant"
            ).set(self.admission.tenant_depth(tenant), tenant=tenant)
        for tenant, rejected in sorted(stats.rejected_by_tenant.items()):
            prev = self._trace_prev_tenant_rejected.get(tenant, 0)
            if rejected > prev:
                metrics.counter(
                    "tenant_sheds", "arrivals shed per tenant"
                ).inc(rejected - prev, tenant=tenant)
                self._trace_prev_tenant_rejected[tenant] = rejected
        metrics.histogram(
            "queue_wait_seconds", "admission-to-dispatch wait per txn"
        ).observe_many(queue_wait_s)

    # ------------------------------------------------------------------
    def _record_bulk(
        self,
        report: ServeReport,
        latencies: List[BulkLatency],
        batch: TransactionColumns,
        submit_s: np.ndarray,
        result: Any,
        start: float,
        finish: float,
        target: int,
    ) -> None:
        """Account one executed bulk: latency columns (in result order;
        ``batch`` is in id order, so a binary search places each result),
        report counters, admission slots, former feedback."""
        results = result.results
        n = len(results)
        ids = np.asarray(results.txn_id, dtype=np.int64)
        order = np.searchsorted(
            np.array(batch.txn_id, dtype=np.int64), ids
        )
        tenants = None
        if self.admission.stats.admitted_by_tenant:
            tenants = np.array(list(map(self.admission.tenant_of, ids.tolist())))
        latency = BulkLatency(
            submit_s[order], start, finish,
            *split_service(result.breakdown), tenants,
        )
        latencies.append(latency)
        self.admission.note_executed(
            batch if n == len(batch) else batch.take(order.tolist())
        )
        committed = results.committed_count()
        report.executed += n
        report.committed += committed
        report.aborted += n - committed
        report.busy_s += result.seconds
        for phase, seconds in result.breakdown.phases.items():
            report.breakdown.add(phase, seconds)
        strategy = getattr(result, "strategy", "unknown")
        report.bulks.append(
            BulkTrace(
                start_s=start,
                seconds=result.seconds,
                size=len(batch),
                executed=n,
                target=target,
                strategy=strategy,
            )
        )
        # Close the loop: the bulk's observed service time updates the
        # former's per-strategy model; its own p95 is the freshest
        # latency signal available.
        self.former.observe(
            size=len(batch),
            strategy=strategy,
            service_s=result.seconds,
            p95_total_s=Percentiles.of(latency.component(TOTAL)).p95,
        )


def serve(
    engine: Any,
    arrivals: Iterable[ArrivalLike],
    *,
    former: Optional[BulkFormer] = None,
    admission: Optional[AdmissionController] = None,
    strategy: str = "auto",
    **options: Any,
) -> ServeReport:
    """One-call convenience: build a runtime and serve the stream."""
    runtime = ServeRuntime(
        engine,
        former=former,
        admission=admission,
        strategy=strategy,
        **options,
    )
    return runtime.run(arrivals)
