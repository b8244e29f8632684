"""GPUTx: the end-to-end transaction execution engine (Section 3.2).

Ties everything together: transactions are submitted into the pool;
``run_bulk`` takes a set of them, profiles it, picks (or is told) an
execution strategy, executes on the simulated GPU, and records results.
``simulate_arrivals`` reproduces the response-time experiments
(Figures 9 and 15): transactions arrive uniformly in time, a bulk is
generated every ``interval`` seconds, and both average response time
and sustained throughput are reported.

Typical use::

    engine = GPUTx(db, procedures=tm1.PROCEDURES)
    engine.initialize_device()           # tables+indexes over PCIe
    engine.submit_many(txns)
    report = engine.run_bulk(strategy="auto")
    print(report.throughput_ktps)
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import repro.telemetry as telemetry
from repro.core.backends import BACKENDS, EngineOptions
from repro.core.chooser import ChooserThresholds, choose_strategy
from repro.core.executor import PHASE_EXECUTION, ExecutionResult, StrategyExecutor
from repro.core.oparray import OpArray
from repro.core.profiler import BulkProfile, BulkProfiler
from repro.core.procedure import ProcedureRegistry, TransactionType
from repro.core.strategies.adhoc import AdhocExecutor
from repro.core.strategies.kset_exec import KsetExecutor
from repro.core.strategies.part import PartExecutor
from repro.core.strategies.relaxed import (
    RelaxedKsetExecutor,
    RelaxedPartExecutor,
    RelaxedTplExecutor,
)
from repro.core.strategies.tpl import TplExecutor
from repro.core.txn import (
    ResultColumns, ResultPool, Transaction, TransactionPool,
)
from repro.errors import ConfigError, ProcedureError, check_int, check_real
from repro.gpu.costmodel import DMA_PHASES, TimeBreakdown
from repro.gpu.primitives import PrimitiveLibrary
from repro.gpu.simt import SIMTEngine
from repro.gpu.spec import C1060
from repro.gpu.transfer import PCIeModel
from repro.storage.catalog import Database, StoreAdapter

_STRATEGIES = {
    "tpl": TplExecutor,
    "part": PartExecutor,
    "kset": KsetExecutor,
    "adhoc": AdhocExecutor,
    "tpl-relaxed": RelaxedTplExecutor,
    "part-relaxed": RelaxedPartExecutor,
    "kset-relaxed": RelaxedKsetExecutor,
}


@dataclass
class ArrivalReport:
    """Outcome of a response-time simulation (Figures 9, 15)."""

    interval_s: float
    arrival_rate_tps: float
    executed: int
    elapsed_s: float
    avg_response_s: float
    max_response_s: float
    bulk_sizes: List[int] = field(default_factory=list)

    @property
    def throughput_tps(self) -> float:
        return self.executed / self.elapsed_s if self.elapsed_s > 0 else 0.0

    @property
    def throughput_ktps(self) -> float:
        return self.throughput_tps / 1e3


class BulkFrontDoor:
    """Submission into the pool and the pool-draining ``run_bulk``:
    the surface ``GPUTx`` and the cluster's ``ClusterTx`` share. The
    subclass owns ``pool`` and ``execute_bulk``."""

    pool: TransactionPool
    registry: ProcedureRegistry

    def submit(
        self, type_name: str, params: Iterable[Any], submit_time: float = 0.0
    ) -> Transaction:
        return self.pool.submit(type_name, params, submit_time)

    def submit_many(
        self,
        transactions: Iterable[
            Union[Transaction, Tuple[str, tuple], Tuple[str, tuple, float]]
        ],
    ) -> int:
        """Submit pre-built transactions, (type, params) pairs, or
        (type, params, submit_time) triples."""
        return self.pool.submit_specs(transactions)

    def run_bulk(
        self,
        strategy: str = "auto",
        max_txns: Optional[int] = None,
        **options: Any,
    ):
        """Generate one bulk from the pool and execute it.

        ``strategy="auto"`` profiles the bulk and applies Algorithm 1
        (per shard, on a cluster) and takes no options. Under an
        explicit strategy, its options (``grouping_passes``,
        ``partition_size``, ...) pass through to the executor.
        """
        # Validate before draining the pool: a typo'd option or
        # strategy name must not cost the caller the bulk.
        validate_strategy_options(strategy, options)
        batch = self.pool.take(max_txns)
        try:
            ops = OpArray.of_bulk(self.registry, batch)
        except ProcedureError:
            # Nor must a transaction its type cannot resolve: nothing
            # has run yet, so the batch goes back as it came.
            self.pool.requeue(batch)
            raise
        return self.execute_bulk(  # type: ignore[attr-defined]
            batch, strategy=strategy, ops=ops, **options
        )


class GPUTx(BulkFrontDoor):
    """High-throughput bulk transaction execution engine on the GPU."""

    def __init__(
        self,
        db: Database,
        procedures: Optional[Sequence[TransactionType]] = None,
        *,
        block_size: int = 256,
        options: Optional[EngineOptions] = None,
    ) -> None:
        self.db = db
        #: The simulated device: always the paper's Tesla C1060.
        self.spec = C1060
        self.registry = ProcedureRegistry()
        if procedures:
            self.registry.register_many(procedures)
        self.adapter = StoreAdapter(db)
        self.engine = SIMTEngine(self.spec, block_size=block_size)
        self.primitives = PrimitiveLibrary(self.spec)
        self.pcie = PCIeModel(self.spec)
        self.pool = TransactionPool()
        self.results = ResultPool()
        self.profiler = BulkProfiler(self.registry, self.primitives)
        #: Algorithm 1's thresholds for ``strategy="auto"``; assign a
        #: :class:`ChooserThresholds` to tune the chooser.
        self.thresholds = ChooserThresholds.for_spec(self.spec)
        if options is None:
            options = EngineOptions()
        elif not isinstance(options, EngineOptions):
            raise ConfigError(
                "GPUTx options must be an EngineOptions, got "
                f"{type(options).__name__}"
            )
        if options.backend == "vectorized" and db.layout != "column":
            raise ConfigError(
                "the vectorized backend needs a column-layout store; "
                f"this database is {db.layout}-layout (use "
                "backend='interpreted')"
            )
        self.options = options
        #: The execution backend every K-SET/PART/TPL kernel launch of
        #: this engine routes through (repro.core.backends).
        self.backend = BACKENDS[options.backend]()
        #: Bulks traced so far (names the per-bulk telemetry spans).
        self._bulk_count = 0

    def register(self, txn_type: TransactionType) -> int:
        """Add a stored procedure to the combined kernel."""
        return self.registry.register(txn_type)

    def rebuild_on(self, db: Database) -> "GPUTx":
        """A fresh engine over ``db`` with this engine's configuration.

        Registers the same transaction types in the same order, so
        type ids are preserved -- the contract replica promotion needs
        when it swaps a recovered database under a shard id
        (:mod:`repro.cluster.durability`). The chooser thresholds carry
        over, and so do the transaction and result pools a cluster
        shares between its shards.
        """
        engine = GPUTx(
            db,
            procedures=[
                self.registry.get(name)
                for name in self.registry.type_names
            ],
            block_size=self.engine.block_size,
            options=self.options,
        )
        engine.thresholds = self.thresholds
        engine.pool = self.pool
        engine.results = self.results
        return engine

    # ------------------------------------------------------------------
    # Device initialization (Figure 16's one-off component).
    # ------------------------------------------------------------------
    def initialize_device(self) -> float:
        """Copy tables and indexes to device memory; returns seconds."""
        report = self.db.device_bytes_report()
        return self.pcie.initialize(report["total"])

    # ------------------------------------------------------------------
    # Bulk execution.
    # ------------------------------------------------------------------
    def make_executor(self, strategy: str, **options: Any) -> StrategyExecutor:
        """Build a strategy executor sharing this engine's plumbing."""
        validate_strategy_options(strategy, options)
        try:
            cls = _STRATEGIES[strategy]
        except KeyError:  # "auto": only execute_bulk resolves it
            raise ConfigError(
                f"unknown strategy {strategy!r}; "
                f"choose from {sorted(_STRATEGIES)}"
            ) from None
        return cls(
            self.registry,
            self.adapter,
            self.engine,
            primitives=self.primitives,
            pcie=self.pcie,
            backend=self.backend,
            **options,
        )

    def profile_pool(self, max_txns: Optional[int] = None) -> BulkProfile:
        """Profile the pending transactions without executing them."""
        return self.profiler.profile(self.pool.peek(max_txns))

    def execute_bulk(
        self,
        transactions: Sequence[Transaction],
        strategy: str = "auto",
        *,
        ops: Optional[OpArray] = None,
        **options: Any,
    ) -> ExecutionResult:
        """The reusable bulk pipeline: profile, choose, execute, record.

        Unlike :meth:`run_bulk` this takes the transactions directly
        instead of draining the pool, so callers that own the bulk
        boundary -- the cluster runtime's per-shard sub-bulks, the
        pipelined bulk scheduler -- share one code path. Deferred
        transactions (streaming K-SET) are requeued into this engine's
        pool; results land in this engine's result pool. The bulk's
        operation array is built here, once, for the profiler and the
        strategy to read -- unless the caller passes it as ``ops``
        (the cluster hands each shard its slice).
        """
        validate_strategy_options(strategy, options)
        if not transactions:
            return ExecutionResult(strategy, ResultColumns(), TimeBreakdown())
        if ops is None:
            ops = OpArray.of_bulk(self.registry, transactions)
        chosen = strategy
        profile_seconds = 0.0
        if strategy == "auto":
            profile = self.profiler.profile(transactions, ops)
            chosen = choose_strategy(profile, self.thresholds)
            profile_seconds = profile.gen_seconds
        executor = self.make_executor(chosen, **options)
        # Executors driven directly (make_executor callers) launch
        # outside this method: drop their launches so the label below
        # covers this bulk only.
        self.backend.bulk_path()
        wall_start = time.perf_counter()
        result = executor.execute(transactions, ops)
        result.wall_seconds = time.perf_counter() - wall_start
        result.backend = self.backend.bulk_path()
        if profile_seconds:
            result.breakdown.add("profiling", profile_seconds)
        self.results.record_many(result.results)
        if result.deferred:
            self.pool.requeue(result.deferred)
        session = telemetry.current()
        if session is not None:
            self._trace_bulk(session, result, len(transactions))
        return result

    def _trace_bulk(
        self,
        session: "telemetry.TelemetrySession",
        result: ExecutionResult,
        n_txns: int,
    ) -> None:
        """Emit the life-of-a-bulk span tree and metrics for ``result``.

        The tree is laid out purely from the result's breakdown (the
        simulated decomposition), so tracing observes the engine
        without perturbing it: phase spans sum to ``result.seconds``
        per layer, and wave spans tile the execution phase in kernel
        order. DMA-borne phases land on the ``dma`` track.
        """
        tracer = session.tracer
        self._bulk_count += 1
        bulk = tracer.begin(
            f"bulk-{self._bulk_count}",
            cat=telemetry.CAT_BULK,
            n_txns=n_txns,
            strategy=result.strategy,
            backend=result.backend,
            committed=result.committed,
            aborted=result.aborted,
            deferred=len(result.deferred),
        )
        for phase, seconds in result.breakdown.phases.items():
            track = tracer.dma_track if phase in DMA_PHASES else None
            if phase != PHASE_EXECUTION or not result.kernel_reports:
                tracer.phase(phase, seconds, track=track)
                continue
            # The execution phase opens a sub-tree: one wave span per
            # kernel launch, clamped inside the phase so float
            # accumulation can never push a child past its parent.
            exec_span = tracer.begin(phase, cat=telemetry.CAT_PHASE)
            exec_end = exec_span.sim_start_s + seconds
            for w, rep in enumerate(result.kernel_reports):
                dur = max(0.0, min(rep.seconds, exec_end - exec_span.cursor))
                tracer.phase(
                    f"wave-{w}",
                    dur,
                    cat=telemetry.CAT_WAVE,
                    strategy=result.strategy,
                    backend=result.backend,
                    threads=rep.stats.threads_launched,
                    aborted=rep.aborted_count,
                    rounds=rep.stats.rounds,
                    atomic_conflicts=rep.stats.atomic_conflicts,
                    bound=rep.timing.bound,
                )
            tracer.end(exec_span, sim_end=exec_end, advance_parent=True)
        tracer.end(bulk, waves=len(result.kernel_reports))

        metrics = session.metrics
        metrics.counter(
            "bulks_executed", "bulks run through GPUTx.execute_bulk"
        ).inc(strategy=result.strategy, backend=result.backend)
        metrics.counter(
            "waves_executed", "kernel launches (waves)"
        ).inc(len(result.kernel_reports), strategy=result.strategy,
              backend=result.backend)
        metrics.counter("txns_committed", "committed transactions").inc(
            result.committed
        )
        metrics.counter("txns_aborted", "aborted transactions").inc(
            result.aborted
        )
        if result.deferred:
            metrics.counter(
                "txns_deferred", "transactions requeued by streaming K-SET"
            ).inc(len(result.deferred))
        if n_txns and result.strategy.startswith("kset"):
            metrics.gauge(
                "kset_conflict_rate",
                "deferred share of the last K-SET bulk",
            ).set(len(result.deferred) / n_txns)
        metrics.histogram(
            "bulk_sim_seconds", "simulated seconds per bulk"
        ).observe(result.seconds, strategy=result.strategy)
        metrics.histogram(
            "bulk_wall_seconds", "host wall seconds per bulk"
        ).observe(result.wall_seconds, strategy=result.strategy,
                  backend=result.backend)

    # ------------------------------------------------------------------
    # Response time vs. throughput simulation (Figures 9, 15).
    # ------------------------------------------------------------------
    def simulate_arrivals(
        self,
        transactions: Sequence[Tuple[str, tuple]],
        arrival_rate_tps: float,
        interval_s: float,
        strategy: str = "kset",
        **options: Any,
    ) -> ArrivalReport:
        """Feed transactions at a uniform rate, bulk every ``interval_s``.

        Transaction *i* arrives at ``i / rate``. At each interval
        boundary (or as soon as the GPU frees up, whichever is later)
        every arrived-but-unexecuted transaction forms a bulk. The
        response time of a transaction is bulk-finish-time minus its
        arrival time. Each bulk runs through :meth:`execute_bulk`, so
        ``strategy`` may be ``"auto"`` and a transaction streaming
        K-SET defers waits in the pool for a later bulk.
        """
        # The rate may be infinite (everything arrives at 0); the
        # interval may not.
        arrival_rate_tps = check_real("arrival rate", arrival_rate_tps)
        interval_s = check_real("interval", interval_s, finite=True)
        validate_strategy_options(strategy, options)
        n = len(transactions)
        arrive = [i / arrival_rate_tps for i in range(n)]
        submitted = 0
        clock = 0.0
        total_response = 0.0
        max_response = 0.0
        executed = 0
        bulk_sizes: List[int] = []
        next_boundary = interval_s
        while executed < n:
            clock = max(clock, next_boundary)
            next_boundary += interval_s
            # Admit everything that has arrived by now.
            while submitted < n and arrive[submitted] <= clock:
                type_name, params = transactions[submitted]
                self.pool.submit(type_name, params, submit_time=arrive[submitted])
                submitted += 1
            batch = self.pool.take()
            if not batch:
                continue
            result = self.execute_bulk(batch, strategy, **options)
            clock += result.seconds
            bulk_sizes.append(len(batch))
            # Streaming K-SET defers part of the bulk back into the
            # pool: only what came back has finished.
            deferred = {txn.txn_id for txn in result.deferred}
            for txn in batch:
                if txn.txn_id in deferred:
                    continue
                response = clock - txn.submit_time
                total_response += response
                max_response = max(max_response, response)
            executed += len(batch) - len(deferred)
        # Throughput is measured from the first bulk boundary (when the
        # engine starts processing) to the last bulk's completion --
        # the steady-state view of the paper's long-running runs, not
        # diluted by the initial fill of the pool.
        return ArrivalReport(
            interval_s=interval_s,
            arrival_rate_tps=arrival_rate_tps,
            executed=executed,
            elapsed_s=max(clock - interval_s, 1e-12),
            avg_response_s=total_response / executed if executed else 0.0,
            max_response_s=max_response,
            bulk_sizes=bulk_sizes,
        )


#: Options each strategy's executor accepts (beyond the shared ones).
_STRATEGY_OPTIONS: Dict[str, set] = {
    "tpl": {"grouping_passes"},
    "part": {"partition_size"},
    "kset": {"grouping_passes", "max_rounds"},
    "adhoc": {"per_task_launch_overhead"},
    "tpl-relaxed": set(),
    "part-relaxed": {"partition_size"},
    "kset-relaxed": {"grouping_passes"},
}


#: Smallest accepted value per integer option (``max_rounds=0`` would
#: execute nothing: a drain loop over the pool would spin forever).
_OPTION_MINIMUM = {"partition_size": 1, "grouping_passes": 0, "max_rounds": 1}


def validate_strategy_options(strategy: str, options: Dict[str, Any]) -> None:
    """Reject misdirected or out-of-range strategy options.

    Called before a bulk is consumed, so a typo or a bad value costs
    an error, not the workload. ``"auto"`` takes no options: the caller
    cannot know which executor Algorithm 1 will pick, so an option
    would apply to some bulks and not to others. Under an explicit
    strategy the option set is known up front and unknown names are
    rejected outright. Integer options accept any integral type (a
    NumPy integer is normalised to ``int`` in ``options``) but not a
    ``bool``: ``True`` is not a round count.
    """
    if strategy == "auto":
        if options:
            owners = {
                name: [s for s, ok in _STRATEGY_OPTIONS.items() if name in ok]
                for name in sorted(options)
            }
            raise ConfigError(
                f'strategy "auto" takes no options; name an explicit '
                f"strategy to pass one (accepted by: {owners})"
            )
        return
    for name in _OPTION_MINIMUM.keys() & options.keys():
        value, lowest = options[name], _OPTION_MINIMUM[name]
        if value is None and name == "max_rounds":
            continue  # None = drain the bulk completely
        options[name] = check_int(name, value, lowest)
    # The one on/off option: a truthy "no" would silently switch it on.
    flag = options.get("per_task_launch_overhead", False)
    if not isinstance(flag, bool):
        raise ConfigError(
            f"per_task_launch_overhead must be a bool, got {flag!r}"
        )
    allowed = _STRATEGY_OPTIONS.get(strategy)
    if allowed is None:
        raise ConfigError(
            f"unknown strategy {strategy!r}; choose from {sorted(_STRATEGIES)}"
        )
    unknown = sorted(set(options) - allowed)
    if unknown:
        raise ConfigError(
            f"strategy {strategy!r} does not accept option(s) {unknown}; "
            f"allowed options are {sorted(allowed)}"
        )
