"""ClusterTx: the sharded multi-GPU bulk transaction runtime.

Scales the single-device :class:`~repro.core.engine.GPUTx` engine out
to N simulated GPUs, DiPETrans-style:

* the database is partitioned over the shards by a
  :class:`~repro.cluster.router.ShardRouter` (hash or range over each
  table's partition key);
* every shard owns a full ``GPUTx`` engine -- its own SIMT simulator,
  PCIe link and strategy chooser, so each shard profiles *its own*
  sub-bulk and applies Algorithm 1 independently;
* each bulk is segmented, in timestamp order, into **waves** of
  single-shard transactions (one parallel wave: the wave's simulated
  time is the *max* over the shards, not the sum) and of cross-shard
  transactions (one coordinator wave, driven by the leader --
  :mod:`repro.cluster.coordinator`).

Two cross-shard commit modes exist. ``cross_shard="serial"`` is the
original pass: waves are maximal same-kind runs and the leader
interprets each coordinator wave serially. ``cross_shard="parallel"``
(the default) is the DiPETrans leader/follower protocol: segmentation
packs transactions into the earliest wave that keeps every pair
touching a common shard in timestamp order (coalescing the many tiny
runs into a few large waves), and the leader conflict-partitions each
coordinator wave into independent groups that execute on their home
shards in parallel -- the wave costs the max over the shard lanes
plus the leader's dispatch serialisation, not the serial sum.

Correctness (Definition 1, timestamp-order equivalence): within a
parallel wave, transactions on different shards touch disjoint data by
construction, and each shard engine is Definition-1 equivalent on its
own sub-bulk; waves are barrier-separated, coordinator waves are
interpreted in timestamp order in both modes, and the parallel
segmentation orders any two transactions that share a shard (hence
any two that conflict) in timestamp order. The composition is
therefore equivalent to one serial run of the whole bulk -- and the
two modes produce byte-identical outcomes, per-shard physical state
and redo logs; only the simulated clock differs. The cluster
integration tests assert exactly this against the CPU oracle, a
single-device ``GPUTx``, and the serial-leader oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import repro.telemetry as telemetry
from repro.cluster.coordinator import CrossShardCoordinator, FailoverController
from repro.cluster.durability.failover import (
    ClusterDurability,
    RecoveryReport,
)
from repro.cluster.durability.replay import states_identical
from repro.cluster.durability.wal import (
    LEADER_STRATEGY,
    PARALLEL_STRATEGY,
    PHASE_CHECKPOINT,
    PHASE_MIGRATION,
    PHASE_RECOVERY,
    PHASE_WAL_SYNC,
)
from repro.cluster.elastic import (
    ElasticController,
    MigrationPlan,
    MigrationReport,
    ShardMigrator,
)
from repro.cluster.partition import key_space_of, partition_database
from repro.cluster.router import ShardRouter, make_router
from repro.config import ClusterOptions
from repro.core.engine import BulkFrontDoor, GPUTx, validate_strategy_options
from repro.core.oparray import OpArray
from repro.core.procedure import TransactionType
from repro.core.txn import (
    BulkOutcome,
    ResultColumns,
    ResultPool,
    Transaction,
    TransactionPool,
)
from repro.errors import ClusterError, ConfigError, RecoveryError, ShardFailure
from repro.gpu.costmodel import TimeBreakdown
from repro.storage.catalog import Database

#: Breakdown phases specific to the cluster runtime.
PHASE_COORDINATOR = "coordinator"
PHASE_SYNC = "sync"


class _DeadHandle:
    """Placeholder for a killed shard's engine/adapter.

    Any attribute access models touching a lost device and raises
    :class:`~repro.errors.ShardFailure`; the wave loop checks for dead
    shards before dispatching, so this only fires on misuse.
    """

    def __init__(self, shard: int, role: str) -> None:
        object.__setattr__(self, "_shard", shard)
        object.__setattr__(self, "_role", role)

    def __getattr__(self, name: str):
        raise ShardFailure(
            f"shard {self._shard} is down: its {self._role} is "
            "unreachable until a replica is promoted"
        )


@dataclass
class WaveReport:
    """One barrier-separated wave of a cluster bulk."""

    kind: str  # "parallel" | "coordinator"
    size: int
    seconds: float
    shards: Tuple[int, ...]
    #: Strategy each shard engine chose for its sub-bulk (parallel waves).
    strategies: Dict[int, str] = field(default_factory=dict)
    #: Sub-bulk size per shard (parallel waves); sums to ``size``.
    shard_sizes: Dict[int, int] = field(default_factory=dict)
    #: Independent conflict groups dispatched (parallel-mode
    #: coordinator waves; 0 for serial-leader and parallel waves).
    groups: int = 0
    #: Commit-path label of a coordinator wave ("leader" for the
    #: serial pass, "leader-parallel" for the grouped protocol).
    leader_strategy: str = LEADER_STRATEGY


@dataclass
class ClusterExecutionResult(BulkOutcome):
    """Outcome of executing one bulk across the cluster."""

    results: ResultColumns
    breakdown: TimeBreakdown
    waves: List[WaveReport] = field(default_factory=list)
    n_single_shard: int = 0
    n_cross_shard: int = 0
    #: Cumulative busy seconds per shard engine (for utilisation).
    shard_busy_s: List[float] = field(default_factory=list)
    #: Replica promotions performed during this bulk (auto failover).
    failovers: List[RecoveryReport] = field(default_factory=list)
    #: True when a shard failure halted the bulk's younger waves.
    halted: bool = False
    #: Transactions requeued (halted waves; they rejoin the pool in
    #: timestamp order -- ``Transaction.timestamp``, not arrival
    #: ``submit_time`` -- and execute in a later bulk).
    requeued: int = 0
    #: Conflict groups dispatched by parallel coordinator waves.
    n_groups: int = 0
    #: Live range migrations applied at this bulk's wave boundaries.
    migrations: List[MigrationReport] = field(default_factory=list)
    #: Transactions executed per shard in this bulk's parallel waves.
    shard_txns: Dict[int, int] = field(default_factory=dict)
    #: Aborts per shard in this bulk's parallel waves (conflict signal).
    shard_aborts: Dict[int, int] = field(default_factory=dict)

    def shard_abort_share(self) -> Dict[int, float]:
        """Abort share per shard that executed anything in this bulk's
        parallel waves (the conflict signal)."""
        return {
            shard: self.shard_aborts.get(shard, 0) / executed
            for shard, executed in self.shard_txns.items()
            if executed
        }

    @property
    def utilization(self) -> float:
        """Mean fraction of the makespan the shard GPUs were busy."""
        if not self.shard_busy_s or self.seconds <= 0:
            return 0.0
        return sum(self.shard_busy_s) / (len(self.shard_busy_s) * self.seconds)

    def strategies_used(self) -> Dict[str, int]:
        """Transactions executed per strategy across all waves.

        Parallel waves count each shard's actual sub-bulk size under
        the strategy that shard chose; coordinator waves count under
        their commit path ("leader" serial, "leader-parallel" grouped).
        """
        counts: Dict[str, int] = {}
        for wave in self.waves:
            if wave.kind == "coordinator":
                name = wave.leader_strategy
                counts[name] = counts.get(name, 0) + wave.size
            else:
                for shard, name in wave.strategies.items():
                    n = wave.shard_sizes.get(shard, 0)
                    counts[name] = counts.get(name, 0) + n
        return counts

    @property
    def strategy(self) -> str:
        """Dominant strategy of the bulk (most transactions executed).

        Gives cluster results the same feedback key single-engine
        :class:`~repro.core.executor.ExecutionResult` carries, so the
        online serve loop's per-strategy service model works unchanged
        over either backend.
        """
        counts = self.strategies_used()
        if not counts:
            return "none"
        return max(sorted(counts), key=lambda name: counts[name])


class ClusterTx(BulkFrontDoor):
    """Bulk transaction execution sharded over N simulated GPUs."""

    def __init__(
        self,
        db: Database,
        procedures: Optional[Sequence[TransactionType]] = None,
        n_shards: int = 2,
        *,
        router: Union[str, ShardRouter] = "hash",
        options: Optional[ClusterOptions] = None,
    ) -> None:
        if options is None:
            options = ClusterOptions()
        elif not isinstance(options, ClusterOptions):
            raise ConfigError(
                "ClusterTx options must be a ClusterOptions, got "
                f"{type(options).__name__}"
            )
        self.options = options
        durability = options.durability
        elastic = options.elastic
        self.cross_shard = options.cross_shard
        key_space = key_space_of(db) if router == "range" else None
        self.router = make_router(router, n_shards, key_space=key_space)
        self.n_shards = self.router.n_shards
        # The source database is partitioned by copy and never mutated.
        shard_dbs = partition_database(db, self.router)
        self.shards: List[GPUTx] = [
            GPUTx(shard_db, procedures=procedures, options=options.engine)
            for shard_db in shard_dbs
        ]
        self.registry = self.shards[0].registry
        self.pool = TransactionPool()
        self.results = ResultPool()
        for engine in self.shards:
            # Shard engines each filter "auto" options for the strategy
            # they chose; sharing one memo makes that one dropped-option
            # warning per cluster instead of one per shard.
            engine._warned_options = self.shards[0]._warned_options
            # One pool in, one result pool out (Section 3.1): a shard
            # records its outcomes and requeues what it defers there.
            engine.pool = self.pool
            engine.results = self.results
        self.coordinator = CrossShardCoordinator(
            self.registry,
            [engine.adapter for engine in self.shards],
            self.router,
            self.shards[0].spec,
        )
        # -- durability (WAL + checkpoints + replicas) -----------------
        self._bulk_seq = 0
        self._sim_clock = 0.0
        self._dead: "set[int]" = set()
        #: Dead shards' engine objects: the *device* is lost, but the
        #: host-side handle survives -- recovery rebuilds through
        #: GPUTx.rebuild_on so engine configuration cannot diverge,
        #: and recover_shard diffs against its (last durable) store.
        self._dead_engines: Dict[int, GPUTx] = {}
        self.durability: Optional[ClusterDurability] = None
        self.failover: Optional[FailoverController] = None
        if durability is not None:
            self.durability = ClusterDurability(durability, self.shards)
            self.failover = FailoverController(self)
        # -- elastic shards (hot-key detection + live migration) -------
        self.elastic: Optional[ElasticController] = None
        self._pending_migration: Optional[MigrationPlan] = None
        if elastic is not None:
            self.elastic = ElasticController(self, elastic)

    # ------------------------------------------------------------------
    # Registration (submission and run_bulk: BulkFrontDoor).
    # ------------------------------------------------------------------
    def register(self, txn_type: TransactionType) -> int:
        """Register a stored procedure on every shard's combined kernel."""
        type_ids = {engine.register(txn_type) for engine in self.shards}
        if len(type_ids) != 1:
            raise ClusterError(
                f"shards disagree on type id for {txn_type.name!r}"
            )
        return type_ids.pop()

    # ------------------------------------------------------------------
    # Device initialization.
    # ------------------------------------------------------------------
    def initialize_devices(self) -> float:
        """Load every shard's tables/indexes; shards load in parallel,
        so the simulated cost is the slowest shard's."""
        return max(engine.initialize_device() for engine in self.shards)

    # ------------------------------------------------------------------
    # Bulk execution.
    # ------------------------------------------------------------------
    def execute_bulk(
        self,
        transactions: Sequence[Transaction],
        strategy: str = "auto",
        *,
        ops: Optional[OpArray] = None,
        **options: Any,
    ) -> ClusterExecutionResult:
        """Segment a bulk into waves and execute them in order."""
        validate_strategy_options(strategy, options)
        out = ClusterExecutionResult(
            results=ResultColumns(),
            breakdown=TimeBreakdown(),
            shard_busy_s=[0.0] * self.n_shards,
        )
        if not transactions:
            return out
        # Resolve the declared footprint before the bulk counts: an
        # error here must not shift the kills keyed on ``_bulk_seq``.
        if ops is None:
            ops = OpArray.of_bulk(self.registry, transactions)
        self._bulk_seq += 1
        session = telemetry.current()
        bulk_span = None
        prev_defaults = None
        if session is not None:
            tracer = session.tracer
            prev_defaults = (tracer.track, tracer.layer, tracer.dma_track)
            bulk_span = tracer.begin(
                f"cluster_bulk-{self._bulk_seq}",
                cat=telemetry.CAT_BULK,
                track="cluster",
                layer="cluster",
                n_txns=len(transactions),
                n_shards=self.n_shards,
            )
            # Cluster-layer phases (the critical path) default onto
            # the cluster lane; shard sub-bulks repoint per shard.
            tracer.track = "cluster"
            tracer.layer = "cluster"
            tracer.dma_track = "dma"
        try:
            self._run_waves(transactions, ops, strategy, options, out)
            if self.durability is not None:
                self._durability_epilogue(out)
        finally:
            if session is not None:
                tracer = session.tracer
                tracer.end(
                    bulk_span,
                    waves=len(out.waves),
                    n_single_shard=out.n_single_shard,
                    n_cross_shard=out.n_cross_shard,
                    halted=out.halted,
                    requeued=out.requeued,
                    committed=out.committed,
                    aborted=out.aborted,
                )
                tracer.track, tracer.layer, tracer.dma_track = prev_defaults
                self._record_bulk_metrics(session, out)
        if self.elastic is not None:
            self.elastic.note_bulk(out.shard_busy_s, out.shard_abort_share())
        out.results = out.results.sorted_by_id()
        self._check_replicated_tables()
        self._sim_clock += out.seconds
        return out

    def _record_bulk_metrics(
        self,
        session: "telemetry.TelemetrySession",
        out: ClusterExecutionResult,
    ) -> None:
        """Cluster-level counters and gauges for one executed bulk."""
        metrics = session.metrics
        metrics.counter(
            "cluster_bulks_executed", "bulks run through ClusterTx"
        ).inc()
        metrics.counter(
            "cluster_waves_executed", "barrier-separated cluster waves"
        ).inc(len(out.waves))
        metrics.counter(
            "cross_shard_txns", "transactions routed through the leader"
        ).inc(out.n_cross_shard)
        if out.n_groups:
            metrics.counter(
                "cross_shard_groups",
                "conflict groups dispatched by parallel coordinator waves",
            ).inc(out.n_groups)
        if out.requeued:
            metrics.counter(
                "cluster_requeued_txns",
                "transactions requeued by halted or deferred waves",
            ).inc(out.requeued)
        if out.failovers:
            metrics.counter(
                "shard_failovers", "replica promotions performed"
            ).inc(len(out.failovers))
        for shard, busy in enumerate(out.shard_busy_s):
            metrics.gauge(
                "shard_busy_seconds", "per-shard busy time of the last bulk"
            ).set(busy, shard=shard)
        for shard, share in out.shard_abort_share().items():
            metrics.gauge(
                "shard_conflict_rate",
                "per-shard abort share of the last bulk's parallel waves",
            ).set(share, shard=shard)
        if out.migrations:
            metrics.counter(
                "cluster_migrations", "live range migrations in bulks"
            ).inc(len(out.migrations))

    def _durability_epilogue(self, out: ClusterExecutionResult) -> None:
        """Post-bulk durability work: recover the shards that died in
        the bulk (their younger waves were requeued), then checkpoint."""
        for shard in sorted(self._dead):
            report = self.recover_shard(shard)
            out.failovers.append(report)
            out.breakdown.add(PHASE_RECOVERY, report.seconds)
        bulk_id = self._bulk_seq - 1
        now = self._sim_clock + out.breakdown.total
        # Shards checkpoint concurrently: charge the slowest ship.
        checkpoint_wait = max(
            unit.note_bulk(engine.db, bulk_id, now)
            for unit, engine in zip(self.durability.units, self.shards)
        )
        if checkpoint_wait > 0.0:
            self._charge(out, PHASE_CHECKPOINT, checkpoint_wait)

    def _run_waves(
        self,
        transactions: Sequence[Transaction],
        ops: OpArray,
        strategy: str,
        options: Dict[str, Any],
        out: ClusterExecutionResult,
    ) -> None:
        # Route the bulk's footprint once: classification, home-shard
        # grouping, the shard engines (each handed its slice of
        # ``ops``) and the coordinator all read these two.
        shard_map = self.router.shard_map(ops)
        segment = (
            self._segment_runs
            if self.cross_shard == "serial"
            else self._segment_packed
        )
        waves = segment(transactions, shard_map)
        bulk_id = self._bulk_seq - 1
        for index, (kind, wave_txns) in enumerate(waves):
            if self.failover is not None:
                for shard in self.failover.due_kills(bulk_id, index):
                    self._kill_shard(shard)
            if self._dead:
                # A device is gone: halt this and every younger wave
                # (running any could commit work out of timestamp
                # order with respect to the dead shard's lost wave).
                # The halted transactions rejoin the pool in timestamp
                # order and execute after promotion.
                rest = [txn for _kind, txns in waves[index:] for txn in txns]
                self.pool.requeue(rest)
                out.requeued += len(rest)
                out.halted = True
                break
            if self._pending_migration is not None:
                # A live migration lands at this wave boundary: the
                # shards it touched are quiesced (nothing in flight
                # across a barrier), so swap now and requeue only the
                # transactions transitively ordered against them.
                self._apply_pending_migration(
                    waves, index, shard_map, out, bulk_id
                )
                kind, wave_txns = waves[index]
                if not wave_txns:
                    continue
            if kind == "parallel":
                deferred = self._run_parallel_wave(
                    wave_txns, ops, shard_map, strategy, options, out,
                    bulk_id, index,
                )
                if deferred:
                    # A shard deferred older transactions (streaming
                    # K-SET): younger waves of this bulk may conflict
                    # with them, so running any would break timestamp
                    # order. Requeue the rest; they rejoin the pool in
                    # timestamp order and execute in a later bulk.
                    rest = [
                        txn
                        for _kind, txns in waves[index + 1:]
                        for txn in txns
                    ]
                    if rest:
                        self.pool.requeue(rest)
                    break
            else:
                self._run_coordinator_wave(
                    wave_txns, ops, shard_map, out, bulk_id, index
                )

    # ------------------------------------------------------------------
    # Elastic shards: live range migration.
    # ------------------------------------------------------------------
    def request_migration(self, plan: MigrationPlan) -> None:
        """Queue a range move to land at the next wave boundary.

        The swap happens mid-bulk, between two waves: the affected
        shards are quiesced there by construction, and the wave loop
        requeues (in timestamp order, the halted-bulk path) exactly
        the transactions transitively ordered against them.
        """
        if self._pending_migration is not None:
            raise ClusterError(
                "a migration is already pending; one range move lands "
                "per wave boundary"
            )
        # Refuse an impossible plan (or router) now, not from inside
        # the bulk it lands in: the slot holds one plan, so ownership
        # cannot change before then.
        ShardMigrator(self)._validate(plan)
        self._pending_migration = plan

    def migrate(self, plan: MigrationPlan) -> MigrationReport:
        """Execute a range move immediately (between bulks).

        Nothing is in flight between bulks, so no requeue is needed;
        the cost still rides the DMA timeline and the simulated clock.
        """
        report = ShardMigrator(self).migrate(
            plan, bulk_id=self._bulk_seq, wave=0, now=self._sim_clock
        )
        self._sim_clock += report.seconds
        if self.elastic is not None:
            self.elastic.reports.append(report)
        return report

    def maybe_rebalance(self, depths: Dict[int, int]) -> Optional[MigrationReport]:
        """Detect-and-split hook the serve loop calls between bulks
        with its per-shard admission queue depths.

        No-op unless the cluster was built with ``elastic=``; returns
        the :class:`MigrationReport` when a hot shard was split so the
        caller can charge the simulated cost to its own clock.
        """
        if self.elastic is None or self._dead:
            return None  # recovery first, rebalancing second
        return self.elastic.maybe_rebalance(depths)

    def _apply_pending_migration(
        self,
        waves: List[Tuple[str, List[Transaction]]],
        index: int,
        shard_map: Dict[int, "frozenset[int]"],
        out: ClusterExecutionResult,
        bulk_id: int,
    ) -> MigrationReport:
        """Swap the pending range at the wave boundary ``index``.

        Requeues the transactions transitively ordered against the
        swapped shards and filters them out of the remaining waves,
        in place. A single forward pass propagates the taint to a
        fixpoint: the packed segmentation keeps any two transactions
        sharing a shard in timestamp order across (wave index,
        within-wave position), so by the time a transaction is
        visited, every older transaction it is ordered against has
        already contributed its shards to the tainted set. Kept
        transactions therefore share no shard -- transitively -- with
        any requeued one, and every shard still observes its
        transactions in timestamp order (Definition 1).
        """
        plan, self._pending_migration = self._pending_migration, None
        now = self._sim_clock + out.breakdown.total
        report = ShardMigrator(self).migrate(
            plan, bulk_id=bulk_id, wave=index, now=now
        )
        tainted = {plan.src, plan.dst}
        requeued: List[Transaction] = []
        for k in range(index, len(waves)):
            kind_k, txns_k = waves[k]
            kept: List[Transaction] = []
            for txn in txns_k:
                homes = self.router.home_shards(
                    txn.txn_id, shard_map[txn.txn_id]
                )
                if homes & tainted:
                    tainted |= homes
                    requeued.append(txn)
                else:
                    kept.append(txn)
            waves[k] = (kind_k, kept)
        if requeued:
            self.pool.requeue(requeued)
        report.requeued = len(requeued)
        out.requeued += len(requeued)
        out.migrations.append(report)
        out.breakdown.add(PHASE_MIGRATION, report.seconds)
        return report

    # ------------------------------------------------------------------
    @staticmethod
    def _segment_runs(
        transactions: Sequence[Transaction],
        shard_map: Dict[int, "frozenset[int]"],
    ) -> List[Tuple[str, List[Transaction]]]:
        """Split a timestamp-ordered bulk into maximal same-kind runs."""
        waves: List[Tuple[str, List[Transaction]]] = []
        for txn in transactions:
            kind = (
                "coordinator"
                if len(shard_map[txn.txn_id]) > 1
                else "parallel"
            )
            if waves and waves[-1][0] == kind:
                waves[-1][1].append(txn)
            else:
                waves.append((kind, [txn]))
        return waves

    def _segment_packed(
        self,
        transactions: Sequence[Transaction],
        shard_map: Dict[int, "frozenset[int]"],
    ) -> List[Tuple[str, List[Transaction]]]:
        """Conflict-aware wave packing for the parallel commit mode.

        Each transaction (visited in timestamp order) joins the
        earliest same-kind wave that keeps every pair of transactions
        touching a **common shard** in timestamp order: at or after
        the youngest same-kind wave sharing a shard (safe to share,
        because a shard engine executes its sub-bulk in timestamp
        order and a coordinator wave is interpreted in timestamp
        order), and strictly after any different-kind wave sharing a
        shard (those only order across the wave barrier).

        Conflicting transactions always share a shard, so this is a
        conservative coarsening of conflict tracking -- and a stronger
        invariant falls out: on every shard, transactions touch its
        state in timestamp order, whatever the wave structure. That
        keeps outcomes, per-shard physical state and halted-bulk
        requeues byte-identical to the serial-leader schedule while
        coalescing the run-segmented bulk's many tiny coordinator
        waves (whose per-wave sync dominates) into a few large ones.
        """
        waves: List[Tuple[str, List[Transaction]]] = []
        # Per kind, shard -> index of the youngest wave of that kind
        # touching the shard: all the placement rule ever reads.
        parallel: Dict[int, int] = {}
        coordinator: Dict[int, int] = {}
        for txn in transactions:
            shards = shard_map[txn.txn_id]
            if len(shards) > 1:
                kind, same, other = "coordinator", coordinator, parallel
            else:
                kind, same, other = "parallel", parallel, coordinator
            earliest = 0
            for shard in shards:
                earliest = max(
                    earliest, same.get(shard, 0), other.get(shard, -1) + 1
                )
            for index in range(earliest, len(waves)):
                if waves[index][0] == kind:
                    waves[index][1].append(txn)
                    break
            else:
                index = len(waves)
                waves.append((kind, [txn]))
            for shard in shards:
                same[shard] = index
        return waves

    def _run_parallel_wave(
        self,
        wave_txns: List[Transaction],
        ops: OpArray,
        shard_map: Dict[int, "frozenset[int]"],
        strategy: str,
        options: Dict[str, Any],
        out: ClusterExecutionResult,
        bulk_id: int,
        wave_index: int,
    ) -> bool:
        """Run one parallel wave; returns True if any shard deferred
        transactions (the caller must then stop the bulk)."""
        by_shard: Dict[int, List[Transaction]] = {}
        for txn in wave_txns:
            # A parallel wave holds single-shard transactions.
            (home,) = self.router.home_shards(
                txn.txn_id, shard_map[txn.txn_id]
            )
            by_shard.setdefault(home, []).append(txn)
        wave = WaveReport(
            kind="parallel",
            size=len(wave_txns),
            seconds=0.0,
            shards=tuple(sorted(by_shard)),
        )
        session = telemetry.current()
        wave_span = None
        if session is not None:
            wave_span = session.tracer.begin(
                f"wave-{wave_index}",
                cat=telemetry.CAT_WAVE,
                kind="parallel",
                size=len(wave_txns),
                shards=sorted(by_shard),
            )
        critical_breakdown: Optional[TimeBreakdown] = None
        any_deferred = False
        # Each shard seals the outcomes of its own sub-bulk.
        shares: List[Tuple[int, str, ResultColumns]] = []
        now = self._sim_clock + out.breakdown.total
        for shard, txns in sorted(by_shard.items()):
            engine = self.shards[shard]
            if session is not None:
                # Shard sub-bulks run in parallel: each one's engine
                # emission lands on its own lane (including its DMA
                # phases, which would interleave on a shared lane) and
                # at the "shard" layer, leaving the wave cursor alone
                # so every shard starts at the wave start.
                tracer = session.tracer
                tracer.track = tracer.dma_track = f"shard{shard}"
                tracer.layer = "shard"
            try:
                result = engine.execute_bulk(
                    txns,
                    strategy=strategy,
                    ops=ops.select([t.txn_id for t in txns]),
                    **dict(options),
                )
            finally:
                if session is not None:
                    tracer = session.tracer
                    tracer.track = "cluster"
                    tracer.layer = "cluster"
                    tracer.dma_track = "dma"
            # A streaming strategy's deferred transactions are back in
            # the (shared) pool, in the cluster-wide timestamp order.
            if result.deferred:
                any_deferred = True
            out.results.extend(result.results)
            out.shard_busy_s[shard] += result.seconds
            out.shard_txns[shard] = (
                out.shard_txns.get(shard, 0) + len(result.results)
            )
            out.shard_aborts[shard] = (
                out.shard_aborts.get(shard, 0) + result.aborted
            )
            wave.strategies[shard] = result.strategy
            wave.shard_sizes[shard] = len(txns)
            if result.seconds > wave.seconds:
                wave.seconds = result.seconds
                critical_breakdown = result.breakdown
            shares.append((shard, result.strategy, result.results))
        # The wave ends when its slowest shard does: charge the
        # critical shard's phase breakdown, not the sum over shards.
        if critical_breakdown is not None:
            for phase, seconds in critical_breakdown.phases.items():
                self._charge(out, phase, seconds)
        self._seal_wave(out, bulk_id, wave_index, now, shares)
        if wave_span is not None:
            session.tracer.end(
                wave_span,
                advance_parent=True,
                strategies=wave.strategies,
                deferred=any_deferred,
            )
        out.n_single_shard += len(wave_txns)
        out.waves.append(wave)
        return any_deferred

    def _run_coordinator_wave(
        self,
        wave_txns: List[Transaction],
        ops: OpArray,
        shard_map: Dict[int, "frozenset[int]"],
        out: ClusterExecutionResult,
        bulk_id: int,
        wave_index: int,
    ) -> None:
        parallel = self.cross_shard == "parallel"
        leader_strategy = PARALLEL_STRATEGY if parallel else LEADER_STRATEGY
        session = telemetry.current()
        wave_span = None
        if session is not None:
            wave_span = session.tracer.begin(
                f"wave-{wave_index}",
                cat=telemetry.CAT_WAVE,
                kind="coordinator",
                size=len(wave_txns),
                mode=self.cross_shard,
            )
        if parallel:
            result = self.coordinator.execute_parallel(
                wave_txns,
                ops.select([t.txn_id for t in wave_txns]),
                shard_map,
            )
        else:
            result = self.coordinator.execute(wave_txns, shard_map)
        # Shard engines record their own sub-bulks; the leader's
        # outcomes are the only ones the cluster records itself.
        self.results.record_many(result.results)
        out.results.extend(result.results)
        for group in result.groups:
            out.shard_busy_s[group.home] += group.seconds
            if wave_span is not None:
                # Followers execute their groups in parallel: one span
                # per group on its home shard's lane (starting after
                # the leader serialised its dispatch batch) replaces
                # the single serial leader span on the cluster lane.
                start = wave_span.sim_start_s + group.start_s
                session.tracer.complete(
                    f"group-{group.index}",
                    start,
                    start + group.seconds,
                    parent=wave_span,
                    track=f"shard{group.home}",
                    layer="shard",
                    size=group.size,
                    shards=list(group.shards),
                    txn_lo=group.txn_lo,
                    txn_hi=group.txn_hi,
                )
        out.n_groups += len(result.groups)
        # Cluster-lane phase spans keep the per-phase totals
        # reconcilable with the breakdown in either mode. Group
        # dispatch is interconnect traffic: it rides the sync phase (a
        # DMA-lane phase), so the pipeline scheduler can drain it
        # under the next bulk's kernels.
        self._charge(out, PHASE_COORDINATOR, result.exec_seconds)
        self._charge(
            out, PHASE_SYNC, result.sync_seconds + result.dispatch_seconds
        )
        # The leader's writes landed on the touched shards' stores (and
        # in their recorders); every shard seals its share of the wave
        # -- the outcomes of the transactions that touch it. Untouched
        # shards append nothing.
        ids = result.results.txn_id
        shares = (
            (
                shard,
                leader_strategy,
                result.results.take(
                    [at for at, i in enumerate(ids) if shard in shard_map[i]]
                ),
            )
            for shard in range(self.n_shards)
        )
        now = self._sim_clock + out.breakdown.total
        self._seal_wave(out, bulk_id, wave_index, now, shares)
        if wave_span is not None:
            session.tracer.end(
                wave_span,
                advance_parent=True,
                shards=sorted(result.shards_touched),
                groups=len(result.groups),
            )
        out.n_cross_shard += len(wave_txns)
        out.waves.append(
            WaveReport(
                kind="coordinator",
                size=len(wave_txns),
                seconds=result.seconds,
                shards=result.shards_touched,
                groups=len(result.groups),
                leader_strategy=leader_strategy,
            )
        )

    def _seal_wave(
        self,
        out: ClusterExecutionResult,
        bulk_id: int,
        wave_index: int,
        now: float,
        shares: Iterable[Tuple[int, str, ResultColumns]],
    ) -> None:
        """Seal one wave into the WAL of every shard in ``shares``
        (``(shard, strategy, the shard's outcomes)``) and account it.

        The wave is not acknowledged until each shard's record reaches
        all its replicas; shards replicate in parallel, so the wave
        pays the slowest sync.
        """
        if self.durability is None:
            return
        wal_wait = 0.0
        for shard, strategy, results in shares:
            wal_wait = max(
                wal_wait,
                self.durability.unit(shard).commit_wave(
                    bulk_id=bulk_id,
                    wave=wave_index,
                    strategy=strategy,
                    results=results,
                    journal_epoch=self.shards[shard].adapter.journal.epoch,
                    now=now,
                ),
            )
        if wal_wait > 0.0:
            self._charge(out, PHASE_WAL_SYNC, wal_wait)

    @staticmethod
    def _charge(
        out: ClusterExecutionResult, phase: str, seconds: float
    ) -> None:
        """Account ``seconds`` of ``phase`` on the bulk's critical
        path: one breakdown entry and, when tracing, one phase span
        (on the DMA lane for the phases that ride the interconnect)."""
        out.breakdown.add(phase, seconds)
        session = telemetry.current()
        if session is not None:
            session.tracer.phase(
                phase,
                seconds,
                track="dma" if phase in telemetry.DMA_PHASES else None,
            )

    # ------------------------------------------------------------------
    # Failure injection and recovery (driven by FailoverController).
    # ------------------------------------------------------------------
    @property
    def bulk_seq(self) -> int:
        """Number of non-empty bulks executed so far."""
        return self._bulk_seq

    @property
    def dead_shards(self) -> "frozenset[int]":
        return frozenset(self._dead)

    def _kill_shard(self, shard: int) -> None:
        """Simulate losing ``shard``'s device: engine and partition
        become unreachable; only the durable state (host/replica-side
        WAL + checkpoints) survives."""
        if self.durability is None:
            raise ClusterError(
                "cannot kill a shard without durability enabled: its "
                "partition would be unrecoverable"
            )
        if not 0 <= shard < self.n_shards:
            raise ClusterError(
                f"no shard {shard} in a {self.n_shards}-shard cluster"
            )
        if shard in self._dead:
            return
        engine = self.shards[shard]
        unit = self.durability.unit(shard)
        # Anything captured since the last sealed wave never reached
        # the replicas; it dies with the device.
        unit.recorder.cut()
        engine.adapter.detach_recorder(unit.recorder)
        # The last durable state equals the volatile state here (waves
        # are sealed synchronously); the handle lets recovery rebuild
        # an identically-configured engine and verify byte-identity.
        self._dead_engines[shard] = engine
        self._dead.add(shard)
        self.shards[shard] = _DeadHandle(shard, "engine")  # type: ignore[assignment]
        self.coordinator.adapter.adapters[shard] = _DeadHandle(
            shard, "store adapter"
        )

    def recover_shard(self, shard: int) -> RecoveryReport:
        """Promote a replica of ``shard``: checkpoint restore + WAL
        suffix replay, then re-route the shard id to the new engine."""
        if self.durability is None:
            raise ClusterError("durability is not enabled on this cluster")
        if shard not in self._dead:
            raise ClusterError(f"shard {shard} is not down")
        unit = self.durability.unit(shard)
        db, report = unit.promote()
        # Peek (don't pop) so a failed verification leaves the shard
        # dead-but-recoverable instead of unrecoverable.
        lost = self._dead_engines[shard]
        if not states_identical(db, lost.db):
            raise RecoveryError(
                f"promoted replica of shard {shard} diverged from "
                "the last durable state"
            )
        report.verified = True
        # One reconstruction path: the promoted engine inherits the
        # lost engine's exact configuration and type-id order.
        engine = lost.rebuild_on(db)
        engine.adapter.attach_recorder(unit.recorder)
        del self._dead_engines[shard]
        self.shards[shard] = engine
        self.coordinator.adapter.adapters[shard] = engine.adapter
        if shard == 0:
            # The cluster-level registry was shard 0's; rebind so
            # later register() calls stay visible to routing.
            self.registry = engine.registry
            self.coordinator.registry = engine.registry
        self._dead.discard(shard)
        # A fresh checkpoint reseeds the replicas: back to K copies.
        report.seconds += unit.reseed(
            engine.db, self._bulk_seq - 1, self._sim_clock + report.seconds
        )
        session = telemetry.current()
        if session is not None:
            # One "recovery" phase span (whose seconds reconcile with
            # the breakdown's recovery entry) wrapping the failover
            # decomposition: checkpoint restore, WAL-suffix replay,
            # and the redundancy-restoring reseed checkpoint.
            parts = [
                ("checkpoint_restore", report.restore_seconds),
                ("wal_replay", report.replay_seconds),
            ]
            reseed_seconds = report.seconds - (
                report.restore_seconds + report.replay_seconds
            )
            if reseed_seconds > 0.0:
                parts.append(("reseed_checkpoint", reseed_seconds))
            session.tracer.decomposed_phase(
                PHASE_RECOVERY,
                report.seconds,
                parts,
                track="cluster",
                layer="cluster",
                shard=shard,
                replica_device=report.replica_device,
                replayed_records=report.replayed_records,
                verified=report.verified,
            )
        return report

    def _check_replicated_tables(self) -> None:
        """Fail loudly if a bulk mutated a replicated table.

        Tables without a partition key are replicated to every shard
        and must stay read-only under cluster execution: a shard-local
        write would touch only one replica and silently break
        Definition 1. Replicas are compared after every bulk; shipped
        workloads partition every table, so this is free in practice.
        """
        for name, table in self.shards[0].db.tables.items():
            if table.schema.partition_key is not None:
                continue
            reference = self.shards[0].db.table_state(name)
            for engine in self.shards[1:]:
                if engine.db.table_state(name) != reference:
                    raise ClusterError(
                        f"replicated table {name!r} diverged across "
                        "shards: replicated tables are read-only under "
                        "cluster execution"
                    )

    # ------------------------------------------------------------------
    # State inspection (Definition 1 checks).
    # ------------------------------------------------------------------
    def logical_state(self) -> Dict[str, List[Tuple[Any, ...]]]:
        """Canonical merged content per table across all shards.

        Partitioned tables union their shards' rows; replicated tables
        (no partition key) are read from shard 0. Row order follows
        the same canonicalisation as ``Database.logical_state``.
        """
        states = [engine.db.logical_state() for engine in self.shards]
        state: Dict[str, List[Tuple[Any, ...]]] = {}
        for name, table in self.shards[0].db.tables.items():
            if table.schema.partition_key is None:
                state[name] = states[0][name]
            else:
                state[name] = sorted(
                    (row for shard in states for row in shard[name]),
                    key=repr,
                )
        return state
