"""Elastic shards: hot-shard detection and live range migration.

SMALLBANK-1 shows K-SET throughput degrading monotonically with
zipfian skew, and the bulk-execution model assumes balanced
partitions; a production deployment serving skewed traffic must split
and rebalance hot shards *online*. The primitives already exist in the
durability layer: a copy-on-write checkpoint fork plus a WAL-suffix
replay is exactly a migration mechanism. This module composes them:

* :class:`HotShardDetector` consumes the telemetry
  :class:`~repro.telemetry.metrics.MetricsRegistry` -- per-shard queue
  depth from the serve layer (``shard_queue_depth``), per-shard wave
  time (``shard_busy_seconds``) and conflict rate
  (``shard_conflict_rate``) from the cluster runtime -- and flags the
  shard whose queue has run away from the rest of the fleet;
* :class:`ShardMigrator` moves a key range between shards with zero
  ordering violations: it materialises the source shard's durable
  state off to the side (checkpoint fork + WAL tail,
  :meth:`~repro.cluster.durability.failover.ShardDurability.durable_snapshot`),
  extracts the migrating rows, applies them to the destination and
  deletes them from the source through the ordinary store adapters (so
  redo recorders and indexes stay correct and both shards seal a
  ``migration`` WAL record), then atomically swaps the
  :class:`~repro.cluster.router.RangeShardRouter` table in place.

Migration traffic rides the DMA timeline the way replication does --
the row copy queues on the source's copy engine -- so its cost shows
up honestly in the simulated clock, and in telemetry as a
``migration`` span with ``checkpoint_fork``/``wal_replay``/
``range_copy``/``router_swap`` children.

Orderings: between bulks (the serve loop's ``maybe_rebalance`` hook)
no transaction is in flight, so the swap is trivially safe. At a wave
boundary inside a bulk, :class:`~repro.cluster.runtime.ClusterTx`
requeues -- in timestamp order, the same path halted bulks use -- only
the transactions transitively affected by the swapped shards, so every
shard still observes its transactions in timestamp order
(Definition 1); unaffected shards' waves keep running.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

import numpy as np

import repro.telemetry as telemetry
from repro.cluster.durability.wal import MIGRATION_STRATEGY, PHASE_MIGRATION
from repro.errors import ClusterError, ConfigError
from repro.telemetry.metrics import MetricsRegistry

__all__ = [
    "ElasticConfig",
    "HotShardReport",
    "HotShardDetector",
    "MigrationPlan",
    "MigrationReport",
    "ShardMigrator",
    "ElasticController",
    "PHASE_MIGRATION",
]


#: Bulks that must pass between two migrations (the queue-depth signal
#: refreshes once per served bulk).
COOLDOWN_BULKS = 2

#: A shard is hot when its admission queue is more than this many
#: times the mean depth of the other live shards (and at least
#: ``ElasticConfig.min_queue_depth`` deep).
QUEUE_RATIO = 2.0


@dataclass(frozen=True)
class ElasticConfig:
    """Tuning knobs for online hot-shard detection and migration."""

    #: A shard is hot when its admission queue is :data:`QUEUE_RATIO`
    #: times the mean depth of the other live shards and at least this
    #: deep in absolute terms (small fleets idle at tiny depths where
    #: ratios are noise).
    min_queue_depth: int = 16
    #: Hard cap on migrations per cluster lifetime (safety valve).
    max_migrations: int = 8

    def __post_init__(self) -> None:
        if self.min_queue_depth < 1:
            raise ConfigError("min_queue_depth must be >= 1")
        if self.max_migrations < 0:
            raise ConfigError("max_migrations must be >= 0")


@dataclass(frozen=True)
class HotShardReport:
    """Why one shard was flagged hot, with the evidence."""

    shard: int
    queue_depth: float
    mean_other_depth: float
    busy_s: float
    mean_other_busy_s: float
    conflict_rate: float
    reason: str


@dataclass(frozen=True)
class MigrationPlan:
    """One range move: ``[key_lo, key_hi)`` from ``src`` to ``dst``."""

    src: int
    dst: int
    key_lo: int
    key_hi: int


@dataclass
class MigrationReport:
    """What one live migration moved, and what it cost."""

    bulk_id: int
    src: int
    dst: int
    key_lo: int
    key_hi: int
    moved_rows: int
    moved_bytes: int
    #: WAL tail records replayed to materialise the durable snapshot.
    tail_records: int
    #: Cost decomposition (simulated seconds).
    fork_seconds: float
    replay_seconds: float
    transfer_seconds: float
    wal_sync_seconds: float
    swap_seconds: float
    seconds: float
    #: Transactions requeued when the swap landed mid-bulk (0 between
    #: bulks).
    requeued: int = 0


class HotShardDetector:
    """Flags hot shards from the telemetry metrics registry.

    The primary signal is per-shard admission queue depth (the serve
    layer refreshes ``shard_queue_depth`` after every dispatched bulk):
    a queue that has run away from the fleet mean is load the shard is
    failing to drain. Wave time (``shard_busy_seconds``) and conflict
    rate (``shard_conflict_rate``) are reported as corroborating
    evidence -- a hot shard with low conflict rate splits well, one
    whose heat is a single contended key does not split below one key.
    """

    def __init__(self, config: Optional[ElasticConfig] = None) -> None:
        self.config = config or ElasticConfig()

    def scan(
        self,
        registry: MetricsRegistry,
        n_shards: int,
        dead: "frozenset[int]" = frozenset(),
    ) -> Optional[HotShardReport]:
        """The hottest flagged shard, or None when the fleet is level."""
        depth_gauge = registry.get("shard_queue_depth")
        if depth_gauge is None:
            return None
        busy_gauge = registry.get("shard_busy_seconds")
        conflict_gauge = registry.get("shard_conflict_rate")
        live = [k for k in range(n_shards) if k not in dead]
        if len(live) < 2:
            return None
        depths = {k: depth_gauge.value(shard=k) for k in live}
        busys = {
            k: busy_gauge.value(shard=k) if busy_gauge is not None else 0.0
            for k in live
        }
        best: Optional[HotShardReport] = None
        for shard in live:
            others = [depths[k] for k in live if k != shard]
            mean_other = sum(others) / len(others)
            depth = depths[shard]
            if depth < self.config.min_queue_depth:
                continue
            if depth <= QUEUE_RATIO * max(mean_other, 1.0):
                continue
            other_busy = [busys[k] for k in live if k != shard]
            report = HotShardReport(
                shard=shard,
                queue_depth=depth,
                mean_other_depth=mean_other,
                busy_s=busys[shard],
                mean_other_busy_s=sum(other_busy) / len(other_busy),
                conflict_rate=(
                    conflict_gauge.value(shard=shard)
                    if conflict_gauge is not None
                    else 0.0
                ),
                reason=(
                    f"queue depth {depth:.0f} vs fleet mean "
                    f"{mean_other:.1f} (ratio "
                    f"{depth / max(mean_other, 1.0):.1f}x > "
                    f"{QUEUE_RATIO}x)"
                ),
            )
            if best is None or report.queue_depth > best.queue_depth:
                best = report
        return best


class ShardMigrator:
    """Performs live range splits on a running :class:`ClusterTx`.

    The migrator reads the source shard through its *durable* state
    (checkpoint fork + WAL tail) -- byte-identical to the volatile
    partition at a wave boundary -- and writes both shards through
    their store adapters, so the move itself is WAL-logged on both
    sides: a shard killed at the next wave boundary replays its half of
    the migration from its own log and recovers byte-identically.
    """

    def __init__(self, cluster: Any) -> None:
        if cluster.router.kind != "range":
            raise ClusterError(
                "live migration requires router='range': a "
                f"{cluster.router.kind!r} router has no range table "
                "to split"
            )
        self.cluster = cluster

    # ------------------------------------------------------------------
    def plan(
        self,
        hot: HotShardReport,
        registry: Optional[MetricsRegistry] = None,
    ) -> Optional[MigrationPlan]:
        """Split the hot shard's widest range toward the coolest peer."""
        cluster = self.cluster
        ranges = cluster.router.ranges_of(hot.shard)
        if not ranges:
            return None
        lo, hi = max(ranges, key=lambda r: r[1] - r[0])
        if hi - lo < 2:
            return None  # a single key cannot be split
        # The lower half of the range stays; the upper half migrates.
        point = lo + max(1, (hi - lo) // 2)
        point = min(point, hi - 1)
        dst = self._coolest_peer(hot.shard, registry)
        if dst is None:
            return None
        return MigrationPlan(
            src=hot.shard, dst=dst, key_lo=point, key_hi=hi
        )

    def _coolest_peer(
        self, src: int, registry: Optional[MetricsRegistry]
    ) -> Optional[int]:
        cluster = self.cluster
        live = [
            k
            for k in range(cluster.n_shards)
            if k != src and k not in cluster.dead_shards
        ]
        if not live:
            return None
        depth_gauge = registry.get("shard_queue_depth") if registry else None
        if depth_gauge is not None:
            return min(live, key=lambda k: (depth_gauge.value(shard=k), k))
        return min(live)

    # ------------------------------------------------------------------
    def migrate(
        self,
        plan: MigrationPlan,
        *,
        bulk_id: int,
        wave: int = 0,
        now: float = 0.0,
    ) -> MigrationReport:
        """Execute ``plan`` at a quiesced boundary; returns the report.

        The caller (ClusterTx) guarantees no transaction is in flight:
        either between bulks or at a wave boundary with the affected
        shards' younger waves about to be requeued.
        """
        cluster = self.cluster
        self._validate(plan)
        src_engine = cluster.shards[plan.src]
        dst_engine = cluster.shards[plan.dst]
        durability = cluster.durability

        # 1. Materialise the source's durable state off to the side:
        #    COW checkpoint fork + WAL tail replay.
        if durability is not None:
            snapshot, tail_records, fork_s, replay_s = (
                durability.unit(plan.src).durable_snapshot()
            )
        else:
            # No durability layer: the live partition *is* the only
            # state; fork it directly (still COW, still metadata-only).
            snapshot = src_engine.db.fork()
            tail_records = 0
            fork_bytes = sum(
                24 * len(t.schema.columns)
                for t in snapshot.tables.values()
            )
            fork_s = src_engine.pcie.transfer_seconds(fork_bytes)
            replay_s = 0.0

        # 2. Extract the migrating rows from the snapshot and move
        #    them through the store adapters (index + WAL capture).
        moved_rows = 0
        moved_bytes = 0
        for name, table in snapshot.tables.items():
            pk_col = table.schema.partition_key
            if pk_col is None:
                continue  # replicated tables live everywhere already
            keys = np.asarray(table.column_array(pk_col), dtype=np.int64)
            mask = (
                ~table.deleted_mask()
                & (keys >= plan.key_lo)
                & (keys < plan.key_hi)
            )
            snap_rows = np.flatnonzero(mask)
            if not len(snap_rows):
                continue
            values = [table.read_row(int(r)) for r in snap_rows]
            src_table = src_engine.db.table(name)
            src_keys = np.asarray(
                src_table.column_array(pk_col), dtype=np.int64
            )
            src_mask = (
                ~src_table.deleted_mask()
                & (src_keys >= plan.key_lo)
                & (src_keys < plan.key_hi)
            )
            live_rows = np.flatnonzero(src_mask)
            if len(live_rows) != len(snap_rows):
                raise ClusterError(
                    f"durable snapshot of shard {plan.src} diverged "
                    f"from its live partition on table {name!r} "
                    f"({len(snap_rows)} vs {len(live_rows)} rows in "
                    f"[{plan.key_lo}, {plan.key_hi})): migration must "
                    "run at a sealed wave boundary"
                )
            dst_engine.adapter.insert_bulk(name, values)
            for row in live_rows:
                src_engine.adapter.delete(name, int(row))
            moved_rows += len(values)
            moved_bytes += len(values) * table.schema.row_width
        dst_engine.adapter.apply_batch()
        src_engine.adapter.apply_batch()

        # 3. The row copy rides the DMA timeline like replication: it
        #    queues on the source's copy engine behind any in-flight
        #    replica feeds.
        transfer_s = 0.0
        if moved_bytes:
            copy_s = src_engine.pcie.to_peer(
                moved_bytes, component="migration"
            )
            if durability is not None:
                sender = durability.unit(plan.src).replicas.sender
                _start, end = sender.schedule(copy_s, ready_at=now)
                transfer_s = end - now
            else:
                transfer_s = copy_s

        # 4. Both shards seal their half of the move. The entries are
        #    ordinary redo images, so a WAL suffix spanning the
        #    migration replays byte-identically.
        wal_wait = 0.0
        if durability is not None:
            for shard in (plan.dst, plan.src):
                wal_wait = max(
                    wal_wait,
                    durability.unit(shard).commit_wave(
                        bulk_id=bulk_id,
                        wave=wave,
                        strategy=MIGRATION_STRATEGY,
                        results=[],
                        journal_epoch=(
                            cluster.shards[shard].adapter.journal.epoch
                        ),
                        now=now,
                    ),
                )

        # 5. Atomic router-table swap: one quiesce/release barrier and
        #    every router holder (admission, coordinator, cluster
        #    adapter) routes by the new ranges.
        moved_segments = cluster.router.split(
            plan.key_lo, plan.key_hi, plan.dst
        )
        if any(owner != plan.src for _lo, _hi, owner in moved_segments):
            raise ClusterError(
                f"migration plan [{plan.key_lo}, {plan.key_hi}) crossed "
                "ranges not owned by the source shard"
            )
        swap_s = cluster.coordinator.barrier_seconds()

        seconds = fork_s + replay_s + transfer_s + wal_wait + swap_s
        report = MigrationReport(
            bulk_id=bulk_id,
            src=plan.src,
            dst=plan.dst,
            key_lo=plan.key_lo,
            key_hi=plan.key_hi,
            moved_rows=moved_rows,
            moved_bytes=moved_bytes,
            tail_records=tail_records,
            fork_seconds=fork_s,
            replay_seconds=replay_s,
            transfer_seconds=transfer_s,
            wal_sync_seconds=wal_wait,
            swap_seconds=swap_s,
            seconds=seconds,
        )
        self._emit_telemetry(report)
        return report

    # ------------------------------------------------------------------
    def _validate(self, plan: MigrationPlan) -> None:
        cluster = self.cluster
        if plan.src == plan.dst:
            raise ConfigError("migration source and destination coincide")
        for shard, role in ((plan.src, "source"), (plan.dst, "destination")):
            if not 0 <= shard < cluster.n_shards:
                raise ConfigError(
                    f"migration {role} shard {shard} out of range"
                )
            if shard in cluster.dead_shards:
                raise ClusterError(
                    f"migration {role} shard {shard} is down"
                )
        # The moving range must be owned by the source, end to end --
        # splitting someone else's keys would move rows the source
        # doesn't have.
        covered = sorted(
            (max(lo, plan.key_lo), min(hi, plan.key_hi))
            for lo, hi in cluster.router.ranges_of(plan.src)
            if lo < plan.key_hi and hi > plan.key_lo
        )
        cursor = plan.key_lo
        for lo, hi in covered:
            if lo > cursor:
                break
            cursor = max(cursor, hi)
        if cursor < plan.key_hi:
            raise ConfigError(
                f"migration range [{plan.key_lo}, {plan.key_hi}) is not "
                f"fully owned by shard {plan.src}"
            )

    def _emit_telemetry(self, report: MigrationReport) -> None:
        session = telemetry.current()
        if session is None:
            return
        tracer = session.tracer
        span = tracer.begin(
            PHASE_MIGRATION,
            cat=telemetry.CAT_PHASE,
            track="cluster",
            layer="cluster",
            src=report.src,
            dst=report.dst,
            key_lo=report.key_lo,
            key_hi=report.key_hi,
            moved_rows=report.moved_rows,
            moved_bytes=report.moved_bytes,
            requeued=report.requeued,
        )
        tracer.phase(
            "checkpoint_fork",
            report.fork_seconds,
            cat=telemetry.CAT_SPAN,
            track="dma",
        )
        tracer.phase(
            "wal_replay",
            report.replay_seconds,
            cat=telemetry.CAT_SPAN,
            track="dma",
        )
        copy_seconds = report.transfer_seconds + report.wal_sync_seconds
        if copy_seconds > 0.0:
            tracer.phase(
                "range_copy",
                copy_seconds,
                cat=telemetry.CAT_SPAN,
                track="dma",
            )
        tracer.phase(
            "router_swap",
            report.swap_seconds,
            cat=telemetry.CAT_SPAN,
            track="dma",
        )
        tracer.end(
            span,
            sim_end=span.sim_start_s + report.seconds,
            advance_parent=True,
        )
        metrics = session.metrics
        metrics.counter(
            "shard_migrations", "live range migrations performed"
        ).inc()
        metrics.counter(
            "migration_rows", "rows moved by live migrations"
        ).inc(report.moved_rows)
        metrics.counter(
            "migration_bytes", "bytes moved by live migrations"
        ).inc(report.moved_bytes)


class ElasticController:
    """Detector + migrator + pacing, bound to one cluster.

    :meth:`ClusterTx.maybe_rebalance` delegates here between bulks:
    scan the metrics registry, plan a split of the hottest shard, and
    execute it immediately (nothing is in flight between bulks).
    """

    def __init__(self, cluster: Any, config: ElasticConfig) -> None:
        self.cluster = cluster
        self.config = config
        self.detector = HotShardDetector(config)
        self.migrator = cluster._migrator_for()
        self.reports: List[MigrationReport] = []
        self._last_migration_bulk: Optional[int] = None

    def maybe_rebalance(self, now: float) -> Optional[MigrationReport]:
        session = telemetry.current()
        if session is None:
            return None  # no metrics to detect from
        cluster = self.cluster
        if cluster.dead_shards:
            return None  # recovery first, rebalancing second
        if len(self.reports) >= self.config.max_migrations:
            return None
        if (
            self._last_migration_bulk is not None
            and cluster.bulk_seq - self._last_migration_bulk
            < COOLDOWN_BULKS
        ):
            return None
        hot = self.detector.scan(
            session.metrics, cluster.n_shards, dead=cluster.dead_shards
        )
        if hot is None:
            return None
        plan = self.migrator.plan(hot, session.metrics)
        if plan is None:
            return None
        report = self.migrator.migrate(
            plan, bulk_id=cluster.bulk_seq, wave=0, now=now
        )
        self._last_migration_bulk = cluster.bulk_seq
        self.reports.append(report)
        return report
