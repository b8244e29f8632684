"""Elastic shards: hot-shard detection and live range migration.

SMALLBANK-1 shows K-SET throughput degrading monotonically with
zipfian skew, and the bulk-execution model assumes balanced
partitions; a production deployment serving skewed traffic must split
and rebalance hot shards *online*. The primitives already exist in the
durability layer: a copy-on-write checkpoint fork plus a WAL-suffix
replay is exactly a migration mechanism. This module composes them:

* :class:`HotShardDetector` reads shard state handed to it as plain
  mappings -- per-shard admission queue depth from the serve loop (its
  snapshot after each dispatched bulk), per-shard busy seconds and
  abort share of the last bulk from the cluster runtime -- and flags
  the shard whose queue has run away from the rest of the fleet
  (the telemetry gauges of the same values are for reports only);
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
from types import MappingProxyType
from typing import Any, Dict, List, Mapping, Optional

import numpy as np

import repro.telemetry as telemetry
from repro.cluster.durability.checkpoint import fork_bytes
from repro.cluster.durability.wal import MIGRATION_STRATEGY, PHASE_MIGRATION
from repro.core.txn import ResultColumns
from repro.errors import ClusterError, ConfigError, check_int
from repro.storage.catalog import row_tuples

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

_NO_SIGNAL: Mapping[int, float] = MappingProxyType({})


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
        for name, minimum in (("min_queue_depth", 1), ("max_migrations", 0)):
            value = check_int(name, getattr(self, name), minimum)
            object.__setattr__(self, name, value)


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
    """Flags hot shards from per-shard state passed as plain mappings.

    The primary signal is per-shard admission queue depth (the serve
    loop snapshots it after every dispatched bulk): a queue that has
    run away from the fleet mean is load the shard is failing to
    drain. Busy seconds and abort share of the last bulk are reported
    as corroborating evidence -- a hot shard with low conflict rate
    splits well, one whose heat is a single contended key does not
    split below one key. A shard absent from a mapping reads 0.
    """

    def __init__(self, config: Optional[ElasticConfig] = None) -> None:
        self.config = config or ElasticConfig()

    def scan(
        self,
        depths: Mapping[int, float],
        n_shards: int,
        dead: "frozenset[int]" = frozenset(),
        *,
        busy: Mapping[int, float] = _NO_SIGNAL,
        conflict: Mapping[int, float] = _NO_SIGNAL,
    ) -> Optional[HotShardReport]:
        """The hottest flagged shard, or None when the fleet is level
        (or ``depths`` is empty: no per-shard admission)."""
        live = [k for k in range(n_shards) if k not in dead]
        if not depths or len(live) < 2:
            return None
        best: Optional[HotShardReport] = None
        for shard in live:
            others = [depths.get(k, 0) for k in live if k != shard]
            mean_other = sum(others) / len(others)
            depth = depths.get(shard, 0)
            if depth < self.config.min_queue_depth:
                continue
            if depth <= QUEUE_RATIO * max(mean_other, 1.0):
                continue
            other_busy = [busy.get(k, 0.0) for k in live if k != shard]
            report = HotShardReport(
                shard=shard,
                queue_depth=depth,
                mean_other_depth=mean_other,
                busy_s=busy.get(shard, 0.0),
                mean_other_busy_s=sum(other_busy) / len(other_busy),
                conflict_rate=conflict.get(shard, 0.0),
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


def _rows_in_range(table: Any, plan: MigrationPlan) -> np.ndarray:
    """Live rows of ``table`` whose partition key is in ``plan``'s range."""
    keys = np.asarray(
        table.column_array(table.schema.partition_key), dtype=np.int64
    )
    return np.flatnonzero(
        ~table.deleted_mask() & (keys >= plan.key_lo) & (keys < plan.key_hi)
    )


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
        self, hot: HotShardReport, depths: Mapping[int, float]
    ) -> Optional[MigrationPlan]:
        """Split the hot shard's widest range toward the coolest peer
        (the live shard with the shallowest queue in ``depths``)."""
        cluster = self.cluster
        ranges = cluster.router.ranges_of(hot.shard)
        if not ranges:
            return None
        lo, hi = max(ranges, key=lambda r: r[1] - r[0])
        if hi - lo < 2:
            return None  # a single key cannot be split
        # The lower half of the range stays; the upper half migrates
        # (both non-empty: the range holds at least two keys).
        point = lo + (hi - lo) // 2
        peers = [
            k
            for k in range(cluster.n_shards)
            if k != hot.shard and k not in cluster.dead_shards
        ]
        if not peers:
            return None
        dst = min(peers, key=lambda k: (depths.get(k, 0), k))
        return MigrationPlan(
            src=hot.shard, dst=dst, key_lo=point, key_hi=hi
        )

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
            fork_s = src_engine.pcie.transfer_seconds(fork_bytes(snapshot))
            replay_s = 0.0

        # 2. Extract the migrating rows from the snapshot and move
        #    them through the store adapters (index + WAL capture).
        moved_rows = 0
        moved_bytes = 0
        for name, table in snapshot.tables.items():
            if table.schema.partition_key is None:
                continue  # replicated tables live everywhere already
            snap_rows = _rows_in_range(table, plan)
            if not len(snap_rows):
                continue
            values = row_tuples(table, snap_rows)
            live_rows = _rows_in_range(src_engine.db.table(name), plan)
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
                        results=ResultColumns(),
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
        for name in ("src", "dst", "key_lo", "key_hi"):
            check_int(f"migration {name}", getattr(plan, name))
        if plan.key_lo >= plan.key_hi:
            raise ConfigError(
                f"migration range [{plan.key_lo}, {plan.key_hi}) is empty"
            )
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
        copy_seconds = report.transfer_seconds + report.wal_sync_seconds
        parts = [
            ("checkpoint_fork", report.fork_seconds),
            ("wal_replay", report.replay_seconds),
        ]
        if copy_seconds > 0.0:
            parts.append(("range_copy", copy_seconds))
        parts.append(("router_swap", report.swap_seconds))
        session.tracer.decomposed_phase(
            PHASE_MIGRATION,
            report.seconds,
            parts,
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
    scan the per-shard queue depths the serve loop hands over, plan a
    split of the hottest shard, and execute it immediately (nothing is
    in flight between bulks).
    """

    def __init__(self, cluster: Any, config: ElasticConfig) -> None:
        self.cluster = cluster
        self.config = config
        self.detector = HotShardDetector(config)
        self.migrator = ShardMigrator(cluster)
        self.reports: List[MigrationReport] = []
        self._last_migration_bulk: Optional[int] = None
        #: Per-shard busy seconds and abort share of the last executed
        #: bulk (:meth:`note_bulk`): the detector's evidence columns.
        self._busy: Dict[int, float] = {}
        self._conflict: Dict[int, float] = {}

    def note_bulk(
        self, busy_s: List[float], abort_share: Mapping[int, float]
    ) -> None:
        """Keep one executed bulk's per-shard busy seconds and abort
        share; a shard that executed nothing keeps its last share."""
        self._busy = dict(enumerate(busy_s))
        self._conflict.update(abort_share)

    def maybe_rebalance(
        self, depths: Mapping[int, float]
    ) -> Optional[MigrationReport]:
        cluster = self.cluster
        if len(self.reports) >= self.config.max_migrations:
            return None
        if (
            self._last_migration_bulk is not None
            and cluster.bulk_seq - self._last_migration_bulk
            < COOLDOWN_BULKS
        ):
            return None
        hot = self.detector.scan(
            depths,
            cluster.n_shards,
            dead=cluster.dead_shards,
            busy=self._busy,
            conflict=self._conflict,
        )
        if hot is None:
            return None
        plan = self.migrator.plan(hot, depths)
        if plan is None:
            return None
        report = cluster.migrate(plan)  # lands in ``reports``
        self._last_migration_bulk = cluster.bulk_seq
        return report
