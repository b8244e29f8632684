"""Replica sets and shard-level durability orchestration.

Durability is "replications on multiple machines" (Appendix D), made
concrete: each shard keeps K synchronous replicas, placed on peer
devices by chained declustering
(:func:`repro.cluster.durability.failover` uses
:func:`repro.cluster.router.replica_placement`). Every WAL record and
every checkpoint is shipped to all K replicas over the shard's
simulated PCIe/DMA link (:class:`~repro.gpu.transfer.TransferTimeline`
per endpoint; the primary's single copy engine serialises the K feeds)
and the wave is not acknowledged until the last replica has it -- that
wait is the ``wal_sync`` phase the durability bench sweeps.

:class:`ShardDurability` bundles one shard's WAL, redo recorder,
checkpoint manager and replica set; :class:`ClusterDurability` holds
one unit per shard and the cluster-wide accounting. Promotion
(:meth:`ShardDurability.promote`) restores the newest checkpoint,
replays the WAL suffix, and hands back a database that is
byte-identical to the failed shard's last durable state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import repro.telemetry as telemetry
from repro.cluster.durability.checkpoint import (
    Checkpoint,
    CheckpointManager,
    fork_bytes,
)
from repro.cluster.durability.replay import ReplayStats, recover_database
from repro.cluster.durability.wal import RedoRecorder, ShardWAL, WalRecord
from repro.cluster.router import replica_placement
from repro.core.txn import ResultColumns
from repro.errors import DurabilityError, check_int
from repro.gpu.transfer import PCIeModel, TransferTimeline
from repro.storage.catalog import Database


@dataclass(frozen=True)
class DurabilityConfig:
    """Tuning knobs for the durable cluster runtime."""

    #: Bulks between copy-on-write checkpoints of each partition.
    checkpoint_interval: int = 8
    #: Synchronous replicas per shard. 0 keeps WAL + checkpoints on the
    #: host only (no replication traffic); recovery still works in the
    #: simulation, but a real deployment would want K >= 1.
    n_replicas: int = 1

    def __post_init__(self) -> None:
        for name, minimum in (("checkpoint_interval", 1), ("n_replicas", 0)):
            value = check_int(name, getattr(self, name), minimum)
            object.__setattr__(self, name, value)


@dataclass
class Replica:
    """One synchronous replica of a shard, on a peer device."""

    shard: int
    device: int
    timeline: TransferTimeline
    synced_lsn: int = 0
    checkpoint_lsn: int = -1
    bytes_received: int = 0


@dataclass
class RecoveryReport:
    """What one replica promotion did, and what it cost."""

    shard: int
    #: Device the promoted replica lived on (None with K == 0).
    replica_device: Optional[int]
    checkpoint_lsn: int
    checkpoint_bulk: int
    replayed_records: int
    replayed_entries: int
    #: Simulated seconds: checkpoint restore + WAL suffix replay +
    #: the reseed checkpoint that restores redundancy.
    seconds: float
    #: Decomposed recovery cost: moving the checkpoint image to the
    #: promoted device ...
    restore_seconds: float = 0.0
    #: ... and moving + replaying the WAL suffix past it.
    replay_seconds: float = 0.0
    #: Promoted state diffed clean against the last durable state.
    verified: bool = False


class ReplicaSet:
    """K synchronous replicas of one shard, fed over the DMA model.

    The source device has a *single* copy engine (the C1060's one DMA
    engine, the same constraint the pipeline scheduler models), so the
    K feeds serialise at the sender: replica count buys fault
    tolerance at a linear cost in replication time -- the trade the
    durability bench sweeps.
    """

    def __init__(
        self, shard: int, n_replicas: int, pcie: PCIeModel, n_shards: int
    ) -> None:
        self.shard = shard
        self.pcie = pcie
        #: The primary's copy engine; all outbound feeds queue here.
        self.sender: TransferTimeline = pcie.timeline()
        devices = replica_placement(shard, n_shards, n_replicas)
        self.replicas = [
            Replica(shard=shard, device=device, timeline=pcie.timeline())
            for device in devices
        ]
        self.sync_seconds = 0.0
        self.shipped_bytes = 0

    def _ship(self, nbytes: int, now: float, lsn: int, is_checkpoint: bool) -> float:
        """Feed ``nbytes`` to every replica; returns the synchronous
        wait (time until the last replica has it)."""
        if not self.replicas:
            return 0.0
        done = now
        for replica in self.replicas:
            seconds = self.pcie.to_peer(
                nbytes,
                component="checkpoint" if is_checkpoint else "replication",
            )
            start, _ = self.sender.schedule(seconds, ready_at=now)
            # The receiving device sees the copy once the sender's
            # engine gets to it.
            _, end = replica.timeline.schedule(seconds, ready_at=start)
            replica.bytes_received += nbytes
            if is_checkpoint:
                replica.checkpoint_lsn = lsn
            else:
                replica.synced_lsn = max(replica.synced_lsn, lsn)
            done = max(done, end)
        wait = done - now
        self.sync_seconds += wait
        self.shipped_bytes += nbytes * len(self.replicas)
        return wait

    def replicate_record(self, record: WalRecord, now: float) -> float:
        return self._ship(
            record.record_bytes(), now, record.lsn, is_checkpoint=False
        )

    def replicate_checkpoint(self, checkpoint: Checkpoint, now: float) -> float:
        return self._ship(
            checkpoint.nbytes, now, checkpoint.lsn, is_checkpoint=True
        )


class ShardDurability:
    """One shard's WAL + redo recorder + checkpoints + replicas."""

    def __init__(
        self,
        shard: int,
        db: Database,
        pcie: PCIeModel,
        config: DurabilityConfig,
        n_shards: int,
    ) -> None:
        self.shard = shard
        self.pcie = pcie
        self.wal = ShardWAL(shard)
        self.recorder = RedoRecorder()
        self.checkpoints = CheckpointManager(shard, config.checkpoint_interval)
        self.replicas = ReplicaSet(shard, config.n_replicas, pcie, n_shards)
        self.wal_sync_seconds = 0.0
        self.checkpoint_sync_seconds = 0.0
        self.promotions = 0
        # Seed: the initial partition is checkpoint 0, replicated
        # before the cluster executes anything -- a shard is always
        # recoverable, even if it dies before its first bulk.
        seed = self.checkpoints.take(db, lsn=0, bulk_id=-1)
        self.replicas.replicate_checkpoint(seed, now=0.0)

    # ------------------------------------------------------------------
    def commit_wave(
        self,
        *,
        bulk_id: int,
        wave: int,
        strategy: str,
        results: ResultColumns,
        journal_epoch: int = 0,
        now: float = 0.0,
    ) -> float:
        """Seal the recorder's entries + ``results`` into a WAL record
        and replicate it; returns the synchronous wait in seconds.

        A wave in which this shard neither executed transactions nor
        mutated its store appends nothing.
        """
        redo = self.recorder.cut()
        if not redo and not results:
            return 0.0
        record = self.wal.append(
            bulk_id=bulk_id,
            wave=wave,
            strategy=strategy,
            results=results,
            redo=redo,
            journal_epoch=journal_epoch,
        )
        wait = self.replicas.replicate_record(record, now)
        self.wal_sync_seconds += wait
        session = telemetry.current()
        if session is not None:
            session.metrics.counter(
                "wal_bytes", "WAL record bytes appended"
            ).inc(record.record_bytes(), shard=self.shard)
            session.metrics.counter(
                "wal_records", "WAL records appended"
            ).inc(shard=self.shard)
        return wait

    def note_bulk(self, db: Database, bulk_id: int, now: float) -> float:
        """Advance the checkpoint cadence; returns checkpoint-ship
        seconds (0.0 when no checkpoint was due)."""
        checkpoint = self.checkpoints.note_bulk(
            db, self.wal.latest_lsn, bulk_id
        )
        if checkpoint is None:
            return 0.0
        return self._after_checkpoint(checkpoint, now)

    def _after_checkpoint(self, checkpoint: Checkpoint, now: float) -> float:
        wait = self.replicas.replicate_checkpoint(checkpoint, now)
        self.checkpoint_sync_seconds += wait
        # The replicated checkpoint covers the WAL prefix: drop it.
        self.wal.truncate_through(checkpoint.lsn)
        session = telemetry.current()
        if session is not None:
            session.metrics.counter(
                "checkpoint_bytes", "checkpoint image bytes shipped"
            ).inc(checkpoint.nbytes, shard=self.shard)
        return wait

    # ------------------------------------------------------------------
    def _read_durable(
        self,
    ) -> Tuple[Checkpoint, Database, ReplayStats, List[float]]:
        """The one durable read: the newest checkpoint with its WAL
        suffix replayed on a fork of it, and the interconnect seconds
        each replayed record costs. Defined only at a wave boundary."""
        if self.recorder.entries:
            raise DurabilityError(
                f"shard {self.shard} has redo entries not sealed into "
                "its WAL; commit the wave or discard them "
                "(recorder.cut()) first"
            )
        checkpoint = self.checkpoints.latest
        records = self.wal.suffix(checkpoint.lsn)
        db, stats = recover_database(checkpoint, records)
        record_seconds = [
            self.pcie.transfer_seconds(record.record_bytes())
            for record in records
        ]
        return checkpoint, db, stats, record_seconds

    def durable_snapshot(self) -> Tuple[Database, int, float, float]:
        """Materialise the shard's current durable state off to the side.

        COW-forks the newest checkpoint and replays the WAL tail past
        it -- the same checkpoint + suffix composition promotion uses,
        but on the *live* shard: because waves are sealed synchronously,
        the result is byte-identical to the shard's volatile partition,
        without touching it. This is the read side of a live range
        migration (:mod:`repro.cluster.elastic`).

        Returns ``(db, tail_records, fork_seconds, replay_seconds)``.
        The fork is metadata-only (O(tables x columns), the COW
        property checkpoints are built on); the tail replay pays the
        same per-record interconnect cost promotion charges.
        """
        _checkpoint, db, _stats, record_seconds = self._read_durable()
        fork_seconds = self.pcie.transfer_seconds(fork_bytes(db))
        return db, len(record_seconds), fork_seconds, sum(record_seconds)

    def promote(self) -> Tuple[Database, RecoveryReport]:
        """Restore the newest checkpoint and replay the WAL suffix.

        Returns the recovered database (byte-identical to the shard's
        last durable state) and a report with the replay statistics and
        the simulated recovery cost: the checkpoint image and the WAL
        suffix both cross the interconnect to the promoted device.
        """
        checkpoint, db, stats, record_seconds = self._read_durable()
        # ``seconds`` keeps the historical accumulation order (restore
        # first, then each record) so recovery cost is bit-stable.
        restore_seconds = self.pcie.transfer_seconds(checkpoint.nbytes)
        seconds = restore_seconds
        for one in record_seconds:
            seconds += one
        self.promotions += 1
        report = RecoveryReport(
            shard=self.shard,
            replica_device=(
                self.replicas.replicas[0].device if self.replicas.replicas else None
            ),
            checkpoint_lsn=checkpoint.lsn,
            checkpoint_bulk=checkpoint.bulk_id,
            replayed_records=stats.records,
            replayed_entries=stats.entries,
            seconds=seconds,
            restore_seconds=restore_seconds,
            replay_seconds=sum(record_seconds),
        )
        return db, report

    def reseed(self, db: Database, bulk_id: int, now: float) -> float:
        """Fresh post-recovery checkpoint, restoring full redundancy."""
        checkpoint = self.checkpoints.take(db, self.wal.latest_lsn, bulk_id)
        return self._after_checkpoint(checkpoint, now)


class ClusterDurability:
    """Per-shard durability units plus cluster-wide accounting."""

    def __init__(
        self,
        config: DurabilityConfig,
        engines: Sequence,
    ) -> None:
        self.units: List[ShardDurability] = [
            ShardDurability(shard, engine.db, engine.pcie, config, len(engines))
            for shard, engine in enumerate(engines)
        ]
        for engine, unit in zip(engines, self.units):
            engine.adapter.attach_recorder(unit.recorder)

    def unit(self, shard: int) -> ShardDurability:
        return self.units[shard]

    # -- aggregate stats -------------------------------------------------
    @property
    def wal_records(self) -> int:
        return sum(u.wal.appended_records for u in self.units)

    @property
    def wal_bytes(self) -> int:
        return sum(u.wal.appended_bytes for u in self.units)

    @property
    def checkpoints_taken(self) -> int:
        return sum(u.checkpoints.taken for u in self.units)

    @property
    def checkpoint_bytes(self) -> int:
        return sum(u.checkpoints.checkpoint_bytes for u in self.units)

    @property
    def replication_bytes(self) -> int:
        return sum(u.replicas.shipped_bytes for u in self.units)

    @property
    def promotions(self) -> int:
        return sum(u.promotions for u in self.units)
