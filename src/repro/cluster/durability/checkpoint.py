"""Copy-on-write checkpoints of a shard's partition.

A checkpoint is a :meth:`~repro.storage.catalog.Database.fork` of the
shard database -- O(tables x columns), independent of row count -- plus
the metadata needed to rebuild derived state (indexes) when the
checkpoint is restored during replica promotion. The fork shares the
column arrays with the live store until either side writes, so taking a
checkpoint after every bulk costs almost nothing up front; the copy
cost is paid incrementally, only for columns the subsequent workload
actually touches.

Cadence is bulk-based (``interval`` bulks between checkpoints), the
unit the durability overhead bench sweeps: a short interval shortens
the WAL suffix recovery must replay but ships more checkpoint bytes to
the replicas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import ConfigError, DurabilityError
from repro.storage.catalog import Database


@dataclass
class Checkpoint:
    """An immutable snapshot of one shard partition at one WAL position."""

    shard: int
    #: WAL records with ``lsn <= lsn`` are folded into this snapshot.
    lsn: int
    #: Bulk sequence number the snapshot was taken after (-1 = initial).
    bulk_id: int
    #: Host-side size (what a replica feed has to ship).
    nbytes: int
    #: The COW fork holding the rows (no indexes -- derived state).
    data: Database
    #: (name, table, columns, unique) per index, for rebuild on restore.
    index_specs: Tuple[Tuple[str, str, Tuple[str, ...], bool], ...]

    def restore(self) -> Database:
        """Materialise a live database from this snapshot.

        The snapshot itself is forked again (so the checkpoint stays
        pristine for other replicas) and the indexes are rebuilt over
        the restored rows -- index *content* is a pure function of the
        rows, and probe results are canonical (sorted buckets), so the
        rebuilt indexes behave identically to the lost originals.
        """
        db = self.data.fork()
        for name, table, columns, unique in self.index_specs:
            db.create_index(name, table, columns, unique=unique)
        return db


def fork_bytes(db: Database) -> int:
    """Bytes a copy-on-write fork of ``db`` writes: one 24-byte column
    descriptor per column, independent of row count."""
    return sum(24 * len(t.schema.columns) for t in db.tables.values())


def take_checkpoint(shard: int, db: Database, lsn: int, bulk_id: int) -> Checkpoint:
    """Snapshot ``db`` (a shard partition) at WAL position ``lsn``."""
    nbytes = sum(t.host_bytes() for t in db.tables.values())
    nbytes += sum(len(m) * 24 for m in db.static_maps.values())
    return Checkpoint(
        shard=shard,
        lsn=lsn,
        bulk_id=bulk_id,
        nbytes=nbytes,
        data=db.fork(),
        index_specs=tuple(db.index_specs()),
    )


class CheckpointManager:
    """Bulk-cadenced checkpointing for one shard."""

    def __init__(self, shard: int, interval: int) -> None:
        if interval < 1:
            raise ConfigError("checkpoint interval must be >= 1 bulk")
        self.shard = shard
        self.interval = interval
        self._bulks_since = 0
        self.taken = 0
        self.checkpoint_bytes = 0
        self._latest: Optional[Checkpoint] = None

    @property
    def latest(self) -> Checkpoint:
        if self._latest is None:
            raise DurabilityError(
                f"shard {self.shard} has no checkpoint yet"
            )
        return self._latest

    def take(self, db: Database, lsn: int, bulk_id: int) -> Checkpoint:
        """Unconditionally checkpoint (initial seed, post-recovery)."""
        checkpoint = take_checkpoint(self.shard, db, lsn, bulk_id)
        self._latest = checkpoint
        self._bulks_since = 0
        self.taken += 1
        self.checkpoint_bytes += checkpoint.nbytes
        return checkpoint

    def note_bulk(self, db: Database, lsn: int, bulk_id: int) -> Optional[Checkpoint]:
        """Count one committed bulk; checkpoint when the interval is due."""
        self._bulks_since += 1
        if self._bulks_since < self.interval:
            return None
        return self.take(db, lsn, bulk_id)
