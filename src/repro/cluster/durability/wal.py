"""Per-shard write-ahead logging for the durable cluster runtime.

The single-device engine needs no re-do logging (Appendix D drops it:
"applications may achieve durability with non-logging methods, such as
replications on multiple machines"). The cluster runtime implements
exactly that method: every shard appends one :class:`WalRecord` per
committed wave -- bulk id, wave index, timestamp range, the strategy
Algorithm 1 chose, per-transaction outcomes, and the wave's physical
redo images -- and ships it synchronously to the shard's replicas
(:mod:`repro.cluster.durability.failover`) before the wave is reported
committed. Records are wave-granular so that *everything the cluster
has reported executed is durable*: a crash can only lose work that was
never acknowledged.

Redo capture piggybacks on the store adapter
(:meth:`repro.storage.catalog.StoreAdapter.attach_recorder`): a
:class:`RedoRecorder` observes every physical mutation in application
order, including abort rollbacks (which appear as ordinary writes and
cancel records), so replaying a shard's entries in order against a
checkpoint is byte-identical to the original execution. The entry
format and :func:`~repro.core.tx_logging.apply_redo` live in
:mod:`repro.core.tx_logging`, next to their undo-log siblings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Tuple

from repro.core.tx_logging import (
    REDO_CANCEL_DELETE,
    REDO_CANCEL_INSERT,
    REDO_DELETE,
    REDO_INSERT,
    REDO_WRITE,
    RedoEntry,
    redo_bytes,
)
from repro.core.txn import ResultColumns
from repro.errors import DurabilityError

#: Breakdown phases charged by the durability layer.
PHASE_WAL_SYNC = "wal_sync"
PHASE_CHECKPOINT = "checkpoint"
PHASE_RECOVERY = "recovery"
PHASE_MIGRATION = "migration"

#: Strategy name recorded for leader (cross-shard coordinator) waves.
LEADER_STRATEGY = "leader"
#: Strategy name recorded for grouped (parallel-commit) leader waves.
#: Replay never branches on the label -- redo entries are what replay
#: applies -- so the two modes' WAL suffixes replay identically; the
#: label only attributes records to a commit path for observability.
PARALLEL_STRATEGY = "leader-parallel"
#: Strategy name recorded for the row moves of a live range migration
#: (``repro.cluster.elastic``). Like the leader labels, replay never
#: branches on it: the migrating inserts/deletes are ordinary redo
#: entries, so a WAL suffix spanning a migration replays identically.
MIGRATION_STRATEGY = "migration"


class RedoRecorder:
    """Observes a StoreAdapter's physical mutations in order.

    One recorder is attached per shard adapter; :meth:`cut` harvests
    the entries accumulated since the previous cut (one wave's worth)
    for the shard's next WAL record.
    """

    def __init__(self) -> None:
        self.entries: List[RedoEntry] = []

    # -- StoreAdapter recorder protocol ---------------------------------
    def on_write(self, table: str, column: str, row: int, value: Any) -> None:
        self.entries.append((REDO_WRITE, table, column, row, value))

    def on_insert(self, table: str, row: int, values: Tuple[Any, ...]) -> None:
        self.entries.append((REDO_INSERT, table, "", row, values))

    def on_delete(self, table: str, row: int) -> None:
        self.entries.append((REDO_DELETE, table, "", row, None))

    def on_cancel_insert(self, table: str, row: int) -> None:
        self.entries.append((REDO_CANCEL_INSERT, table, "", row, None))

    def on_cancel_delete(self, table: str, row: int) -> None:
        self.entries.append((REDO_CANCEL_DELETE, table, "", row, None))

    # -------------------------------------------------------------------
    def cut(self) -> Tuple[RedoEntry, ...]:
        """Harvest and clear the accumulated entries."""
        entries = tuple(self.entries)
        self.entries.clear()
        return entries


@dataclass(frozen=True)
class WalRecord:
    """One committed wave of one shard, as shipped to its replicas."""

    lsn: int
    shard: int
    bulk_id: int
    wave: int
    #: Timestamp (= txn id) range of the wave's transactions.
    ts_lo: int
    ts_hi: int
    #: Execution strategy the shard chose (or ``"leader"``).
    strategy: str
    #: (txn_id, committed, abort_reason) per transaction.
    outcomes: Tuple[Tuple[int, bool, str], ...]
    #: Physical redo images, in application order.
    redo: Tuple[RedoEntry, ...]

    def record_bytes(self) -> int:
        """Wire size: 40 B header + 17 B/outcome + redo payload."""
        return 40 + 17 * len(self.outcomes) + redo_bytes(self.redo)


def outcomes_of(results: ResultColumns) -> Tuple[Tuple[int, bool, str], ...]:
    """Compress a wave's result columns into WAL outcome triples."""
    return tuple(zip(results.txn_id, results.committed, results.abort_reason))


class ShardWAL:
    """Append-only log of one shard's committed waves.

    The WAL is host/replica-resident state: it survives the shard
    device's failure by construction. ``truncate_through`` discards the
    prefix a replicated checkpoint has made redundant; ``suffix`` is
    what replica promotion replays on top of that checkpoint.
    """

    def __init__(self, shard: int) -> None:
        self.shard = shard
        self.records: List[WalRecord] = []
        self._next_lsn = 1
        #: Lifetime counters (survive truncation).
        self.appended_records = 0
        self.appended_bytes = 0

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    @property
    def latest_lsn(self) -> int:
        """LSN of the newest record ever appended (0 when none)."""
        return self._next_lsn - 1

    def append(
        self,
        *,
        bulk_id: int,
        wave: int,
        strategy: str,
        results: ResultColumns,
        redo: Tuple[RedoEntry, ...],
    ) -> WalRecord:
        """Seal one committed wave into a record; returns it."""
        txn_ids = results.txn_id
        record = WalRecord(
            lsn=self._next_lsn,
            shard=self.shard,
            bulk_id=bulk_id,
            wave=wave,
            ts_lo=min(txn_ids) if txn_ids else -1,
            ts_hi=max(txn_ids) if txn_ids else -1,
            strategy=strategy,
            outcomes=outcomes_of(results),
            redo=redo,
        )
        self._next_lsn += 1
        self.records.append(record)
        self.appended_records += 1
        self.appended_bytes += record.record_bytes()
        return record

    def suffix(self, after_lsn: int) -> List[WalRecord]:
        """Records with ``lsn > after_lsn`` (the replay tail)."""
        return [r for r in self.records if r.lsn > after_lsn]

    def truncate_through(self, lsn: int) -> int:
        """Drop records with ``lsn <= lsn``; returns how many.

        Only legal once a checkpoint covering ``lsn`` has been made
        durable -- the caller (ShardDurability) enforces that ordering.
        """
        if lsn > self.latest_lsn:
            raise DurabilityError(
                f"cannot truncate shard {self.shard} WAL through lsn "
                f"{lsn}: latest appended lsn is {self.latest_lsn}"
            )
        kept = [r for r in self.records if r.lsn > lsn]
        dropped = len(self.records) - len(kept)
        self.records = kept
        return dropped
