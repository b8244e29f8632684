"""Deterministic replay of WAL records onto restored checkpoints.

Recovery is checkpoint + suffix: restore the newest replicated
checkpoint, then apply every WAL record past its LSN, in LSN order.
Each record's redo images are physical post-images in application
order, so replay is byte-identical to the original execution --
:func:`repro.core.tx_logging.apply_redo` verifies that replayed
inserts land on the same physical rows they originally did, and
``ClusterTx.recover_shard`` diffs the promoted result against the
failed shard's last durable state, which the simulation still has
(:func:`states_identical`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.cluster.durability.checkpoint import Checkpoint
from repro.cluster.durability.wal import WalRecord
from repro.core.tx_logging import apply_redo
from repro.errors import RecoveryError
from repro.storage.catalog import Database, StoreAdapter


@dataclass
class ReplayStats:
    """What a recovery replayed, for reports and benches."""

    records: int = 0
    entries: int = 0
    replayed_bytes: int = 0
    #: (txn_id -> committed) across the replayed records, for auditing
    #: the recovered shard's outcome set against the host result pool.
    outcomes: Dict[int, bool] = field(default_factory=dict)


def replay_records(
    db: Database, records: Sequence[WalRecord]
) -> ReplayStats:
    """Apply ``records`` (LSN-ascending) onto ``db`` in order."""
    stats = ReplayStats()
    adapter = StoreAdapter(db)
    last_lsn = 0
    for record in records:
        if record.lsn <= last_lsn:
            raise RecoveryError(
                f"WAL records out of order: lsn {record.lsn} after "
                f"{last_lsn}"
            )
        last_lsn = record.lsn
        stats.entries += apply_redo(adapter, record.redo)
        adapter.apply_batch()
        stats.records += 1
        stats.replayed_bytes += record.record_bytes()
        for txn_id, committed, _reason in record.outcomes:
            stats.outcomes[txn_id] = committed
    return stats


def recover_database(
    checkpoint: Checkpoint, records: Sequence[WalRecord]
) -> Tuple[Database, ReplayStats]:
    """Checkpoint restore + WAL suffix replay, in one step.

    ``records`` must be the suffix past the checkpoint's LSN; records
    at or before it are rejected (they are already folded into the
    snapshot, and double-applying them would corrupt the restore).
    """
    for record in records:
        if record.lsn <= checkpoint.lsn:
            raise RecoveryError(
                f"record lsn {record.lsn} is already covered by the "
                f"checkpoint at lsn {checkpoint.lsn}"
            )
    db = checkpoint.restore()
    stats = replay_records(db, records)
    return db, stats


def states_identical(a: Database, b: Database) -> bool:
    """Byte-identity proxy: exact rows, row order, and tombstones.

    Compares the two stores column against column -- the equality of
    :meth:`~repro.storage.catalog.Database.physical_state` without
    materialising it, except that a NaN equals a NaN (a replayed NaN is
    the same bytes, whatever IEEE says about ``==``).
    """
    if a.tables.keys() != b.tables.keys():
        return False
    for name, ta in a.tables.items():
        tb = b.tables[name]
        if ta.n_rows != tb.n_rows or len(ta.schema.columns) != len(
            tb.schema.columns
        ):
            return False
        if not np.array_equal(ta.deleted_mask(), tb.deleted_mask()):
            return False
        for ca, cb in zip(ta.schema.column_names, tb.schema.column_names):
            xa, xb = ta.column_array(ca), tb.column_array(cb)
            numeric = xa.dtype != object and xb.dtype != object
            if not np.array_equal(xa, xb, equal_nan=numeric):
                return False
    return True
