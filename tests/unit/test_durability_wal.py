"""Unit tests for the durability building blocks.

Covers the copy-on-write store forks, the redo recorder + replay pair,
the per-shard WAL, checkpoint cadence and restore, replica placement
and synchronous feed timing, and the small integration seams (journal
epochs, pipeline DMA phases, engine rebuild).
"""

import numpy as np
import pytest

from repro.cluster.durability import (
    CheckpointManager,
    DurabilityConfig,
    RedoRecorder,
    ReplicaSet,
    ShardWAL,
    take_checkpoint,
)
from repro.cluster.durability.replay import (
    recover_database,
    replay_records,
    states_identical,
)
from repro.cluster.durability.wal import PHASE_CHECKPOINT, PHASE_WAL_SYNC
from repro.cluster.router import replica_placement
from repro.core import tx_logging
from repro.core.txn import ResultColumns, TxnResult
from repro.errors import (
    ConfigError,
    DurabilityError,
    RecoveryError,
    StorageError,
)
from repro.gpu.spec import C1060
from repro.gpu.transfer import PCIeModel
from repro.storage.catalog import Database, StoreAdapter
from repro.storage.schema import ColumnDef, DataType, TableSchema

from tests.conftest import build_bank_db


def result(txn_id, committed=True, reason=""):
    return TxnResult(
        txn_id=txn_id, type_name="t", committed=committed, abort_reason=reason
    )


def wave_results(*results):
    """A wave's results as the column record the WAL reads."""
    return ResultColumns.of(results)


# ---------------------------------------------------------------------------
# Copy-on-write forks.
# ---------------------------------------------------------------------------
class TestCowFork:
    def test_fork_is_independent_under_writes(self):
        db = build_bank_db(8)
        fork = db.fork()
        db.table("accounts").write("balance", 3, 999)
        assert fork.table("accounts").read("balance", 3) == 100
        fork.table("accounts").write("balance", 4, -1)
        assert db.table("accounts").read("balance", 4) == 100

    def test_fork_is_independent_under_appends_and_deletes(self):
        db = build_bank_db(4)
        fork = db.fork()
        db.table("accounts").append_rows([(99, 1, 0)])
        db.table("accounts").mark_deleted(0)
        assert fork.table("accounts").n_rows == 4
        assert not fork.table("accounts").is_deleted(0)
        # And the other direction.
        fork.table("accounts").mark_deleted(1)
        assert not db.table("accounts").is_deleted(1)

    def test_fork_of_fork_chains(self):
        db = build_bank_db(4)
        a = db.fork()
        b = a.fork()
        db.table("accounts").write("balance", 0, 7)
        a.table("accounts").write("balance", 0, 8)
        assert b.table("accounts").read("balance", 0) == 100

    def test_fork_drops_indexes_but_keeps_static_maps(self):
        db = build_bank_db(4)
        db.create_index("accounts_pk", "accounts", ["id"])
        db.create_static_map("names", {"zero": 0})
        fork = db.fork()
        assert fork.indexes == {}
        assert fork.static_maps["names"] == {"zero": 0}
        assert db.index_specs() == [
            ("accounts_pk", "accounts", ("id",), True)
        ]

    def test_row_layout_fork(self):
        db = build_bank_db(4, layout="row")
        fork = db.fork()
        db.table("accounts").write("balance", 1, 55)
        assert fork.table("accounts").read("balance", 1) == 100
        assert states_identical(fork, build_bank_db(4, layout="row"))

    def test_physical_state_distinguishes_row_order(self):
        a = Database()
        schema = TableSchema("t", [ColumnDef("k", DataType.INT64)])
        a.create_table(schema).append_rows([(1,), (2,)])
        b = Database()
        b.create_table(schema).append_rows([(2,), (1,)])
        assert a.logical_state() == b.logical_state()
        assert a.physical_state() != b.physical_state()


# ---------------------------------------------------------------------------
# Recovery verification: a column-against-column compare.
# ---------------------------------------------------------------------------
MIXED = TableSchema(
    "m",
    [
        ColumnDef("k", DataType.INT64),
        ColumnDef("x", DataType.FLOAT64),
        ColumnDef("s", DataType.VARCHAR),
    ],
)
MIXED_ROWS = [
    (1, float("nan"), "a"),
    (2, -0.0, None),
    (3, 0.0, ""),
    (4, 2.5, "d"),
]


def mixed_db(rows=MIXED_ROWS, deleted=(2,), layout="column"):
    db = Database(layout)
    table = db.create_table(MIXED)
    table.append_rows(rows)
    for row in deleted:
        table.mark_deleted(row)
    db.create_table(TableSchema("empty", [ColumnDef("k", DataType.INT32)]))
    return db


class TestStatesIdentical:
    @pytest.mark.parametrize("layout", ["column", "row"])
    def test_fork_holding_nan_is_identical(self, layout):
        """A NaN is the same bytes after replay: ``nan != nan`` must
        not make a byte-identical replica look diverged (it did, while
        the compare ran on tuples of fresh ``.item()`` floats)."""
        db = mixed_db(layout=layout)
        assert states_identical(db, db.fork())
        assert states_identical(db, db)
        assert states_identical(db, mixed_db(layout=layout))
        assert states_identical(db, db.clone())

    def test_nan_is_not_a_wildcard(self):
        other = [(1, 7.0, "a")] + MIXED_ROWS[1:]
        assert not states_identical(mixed_db(), mixed_db(other))
        assert not states_identical(mixed_db(other), mixed_db())

    def test_signed_zeros_compare_equal_as_they_did(self):
        rows = MIXED_ROWS[1:]
        swapped = [(2, 0.0, None), (3, -0.0, ""), MIXED_ROWS[3]]
        assert states_identical(mixed_db(rows, (1,)), mixed_db(swapped, (1,)))

    def test_empty_databases_and_tables(self):
        assert states_identical(Database(), Database())
        assert states_identical(mixed_db(rows=[], deleted=()),
                                mixed_db(rows=[], deleted=()))

    @pytest.mark.parametrize(
        "rows, deleted",
        [
            ([(1, float("nan"), "a"), (2, -0.0, None), (3, 0.0, ""),
              (4, 2.5, "x")], (2,)),                       # one string cell
            ([(1, float("nan"), "a"), (2, -0.0, None), (3, 0.0, ""),
              (5, 2.5, "d")], (2,)),                       # one int cell
            ([(1, float("nan"), "a"), (2, -0.0, ""), (3, 0.0, ""),
              (4, 2.5, "d")], (2,)),                       # None vs ""
            ([MIXED_ROWS[1], MIXED_ROWS[0]] + MIXED_ROWS[2:], (2,)),  # order
            (MIXED_ROWS, ()),                              # tombstone cleared
            (MIXED_ROWS, (1,)),                            # tombstone moved
            (MIXED_ROWS[:3], (2,)),                        # a row short
            (MIXED_ROWS + [(5, 1.0, "e")], (2,)),          # a row long
        ],
    )
    def test_any_difference_is_rejected(self, rows, deleted):
        assert not states_identical(mixed_db(), mixed_db(rows, deleted))
        assert not states_identical(mixed_db(rows, deleted), mixed_db())

    def test_table_sets_must_match(self):
        extra = mixed_db()
        extra.create_table(TableSchema("more", [ColumnDef("k", DataType.INT32)]))
        assert not states_identical(mixed_db(), extra)
        assert not states_identical(extra, mixed_db())

    def test_agrees_with_physical_state_where_no_nan(self):
        rows = MIXED_ROWS[1:]
        a, b = mixed_db(rows, (0,)), mixed_db(rows, (0,), layout="row")
        assert a.physical_state() == b.physical_state()
        assert states_identical(a, b)


# ---------------------------------------------------------------------------
# Redo capture and replay.
# ---------------------------------------------------------------------------
class TestRedoCaptureReplay:
    def test_recorder_captures_all_mutation_kinds(self):
        db = build_bank_db(4)
        adapter = StoreAdapter(db)
        recorder = RedoRecorder()
        adapter.attach_recorder(recorder)
        adapter.write("accounts", "balance", 0, 150)
        row = adapter.insert("accounts", (9, 10, 0))
        adapter.delete("accounts", 1)
        adapter.cancel_insert("accounts", row)
        adapter.cancel_delete("accounts", 1)
        kinds = [e[0] for e in recorder.entries]
        assert kinds == [
            tx_logging.REDO_WRITE,
            tx_logging.REDO_INSERT,
            tx_logging.REDO_DELETE,
            tx_logging.REDO_CANCEL_INSERT,
            tx_logging.REDO_CANCEL_DELETE,
        ]
        # Detach stops the stream; cut() drains it.
        entries = recorder.cut()
        assert recorder.entries == []
        adapter.detach_recorder(recorder)
        adapter.write("accounts", "balance", 0, 100)
        assert recorder.entries == []
        assert len(entries) == 5

    def test_an_adapter_streams_to_one_recorder(self):
        """One shard, one WAL: the adapter holds one recorder slot."""
        adapter = StoreAdapter(build_bank_db(4))
        first, second = RedoRecorder(), RedoRecorder()
        adapter.attach_recorder(first)
        adapter.attach_recorder(first)  # the same one again is a no-op
        with pytest.raises(StorageError, match="already attached"):
            adapter.attach_recorder(second)
        adapter.detach_recorder(second)  # not the attached one: ignored
        adapter.write("accounts", "balance", 0, 150)
        assert len(first.entries) == 1 and second.entries == []
        adapter.detach_recorder(first)
        adapter.attach_recorder(second)
        adapter.write("accounts", "balance", 0, 100)
        assert len(first.entries) == 1 and len(second.entries) == 1

    def test_replayed_entries_reproduce_physical_state(self):
        db = build_bank_db(4)
        adapter = StoreAdapter(db)
        recorder = RedoRecorder()
        base = db.fork()
        adapter.attach_recorder(recorder)
        adapter.write("accounts", "balance", 0, 1)
        adapter.insert("accounts", (7, 70, 0))
        adapter.delete("accounts", 2)
        twin = base.fork()
        tx_logging.apply_redo(StoreAdapter(twin), recorder.cut())
        assert states_identical(db, twin)

    def test_replay_detects_insert_divergence(self):
        db = build_bank_db(4)
        entries = [(tx_logging.REDO_INSERT, "accounts", "", 99, (7, 70, 0))]
        with pytest.raises(RecoveryError, match="landed on row"):
            tx_logging.apply_redo(StoreAdapter(db), entries)

    def test_replay_rejects_unknown_kind(self):
        db = build_bank_db(4)
        with pytest.raises(RecoveryError, match="unknown redo kind"):
            tx_logging.apply_redo(
                StoreAdapter(db), [("bogus", "accounts", "", 0, None)]
            )

    def test_redo_bytes_counts_payload(self):
        entries = [
            (tx_logging.REDO_WRITE, "t", "c", 0, 5),
            (tx_logging.REDO_WRITE, "t", "c", 0, "abcd"),
            (tx_logging.REDO_INSERT, "t", "", 1, (1, "xy")),
            (tx_logging.REDO_DELETE, "t", "", 1, None),
        ]
        assert tx_logging.redo_bytes(entries) == (16 + 8) + (16 + 4) + (
            16 + 8 + 2
        ) + 16


# ---------------------------------------------------------------------------
# WAL.
# ---------------------------------------------------------------------------
class TestShardWAL:
    def _append(self, wal, n, **kwargs):
        return [
            wal.append(
                bulk_id=k, wave=0, strategy="kset",
                results=wave_results(result(k)), redo=(), **kwargs,
            )
            for k in range(n)
        ]

    def test_lsns_monotone_and_suffix(self):
        wal = ShardWAL(shard=0)
        records = self._append(wal, 5)
        assert [r.lsn for r in records] == [1, 2, 3, 4, 5]
        assert [r.lsn for r in wal.suffix(3)] == [4, 5]
        assert wal.latest_lsn == 5

    def test_truncate_keeps_suffix_and_counters(self):
        wal = ShardWAL(shard=0)
        self._append(wal, 5)
        assert wal.truncate_through(3) == 3
        assert [r.lsn for r in wal.records] == [4, 5]
        assert wal.appended_records == 5
        assert wal.truncated_records == 3
        # Truncating beyond what was ever appended is a usage bug.
        with pytest.raises(DurabilityError):
            wal.truncate_through(9)

    def test_record_carries_outcomes_and_ts_range(self):
        wal = ShardWAL(shard=2)
        record = wal.append(
            bulk_id=7, wave=1, strategy="part",
            results=wave_results(
                result(10), result(12, committed=False, reason="x")
            ),
            redo=((tx_logging.REDO_WRITE, "t", "c", 0, 1),),
        )
        assert (record.ts_lo, record.ts_hi) == (10, 12)
        assert record.outcomes == ((10, True, ""), (12, False, "x"))
        assert record.record_bytes() == 40 + 17 * 2 + 24

    def test_journal_epoch_advances_at_batch_boundaries(self):
        db = build_bank_db(4)
        adapter = StoreAdapter(db)
        assert adapter.journal.epoch == 0
        adapter.apply_batch()
        adapter.apply_batch()
        assert adapter.journal.epoch == 2


# ---------------------------------------------------------------------------
# Checkpoints.
# ---------------------------------------------------------------------------
class TestCheckpoints:
    def test_restore_rebuilds_indexes(self):
        db = build_bank_db(8)
        db.create_index("accounts_pk", "accounts", ["id"])
        checkpoint = take_checkpoint(0, db, lsn=3, bulk_id=1)
        db.table("accounts").write("balance", 0, 1)  # after the snapshot
        restored = checkpoint.restore()
        assert restored.table("accounts").read("balance", 0) == 100
        assert StoreAdapter(restored).probe("accounts_pk", 5) == 5
        # Restoring twice yields independent databases.
        again = checkpoint.restore()
        restored.table("accounts").write("balance", 1, -5)
        assert again.table("accounts").read("balance", 1) == 100

    def test_manager_cadence(self):
        db = build_bank_db(4)
        manager = CheckpointManager(shard=0, interval=3)
        assert manager.note_bulk(db, lsn=1, bulk_id=0) is None
        assert manager.note_bulk(db, lsn=2, bulk_id=1) is None
        checkpoint = manager.note_bulk(db, lsn=3, bulk_id=2)
        assert checkpoint is not None and checkpoint.lsn == 3
        assert manager.taken == 1
        assert manager.note_bulk(db, lsn=4, bulk_id=3) is None

    def test_manager_requires_checkpoint_before_latest(self):
        manager = CheckpointManager(shard=0, interval=1)
        with pytest.raises(DurabilityError, match="no checkpoint"):
            manager.latest
        with pytest.raises(ConfigError):
            CheckpointManager(shard=0, interval=0)

    def test_recover_database_rejects_covered_records(self):
        db = build_bank_db(4)
        checkpoint = take_checkpoint(0, db, lsn=5, bulk_id=0)
        wal = ShardWAL(shard=0)
        stale = [
            wal.append(bulk_id=0, wave=0, strategy="kset",
                       results=wave_results(result(0)), redo=())
            for _ in range(3)
        ]
        with pytest.raises(RecoveryError, match="already covered"):
            recover_database(checkpoint, stale)

    def test_replay_records_requires_lsn_order(self):
        db = build_bank_db(4)
        wal = ShardWAL(shard=0)
        a = wal.append(bulk_id=0, wave=0, strategy="kset",
                       results=wave_results(result(0)), redo=())
        b = wal.append(bulk_id=0, wave=1, strategy="kset",
                       results=wave_results(result(1)), redo=())
        with pytest.raises(RecoveryError, match="out of order"):
            replay_records(db, [b, a])


# ---------------------------------------------------------------------------
# Replicas.
# ---------------------------------------------------------------------------
class TestReplicas:
    def test_ring_placement_skips_primary(self):
        assert replica_placement(1, 4, 2) == (2, 3)
        assert replica_placement(3, 4, 3) == (0, 1, 2)
        assert replica_placement(0, 1, 2) == (0, 0)
        with pytest.raises(ConfigError):
            replica_placement(4, 4, 1)
        with pytest.raises(ConfigError):
            replica_placement(0, 4, -1)
        # The ring must never wrap a copy back onto the primary.
        with pytest.raises(ConfigError, match="co-locating"):
            replica_placement(0, 2, 2)
        with pytest.raises(ConfigError, match="co-locating"):
            replica_placement(1, 4, 4)

    def test_synchronous_feed_serialises_on_the_sender(self):
        pcie = PCIeModel(C1060)
        wal = ShardWAL(shard=0)
        record = wal.append(
            bulk_id=0, wave=0, strategy="kset",
            results=wave_results(result(0)),
            redo=tuple(
                (tx_logging.REDO_WRITE, "t", "c", i, 1) for i in range(64)
            ),
        )
        waits = {}
        for k in (0, 1, 2):
            replicas = ReplicaSet(0, k, PCIeModel(C1060), n_shards=4)
            waits[k] = replicas.replicate_record(record, now=0.0)
        assert waits[0] == 0.0
        assert waits[1] > 0.0
        # One copy engine: the second feed queues behind the first.
        assert waits[2] == pytest.approx(2 * waits[1])

    def test_sync_lsn_and_bytes_tracked(self):
        replicas = ReplicaSet(0, 2, PCIeModel(C1060), n_shards=4)
        wal = ShardWAL(shard=0)
        record = wal.append(bulk_id=0, wave=0, strategy="kset",
                            results=wave_results(result(0)), redo=())
        replicas.replicate_record(record, now=0.0)
        assert all(r.synced_lsn == 1 for r in replicas.replicas)
        assert replicas.shipped_bytes == 2 * record.record_bytes()

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            DurabilityConfig(checkpoint_interval=0)
        with pytest.raises(ConfigError):
            DurabilityConfig(n_replicas=-1)

    @pytest.mark.parametrize("name", ["checkpoint_interval", "n_replicas"])
    @pytest.mark.parametrize("value", [float("nan"), 1.5, 8.0, "8", True])
    def test_config_fields_are_ints(self, name, value):
        # A NaN interval checkpointed every bulk; a NaN or fractional
        # replica count died in replica_placement as a bare TypeError.
        with pytest.raises(ConfigError, match=name):
            DurabilityConfig(**{name: value})

    def test_config_normalises_numpy_ints(self):
        config = DurabilityConfig(
            checkpoint_interval=np.int64(4), n_replicas=np.int16(2)
        )
        assert (config.checkpoint_interval, config.n_replicas) == (4, 2)
        assert type(config.n_replicas) is int


# ---------------------------------------------------------------------------
# Integration seams.
# ---------------------------------------------------------------------------
class TestSeams:
    def test_pipeline_counts_durability_phases_as_dma(self):
        from repro.cluster.pipeline import BulkTiming
        from repro.gpu.costmodel import TimeBreakdown

        breakdown = TimeBreakdown()
        breakdown.add("execution", 10.0)
        breakdown.add("transfer_in", 1.0)
        breakdown.add("transfer_out", 2.0)
        breakdown.add(PHASE_WAL_SYNC, 3.0)
        breakdown.add(PHASE_CHECKPOINT, 4.0)

        class FakeResult:
            def __init__(self):
                self.breakdown = breakdown
                self.seconds = breakdown.total

        timing = BulkTiming.from_result(FakeResult())
        assert timing.transfer_in_s == 1.0
        assert timing.transfer_out_s == 9.0
        assert timing.compute_s == pytest.approx(10.0)

    def test_engine_rebuild_preserves_type_ids(self):
        from repro.core.engine import GPUTx
        from tests.conftest import BANK_PROCEDURES

        db = build_bank_db(8)
        engine = GPUTx(db, procedures=BANK_PROCEDURES, block_size=128)
        twin = engine.rebuild_on(build_bank_db(8))
        assert twin.registry.type_names == engine.registry.type_names
        for name in engine.registry.type_names:
            assert twin.registry.type_id(name) == engine.registry.type_id(name)
        assert twin.engine.block_size == 128
