"""Recovery and migration read durable state as columns.

Call counts, so no clock is involved: with ``read_row`` and
``ColumnTable.read`` wrapped by counters, killing and recovering a
shard of a durable TM1 cluster (checkpoint restore + index rebuild +
WAL replay + full verification) and one live migration never read a
row cell by cell. The one per-row path that stays is
``StoreAdapter._unindex_row`` -- a replayed or moved *delete* reads its
own key columns -- so the count is bounded by the WAL suffix and the
moved range, not by table size.
"""

import sys
from collections import Counter

from repro import ClusterOptions, ClusterTx, DurabilityConfig, MigrationPlan
from repro.storage.catalog import StoreAdapter
from repro.storage.column_store import ColumnTable
from repro.workloads import tm1

N_SHARDS = 4


def durable_tm1_cluster():
    db = tm1.build_database(1, subscribers_per_sf=400)
    cluster = ClusterTx(
        db,
        procedures=tm1.CLUSTER_PROCEDURES,
        n_shards=N_SHARDS,
        router="range",
        options=ClusterOptions(
            durability=DurabilityConfig(checkpoint_interval=100, n_replicas=1)
        ),
    )
    for seed in (3, 4):
        cluster.submit_many(
            tm1.generate_cluster_transactions(
                db, 400, shard_of=cluster.router.shard_of_key,
                cross_shard_fraction=0.05, seed=seed,
            )
        )
        cluster.run_bulk()
    return db, cluster


def count_cell_reads(monkeypatch):
    """Wrap the per-cell readers; returns (row reads, cell reads keyed
    by calling function, ``_unindex_row`` calls)."""
    row_reads, cell_reads, unindexed = Counter(), Counter(), Counter()
    read_row, read = ColumnTable.read_row, ColumnTable.read
    unindex_row = StoreAdapter._unindex_row

    def counted_read_row(self, row):
        row_reads[self.schema.name] += 1
        return read_row(self, row)

    def counted_read(self, column, row):
        # The caller that asked for the key: past a delegating
        # RowTable.read and Database._key_of (and its generator).
        frame = sys._getframe(1)
        while frame.f_code.co_name in ("read", "<genexpr>", "_key_of"):
            frame = frame.f_back
        cell_reads[frame.f_code.co_name] += 1
        return read(self, column, row)

    def counted_unindex_row(self, table, row):
        unindexed[table] += 1
        return unindex_row(self, table, row)

    monkeypatch.setattr(ColumnTable, "read_row", counted_read_row)
    monkeypatch.setattr(ColumnTable, "read", counted_read)
    monkeypatch.setattr(StoreAdapter, "_unindex_row", counted_unindex_row)
    return row_reads, cell_reads, unindexed


def key_columns_per_delete(db):
    return max(
        sum(len(ix.columns) for ix in db.indexes_on(name))
        for name in db.tables
    )


def test_recovery_and_migration_never_walk_cells(monkeypatch):
    db, cluster = durable_tm1_cluster()
    executed = len(cluster.results)
    per_delete = key_columns_per_delete(cluster.shards[0].db)
    row_reads, cell_reads, unindexed = count_cell_reads(monkeypatch)

    for shard in range(N_SHARDS):
        cluster.failover.kill(shard)
        report = cluster.recover_shard(shard)
        assert report.verified
        assert report.replayed_records > 0
    replayed_deletes = sum(unindexed.values())

    lo, hi = cluster.router.ranges_of(0)[0]
    migration = cluster.migrate(
        MigrationPlan(src=0, dst=3, key_lo=(lo + hi) // 2, key_hi=hi)
    )
    assert migration.moved_rows > 0

    assert not row_reads
    assert set(cell_reads) == {"_unindex_row"}, cell_reads
    # Every source-side row of the move is one delete.
    assert sum(unindexed.values()) == replayed_deletes + migration.moved_rows
    assert sum(cell_reads.values()) <= per_delete * sum(unindexed.values())
    # ...and the WAL holds at most one delete per executed transaction.
    assert replayed_deletes <= executed

    # The recovered, rebalanced cluster still serves.
    cluster.submit_many(
        tm1.generate_cluster_transactions(
            db, 100,
            shard_of=cluster.router.shard_of_key, seed=9,
        )
    )
    assert cluster.run_bulk().committed > 0
