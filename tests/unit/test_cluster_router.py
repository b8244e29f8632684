"""Unit tests for shard routing and database partitioning."""

import pytest

from repro.cluster.partition import key_space_of, partition_database
from repro.cluster.router import (
    HashShardRouter,
    RangeShardRouter,
    make_router,
)
from repro.errors import ClusterError, ConfigError
from repro.storage.catalog import Database
from repro.storage.schema import ColumnDef, DataType, TableSchema

from tests.conftest import BANK_PROCEDURES, build_bank_db

DEPOSIT, TRANSFER, AUDIT, RISKY = BANK_PROCEDURES


class TestRouters:
    def test_hash_router_covers_all_shards(self):
        router = HashShardRouter(4)
        shards = {router.shard_of_key(k) for k in range(100)}
        assert shards == {0, 1, 2, 3}

    def test_hash_router_deterministic(self):
        router = HashShardRouter(3)
        assert all(
            router.shard_of_key(k) == router.shard_of_key(k)
            for k in range(50)
        )

    def test_range_router_contiguous_and_ordered(self):
        router = RangeShardRouter(4, key_space=100)
        shards = [router.shard_of_key(k) for k in range(100)]
        assert shards == sorted(shards)
        assert {s: shards.count(s) for s in set(shards)} == {
            0: 25, 1: 25, 2: 25, 3: 25
        }

    def test_range_router_clamps_out_of_range(self):
        router = RangeShardRouter(4, key_space=100)
        assert router.shard_of_key(-5) == 0
        assert router.shard_of_key(1_000) == 3

    def test_invalid_construction_rejected(self):
        with pytest.raises(ConfigError):
            HashShardRouter(0)
        with pytest.raises(ConfigError):
            RangeShardRouter(2, key_space=0)

    def test_make_router_specs(self):
        assert make_router("hash", 4).kind == "hash"
        assert make_router("range", 4, key_space=10).kind == "range"
        router = HashShardRouter(2)
        assert make_router(router, 2) is router
        with pytest.raises(ClusterError):
            make_router(router, 4)  # shard-count mismatch
        with pytest.raises(ClusterError):
            make_router("range", 4)  # range without a key space
        with pytest.raises(ClusterError):
            make_router("round-robin", 4)


class TestRangeTable:
    """Range-table edge cases exposed by live splits."""

    def test_initial_table_matches_arithmetic_slices(self):
        router = RangeShardRouter(4, key_space=100)
        assert router.range_table == (
            (0, 25, 0), (25, 50, 1), (50, 75, 2), (75, 100, 3)
        )
        assert router.table_version == 0

    def test_split_moves_range_and_reports_segments(self):
        router = RangeShardRouter(4, key_space=100)
        moved = router.split(60, 75, dst=3)
        assert moved == [(60, 75, 2)]
        assert router.shard_of_key(59) == 2
        assert router.shard_of_key(60) == 3
        assert router.table_version == 1
        # Vectorized lookups agree with the scalar path post-swap.
        import numpy as np

        keys = np.arange(100)
        vec = router.shard_of_keys(keys)
        assert [router.shard_of_key(int(k)) for k in keys] == list(vec)

    def test_adjacent_ranges_merge(self):
        router = RangeShardRouter(4, key_space=100)
        # [60, 75) -> shard 3, which already owns [75, 100): one entry.
        router.split(60, 75, dst=3)
        assert (60, 100, 3) in router.range_table
        assert router.ranges_of(3) == ((60, 100),)
        # Splitting a range back to its current owner is a no-op move.
        assert router.split(80, 90, dst=3) == []
        assert router.ranges_of(3) == ((60, 100),)

    def test_single_key_range(self):
        router = RangeShardRouter(2, key_space=10)
        moved = router.split(7, 8, dst=0)
        assert moved == [(7, 8, 1)]
        assert router.shard_of_key(6) == 1
        assert router.shard_of_key(7) == 0
        assert router.shard_of_key(8) == 1
        assert router.ranges_of(0) == ((0, 5), (7, 8))
        # The table stays gap-free and ordered.
        table = router.range_table
        assert table[0][0] == 0 and table[-1][1] == 10
        assert all(a[1] == b[0] for a, b in zip(table, table[1:]))

    def test_split_spanning_multiple_owners(self):
        router = RangeShardRouter(4, key_space=100)
        moved = router.split(20, 55, dst=0)
        assert moved == [(25, 50, 1), (50, 55, 2)]
        assert router.ranges_of(0) == ((0, 55),)
        assert router.ranges_of(1) == ()

    def test_hash_router_rejects_split(self):
        router = HashShardRouter(4)
        with pytest.raises(ConfigError, match="no range table"):
            router.split(0, 10, dst=1)

    def test_invalid_split_arguments_rejected(self):
        router = RangeShardRouter(2, key_space=10)
        with pytest.raises(ConfigError):
            router.split(3, 3, dst=0)  # empty range
        with pytest.raises(ConfigError):
            router.split(5, 11, dst=0)  # beyond key space
        with pytest.raises(ConfigError):
            router.split(0, 5, dst=2)  # no such shard


class TestClassification:
    def test_single_item_type_is_single_shard(self):
        router = HashShardRouter(4)
        assert router.shards_of(DEPOSIT, (6, 10)) == frozenset({2})

    def test_pair_type_spans_shards(self):
        router = HashShardRouter(4)
        assert router.shards_of(TRANSFER, (1, 6, 5)) == frozenset({1, 2})

    def test_pair_on_same_shard_is_single_shard(self):
        router = HashShardRouter(4)
        assert router.shards_of(TRANSFER, (1, 5, 5)) == frozenset({1})

    def test_accessless_type_routes_by_partition(self):
        from repro.workloads.tm1 import PROCEDURES

        lookup = next(
            t for t in PROCEDURES if t.name == "tm1_lookup_sub_nbr"
        )
        router = HashShardRouter(4)
        assert router.shards_of(lookup, ("000000000000006",)) == frozenset({2})


class TestPartitionDatabase:
    def test_rows_split_disjointly_and_completely(self):
        db = build_bank_db(16)
        router = HashShardRouter(4)
        shards = partition_database(db, router)
        assert len(shards) == 4
        per_shard = [
            [s.table("accounts").read("id", r)
             for r in range(s.table("accounts").n_rows)]
            for s in shards
        ]
        assert sum(len(ids) for ids in per_shard) == 16
        for shard_id, ids in enumerate(per_shard):
            assert all(router.shard_of_key(i) == shard_id for i in ids)

    def test_indexes_rebuilt_per_shard(self):
        db = build_bank_db(16)
        db.create_index("accounts_pk", "accounts", ["id"])
        shards = partition_database(db, HashShardRouter(4))
        for shard_id, shard_db in enumerate(shards):
            ix = shard_db.index("accounts_pk")
            table = shard_db.table("accounts")
            for r in range(table.n_rows):
                assert ix.probe(table.read("id", r)) == r

    def test_source_database_untouched(self):
        db = build_bank_db(8)
        before = db.logical_state()
        partition_database(db, HashShardRouter(2))
        assert db.logical_state() == before

    def test_unpartitioned_table_replicated(self):
        db = Database()
        schema = TableSchema(
            "dimension",
            [ColumnDef("k", DataType.INT64), ColumnDef("v", DataType.INT64)],
        )
        db.create_table(schema)
        db.table("dimension").append_rows([(1, 10), (2, 20)])
        shards = partition_database(db, HashShardRouter(3))
        for shard_db in shards:
            assert shard_db.table("dimension").n_rows == 2

    def test_static_maps_replicated(self):
        db = build_bank_db(8)
        db.create_static_map("names", {"a": 1, "b": 2})
        shards = partition_database(db, HashShardRouter(2))
        for shard_db in shards:
            assert shard_db.static_maps["names"] == {"a": 1, "b": 2}

    def test_key_space_of(self):
        assert key_space_of(build_bank_db(32)) == 32
        assert key_space_of(Database()) == 1
