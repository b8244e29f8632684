"""Unit tests for hash indexes, the catalog, and the store adapter."""

import numpy as np
import pytest

from repro.core.backends.wave import HANDLE_BASE, WaveStore
from repro.errors import CatalogError, IndexError_, StorageError
from repro.storage.catalog import Database, StoreAdapter
from repro.storage.index import HashIndex, MultiHashIndex
from repro.storage.schema import ColumnDef, DataType, TableSchema


class TestHashIndex:
    def test_insert_probe_remove(self):
        ix = HashIndex("i", "t", ("k",))
        ix.insert("key", 5)
        assert ix.probe("key") == 5
        assert ix.probe("other") == -1
        ix.remove("key")
        assert ix.probe("key") == -1

    def test_duplicate_key_rejected(self):
        ix = HashIndex("i", "t", ("k",))
        ix.insert("key", 1)
        with pytest.raises(IndexError_):
            ix.insert("key", 2)

    def test_remove_missing_rejected(self):
        with pytest.raises(IndexError_):
            HashIndex("i", "t", ("k",)).remove("missing")

    def test_probe_traffic_is_two_reads(self):
        ix = HashIndex("i", "t", ("k",))
        assert len(ix.probe_cost_addresses("key")) == 2

    def test_device_bytes_scale_with_entries(self):
        ix = HashIndex("i", "t", ("k",))
        for k in range(100):
            ix.insert(k, k)
        assert ix.device_bytes() == int(100 * 16 * 1.5)


class TestMultiHashIndex:
    def test_rows_kept_sorted(self):
        ix = MultiHashIndex("i", "t", ("k",))
        ix.insert("key", 9)
        ix.insert("key", 3)
        ix.insert("key", 6)
        assert ix.probe_all("key") == [3, 6, 9]
        assert ix.probe("key") == 3

    def test_remove_specific_row(self):
        ix = MultiHashIndex("i", "t", ("k",))
        ix.insert("k", 1)
        ix.insert("k", 2)
        ix.remove("k", 1)
        assert ix.probe_all("k") == [2]
        ix.remove("k", 2)
        assert ix.probe_all("k") == []
        assert "k" not in ix

    def test_remove_missing_row_rejected(self):
        ix = MultiHashIndex("i", "t", ("k",))
        ix.insert("k", 1)
        with pytest.raises(IndexError_):
            ix.remove("k", 99)
        with pytest.raises(IndexError_):
            ix.remove("missing")


def build_db(layout: str = "column") -> Database:
    db = Database(layout)
    table = db.create_table(
        TableSchema(
            "acct",
            [
                ColumnDef("id", DataType.INT64),
                ColumnDef("owner", DataType.INT64),
                ColumnDef("balance", DataType.INT64),
            ],
            primary_key=("id",),
        ),
        capacity=8,
    )
    table.append_columns(
        {
            "id": np.array([10, 20, 30], dtype=np.int64),
            "owner": np.array([1, 1, 2], dtype=np.int64),
            "balance": np.array([100, 200, 300], dtype=np.int64),
        }
    )
    db.create_index("acct_pk", "acct", ["id"])
    db.create_index("acct_by_owner", "acct", ["owner"], unique=False)
    db.create_static_map("alias", {"first": 10})
    return db


class TestDatabase:
    def test_duplicate_table_rejected(self):
        db = build_db()
        with pytest.raises(CatalogError):
            db.create_table(
                TableSchema("acct", [ColumnDef("x", DataType.INT32)])
            )

    def test_unknown_table_and_index(self):
        db = build_db()
        with pytest.raises(CatalogError):
            db.table("missing")
        with pytest.raises(CatalogError):
            db.index("missing")

    def test_index_built_over_existing_rows(self):
        db = build_db()
        assert db.index("acct_pk").probe(20) == 1
        assert db.index("acct_by_owner").probe_all(1) == [0, 1]

    def test_index_skips_tombstoned_rows(self):
        db = build_db()
        db.table("acct").mark_deleted(1)
        assert dict(db.create_index("pk2", "acct", ["id"]).items()) == {
            10: 0, 30: 2,
        }
        by_owner = db.create_index(
            "by_owner2", "acct", ["owner", "balance"], unique=False
        )
        assert list(by_owner.items()) == [((1, 100), [0]), ((2, 300), [2])]

    def test_unique_index_over_duplicates_rejected(self):
        db = build_db()
        with pytest.raises(IndexError_, match="duplicate key 1 in unique"):
            db.create_index("owner_pk", "acct", ["owner"])
        assert "owner_pk" not in db.indexes

    def test_index_and_static_map_share_one_namespace(self):
        """``probe(name)`` answers from the static map first, so an
        index registered under a map's name would be unreachable."""
        db = build_db()
        with pytest.raises(CatalogError, match="already exists"):
            db.create_index("alias", "acct", ["id"])
        assert "alias" not in db.indexes
        with pytest.raises(CatalogError, match="already exists"):
            db.create_static_map("acct_pk", {"x": 1})
        assert "acct_pk" not in db.static_maps
        with pytest.raises(CatalogError, match="already exists"):
            db.create_index("acct_pk", "acct", ["id"])
        assert StoreAdapter(db).probe("alias", "first") == 10
        assert StoreAdapter(db).probe("acct_pk", 20) == 1

    def test_bad_layout_rejected(self):
        with pytest.raises(CatalogError):
            Database("diagonal")

    def test_clone_is_independent(self):
        db = build_db()
        clone = db.clone()
        db.table("acct").write("balance", 0, 999)
        assert clone.table("acct").read("balance", 0) == 100
        assert clone.index("acct_pk").probe(10) == 0
        assert clone.static_maps["alias"]["first"] == 10

    def test_logical_state_ignores_row_order_and_tombstones(self):
        db = build_db()
        clone = db.clone()
        clone.table("acct").mark_deleted(1)
        assert db.logical_state() != clone.logical_state()
        db.table("acct").mark_deleted(1)
        assert db.logical_state() == clone.logical_state()

    def test_device_bytes_report(self):
        report = build_db().device_bytes_report()
        assert report["tables"] == 3 * 24
        assert report["indexes"] > 0
        assert report["static_maps"] == 24
        assert report["total"] == sum(
            report[k] for k in ("tables", "indexes", "static_maps")
        )


class TestStoreAdapter:
    def test_read_write_through(self):
        adapter = StoreAdapter(build_db())
        assert adapter.read("acct", "balance", 0) == 100
        old = adapter.write("acct", "balance", 0, 150)
        assert old == 100

    def test_probe_unique_multi_and_static(self):
        adapter = StoreAdapter(build_db())
        assert adapter.probe("acct_pk", 30) == 2
        assert adapter.probe("acct_by_owner", 1) == (0, 1)
        assert adapter.probe("alias", "first") == 10
        assert adapter.probe("alias", "nope") == -1

    def test_insert_visible_and_indexed_immediately(self):
        adapter = StoreAdapter(build_db())
        row = adapter.insert("acct", (40, 2, 400))
        assert adapter.read("acct", "balance", row) == 400
        assert adapter.probe("acct_pk", 40) == row
        assert adapter.probe("acct_by_owner", 2) == (2, row)

    def test_cancel_insert_rolls_back(self):
        adapter = StoreAdapter(build_db())
        row = adapter.insert("acct", (40, 2, 400))
        adapter.cancel_insert("acct", row)
        assert adapter.probe("acct_pk", 40) == -1
        assert adapter.db.table("acct").is_deleted(row)

    def test_delete_and_cancel_delete(self):
        adapter = StoreAdapter(build_db())
        adapter.delete("acct", 1)
        assert adapter.probe("acct_pk", 20) == -1
        adapter.cancel_delete("acct", 1)
        assert adapter.probe("acct_pk", 20) == 1
        assert not adapter.db.table("acct").is_deleted(1)

    def test_double_delete_rejected(self):
        adapter = StoreAdapter(build_db())
        adapter.delete("acct", 1)
        with pytest.raises(StorageError):
            adapter.delete("acct", 1)

    def test_insert_arity_checked(self):
        adapter = StoreAdapter(build_db())
        with pytest.raises(StorageError):
            adapter.insert("acct", (1, 2))

    def test_journal_tracks_until_apply(self):
        adapter = StoreAdapter(build_db())
        adapter.insert("acct", (40, 2, 400))
        adapter.delete("acct", 0)
        assert adapter.journal.pending_count == 2
        adapter.apply_batch()
        assert adapter.journal.pending_count == 0

    def test_addresses_disjoint_between_tables(self):
        db = build_db()
        db.create_table(
            TableSchema("other", [ColumnDef("x", DataType.INT64)]),
            capacity=4,
        ).append_rows([(1,)])
        adapter = StoreAdapter(db)
        a, _ = adapter.address_of("acct", "id", 0)
        b, _ = adapter.address_of("other", "x", 0)
        assert abs(a - b) >= 1 << 38

    def test_row_width_depends_on_layout(self):
        col = StoreAdapter(build_db("column"))
        row = StoreAdapter(build_db("row"))
        assert col.row_width("acct") == 24
        assert row.row_width("acct") == 24  # all-int64 table: no padding


class TestWaveStoreStagedOverlay:
    """The vectorized backend's staging overlay: a probe sees staged
    inserts and deletes before the replay applies them. Precedence
    (staged insert > staged delete > real index) lives in the
    single-key forms; the batched forms must agree lane for lane."""

    KEYS = [10, 20, 30, 40, 50, 99]
    OWNERS = [1, 2, 3, 7]

    def store(self):
        return WaveStore(StoreAdapter(build_db()), frozenset({"acct"}))

    def assert_forms_agree(self, store):
        unique = store.probe_unique("acct_pk", self.KEYS)
        assert unique.dtype == np.int64
        assert unique.tolist() == [
            store.probe_unique1("acct_pk", k) for k in self.KEYS
        ]
        assert store.probe_multi("acct_by_owner", self.OWNERS) == [
            store.probe_multi1("acct_by_owner", k) for k in self.OWNERS
        ]
        return unique.tolist(), store.probe_multi("acct_by_owner", self.OWNERS)

    def test_clean_store_reads_the_real_indexes(self):
        unique, multi = self.assert_forms_agree(self.store())
        assert unique == [0, 1, 2, -1, -1, -1]
        assert multi == [[0, 1], [2], [], []]

    def test_insert_then_probe(self):
        store = self.store()
        rows = store.stage_inserts("acct", [(40, 2, 400), (50, 7, 500)])
        assert rows.tolist() == [HANDLE_BASE, HANDLE_BASE + 1]
        unique, multi = self.assert_forms_agree(store)
        assert unique == [0, 1, 2, HANDLE_BASE, HANDLE_BASE + 1, -1]
        # Staged rows follow the real ones, in staging order.
        assert multi == [[0, 1], [2, HANDLE_BASE], [], [HANDLE_BASE + 1]]

    def test_delete_then_probe(self):
        store = self.store()
        store.stage_delete("acct", 1)  # real row: id 20, owner 1
        (staged,) = store.stage_inserts("acct", [(40, 1, 400)]).tolist()
        store.stage_delete("acct", staged)  # and a staged one
        unique, multi = self.assert_forms_agree(store)
        assert unique == [0, -1, 2, -1, -1, -1]
        assert multi == [[0], [2], [], []]
        assert staged == HANDLE_BASE

    def test_delete_then_reinsert_under_one_key(self):
        store = self.store()
        store.stage_delete("acct", 1)  # id 20 leaves...
        (again,) = store.stage_inserts("acct", [(20, 3, 7)]).tolist()
        unique, multi = self.assert_forms_agree(store)
        # ...and comes back as the staged row, under a new owner.
        assert unique == [0, again, 2, -1, -1, -1]
        assert multi == [[0], [2], [again], []]
        # Deleting the re-insert must not resurrect the real row.
        store.stage_delete("acct", again)
        unique, multi = self.assert_forms_agree(store)
        assert unique == [0, -1, 2, -1, -1, -1]
        assert multi == [[0], [2], [], []]
        assert again == HANDLE_BASE
