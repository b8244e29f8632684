"""Whole-table reads are one pass per column and say what the per-cell
walks said.

The oracles below are the loops ``Database.physical_state`` /
``table_state`` / ``clone`` / ``create_index`` ran before they read
columns: one ``read_row`` (= one ``read`` + ``.item()`` per cell) per
slot, one ``_key_of`` + ``insert`` per live row. The column passes must
agree with them by ``==`` *and* ``repr`` (the host benchmark's state
digests hash the repr), on both layouts, with tombstones, strings and
``None``, empty and single-row tables.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IndexError_
from repro.storage.catalog import Database, row_tuples
from repro.storage.index import HashIndex, MultiHashIndex
from repro.storage.schema import ColumnDef, DataType, TableSchema

SCHEMA = TableSchema(
    "t",
    [
        ColumnDef("k", DataType.INT64),
        ColumnDef("g", DataType.INT32),
        ColumnDef("x", DataType.FLOAT64),
        ColumnDef("f", DataType.FLOAT32),
        ColumnDef("b", DataType.BOOL),
        ColumnDef("s", DataType.VARCHAR),
    ],
    primary_key=("k",),
)

rows_st = st.lists(
    st.tuples(
        st.integers(-(2 ** 40), 2 ** 40),
        st.integers(0, 3),
        st.floats(allow_nan=False, width=64),
        st.floats(allow_nan=False, width=32),
        st.booleans(),
        st.one_of(st.none(), st.text(max_size=4)),
    ),
    max_size=24,
)


@st.composite
def databases(draw):
    """A one-table database (either layout) with some rows tombstoned."""
    db = Database(draw(st.sampled_from(["column", "row"])))
    table = db.create_table(SCHEMA, capacity=draw(st.sampled_from([1, 64])))
    rows = draw(rows_st)
    table.append_rows(rows)
    for r in range(len(rows)):
        if draw(st.integers(0, 3)) == 0:
            table.mark_deleted(r)
    return db


# -- the parent's per-cell loops, kept as oracles -----------------------
def oracle_physical_state(db):
    return {
        name: [
            (table.read_row(r), table.is_deleted(r))
            for r in range(table.n_rows)
        ]
        for name, table in db.tables.items()
    }


def oracle_table_state(db, name):
    table = db.table(name)
    rows = [
        table.read_row(r)
        for r in range(table.n_rows)
        if not table.is_deleted(r)
    ]
    rows.sort(key=repr)
    return rows


def oracle_clone(db):
    other = Database(db.layout)
    for name, table in db.tables.items():
        clone = other.create_table(table.schema, capacity=max(table.n_rows, 64))
        clone.append_rows([table.read_row(r) for r in range(table.n_rows)])
        for r in range(table.n_rows):
            if table.is_deleted(r):
                clone.mark_deleted(r)
    return other


def oracle_index(db, name, table, columns, unique):
    tbl = db.table(table)
    cls = HashIndex if unique else MultiHashIndex
    index = cls(name, table, tuple(columns))
    for row in range(tbl.n_rows):
        if not tbl.is_deleted(row):
            index.insert(Database._key_of(tbl, index.columns, row), row)
    return index


def same(a, b):
    """Equal, and indistinguishable to anything hashing the repr
    (``1 == 1.0 == True``, but their reprs differ)."""
    return a == b and repr(a) == repr(b)


class TestStateReadsMatchPerCellWalks:
    @given(databases())
    @settings(max_examples=150, deadline=None)
    def test_physical_logical_and_row_tuples(self, db):
        assert same(db.physical_state(), oracle_physical_state(db))
        assert same(db.table_state("t"), oracle_table_state(db, "t"))
        assert same(db.logical_state(), {"t": oracle_table_state(db, "t")})
        table = db.table("t")
        assert same(
            row_tuples(table),
            [table.read_row(r) for r in range(table.n_rows)],
        )

    @given(databases())
    @settings(max_examples=100, deadline=None)
    def test_clone_is_the_per_cell_clone(self, db):
        db.create_index("t_g", "t", ("g",), unique=False)
        clone, oracle = db.clone(), oracle_clone(db)
        assert same(clone.physical_state(), oracle.physical_state())
        assert same(clone.physical_state(), oracle_physical_state(db))
        assert clone.index_specs() == db.index_specs()
        # Independent data: a write to the clone does not reach ``db``.
        if clone.table("t").n_rows:
            before = oracle_physical_state(db)
            clone.table("t").write("g", 0, 99)
            clone.table("t").mark_deleted(0)
            assert oracle_physical_state(db) == before

    def test_empty_and_single_row_tables(self):
        for layout in ("column", "row"):
            db = Database(layout)
            table = db.create_table(SCHEMA)
            assert db.physical_state() == {"t": []}
            assert db.logical_state() == {"t": []}
            assert db.clone().physical_state() == {"t": []}
            table.append_rows([(7, 1, 0.5, 0.25, True, None)])
            assert same(db.physical_state(), oracle_physical_state(db))
            assert db.physical_state() == {
                "t": [((7, 1, 0.5, 0.25, True, None), False)]
            }


index_specs_st = st.sampled_from(
    [
        (("g",), False),
        (("g", "b"), False),
        (("s",), False),
        (("k",), True),
        (("k", "g"), True),
        (("g",), True),       # duplicates likely
        (("g", "b"), True),   # duplicates likely
        (("x",), False),
    ]
)


class TestIndexBuildMatchesPerRowInserts:
    @given(databases(), index_specs_st)
    @settings(max_examples=200, deadline=None)
    def test_create_index(self, db, spec):
        columns, unique = spec
        try:
            oracle = oracle_index(db, "ix", "t", columns, unique)
        except IndexError_ as exc:
            with pytest.raises(IndexError_) as caught:
                db.create_index("ix", "t", columns, unique=unique)
            assert str(caught.value) == str(exc)
            assert "ix" not in db.indexes
            return
        index = db.create_index("ix", "t", columns, unique=unique)
        assert type(index) is type(oracle)
        # Items and their iteration (= dict insertion = row) order.
        assert same(list(index.items()), list(oracle.items()))
        assert len(index) == len(oracle)

    def test_build_then_insert_keeps_buckets_sorted(self):
        index = MultiHashIndex("i", "t", ("k",))
        index.build(["a", "b", "a"], [0, 2, 5])
        index.insert("a", 3)
        assert index.probe_all("a") == [0, 3, 5]
        assert list(index.items()) == [("a", [0, 3, 5]), ("b", [2])]

    def test_unique_build_names_the_first_duplicate(self):
        index = HashIndex("i", "t", ("k",))
        with pytest.raises(IndexError_, match="duplicate key 2 in unique"):
            index.build([1, 2, 3, 2, 1], [0, 1, 2, 3, 4])
