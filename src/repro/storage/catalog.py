"""Database catalog: tables, indexes, and the device-store adapter.

:class:`Database` owns tables (column- or row-layout), hash indexes,
and the static key maps the paper uses for string lookups (e.g. the
"static mapping from the string representation to the subscriber ID"
in TM1, Appendix E). :class:`StoreAdapter` exposes a database to the
SIMT engine through the :class:`~repro.gpu.memory.DeviceStore`
protocol; inserts and deletes apply in place, and only the cost of
the paper's temporary insert buffer (Section 3.2) is modelled.
"""

from __future__ import annotations

import copy
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import CatalogError, StorageError
from repro.storage.column_store import ColumnTable
from repro.storage.index import HashIndex, MultiHashIndex
from repro.storage.row_store import RowTable
from repro.storage.schema import TableSchema

Table = Union[ColumnTable, RowTable]
Index = Union[HashIndex, MultiHashIndex]

#: Address stride separating tables in the pretend device address space.
_TABLE_REGION_STRIDE = 1 << 38


def row_tuples(
    table: Table, rows: Optional[np.ndarray] = None
) -> List[Tuple[Any, ...]]:
    """Row tuples of ``table`` -- every slot in row order, or just the
    slots ``rows`` -- from one pass per column.

    Element types are those of ``read_row`` (``tolist`` converts as
    ``.item()`` does), so callers may compare, hash and ``repr`` them
    interchangeably with per-cell reads.
    """
    columns = [table.column_array(c.name) for c in table.schema.columns]
    if rows is not None:
        columns = [column[rows] for column in columns]
    return list(zip(*[column.tolist() for column in columns]))


def static_map_cost_base(map_name: str, key: Any) -> int:
    """Bucket-header address of one static-map probe.

    The single source of the static maps' cost-address formula (hash
    indexes own theirs in :meth:`HashIndex.cost_address_base`); one
    probe is two dependent 8-byte reads at ``base`` and ``base + 8``.
    Shared by the SIMT adapter path and the vectorized backend.
    """
    return (hash((map_name, key)) & 0xFFFFFF) * 16


class Database:
    """An in-memory database: schema + data + indexes + static maps."""

    def __init__(self, layout: str = "column") -> None:
        if layout not in ("column", "row"):
            raise CatalogError(f"unknown layout {layout!r}")
        self.layout = layout
        self.tables: Dict[str, Table] = {}
        self.indexes: Dict[str, Index] = {}
        self.static_maps: Dict[str, Dict[Any, int]] = {}
        self._table_order: List[str] = []

    # ------------------------------------------------------------------
    # DDL.
    # ------------------------------------------------------------------
    def create_table(self, schema: TableSchema, capacity: int = 64) -> Table:
        if schema.name in self.tables:
            raise CatalogError(f"table {schema.name!r} already exists")
        table: Table
        if self.layout == "column":
            table = ColumnTable(schema, capacity)
        else:
            table = RowTable(schema, capacity)
        self.tables[schema.name] = table
        self._table_order.append(schema.name)
        return table

    def create_index(
        self,
        name: str,
        table: str,
        columns: Sequence[str],
        unique: bool = True,
    ) -> Index:
        if name in self.indexes or name in self.static_maps:
            raise CatalogError(f"map/index {name!r} already exists")
        tbl = self.table(table)
        for col in columns:
            tbl.schema.column(col)  # validates existence
        index: Index
        if unique:
            index = HashIndex(name, table, tuple(columns))
        else:
            index = MultiHashIndex(name, table, tuple(columns))
        # Build over the live rows, one pass per key column.
        live = np.flatnonzero(~tbl.deleted_mask())
        key_columns = [tbl.column_array(c)[live].tolist() for c in columns]
        keys = key_columns[0] if len(columns) == 1 else list(zip(*key_columns))
        index.build(keys, live.tolist())
        self.indexes[name] = index
        return index

    def create_static_map(self, name: str, mapping: Dict[Any, int]) -> None:
        """Register a read-only key map (e.g. sub_nbr string -> s_id)."""
        if name in self.static_maps or name in self.indexes:
            raise CatalogError(f"map/index {name!r} already exists")
        self.static_maps[name] = dict(mapping)

    # ------------------------------------------------------------------
    # Lookup helpers.
    # ------------------------------------------------------------------
    def table(self, name: str) -> Table:
        try:
            return self.tables[name]
        except KeyError:
            raise CatalogError(f"no table {name!r}") from None

    def index(self, name: str) -> Index:
        try:
            return self.indexes[name]
        except KeyError:
            raise CatalogError(f"no index {name!r}") from None

    def indexes_on(self, table: str) -> List[Index]:
        return [ix for ix in self.indexes.values() if ix.table == table]

    def table_base_address(self, name: str) -> int:
        try:
            ordinal = self._table_order.index(name)
        except ValueError:
            raise CatalogError(f"no table {name!r}") from None
        return ordinal * _TABLE_REGION_STRIDE

    @staticmethod
    def _key_of(table: Table, columns: Tuple[str, ...], row: int) -> Any:
        if len(columns) == 1:
            return table.read(columns[0], row)
        return tuple(table.read(c, row) for c in columns)

    @staticmethod
    def _key_from_values(
        schema: TableSchema, columns: Tuple[str, ...], values: Sequence[Any]
    ) -> Any:
        if len(columns) == 1:
            return values[schema.column_index(columns[0])]
        return tuple(values[schema.column_index(c)] for c in columns)

    # ------------------------------------------------------------------
    # Memory accounting (Figure 16, storage comparison).
    # ------------------------------------------------------------------
    def device_bytes_report(self) -> Dict[str, int]:
        tables = sum(t.device_bytes() for t in self.tables.values())
        indexes = sum(ix.device_bytes() for ix in self.indexes.values())
        maps = sum(len(m) * 24 for m in self.static_maps.values())
        return {
            "tables": tables,
            "indexes": indexes,
            "static_maps": maps,
            "total": tables + indexes + maps,
        }

    # ------------------------------------------------------------------
    # Cloning and canonical state (tests + Definition 1 checks).
    # ------------------------------------------------------------------
    def clone(self) -> "Database":
        """Deep copy: independent data, rebuilt indexes, copied maps."""
        other = Database(self.layout)
        for name in self._table_order:
            table = self.tables[name]
            clone = other.create_table(table.schema, capacity=max(table.n_rows, 64))
            clone.append_columns(
                {c: table.column_array(c) for c in table.schema.column_names}
            )
            for r in np.flatnonzero(table.deleted_mask()).tolist():
                clone.mark_deleted(r)
        for ix in self.indexes.values():
            other.create_index(ix.name, ix.table, ix.columns, unique=ix.unique)
        for name, mapping in self.static_maps.items():
            other.create_static_map(name, mapping)
        return other

    def fork(self) -> "Database":
        """A copy-on-write fork of the *data*: tables and static maps.

        Indexes are deliberately not forked -- they are derived state,
        rebuilt from the rows when a checkpoint is restored (see
        :class:`repro.cluster.durability.checkpoint.Checkpoint`).
        Static maps are shared by reference (read-only by
        construction). Forking is O(tables x columns), independent of
        row count, which is what makes per-bulk checkpoints viable.
        """
        other = Database(self.layout)
        for name in self._table_order:
            other.tables[name] = self.tables[name].fork()
            other._table_order.append(name)
        for name, mapping in self.static_maps.items():
            other.static_maps[name] = mapping
        return other

    def index_specs(self) -> List[Tuple[str, str, Tuple[str, ...], bool]]:
        """(name, table, columns, unique) for every index -- the
        metadata needed to rebuild indexes over restored rows."""
        return [
            (ix.name, ix.table, ix.columns, ix.unique)
            for ix in self.indexes.values()
        ]

    def physical_state(
        self,
    ) -> Dict[str, List[Tuple[Tuple[Any, ...], bool]]]:
        """Exact physical content per table: every slot, in row order,
        with its tombstone flag.

        Stricter than :meth:`logical_state` (which canonicalises row
        order): two databases with equal physical state are
        byte-identical stores. This is the equality the durability
        layer guarantees between a promoted replica and the failed
        shard's last durable state.
        """
        state: Dict[str, List[Tuple[Tuple[Any, ...], bool]]] = {}
        for name, table in self.tables.items():
            state[name] = list(
                zip(row_tuples(table), table.deleted_mask().tolist())
            )
        return state

    def table_state(self, name: str) -> List[Tuple[Any, ...]]:
        """Canonical content of one table: sorted live row tuples.

        Physical row order is not logical state (batched inserts may
        land in a different order than a serial execution would have
        appended them), so rows are sorted by their repr -- stable for
        the mixed int/float/str tuples the workloads produce.
        """
        table = self.table(name)
        rows = row_tuples(table, np.flatnonzero(~table.deleted_mask()))
        rows.sort(key=repr)
        return rows

    def logical_state(self) -> Dict[str, List[Tuple[Any, ...]]]:
        """:meth:`table_state` of every table."""
        return {name: self.table_state(name) for name in self.tables}


class StoreAdapter:
    """Adapts a :class:`Database` to the SIMT engine's DeviceStore.

    Inserts and deletes take effect immediately (including index
    maintenance) so later transactions of the bulk observe them -- a
    PART thread may run a TPC-C NEW_ORDER and then a DELIVERY of the
    same warehouse back to back (Definition 1). An aborting
    transaction's inserts and deletes are undone (:meth:`cancel_insert`,
    :meth:`cancel_delete`) by :func:`~repro.core.tx_logging.rollback`,
    from its undo log (Appendix D).
    The paper's temporary insert buffer (Section 3.2) is modelled as
    cost only: both launch paths charge each insert's buffer-tail
    atomicAdd.
    """

    def __init__(self, db: Database) -> None:
        self.db = db
        #: The redo recorder (``repro.cluster.durability.wal``)
        #: observing every physical mutation in application order, or
        #: None when no durability layer is attached -- one slot: a
        #: shard has one WAL.
        self._recorder: Optional[Any] = None

    def attach_recorder(self, recorder: Any) -> None:
        """Start streaming physical mutations to ``recorder``."""
        if self._recorder is not None and self._recorder is not recorder:
            raise StorageError("a redo recorder is already attached to this adapter")
        self._recorder = recorder

    def detach_recorder(self, recorder: Any) -> None:
        if self._recorder is recorder:
            self._recorder = None

    # -- DeviceStore protocol -------------------------------------------
    def read(self, table: str, column: str, row: int) -> Any:
        return self.db.table(table).read(column, row)

    def write(self, table: str, column: str, row: int, value: Any) -> Any:
        old = self.db.table(table).write(column, row, value)
        if self._recorder is not None:
            self._recorder.on_write(table, column, row, value)
        return old

    def address_of(self, table: str, column: str, row: int) -> Tuple[int, int]:
        tbl = self.db.table(table)
        offset, width = tbl.cell_address(column, row)
        return self.db.table_base_address(table) + offset, width

    def probe(self, index: str, key: Any) -> Any:
        """Unique index -> row id or -1; multi index -> tuple of rows;
        static map -> mapped id or -1."""
        static = self.db.static_maps.get(index)
        if static is not None:
            return static.get(key, -1)
        ix = self.db.index(index)
        if ix.unique:
            return ix.probe(key)
        return tuple(ix.probe_all(key))

    def probe_cost_addresses(self, index: str, key: Any) -> List[Tuple[int, int]]:
        if index in self.db.static_maps:
            base = static_map_cost_base(index, key)
            return [(base, 8), (base + 8, 8)]
        return self.db.index(index).probe_cost_addresses(key)

    def insert(self, table: str, values: Sequence[Any]) -> int:
        tbl = self.db.table(table)
        if len(values) != len(tbl.schema.columns):
            raise StorageError(
                f"insert into {table!r}: {len(values)} values for "
                f"{len(tbl.schema.columns)} columns"
            )
        row = tbl.append_rows([values])[0]
        for ix in self.db.indexes_on(table):
            key = Database._key_from_values(tbl.schema, ix.columns, values)
            ix.insert(key, row)
        if self._recorder is not None:
            self._recorder.on_insert(table, row, tuple(values))
        return row

    def delete(self, table: str, row: int) -> None:
        tbl = self.db.table(table)
        if not 0 <= row < tbl.n_rows:
            raise StorageError(
                f"delete of row {row} out of range in table {table!r}"
            )
        if tbl.is_deleted(row):
            raise StorageError(
                f"row {row} of table {table!r} is already deleted"
            )
        self._unindex_row(table, row)
        tbl.mark_deleted(row)
        if self._recorder is not None:
            self._recorder.on_delete(table, row)

    def insert_bulk(
        self, table: str, values_rows: Sequence[Sequence[Any]]
    ) -> List[int]:
        """Batched :meth:`insert`.

        Semantically identical to calling ``insert`` once per row in
        order -- same index maintenance and recorder hooks -- with the
        appends applied columnar in one pass, which is what makes the
        vectorized backend's mutation replay and a live migration's row
        copy cheap.
        """
        if not values_rows:
            return []
        tbl = self.db.table(table)
        schema = tbl.schema
        n_cols = len(schema.columns)
        for values in values_rows:
            if len(values) != n_cols:
                raise StorageError(
                    f"insert into {table!r}: {len(values)} values for "
                    f"{n_cols} columns"
                )
        start = tbl.n_rows
        rows = list(range(start, start + len(values_rows)))
        columns = zip(*values_rows)
        tbl.append_columns(
            {c.name: list(v) for c, v in zip(schema.columns, columns)}
        )
        for ix in self.db.indexes_on(table):
            idxs = [schema.column_index(c) for c in ix.columns]
            if len(idxs) == 1:
                ci = idxs[0]
                keys: List[Any] = [v[ci] for v in values_rows]
            else:
                keys = [tuple(v[i] for i in idxs) for v in values_rows]
            for key, row in zip(keys, rows):
                ix.insert(key, row)
        if self._recorder is not None:
            on_insert = self._recorder.on_insert
            for row, values in zip(rows, values_rows):
                on_insert(table, row, tuple(values))
        return rows

    def row_width(self, table: str) -> int:
        schema = self.db.table(table).schema
        if self.db.layout == "row":
            return schema.row_width
        return schema.device_row_width

    # -- abort rollback ---------------------------------------------------
    def cancel_insert(self, table: str, row: int) -> None:
        """Undo one insert of an aborting transaction."""
        self._unindex_row(table, row)
        self.db.table(table).mark_deleted(row)
        if self._recorder is not None:
            self._recorder.on_cancel_insert(table, row)

    def cancel_delete(self, table: str, row: int) -> None:
        """Undo one delete of an aborting transaction."""
        tbl = self.db.table(table)
        tbl.unmark_deleted(row)
        for ix in self.db.indexes_on(table):
            key = Database._key_of(tbl, ix.columns, row)
            ix.insert(key, row)
        if self._recorder is not None:
            self._recorder.on_cancel_delete(table, row)

    # -- bulk access (vectorized backend fast path) -------------------------
    def gather_bulk(self, table: str, column: str, rows: Any) -> Any:
        """Read ``table.column`` at many rows in one pass.

        Functionally equivalent to :meth:`read` per row (values are
        numpy scalars; the vectorized kernels convert at the result
        edge, where the interpreter's ``.item()`` conversion happens).
        Requires a column-layout table.
        """
        return self.db.table(table).gather(column, rows)

    def scatter_bulk(self, table: str, column: str, rows: Any, values: Any) -> None:
        """Write many cells of ``table.column`` in one pass.

        Equivalent to :meth:`write` per (row, value) pair, including
        the redo recorder hooks: every cell is streamed to any
        attached redo recorder in element order, so a WAL written under
        the vectorized backend replays to the same physical state as
        one written under the interpreter (write sets of a conflict-
        free wave are disjoint, so element order within the wave does
        not affect the replayed state).
        """
        self.db.table(table).scatter(column, rows, values)
        if self._recorder is not None:
            on_write = self._recorder.on_write
            for row, value in zip(rows, values):
                py = value.item() if isinstance(value, np.generic) else value
                on_write(table, column, int(row), py)

    # -- batch boundary -----------------------------------------------------
    def apply_batch(self) -> None:
        """The post-kernel batch boundary; does nothing.

        Inserts and deletes are applied in place as they happen, so a
        batch boundary has nothing left to commit, and nothing in the
        engine calls this. It stays only because the host benchmark's
        tracer hooks ``StoreAdapter.apply_batch`` by name
        (``benchmarks/host/trace.py``); a change to that benchmark can
        drop the hook and then this method.
        """

    # ------------------------------------------------------------------
    def _unindex_row(self, table: str, row: int) -> None:
        tbl = self.db.table(table)
        for ix in self.db.indexes_on(table):
            key = Database._key_of(tbl, ix.columns, row)
            if ix.unique:
                if ix.probe(key) == row:
                    ix.remove(key)
            else:
                ix.remove(key, row)
