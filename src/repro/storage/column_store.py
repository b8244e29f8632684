"""Column-oriented in-memory table.

The storage format of GPUTx (Section 3.2, Appendix E): each
fixed-length column is a contiguous array; variable-length values live
in a pool addressed by (offset, length) descriptors. Consecutive rows
of one column are adjacent in the device address space, so warp
accesses to one column coalesce -- the mechanism behind the ~10 %
speedup over the row store the paper reports (Appendix F.2).

Deletes are tombstones (a validity bitmap); inserts are appended
in place, one row or one column-wise batch at a time.
"""

from __future__ import annotations

from typing import Any, List, Sequence, Tuple

import numpy as np

from repro.errors import StorageError
from repro.storage.schema import ColumnDef, DataType, TableSchema

_GROWTH = 1.5
_MIN_CAPACITY = 64


class _Column:
    """One column's backing storage (typed array or object array).

    ``shared`` marks the backing array as co-owned by a copy-on-write
    fork (:meth:`ColumnTable.fork`); the first mutation copies it.
    """

    __slots__ = ("definition", "data", "size", "shared")

    def __init__(self, definition: ColumnDef, capacity: int) -> None:
        self.definition = definition
        self.size = 0
        self.shared = False
        if definition.is_string:
            self.data = np.empty(capacity, dtype=object)
        else:
            self.data = np.zeros(capacity, dtype=definition.numpy_dtype)

    def prepare_write(self) -> None:
        """Detach from any fork before mutating in place."""
        if self.shared:
            self.data = self.data.copy()
            self.shared = False

    def ensure_capacity(self, n: int) -> None:
        cap = len(self.data)
        if n <= cap:
            return
        new_cap = max(n, int(cap * _GROWTH) + 1, _MIN_CAPACITY)
        if self.definition.is_string:
            grown = np.empty(new_cap, dtype=object)
        else:
            grown = np.zeros(new_cap, dtype=self.data.dtype)
        grown[: self.size] = self.data[: self.size]
        self.data = grown
        self.shared = False


class ColumnTable:
    """A table stored column-major. See module docstring."""

    layout = "column"

    def __init__(self, schema: TableSchema, capacity: int = _MIN_CAPACITY) -> None:
        self.schema = schema
        self._columns = {
            c.name: _Column(c, capacity) for c in schema.columns
        }
        self._deleted = np.zeros(capacity, dtype=bool)
        self._deleted_shared = False
        self.n_rows = 0

    # ------------------------------------------------------------------
    # Copy-on-write forking (checkpoints, Appendix D's replication).
    # ------------------------------------------------------------------
    def fork(self) -> "ColumnTable":
        """A copy-on-write twin of this table.

        Both tables share the backing arrays until either side mutates
        a column (or the tombstone bitmap), which copies just that
        array. Forking is O(columns), not O(rows) -- cheap enough to
        take a checkpoint of a shard partition after every bulk.
        """
        other = ColumnTable.__new__(ColumnTable)
        other.schema = self.schema
        other._columns = {}
        for name, col in self._columns.items():
            col.shared = True
            twin = _Column.__new__(_Column)
            twin.definition = col.definition
            twin.data = col.data
            twin.size = col.size
            twin.shared = True
            other._columns[name] = twin
        self._deleted_shared = True
        other._deleted = self._deleted
        other._deleted_shared = True
        other.n_rows = self.n_rows
        return other

    def _prepare_deleted_write(self) -> None:
        if self._deleted_shared:
            self._deleted = self._deleted.copy()
            self._deleted_shared = False

    # ------------------------------------------------------------------
    # Cell access.
    # ------------------------------------------------------------------
    def _check_row(self, row: int) -> None:
        if not 0 <= row < self.n_rows:
            raise StorageError(
                f"row {row} out of range [0, {self.n_rows}) in "
                f"table {self.schema.name!r}"
            )

    def read(self, column: str, row: int) -> Any:
        self._check_row(row)
        try:
            col = self._columns[column]
        except KeyError:
            raise StorageError(
                f"no column {column!r} in table {self.schema.name!r}"
            ) from None
        value = col.data[row]
        return value.item() if isinstance(value, np.generic) else value

    def write(self, column: str, row: int, value: Any) -> Any:
        self._check_row(row)
        try:
            col = self._columns[column]
        except KeyError:
            raise StorageError(
                f"no column {column!r} in table {self.schema.name!r}"
            ) from None
        old = col.data[row]
        col.prepare_write()
        col.data[row] = value
        return old.item() if isinstance(old, np.generic) else old

    def read_row(self, row: int) -> Tuple[Any, ...]:
        self._check_row(row)
        return tuple(self.read(c.name, row) for c in self.schema.columns)

    # ------------------------------------------------------------------
    # Bulk mutation (used by load and by the batched insert apply).
    # ------------------------------------------------------------------
    def append_rows(self, rows: Sequence[Sequence[Any]]) -> List[int]:
        """Append rows; returns their new row ids."""
        if not rows:
            return []
        width = len(self.schema.columns)
        start = self.n_rows
        new_size = start + len(rows)
        for col in self._columns.values():
            col.ensure_capacity(new_size)
            col.prepare_write()
            col.size = new_size
        if len(self._deleted) < new_size:
            grown = np.zeros(
                max(new_size, int(len(self._deleted) * _GROWTH) + 1), dtype=bool
            )
            grown[: self.n_rows] = self._deleted[: self.n_rows]
            self._deleted = grown
            self._deleted_shared = False
        for i, row in enumerate(rows):
            if len(row) != width:
                raise StorageError(
                    f"row has {len(row)} values; table {self.schema.name!r} "
                    f"has {width} columns"
                )
            for col_def, value in zip(self.schema.columns, row):
                self._columns[col_def.name].data[start + i] = value
        self.n_rows = new_size
        return list(range(start, new_size))

    def append_columns(self, columns: dict) -> None:
        """Bulk load pre-built column arrays (fast path for loaders)."""
        lengths = {len(v) for v in columns.values()}
        if len(lengths) != 1:
            raise StorageError("bulk-load columns have differing lengths")
        n = lengths.pop()
        expected = set(self.schema.column_names)
        if set(columns) != expected:
            raise StorageError(
                f"bulk load must provide exactly columns {sorted(expected)}"
            )
        start = self.n_rows
        new_size = start + n
        for name, values in columns.items():
            col = self._columns[name]
            col.ensure_capacity(new_size)
            col.prepare_write()
            col.data[start:new_size] = values
            col.size = new_size
        if len(self._deleted) < new_size:
            grown = np.zeros(new_size, dtype=bool)
            grown[: self.n_rows] = self._deleted[: self.n_rows]
            self._deleted = grown
            self._deleted_shared = False
        self.n_rows = new_size

    def mark_deleted(self, row: int) -> None:
        self._check_row(row)
        self._prepare_deleted_write()
        self._deleted[row] = True

    def unmark_deleted(self, row: int) -> None:
        """Restore a tombstoned row (abort rollback of a delete)."""
        self._check_row(row)
        self._prepare_deleted_write()
        self._deleted[row] = False

    def is_deleted(self, row: int) -> bool:
        self._check_row(row)
        return bool(self._deleted[row])

    @property
    def live_row_count(self) -> int:
        return self.n_rows - int(self._deleted[: self.n_rows].sum())

    def deleted_mask(self) -> np.ndarray:
        """Tombstone bitmap over the table's rows (read-only view)."""
        return self._deleted[: self.n_rows]

    # ------------------------------------------------------------------
    # Device layout (for coalescing + memory accounting).
    # ------------------------------------------------------------------
    def column_device_offset(self, column: str) -> int:
        """Byte offset of a column's array within the table's region.

        Columns are laid out back-to-back in schema order; rows within
        a column are contiguous -- the defining property of the column
        store.
        """
        offset = 0
        for col in self.schema.columns:
            if col.name == column:
                return offset
            if col.device_resident:
                offset += col.width * max(self.n_rows, 1)
        raise StorageError(
            f"no column {column!r} in table {self.schema.name!r}"
        )

    def cell_address(self, column: str, row: int) -> Tuple[int, int]:
        """(offset-in-table, width) of one cell."""
        col = self.schema.column(column)
        return self.column_device_offset(column) + row * col.width, col.width

    def device_bytes(self) -> int:
        """Device memory: resident columns only (Appendix E)."""
        total = 0
        for col in self.schema.columns:
            if col.device_resident:
                total += col.width * self.n_rows
                if col.dtype is DataType.VARCHAR:
                    total += self._string_pool_bytes(col.name)
        return total

    def host_bytes(self) -> int:
        """Host copy: every column."""
        total = 0
        for col in self.schema.columns:
            total += col.width * self.n_rows
            if col.dtype is DataType.VARCHAR:
                total += self._string_pool_bytes(col.name)
        return total

    def _string_pool_bytes(self, column: str) -> int:
        data = self._columns[column].data[: self.n_rows]
        return int(sum(len(v) for v in data if v is not None))

    def column_array(self, column: str) -> np.ndarray:
        """Direct (read-only by convention) view of a column's values."""
        return self._columns[column].data[: self.n_rows]

    # ------------------------------------------------------------------
    # Bulk cell access (the vectorized execution backend's fast path).
    # ------------------------------------------------------------------
    def gather(self, column: str, rows: np.ndarray) -> np.ndarray:
        """Read ``column`` at many ``rows`` in one fancy-index pass.

        Element types match :meth:`read` applied per row (numpy scalars
        before their ``.item()`` conversion); callers that need Python
        scalars convert at the edge, exactly like the interpreter does.
        Out-of-range rows raise, like :meth:`read` -- silently wrapping
        a ``-1`` probe miss to the buffer tail would turn a kernel bug
        into wrong results instead of a loud error.
        """
        try:
            col = self._columns[column]
        except KeyError:
            raise StorageError(
                f"no column {column!r} in table {self.schema.name!r}"
            ) from None
        if len(rows) and (rows.min() < 0 or rows.max() >= self.n_rows):
            raise StorageError(
                f"gather rows out of range [0, {self.n_rows}) in "
                f"table {self.schema.name!r}"
            )
        return col.data[rows]

    def scatter(self, column: str, rows: np.ndarray, values: np.ndarray) -> None:
        """Write many cells of ``column`` in one fancy-index pass.

        Equivalent to :meth:`write` per (row, value) pair; respects the
        copy-on-write fork protocol. Rows must be in-range and unique
        (the vectorized backend only scatters conflict-free waves).
        """
        try:
            col = self._columns[column]
        except KeyError:
            raise StorageError(
                f"no column {column!r} in table {self.schema.name!r}"
            ) from None
        if len(rows) == 0:
            return
        if rows.min() < 0 or rows.max() >= self.n_rows:
            raise StorageError(
                f"scatter rows out of range [0, {self.n_rows}) in "
                f"table {self.schema.name!r}"
            )
        col.prepare_write()
        col.data[rows] = values
