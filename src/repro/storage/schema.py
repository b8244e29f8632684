"""Relational schema definitions for the in-memory stores.

GPUTx stores relations as arrays in device memory (Section 3.2) with a
column-based layout (Appendix E): fixed-length columns are plain
arrays; variable-length columns are (offset, length) pairs into a value
pool. Appendix E also notes that *read-only columns are kept in main
memory* to save device memory and that only necessary columns are
copied to the GPU -- :attr:`ColumnDef.device_resident` models exactly
that, and is what produces the paper's 27 % device-memory saving of the
column store over the row store (Appendix F.2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SchemaError


class DataType(enum.Enum):
    """Supported column types with their device byte widths."""

    INT32 = "int32"
    INT64 = "int64"
    FLOAT32 = "float32"
    FLOAT64 = "float64"
    BOOL = "bool"
    CHAR = "char"        # fixed-length string
    VARCHAR = "varchar"  # variable-length string (offset + length)


_NUMPY_DTYPES = {
    DataType.INT32: np.int32,
    DataType.INT64: np.int64,
    DataType.FLOAT32: np.float32,
    DataType.FLOAT64: np.float64,
    DataType.BOOL: np.bool_,
}

_FIXED_WIDTHS = {
    DataType.INT32: 4,
    DataType.INT64: 8,
    DataType.FLOAT32: 4,
    DataType.FLOAT64: 8,
    DataType.BOOL: 1,
}


@dataclass(frozen=True)
class ColumnDef:
    """One column: name, type, and device placement.

    ``length`` is required for CHAR (the fixed width). VARCHAR values
    are stored in a pool; their in-array width is the 8-byte
    (offset, length) descriptor the paper describes.
    """

    name: str
    dtype: DataType
    length: int = 0
    device_resident: bool = True

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise SchemaError(f"bad column name {self.name!r}")
        if self.dtype is DataType.CHAR and self.length <= 0:
            raise SchemaError(f"CHAR column {self.name!r} needs a length")

    @property
    def width(self) -> int:
        """Device bytes per value (descriptor width for VARCHAR)."""
        if self.dtype is DataType.CHAR:
            return self.length
        if self.dtype is DataType.VARCHAR:
            return 8
        return _FIXED_WIDTHS[self.dtype]

    @property
    def numpy_dtype(self) -> Optional[np.dtype]:
        """The numpy dtype backing this column, or None for strings."""
        dt = _NUMPY_DTYPES.get(self.dtype)
        return np.dtype(dt) if dt is not None else None

    @property
    def is_string(self) -> bool:
        return self.dtype in (DataType.CHAR, DataType.VARCHAR)


@dataclass(frozen=True)
class TableSchema:
    """A table definition: ordered columns plus key metadata.

    ``primary_key`` names the column(s) forming the unique key;
    ``partition_key`` names the column whose value drives PART's
    horizontal partitioning (Section 5.2; e.g. the branch id in TPC-B,
    the subscriber id in TM1).
    """

    name: str
    columns: Tuple[ColumnDef, ...]
    primary_key: Tuple[str, ...] = ()
    partition_key: Optional[str] = None

    def __init__(
        self,
        name: str,
        columns: Sequence[ColumnDef],
        primary_key: Sequence[str] = (),
        partition_key: Optional[str] = None,
    ) -> None:
        if not name or not name.isidentifier():
            raise SchemaError(f"bad table name {name!r}")
        if not columns:
            raise SchemaError(f"table {name!r} needs at least one column")
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"table {name!r} has duplicate column names")
        for key in primary_key:
            if key not in names:
                raise SchemaError(f"pk column {key!r} not in table {name!r}")
        if partition_key is not None and partition_key not in names:
            raise SchemaError(
                f"partition column {partition_key!r} not in table {name!r}"
            )
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "columns", tuple(columns))
        object.__setattr__(self, "primary_key", tuple(primary_key))
        object.__setattr__(self, "partition_key", partition_key)

    @property
    def column_names(self) -> List[str]:
        return [c.name for c in self.columns]

    def column(self, name: str) -> ColumnDef:
        for col in self.columns:
            if col.name == name:
                return col
        raise SchemaError(f"no column {name!r} in table {self.name!r}")

    def column_index(self, name: str) -> int:
        for i, col in enumerate(self.columns):
            if col.name == name:
                return i
        raise SchemaError(f"no column {name!r} in table {self.name!r}")

    @property
    def row_width(self) -> int:
        """Bytes per row if stored row-wise (all columns, 4-byte align)."""
        width = 0
        for col in self.columns:
            w = col.width
            width += w + (-w % 4)
        return width

    @cached_property
    def device_columns(self) -> Dict[str, Tuple[int, int]]:
        """``column -> (resident prefix weight, width)``: the bytes per
        row of the device-resident columns laid out before it, and its
        own width. A column's device offset within the table's region
        is ``prefix * max(n_rows, 1)`` -- the layout contract of
        :meth:`ColumnTable.column_device_offset`, which the interpreter
        walks per cell. Computed once per schema (a schema never
        changes) and shared read-only by every vectorized launch that
        addresses the table."""
        out: Dict[str, Tuple[int, int]] = {}
        prefix = 0
        for col in self.columns:
            width = col.width
            out[col.name] = (prefix, width)
            if col.device_resident:
                prefix += width
        return out

    @property
    def device_row_width(self) -> int:
        """Bytes per row counting only device-resident columns."""
        return sum(c.width for c in self.columns if c.device_resident)


def schema_dict(schemas: Sequence[TableSchema]) -> Dict[str, TableSchema]:
    """Index a list of schemas by table name."""
    out: Dict[str, TableSchema] = {}
    for schema in schemas:
        if schema.name in out:
            raise SchemaError(f"duplicate table {schema.name!r}")
        out[schema.name] = schema
    return out
