"""Unit tests for schema definitions."""

import numpy as np
import pytest

from repro.errors import SchemaError
from repro.storage.column_store import ColumnTable
from repro.storage.schema import ColumnDef, DataType, TableSchema, schema_dict


class TestColumnDef:
    def test_fixed_widths(self):
        assert ColumnDef("a", DataType.INT32).width == 4
        assert ColumnDef("a", DataType.INT64).width == 8
        assert ColumnDef("a", DataType.FLOAT32).width == 4
        assert ColumnDef("a", DataType.FLOAT64).width == 8
        assert ColumnDef("a", DataType.BOOL).width == 1

    def test_char_width_is_declared_length(self):
        assert ColumnDef("s", DataType.CHAR, length=15).width == 15

    def test_varchar_descriptor_width(self):
        # (offset, length) descriptor per the paper's var-length format.
        assert ColumnDef("s", DataType.VARCHAR).width == 8

    def test_char_requires_length(self):
        with pytest.raises(SchemaError):
            ColumnDef("s", DataType.CHAR)

    def test_bad_name_rejected(self):
        with pytest.raises(SchemaError):
            ColumnDef("not a name", DataType.INT32)

    def test_numpy_dtype_mapping(self):
        assert ColumnDef("a", DataType.INT64).numpy_dtype == np.dtype(np.int64)
        assert ColumnDef("s", DataType.CHAR, length=4).numpy_dtype is None
        assert ColumnDef("s", DataType.CHAR, length=4).is_string


class TestTableSchema:
    def make(self) -> TableSchema:
        return TableSchema(
            "t",
            [
                ColumnDef("id", DataType.INT64),
                ColumnDef("value", DataType.FLOAT64),
                ColumnDef("tag", DataType.CHAR, length=6,
                          device_resident=False),
            ],
            primary_key=("id",),
            partition_key="id",
        )

    def test_column_lookup(self):
        schema = self.make()
        assert schema.column("value").dtype is DataType.FLOAT64
        assert schema.column_index("tag") == 2
        assert schema.column_names == ["id", "value", "tag"]

    def test_unknown_column_raises(self):
        with pytest.raises(SchemaError):
            self.make().column("missing")
        with pytest.raises(SchemaError):
            self.make().column_index("missing")

    def test_row_width_is_aligned_total(self):
        # 8 + 8 + (6 aligned to 8) = 24.
        assert self.make().row_width == 24

    def test_device_row_width_skips_host_only_columns(self):
        assert self.make().device_row_width == 16

    def test_device_columns_is_the_column_stores_layout(self):
        """The static half of a cell address, against the walk the
        interpreter does per cell: host-only columns take no device
        room, an empty table lays out as one row."""
        schema = TableSchema(
            "t",
            [
                ColumnDef("id", DataType.INT64),
                ColumnDef("tag", DataType.CHAR, length=6,
                          device_resident=False),
                ColumnDef("flag", DataType.BOOL),
                ColumnDef("value", DataType.FLOAT64),
            ],
        )
        assert schema.device_columns == {
            "id": (0, 8), "tag": (8, 6), "flag": (8, 1), "value": (9, 8),
        }
        assert schema.device_columns is schema.device_columns  # built once
        table = ColumnTable(schema)
        for n_rows in (0, 1, 5):
            for name, (prefix, width) in schema.device_columns.items():
                assert table.cell_address(name, 3) == (
                    prefix * max(n_rows, 1) + 3 * width, width
                )
            table.append_rows([(n_rows, "x", True, 0.5)] * (1 if n_rows == 0 else 4))

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema(
                "t",
                [ColumnDef("a", DataType.INT32), ColumnDef("a", DataType.INT32)],
            )

    def test_unknown_pk_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema("t", [ColumnDef("a", DataType.INT32)],
                        primary_key=("b",))

    def test_unknown_partition_key_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema("t", [ColumnDef("a", DataType.INT32)],
                        partition_key="b")

    def test_empty_table_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema("t", [])

    def test_schema_dict_rejects_duplicates(self):
        schema = self.make()
        with pytest.raises(SchemaError):
            schema_dict([schema, schema])
        assert schema_dict([schema])["t"] is schema
