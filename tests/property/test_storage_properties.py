"""Property-based tests for storage structures and GPU primitives."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.gpu.costmodel import GpuCostModel
from repro.gpu.primitives import PrimitiveLibrary
from repro.gpu.spec import C1060
from repro.storage.column_store import ColumnTable
from repro.storage.row_store import RowTable
from repro.storage.schema import ColumnDef, DataType, TableSchema

LIB = PrimitiveLibrary()
COST = GpuCostModel(C1060)

int_arrays = arrays(
    dtype=np.int64,
    shape=st.integers(0, 200),
    elements=st.integers(0, 1000),
)


class TestPrimitivesAgainstOracles:
    @given(int_arrays, st.integers(1, 4))
    @settings(max_examples=100, deadline=None)
    def test_radix_partition_is_permutation(self, keys, passes):
        order, _ = LIB.radix_partition(keys, passes)
        assert sorted(order.tolist()) == list(range(len(keys)))

    @given(int_arrays)
    @settings(max_examples=100, deadline=None)
    def test_group_boundaries_reconstruct_runs(self, keys):
        keys = np.sort(keys)
        starts, _ = LIB.group_boundaries(keys)
        if len(keys) == 0:
            assert len(starts) == 0
            return
        bounds = starts.tolist() + [len(keys)]
        for lo, hi in zip(bounds, bounds[1:]):
            run = keys[lo:hi]
            assert len(set(run.tolist())) == 1
        # Adjacent runs have different keys.
        for s in starts.tolist()[1:]:
            assert keys[s] != keys[s - 1]


class TestCoalescingProperties:
    @given(st.lists(st.integers(0, 10**6), min_size=1, max_size=32))
    @settings(max_examples=100, deadline=None)
    def test_transaction_count_bounds(self, addresses):
        ntx = COST.coalesce(addresses, 8)
        assert 1 <= ntx <= 2 * len(addresses)

    @given(st.lists(st.integers(0, 10**6), min_size=1, max_size=32))
    @settings(max_examples=100, deadline=None)
    def test_order_invariance(self, addresses):
        ntx = COST.coalesce(addresses, 8)
        assert ntx == COST.coalesce(list(reversed(addresses)), 8)

    @given(st.lists(st.integers(0, 10**4), min_size=1, max_size=16))
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_access_set(self, addresses):
        ntx_all = COST.coalesce(addresses, 8)
        ntx_some = COST.coalesce(addresses[: len(addresses) // 2 + 1], 8)
        assert ntx_some <= ntx_all


row_values = st.lists(
    st.tuples(st.integers(-1000, 1000), st.floats(
        allow_nan=False, allow_infinity=False, width=32)),
    min_size=0,
    max_size=50,
)


def make_table(cls):
    schema = TableSchema(
        "t",
        [ColumnDef("a", DataType.INT64), ColumnDef("b", DataType.FLOAT64)],
    )
    return cls(schema, capacity=4)


class TestStoreRoundTrip:
    @given(row_values)
    @settings(max_examples=100, deadline=None)
    def test_column_table_round_trips(self, rows):
        table = make_table(ColumnTable)
        table.append_rows(rows)
        for i, (a, b) in enumerate(rows):
            assert table.read("a", i) == a
            assert table.read("b", i) == float(np.float32(b))

    @given(row_values)
    @settings(max_examples=100, deadline=None)
    def test_row_and_column_tables_agree(self, rows):
        col = make_table(ColumnTable)
        row = make_table(RowTable)
        col.append_rows(rows)
        row.append_rows(rows)
        for i in range(len(rows)):
            assert col.read_row(i) == row.read_row(i)

    @given(row_values, st.data())
    @settings(max_examples=50, deadline=None)
    def test_tombstone_bookkeeping(self, rows, data):
        table = make_table(ColumnTable)
        table.append_rows(rows)
        if not rows:
            return
        to_delete = data.draw(
            st.sets(st.integers(0, len(rows) - 1), max_size=len(rows))
        )
        for r in to_delete:
            table.mark_deleted(r)
        assert table.live_row_count == len(rows) - len(to_delete)
        for r in to_delete:
            table.unmark_deleted(r)
        assert table.live_row_count == len(rows)
