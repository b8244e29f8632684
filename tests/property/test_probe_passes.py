"""Probes pay per pass: the batched forms against their scalar owners.

* :func:`repro.storage.index.bucket_bases` (one NumPy expression for
  exact ints in ``[0, 2**61 - 1)``, the scalar form for every other
  key) equals :func:`~repro.storage.index._bucket_base` key by key,
  over ints on both sides of each bound, bools, strings, tuples and
  mixed columns.
* :meth:`WaveStore.probe_unique` and :meth:`WaveStore.probe_multi`,
  which probe the real index in one pass and re-probe only the keys a
  staged insert, delete or cancel meets, equal
  :meth:`~WaveStore.probe_unique1` / :meth:`~WaveStore.probe_multi1`
  (the owners of the overlay precedence) key by key, after random
  staging.
"""

from __future__ import annotations

import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import tx_logging
from repro.core.backends.wave import HANDLE_BASE, WaveStore
from repro.storage.catalog import Database, StoreAdapter
from repro.storage.index import _bucket_base, bucket_bases
from repro.storage.schema import ColumnDef, DataType, TableSchema

MODULUS = sys.hash_info.modulus
#: Ints on both sides of every bound the batched form tests.
EDGE_INTS = st.sampled_from([
    0, 1, 2, MODULUS - 2, MODULUS - 1, MODULUS, 2**63 - 1, 2**63, 2**70,
    -1, -2, -(2**61), -(2**63), -(2**63) - 1,
])
KEYS = st.one_of(
    st.integers(0, 2**40),
    st.integers(),
    EDGE_INTS,
    st.booleans(),
    st.text(max_size=3),
    st.tuples(st.integers(-3, 3), st.integers(0, 2**62)),
)
REGIONS = st.sampled_from([0, 17 * (1 << 34), 255 * (1 << 34)])


@settings(max_examples=300, deadline=None)
@given(REGIONS, st.lists(KEYS, max_size=12) | st.lists(EDGE_INTS, max_size=8))
def test_batched_bucket_addresses_equal_the_scalar_form(region, keys):
    got = bucket_bases(region, keys)
    assert got.dtype == np.int64 and len(got) == len(keys)
    assert got.tolist() == [_bucket_base(region, k) for k in keys]


@settings(max_examples=200, deadline=None)
@given(REGIONS, st.lists(st.integers(0, MODULUS - 2), min_size=1, max_size=12))
def test_a_plain_int_column_is_the_identity_hash(region, keys):
    assert bucket_bases(region, keys).tolist() == [
        region + (k & 0xFFFFFF) * 16 for k in keys
    ]


N_ROWS = 10


def _database() -> Database:
    """``log``: a unique key, a composite unique key and a multi index
    over a table that gains and loses rows."""
    db = Database("column")
    table = db.create_table(
        TableSchema(
            "log",
            [ColumnDef("id", DataType.INT64), ColumnDef("x", DataType.INT64)],
            primary_key=("id",),
        ),
        capacity=N_ROWS,
    )
    ids = np.arange(N_ROWS, dtype=np.int64)
    table.append_columns({"id": ids, "x": ids % 3})
    db.create_index("log_pk", "log", ["id"])
    db.create_index("log_id_x", "log", ["id", "x"])
    db.create_index("log_by_x", "log", ["x"], unique=False)
    return db


STAGING = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(N_ROWS, N_ROWS + 6),
                  st.integers(0, 3)),
        st.tuples(st.just("delete"), st.integers(0, N_ROWS + 6), st.just(0)),
        st.tuples(st.just("cancel"), st.integers(0, 12), st.just(0)),
    ),
    max_size=10,
)


@settings(max_examples=200, deadline=None)
@given(STAGING, st.lists(st.integers(-1, N_ROWS + 8), max_size=14))
def test_the_batched_dirty_probe_equals_the_one_key_probe(staging, probed):
    store = WaveStore(StoreAdapter(_database()), frozenset({"log"}))
    live = list(range(N_ROWS))  # encoded rows a delete may name
    staged = []  # undo sentinels a cancel may roll back
    inserted = set()
    for op, a, b in staging:
        if op == "insert" and a not in inserted:
            inserted.add(a)
            (enc,) = store.stage_inserts("log", [(a, b)]).tolist()
            live.append(enc)
            staged.append((tx_logging.INSERT_SENTINEL, "log", enc, None))
        elif op == "delete" and live:
            enc = live.pop(a % len(live))
            store.stage_delete("log", enc)
            staged.append((tx_logging.DELETE_SENTINEL, "log", enc, None))
        elif op == "cancel" and staged:
            store.cancel((0, 0), staged.pop(a % len(staged)))
    composite = [(k, k % 3) for k in probed]
    assert store.probe_unique("log_pk", probed).tolist() == [
        store.probe_unique1("log_pk", k) for k in probed
    ]
    assert store.probe_unique("log_id_x", composite).tolist() == [
        store.probe_unique1("log_id_x", k) for k in composite
    ]
    by_x = [k % 4 for k in probed]
    assert store.probe_multi("log_by_x", by_x) == [
        store.probe_multi1("log_by_x", k) for k in by_x
    ]
    # Staged rows answer as handles, deleted ones as misses.
    for k, row in zip(probed, store.probe_unique("log_pk", probed).tolist()):
        assert row == -1 or row < N_ROWS or row >= HANDLE_BASE
