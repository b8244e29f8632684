"""The micro benchmark of Section 6.1.

"Each transaction reads a tuple, performs computation, and then writes
the result back to the tuple. The amount of computation is simulated
with calling the sinf function (100 * x) times." There are ``T``
transaction types -- ``T`` branches of the combined kernel's switch
clause with identical structure (the paper verified the compiler kept
the branches) -- so warp-mates of different types diverge even though
the code paths look alike. Defaults ``T = 8`` and ``x = 16`` follow the
paper; the low/high computation variants of Figure 3 are ``x = 1`` and
``x = 16``.

The lock-acquisition skew (Figure 6) is the ``alpha`` model: a
transaction targets tuple 0 with probability alpha, otherwise a uniform
tuple; larger alpha deepens the T-dependency graph.

Two forms on purpose: each type keeps a hand-written generator ``body``
and a hand-written ``vector_body``. Every other built-in workload is
single-source kernels, so these pairs are the one independent
reference the backend-equivalence walls rest on. Do not convert them.
"""

from __future__ import annotations

from typing import Callable, List

from repro.core.procedure import Access, TransactionType
from repro.gpu import ops as op_ir
from repro.storage.catalog import Database
from repro.storage.schema import ColumnDef, DataType, TableSchema
from repro.workloads.base import (
    TxnSpec,
    make_rng,
    paired_items,
    skewed_first_item,
)

#: Paper defaults (Section 6.1).
DEFAULT_BRANCHES = 8
DEFAULT_COMPUTE_X = 16
DEFAULT_TUPLES = 8_000_000  # the paper's table size; benches scale down

TABLE = "tuples"


def build_database(
    n_tuples: int, layout: str = "column", with_index: bool = False
) -> Database:
    """One relation of ``n_tuples`` rows: (id, value, payload).

    ``with_index`` adds the primary-key hash index. The paper's micro
    benchmark addresses tuples by position, so the default stays
    index-free; the *cluster* variants need the index because shard
    partitioning makes physical row positions shard-local (procedures
    must address rows logically, via probes).
    """
    db = Database(layout)
    schema = TableSchema(
        TABLE,
        [
            ColumnDef("id", DataType.INT64),
            ColumnDef("value", DataType.FLOAT64),
            ColumnDef("payload", DataType.INT64),
        ],
        primary_key=("id",),
        partition_key="id",
    )
    table = db.create_table(schema, capacity=n_tuples)
    import numpy as np

    ids = np.arange(n_tuples, dtype=np.int64)
    table.append_columns(
        {
            "id": ids,
            "value": np.zeros(n_tuples, dtype=np.float64),
            "payload": ids * 17 % 1009,
        }
    )
    if with_index:
        db.create_index("tuples_pk", TABLE, ["id"])
    return db


def build_procedures(
    n_branches: int = DEFAULT_BRANCHES, x: int = DEFAULT_COMPUTE_X
) -> List[TransactionType]:
    """``n_branches`` identically-shaped types: read, sinf(100x), write.

    Rows double as data items and partition ids (the table *is* the
    root relation), so conflicts are per-tuple and PART's partitions
    coarsen tuples via the executor's ``partition_size``.
    """
    if n_branches < 1:
        raise ValueError("need at least one branch")

    def make_type(branch: int) -> TransactionType:
        sinf_calls = 100 * x

        def body(row: int) -> op_ir.OpStream:
            value = yield op_ir.Read(TABLE, "value", row)
            yield op_ir.SfuCompute(sinf_calls)
            yield op_ir.Write(TABLE, "value", row, value + 1.0)
            return value + 1.0

        def vector_body(ctx) -> None:
            # The batched form of ``body`` (same per-lane op trace).
            rows = ctx.param_i64(0)
            value = ctx.read(TABLE, "value", rows)
            ctx.sfu(sinf_calls)
            ctx.write(TABLE, "value", rows, value + 1.0)
            ctx.finish(value + 1.0)

        def access_fn(params) -> List[Access]:
            return [Access(item=int(params[0]), write=True)]

        def partition_fn(params):
            return int(params[0])

        return TransactionType(
            name=f"micro_{branch}",
            body=body,
            access_fn=access_fn,
            partition_fn=partition_fn,
            two_phase=True,
            conflict_classes=frozenset({TABLE}),
            vector_body=vector_body,
        )

    return [make_type(b) for b in range(n_branches)]


def build_pair_procedures(
    n_branches: int = DEFAULT_BRANCHES, x: int = DEFAULT_COMPUTE_X
) -> List[TransactionType]:
    """``n_branches`` two-tuple types for the cluster workloads.

    Each transaction probes the primary-key index for both tuples
    (requires ``build_database(..., with_index=True)``), reads both,
    computes, and writes both back -- the minimal transaction whose
    access set can span two shards. A pair over one tuple (``a == b``)
    degenerates to the single-tuple micro transaction.
    """
    if n_branches < 1:
        raise ValueError("need at least one branch")

    def make_type(branch: int) -> TransactionType:
        sinf_calls = 100 * x

        def body(a: int, b: int) -> op_ir.OpStream:
            row_a = yield op_ir.IndexProbe("tuples_pk", a)
            if row_a < 0:
                yield op_ir.Abort("tuple a not found")
            row_b = yield op_ir.IndexProbe("tuples_pk", b)
            if row_b < 0:
                yield op_ir.Abort("tuple b not found")
            value_a = yield op_ir.Read(TABLE, "value", row_a)
            yield op_ir.SfuCompute(sinf_calls)
            yield op_ir.Write(TABLE, "value", row_a, value_a + 1.0)
            if row_b != row_a:
                value_b = yield op_ir.Read(TABLE, "value", row_b)
                yield op_ir.Write(TABLE, "value", row_b, value_b + 1.0)
            return value_a + 1.0

        def vector_body(ctx) -> None:
            # The batched form of ``body`` (same per-lane op trace).
            a = ctx.param_i64(0)
            b = ctx.param_i64(1)
            row_a = ctx.index_probe("tuples_pk", a)
            ctx.abort_where(row_a < 0, "tuple a not found")
            row_b = ctx.index_probe("tuples_pk", b)
            ctx.abort_where(row_b < 0, "tuple b not found")
            value_a = ctx.read(TABLE, "value", row_a)
            ctx.sfu(sinf_calls)
            ctx.write(TABLE, "value", row_a, value_a + 1.0)
            pair = row_b != row_a
            value_b = ctx.read(TABLE, "value", row_b, mask=pair)
            ctx.write(TABLE, "value", row_b, value_b + 1.0, mask=pair)
            ctx.finish(value_a + 1.0)

        def access_fn(params) -> List[Access]:
            a, b = int(params[0]), int(params[1])
            if a == b:
                return [Access(item=a, write=True)]
            return [Access(item=a, write=True), Access(item=b, write=True)]

        def partition_fn(params):
            a, b = int(params[0]), int(params[1])
            return a if a == b else None

        return TransactionType(
            name=f"micro_pair_{branch}",
            body=body,
            access_fn=access_fn,
            partition_fn=partition_fn,
            two_phase=True,
            conflict_classes=frozenset({TABLE}),
            vector_body=vector_body,
        )

    return [make_type(b) for b in range(n_branches)]


def generate_pair_transactions(
    n: int,
    *,
    n_tuples: int,
    shard_of: Callable[[int], int],
    cross_shard_fraction: float = 0.0,
    n_branches: int = DEFAULT_BRANCHES,
    seed: int = 1,
) -> List[TxnSpec]:
    """Shard-aware pair workload with a tunable cross-shard fraction.

    ``shard_of`` maps a tuple id to its shard (pass the cluster
    router's ``shard_of_key``); a ``cross_shard_fraction`` of the pairs
    straddle two shards, the rest stay within one.
    """
    rng = make_rng(seed)
    pairs = paired_items(rng, n_tuples, shard_of, cross_shard_fraction, n)
    return [
        (f"micro_pair_{i % n_branches}",
         (int(pairs[i, 0]), int(pairs[i, 1])))
        for i in range(n)
    ]


def generate_transactions(
    n: int,
    *,
    n_tuples: int,
    n_branches: int = DEFAULT_BRANCHES,
    alpha: float | None = None,
    seed: int = 1,
) -> List[TxnSpec]:
    """Uniform type assignment; tuple choice uniform or alpha-skewed.

    ``alpha=None`` means fully uniform tuples (no hot item). Types are
    assigned round-robin ("transactions are evenly assigned with a
    transaction type").
    """
    rng = make_rng(seed)
    if alpha is None:
        rows = rng.integers(0, n_tuples, size=n)
    else:
        rows = skewed_first_item(rng, n_tuples, alpha, n)
    return [
        (f"micro_{i % n_branches}", (int(rows[i]),))
        for i in range(n)
    ]
