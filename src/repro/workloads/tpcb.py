"""TPC-B: the single-transaction bank stress test (Appendix E).

Four tables -- branch, teller, account, history -- and one transaction
type: update an account's balance by a delta, record it in history, and
propagate the delta to the teller and the branch. "The branch ID is
used as the partitioning key", and since every transaction writes its
branch's balance, any two transactions on the same branch conflict: the
T-dependency graph degenerates into one path per branch (Figure 2(a)),
which is why the paper uses TPC-B as the running example for all three
execution strategies.

Scaling: ``scale_factor`` branches, ``TELLERS_PER_BRANCH`` tellers and
``accounts_per_branch`` accounts each (the TPC-B ratios are 10 and
100 000; the default here scales accounts down for simulation speed --
pass the full value if you have the hours).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.procedure import KeyedAccess, KeyedPartition, TransactionType
from repro.storage.catalog import Database
from repro.storage.schema import ColumnDef, DataType, TableSchema
from repro.workloads.base import TxnSpec, make_rng

TELLERS_PER_BRANCH = 10
DEFAULT_ACCOUNTS_PER_BRANCH = 1_000  # TPC-B says 100 000; scaled down

BRANCH = "branch"
TELLER = "teller"
ACCOUNT = "account"
HISTORY = "history"


def build_database(
    scale_factor: int,
    accounts_per_branch: int = DEFAULT_ACCOUNTS_PER_BRANCH,
    layout: str = "column",
) -> Database:
    """Load the four TPC-B tables at ``scale_factor`` branches."""
    if scale_factor < 1:
        raise ValueError("scale_factor must be >= 1")
    db = Database(layout)
    n_branches = scale_factor
    n_tellers = n_branches * TELLERS_PER_BRANCH
    n_accounts = n_branches * accounts_per_branch

    branch = db.create_table(
        TableSchema(
            BRANCH,
            [
                ColumnDef("b_id", DataType.INT64),
                ColumnDef("b_balance", DataType.FLOAT64),
                ColumnDef("b_filler", DataType.CHAR, length=88,
                          device_resident=False),
            ],
            primary_key=("b_id",),
            partition_key="b_id",
        ),
        capacity=n_branches,
    )
    branch.append_columns(
        {
            "b_id": np.arange(n_branches, dtype=np.int64),
            "b_balance": np.zeros(n_branches),
            "b_filler": np.array(["x" * 88] * n_branches, dtype=object),
        }
    )

    teller = db.create_table(
        TableSchema(
            TELLER,
            [
                ColumnDef("t_id", DataType.INT64),
                ColumnDef("b_id", DataType.INT64),
                ColumnDef("t_balance", DataType.FLOAT64),
                ColumnDef("t_filler", DataType.CHAR, length=84,
                          device_resident=False),
            ],
            primary_key=("t_id",),
            partition_key="b_id",
        ),
        capacity=n_tellers,
    )
    t_ids = np.arange(n_tellers, dtype=np.int64)
    teller.append_columns(
        {
            "t_id": t_ids,
            "b_id": t_ids // TELLERS_PER_BRANCH,
            "t_balance": np.zeros(n_tellers),
            "t_filler": np.array(["x" * 84] * n_tellers, dtype=object),
        }
    )

    account = db.create_table(
        TableSchema(
            ACCOUNT,
            [
                ColumnDef("a_id", DataType.INT64),
                ColumnDef("b_id", DataType.INT64),
                ColumnDef("a_balance", DataType.FLOAT64),
                ColumnDef("a_filler", DataType.CHAR, length=84,
                          device_resident=False),
            ],
            primary_key=("a_id",),
            partition_key="b_id",
        ),
        capacity=n_accounts,
    )
    a_ids = np.arange(n_accounts, dtype=np.int64)
    account.append_columns(
        {
            "a_id": a_ids,
            "b_id": a_ids // accounts_per_branch,
            "a_balance": np.zeros(n_accounts),
            "a_filler": np.array(["x" * 84] * n_accounts, dtype=object),
        }
    )

    db.create_table(
        TableSchema(
            HISTORY,
            [
                ColumnDef("a_id", DataType.INT64),
                ColumnDef("t_id", DataType.INT64),
                ColumnDef("b_id", DataType.INT64),
                ColumnDef("delta", DataType.FLOAT64),
                ColumnDef("h_time", DataType.INT64),
            ],
        ),
        capacity=max(64, n_accounts // 4),
    )

    db.create_index("account_pk", ACCOUNT, ["a_id"])
    db.create_index("teller_pk", TELLER, ["t_id"])
    db.create_index("branch_pk", BRANCH, ["b_id"])
    return db


def profile(ctx):
    """The TPC-B profile transaction (a single-source kernel)."""
    a_id = ctx.param_i64(0)
    t_id = ctx.param_i64(1)
    b_id = ctx.param_i64(2)
    delta = ctx.param_f64(3)
    a_row = yield ctx.index_probe("account_pk", a_id)
    yield ctx.abort_where(a_row < 0, "account not found")
    a_balance = yield ctx.read(ACCOUNT, "a_balance", a_row)
    yield ctx.write(ACCOUNT, "a_balance", a_row, a_balance + delta)
    yield ctx.insert(HISTORY, (a_id, t_id, b_id, delta, 0))
    t_row = yield ctx.index_probe("teller_pk", t_id)
    t_balance = yield ctx.read(TELLER, "t_balance", t_row)
    yield ctx.write(TELLER, "t_balance", t_row, t_balance + delta)
    b_row = yield ctx.index_probe("branch_pk", b_id)
    b_balance = yield ctx.read(BRANCH, "b_balance", b_row)
    yield ctx.write(BRANCH, "b_balance", b_row, b_balance + delta)
    ctx.finish(a_balance + delta)


PROFILE = TransactionType.from_kernel(
    profile,
    name="tpcb_profile",
    # Root-relation locking (Section 5.1): the branch id covers the
    # teller/account/history accesses of the tree-shaped schema.
    access_fn=KeyedAccess(2, write=True),
    partition_fn=KeyedPartition(2),
    two_phase=True,
    conflict_classes=frozenset({BRANCH, TELLER, ACCOUNT, HISTORY}),
    vector_inserts=frozenset({HISTORY}),
)

#: The complete TPC-B procedure set (a single type).
PROCEDURES = [PROFILE]


def generate_transactions(
    db: Database,
    n: int,
    *,
    seed: int = 1,
    hot_branch_alpha: float | None = None,
) -> List[TxnSpec]:
    """Uniform branch choice (or alpha-skewed to branch 0), local teller
    and account within the branch, random delta."""
    rng = make_rng(seed)
    n_branches = db.table(BRANCH).n_rows
    accounts_per_branch = db.table(ACCOUNT).n_rows // n_branches
    if hot_branch_alpha is None:
        branches = rng.integers(0, n_branches, size=n)
    else:
        from repro.workloads.base import skewed_first_item

        branches = skewed_first_item(rng, n_branches, hot_branch_alpha, n)
    tellers = branches * TELLERS_PER_BRANCH + rng.integers(
        0, TELLERS_PER_BRANCH, size=n
    )
    accounts = branches * accounts_per_branch + rng.integers(
        0, accounts_per_branch, size=n
    )
    deltas = rng.integers(-99_999, 100_000, size=n).astype(float)
    return [
        (
            "tpcb_profile",
            (int(accounts[i]), int(tellers[i]), int(branches[i]), float(deltas[i])),
        )
        for i in range(n)
    ]
