"""SmallBank: the contention-heavy banking benchmark (YCSB-T family).

SmallBank (Alomari et al., "The Cost of Serializability on Platforms
That Use Snapshot Isolation") models a checking/savings bank with six
short transaction types -- the classic stress test for optimistic and
partitioned executors because every transaction touches one or two hot
customer rows. It is not in the paper's evaluation, but it extends the
multi-workload discipline of Sections 6-7 with the missing regime: a
*skew-tunable* two-table update mix where the T-dependency graph depth
is controlled by a zipfian popularity tail
(:func:`repro.workloads.base.zipfian_items`), not by a single hot item.

Six transaction types, all written two-phase (every abort check
precedes the first write, so no undo logging is required):

* ``smallbank_balance`` -- read both balances, return the total;
* ``smallbank_deposit_checking`` -- add to a checking balance;
* ``smallbank_transact_savings`` -- add/subtract savings, aborting on
  overdraft;
* ``smallbank_amalgamate`` -- move both balances of one customer onto
  another's checking account;
* ``smallbank_write_check`` -- cash a check, charging a 1.0 overdraft
  penalty when it exceeds the combined balance (a data-dependent
  *value*, not a divergent branch);
* ``smallbank_send_payment`` -- checking-to-checking transfer,
  aborting on insufficient funds (the YCSB-T addition).

The customer id is the conflict/lock item and the partition key; the
two-customer types (amalgamate, send_payment) are cross-partition
unless both ids land on the same customer, exactly like the micro
pair procedures. Every type carries a vector kernel
(``TransactionType.vector_body``) from day one, so the whole workload
runs on the vectorized backend with zero fallback.

Scaling: ``scale_factor * accounts_per_sf`` customers (default 1 000
per scale factor; the original benchmark's hot set is 100 customers
out of 1M -- the zipfian ``theta`` knob replaces that fixed split).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.core.procedure import Access, TransactionType
from repro.storage.catalog import Database
from repro.storage.schema import ColumnDef, DataType, TableSchema
from repro.workloads.base import (
    TxnSpec,
    choose_mix,
    make_rng,
    random_string,
    zipfian_items,
)

ACCOUNT = "sb_account"
SAVINGS = "sb_savings"
CHECKING = "sb_checking"

ACCOUNTS_PER_SF = 1_000
INITIAL_SAVINGS = 1_000.0
INITIAL_CHECKING = 100.0

#: The H-Store SmallBank mix (weights in percent), with SEND_PAYMENT
#: taking the spec's 25% slot.
DEFAULT_MIX = [
    ("smallbank_amalgamate", 15.0),
    ("smallbank_balance", 15.0),
    ("smallbank_deposit_checking", 15.0),
    ("smallbank_send_payment", 25.0),
    ("smallbank_transact_savings", 15.0),
    ("smallbank_write_check", 15.0),
]


def build_database(
    scale_factor: int,
    accounts_per_sf: int = ACCOUNTS_PER_SF,
    layout: str = "column",
    seed: int = 42,
) -> Database:
    """Populate the three SmallBank tables for ``scale_factor``."""
    if scale_factor < 1:
        raise ValueError("scale_factor must be >= 1")
    if accounts_per_sf < 1:
        raise ValueError("accounts_per_sf must be >= 1")
    rng = make_rng(seed)
    n = scale_factor * accounts_per_sf
    db = Database(layout)
    custids = np.arange(n, dtype=np.int64)

    account = db.create_table(
        TableSchema(
            ACCOUNT,
            [
                ColumnDef("custid", DataType.INT64),
                ColumnDef("name", DataType.CHAR, length=24,
                          device_resident=False),
            ],
            primary_key=("custid",),
            partition_key="custid",
        ),
        capacity=n,
    )
    account.append_columns(
        {
            "custid": custids,
            "name": np.array(
                [random_string(rng, 12) for _ in range(n)], dtype=object
            ),
        }
    )

    savings = db.create_table(
        TableSchema(
            SAVINGS,
            [
                ColumnDef("custid", DataType.INT64),
                ColumnDef("bal", DataType.FLOAT64),
            ],
            primary_key=("custid",),
            partition_key="custid",
        ),
        capacity=n,
    )
    savings.append_columns(
        {"custid": custids, "bal": np.full(n, INITIAL_SAVINGS)}
    )

    checking = db.create_table(
        TableSchema(
            CHECKING,
            [
                ColumnDef("custid", DataType.INT64),
                ColumnDef("bal", DataType.FLOAT64),
            ],
            primary_key=("custid",),
            partition_key="custid",
        ),
        capacity=n,
    )
    checking.append_columns(
        {"custid": custids, "bal": np.full(n, INITIAL_CHECKING)}
    )

    db.create_index("sb_savings_pk", SAVINGS, ["custid"])
    db.create_index("sb_checking_pk", CHECKING, ["custid"])
    return db


# ---------------------------------------------------------------------------
# Stored procedures: single-source kernels (repro.core.backends.lane).
# ---------------------------------------------------------------------------
def balance(ctx):
    custid = ctx.param_i64(0)
    s_row = yield ctx.index_probe("sb_savings_pk", custid)
    yield ctx.abort_where(s_row < 0, "no savings account")
    c_row = yield ctx.index_probe("sb_checking_pk", custid)
    yield ctx.abort_where(c_row < 0, "no checking account")
    savings = yield ctx.read(SAVINGS, "bal", s_row)
    checking = yield ctx.read(CHECKING, "bal", c_row)
    ctx.finish(savings + checking)


def deposit_checking(ctx):
    amount = ctx.param_f64(1)
    yield ctx.abort_where(amount < 0, "negative deposit")
    c_row = yield ctx.index_probe("sb_checking_pk", ctx.param_i64(0))
    yield ctx.abort_where(c_row < 0, "no checking account")
    checking = yield ctx.read(CHECKING, "bal", c_row)
    yield ctx.write(CHECKING, "bal", c_row, checking + amount)
    ctx.finish(checking + amount)


def transact_savings(ctx):
    amount = ctx.param_f64(1)
    s_row = yield ctx.index_probe("sb_savings_pk", ctx.param_i64(0))
    yield ctx.abort_where(s_row < 0, "no savings account")
    savings = yield ctx.read(SAVINGS, "bal", s_row)
    yield ctx.abort_where(savings + amount < 0, "insufficient savings")
    yield ctx.write(SAVINGS, "bal", s_row, savings + amount)
    ctx.finish(savings + amount)


def amalgamate(ctx):
    custid0 = ctx.param_i64(0)
    custid1 = ctx.param_i64(1)
    s_row = yield ctx.index_probe("sb_savings_pk", custid0)
    yield ctx.abort_where(s_row < 0, "no savings account")
    c_row0 = yield ctx.index_probe("sb_checking_pk", custid0)
    yield ctx.abort_where(c_row0 < 0, "no checking account")
    c_row1 = yield ctx.index_probe("sb_checking_pk", custid1)
    yield ctx.abort_where(c_row1 < 0, "no destination account")
    savings = yield ctx.read(SAVINGS, "bal", s_row)
    checking0 = yield ctx.read(CHECKING, "bal", c_row0)
    checking1 = yield ctx.read(CHECKING, "bal", c_row1)
    yield ctx.compute(2)
    yield ctx.write(SAVINGS, "bal", s_row, 0.0)
    yield ctx.write(CHECKING, "bal", c_row0, 0.0)
    yield ctx.write(CHECKING, "bal", c_row1, checking1 + savings + checking0)
    ctx.finish(savings + checking0)


def write_check(ctx):
    amount = ctx.param_f64(1)
    s_row = yield ctx.index_probe("sb_savings_pk", ctx.param_i64(0))
    yield ctx.abort_where(s_row < 0, "no savings account")
    c_row = yield ctx.index_probe("sb_checking_pk", ctx.param_i64(0))
    yield ctx.abort_where(c_row < 0, "no checking account")
    savings = yield ctx.read(SAVINGS, "bal", s_row)
    checking = yield ctx.read(CHECKING, "bal", c_row)
    # Overdraft charges a 1.0 penalty: a data-dependent value, not a
    # divergent branch -- both arms are the same single write op.
    overdraft = savings + checking < amount
    new_bal = ctx.where(
        overdraft, checking - (amount + 1.0), checking - amount
    )
    yield ctx.write(CHECKING, "bal", c_row, new_bal)
    ctx.finish(new_bal)


def send_payment(ctx):
    amount = ctx.param_f64(2)
    c_row0 = yield ctx.index_probe("sb_checking_pk", ctx.param_i64(0))
    yield ctx.abort_where(c_row0 < 0, "no source account")
    c_row1 = yield ctx.index_probe("sb_checking_pk", ctx.param_i64(1))
    yield ctx.abort_where(c_row1 < 0, "no destination account")
    checking0 = yield ctx.read(CHECKING, "bal", c_row0)
    yield ctx.abort_where(checking0 < amount, "insufficient funds")
    checking1 = yield ctx.read(CHECKING, "bal", c_row1)
    yield ctx.write(CHECKING, "bal", c_row0, checking0 - amount)
    yield ctx.write(CHECKING, "bal", c_row1, checking1 + amount)
    ctx.finish(checking0 - amount)


# ---------------------------------------------------------------------------
# Access sets / partitions: the customer id is the lock item.
# ---------------------------------------------------------------------------
def _one_customer(params) -> List[Access]:
    return [Access(item=int(params[0]), write=True)]


def _one_customer_read(params) -> List[Access]:
    return [Access(item=int(params[0]), write=False)]


def _two_customers(params) -> List[Access]:
    a, b = int(params[0]), int(params[1])
    if a == b:
        return [Access(item=a, write=True)]
    return [Access(item=a, write=True), Access(item=b, write=True)]


def _single_partition(params):
    return int(params[0])


def _pair_partition(params):
    a, b = int(params[0]), int(params[1])
    return a if a == b else None


_TABLES = frozenset({SAVINGS, CHECKING})

PROCEDURES = [
    TransactionType.from_kernel(
        amalgamate,
        name="smallbank_amalgamate",
        access_fn=_two_customers,
        partition_fn=_pair_partition,
        two_phase=True,
        conflict_classes=_TABLES,
    ),
    TransactionType.from_kernel(
        balance,
        name="smallbank_balance",
        access_fn=_one_customer_read,
        partition_fn=_single_partition,
        two_phase=True,
        conflict_classes=_TABLES,
    ),
    TransactionType.from_kernel(
        deposit_checking,
        name="smallbank_deposit_checking",
        access_fn=_one_customer,
        partition_fn=_single_partition,
        two_phase=True,
        conflict_classes=frozenset({CHECKING}),
    ),
    TransactionType.from_kernel(
        send_payment,
        name="smallbank_send_payment",
        access_fn=_two_customers,
        partition_fn=_pair_partition,
        two_phase=True,
        conflict_classes=frozenset({CHECKING}),
    ),
    TransactionType.from_kernel(
        transact_savings,
        name="smallbank_transact_savings",
        access_fn=_one_customer,
        partition_fn=_single_partition,
        two_phase=True,
        conflict_classes=frozenset({SAVINGS}),
    ),
    TransactionType.from_kernel(
        write_check,
        name="smallbank_write_check",
        access_fn=_one_customer,
        partition_fn=_single_partition,
        two_phase=True,
        conflict_classes=_TABLES,
    ),
]


# ---------------------------------------------------------------------------
# Transaction generation.
# ---------------------------------------------------------------------------
def generate_transactions(
    db: Database,
    n: int,
    *,
    seed: int = 1,
    theta: float = 0.0,
    mix: List[Tuple[str, float]] | None = None,
) -> List[TxnSpec]:
    """Draw ``n`` SmallBank transactions with zipfian customer skew.

    Customers are chosen by :func:`~repro.workloads.base.zipfian_items`
    at skew ``theta`` (0 = uniform; ~1 = YCSB-like; higher = hotter).
    The two-customer types always get a *distinct* partner (re-drawn
    on collision), as the original benchmark requires -- a self-pair
    SEND_PAYMENT would mint money through its last-write-wins double
    write. Generated two-customer transactions are therefore always
    cross-partition under PART; the same-partition path of those
    types (``custid0 == custid1``) exists for hand-built workloads
    and is covered by the property suite.
    """
    rng = make_rng(seed)
    n_accounts = db.table(ACCOUNT).n_rows
    picks = choose_mix(rng, DEFAULT_MIX if mix is None else mix, n)
    customers = zipfian_items(rng, n_accounts, theta, 2 * n)
    out: List[TxnSpec] = []
    for k, name in enumerate(picks):
        a = int(customers[2 * k])
        b = int(customers[2 * k + 1])
        if b == a and n_accounts > 1:
            b = (a + 1 + int(rng.integers(0, n_accounts - 1))) % n_accounts
        if name == "smallbank_balance":
            out.append((name, (a,)))
        elif name == "smallbank_deposit_checking":
            out.append((name, (a, float(rng.integers(1, 100)))))
        elif name == "smallbank_transact_savings":
            out.append((name, (a, float(rng.integers(-200, 200)))))
        elif name == "smallbank_amalgamate":
            out.append((name, (a, b)))
        elif name == "smallbank_write_check":
            out.append((name, (a, float(rng.integers(1, 150)))))
        elif name == "smallbank_send_payment":
            out.append((name, (a, b, float(rng.integers(1, 60)))))
        else:  # pragma: no cover - mix is validated by choose_mix
            raise ValueError(f"unknown SmallBank type {name!r}")
    return out
