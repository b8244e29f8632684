"""Shared fixtures and helpers for the test suite.

The central helper is the *bank* mini-workload: a tiny, fully
controllable schema (one table of accounts) with transfer/deposit/audit
transaction types. Integration and property tests use it to compare
every execution strategy against the serial-by-timestamp oracle
(Definition 1) without the noise of the full benchmarks.
"""

from __future__ import annotations

import dataclasses
import signal
from contextlib import contextmanager
from typing import Iterator, List, Sequence, Tuple

import numpy as np
import pytest

from repro.core.procedure import Access, TransactionType
from repro.core.txn import Transaction, TransactionPool
from repro.cpu.engine import CpuEngine
from repro.gpu import ops as op_ir
from repro.storage.catalog import Database
from repro.storage.schema import ColumnDef, DataType, TableSchema

ACCOUNTS = "accounts"


@contextmanager
def deadline(seconds: int = 10) -> Iterator[None]:
    """Fail with ``TimeoutError`` instead of hanging when the body runs
    longer than ``seconds`` (a regression guard for loops that could
    spin forever; POSIX ``SIGALRM``)."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def build_bank_db(n_accounts: int = 32, layout: str = "column") -> Database:
    """One table: accounts(id, balance, version)."""
    db = Database(layout)
    table = db.create_table(
        TableSchema(
            ACCOUNTS,
            [
                ColumnDef("id", DataType.INT64),
                ColumnDef("balance", DataType.INT64),
                ColumnDef("version", DataType.INT64),
            ],
            primary_key=("id",),
            partition_key="id",
        ),
        capacity=n_accounts,
    )
    ids = np.arange(n_accounts, dtype=np.int64)
    table.append_columns(
        {
            "id": ids,
            "balance": np.full(n_accounts, 100, dtype=np.int64),
            "version": np.zeros(n_accounts, dtype=np.int64),
        }
    )
    return db


def _deposit_body(account: int, amount: int) -> op_ir.OpStream:
    balance = yield op_ir.Read(ACCOUNTS, "balance", account)
    yield op_ir.Compute(4)
    yield op_ir.Write(ACCOUNTS, "balance", account, balance + amount)
    return balance + amount


def _transfer_body(src: int, dst: int, amount: int) -> op_ir.OpStream:
    src_balance = yield op_ir.Read(ACCOUNTS, "balance", src)
    if src_balance < amount:
        yield op_ir.Abort("insufficient funds")
    dst_balance = yield op_ir.Read(ACCOUNTS, "balance", dst)
    yield op_ir.Write(ACCOUNTS, "balance", src, src_balance - amount)
    yield op_ir.Write(ACCOUNTS, "balance", dst, dst_balance + amount)
    return src_balance - amount


def _audit_body(account: int) -> op_ir.OpStream:
    balance = yield op_ir.Read(ACCOUNTS, "balance", account)
    version = yield op_ir.Read(ACCOUNTS, "version", account)
    return (balance, version)


def _risky_body(account: int, amount: int, fail: int) -> op_ir.OpStream:
    """NOT two-phase: writes, then maybe aborts (exercises undo logs)."""
    balance = yield op_ir.Read(ACCOUNTS, "balance", account)
    yield op_ir.Write(ACCOUNTS, "balance", account, balance + amount)
    version = yield op_ir.Read(ACCOUNTS, "version", account)
    yield op_ir.Write(ACCOUNTS, "version", account, version + 1)
    if fail:
        yield op_ir.Abort("post-write failure")
    return balance + amount


BANK_PROCEDURES = [
    TransactionType(
        name="deposit",
        body=_deposit_body,
        access_fn=lambda p: [Access(int(p[0]), write=True)],
        partition_fn=lambda p: int(p[0]),
        two_phase=True,
        conflict_classes=frozenset({ACCOUNTS}),
    ),
    TransactionType(
        name="transfer",
        body=_transfer_body,
        access_fn=lambda p: [
            Access(int(p[0]), write=True),
            Access(int(p[1]), write=True),
        ],
        partition_fn=lambda p: None,  # two accounts: cross-partition
        two_phase=True,
        conflict_classes=frozenset({ACCOUNTS}),
    ),
    TransactionType(
        name="audit",
        body=_audit_body,
        access_fn=lambda p: [Access(int(p[0]), write=False)],
        partition_fn=lambda p: int(p[0]),
        two_phase=True,
        conflict_classes=frozenset({ACCOUNTS}),
    ),
    TransactionType(
        name="risky",
        body=_risky_body,
        access_fn=lambda p: [Access(int(p[0]), write=True)],
        partition_fn=lambda p: int(p[0]),
        two_phase=False,  # aborts after writing -> undo logging
        conflict_classes=frozenset({ACCOUNTS}),
    ),
]


# ---------------------------------------------------------------------------
# Vector forms of the bank procedures: the same op streams, authored as
# batched column kernels. BANK_VECTOR_PROCEDURES keeps them on separate
# type objects so tests can still rely on BANK_PROCEDURES having no
# vector form (the vectorized backend runs those lane by lane).
# ---------------------------------------------------------------------------
def _v_deposit(ctx) -> None:
    account = ctx.param_i64(0)
    amount = ctx.param_i64(1)
    balance = ctx.read(ACCOUNTS, "balance", account)
    ctx.compute(4)
    ctx.write(ACCOUNTS, "balance", account, balance + amount)
    ctx.finish(balance + amount)


def _v_transfer(ctx) -> None:
    src = ctx.param_i64(0)
    dst = ctx.param_i64(1)
    amount = ctx.param_i64(2)
    src_balance = ctx.read(ACCOUNTS, "balance", src)
    ctx.abort_where(src_balance < amount, "insufficient funds")
    dst_balance = ctx.read(ACCOUNTS, "balance", dst)
    ctx.write(ACCOUNTS, "balance", src, src_balance - amount)
    ctx.write(ACCOUNTS, "balance", dst, dst_balance + amount)
    ctx.finish(src_balance - amount)


def _v_audit(ctx) -> None:
    account = ctx.param_i64(0)
    balance = ctx.read(ACCOUNTS, "balance", account)
    version = ctx.read(ACCOUNTS, "version", account)
    ctx.finish(balance, version)


def _v_risky(ctx) -> None:
    account = ctx.param_i64(0)
    amount = ctx.param_i64(1)
    fail = ctx.param_i64(2)
    balance = ctx.read(ACCOUNTS, "balance", account)
    ctx.write(ACCOUNTS, "balance", account, balance + amount)
    version = ctx.read(ACCOUNTS, "version", account)
    ctx.write(ACCOUNTS, "version", account, version + 1)
    ctx.abort_where(fail != 0, "post-write failure")
    ctx.finish(balance + amount)


_VECTOR_BODIES = {
    "deposit": _v_deposit,
    "transfer": _v_transfer,
    "audit": _v_audit,
    "risky": _v_risky,
}

BANK_VECTOR_PROCEDURES = [
    dataclasses.replace(t, vector_body=_VECTOR_BODIES[t.name])
    for t in BANK_PROCEDURES
]


def make_transactions(specs: Sequence[Tuple[str, tuple]]) -> List[Transaction]:
    """Stamp (type, params) pairs with sequential ids."""
    pool = TransactionPool()
    return [pool.submit(name, params) for name, params in specs]


def serial_oracle_state(
    specs: Sequence[Tuple[str, tuple]],
    n_accounts: int = 32,
    procedures=None,
) -> dict:
    """Definition 1's reference: serial execution in timestamp order."""
    db = build_bank_db(n_accounts)
    cpu = CpuEngine(db, procedures=procedures or BANK_PROCEDURES, num_cores=1)
    cpu.execute(make_transactions(specs))
    return db.logical_state()


def random_bank_specs(
    rng: np.random.Generator, n: int, n_accounts: int, abort_prob: float = 0.0
) -> List[Tuple[str, tuple]]:
    """A random mixed workload over the bank schema."""
    specs: List[Tuple[str, tuple]] = []
    for _ in range(n):
        kind = rng.integers(0, 4)
        if kind == 0:
            specs.append(
                ("deposit", (int(rng.integers(0, n_accounts)),
                             int(rng.integers(1, 50))))
            )
        elif kind == 1:
            src = int(rng.integers(0, n_accounts))
            dst = int(rng.integers(0, n_accounts))
            if dst == src:
                dst = (src + 1) % n_accounts
            specs.append(("transfer", (src, dst, int(rng.integers(1, 30)))))
        elif kind == 2:
            specs.append(("audit", (int(rng.integers(0, n_accounts)),)))
        else:
            fail = 1 if rng.random() < abort_prob else 0
            specs.append(
                ("risky", (int(rng.integers(0, n_accounts)),
                           int(rng.integers(1, 20)), fail))
            )
    return specs


@pytest.fixture
def bank_db() -> Database:
    return build_bank_db()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
