"""Tests for streaming K-SET deferral, pool requeue, and the op IR."""

import pytest

from repro import GPUTx
from repro.core.txn import Transaction, TransactionPool
from repro.gpu import ops

from tests.conftest import BANK_PROCEDURES, build_bank_db, serial_oracle_state


class TestOpShapes:
    def test_kind_names_cover_all_kinds(self):
        for name in dir(ops):
            obj = getattr(ops, name)
            if isinstance(obj, type) and issubclass(obj, ops.Op) and obj is not ops.Op:
                assert obj.kind in ops.KIND_NAMES

    def test_repr_is_informative(self):
        assert "READ" in repr(ops.Read("t", "c", 3))
        assert "row=3" in repr(ops.Read("t", "c", 3))


class TestPoolRequeue:
    def test_requeue_restores_timestamp_order(self):
        pool = TransactionPool()
        txns = [pool.submit("t", (i,)) for i in range(6)]
        taken = pool.take()
        assert len(pool) == 0
        # Give back the middle ones.
        pool.requeue([taken[4], taken[1]])
        assert [t.txn_id for t in pool] == [1, 4]
        # New submissions still get fresh, larger ids.
        new = pool.submit("t", (99,))
        assert new.txn_id == 6
        assert [t.txn_id for t in pool] == [1, 4, 6]


class TestStreamingKset:
    def make_engine(self):
        engine = GPUTx(build_bank_db(8), procedures=BANK_PROCEDURES)
        # A 5-deep chain on account 0 plus independent work.
        for _ in range(5):
            engine.submit("deposit", (0, 1))
        for i in range(1, 8):
            engine.submit("deposit", (i, 1))
        return engine

    def test_max_rounds_defers_blocked_transactions(self):
        engine = self.make_engine()
        result = engine.run_bulk(strategy="kset", max_rounds=1)
        # One round: the 0-set (1 chain head + 7 independents).
        assert len(result.results) == 8
        assert len(result.deferred) == 4
        # Deferred work went back to the pool.
        assert len(engine.pool) == 4

    def test_repeated_streaming_drains_everything(self):
        engine = self.make_engine()
        executed = 0
        rounds = 0
        while len(engine.pool):
            result = engine.run_bulk(strategy="kset", max_rounds=1)
            executed += len(result.results)
            rounds += 1
            assert rounds < 20
        assert executed == 12
        assert engine.db.table("accounts").read("balance", 0) == 105

    def test_streaming_equals_drained_execution(self):
        specs = [("deposit", (i % 3, 2)) for i in range(12)]
        engine = self.make_fresh(specs)
        while len(engine.pool):
            engine.run_bulk(strategy="kset", max_rounds=2)
        assert engine.db.logical_state() == serial_oracle_state(specs, 8)

    @staticmethod
    def make_fresh(specs):
        engine = GPUTx(build_bank_db(8), procedures=BANK_PROCEDURES)
        engine.submit_many(specs)
        return engine

    def test_unlimited_rounds_defer_nothing(self):
        engine = self.make_engine()
        result = engine.run_bulk(strategy="kset")
        assert result.deferred == []
        assert len(engine.pool) == 0


class TestTransactionValue:
    def test_transaction_is_frozen(self):
        txn = Transaction(0, "t", (1,))
        with pytest.raises(AttributeError):
            txn.txn_id = 5
