"""Unit tests for transaction pools, result pools, and the registry."""

import time

import numpy as np
import pytest

from repro import ClusterTx, GPUTx
from repro.core.procedure import Access, ProcedureRegistry, TransactionType
from repro.core.txn import (
    ResultColumns, ResultPool, Transaction, TransactionPool, TxnResult,
)
from repro.errors import ConfigError, ProcedureError, RegistrationError
from repro.gpu import ops
from repro.workloads import tm1


#: Bulk sizes that are not an int >= 0 (``True`` is a bool, not a size).
BAD_SIZES = (-1, True, 2.5, float("nan"), "3")


class TestTransactionPool:
    def test_ids_are_sequential_timestamps(self):
        pool = TransactionPool()
        t1 = pool.submit("a", (1,))
        t2 = pool.submit("b", (2,))
        assert (t1.txn_id, t2.txn_id) == (0, 1)
        assert t1.timestamp == 0

    def test_take_is_fifo(self):
        pool = TransactionPool()
        for i in range(5):
            pool.submit("t", (i,))
        first = pool.take(2)
        assert [t.params[0] for t in first] == [0, 1]
        assert len(pool) == 3
        rest = pool.take()
        assert [t.params[0] for t in rest] == [2, 3, 4]
        assert len(pool) == 0

    def test_peek_does_not_remove(self):
        pool = TransactionPool()
        pool.submit("t", ())
        assert len(pool.peek()) == 1
        assert len(pool) == 1

    def test_take_matching(self):
        pool = TransactionPool()
        for i in range(4):
            pool.submit("t", (i,))
        taken = pool.take_matching([1, 3])
        assert [t.txn_id for t in taken] == [1, 3]
        assert [t.txn_id for t in pool] == [0, 2]

    def test_external_transaction_monotonicity_enforced(self):
        pool = TransactionPool()
        pool.submit_transaction(Transaction(5, "t", ()))
        with pytest.raises(ProcedureError):
            pool.submit_transaction(Transaction(3, "t", ()))

    def test_submit_specs_matches_the_per_item_loop(self):
        """Runs of pairs/triples go through one submit_batch each; ids,
        submit times and pool order equal one submit per item, with
        pre-built transactions (and their id check) in between."""
        specs = [
            ("a", (1,)),
            ("b", [2, 3], 0.5),
            Transaction(7, "c", (4,), submit_time=0.75),
            ("d", (5,), 1.0),
            ("e", ()),
            Transaction(20, "f", ()),
            Transaction(21, "g", ()),
            ("h", (6,)),
        ]
        oracle = TransactionPool()
        for item in specs:
            if isinstance(item, Transaction):
                oracle.submit_transaction(item)
            else:
                oracle.submit(*item)
        pool = TransactionPool()
        assert pool.submit_specs(iter(specs)) == len(specs)
        assert pool.peek() == oracle.peek()
        assert [t.txn_id for t in pool] == [0, 1, 7, 8, 9, 20, 21, 22]
        assert pool.submit("next", ()).txn_id == 23
        with pytest.raises(ProcedureError):
            pool.submit_specs([("ok", ()), Transaction(3, "stale", ())])
        assert [t.type_name for t in pool][-2:] == ["next", "ok"]

    @pytest.mark.parametrize("bad", BAD_SIZES, ids=repr)
    def test_take_and_peek_refuse_a_bad_size(self, bad):
        """``take(-1)`` used to slice off the youngest transaction and
        ``take(True)`` to take one; neither may touch the pool."""
        pool = TransactionPool()
        for i in range(4):
            pool.submit("t", (i,))
        with pytest.raises(ConfigError, match="max_txns"):
            pool.take(bad)
        with pytest.raises(ConfigError, match="max_txns"):
            pool.peek(bad)
        assert [t.txn_id for t in pool] == [0, 1, 2, 3]

    def test_take_accepts_none_zero_and_numpy_ints(self):
        pool = TransactionPool()
        for i in range(4):
            pool.submit("t", (i,))
        assert pool.take(0) == [] and pool.peek(0) == []
        assert [t.txn_id for t in pool.take(np.int64(3))] == [0, 1, 2]
        assert [t.txn_id for t in pool.take(None)] == [3]

    def test_signature_bytes(self):
        txn = Transaction(0, "t", (1, "abc", 2.5))
        assert txn.signature_bytes() == 8 + 4 + 8 + 3 + 8


class TestResultPool:
    def test_record_and_query(self):
        pool = ResultPool()
        pool.record(TxnResult(0, "t", committed=True, value=42))
        pool.record(TxnResult(1, "t", committed=False, abort_reason="x"))
        assert pool.get(0).value == 42
        assert 1 in pool
        assert pool.committed_count == 1
        assert pool.aborted_count == 1

    def test_duplicate_rejected(self):
        pool = ResultPool()
        pool.record(TxnResult(0, "t", committed=True))
        with pytest.raises(ProcedureError):
            pool.record(TxnResult(0, "t", committed=True))

    def test_output_bytes(self):
        pool = ResultPool()
        pool.record(TxnResult(0, "t", committed=True, value=(1, 2, 3)))
        assert pool.output_bytes() == 8 + 1 + 24

    def test_clear(self):
        pool = ResultPool()
        pool.record(TxnResult(0, "t", committed=True))
        pool.clear()
        assert len(pool) == 0

    @pytest.mark.parametrize(
        "batch", ([1, 2, 5, 6], [1, 2, 1]), ids=("recorded", "repeated")
    )
    def test_record_many_is_all_or_nothing(self, batch):
        """A duplicate -- of a recorded id, or within the batch itself
        -- rejects the whole batch and leaves the pool as it was."""
        pool = ResultPool()
        pool.record(TxnResult(5, "t", committed=False, abort_reason="x"))
        rows = ResultColumns.of(
            TxnResult(i, "t", committed=True, value=i) for i in batch
        )
        with pytest.raises(ProcedureError, match="duplicate"):
            pool.record_many(rows)
        assert list(pool) == [TxnResult(5, "t", False, "x")]
        assert (1 in pool, 2 in pool, len(pool)) == (False, False, 1)
        assert (pool.committed_count, pool.aborted_count) == (0, 1)
        assert pool.output_bytes() == 9

    def test_record_many_does_not_walk_the_pool(self):
        """Recording a small bulk costs the same into an empty pool and
        into one of 200k rows (a duplicate check that iterated the
        pool made a run of small bulks quadratic). Min of 5 rounds of
        200 bulks; a walk of 200k keys per bulk is ~1,000x dearer."""

        def cost(pool):
            base = 10**9
            best = float("inf")
            for _ in range(5):
                start = time.perf_counter()
                for _ in range(200):
                    pool.record_many(
                        ResultColumns([base], ["t"], [True], [""], [None])
                    )
                    base += 1
                best = min(best, time.perf_counter() - start)
            return best

        big = ResultPool()
        n = 200_000
        big.record_many(
            ResultColumns(
                list(range(n)), ["t"] * n, [True] * n, [""] * n, [None] * n
            )
        )
        assert cost(big) < 20 * cost(ResultPool())

    def test_iteration_is_recording_order(self):
        pool = ResultPool()
        pool.record_many(ResultColumns.of([TxnResult(3, "a", True)]))
        pool.record_many(
            ResultColumns.of([TxnResult(1, "b", False), TxnResult(2, "c", True)])
        )
        assert [r.txn_id for r in pool] == [3, 1, 2]


class TestBulkSizeAtTheFrontDoor:
    """``max_txns`` reaches ``TransactionPool.take``/``peek`` through
    the engine's and the cluster's shared front door."""

    @staticmethod
    def fronts():
        """A GPUTx and a ClusterTx, each with the same TM1 pool."""
        db = tm1.build_database(1, subscribers_per_sf=64, seed=5)
        specs = tm1.generate_transactions(db, 13, seed=5)
        fronts = (
            GPUTx(db.clone(), procedures=tm1.PROCEDURES),
            ClusterTx(db.clone(), procedures=tm1.PROCEDURES, n_shards=2),
        )
        for front in fronts:
            front.submit_many(specs)
        return fronts

    @pytest.mark.parametrize("bad", BAD_SIZES, ids=repr)
    def test_run_bulk_refuses_a_bad_size_and_keeps_the_pool(self, bad):
        for front in self.fronts():
            n = len(front.pool)
            with pytest.raises(ConfigError, match="max_txns"):
                front.run_bulk(max_txns=bad)
            assert len(front.pool) == n
            assert len(front.run_bulk().results) == n

    @pytest.mark.parametrize("bad", BAD_SIZES, ids=repr)
    def test_profile_pool_refuses_a_bad_size(self, bad):
        engine, _cluster = self.fronts()
        with pytest.raises(ConfigError, match="max_txns"):
            engine.profile_pool(bad)
        assert engine.profile_pool(5).size == 5


def simple_type(name: str, two_phase: bool = True,
                classes=frozenset({"t"})) -> TransactionType:
    def body(row):
        value = yield ops.Read("t", "v", row)
        yield ops.Write("t", "v", row, value + 1)

    return TransactionType(
        name=name,
        body=body,
        access_fn=lambda p: [Access(int(p[0]), write=True)],
        partition_fn=lambda p: int(p[0]),
        two_phase=two_phase,
        conflict_classes=classes,
    )


class TestProcedureRegistry:
    def test_type_ids_are_switch_cases(self):
        reg = ProcedureRegistry()
        assert reg.register(simple_type("a")) == 0
        assert reg.register(simple_type("b")) == 1
        assert reg.type_id("b") == 1
        assert reg.type_names == ["a", "b"]
        assert "a" in reg and len(reg) == 2

    def test_duplicate_registration_rejected(self):
        reg = ProcedureRegistry()
        reg.register(simple_type("a"))
        with pytest.raises(RegistrationError):
            reg.register(simple_type("a"))

    def test_unknown_type_rejected(self):
        reg = ProcedureRegistry()
        with pytest.raises(RegistrationError):
            reg.get("missing")
        with pytest.raises(RegistrationError):
            reg.type_id("missing")

    def test_stream_enters_switch_case_first(self):
        reg = ProcedureRegistry()
        reg.register(simple_type("a"))
        reg.register(simple_type("b"))
        stream = reg.build_stream("b", (0,))
        first = stream.send(None)
        assert first.kind == ops.SET_BRANCH
        assert first.tag == 1

    def test_accesses_and_partition(self):
        t = simple_type("a")
        assert t.accesses((7,)) == [Access(7, write=True)]
        assert t.partition_of((7,)) == 7
        no_part = TransactionType(
            name="x", body=t.body, access_fn=t.access_fn
        )
        assert no_part.partition_of((7,)) is None

    def test_undo_classification_all_two_phase(self):
        reg = ProcedureRegistry()
        reg.register(simple_type("a"))
        reg.register(simple_type("b"))
        assert reg.undo_required_types() == frozenset()
        assert not reg.needs_undo("a")

    def test_undo_classification_conflicting_classes(self):
        reg = ProcedureRegistry()
        reg.register(simple_type("safe", classes=frozenset({"t"})))
        reg.register(simple_type("risky", two_phase=False,
                                 classes=frozenset({"t"})))
        reg.register(simple_type("elsewhere", classes=frozenset({"u"})))
        required = reg.undo_required_types()
        assert required == {"safe", "risky"}
        assert not reg.needs_undo("elsewhere")

    def test_undo_classification_unclassified_risky_hits_everyone(self):
        reg = ProcedureRegistry()
        reg.register(simple_type("a"))
        reg.register(simple_type("wild", two_phase=False,
                                 classes=frozenset()))
        assert reg.needs_undo("a")
        assert reg.needs_undo("wild")

    def test_registration_invalidates_undo_cache(self):
        reg = ProcedureRegistry()
        reg.register(simple_type("a"))
        assert reg.undo_required_types() == frozenset()
        reg.register(simple_type("risky", two_phase=False))
        assert reg.needs_undo("a")
