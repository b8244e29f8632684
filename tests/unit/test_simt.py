"""Unit tests for the SIMT lockstep engine."""

import numpy as np
import pytest

from repro import GPUTx
from repro.errors import ConfigError, DeadlockError, ExecutionError
from repro.gpu import ops
from repro.gpu.atomics import LockTable
from repro.gpu.costmodel import KernelTiming
from repro.gpu.simt import SIMTEngine, ThreadTask, warp_layout
from repro.gpu.spec import C1060
from repro.storage.catalog import Database, StoreAdapter
from repro.storage.schema import ColumnDef, DataType, TableSchema
from repro.workloads import micro

from tests.conftest import BANK_PROCEDURES, build_bank_db


def make_store(n_rows: int = 64) -> StoreAdapter:
    """One column-store table ``t(v, w)`` of zeros, behind the adapter
    every engine launches on."""
    db = Database()
    schema = TableSchema(
        "t", [ColumnDef("v", DataType.INT64), ColumnDef("w", DataType.INT64)]
    )
    zeros = np.zeros(n_rows, dtype=np.int64)
    db.create_table(schema, capacity=n_rows).append_columns(
        {"v": zeros, "w": zeros.copy()}
    )
    return StoreAdapter(db)


def increment(row: int, compute: int = 2):
    def body():
        value = yield ops.Read("t", "v", row)
        yield ops.Compute(compute)
        yield ops.Write("t", "v", row, value + 1)
        return value + 1

    return body()


class TestBasicExecution:
    def test_single_thread_runs_to_completion(self):
        store = make_store()
        report = SIMTEngine().launch([ThreadTask(0, 0, increment(3))], store)
        assert store.read("t", "v", 3) == 1
        assert report.outcomes[0].committed
        assert report.outcomes[0].result == 1

    def test_return_value_surfaces_in_outcome(self):
        store = make_store()
        report = SIMTEngine().launch([ThreadTask(7, 0, increment(0))], store)
        assert report.outcomes[0].txn_id == 7
        assert report.outcomes[0].result == 1

    def test_many_independent_threads(self):
        store = make_store(256)
        tasks = [ThreadTask(i, 0, increment(i)) for i in range(256)]
        report = SIMTEngine().launch(tasks, store)
        assert all(store.read("t", "v", i) == 1 for i in range(256))
        assert report.stats.threads_launched == 256

    def test_timing_is_positive_and_deterministic(self):
        def run():
            store = make_store(128)
            tasks = [ThreadTask(i, 0, increment(i)) for i in range(128)]
            return SIMTEngine().launch(tasks, store).timing.seconds

        t1, t2 = run(), run()
        assert t1 > 0
        assert t1 == pytest.approx(t2)

    def test_block_size_must_be_warp_multiple(self):
        with pytest.raises(ConfigError):
            SIMTEngine(block_size=100)

    @pytest.mark.parametrize("block_size", [16, 0, -32])
    def test_block_size_must_be_at_least_one_warp(self, block_size):
        # 0 used to pass the modulo check and die in warp_layout's
        # range(); -32 surfaced as a misleading DeadlockError.
        with pytest.raises(ConfigError, match="block size"):
            SIMTEngine(block_size=block_size)

    @pytest.mark.parametrize("block_size", [64.0, float("nan"), "64", True])
    def test_block_size_must_be_an_int(self, block_size):
        # 64.0 used to construct and fail at the first launch with a
        # bare TypeError from warp_layout's range().
        with pytest.raises(ConfigError, match="block size"):
            SIMTEngine(block_size=block_size)

    def test_gputx_rejects_a_float_block_size(self):
        with pytest.raises(ConfigError, match="block size"):
            GPUTx(build_bank_db(), procedures=BANK_PROCEDURES, block_size=64.0)

    @pytest.mark.parametrize(
        "max_rounds", [float("nan"), 0, -5, 2.5, True, "9"]
    )
    def test_max_rounds_must_be_a_positive_int(self, max_rounds):
        # NaN disabled the kernel timeout: ``rounds > nan`` is never true.
        with pytest.raises(ConfigError, match="max_rounds"):
            SIMTEngine(max_rounds=max_rounds)

    def test_numpy_ints_are_accepted(self):
        engine = SIMTEngine(block_size=np.int64(64), max_rounds=np.int32(9))
        assert (engine.block_size, engine.max_rounds) == (64, 9)
        assert type(engine.block_size) is int

    def test_generator_exception_becomes_execution_error(self):
        def bad():
            yield ops.Read("t", "v", 0)
            raise ValueError("boom")

        store = make_store()
        with pytest.raises(ExecutionError, match="boom"):
            SIMTEngine().launch([ThreadTask(0, 0, bad())], store)


class TestWarpLayout:
    def test_placement_round_robins_blocks_over_sms(self):
        bounds, sm_warp_ids, resident, warp_of, sm_of_warp = warp_layout(
            70, 64, C1060
        )
        assert bounds == [(0, 32), (32, 64), (64, 70)]
        assert sm_warp_ids[:3] == [[0, 1], [2], []]
        assert resident[:3] == [2, 1, 0]
        assert warp_of.tolist() == [0] * 32 + [1] * 32 + [2] * 6
        assert sm_of_warp.tolist() == [0, 0, 1]

    def test_memoised_layout_is_shared_read_only(self):
        first = warp_layout(70, 64, C1060)
        assert warp_layout(70, 64, C1060) is first
        assert warp_layout(71, 64, C1060) is not first
        for shared in (first[3], first[4]):
            with pytest.raises(ValueError, match="read-only"):
                shared[0] = 9
        # A launch works on its own copy of the per-SM counts.
        report = SIMTEngine(block_size=64).launch(
            [ThreadTask(i, 0, increment(i)) for i in range(70)], make_store(128)
        )
        report.stats.resident_warps[0] = 99
        assert warp_layout(70, 64, C1060)[2][0] == 2


class TestDivergence:
    def test_homogeneous_warp_has_no_divergence(self):
        store = make_store()
        tasks = [ThreadTask(i, 0, increment(i)) for i in range(32)]
        report = SIMTEngine().launch(tasks, store)
        assert report.stats.divergent_serializations == 0

    def test_mixed_branch_warp_diverges(self):
        def tagged(row, tag):
            def body():
                yield ops.SetBranch(tag)
                value = yield ops.Read("t", "v", row)
                yield ops.Write("t", "v", row, value + 1)

            return body()

        store = make_store()
        tasks = [ThreadTask(i, i % 4, tagged(i, i % 4)) for i in range(32)]
        report = SIMTEngine().launch(tasks, store)
        assert report.stats.divergent_serializations > 0

    def test_different_kinds_in_one_branch_diverge(self):
        # A warp groups its lanes by (branch, op kind): lanes of one
        # branch whose next ops differ in kind are serialized too.
        def reader(row):
            def body():
                yield ops.Read("t", "v", row)

            return body()

        def computer():
            def body():
                yield ops.Compute(4)

            return body()

        tasks = [
            ThreadTask(i, 0, reader(i) if i % 2 else computer())
            for i in range(32)
        ]
        report = SIMTEngine().launch(tasks, make_store())
        assert report.stats.divergent_serializations > 0

    def test_more_branches_more_divergence(self):
        def run(n_types: int) -> int:
            def tagged(row, tag):
                def body():
                    yield ops.SetBranch(tag)
                    value = yield ops.Read("t", "v", row)
                    yield ops.Compute(4)
                    yield ops.Write("t", "v", row, value + 1)

                return body()

            store = make_store()
            tasks = [
                ThreadTask(i, i % n_types, tagged(i, i % n_types))
                for i in range(32)
            ]
            return SIMTEngine().launch(tasks, store).stats.divergent_serializations

        assert run(2) < run(8) < run(32)


class TestLocks:
    def test_counter_lock_serializes_in_key_order(self):
        """Conflicting increments must apply in timestamp (key) order."""
        store = make_store()
        locks = LockTable(1)
        order = []

        def locked(key):
            def body():
                yield ops.LockAcquire(0, key=key)
                value = yield ops.Read("t", "v", 0)
                order.append(key)
                yield ops.Write("t", "v", 0, value + 1)
                yield ops.LockRelease(0)

            return body()

        # Submit in reverse order: keys still dictate execution order.
        tasks = [ThreadTask(i, 0, locked(9 - i)) for i in range(10)]
        SIMTEngine().launch(tasks, store, locks=locks)
        assert store.read("t", "v", 0) == 10
        assert order == sorted(order)

    def test_shared_readers_pass_concurrently(self):
        store = make_store()
        locks = LockTable(1)
        locks.set_run_size(0, 0, 3)

        def reader():
            def body():
                yield ops.LockAcquire(0, key=0, shared=True)
                value = yield ops.Read("t", "v", 0)
                yield ops.LockRelease(0)
                return value

            return body()

        def writer():
            def body():
                yield ops.LockAcquire(0, key=1)
                value = yield ops.Read("t", "v", 0)
                yield ops.Write("t", "v", 0, value + 1)
                yield ops.LockRelease(0)

            return body()

        tasks = [ThreadTask(i, 0, reader()) for i in range(3)]
        tasks.append(ThreadTask(3, 0, writer()))
        report = SIMTEngine().launch(tasks, store, locks=locks)
        assert store.read("t", "v", 0) == 1
        assert all(o.committed for o in report.outcomes)

    def test_basic_lock_opposite_order_deadlocks(self):
        store = make_store()
        locks = LockTable(2)

        def grab(first, second):
            def body():
                yield ops.LockAcquire(first)
                yield ops.Compute(1)
                yield ops.LockAcquire(second)
                yield ops.LockRelease(second)
                yield ops.LockRelease(first)

            return body()

        tasks = [ThreadTask(0, 0, grab(0, 1)), ThreadTask(1, 0, grab(1, 0))]
        with pytest.raises(DeadlockError):
            SIMTEngine().launch(tasks, store, locks=locks)

    def test_spinning_burns_cycles(self):
        store = make_store()

        def contended(key):
            def body():
                yield ops.LockAcquire(0, key=key)
                value = yield ops.Read("t", "v", 0)
                yield ops.Compute(50)
                yield ops.Write("t", "v", 0, value + 1)
                yield ops.LockRelease(0)

            return body()

        locks = LockTable(1)
        tasks = [ThreadTask(i, 0, contended(i)) for i in range(20)]
        report = SIMTEngine().launch(tasks, store, locks=locks)
        assert report.stats.spin_iterations > 0

    def test_releasing_unheld_lock_raises(self):
        def bad():
            yield ops.LockRelease(0)

        store = make_store()
        with pytest.raises(ExecutionError, match="does not hold"):
            SIMTEngine().launch(
                [ThreadTask(0, 0, bad())], store, locks=LockTable(1)
            )


class TestAbortAndUndo:
    def test_abort_marks_outcome(self):
        def failing():
            yield ops.Read("t", "v", 0)
            yield ops.Abort("nope")

        store = make_store()
        report = SIMTEngine().launch([ThreadTask(0, 0, failing())], store)
        assert not report.outcomes[0].committed
        assert report.outcomes[0].abort_reason == "nope"
        assert report.aborted_count == 1

    def test_undo_log_captures_old_values(self):
        def writer():
            yield ops.Write("t", "v", 5, 99)
            yield ops.Write("t", "w", 5, 42)

        store = make_store()
        report = SIMTEngine().launch(
            [ThreadTask(0, 0, writer(), capture_undo=True)], store
        )
        assert report.outcomes[0].undo == [("t", "v", 5, 0), ("t", "w", 5, 0)]

    def test_abort_releases_held_locks(self):
        """An aborting lock holder must not wedge its successors."""
        store = make_store()
        locks = LockTable(1)

        def aborter():
            yield ops.LockAcquire(0, key=0)
            yield ops.Abort("dies holding the lock")

        def successor():
            def body():
                yield ops.LockAcquire(0, key=1)
                value = yield ops.Read("t", "v", 0)
                yield ops.Write("t", "v", 0, value + 1)
                yield ops.LockRelease(0)

            return body()

        tasks = [ThreadTask(0, 0, aborter()), ThreadTask(1, 0, successor())]
        report = SIMTEngine().launch(tasks, store, locks=locks)
        assert store.read("t", "v", 0) == 1
        assert report.aborted_count == 1


class TestSerialLaunch:
    def test_serial_matches_functional_result(self):
        store = make_store()
        tasks = [ThreadTask(i, 0, increment(i % 4)) for i in range(12)]
        SIMTEngine().launch_serial(tasks, store)
        assert sum(store.read("t", "v", r) for r in range(4)) == 12

    def test_serial_slower_than_parallel_per_txn(self):
        def run(serial: bool) -> float:
            store = make_store(256)
            tasks = [ThreadTask(i, 0, increment(i)) for i in range(256)]
            engine = SIMTEngine()
            if serial:
                return engine.launch_serial(
                    tasks, store, per_task_launch_overhead=False
                ).seconds
            return engine.launch(tasks, store).seconds

        assert run(serial=True) > run(serial=False)

    def test_per_task_launch_overhead_adds_time(self):
        store = make_store()
        tasks = [ThreadTask(i, 0, increment(i)) for i in range(10)]
        slow = SIMTEngine().launch_serial(
            tasks, store, per_task_launch_overhead=True
        )
        store2 = make_store()
        tasks2 = [ThreadTask(i, 0, increment(i)) for i in range(10)]
        fast = SIMTEngine().launch_serial(
            tasks2, store2, per_task_launch_overhead=False
        )
        assert slow.seconds > fast.seconds

    def test_serial_abort_handling(self):
        def failing():
            yield ops.Read("t", "v", 0)
            yield ops.Abort("serial abort")

        store = make_store()
        report = SIMTEngine().launch_serial([ThreadTask(0, 0, failing())], store)
        assert report.aborted_count == 1

    def test_serial_access_costs_one_memory_transaction(self):
        def touch():
            value = yield ops.Read("t", "v", 0)
            yield ops.Write("t", "w", 0, value + 1)

        report = SIMTEngine().launch_serial([ThreadTask(0, 0, touch())], make_store())
        assert report.stats.mem_transactions[0] == 2
        assert report.stats.mem_bytes[0] == 2 * C1060.memory_transaction_bytes


class TestSerialChargePerOpKind:
    """The ad-hoc launch's clock, pinned per op kind: every op pays
    ``serial_op_overhead_cycles`` of issue, ALU and SFU work add their
    cycles, and each memory transaction (one per read, write, delete
    and rolled-back undo entry, two per probe, an insert's row in
    64 B segments) pays the full latency after the issue."""

    def test_every_kind_on_one_stream(self):
        store = StoreAdapter(micro.build_database(4, with_index=True))

        def every_kind():
            yield ops.LockAcquire(0, key=1)
            value = yield ops.Read(micro.TABLE, "value", 0)
            yield ops.Write(micro.TABLE, "value", 0, value + 1.0)
            yield ops.Compute(5)
            yield ops.SfuCompute(3)
            row = yield ops.IndexProbe("tuples_pk", 2)
            new = yield ops.InsertRow(micro.TABLE, (10, 0.0, 0))
            yield ops.DeleteRow(micro.TABLE, new)
            yield ops.SetBranch(2)
            yield ops.LockRelease(0)
            return row

        def undone():
            yield ops.Write(micro.TABLE, "value", 1, 9.0)
            yield ops.InsertRow(micro.TABLE, (11, 0.0, 0))
            yield ops.DeleteRow(micro.TABLE, 3)
            yield ops.Abort("undone")

        report = SIMTEngine().launch_serial(
            [ThreadTask(0, 0, every_kind(), capture_undo=True),
             ThreadTask(1, 0, undone(), capture_undo=True)],
            store,
        )
        assert [(o.committed, o.result) for o in report.outcomes] == [
            (True, 2), (False, None)
        ]
        assert store.read(micro.TABLE, "value", 0) == 1.0
        assert store.read(micro.TABLE, "value", 1) == 0.0
        assert store.probe("tuples_pk", 3) == 3
        assert store.probe("tuples_pk", 11) == -1

        spec = C1060
        seg = spec.memory_transaction_bytes
        insert_tx = (store.row_width(micro.TABLE) + seg - 1) // seg
        ops_run = 10 + 4
        # read, write, probe (2), insert, delete; then write, insert,
        # delete and the three rolled-back entries.
        transactions = (1 + 1 + 2 + insert_tx + 1) + (1 + insert_tx + 1 + 3)
        issue = float(
            ops_run * spec.serial_op_overhead_cycles + 5
            + 3 * spec.sfu_op_cycles
        )
        stats = report.stats
        assert stats.ops_executed == ops_run
        assert stats.threads_launched == 2
        assert stats.issue_cycles == [issue] + [0.0] * (spec.num_sms - 1)
        assert stats.mem_transactions == [transactions] + [0] * (spec.num_sms - 1)
        assert stats.mem_instructions == stats.mem_transactions
        assert stats.mem_bytes == [transactions * seg] + [0] * (spec.num_sms - 1)
        assert stats.resident_warps == [1] + [0] * (spec.num_sms - 1)
        assert stats.atomic_cycles == [0.0] * spec.num_sms
        assert (stats.divergent_serializations, stats.spin_iterations,
                stats.atomic_conflicts, stats.rounds) == (0, 0, 0, 0)
        memory = transactions * float(spec.memory_latency_cycles)
        assert report.timing == KernelTiming(
            cycles=issue + memory,
            seconds=spec.seconds(issue + memory)
            + 2 * spec.kernel_launch_overhead_s,
            issue_cycles=issue,
            memory_cycles=memory,
            atomic_cycles=0.0,
            bound="memory",
        )


class TestBothLaunchPaths:
    """The warp-stepped launch and the serial (ad-hoc) launch answer a
    transaction's ops the same way."""

    @pytest.mark.parametrize("serial", [False, True], ids=["warp", "serial"])
    def test_both_paths_apply_read_modify_writes(self, serial):
        engine = SIMTEngine()
        launch = engine.launch_serial if serial else engine.launch
        store = make_store()
        report = launch([ThreadTask(i, 0, increment(i)) for i in range(3)], store)
        assert [o.result for o in report.outcomes] == [1, 1, 1]
        assert [store.read("t", "v", r) for r in range(4)] == [1, 1, 1, 0]

    @pytest.mark.parametrize("serial", [False, True], ids=["warp", "serial"])
    def test_a_raising_body_names_the_transaction(self, serial):
        def bad():
            yield ops.Read("t", "v", 0)
            raise ValueError("boom")

        engine = SIMTEngine()
        launch = engine.launch_serial if serial else engine.launch
        with pytest.raises(ExecutionError, match="transaction 7 raised .*boom"):
            launch([ThreadTask(7, 0, bad())], make_store())
