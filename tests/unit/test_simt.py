"""Unit tests for the SIMT lockstep engine."""

import numpy as np
import pytest

from repro import GPUTx
from repro.errors import ConfigError, DeadlockError, ExecutionError
from repro.gpu import ops
from repro.gpu.atomics import CounterSpace, LockTable
from repro.gpu.memory import DictStore
from repro.gpu.simt import SIMTEngine, ThreadTask, warp_layout
from repro.gpu.spec import C1060

from tests.conftest import BANK_PROCEDURES, build_bank_db


def make_store(n_rows: int = 64) -> DictStore:
    return DictStore({"t": {"v": [0] * n_rows, "w": [0] * n_rows}})


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


class TestAtomics:
    def test_atomic_add_old_values_unique(self):
        store = make_store()
        counters = CounterSpace()
        counters.allocate("seq", 1)

        def claim():
            def body():
                slot = yield ops.AtomicAdd("seq", 0, 1)
                return slot

            return body()

        tasks = [ThreadTask(i, 0, claim()) for i in range(40)]
        report = SIMTEngine().launch(tasks, store, counters=counters)
        slots = sorted(o.result for o in report.outcomes)
        assert slots == list(range(40))
        assert report.stats.atomic_conflicts > 0

    def test_atomic_cas_one_winner(self):
        store = make_store()
        counters = CounterSpace()
        counters.allocate("flag", 1)

        def race():
            def body():
                old = yield ops.AtomicCAS("flag", 0, 0, 1)
                return old == 0

            return body()

        tasks = [ThreadTask(i, 0, race()) for i in range(32)]
        report = SIMTEngine().launch(tasks, store, counters=counters)
        winners = sum(1 for o in report.outcomes if o.result)
        assert winners == 1


    @staticmethod
    def claims(n):
        def body():
            slot = yield ops.AtomicAdd("seq", 0, 1)
            return slot

        return [ThreadTask(i, 0, body()) for i in range(n)]

    @pytest.mark.parametrize("serial", [False, True], ids=["warp", "serial"])
    def test_both_paths_apply_atomics(self, serial):
        """Regression: ``launch_serial`` accepted ``counters=`` but never
        read it -- three claims returned ``None`` and left the counter
        at 0."""
        counters = CounterSpace()
        counters.allocate("seq", 1)
        engine = SIMTEngine()
        launch = engine.launch_serial if serial else engine.launch
        report = launch(self.claims(3), make_store(), counters=counters)
        assert [o.result for o in report.outcomes] == [0, 1, 2]
        assert counters.array("seq").tolist() == [3]

    def test_serial_atomic_costs_a_memory_transaction(self):
        counters = CounterSpace()
        counters.allocate("seq", 1)
        claim = SIMTEngine().launch_serial(
            self.claims(1), make_store(), counters=counters
        )

        def read():
            yield ops.Read("t", "v", 0)

        plain = SIMTEngine().launch_serial(
            [ThreadTask(0, 0, read())], make_store()
        )
        assert claim.stats.mem_transactions[0] == 1
        assert claim.seconds == plain.seconds

    @pytest.mark.parametrize("serial", [False, True], ids=["warp", "serial"])
    def test_an_atomic_without_counters_names_the_transaction(self, serial):
        engine = SIMTEngine()
        launch = engine.launch_serial if serial else engine.launch
        with pytest.raises(ExecutionError, match="transaction 0 .*'seq'"):
            launch(self.claims(1), make_store())


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
